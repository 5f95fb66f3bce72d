"""Tenant directory: classes, stream placement, Zipf skew, diurnal rates.

The scale-out plane (PR 5) shards ordered streams across initiator
nodes by congruence; this module applies the same trick one level up and
maps a tenant population — thousands to millions — onto those streams
with a *seeded affine congruence*::

    stream(t) = (a * t + b) mod S        (a coprime with S)

so placement is a bijection per residue class, O(1) to evaluate, and
fully determined by the experiment seed.  Popularity is Zipfian over a
seeded rank permutation, rates breathe with a diurnal profile, and each
tenant belongs to one of a few service classes (``gold``/``silver``/
``bronze``) carrying an SLO target and a fair-share weight.

Everything here is pure bookkeeping: no simulation state, no I/O.  The
load generators consult the directory to pick and tag tenants; the
target-side QoS admission (:mod:`repro.robust.admission`) consults it to
resolve a tenant's class, weight and token-bucket parameters.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sim.obs.metrics import Histogram
from repro.sim.rng import DeterministicRNG

__all__ = [
    "CLASS_NAMES",
    "DEFAULT_CLASSES",
    "ClassAccountant",
    "DiurnalProfile",
    "TenantClass",
    "TenantDirectory",
    "zipf_rank",
]

#: Exact inverse-CDF head size; ranks past this use a closed-form tail.
_ZIPF_HEAD = 65536


@dataclass(frozen=True)
class TenantClass:
    """One service class: fair-share weight, SLO, and pacing parameters.

    ``weight``          — weighted-fair-queueing share (admission deficit
                          grows as 1/weight per admitted command).
    ``slo_p999_us``     — the class SLO: 99.9th percentile latency bound
                          in microseconds, asserted by the harness.
    ``share``           — fraction of the tenant population in this class.
    ``rate_iops``       — per-tenant token-bucket refill rate (None = no
                          per-tenant pacing for this class).
    ``burst``           — token-bucket depth in commands.
    """

    name: str
    weight: float = 1.0
    slo_p999_us: float = 10_000.0
    share: float = 1.0
    rate_iops: Optional[float] = None
    burst: float = 32.0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("class weight must be positive")
        if not 0.0 < self.share <= 1.0:
            raise ValueError("class share must be in (0, 1]")
        if self.burst < 1.0:
            raise ValueError("token-bucket burst must hold >= 1 command")


#: The default three-class split: a small gold population with a tight
#: SLO and a large weight, a silver middle, and a bronze bulk that the
#: fair scheduler may pace hard under contention.
DEFAULT_CLASSES: Tuple[TenantClass, ...] = (
    TenantClass("gold", weight=8.0, slo_p999_us=2_000.0, share=0.1),
    TenantClass("silver", weight=3.0, slo_p999_us=5_000.0, share=0.3),
    TenantClass("bronze", weight=1.0, slo_p999_us=20_000.0, share=0.6),
)

CLASS_NAMES: Tuple[str, ...] = tuple(c.name for c in DEFAULT_CLASSES)


@lru_cache(maxsize=32)
def _zipf_cdf(n: int, alpha: float) -> Tuple[Tuple[float, ...], float]:
    """Cumulative head weights and tail mass for Zipf(``alpha``, ``n``)."""
    head = min(n, _ZIPF_HEAD)
    cum: List[float] = []
    running = 0.0
    for rank in range(head):
        running += 1.0 / (rank + 1) ** alpha
        cum.append(running)
    return tuple(cum), _zipf_tail_mass(head, n, alpha)


def zipf_rank(u: float, n: int, alpha: float) -> int:
    """Inverse CDF of a Zipf(``alpha``) law over ranks ``0..n-1``.

    Exact for ranks below :data:`_ZIPF_HEAD`; the (vanishingly light)
    tail mass beyond the head is estimated in closed form and spread
    uniformly, which keeps huge populations O(head) in time and memory.
    """
    if n < 1:
        raise ValueError("need at least one rank")
    if not 0.0 <= u < 1.0:
        raise ValueError("u must be in [0, 1)")
    cum, tail = _zipf_cdf(n, alpha)
    head = len(cum)
    target = u * (cum[-1] + tail)
    if target < cum[-1]:
        return bisect_left(cum, target)
    if n <= head:
        return n - 1
    frac = (target - cum[-1]) / tail if tail > 0 else 0.0
    return min(n - 1, head + int(frac * (n - head)))


def _zipf_tail_mass(head: int, n: int, alpha: float) -> float:
    """Closed-form estimate of ``sum_{k=head+1}^{n} k**-alpha``."""
    if n <= head:
        return 0.0
    if alpha == 1.0:
        return math.log(n / head)
    return (n ** (1.0 - alpha) - head ** (1.0 - alpha)) / (1.0 - alpha)


@dataclass(frozen=True)
class DiurnalProfile:
    """Sinusoidal rate modulation: ``factor(t)`` in [1-A, 1+A].

    The generators draw arrivals at the *peak* rate and thin them by
    ``factor(t) / (1 + amplitude)`` — deterministic given a forked RNG,
    and exact (a thinned Poisson process is a Poisson process at the
    thinned rate).
    """

    amplitude: float = 0.0
    period: float = 1e-3
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")
        if self.period <= 0:
            raise ValueError("diurnal period must be positive")

    def factor(self, now: float) -> float:
        if self.amplitude == 0.0:
            return 1.0
        return 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * now / self.period + self.phase)

    def peak_factor(self) -> float:
        return 1.0 + self.amplitude

    def keep(self, rng: DeterministicRNG, now: float) -> bool:
        """Thinning decision for an arrival drawn at the peak rate."""
        if self.amplitude == 0.0:
            return True
        return rng.random() < self.factor(now) / self.peak_factor()


class TenantDirectory:
    """Seeded map from a tenant population to streams and classes."""

    def __init__(
        self,
        num_tenants: int,
        num_streams: int,
        classes: Sequence[TenantClass] = DEFAULT_CLASSES,
        seed: int = 42,
        zipf_alpha: float = 1.1,
    ):
        if num_tenants < 1:
            raise ValueError("need at least one tenant")
        if num_streams < 1:
            raise ValueError("need at least one stream")
        if not classes:
            raise ValueError("need at least one tenant class")
        shares = sum(c.share for c in classes)
        if abs(shares - 1.0) > 1e-9:
            raise ValueError(f"class shares must sum to 1 (got {shares})")
        self.num_tenants = num_tenants
        self.num_streams = num_streams
        self.classes = tuple(classes)
        self.seed = int(seed)
        self.zipf_alpha = zipf_alpha
        rng = DeterministicRNG(seed).fork("tenant-directory")
        self._a = self._coprime(rng, num_streams)
        self._b = rng.randint(0, num_streams - 1)
        # Independent affine bijection tenant-id <-> popularity rank, so
        # the hottest tenants are scattered over streams and classes.
        self._ra = self._coprime(rng, num_tenants)
        self._rb = rng.randint(0, num_tenants - 1)
        self._class_cdf: List[float] = []
        running = 0.0
        for c in self.classes:
            running += c.share
            self._class_cdf.append(running)
        self._class_cdf[-1] = 1.0

    @staticmethod
    def _coprime(rng: DeterministicRNG, modulus: int) -> int:
        """A seeded multiplier coprime with ``modulus`` (1 if modulus=1)."""
        if modulus == 1:
            return 1
        while True:
            a = rng.randint(1, modulus - 1)
            if math.gcd(a, modulus) == 1:
                return a

    # -- placement ---------------------------------------------------------

    def stream_of(self, tenant: int) -> int:
        """The global stream (as :func:`~repro.systems.base.make_stack`
        routes it) carrying ``tenant``'s I/O."""
        self._check(tenant)
        return (self._a * tenant + self._b) % self.num_streams

    def tenants_of_stream(self, stream: int, limit: int = 64) -> Iterator[int]:
        """Up to ``limit`` member tenants of ``stream`` (residue class)."""
        if not 0 <= stream < self.num_streams:
            raise ValueError(f"stream {stream} out of range")
        inv = pow(self._a, -1, self.num_streams)
        first = (inv * (stream - self._b)) % self.num_streams
        count = 0
        for tenant in range(first, self.num_tenants, self.num_streams):
            if count >= limit:
                return
            yield tenant
            count += 1

    def member_count(self, stream: int) -> int:
        inv = pow(self._a, -1, self.num_streams)
        first = (inv * (stream - self._b)) % self.num_streams
        if first >= self.num_tenants:
            return 0
        return 1 + (self.num_tenants - 1 - first) // self.num_streams

    # -- classes -----------------------------------------------------------

    def class_of(self, tenant: int) -> TenantClass:
        """Deterministic class assignment by seeded hash partition."""
        self._check(tenant)
        digest = hashlib.blake2b(
            f"{self.seed}:class:{tenant}".encode("ascii"),
            digest_size=8).digest()
        u = int.from_bytes(digest, "little") / 2 ** 64
        for cum, cls in zip(self._class_cdf, self.classes):
            if u < cum:
                return cls
        return self.classes[-1]

    def class_name_of(self, tenant: int) -> str:
        return self.class_of(tenant).name

    # -- popularity --------------------------------------------------------

    def tenant_at_rank(self, rank: int) -> int:
        """Popularity rank (0 = hottest) -> tenant id."""
        if not 0 <= rank < self.num_tenants:
            raise ValueError(f"rank {rank} out of range")
        return (self._ra * rank + self._rb) % self.num_tenants

    def pick(self, rng: DeterministicRNG) -> int:
        """Draw a tenant Zipf-skewed by popularity rank."""
        rank = zipf_rank(rng.random(), self.num_tenants, self.zipf_alpha)
        return self.tenant_at_rank(rank)

    def pick_member(self, stream: int, rng: DeterministicRNG) -> int:
        """Draw a tenant of ``stream``, Zipf-skewed within its members."""
        members = self.member_count(stream)
        if members == 0:
            raise ValueError(f"stream {stream} carries no tenants")
        rank = zipf_rank(rng.random(), members, self.zipf_alpha)
        inv = pow(self._a, -1, self.num_streams)
        first = (inv * (stream - self._b)) % self.num_streams
        return first + rank * self.num_streams

    def _check(self, tenant: int) -> None:
        if not 0 <= tenant < self.num_tenants:
            raise ValueError(f"tenant {tenant} out of range")

    def __repr__(self) -> str:
        return (f"<TenantDirectory {self.num_tenants} tenants -> "
                f"{self.num_streams} streams, alpha={self.zipf_alpha}>")


class ClassAccountant:
    """Per-class tail-latency accounting over log-bucketed histograms."""

    def __init__(self, classes: Sequence[TenantClass] = DEFAULT_CLASSES):
        self.histograms: Dict[str, Histogram] = {
            c.name: Histogram() for c in classes}

    def record(self, class_name: str, latency_s: float) -> None:
        hist = self.histograms.get(class_name)
        if hist is None:
            hist = self.histograms[class_name] = Histogram()
        hist.observe(latency_s)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{class: {count, mean_us, p50_us, p99_us, p999_us}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            out[name] = {
                "count": float(hist.count),
                "mean_us": hist.mean * 1e6,
                "p50_us": hist.percentile(0.50) * 1e6,
                "p99_us": hist.percentile(0.99) * 1e6,
                "p999_us": hist.percentile(0.999) * 1e6,
            }
        return out
