"""The scale-out plane's open-loop load generator.

:func:`run_open_loop` drives fixed-rate Poisson arrivals, independent of
completions.  Latency is measured from the *intended arrival time*, so
queueing delay counts: past the saturation knee the arrival queue grows
and tail latency explodes — exactly the throughput-latency hockey stick
``repro saturate`` plots.  Fixed-depth closed loops, the paper's FIO
jobs, are :func:`repro.apps.fio.run_block_workload`.

Each tenant issues random, never LBA-consecutive ordered writes (fio's
``rand`` idiom) on a private LBA area and a private stream — one tenant,
one ordered stream, as the paper's per-thread streams.  The generator
drives any :class:`~repro.systems.base.OrderedStack`, including the
sharded multi-initiator router
(:class:`repro.systems.base.ShardedStack`), which routes each tenant's
stream to its owning initiator host.

It is the one open-loop generator.  ``repro saturate``, the tenant curves
and storm, and the robustness plane's metastable-overload and gray-target
cells all run on it.  Next to every completion it reports the goodput
(completions whose bio status is 0) and the failures by cause, so shedding
and fast-fails are visible beside the served load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.nvmeof.command import STATUS_BROWNOUT, STATUS_QFULL, STATUS_TIMEOUT
from repro.sim.engine import Environment
from repro.sim.resources import IssueWindow
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import (
    LatencyRecorder,
    MeasurementWindow,
    ssd_commands_served,
)

__all__ = [
    "OpenLoopConfig",
    "LoadgenResult",
    "run_open_loop",
]

#: Private LBA area per tenant, in blocks (mirrors the fio driver).
TENANT_AREA_BLOCKS = 16_000_000

#: Open-loop admission bound per tenant: keeps memory finite when the
#: offered rate is far past saturation.  Latency is still charged from
#: the intended arrival time, so the knee remains visible.
OPEN_LOOP_INFLIGHT_CAP = 256

#: Bio status -> failure cause; any other nonzero status is ``error``.
_CAUSES = {
    STATUS_QFULL: "shed",
    STATUS_TIMEOUT: "timeout",
    STATUS_BROWNOUT: "brownout",
}


@dataclass(frozen=True)
class OpenLoopConfig:
    """Fixed-rate Poisson arrivals, split across tenants.

    Every op is one non-durable ordered write that ends its group, at a
    random LBA of the tenant's private area.  With ``weights=None`` (the
    default) the rate splits *evenly*; ``weights`` (one positive weight
    per tenant) splits the total in proportion: tenant ``i`` offers
    ``offered_iops * w_i / sum(w)``.

    ``blocks`` (one positive size per tenant) sets each tenant's write
    size, so asymmetric mixes — a small-write latency tenant next to a
    bandwidth hog — run in one open loop; ``blocks=None`` writes one
    block per op on every tenant.
    """

    offered_iops: float
    tenants: int = 4
    duration: float = 2e-3
    warmup: float = 0.5e-3
    seed: int = 1234
    weights: Optional[Tuple[float, ...]] = None
    blocks: Optional[Tuple[int, ...]] = None


@dataclass
class LoadgenResult:
    """Measured outcome of one load-generator run.

    ``ops`` and ``latency`` count every completion inside the window,
    error completions included.  ``failures_by_cause`` counts the error
    completions inside the window by the cause of their status, and
    ``good_latencies`` holds each tenant's sampled status-0 latencies.
    ``ssd_commands_served`` is what the targets' SSDs served from the
    window's opening to its end.
    """

    system: str
    tenants: int
    offered_iops: float = 0.0
    ops: int = 0
    elapsed: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    initiator_busy_cores: float = 0.0
    target_busy_cores: float = 0.0
    failures_by_cause: Dict[str, int] = field(default_factory=dict)
    good_latencies: List[List[float]] = field(default_factory=list)
    ssd_commands_served: int = 0

    @property
    def achieved_iops(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0

    @property
    def failed_ops(self) -> int:
        return sum(self.failures_by_cause.values())

    @property
    def good_ops(self) -> int:
        """Completions inside the window whose bio status is 0."""
        return self.ops - self.failed_ops

    @property
    def goodput_iops(self) -> float:
        return self.good_ops / self.elapsed if self.elapsed else 0.0

    @property
    def iops_per_busy_core(self) -> float:
        """§6.1 CPU efficiency at this load point (initiator side)."""
        if self.initiator_busy_cores <= 0:
            return 0.0
        return self.achieved_iops / self.initiator_busy_cores


def _make_lba_chooser(tenant: int, rng: DeterministicRNG, stride: int):
    """Random address generator for one tenant (fio's rand idiom): a
    random ``stride``-aligned slot of its private area, drawn from
    ``rng``'s ``lba`` fork."""
    lba_rng = rng.fork("lba")
    base = tenant * TENANT_AREA_BLOCKS

    def next_lba() -> int:
        slot = lba_rng.randint(0, TENANT_AREA_BLOCKS // stride - 1)
        return base + slot * stride

    return next_lba


def _tenant_rates(config: OpenLoopConfig) -> List[float]:
    """Per-tenant offered rates: even split, or weight-proportional."""
    if config.weights is None:
        return [config.offered_iops / config.tenants] * config.tenants
    if len(config.weights) != config.tenants:
        raise ValueError(
            f"weights length {len(config.weights)} != tenants {config.tenants}"
        )
    if any(w <= 0 for w in config.weights):
        raise ValueError("tenant weights must all be positive")
    total = sum(config.weights)
    return [config.offered_iops * w / total for w in config.weights]


def _tenant_blocks(config: OpenLoopConfig) -> List[int]:
    """Per-tenant write sizes: one block each, or the mix."""
    if config.blocks is None:
        return [1] * config.tenants
    if len(config.blocks) != config.tenants:
        raise ValueError(
            f"blocks length {len(config.blocks)} != tenants {config.tenants}"
        )
    if any(b < 1 for b in config.blocks):
        raise ValueError("per-tenant block counts must all be >= 1")
    return list(config.blocks)


def run_open_loop(cluster, stack, config: OpenLoopConfig, plane=None,
                  rng_label: str = "loadgen-open",
                  next_lba_for=None) -> LoadgenResult:
    """Run a fixed-rate Poisson workload to the end of its window.

    ``plane`` (a :class:`repro.tenants.traffic.TenantTrafficPlane` or
    any duck-typed equivalent) layers the multi-tenant plane over the
    generator: arrivals are drawn at the diurnal *peak* rate and thinned
    by ``plane.keep`` (an exact Poisson modulation), each op is issued as
    a Zipf-picked member tenant of its stream (``plane.pick``) and its
    latency is recorded per class (``plane.record``).  ``plane=None`` is
    the anonymous generator: its ops carry no tenant tag, and the tenant
    RNG is only ever forked when a plane is given.

    Each op is one ordered write of ``config.blocks[tenant]`` blocks (one
    block when ``blocks`` is None) with ``end_of_group=True`` and no
    flush, at a random LBA of the tenant's private
    :data:`TENANT_AREA_BLOCKS` area.  The run's
    :class:`~repro.sim.stats.MeasurementWindow` counts an op toward
    ``ops`` when it completes inside the window, and records its latency
    when it also arrived inside it, whatever its status.  An op whose bio
    status is nonzero counts in ``failures_by_cause`` instead of in the
    goodput.

    Tenant ``t`` draws its arrivals from the seed's ``{rng_label}{t}``
    fork, and its addresses from ``next_lba_for(t, rng)``, a function of
    the tenant and that fork that returns a ``next_lba()`` callable.  The
    default chooser strides ``blocks + 2``, so ops are never
    LBA-consecutive.
    """
    if config.tenants < 1:
        raise ValueError("need at least one tenant")
    if config.offered_iops <= 0:
        raise ValueError("offered_iops must be > 0")
    env: Environment = cluster.env
    result = LoadgenResult(system=stack.name, tenants=config.tenants,
                           offered_iops=config.offered_iops)
    measured = MeasurementWindow(env, config.warmup, config.duration)
    rates = _tenant_rates(config)
    blocks = _tenant_blocks(config)
    peak = plane.peak_factor() if plane is not None else 1.0
    failures = result.failures_by_cause
    good_latencies = result.good_latencies = [[] for _ in blocks]
    if next_lba_for is None:
        def next_lba_for(tenant, rng):
            return _make_lba_chooser(tenant, rng, blocks[tenant] + 2)

    def complete(arrival, tenant, who, done):
        latency = measured.complete(arrival)
        bio = getattr(done, "bio", None)
        status = bio.status if bio is not None else 0
        if status:
            if measured.inside():
                cause = _CAUSES.get(status, "error")
                failures[cause] = failures.get(cause, 0) + 1
        elif latency is not None:
            good_latencies[tenant].append(latency)
        if latency is not None and who is not None:
            plane.record(who, latency)

    def tenant_body(tenant: int):
        rng = DeterministicRNG(config.seed).fork(f"{rng_label}{tenant}")
        plane_rng = rng.fork("tenant-plane") if plane is not None else None
        core = cluster.initiator.cpus.pick(tenant)
        nblocks = blocks[tenant]
        next_lba = next_lba_for(tenant, rng)
        arrival = 0.0
        window = IssueWindow(env, OPEN_LOOP_INFLIGHT_CAP, complete)
        while True:
            arrival += rng.expovariate(rates[tenant] * peak)
            if arrival >= measured.end:
                return
            if plane is not None and not plane.keep(plane_rng, arrival):
                continue  # diurnal trough: thin the peak-rate arrival
            if arrival > env.now:
                yield env.timeout(arrival - env.now)
            # (if arrival <= now we are backlogged: issue immediately,
            # charging the queueing delay to this op's latency)
            who = plane.pick(tenant, plane_rng) if plane is not None else None
            tag = {} if who is None else {"tenant": who}
            done = yield from stack.write_ordered(
                core, tenant, lba=next_lba(), nblocks=nblocks,
                end_of_group=True, **tag,
            )
            yield from window.issue([done], arrival, tenant, who, done)

    measured.watch_cpu(cluster)
    for tenant in range(config.tenants):
        env.process(tenant_body(tenant))
    env.run(until=measured.end)
    result.ops = measured.ops
    result.latency = measured.latency
    result.elapsed = config.duration
    result.initiator_busy_cores = cluster.initiator_busy_cores(config.duration)
    result.target_busy_cores = cluster.target_busy_cores(config.duration)
    result.ssd_commands_served = (ssd_commands_served(cluster)
                                  - measured.served_at_start)
    return result
