"""NVMe SSD models: multi-queue, write cache, FLUSH, PLP, crash semantics.

Three device profiles reproduce the paper's testbed (§6.1):

* :data:`FLASH_PM981` — Samsung PM981.  A client flash SSD with a *volatile*
  write cache and **no** power-loss protection.  Writes complete once data
  lands in the cache; persistence happens as the cache drains to flash in
  the background, in no particular order ("the NVMe SSD may freely re-order
  requests", §2.2).  A FLUSH command is a device-wide synchronous drain of
  everything admitted before it, plus FTL-mapping persistence — the
  "prohibitive" barrier of Lesson 1 (§3.2).

* :data:`OPTANE_905P` / :data:`OPTANE_P4800X` — Intel Optane SSDs with
  power-loss protection: data is durable as soon as the completion is
  reported, and FLUSH is (nearly) free (Lesson 2).

Performance is governed by three mechanisms, matching how real devices
behave: a per-command concurrency limit (``chips`` — channel/CMB
parallelism, capping IOPS), a serialized media pipe (capping bandwidth) and
a fixed per-command latency.

Crash semantics: :meth:`NvmeSsd.crash` discards the volatile cache and all
in-flight commands while preserving durable media, which is exactly the
post-crash state space of §4.8.

Device realism (qualification states): profiles may additionally declare a
logical ``capacity_bytes`` with an over-provisioned spare area.  Once the
device fills past ``gc_threshold`` of its physical space, steady-state
garbage collection activates: every host batch drained to media drags
relocated valid data along, inflating media service time by the greedy-GC
write-amplification factor ``WA ~ 1/(1-u)`` (capped at ``gc_wa_cap``).
Wear accounting (host + GC bytes programmed) is monotone, survives power
cycles, and is exported — together with cache pressure, stall counts and
GC state — as a SMART-like health snapshot (:meth:`NvmeSsd.smart`) and as
``MetricsRegistry`` gauges.  All of it defaults *off* (``capacity_bytes=0``
disables utilization/GC/wear) so the first-order profiles behave exactly
as before.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.sim.rng import DeterministicRNG

__all__ = [
    "SsdProfile",
    "DiskIO",
    "NvmeSsd",
    "CrashedError",
    "FLASH_PM981",
    "FLASH_PM981_QUAL",
    "OPTANE_905P",
    "OPTANE_P4800X",
    "OPTANE_P5800X",
    "BLOCK_SIZE",
]

#: Logical block size used throughout the reproduction (bytes).
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class SsdProfile:
    """Latency/bandwidth/durability parameters of one SSD model."""

    name: str
    #: Power-loss protection: data durable at completion, FLUSH free.
    plp: bool
    #: Fixed per-command service latency (seconds).
    write_latency: float
    read_latency: float
    #: Host interface (PCIe DMA) bandwidth in bytes/second.
    interface_bandwidth: float
    #: Aggregate media program bandwidth in bytes/second (drain rate for
    #: cached flash, direct write rate for Optane).
    media_bandwidth: float
    #: Concurrent command slots (channel parallelism).
    chips: int
    #: Volatile write cache capacity in bytes (0 for PLP devices).
    cache_capacity: int
    #: Fixed FLUSH overhead (FTL mapping persistence etc.), seconds.
    flush_base_latency: float
    #: Maximum transfer size of a single command (bytes) — requests larger
    #: than this must be split by the block layer (§4.5).
    max_transfer: int
    # -- device-realism knobs (all inert by default) -------------------
    #: Logical namespace capacity in bytes.  0 (the default) disables
    #: utilization, GC and wear-percentage accounting entirely.
    capacity_bytes: int = 0
    #: Physical spare area beyond the logical capacity (fraction).
    overprovision: float = 0.07
    #: Physical utilization at which steady-state GC activates.
    gc_threshold: float = 0.80
    #: Cap on the GC write-amplification factor.
    gc_wa_cap: float = 4.0
    #: Rated endurance in full-physical-device program/erase-equivalent
    #: passes (0 = unrated: wear bytes still accumulate, wear_pct is 0).
    endurance_cycles: int = 0

    def __post_init__(self):
        if self.plp and self.cache_capacity:
            raise ValueError("PLP profiles model no volatile cache")
        if self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        if self.overprovision < 0:
            raise ValueError("overprovision must be >= 0")
        if not 0.0 < self.gc_threshold < 1.0:
            raise ValueError("gc_threshold must be in (0, 1)")
        if self.gc_wa_cap < 1.0:
            raise ValueError("gc_wa_cap must be >= 1")
        if self.endurance_cycles < 0:
            raise ValueError("endurance_cycles must be >= 0")


FLASH_PM981 = SsdProfile(
    name="PM981-flash",
    plp=False,
    write_latency=15e-6,
    read_latency=80e-6,
    interface_bandwidth=3.2e9,
    media_bandwidth=2.0e9,
    chips=8,
    cache_capacity=64 * 1024 * 1024,
    flush_base_latency=350e-6,
    max_transfer=512 * 1024,
    capacity_bytes=256 * 1024 ** 3,
    endurance_cycles=600,
)

#: Qualification variant of the PM981: identical service latencies and
#: bandwidths, but a deliberately small namespace and write cache so short
#: deterministic runs reach the states a 256 GB drive only shows after
#: hours of preconditioning — cache eviction pressure, cache-full stalls
#: and steady-state GC (the regime `repro qualify` exercises).
FLASH_PM981_QUAL = SsdProfile(
    name="PM981-qual",
    plp=False,
    write_latency=15e-6,
    read_latency=80e-6,
    interface_bandwidth=3.2e9,
    media_bandwidth=2.0e9,
    chips=8,
    cache_capacity=2 * 1024 * 1024,
    flush_base_latency=350e-6,
    max_transfer=512 * 1024,
    capacity_bytes=64 * 1024 * 1024,
    overprovision=0.07,
    gc_threshold=0.80,
    gc_wa_cap=4.0,
    endurance_cycles=600,
)

OPTANE_905P = SsdProfile(
    name="905P-optane",
    plp=True,
    write_latency=10e-6,
    read_latency=10e-6,
    interface_bandwidth=2.6e9,
    media_bandwidth=2.2e9,
    chips=7,
    cache_capacity=0,
    flush_base_latency=1e-6,
    max_transfer=128 * 1024,
)

#: A PCIe 4.0-class drive (Intel P5800X), used by the sensitivity study:
#: the paper predicts that "for storage arrays and newer and faster SSDs
#: … [synchronous ordering] needs more computation resources" (§3.1).
OPTANE_P5800X = SsdProfile(
    name="P5800X-optane",
    plp=True,
    write_latency=5e-6,
    read_latency=5e-6,
    interface_bandwidth=7.0e9,
    media_bandwidth=6.2e9,
    chips=10,
    cache_capacity=0,
    flush_base_latency=1e-6,
    max_transfer=128 * 1024,
)

OPTANE_P4800X = SsdProfile(
    name="P4800X-optane",
    plp=True,
    write_latency=10e-6,
    read_latency=10e-6,
    interface_bandwidth=2.4e9,
    media_bandwidth=2.0e9,
    chips=7,
    cache_capacity=0,
    flush_base_latency=1e-6,
    max_transfer=128 * 1024,
)


@dataclass
class DiskIO:
    """One command at the SSD interface.

    ``payload`` optionally carries one opaque object per block so file-system
    and recovery tests can verify *content*, not just completion.

    ``barrier`` marks a barrier write (the BarrierFS / barrier-enabled-SSD
    interface of §2.2): barrier writes persist in submission order relative
    to each other, without a FLUSH — at the cost of serializing them
    through the device.
    """

    op: str  # "write" | "read" | "flush"
    lba: int = 0
    nblocks: int = 0
    payload: Optional[List[Any]] = None
    fua: bool = False
    barrier: bool = False
    #: Parent span (the target's ``target.admit``) for the ``ssd.service``
    #: span; None unless an Observability is attached.
    obs_parent: Any = None

    def __post_init__(self):
        if self.op not in ("write", "read", "flush"):
            raise ValueError(f"unknown SSD op: {self.op}")
        if self.op != "flush" and self.nblocks <= 0:
            raise ValueError("read/write needs nblocks >= 1")
        if self.payload is not None and len(self.payload) != self.nblocks:
            raise ValueError("payload length must equal nblocks")

    @property
    def nbytes(self) -> int:
        return self.nblocks * BLOCK_SIZE


@dataclass
class _CacheEntry:
    seq: int
    lba: int
    payload: Any
    version: int
    barrier: bool = False


class CrashedError(Exception):
    """Raised for commands submitted to (or in flight on) a crashed SSD."""


class NvmeSsd:
    """One simulated NVMe SSD (a single namespace)."""

    def __init__(
        self,
        env: Environment,
        profile: SsdProfile,
        rng: Optional[DeterministicRNG] = None,
        name: str = "ssd",
    ):
        self.env = env
        self.profile = profile
        self.name = name
        self.rng = rng or DeterministicRNG(7).fork(name)
        # Durable state: survives crashes.
        self._media: Dict[int, Any] = {}
        self._media_version: Dict[int, int] = {}
        self._version_counter = 0
        self.crashed = False
        self._epoch = 0
        self.commands_served = 0
        self.flushes_served = 0
        # Wear/endurance accounting.  Flash wear is physical: it survives
        # power cycles (not reset by _init_volatile) and is monotone by
        # construction — the property suite checks both.
        self.media_host_bytes = 0    # host data programmed to media
        self.media_gc_bytes = 0      # extra GC relocation traffic
        self.cache_evictions = 0     # cache entries applied to media
        self.cache_stalls = 0        # writes that waited for cache space
        self.cache_stall_time = 0.0  # total time writes spent stalled
        #: Gray-failure (fail-slow) multiplier on every service latency
        #: (>= 1, default 1 = healthy).  Mutable because the profile is
        #: frozen; set via :meth:`repro.nvmeof.target.TargetServer.degrade`.
        self.service_inflation = 1.0
        #: Optional hook fired after every durable-media mutation (PLP
        #: persist or cache-drain batch apply).  The crash-consistency
        #: checker uses it to snapshot state at persistence events; None
        #: (the default) keeps the hot paths a single attribute check.
        self.on_persist = None
        obs = env.obs
        if obs is not None:
            m = obs.metrics
            m.register_gauge(f"ssd.{name}.commands_served",
                             lambda: self.commands_served)
            m.register_gauge(f"ssd.{name}.flushes_served",
                             lambda: self.flushes_served)
            m.register_gauge(f"ssd.{name}.dirty_bytes",
                             lambda: self._cache_bytes)
            # SMART-like health surface (device realism).
            m.register_gauge(f"ssd.{name}.cache_pressure",
                             lambda: self.cache_pressure)
            m.register_gauge(f"ssd.{name}.cache_stalls",
                             lambda: self.cache_stalls)
            m.register_gauge(f"ssd.{name}.utilization",
                             lambda: self.utilization())
            m.register_gauge(f"ssd.{name}.write_amp",
                             lambda: self.write_amplification())
            m.register_gauge(f"ssd.{name}.gc_active",
                             lambda: 1.0 if self.gc_active else 0.0)
            m.register_gauge(f"ssd.{name}.wear_pct",
                             lambda: self.wear_pct())
        self._init_volatile()

    # ------------------------------------------------------------------
    # Volatile machinery (rebuilt on every power cycle)
    # ------------------------------------------------------------------

    def _init_volatile(self) -> None:
        env = self.env
        self._slots = Resource(env, capacity=self.profile.chips)
        self._interface = Resource(env, capacity=1)
        self._media_pipe = Resource(env, capacity=1)
        #: Barrier writes serialize through one lane (order = persistence
        #: order); this is the §2.2 cost of the barrier interface.
        self._barrier_lane = Resource(env, capacity=1)
        self._barrier_fifo: deque = deque()
        #: Barrier-order tickets: reserved synchronously at command
        #: admission (see reserve_barrier_ticket) or at submit(), so the
        #: device's contract — barrier writes persist in *submission*
        #: order — survives the concurrent service stages (RDMA data
        #: fetch, latency jitter), which would otherwise let a small
        #: barrier write overtake a large earlier one.
        self._barrier_next_ticket = 0
        self._barrier_turn = 0
        self._barrier_turn_waiters: Dict[int, Event] = {}
        self._barrier_abandoned: set = set()
        self._cache: Dict[int, _CacheEntry] = {}
        self._drain_queue: deque = deque()
        self._cache_bytes = 0
        self._cache_seq = 0
        self._drained_below = 0  # all cache seqs < this are durable
        self._pending_drain_seqs: Set[int] = set()
        self._space_waiters: List[Tuple[int, Event]] = []
        self._drain_waiters: List[Tuple[int, Event]] = []
        self._drain_kick: Optional[Event] = None
        if not self.profile.plp and self.profile.cache_capacity:
            env.process(self._drain_loop(self._epoch))

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def submit(self, io: DiskIO) -> Event:
        """Submit a command; returns an event firing at completion.

        The completion event's value is the :class:`DiskIO` itself (reads
        get their ``payload`` filled in).  Commands in flight during a crash
        never complete, as on real hardware.
        """
        done = Event(self.env)
        if self.crashed:
            done.fail(CrashedError(f"{self.name} is crashed"))
            return done
        if io.op == "write" and io.barrier:
            # Claim the barrier-order ticket unless the submitter reserved
            # one earlier (a target reserves at command admission, before
            # the size-dependent data fetch can scramble arrival order).
            if getattr(io, "_barrier_ticket", None) is None:
                io._barrier_ticket = self.reserve_barrier_ticket()  # type: ignore[attr-defined]
        self.env.process(self._serve(io, done, self._epoch))
        return done

    def reserve_barrier_ticket(self) -> int:
        """Claim the next slot in the device's barrier persist order.

        Barrier writes persist strictly in ticket order; callers that can
        observe the intended submission order earlier than :meth:`submit`
        (e.g. an NVMe-oF target whose concurrent command handling fetches
        write data with size-dependent RDMA READs) reserve here and attach
        the ticket to the :class:`DiskIO` as ``_barrier_ticket``.
        """
        ticket = self._barrier_next_ticket
        self._barrier_next_ticket += 1
        return ticket

    def crash(self) -> None:
        """Power failure: lose the volatile cache and in-flight commands."""
        self.crashed = True
        self._epoch += 1

    def restart(self) -> None:
        """Power the device back on; durable media is preserved."""
        if not self.crashed:
            raise RuntimeError(f"{self.name} is not crashed")
        self.crashed = False
        self._init_volatile()

    # -- ground-truth inspection (used by recovery logic and tests) --------

    def durable_payload(self, lba: int) -> Any:
        """Content of ``lba`` on persistent media (None if never persisted)."""
        return self._media.get(lba)

    def durable_version(self, lba: int) -> int:
        """Monotonic version of the durable content at ``lba`` (0 = never)."""
        return self._media_version.get(lba, 0)

    def is_durable(self, lba: int, min_version: int = 1) -> bool:
        return self._media_version.get(lba, 0) >= min_version

    def current_payload(self, lba: int) -> Any:
        """Content a read would return right now (cache overrides media)."""
        entry = self._cache.get(lba)
        if entry is not None:
            return entry.payload
        return self._media.get(lba)

    def discard(self, lba: int, nblocks: int = 1) -> None:
        """Erase blocks (used by recovery roll-back; instantaneous here —
        the I/O cost is charged by the recovery harness)."""
        for block in range(lba, lba + nblocks):
            self._media.pop(block, None)
            self._media_version.pop(block, None)
            self._cache.pop(block, None)

    @property
    def dirty_bytes(self) -> int:
        return self._cache_bytes

    # -- device-realism surface: utilization, GC, wear, SMART --------------

    @property
    def physical_bytes(self) -> int:
        """Physical media size: logical capacity plus the spare area."""
        p = self.profile
        return int(p.capacity_bytes * (1.0 + p.overprovision))

    def utilization(self) -> float:
        """Physical utilization: fraction of physical blocks holding live
        logical data (0.0 for profiles without a declared capacity)."""
        if not self.profile.capacity_bytes:
            return 0.0
        return min(1.0, len(self._media) * BLOCK_SIZE / self.physical_bytes)

    @property
    def gc_active(self) -> bool:
        """Steady-state GC is running (flash only, past the threshold)."""
        return (
            bool(self.profile.capacity_bytes)
            and not self.profile.plp
            and self.utilization() >= self.profile.gc_threshold
        )

    def write_amplification(self) -> float:
        """Current GC write-amplification factor (1.0 while GC is idle).

        Greedy GC under uniform writes relocates ``u/(1-u)`` valid bytes
        per host byte at physical utilization ``u``, so the media pipe
        serves ``WA = 1/(1-u)`` bytes per host byte, capped at the
        profile's ``gc_wa_cap``.
        """
        if not self.gc_active:
            return 1.0
        u = self.utilization()
        if u >= 1.0:
            return self.profile.gc_wa_cap
        return min(self.profile.gc_wa_cap, 1.0 / (1.0 - u))

    def wear_pct(self) -> float:
        """Endurance consumed, as a percentage of rated program bytes."""
        p = self.profile
        if not p.capacity_bytes or not p.endurance_cycles:
            return 0.0
        rated = self.physical_bytes * p.endurance_cycles
        return 100.0 * (self.media_host_bytes + self.media_gc_bytes) / rated

    @property
    def cache_pressure(self) -> float:
        """Dirty fraction of the write cache (0.0 on cacheless devices)."""
        if not self.profile.cache_capacity:
            return 0.0
        return self._cache_bytes / self.profile.cache_capacity

    def smart(self) -> Dict[str, float]:
        """SMART-like health snapshot: plain numbers, JSON-encodable."""
        return {
            "commands_served": float(self.commands_served),
            "flushes_served": float(self.flushes_served),
            "dirty_bytes": float(self._cache_bytes),
            "cache_pressure": self.cache_pressure,
            "cache_stalls": float(self.cache_stalls),
            "cache_stall_time": self.cache_stall_time,
            "cache_evictions": float(self.cache_evictions),
            "media_host_bytes": float(self.media_host_bytes),
            "media_gc_bytes": float(self.media_gc_bytes),
            "write_amp": self.write_amplification(),
            "utilization": self.utilization(),
            "gc_active": 1.0 if self.gc_active else 0.0,
            "wear_pct": self.wear_pct(),
            "service_inflation": self.service_inflation,
            "power_cycles": float(self._epoch),
        }

    def prefill(self, fraction: float) -> None:
        """Fill ``fraction`` of the logical capacity directly on media.

        Qualification sweeps start from the steady state a long-lived
        drive reaches (GC active) without simulating hours of fill
        traffic: pure state mutation — no simulated time passes, no wear
        is charged, and every prefilled version predates any run write.
        Idempotent per block; a no-op on profiles without a capacity.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("prefill fraction must be in [0, 1]")
        nblocks = int(self.profile.capacity_bytes // BLOCK_SIZE * fraction)
        for lba in range(nblocks):
            if lba in self._media:
                continue
            self._version_counter += 1
            self._media[lba] = ("prefill", lba)
            self._media_version[lba] = self._version_counter

    # -- durable-state snapshot/restore (crash-consistency checker) --------

    def capture_durable_state(self) -> Dict[str, Any]:
        """Copy of exactly what survives a power failure right now."""
        return {
            "media": dict(self._media),
            "media_version": dict(self._media_version),
            "version_counter": self._version_counter,
            "media_host_bytes": self.media_host_bytes,
            "media_gc_bytes": self.media_gc_bytes,
        }

    def restore_durable_state(self, state: Dict[str, Any]) -> None:
        """Overwrite durable media with a captured snapshot.

        Used on a freshly built (never-written) device to materialize a
        crash point; volatile state is untouched, matching the post-crash
        power-on condition.
        """
        self._media = dict(state["media"])
        self._media_version = dict(state["media_version"])
        self._version_counter = state["version_counter"]
        self.media_host_bytes = state.get("media_host_bytes", 0)
        self.media_gc_bytes = state.get("media_gc_bytes", 0)

    # ------------------------------------------------------------------
    # Command service
    # ------------------------------------------------------------------

    def _serve(self, io: DiskIO, done: Event, epoch: int):
        obs = self.env.obs
        span = None
        if obs is not None:
            attrs = dict(
                host=self.name.split("-")[0], dev=self.name,
                op=io.op, lba=io.lba, n=io.nblocks,
            )
            # Health surface on the span: only annotated when the device
            # is actually in the degraded state, so traces from first-order
            # profiles (and their goldens) are unchanged.
            if self.gc_active:
                attrs["gc"] = 1
                attrs["wa"] = round(self.write_amplification(), 2)
            span = obs.spans.open("ssd.service", parent=io.obs_parent, **attrs)
        try:
            if io.op == "flush":
                yield from self._serve_flush(epoch)
            elif io.op == "write":
                yield from self._serve_write(io, epoch)
            else:
                yield from self._serve_read(io, epoch)
        except CrashedError:
            # In-flight during a power failure: on real hardware nobody
            # ever sees this completion — the event silently never fires.
            if span is not None:
                obs.spans.close(span, crashed=1)
            return
        if epoch != self._epoch:
            if span is not None:
                obs.spans.close(span, lost=1)
            return  # crashed while in flight: never complete
        self.commands_served += 1
        self.env.trace("ssd", io.op, dev=self.name, lba=io.lba, n=io.nblocks)
        if span is not None:
            obs.spans.close(span)
        done.succeed(io)

    def _check_epoch(self, epoch: int) -> None:
        if epoch != self._epoch:
            raise CrashedError(f"{self.name} crashed mid-command")

    def _service_time(self, base: float) -> float:
        """One service latency, inflated while the device is degraded
        (fail-slow gray failure).  Healthy devices multiply by 1.0 — no
        extra RNG draws, no behaviour change."""
        return base * self.service_inflation

    def _serve_write(self, io: DiskIO, epoch: int):
        profile = self.profile
        # Concurrency slot (channel parallelism).
        yield from self._slots.acquire()
        try:
            # Host DMA over the interface.
            yield from self._interface.hold(
                io.nbytes / profile.interface_bandwidth,
                scale=self._service_time,
            )
            self._check_epoch(epoch)

            if profile.plp:
                # Straight to persistent media.  Barrier writes serialize
                # through one lane so their persistence order matches
                # their submission order (§2.2's barrier interface).
                if io.barrier:
                    yield from self._await_barrier_turn(io, epoch)
                    yield from self._barrier_lane.acquire()
                try:
                    yield from self._media_pipe.hold(
                        io.nbytes / profile.media_bandwidth,
                        scale=self._service_time,
                    )
                    self._check_epoch(epoch)
                    yield from self.env.sleep(self._service_time(
                        self.rng.jitter(profile.write_latency, 0.05)
                    ))
                    self._check_epoch(epoch)
                    self._persist_blocks(io)
                    if io.barrier:
                        self._advance_barrier_turn(io)
                finally:
                    if io.barrier and epoch == self._epoch:
                        self._barrier_lane.release()
            else:
                # Into the volatile write cache (waiting for space if full).
                yield from self._wait_for_cache_space(io.nbytes, epoch)
                yield from self.env.sleep(self._service_time(
                    self.rng.jitter(profile.write_latency, 0.05)
                ))
                self._check_epoch(epoch)
                if io.barrier:
                    # Admit to the cache (and the FIFO drain lane) in
                    # submission order: the latency jitter above must not
                    # reorder barrier writes.
                    yield from self._await_barrier_turn(io, epoch)
                self._insert_cache(io, barrier=io.barrier)
                if io.barrier:
                    self._advance_barrier_turn(io)
                if io.fua:
                    # Force-unit-access: durable before completing.
                    yield from self._serve_flush(epoch)
        finally:
            if epoch == self._epoch:
                self._slots.release()

    def _await_barrier_turn(self, io: DiskIO, epoch: int):
        """Generator: park until every earlier barrier write persisted."""
        ticket = io._barrier_ticket  # type: ignore[attr-defined]
        while self._barrier_turn < ticket:
            self._check_epoch(epoch)
            waiter = self._barrier_turn_waiters.get(ticket)
            if waiter is None or waiter.triggered:
                waiter = Event(self.env)
                self._barrier_turn_waiters[ticket] = waiter
            yield waiter
        self._check_epoch(epoch)

    def _advance_barrier_turn(self, io: DiskIO) -> None:
        ticket = io._barrier_ticket  # type: ignore[attr-defined]
        self._barrier_turn = max(self._barrier_turn, ticket + 1)
        self._wake_barrier_turn()

    def release_barrier_ticket(self, ticket: int) -> None:
        """Abandon a reserved ticket that will never reach :meth:`submit`
        (e.g. a retransmitted command suppressed as a duplicate); the
        persist order skips over it instead of wedging its successors."""
        self._barrier_abandoned.add(ticket)
        self._wake_barrier_turn()

    def _wake_barrier_turn(self) -> None:
        while self._barrier_turn in self._barrier_abandoned:
            self._barrier_abandoned.discard(self._barrier_turn)
            self._barrier_turn += 1
        successor = self._barrier_turn_waiters.pop(self._barrier_turn, None)
        if successor is not None and not successor.triggered:
            successor.succeed()

    def _serve_read(self, io: DiskIO, epoch: int):
        profile = self.profile
        yield from self._slots.acquire()
        try:
            yield from self.env.sleep(
                self._service_time(self.rng.jitter(profile.read_latency, 0.05))
            )
            self._check_epoch(epoch)
            yield from self._interface.hold(
                io.nbytes / profile.interface_bandwidth,
                scale=self._service_time,
            )
            self._check_epoch(epoch)
            io.payload = [
                self.current_payload(lba) for lba in range(io.lba, io.lba + io.nblocks)
            ]
        finally:
            if epoch == self._epoch:
                self._slots.release()

    def _serve_flush(self, epoch: int):
        self.flushes_served += 1
        if self.profile.plp or not self.profile.cache_capacity:
            yield from self.env.sleep(
                self._service_time(self.profile.flush_base_latency))
            self._check_epoch(epoch)
            return
        # Snapshot: everything admitted so far must drain before we return.
        barrier_seq = self._cache_seq
        if self._lowest_undrained() < barrier_seq:
            waiter = Event(self.env)
            self._drain_waiters.append((barrier_seq, waiter))
            self._kick_drain()
            yield waiter
            self._check_epoch(epoch)
        yield from self.env.sleep(self._service_time(
            self.rng.jitter(self.profile.flush_base_latency, 0.1)
        ))
        self._check_epoch(epoch)

    # ------------------------------------------------------------------
    # Volatile write cache + background drain
    # ------------------------------------------------------------------

    def _wait_for_cache_space(self, nbytes: int, epoch: int):
        stalled_at = None
        while self._cache_bytes + nbytes > self.profile.cache_capacity:
            self._check_epoch(epoch)
            if stalled_at is None:
                # Eviction pressure made this write stall: count the IO
                # once, and its total stalled time on exit (health surface).
                stalled_at = self.env.now
                self.cache_stalls += 1
            waiter = Event(self.env)
            self._space_waiters.append((nbytes, waiter))
            self._kick_drain()
            yield waiter
        self._check_epoch(epoch)
        if stalled_at is not None:
            self.cache_stall_time += self.env.now - stalled_at

    def _insert_cache(self, io: DiskIO, barrier: bool = False) -> None:
        for offset in range(io.nblocks):
            lba = io.lba + offset
            payload = io.payload[offset] if io.payload is not None else None
            self._version_counter += 1
            old = self._cache.get(lba)
            if old is not None:
                # Overwrite in cache: the new copy inherits the old entry's
                # flush obligation (a FLUSH issued after the old write must
                # not return until this LBA has a durable copy).
                seq = old.seq
                self._cache_seq += 1  # keep seq numbering monotonic overall
            else:
                self._cache_bytes += BLOCK_SIZE
                seq = self._cache_seq
                self._cache_seq += 1
            entry = _CacheEntry(
                seq=seq,
                lba=lba,
                payload=payload,
                version=self._version_counter,
                barrier=barrier,
            )
            self._cache[lba] = entry
            if barrier:
                self._barrier_fifo.append(entry)
            else:
                self._drain_queue.append(entry)
            self._pending_drain_seqs.add(entry.seq)
        self._kick_drain()

    def _lowest_undrained(self) -> int:
        if not self._pending_drain_seqs:
            return self._cache_seq
        return min(self._pending_drain_seqs)

    def _kick_drain(self) -> None:
        if self._drain_kick is not None and not self._drain_kick.triggered:
            self._drain_kick.succeed()

    def _drain_loop(self, epoch: int):
        """Continuously move dirty cache entries to flash, media-bandwidth
        limited, in a randomized order (the SSD is free to reorder)."""
        drain_window = 32
        batch_blocks = 16
        while epoch == self._epoch:
            if not self._drain_queue and not self._barrier_fifo:
                self._drain_kick = Event(self.env)
                yield self._drain_kick
                continue
            # Barrier writes drain strictly FIFO (their contract, §2.2);
            # they take priority so the order chain keeps moving.
            batch: List[_CacheEntry] = []
            while self._barrier_fifo and len(batch) < batch_blocks:
                entry = self._barrier_fifo[0]
                live = self._cache.get(entry.lba)
                if live is entry:
                    batch.append(entry)
                    self._barrier_fifo.popleft()
                elif live is not None and live.seq == entry.seq:
                    break  # superseded mid-drain: successor keeps the slot
                else:
                    self._pending_drain_seqs.discard(entry.seq)
                    self._barrier_fifo.popleft()
            # Fill the rest with a randomized window of normal entries
            # (the SSD is free to reorder those).  Superseded entries
            # (overwritten in cache) are retired for free.
            window: List[_CacheEntry] = []
            while self._drain_queue and len(window) + len(batch) < drain_window:
                entry = self._drain_queue.popleft()
                live = self._cache.get(entry.lba)
                if live is entry:
                    window.append(entry)
                elif live is None or live.seq != entry.seq:
                    # Stale node with no live successor carrying its seq.
                    self._pending_drain_seqs.discard(entry.seq)
            if not window and not batch:
                self._wake_waiters()
                continue
            self.rng.shuffle(window)
            take = max(0, batch_blocks - len(batch))
            batch.extend(window[:take])
            # Entries not drained this round go back to the front, oldest
            # first, so flush barriers still terminate.
            for entry in sorted(window[take:], key=lambda e: -e.seq):
                self._drain_queue.appendleft(entry)
            nbytes = BLOCK_SIZE * len(batch)
            # Steady-state GC: past the threshold every host batch drags
            # relocated valid data through the media pipe with it, so the
            # drain serves WA x the host bytes (the sustained-write regime
            # qualification cells run the PM981 in).
            wa = self.write_amplification()
            yield from self._media_pipe.acquire()
            try:
                yield from self.env.sleep(
                    nbytes * wa / self.profile.media_bandwidth
                )
            finally:
                if epoch == self._epoch:
                    self._media_pipe.release()
            if epoch != self._epoch:
                return
            self.media_host_bytes += nbytes
            self.media_gc_bytes += int(nbytes * (wa - 1.0))
            self.cache_evictions += len(batch)
            for entry in batch:
                live = self._cache.get(entry.lba)
                if live is entry:
                    del self._cache[entry.lba]
                    self._cache_bytes -= BLOCK_SIZE
                    self._media[entry.lba] = entry.payload
                    self._media_version[entry.lba] = entry.version
                    self._pending_drain_seqs.discard(entry.seq)
                elif live is None or live.seq != entry.seq:
                    self._pending_drain_seqs.discard(entry.seq)
                # else: overwritten mid-drain by a successor that inherited
                # this seq — the obligation stays until the successor drains.
            if self.on_persist is not None:
                self.on_persist(self)
            self._wake_waiters()

    def _wake_waiters(self) -> None:
        # Space waiters (FIFO, as long as space remains).
        while self._space_waiters:
            nbytes, waiter = self._space_waiters[0]
            if self._cache_bytes + nbytes > self.profile.cache_capacity:
                break
            self._space_waiters.pop(0)
            waiter.succeed()
        # Flush barriers whose snapshot fully drained.
        low = self._lowest_undrained()
        remaining = []
        for barrier_seq, waiter in self._drain_waiters:
            if low >= barrier_seq:
                waiter.succeed()
            else:
                remaining.append((barrier_seq, waiter))
        self._drain_waiters = remaining

    def _persist_blocks(self, io: DiskIO) -> None:
        self.media_host_bytes += io.nbytes
        for offset in range(io.nblocks):
            lba = io.lba + offset
            payload = io.payload[offset] if io.payload is not None else None
            self._version_counter += 1
            self._media[lba] = payload
            self._media_version[lba] = self._version_counter
        if self.on_persist is not None:
            self.on_persist(self)

    def __repr__(self) -> str:
        return f"<NvmeSsd {self.name} ({self.profile.name})>"
