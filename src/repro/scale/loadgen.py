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
sharded multi-initiator facade
(:class:`repro.scale.cluster.ShardedStack`), which routes each tenant's
stream to its owning initiator host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sim.engine import Environment
from repro.sim.resources import IssueWindow
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import LatencyRecorder, MeasurementWindow

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
    """Measured outcome of one load-generator run."""

    system: str
    tenants: int
    offered_iops: float = 0.0
    ops: int = 0
    elapsed: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    initiator_busy_cores: float = 0.0
    target_busy_cores: float = 0.0

    @property
    def achieved_iops(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0

    @property
    def iops_per_busy_core(self) -> float:
        """§6.1 CPU efficiency at this load point (initiator side)."""
        if self.initiator_busy_cores <= 0:
            return 0.0
        return self.achieved_iops / self.initiator_busy_cores


def _make_lba_chooser(rng: DeterministicRNG, base: int, op_blocks: int):
    """Random address generator for one tenant (fio's rand idiom)."""

    def next_lba() -> int:
        slot = rng.randint(0, TENANT_AREA_BLOCKS // (op_blocks + 2) - 1)
        return base + slot * (op_blocks + 2)  # +2: never LBA-consecutive

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


def run_open_loop(cluster, stack, config: OpenLoopConfig,
                  plane=None) -> LoadgenResult:
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
    when it also arrived inside it, whatever its status.
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

    def complete(arrival, who):
        latency = measured.complete(arrival)
        if latency is not None and who is not None:
            plane.record(who, latency)

    def tenant_body(tenant: int):
        rng = DeterministicRNG(config.seed).fork(f"loadgen-open{tenant}")
        plane_rng = rng.fork("tenant-plane") if plane is not None else None
        core = cluster.initiator.cpus.pick(tenant)
        nblocks = blocks[tenant]
        next_lba = _make_lba_chooser(
            rng.fork("lba"), tenant * TENANT_AREA_BLOCKS, nblocks)
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
            yield from window.issue([done], arrival, who)

    measured.watch_cpu(cluster)
    for tenant in range(config.tenants):
        env.process(tenant_body(tenant))
    env.run(until=measured.end)
    result.ops = measured.ops
    result.latency = measured.latency
    result.elapsed = config.duration
    result.initiator_busy_cores = cluster.initiator_busy_cores(config.duration)
    result.target_busy_cores = cluster.target_busy_cores(config.duration)
    return result
