"""Open- and closed-loop load generators for the scale-out plane.

Two canonical load models from queueing practice:

* **Open loop** (:func:`run_open_loop`) — arrivals are a fixed-rate
  Poisson process, independent of completions.  Latency is measured from
  the *intended arrival time*, so queueing delay counts: past the
  saturation knee the arrival queue grows and tail latency explodes —
  exactly the throughput-latency hockey stick ``repro saturate`` plots.
* **Closed loop** (:func:`run_closed_loop`) — each tenant keeps a bounded
  number of groups in flight and waits (plus exponential think time)
  before issuing the next, so offered load self-limits to completion
  rate, like the paper's FIO jobs at fixed queue depth.

Tenants reuse the :mod:`repro.apps` workload shapes (``rand``/``seq``
write patterns and the §3.1 ``journal`` 2-block + 1-block commit shape),
each on a private LBA area and a private stream — one tenant, one
ordered stream, as the paper's per-thread streams.  Both generators
drive any :class:`~repro.systems.base.OrderedStack`, including the
sharded multi-initiator facade
(:class:`repro.scale.cluster.ShardedStack`), which routes each tenant's
stream to its owning initiator host.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.sim.engine import Environment, Event
from repro.sim.resources import IssueWindow
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import LatencyRecorder

__all__ = [
    "OpenLoopConfig",
    "ClosedLoopConfig",
    "LoadgenResult",
    "run_open_loop",
    "run_closed_loop",
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

    With ``weights=None`` (the default) the rate splits *evenly* — the
    historical behaviour, bit-identical to before the knob existed.
    ``weights`` (one positive weight per tenant) splits the total in
    proportion: tenant ``i`` offers ``offered_iops * w_i / sum(w)``.

    ``blocks`` (one positive size per tenant) likewise overrides
    ``write_blocks`` per tenant, so asymmetric mixes — a small-write
    latency tenant next to a bandwidth hog — run in one open loop;
    ``blocks=None`` keeps every tenant at ``write_blocks``, bit-identical
    to before the knob existed.
    """

    offered_iops: float
    tenants: int = 4
    duration: float = 2e-3
    warmup: float = 0.5e-3
    write_blocks: int = 1
    pattern: str = "rand"  # rand | seq | journal
    durable: bool = False
    seed: int = 1234
    weights: Optional[Tuple[float, ...]] = None
    blocks: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Think-time-bounded closed loops, one per tenant."""

    tenants: int = 4
    queue_depth: int = 1
    #: Mean exponential think time between an ordered completion and the
    #: next submission (0 = back-to-back).
    think_time: float = 0.0
    duration: float = 2e-3
    warmup: float = 0.5e-3
    write_blocks: int = 1
    pattern: str = "rand"
    durable: bool = False
    seed: int = 1234


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


def _validate(pattern: str, tenants: int) -> None:
    if pattern not in ("rand", "seq", "journal"):
        raise ValueError(f"pattern must be rand|seq|journal, got {pattern!r}")
    if tenants < 1:
        raise ValueError("need at least one tenant")


def _make_lba_chooser(rng: DeterministicRNG, pattern: str, base: int,
                      op_blocks: int):
    """Address generator for one tenant (fio's rand/seq idiom)."""
    cursor = [0]

    def next_lba() -> int:
        if pattern == "seq":
            lba = base + cursor[0]
            cursor[0] += op_blocks
            if cursor[0] > TENANT_AREA_BLOCKS - op_blocks:
                cursor[0] = 0
            return lba
        slot = rng.randint(0, TENANT_AREA_BLOCKS // (op_blocks + 2) - 1)
        return base + slot * (op_blocks + 2)  # +2: never LBA-consecutive

    return next_lba


def _issue_op(stack, core, stream, next_lba, config, tenant=None,
              nblocks=None):
    """Generator: issue one workload op; returns (events, nops).

    ``tenant`` (multi-tenant plane) tags the bios with the issuing tenant
    id; None issues anonymously, exactly as before the plane existed.
    ``nblocks`` overrides the op size (``config.blocks`` per-tenant mix);
    None keeps ``config.write_blocks``.
    """
    extra = {} if tenant is None else {"tenant": tenant}
    if config.pattern == "journal":
        lba = next_lba()
        e1 = yield from stack.write_ordered(
            core, stream, lba=lba, nblocks=2, end_of_group=True, kick=False,
            **extra,
        )
        e2 = yield from stack.write_ordered(
            core, stream, lba=lba + 2, nblocks=1, end_of_group=True,
            flush=config.durable, kick=True, **extra,
        )
        return [e1, e2], 2
    done = yield from stack.write_ordered(
        core, stream, lba=next_lba(),
        nblocks=config.write_blocks if nblocks is None else nblocks,
        end_of_group=True, flush=config.durable, **extra,
    )
    return [done], 1


def _tenant_rates(config: OpenLoopConfig) -> List[float]:
    """Per-tenant offered rates: even split, or weight-proportional."""
    if config.weights is None:
        # The historical even split, kept textually identical so legacy
        # results (and their cache digests) are bit-exact.
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
    """Per-tenant write sizes: uniform ``write_blocks``, or the mix."""
    if config.blocks is None:
        return [config.write_blocks] * config.tenants
    if len(config.blocks) != config.tenants:
        raise ValueError(
            f"blocks length {len(config.blocks)} != tenants {config.tenants}"
        )
    if any(b < 1 for b in config.blocks):
        raise ValueError("per-tenant block counts must all be >= 1")
    return list(config.blocks)


def _finish(result: LoadgenResult, cluster, config) -> LoadgenResult:
    result.elapsed = config.duration
    result.initiator_busy_cores = cluster.initiator_busy_cores(config.duration)
    result.target_busy_cores = cluster.target_busy_cores(config.duration)
    return result


def run_open_loop(cluster, stack, config: OpenLoopConfig,
                  plane=None) -> LoadgenResult:
    """Run a fixed-rate Poisson workload to the end of its window.

    ``plane`` (a :class:`repro.tenants.traffic.TenantTrafficPlane` or
    any duck-typed equivalent) layers the multi-tenant plane over the
    generator: arrivals are drawn at the diurnal *peak* rate and thinned
    by ``plane.keep`` (an exact Poisson modulation), each op is issued as
    a Zipf-picked member tenant of its stream (``plane.pick``) and its
    latency is recorded per class (``plane.record``).  ``plane=None`` is
    the stock anonymous generator, bit-identical to before the plane
    existed — the tenant RNG is only ever forked when a plane is given.
    """
    _validate(config.pattern, config.tenants)
    if config.offered_iops <= 0:
        raise ValueError("offered_iops must be > 0")
    env: Environment = cluster.env
    result = LoadgenResult(system=stack.name, tenants=config.tenants,
                           offered_iops=config.offered_iops)
    end_time = config.warmup + config.duration
    rates = _tenant_rates(config)
    blocks = _tenant_blocks(config)
    peak = plane.peak_factor() if plane is not None else 1.0

    def complete(arrival, nops, who):
        if config.warmup <= env.now <= end_time:
            result.ops += nops
            if arrival >= config.warmup:
                result.latency.record(env.now - arrival)
                if plane is not None and who is not None:
                    plane.record(who, env.now - arrival)

    def tenant_body(tenant: int):
        rng = DeterministicRNG(config.seed).fork(f"loadgen-open{tenant}")
        plane_rng = rng.fork("tenant-plane") if plane is not None else None
        core = cluster.initiator.cpus.pick(tenant)
        op_blocks = 3 if config.pattern == "journal" else blocks[tenant]
        next_lba = _make_lba_chooser(
            rng.fork("lba"), config.pattern,
            tenant * TENANT_AREA_BLOCKS, op_blocks,
        )
        arrival = 0.0
        window = IssueWindow(env, OPEN_LOOP_INFLIGHT_CAP, complete)
        while True:
            arrival += rng.expovariate(rates[tenant] * peak)
            if arrival >= end_time:
                return
            if plane is not None and not plane.keep(plane_rng, arrival):
                continue  # diurnal trough: thin the peak-rate arrival
            if arrival > env.now:
                yield env.timeout(arrival - env.now)
            # (if arrival <= now we are backlogged: issue immediately,
            # charging the queueing delay to this op's latency)
            who = plane.pick(tenant, plane_rng) if plane is not None else None
            events, nops = yield from _issue_op(
                stack, core, tenant, next_lba, config, tenant=who,
                nblocks=blocks[tenant],
            )
            yield from window.issue(events, arrival, nops, who)

    def measurement():
        yield env.timeout(config.warmup)
        cluster.start_cpu_window()
        yield env.timeout(config.duration)
        cluster.stop_cpu_window()

    env.process(measurement())
    for tenant in range(config.tenants):
        env.process(tenant_body(tenant))
    env.run(until=end_time)
    return _finish(result, cluster, config)


def run_closed_loop(cluster, stack, config: ClosedLoopConfig,
                    plane=None) -> LoadgenResult:
    """Run think-time-bounded closed loops to the end of their window.

    ``plane`` layers tenant identity over the loops (Zipf member pick and
    per-class latency accounting, as in :func:`run_open_loop`); diurnal
    thinning does not apply — a closed loop's rate is completion-bound.
    """
    _validate(config.pattern, config.tenants)
    if config.queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    env: Environment = cluster.env
    result = LoadgenResult(system=stack.name, tenants=config.tenants)
    end_time = config.warmup + config.duration
    op_blocks = 3 if config.pattern == "journal" else config.write_blocks

    def complete(issued_at, nops, who):
        if config.warmup <= env.now <= end_time:
            result.ops += nops
            if issued_at >= config.warmup:
                result.latency.record(env.now - issued_at)
                if plane is not None and who is not None:
                    plane.record(who, env.now - issued_at)

    def tenant_body(tenant: int):
        rng = DeterministicRNG(config.seed).fork(f"loadgen-closed{tenant}")
        plane_rng = rng.fork("tenant-plane") if plane is not None else None
        core = cluster.initiator.cpus.pick(tenant)
        next_lba = _make_lba_chooser(
            rng.fork("lba"), config.pattern,
            tenant * TENANT_AREA_BLOCKS, op_blocks,
        )
        # Trackers only: this loop waits for the *oldest* op (head of
        # line), a different rule from IssueWindow.issue's wait for any.
        window = IssueWindow(env, config.queue_depth, complete)
        inflight: Deque[Event] = deque()
        while env.now < end_time:
            issued_at = env.now
            who = plane.pick(tenant, plane_rng) if plane is not None else None
            events, nops = yield from _issue_op(
                stack, core, tenant, next_lba, config, tenant=who
            )
            inflight.append(window.track(events, issued_at, nops, who))
            while len(inflight) >= config.queue_depth:
                head = inflight.popleft()
                if not head.triggered:
                    yield head
            if config.think_time > 0:
                yield env.timeout(rng.expovariate(1.0 / config.think_time))

    def measurement():
        yield env.timeout(config.warmup)
        cluster.start_cpu_window()
        yield env.timeout(config.duration)
        cluster.stop_cpu_window()

    env.process(measurement())
    for tenant in range(config.tenants):
        env.process(tenant_body(tenant))
    env.run(until=end_time)
    return _finish(result, cluster, config)
