"""Chaos harness: ordered workloads under randomized transient faults.

Each *trial* builds a fresh cluster with driver hardening enabled
(per-command expiry + retries, RPC timeouts, liveness watching), installs a
seeded :class:`~repro.sim.faults.FaultPlan` (probabilistic message
loss/corruption/delay plus at least one queue-pair breakdown and one target
stall), runs a multi-stream ordered-write workload over one of the
reproduced stacks, and audits the outcome:

* **forward progress** — every group completes before the virtual-time
  limit and nothing deadlocks (a drained heap with pending liveness-watched
  completions raises :class:`~repro.sim.engine.SimDeadlock`);
* **in-order completion** — per stream, groups complete in submission
  order (checked for stacks that promise it: Rio and Linux);
* **no duplicate applies / prefix property** — the target-side audit log
  must show each ``(stream, position)`` submitted to the SSD exactly once
  and in strictly increasing position order, even though the initiator
  retransmits commands under loss (§4.4's idempotence argument);
* **no leaks** — every host driver's pending tables must be empty after
  the run.

A trial runs on one initiator host or on several (§4.9), where stream
``s`` lives on host ``s % N`` and the faults break only a *victim* host's
queue pairs, so its blast radius can be bounded.

:func:`measure_degradation` runs a timed fault burst only (no
probabilistic loss) and bins completions into before/during/after windows
so graceful degradation — a dip during the burst, recovery after — can be
asserted quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster import Cluster
from repro.harness.experiment import LAYOUTS
from repro.harness.report import Report, Verdict
from repro.harness.sweep import RunSpec, Sweep
from repro.nvmeof.initiator import DriverHardening
from repro.scale import ScaleOutCluster
from repro.sim.engine import Environment, Event, SimulationError
from repro.sim.faults import FaultPlan
from repro.sim.rng import DeterministicRNG
from repro.systems.base import make_stack

__all__ = [
    "CHAOS_HARDENING",
    "ChaosResult",
    "build_fault_plan",
    "run_chaos_trial",
    "ChaosSuiteResult",
    "chaos_sweep",
    "run_chaos_suite",
    "measure_degradation",
    "build_scale_fault_plan",
    "run_tenant_chaos_trial",
]

#: Hardening profile used by every chaos trial: generous retry budget so
#: sub-5% message loss cannot plausibly exhaust it, expiry long enough to
#: ride out a target stall without spurious aborts dominating.
CHAOS_HARDENING = DriverHardening(
    command_timeout=400e-6,
    rpc_timeout=400e-6,
    max_retries=10,
    backoff=1.5,
    watch_liveness=True,
)

#: Private LBA area per workload stream (blocks), far apart per stream.
STREAM_AREA_BLOCKS = 1_000_000


@dataclass
class ChaosResult:
    """Audited outcome of one chaos trial."""

    system: str
    seed: int
    threads: int
    groups_per_thread: int
    deadlocked: bool = False
    deadlock_reason: str = ""
    completed_groups: int = 0
    elapsed: float = 0.0
    #: (stream, group_index, completion_time) in completion order.
    completion_log: List[Tuple[int, int, float]] = field(default_factory=list)
    #: Streams whose groups completed out of submission order.
    completion_order_violations: List[Tuple[int, List[int]]] = field(
        default_factory=list
    )
    #: (stream, server_pos, epoch) keys applied to an SSD more than once.
    duplicate_applies: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Per-stream position regressions in the target submission order.
    submission_order_violations: List[Tuple[int, int, int]] = field(
        default_factory=list
    )
    #: Writes completed in error (bio.status != 0).
    errors: List[Tuple[int, int, int]] = field(default_factory=list)
    leak_error: str = ""
    # -- fault / recovery accounting --
    fault_counts: Dict[str, int] = field(default_factory=dict)
    messages_dropped: int = 0
    messages_corrupted: int = 0
    messages_delayed: int = 0
    retries: int = 0
    rpc_retries: int = 0
    reconnects: int = 0
    commands_resubmitted: int = 0
    commands_timed_out: int = 0
    duplicates_suppressed: int = 0
    #: Live (non-cancelled) event-heap entries at the end of the run.
    #: Completed watchdog arms must disarm their expiry timeouts; a large
    #: value here means commands are leaking armed timers (see
    #: ``Timeout.cancel``).
    heap_live_entries: int = 0
    #: Per-node driver reconnect/retry counts, indexed by initiator host
    #: (one entry for a single-host trial).
    node_reconnects: List[int] = field(default_factory=list)
    node_retries: List[int] = field(default_factory=list)
    #: SMART snapshot per device (``"t0/q0"`` keys) at the end of the run:
    #: lets qualification trials assert the fault burst actually landed in
    #: the GC / cache-pressure regime, not on an idle factory-fresh drive.
    device_health: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Tenant trials only: per-class latency accounting over the measured
    #: window (``{class: {count, mean_us, p50_us, p99_us, p999_us}}``),
    #: so noisy-neighbor chaos regressions can bound the quiet class's
    #: tail while the aggressor is being shed (empty for classless trials).
    class_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Tenant trials only: admission sheds by reason across all targets.
    sheds_by_reason: Dict[str, float] = field(default_factory=dict)

    @property
    def total_groups(self) -> int:
        return self.threads * self.groups_per_thread

    @property
    def verdicts(self) -> List[Verdict]:
        """The trial's audits: progress, order, duplicates, errors, leaks."""
        return [
            Verdict("deadlocks", "<=", 0, int(self.deadlocked)),
            Verdict("completed_groups", "==", self.total_groups,
                    self.completed_groups),
            Verdict("completion_order_violations", "<=", 0,
                    len(self.completion_order_violations)),
            Verdict("duplicate_applies", "<=", 0,
                    len(self.duplicate_applies)),
            Verdict("submission_order_violations", "<=", 0,
                    len(self.submission_order_violations)),
            Verdict("errors", "<=", 0, len(self.errors)),
            Verdict("leaks", "<=", 0, int(bool(self.leak_error))),
        ]

    @property
    def ok(self) -> bool:
        """True when every robustness invariant held for this trial."""
        return all(v.ok for v in self.verdicts)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (
            f"{self.system:>8} seed={self.seed:<4} {status}: "
            f"{self.completed_groups}/{self.total_groups} groups in "
            f"{self.elapsed * 1e3:.2f}ms  "
            f"drops={self.messages_dropped} corrupt={self.messages_corrupted} "
            f"retries={self.retries} reconnects={self.reconnects} "
            f"dups_suppressed={self.duplicates_suppressed} "
            f"faults={self.fault_counts}"
        )


def build_fault_plan(
    seed: int,
    num_qps: int,
    num_targets: int,
    horizon: float = 400e-6,
    max_loss: float = 0.05,
) -> FaultPlan:
    """A randomized plan meeting the chaos-suite floor: probabilistic
    loss/corruption/delay at or below ``max_loss`` each, plus at least one
    queue-pair breakdown and one target stall inside ``horizon``.  The
    default horizon is short enough that the timed faults land while the
    default trial workload is still in flight on every stack."""
    rng = DeterministicRNG(seed).fork("chaos-plan")
    plan = FaultPlan(
        seed=seed * 7919 + 13,
        message_loss=rng.uniform(0.005, max_loss),
        corruption=rng.uniform(0.0, 0.01),
        delay_probability=rng.uniform(0.0, 0.03),
        delay_range=(5e-6, 40e-6),
    )
    for _ in range(rng.randint(1, 2)):
        plan.qp_breakdown(
            at=rng.uniform(0.15 * horizon, 0.75 * horizon),
            qp_index=rng.randint(0, num_qps - 1),
        )
    for _ in range(rng.randint(1, 2)):
        plan.target_stall(
            at=rng.uniform(0.15 * horizon, 0.75 * horizon),
            target_index=rng.randint(0, num_targets - 1),
            duration=rng.uniform(50e-6, 200e-6),
        )
    return plan


def _ordered_workload(
    env: Environment,
    cluster: Cluster,
    stack,
    thread_id: int,
    groups: int,
    writes_per_group: int,
    depth: int,
    on_group_done,
):
    """Generator: issue ``groups`` ordered groups on one stream, keeping at
    most ``depth`` groups in flight (Rio pipelines; Linux chains anyway)."""
    core = cluster.initiator.cpus.pick(thread_id)
    base = thread_id * STREAM_AREA_BLOCKS
    inflight: List[Event] = []
    for group in range(groups):
        last_event: Optional[Event] = None
        for w in range(writes_per_group):
            last = w == writes_per_group - 1
            last_event = yield from stack.write_ordered(
                core,
                thread_id,
                lba=base + (group * writes_per_group + w) * 2,
                nblocks=1,
                end_of_group=last,
                kick=last,
            )
        assert last_event is not None
        last_event.callbacks.append(on_group_done(thread_id, group))
        inflight.append(last_event)
        while len(inflight) >= depth:
            yield inflight.pop(0)
    for event in inflight:
        if not event.triggered:
            yield event


def _run_ordered_trial(
    env: Environment,
    cluster,
    stack,
    result: ChaosResult,
    writes_per_group: int,
    depth: int,
    limit: float,
) -> None:
    """Run ``result.threads`` ordered streams to completion (or deadlock,
    or ``limit``) and audit completion order and bio errors."""
    all_done = Event(env)
    bios: List = []

    def on_group_done(stream: int, group: int):
        def callback(event: Event) -> None:
            result.completion_log.append((stream, group, env.now))
            bio = getattr(event, "bio", None)
            if bio is not None:
                bios.append((stream, group, bio))
            if (len(result.completion_log) == result.total_groups
                    and not all_done.triggered):
                all_done.succeed()

        return callback

    for thread_id in range(result.threads):
        env.process(
            _ordered_workload(
                env,
                cluster,
                stack,
                thread_id,
                result.groups_per_thread,
                writes_per_group,
                depth,
                on_group_done,
            )
        )

    try:
        env.run_until_event(all_done, limit=limit)
    except SimulationError as exc:  # includes SimDeadlock
        result.deadlocked = True
        result.deadlock_reason = f"{type(exc).__name__}: {exc}"

    result.completed_groups = len(result.completion_log)
    result.elapsed = env.now
    result.heap_live_entries = env.live_heap_size()

    if result.system in ("rio", "linux"):
        per_stream: Dict[int, List[int]] = {}
        for stream, group, _t in result.completion_log:
            per_stream.setdefault(stream, []).append(group)
        for stream, order in sorted(per_stream.items()):
            if order != sorted(order):
                result.completion_order_violations.append((stream, order))
    for stream, group, bio in bios:
        if bio.status:
            result.errors.append((stream, group, bio.status))


def _audit_targets(result: ChaosResult, cluster) -> None:
    """Target-side audits: duplicate applies, submission order,
    suppressed duplicates and each device's SMART snapshot."""
    for target in cluster.targets:
        result.duplicate_applies.extend(target.duplicate_applies())
        result.submission_order_violations.extend(
            target.submission_order_violations()
        )
        result.duplicates_suppressed += target.duplicates_suppressed
        for ssd in target.ssds:
            result.device_health[ssd.name] = ssd.smart()


def _account_plan(result: ChaosResult, plan: Optional[FaultPlan]) -> None:
    if plan is not None:
        result.fault_counts = plan.counts()
        result.messages_dropped = plan.messages_dropped
        result.messages_corrupted = plan.messages_corrupted
        result.messages_delayed = plan.messages_delayed


def _account_nodes(result: ChaosResult, cluster) -> None:
    """Driver recovery counts per initiator host and summed."""
    for node in cluster.nodes:
        driver = node.driver
        result.node_reconnects.append(driver.reconnects)
        result.node_retries.append(driver.retries)
        result.retries += driver.retries
        result.rpc_retries += driver.rpc_retries
        result.reconnects += driver.reconnects
        result.commands_resubmitted += driver.commands_resubmitted
        result.commands_timed_out += driver.commands_timed_out


def run_chaos_trial(
    system: str = "rio",
    seed: int = 0,
    layout: str = "optane",
    threads: int = 4,
    groups_per_thread: int = 12,
    writes_per_group: int = 2,
    depth: int = 4,
    plan: Optional[FaultPlan] = None,
    limit: float = 50e-3,
    prefill: float = 0.0,
    plan_spec: Optional[dict] = None,
    initiators: int = 1,
    victim: Optional[int] = None,
) -> ChaosResult:
    """One seeded trial: build, inject, run, audit.

    ``initiators`` hosts fan in to the layout's targets: one is a
    :class:`~repro.cluster.Cluster`, more a
    :class:`~repro.scale.ScaleOutCluster`, and stream ``s`` lives on host
    ``s % initiators``.  An integer ``victim`` installs a breakdown-only
    plan confined to that host's queue pairs
    (:func:`build_scale_fault_plan`).  Without a victim, one host runs
    ``plan``, ``plan_spec`` or else :func:`build_fault_plan`'s randomized
    plan, while several hosts run fault-free: the baseline tests bound
    the bystander hosts' completion times against.

    ``prefill`` fills that fraction of each device's logical capacity
    before the workload starts (see :meth:`NvmeSsd.prefill`) so trials on
    the qualification layout run with steady-state GC and cache eviction
    pressure active — the regime where a crash lands mid-drain.

    ``plan_spec`` is the JSON-encodable alternative to ``plan`` (a
    :meth:`FaultPlan.to_dict` document, i.e. a ScenarioSpec ``faults``
    section): unlike a live ``FaultPlan`` it survives
    :class:`~repro.harness.sweep.RunSpec` encoding, so spec-driven chaos
    sweeps can fan trials out across worker processes and memoize them.
    """
    if (initiators > 1 or victim is not None) and (
            plan is not None or plan_spec is not None or prefill):
        raise ValueError(
            "plan, plan_spec and prefill apply only to one-initiator "
            "trials without a victim: a victim trial builds its own "
            "plan, confined to the victim host's queue pairs"
        )
    if plan_spec is not None:
        if plan is not None:
            raise ValueError("pass plan or plan_spec, not both")
        plan = FaultPlan.from_dict(plan_spec)
    env = Environment()
    num_qps = max(threads, 2)
    testbed = dict(initiator_cores=max(threads, 2), target_cores=8,
                   num_qps=num_qps, seed=seed, hardening=CHAOS_HARDENING)
    if initiators == 1:
        cluster = Cluster(env, LAYOUTS[layout], **testbed)
    else:
        cluster = ScaleOutCluster(env, LAYOUTS[layout],
                                  num_initiators=initiators, **testbed)
    if prefill:
        for target in cluster.targets:
            for ssd in target.ssds:
                ssd.prefill(prefill)
    stack = make_stack(system, cluster, num_streams=threads)
    if victim is not None:
        qps_per_node = len(cluster.fabric.queue_pairs) // initiators
        plan = build_scale_fault_plan(
            seed, (victim * qps_per_node, (victim + 1) * qps_per_node)
        )
    elif plan is None and initiators == 1:
        plan = build_fault_plan(
            seed, num_qps=num_qps, num_targets=len(cluster.targets)
        )
    if plan is not None:
        plan.install(cluster)

    result = ChaosResult(
        system=system,
        seed=seed,
        threads=threads,
        groups_per_thread=groups_per_thread,
    )
    _run_ordered_trial(env, cluster, stack, result, writes_per_group, depth,
                       limit)
    _audit_targets(result, cluster)
    if not result.deadlocked:
        for node in cluster.nodes:
            try:
                node.driver.assert_no_leaks()
            except AssertionError as exc:
                result.leak_error = f"node {node.index}: {exc}"
    _account_plan(result, plan)
    _account_nodes(result, cluster)
    return result


@dataclass
class ChaosSuiteResult(Report):
    """A chaos suite's trials, one line each, graded by their audits."""

    results: List[ChaosResult] = field(default_factory=list)

    headers = ()

    def _graded(self):
        return [(r, r.verdicts) for r in self.results]

    def _table(self):
        return [([r.summary()], [f"    FAIL {v}" for v in r.verdicts
                                 if not v.ok])
                for r in self.results]

    def _footer(self) -> List[str]:
        verdict = ("all robustness invariants hold" if self.ok
                   else f"{self.failed} trial(s) FAILING")
        return [f"{len(self.results)} trial(s): {verdict}"]


def chaos_sweep(spec) -> Sweep:
    """The trials of a ``chaos`` :class:`~repro.spec.ScenarioSpec` as a
    :class:`~repro.harness.sweep.Sweep` reducing to a
    :class:`ChaosSuiteResult`.

    Each trial is one cell (seeded, independent, returning a picklable
    :class:`ChaosResult`), so the suite fans out across worker processes
    and memoizes like the figure sweeps.  One initiator runs
    :func:`run_chaos_trial` with the spec's prefill and embedded fault
    plan; more run it against the victim host.
    """
    workload, topology = spec.workload, spec.topology
    initiators = topology["initiators"]
    trial = {
        "layout": topology["layout"],
        "threads": workload["threads"],
        "groups_per_thread": workload["groups_per_thread"],
        "writes_per_group": workload["writes_per_group"],
        "depth": workload["depth"],
        "limit": workload["limit"],
    }
    if initiators > 1:
        host = f"/x{initiators}"
        trial.update(initiators=initiators, victim=workload["victim"])
    else:
        host = ""
        trial.update(prefill=spec.devices["prefill"], plan_spec=spec.faults)
    first = workload["base_seed"]
    specs = [
        RunSpec.make(run_chaos_trial,
                     label=f"chaos/{system}{host}/seed{seed}",
                     system=system, seed=seed, **trial)
        for system in workload["systems"]
        for seed in range(first, first + workload["trials"])
    ]
    return Sweep(name="chaos", specs=specs,
                 reduce=lambda results: ChaosSuiteResult(results=results))


def run_chaos_suite(
    systems: Tuple[str, ...] = ("rio", "horae", "linux"),
    trials: int = 30,
    base_seed: int = 1000,
    **trial_kwargs,
) -> List[ChaosResult]:
    """``trials`` seeded trials per system, inline; returns every result.

    ``trial_kwargs`` go to :func:`run_chaos_trial` as-is, so they may
    carry objects no sweep cell can encode, such as an explicit ``plan``
    (a ``chaos`` spec runs as cells via :func:`chaos_sweep`).
    """
    results: List[ChaosResult] = []
    for system in systems:
        for i in range(trials):
            results.append(
                run_chaos_trial(system=system, seed=base_seed + i, **trial_kwargs)
            )
    return results


def measure_degradation(
    system: str = "rio",
    seed: int = 7,
    threads: int = 4,
    groups_per_thread: int = 120,
    fault_start: float = 500e-6,
    fault_end: float = 900e-6,
) -> Dict[str, float]:
    """Throughput before/during/after a timed fault burst.

    The plan has *no* probabilistic faults — only a queue-pair breakdown
    and a target stall inside ``[fault_start, fault_end)`` — so the
    before/after windows are clean and the dip is attributable.
    Returns completions-per-second rates for the three windows.
    """
    plan = FaultPlan(seed=seed)
    plan.qp_breakdown(at=fault_start, qp_index=0)
    plan.target_stall(
        at=fault_start + 20e-6,
        target_index=0,
        duration=(fault_end - fault_start) * 0.6,
    )
    result = run_chaos_trial(
        system=system,
        seed=seed,
        threads=threads,
        groups_per_thread=groups_per_thread,
        plan=plan,
    )
    before = [t for _s, _g, t in result.completion_log if t < fault_start]
    during = [
        t for _s, _g, t in result.completion_log if fault_start <= t < fault_end
    ]
    after = [t for _s, _g, t in result.completion_log if t >= fault_end]
    end = result.elapsed
    return {
        "ok": float(result.ok),
        "before_rate": len(before) / fault_start if fault_start else 0.0,
        "during_rate": len(during) / (fault_end - fault_start),
        "after_rate": (
            len(after) / (end - fault_end) if end > fault_end else 0.0
        ),
        "completed": float(result.completed_groups),
        "total": float(result.total_groups),
    }


# ----------------------------------------------------------------------
# Multi-initiator (scale-out) chaos
# ----------------------------------------------------------------------


def build_scale_fault_plan(
    seed: int,
    victim_qp_range: Tuple[int, int],
    horizon: float = 200e-6,
) -> FaultPlan:
    """A breakdown-only plan confined to one initiator host's queue pairs.

    ``victim_qp_range`` is the half-open ``[lo, hi)`` slice of
    ``fabric.queue_pairs`` owned by the victim host (hosts connect in
    index order, so host ``i`` owns one contiguous run of QP indices).
    No probabilistic loss is injected: the bystander hosts' fabric paths
    stay fault-free by construction, which is exactly what makes the
    blast-radius assertions in ``benchmarks/test_chaos.py`` sharp.
    """
    lo, hi = victim_qp_range
    if hi <= lo:
        raise ValueError("victim owns no queue pairs")
    rng = DeterministicRNG(seed).fork("scale-chaos-plan")
    plan = FaultPlan(seed=seed * 7919 + 29)
    for _ in range(rng.randint(1, 2)):
        plan.qp_breakdown(
            at=rng.uniform(0.15 * horizon, 0.75 * horizon),
            qp_index=rng.randint(lo, hi - 1),
        )
    return plan


def run_tenant_chaos_trial(
    system: str = "rio",
    seed: int = 0,
    qos: bool = True,
    quantum: float = 8.0,
    duration: float = 3e-3,
    warmup: float = 2e-3,
    faults: bool = True,
) -> ChaosResult:
    """The noisy-neighbor storm with transient faults layered on.

    Same seeded testbed as
    :func:`repro.harness.tenants.probe_noisy_neighbor` — one quiet gold
    tenant vs. a bronze aggressor of large writes at a multiple of the
    media pipe's capacity, QoS admission pacing the aggressor when
    ``qos`` — plus, when ``faults``, a queue-pair breakdown on one of the
    aggressor's lanes and a target stall, both landing inside the
    measured window.  The per-class latencies go to
    :attr:`ChaosResult.class_latency` so the regression can bound the
    gold tail while faults and shedding are both active; the usual
    target-side audits (duplicate applies, submission order) apply
    unchanged.
    """
    from repro.harness.tenants import (
        STORM_AGGRESSOR_LANES,
        _run_storm,
        _shed_by_reason,
    )

    plan: Optional[FaultPlan] = None
    if faults:
        # Break an aggressor lane's queue pair (gold's lane 0 pins to QP
        # 0 — the faults stress recovery, not the quiet tenant's path)
        # and stall the target briefly, both inside the measured window.
        plan = FaultPlan(seed=seed * 7919 + 41)
        burst_at = warmup + 0.2 * duration
        plan.qp_breakdown(at=burst_at,
                          qp_index=1 + STORM_AGGRESSOR_LANES // 2)
        plan.target_stall(at=burst_at + 0.1 * duration, target_index=0,
                          duration=150e-6)
    cluster, _, plane = _run_storm(system, qos, quantum, duration, warmup,
                                   seed, plan=plan)

    result = ChaosResult(
        system=system, seed=seed, threads=1 + STORM_AGGRESSOR_LANES,
        groups_per_thread=0,
    )
    result.elapsed = cluster.env.now
    result.class_latency = plane.class_summary()
    result.heap_live_entries = cluster.env.live_heap_size()
    _audit_targets(result, cluster)
    result.sheds_by_reason = _shed_by_reason(cluster)
    _account_plan(result, plan)
    _account_nodes(result, cluster)
    # No group structure in an open-loop storm: per-class op counts live
    # in class_latency; `ok` reduces to the target-side audits.
    return result
