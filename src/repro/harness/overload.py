"""Overload and gray-failure experiment: the robustness plane under fire.

Two seeded scenarios exercise :mod:`repro.robust` end to end:

* **Metastable overload** (:func:`overload_sweep`) — drive the scale-out
  cluster 2-4x past the device's service capacity with the protection
  plane off and on, and record completed *and persisted* goodput,
  shed-rate and timeout-rate per load point.  Unprotected, in-device
  queueing exceeds the command timeout and the timeout retransmissions
  are acknowledged by the target's duplicate suppression while the
  original still queues — completions decouple from persistence and
  *outrun the device* (the completion mirage: completed goodput ~2x what
  the media can persist, with the persistence backlog growing without
  bound), until the retransmission load saturates the receive cores and
  goodput collapses in a storm of timeout aborts — the classic metastable
  failure.  Protected, the target sheds excess load *before* paying for
  it (admission control), the drivers pace shed commands in
  position-ordered AIMD waves under a retry budget, and completed
  goodput stays pinned to the persist rate at the device knee with zero
  failed operations.

* **Gray target** (:func:`gray_sweep`) — degrade one target's service
  times mid-run (``FaultPlan.degrade``: a fail-slow device, nothing
  errors).  Per-target health breakers trip on the fast/slow-EWMA latency
  ratio; ordered streams pinned to the sick shard brown out explicitly
  while *unordered* flows fail over to the healthy shard, and bystander
  tenants keep their tail latency.

Both scenarios run as independent, seeded cells on the sweep runner
(:mod:`repro.harness.sweep`), so ``--jobs N`` fans them out and a warm
cache replays them bit-identically (spec-order reduce, as with
``repro saturate``).  Entry points: ``repro overload`` (CLI) and
:func:`overload_sweep`, the sweep of an ``overload``
:class:`~repro.spec.ScenarioSpec` that :func:`repro.spec.run_scenario`
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.harness.experiment import LAYOUTS, FigureResult
from repro.harness.sweep import RunSpec, Sweep

__all__ = [
    "PROTECTIONS",
    "OverloadRun",
    "probe_overload",
    "overload_sweep",
    "probe_gray",
    "gray_sweep",
]

#: Protection profiles compared by ``repro overload``.
PROTECTIONS = ("off", "full")

#: Virtual-seconds knobs shared by both protection profiles.
_COMMAND_TIMEOUT_OFF = 100e-6
_COMMAND_TIMEOUT_FULL = 1.5e-3
_QFULL_BACKOFF = 20e-6


def _hardening(protection: str):
    """The driver hardening of one protection profile.

    ``off`` is a conventional timeout-and-retransmit driver: a per-attempt
    expiry tuned to healthy-path latency (~100 us, well under the
    in-device queueing that builds past the knee), no jitter, no budget,
    no QFULL handling — the configuration that turns overload metastable.
    Past the knee its retransmissions are duplicate-acked by the target
    while the original command still queues in the device (completions
    decouple from persistence); when the retransmission load saturates
    the receive cores, the ~475 us retry ladder expires before the gate
    is even reached and goodput collapses in timeout aborts.
    ``full`` is the robustness plane: a timeout with headroom, jittered
    backoff, a token-bucket retry budget, QFULL requeues and sticky
    fail-fast dead streams, paired with target-side admission control
    that bounds in-target queueing well below the timeout.
    """
    from repro.nvmeof.initiator import DriverHardening

    if protection == "off":
        return DriverHardening(
            command_timeout=_COMMAND_TIMEOUT_OFF,
            max_retries=3,
            backoff=1.5,
        )
    if protection == "full":
        return DriverHardening(
            command_timeout=_COMMAND_TIMEOUT_FULL,
            max_retries=5,
            backoff=2.0,
            jitter=0.25,
            retry_budget_ratio=0.1,
            retry_budget_cap=8.0,
            qfull_backoff=_QFULL_BACKOFF,
            qfull_max_requeues=256,
            fail_fast=True,
        )
    raise ValueError(f"unknown protection {protection!r} (have {PROTECTIONS})")


def _admission_config():
    from repro.robust.admission import AdmissionConfig

    return AdmissionConfig(
        max_inflight_ordered=128,
        max_inflight_unordered=128,
    )


@dataclass
class OverloadRun:
    """Measured outcome of one status-aware open-loop run."""

    offered_iops: float
    elapsed: float
    good_ops: int = 0
    failed_ops: int = 0
    failures_by_cause: Dict[str, int] = None
    p50_us: float = 0.0
    p99_us: float = 0.0
    p999_us: float = 0.0

    @property
    def goodput_iops(self) -> float:
        return self.good_ops / self.elapsed if self.elapsed else 0.0


def _cause_of(status: int) -> str:
    from repro.nvmeof.command import (
        STATUS_BROWNOUT,
        STATUS_DEADLINE,
        STATUS_QFULL,
        STATUS_TIMEOUT,
    )

    return {
        STATUS_QFULL: "shed",
        STATUS_TIMEOUT: "timeout",
        STATUS_DEADLINE: "deadline",
        STATUS_BROWNOUT: "brownout",
    }.get(status, "error")


def _run_status_loop(
    cluster,
    stack,
    offered_iops: float,
    tenants: int,
    duration: float,
    warmup: float,
    seed: int,
    next_lba_for=None,
    deadline_budget: Optional[float] = None,
    per_tenant: Optional[List] = None,
) -> OverloadRun:
    """Status-aware open loop: like
    :func:`repro.scale.loadgen.run_open_loop` but completions are split
    into goodput (every bio status 0) and failures by cause, so shedding
    and fast-fails are visible instead of counted as throughput.

    ``next_lba_for(tenant)`` optionally overrides the address generator
    (the gray scenario pins tenants to shards by LBA congruence);
    ``per_tenant`` optionally receives one LatencyRecorder per tenant.
    """
    from repro.scale.loadgen import (
        OPEN_LOOP_INFLIGHT_CAP,
        TENANT_AREA_BLOCKS,
    )
    from repro.sim.engine import Environment
    from repro.sim.rng import DeterministicRNG
    from repro.sim.stats import LatencyRecorder

    env: Environment = cluster.env
    end_time = warmup + duration
    per_tenant_rate = offered_iops / tenants
    run = OverloadRun(offered_iops=offered_iops, elapsed=duration,
                      failures_by_cause={})
    latency = LatencyRecorder()
    recorders = per_tenant if per_tenant is not None else []
    while len(recorders) < tenants:
        recorders.append(LatencyRecorder())

    def watch(tenant, arrival, events, tracker):
        yield tracker
        if not (warmup <= env.now <= end_time):
            return
        statuses = [
            e.bio.status for e in events if getattr(e, "bio", None) is not None
        ]
        bad = next((s for s in statuses if s), 0)
        if bad:
            run.failed_ops += 1
            cause = _cause_of(bad)
            run.failures_by_cause[cause] = (
                run.failures_by_cause.get(cause, 0) + 1
            )
            return
        run.good_ops += 1
        if arrival >= warmup:
            latency.record(env.now - arrival)
            recorders[tenant].record(env.now - arrival)

    def tenant_body(tenant: int):
        rng = DeterministicRNG(seed).fork(f"overload{tenant}")
        core = cluster.initiator.cpus.pick(tenant)
        if next_lba_for is not None:
            next_lba = next_lba_for(tenant)
        else:
            lba_rng = rng.fork("lba")
            base = tenant * TENANT_AREA_BLOCKS

            def next_lba() -> int:
                slot = lba_rng.randint(0, TENANT_AREA_BLOCKS // 4 - 1)
                return base + slot * 4

        arrival = 0.0
        inflight: List = []
        while True:
            arrival += rng.expovariate(per_tenant_rate)
            if arrival >= end_time:
                return
            if arrival > env.now:
                yield env.timeout(arrival - env.now)
            deadline = (
                env.now + deadline_budget
                if deadline_budget is not None else None
            )
            done = yield from stack.write_ordered(
                core, tenant, lba=next_lba(), nblocks=1,
                end_of_group=True, deadline=deadline,
            )
            events = [done]
            tracker = env.all_of(events)
            env.process(watch(tenant, arrival, events, tracker))
            inflight.append(tracker)
            while len(inflight) >= OPEN_LOOP_INFLIGHT_CAP:
                yield env.any_of(inflight)
                inflight = [t for t in inflight if not t.triggered]

    def measurement():
        yield env.timeout(warmup)
        cluster.start_cpu_window()
        yield env.timeout(duration)
        cluster.stop_cpu_window()

    env.process(measurement())
    for tenant in range(tenants):
        env.process(tenant_body(tenant))
    env.run(until=end_time)
    run.p50_us = latency.p50 * 1e6
    run.p99_us = latency.p99 * 1e6
    run.p999_us = latency.p999 * 1e6
    return run


def _plane_counters(cluster) -> Dict[str, float]:
    """Aggregate robustness-plane counters over targets and drivers."""
    received = sum(t.commands_received for t in cluster.targets)
    shed = sum(t.commands_shed for t in cluster.targets)
    drivers = [node.driver for node in cluster.nodes]
    suppressed = sum(
        d.retry_budget.suppressed for d in drivers
        if d.retry_budget is not None
    )
    return {
        "commands_received": float(received),
        "commands_shed": float(shed),
        "shed_rate": shed / received if received else 0.0,
        "timeouts": float(sum(d.commands_timed_out for d in drivers)),
        "retries": float(sum(d.retries for d in drivers)),
        "retries_suppressed": float(suppressed),
        "requeues": float(sum(d.commands_requeued for d in drivers)),
        "fast_fails": float(sum(d.commands_fast_failed for d in drivers)),
        "dead_streams": float(sum(d.streams_killed for d in drivers)),
    }


def probe_overload(
    system: str,
    layout: str,
    offered_kiops: float,
    protection: str,
    initiators: int = 2,
    tenants: int = 4,
    duration: float = 2e-3,
    warmup: float = 0.5e-3,
    seed: int = 42,
) -> Dict[str, float]:
    """One metastable-overload cell: fresh testbed, one status-aware run.

    Top-level and scalar-valued so the sweep runner can execute it in a
    worker process and key it in the content-addressed result cache.
    """
    from repro.scale import ScaleOutCluster, ShardedStack
    from repro.sim.engine import Environment

    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (have {sorted(LAYOUTS)})")
    env = Environment()
    cluster = ScaleOutCluster(
        env, LAYOUTS[layout], num_initiators=initiators, seed=seed,
        hardening=_hardening(protection),
    )
    if protection == "full":
        cluster.install_admission(_admission_config())
    stack = ShardedStack(cluster, system, num_streams=max(tenants, 1))

    def _persisted() -> float:
        return float(sum(
            ssd.commands_served
            for target in cluster.targets for ssd in target.ssds
        ))

    marks: Dict[str, float] = {}

    def persist_window():
        yield env.timeout(warmup)
        marks["start"] = _persisted()

    env.process(persist_window())
    run = _run_status_loop(
        cluster, stack, offered_kiops * 1e3, tenants, duration, warmup, seed,
    )
    # Completed vs persisted separates real goodput from the completion
    # mirage: an unprotected driver's timeout retransmissions get
    # duplicate-acked while the original still queues in the device, so
    # completions can exceed what the media actually persists.
    persisted_kiops = (_persisted() - marks.get("start", 0.0)) / duration / 1e3
    counters = _plane_counters(cluster)
    timeout_fails = run.failures_by_cause.get("timeout", 0)
    total_ops = run.good_ops + run.failed_ops
    goodput_kiops = run.goodput_iops / 1e3
    result = {
        "offered_kiops": offered_kiops,
        "goodput_kiops": goodput_kiops,
        "persisted_kiops": persisted_kiops,
        "completion_debt_kiops": goodput_kiops - persisted_kiops,
        "good_ops": float(run.good_ops),
        "failed_ops": float(run.failed_ops),
        "timeout_rate": timeout_fails / total_ops if total_ops else 0.0,
        "p50_us": run.p50_us,
        "p99_us": run.p99_us,
        "p999_us": run.p999_us,
    }
    result.update(counters)
    return result


def overload_sweep(spec) -> Sweep:
    """The experiment of an ``overload`` :class:`~repro.spec.ScenarioSpec`:
    the metastable-overload grid as independent cells + reduce, or the
    gray-target cell (:func:`gray_sweep`) when ``workload.mode`` is
    ``gray``."""
    workload, topology = spec.workload, spec.topology
    if workload["mode"] == "gray":
        return gray_sweep(spec)
    systems = workload["systems"]
    protections = spec.policies["protections"]
    if protections is None:
        protections = PROTECTIONS
    layout, initiators = topology["layout"], topology["initiators"]
    tenants = workload["tenants"]
    loads = sorted(workload["loads_kiops"])
    cells = [
        (system, protection, load)
        for system in systems
        for protection in protections
        for load in loads
    ]
    specs = [
        RunSpec.make(
            probe_overload,
            label=f"overload/{system}/{protection}/{load:g}k",
            system=system, layout=layout, offered_kiops=load,
            protection=protection, initiators=initiators, tenants=tenants,
            duration=workload["duration"], seed=workload["seed"],
        )
        for system, protection, load in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Overload",
            description=(
                f"metastable-overload sweep, {layout}, {initiators} "
                f"initiator(s) x {tenants} tenant(s): goodput, shed-rate "
                "and timeout-rate vs offered load, protection off vs full"
            ),
            headers=[
                "system", "protection", "offered_kiops", "goodput_kiops",
                "persisted_kiops", "shed_rate", "timeout_rate",
                "dead_streams", "p999_us",
            ],
        )
        for (system, protection, _load), run in zip(cells, results):
            result.add(
                system=system,
                protection=protection,
                offered_kiops=run["offered_kiops"],
                goodput_kiops=round(run["goodput_kiops"], 1),
                persisted_kiops=round(run["persisted_kiops"], 1),
                shed_rate=round(run["shed_rate"], 3),
                timeout_rate=round(run["timeout_rate"], 3),
                dead_streams=int(run["dead_streams"]),
                p999_us=round(run["p999_us"], 2),
            )
        for system in systems:
            knee = _knee_goodput(result, system)
            if knee <= 0:
                continue
            top = max(loads)
            protected = _goodput_at(result, system, "full", top)
            naked = _goodput_at(result, system, "off", top)
            result.notes.append(
                f"{system} @ {top:g}k offered: protected goodput "
                f"{protected:g}k ({protected / knee:.0%} of the "
                f"{knee:g}k knee), unprotected {naked:g}k "
                f"({naked / knee:.0%})"
            )
            mirage = [
                row for row in result.series(system=system, protection="off")
                if row["goodput_kiops"]
                > 1.2 * max(row["persisted_kiops"], 1e-9)
            ]
            for row in mirage:
                result.notes.append(
                    f"{system} unprotected @ {row['offered_kiops']:g}k: "
                    f"completion mirage — {row['goodput_kiops']:g}k "
                    f"completed vs {row['persisted_kiops']:g}k persisted "
                    "(timeout retransmissions duplicate-acked while the "
                    "original still queues in the device)"
                )
        return result

    return Sweep(name="overload", specs=specs, reduce=reduce)


def _knee_goodput(result: FigureResult, system: str) -> float:
    """Best protected goodput over the grid — the knee reference the
    2x-overload acceptance compares against."""
    rows = result.series(system=system, protection="full")
    return max((row["goodput_kiops"] for row in rows), default=0.0)


def _goodput_at(result: FigureResult, system: str, protection: str,
                offered: float) -> float:
    rows = [
        row for row in result.series(system=system, protection=protection)
        if row["offered_kiops"] == offered
    ]
    return rows[0]["goodput_kiops"] if rows else 0.0


# ----------------------------------------------------------------------
# Gray-target (fail-slow) scenario
# ----------------------------------------------------------------------

def probe_gray(
    system: str = "rio",
    layout: str = "2optane-2targets",
    offered_kiops: float = 120,
    tenants: int = 4,
    unordered_tenants: int = 2,
    duration: float = 4e-3,
    warmup: float = 1e-3,
    degrade_at: float = 2e-3,
    degrade_factor: float = 8.0,
    seed: int = 42,
) -> Dict[str, float]:
    """One gray-target cell: degrade target 0 mid-run, measure isolation.

    Ordered tenants are pinned to shards by LBA congruence (tenant ``t``
    writes LBAs ``≡ t mod width`` on the striped volume, so its 1-block
    writes land on target ``t mod width`` only).  Unordered tenants pick
    their target per-op through the health monitor and fail over when the
    breaker on the sick target opens.
    """
    from repro.block.request import BlockRequest
    from repro.scale import ScaleOutCluster, ShardedStack
    from repro.scale.loadgen import TENANT_AREA_BLOCKS
    from repro.sim.engine import Environment
    from repro.sim.faults import FaultPlan
    from repro.sim.rng import DeterministicRNG
    from repro.sim.stats import LatencyRecorder

    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (have {sorted(LAYOUTS)})")
    profiles = LAYOUTS[layout]
    width = sum(len(t) for t in profiles)
    if len(profiles) < 2:
        raise ValueError("the gray scenario needs at least two targets")
    env = Environment()
    cluster = ScaleOutCluster(
        env, profiles, num_initiators=1, seed=seed,
        hardening=_hardening("full"),
    )
    cluster.install_admission(_admission_config())
    monitors = cluster.attach_health()
    stack = ShardedStack(cluster, system, num_streams=max(tenants, 1))
    plan = FaultPlan(seed=seed).degrade(
        at=warmup + degrade_at, target_index=0, factor=degrade_factor,
    )
    plan.install(cluster)

    sick_member = 0  # target 0 == volume member 0 (one SSD per target)

    def next_lba_for(tenant: int):
        rng = DeterministicRNG(seed).fork(f"gray-lba{tenant}")
        base = tenant * TENANT_AREA_BLOCKS
        member = tenant % width

        def next_lba() -> int:
            slot = rng.randint(0, TENANT_AREA_BLOCKS // (2 * width) - 1)
            # Stride 2*width keeps writes non-consecutive; the congruence
            # class pins every 1-block write to one stripe member.
            return base + slot * 2 * width + member

        return next_lba

    per_tenant: List[LatencyRecorder] = []

    # ---- unordered flows: health-steered driver-level writes ----
    node = cluster.nodes[0]
    unordered_ops = {"good": 0, "failed": 0, "by_target": {}}
    end_time = warmup + duration

    def unordered_body(flow: int):
        rng = DeterministicRNG(seed).fork(f"gray-unordered{flow}")
        core = node.cpus.pick(tenants + flow)
        rate = (offered_kiops * 1e3) / max(unordered_tenants, 1) / 4
        arrival = 0.0
        while True:
            arrival += rng.expovariate(rate)
            if arrival >= end_time:
                return
            if arrival > env.now:
                yield env.timeout(arrival - env.now)
            index = cluster.healthy_target_for(0, env.now)
            ns = node.namespaces[index]
            request = BlockRequest(
                op="write", lba=rng.randint(0, 1 << 20) * 2, nblocks=1,
                qp_index=core.index,
            )
            done = yield from node.driver.submit(core, ns, request)
            yield done
            if warmup <= env.now <= end_time:
                name = ns.target.name
                unordered_ops["by_target"][name] = (
                    unordered_ops["by_target"].get(name, 0) + 1
                )
                if request.status == 0:
                    unordered_ops["good"] += 1
                else:
                    unordered_ops["failed"] += 1

    for flow in range(unordered_tenants):
        env.process(unordered_body(flow))

    run = _run_status_loop(
        cluster, stack, offered_kiops * 1e3, tenants, duration, warmup, seed,
        next_lba_for=next_lba_for, per_tenant=per_tenant,
    )

    sick = [t for t in range(tenants) if t % width == sick_member]
    bystanders = [t for t in range(tenants) if t % width != sick_member]
    bystander_p999 = max(
        (per_tenant[t].p999 for t in bystanders if per_tenant[t].count),
        default=0.0,
    )
    sick_good = sum(
        1 for t in sick if per_tenant[t].count
    )
    monitor = monitors[0]
    sick_name = cluster.targets[0].name
    healthy = [t.name for t in cluster.targets[1:]]
    counters = _plane_counters(cluster)
    result = {
        "offered_kiops": offered_kiops,
        "goodput_kiops": run.goodput_iops / 1e3,
        "failed_ops": float(run.failed_ops),
        "brownouts": float(run.failures_by_cause.get("brownout", 0)),
        "bystander_p999_us": bystander_p999 * 1e6,
        "sick_tenants_active": float(sick_good),
        "breaker_trips": float(monitor.target(sick_name).trips),
        "sick_breaker_open": float(
            monitor.states().get(sick_name) != "closed"
        ),
        "healthy_breakers_closed": float(all(
            monitor.states().get(name, "closed") == "closed"
            for name in healthy
        )),
        "failovers": float(monitor.failovers),
        "unordered_good": float(unordered_ops["good"]),
        "unordered_failed": float(unordered_ops["failed"]),
        "unordered_on_sick": float(
            unordered_ops["by_target"].get(sick_name, 0)
        ),
        "unordered_on_healthy": float(sum(
            n for name, n in unordered_ops["by_target"].items()
            if name != sick_name
        )),
    }
    result.update(counters)
    return result


def gray_sweep(spec) -> Sweep:
    """The gray-target scenario of an ``overload`` spec in ``gray`` mode:
    a one-cell sweep (cached, seeded)."""
    workload = spec.workload
    degrade_factor = workload["degrade_factor"]
    cell = RunSpec.make(
        probe_gray,
        label=f"overload/gray/{workload['seed']}",
        duration=workload["duration"], seed=workload["seed"],
        offered_kiops=workload["offered_kiops"],
        degrade_factor=degrade_factor,
    )

    def reduce(results: List[Dict]) -> FigureResult:
        run = results[0]
        result = FigureResult(
            name="Gray target",
            description=(
                "fail-slow target 0 (service x"
                f"{degrade_factor:g} mid-run): breaker trips, ordered "
                "brownouts, unordered failover, bystander isolation"
            ),
            headers=["metric", "value"],
        )
        for key in (
            "offered_kiops", "goodput_kiops", "brownouts",
            "bystander_p999_us", "breaker_trips", "sick_breaker_open",
            "healthy_breakers_closed", "failovers", "unordered_on_sick",
            "unordered_on_healthy", "shed_rate", "dead_streams",
        ):
            value = run[key]
            result.add(metric=key, value=round(value, 3))
        return result

    return Sweep(name="overload-gray", specs=[cell], reduce=reduce)
