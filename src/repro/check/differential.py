"""Differential fuzz driver: cross-check systems, shrink failures.

``check_workload`` is the complete check of one spec: record, enumerate
crash points, replay recovery at each, run the oracle.  The differential
driver runs several systems over the same workload shape so a contract
violated by only one implementation stands out immediately.  Failing specs
are shrunk greedily along every shape dimension to a minimal reproducer;
the spec is its only input (see :mod:`repro.check.workload`), so
``repro run`` replays it byte-for-byte from the single-cell ScenarioSpec
that :mod:`repro.spec.compile` makes of it.

``check_cell`` is the sweep-runner entry point: a top-level function (the
runner encodes cells as ``"module:function"``) returning a plain dict so
results are picklable and cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.check.crashpoints import (
    ClusterState,
    RecordedRun,
    record_run,
    restore_cluster,
    select_crash_points,
)
from repro.check.oracle import (
    Violation,
    acked_groups,
    check_order_invariants,
    extract_survival,
)
from repro.check.workload import WorkloadSpec, build_plan, build_testbed

__all__ = [
    "CrashFailure",
    "CheckReport",
    "recover_at",
    "check_workload",
    "differential_check",
    "shrink_spec",
    "check_cell",
]

#: Virtual-time budget for one recovery pass.
RECOVERY_LIMIT = 2.0


@dataclass
class CrashFailure:
    """Oracle violations at one crash point."""

    crash_time: float
    violations: List[Violation]

    def as_dict(self) -> dict:
        return {
            "crash_time": self.crash_time,
            "violations": [v.as_dict() for v in self.violations],
        }


@dataclass
class CheckReport:
    """The outcome of checking one spec at every crash point."""

    spec: WorkloadSpec
    crash_points: int = 0
    groups_completed: int = 0
    failures: List[CrashFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "crash_points": self.crash_points,
            "groups_completed": self.groups_completed,
            "ok": self.ok,
            "failures": [f.as_dict() for f in self.failures],
        }


def recover_at(spec: WorkloadSpec, state: ClusterState):
    """Fresh testbed + snapshot restore + recovery; returns the stack.

    Models a full power cycle at ``state.time``: every volatile structure
    is reborn empty, durable state is the snapshot, and the system's own
    recovery path runs before anything is read back.
    """
    env, cluster, stack = build_testbed(spec)
    restore_cluster(cluster, state)
    if hasattr(stack, "recovery"):
        core = cluster.initiator.cpus.pick(0)
        recovery = stack.recovery()
        env.run_until_event(
            env.process(recovery.run_initiator_recovery(core)),
            limit=RECOVERY_LIMIT,
        )
    # Linux/barrier recover nothing: durable media is the recovered state.
    return stack


def check_workload(spec: WorkloadSpec,
                   run: Optional[RecordedRun] = None) -> CheckReport:
    """Record one run of ``spec`` and validate every crash point."""
    if run is None:
        run = record_run(spec)
    plan = build_plan(spec)
    points = select_crash_points(run)
    report = CheckReport(
        spec=spec,
        crash_points=len(points),
        groups_completed=len(run.completions),
    )
    for state in points:
        stack = recover_at(spec, state)
        survival = extract_survival(stack, plan)
        acked = acked_groups(run.completions, state.time)
        violations = check_order_invariants(spec.system, plan, survival, acked)
        if violations:
            report.failures.append(CrashFailure(state.time, violations))
    return report


def differential_check(base: WorkloadSpec,
                       systems: List[str]) -> Dict[str, CheckReport]:
    """The same workload shape across systems: who breaks the contract?"""
    return {
        system: check_workload(base.with_(system=system))
        for system in systems
    }


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

#: Shape dimensions the shrinker may reduce, with their floors.
_SHRINK_DIMENSIONS = (
    ("streams", 1),
    ("groups_per_stream", 1),
    ("writes_per_group", 1),
    ("depth", 1),
)


def _still_fails(spec: WorkloadSpec) -> bool:
    return not check_workload(spec).ok


def shrink_spec(spec: WorkloadSpec,
                still_fails: Callable[[WorkloadSpec], bool] = _still_fails,
                max_attempts: int = 64) -> WorkloadSpec:
    """Greedy shrink: halve, then decrement, each dimension while the
    spec still fails.  Deterministic, bounded, and cheap relative to the
    fuzzing that found the failure."""
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for name, floor in _SHRINK_DIMENSIONS:
            value = getattr(spec, name)
            for candidate in (max(floor, value // 2), value - 1):
                if candidate >= floor and candidate < value:
                    attempts += 1
                    smaller = spec.with_(**{name: candidate})
                    if still_fails(smaller):
                        spec = smaller
                        progress = True
                        break
                if attempts >= max_attempts:
                    break
            if attempts >= max_attempts:
                break
    return spec


# ----------------------------------------------------------------------
# Sweep-runner cell
# ----------------------------------------------------------------------


def check_cell(
    system: str = "rio",
    layout: str = "optane",
    seed: int = 0,
    streams: int = 2,
    groups_per_stream: int = 4,
    writes_per_group: int = 2,
    depth: int = 2,
    flush_every: int = 2,
    max_points: int = 0,
    initiators: int = 1,
    prefill: float = 0.0,
    faults: Optional[dict] = None,
) -> dict:
    """One (system, layout, seed) check as a cacheable sweep cell."""
    spec = WorkloadSpec(
        system=system,
        layout=layout,
        seed=seed,
        streams=streams,
        groups_per_stream=groups_per_stream,
        writes_per_group=writes_per_group,
        depth=depth,
        flush_every=flush_every,
        max_points=max_points,
        initiators=initiators,
        prefill=prefill,
        faults=faults,
    )
    return check_workload(spec).as_dict()
