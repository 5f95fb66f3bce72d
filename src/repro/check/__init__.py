"""Crash-consistency oracle: differential order-invariant checking.

The checker closes the loop the paper's correctness argument (§4.8) opens:
it *executes* the argument against the simulator.  One recorded run of a
seeded ordered workload yields a snapshot of all durable state (SSD media +
PMR) at every persistence event; each snapshot becomes a crash point.  For
every crash point the checker builds a fresh deterministic testbed,
restores the captured durable state, runs the system's recovery path (Rio
§4.4, HORAE §6.5; Linux and barrier recover nothing beyond durable media)
and validates the recovered state against the declared storage order:

* groups persist as per-stream prefixes (no group survives a lost
  predecessor),
* no holes inside a group/epoch (rollback systems must never expose a
  torn group),
* acknowledged fsyncs are durable (a flush-group whose completion fired
  before the crash must survive recovery intact).

The differential driver cross-checks all systems on the same workload and
shrinks failing specs to a minimal one; ``repro check`` runs the matrix on
the sweep runner and reports each shrunk cell as a single-cell
ScenarioSpec that ``repro run`` replays deterministically.
"""

from repro.check.crashpoints import (
    ClusterState,
    RecordedRun,
    capture_cluster,
    record_run,
    restore_cluster,
    select_crash_points,
)
from repro.check.differential import (
    CheckReport,
    CrashFailure,
    check_cell,
    check_workload,
    differential_check,
    shrink_spec,
)
from repro.check.runner import (
    DEFAULT_MATRIX,
    DEFAULT_SEEDS,
    MatrixResult,
    build_matrix_specs,
    run_check_matrix,
)
from repro.check.oracle import (
    GroupSurvival,
    Violation,
    check_order_invariants,
    group_status,
)
from repro.check.workload import (
    Completion,
    GroupPlan,
    WorkloadSpec,
    WritePlan,
    build_plan,
    build_testbed,
)

__all__ = [
    "ClusterState",
    "RecordedRun",
    "capture_cluster",
    "record_run",
    "restore_cluster",
    "select_crash_points",
    "CheckReport",
    "CrashFailure",
    "check_cell",
    "check_workload",
    "differential_check",
    "shrink_spec",
    "DEFAULT_MATRIX",
    "DEFAULT_SEEDS",
    "MatrixResult",
    "build_matrix_specs",
    "run_check_matrix",
    "GroupSurvival",
    "Violation",
    "check_order_invariants",
    "group_status",
    "Completion",
    "GroupPlan",
    "WorkloadSpec",
    "WritePlan",
    "build_plan",
    "build_testbed",
]
