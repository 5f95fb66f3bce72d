"""repro.spec: the one declarative configuration surface.

A versioned, JSON-serializable :class:`ScenarioSpec` describes any
experiment in this repository — figure, claims scorecard, chaos suite,
crash-consistency check, saturation sweep, overload/gray scenario or
qualification matrix — as one document of normalized sections
(topology × devices × workload × faults × policies × oracle).
:func:`load_spec` also upgrades every legacy JSON shape (bare
``WorkloadSpec``, check reproducers, bare fault plans) to spec v1, and
:func:`run_scenario` runs a spec: each scenario's sweep builder takes the
spec as its only argument, and the sweep runs on the caller's runner.

See ``docs/scenario_spec.md`` for the field-by-field reference and
cookbook.
"""

from repro.spec.scenario import (
    SCENARIOS,
    SPEC_VERSION,
    ScenarioSpec,
    SpecError,
    diff_specs,
    load_spec,
    load_spec_file,
    upgrade_fault_plan,
    upgrade_workload_spec,
)
from repro.spec.compile import ScenarioOutcome, run_scenario

__all__ = [
    "SCENARIOS",
    "SPEC_VERSION",
    "ScenarioSpec",
    "SpecError",
    "diff_specs",
    "load_spec",
    "load_spec_file",
    "upgrade_fault_plan",
    "upgrade_workload_spec",
    "ScenarioOutcome",
    "run_scenario",
]
