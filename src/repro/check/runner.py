"""Matrix driver behind ``repro check``: fan specs out, shrink failures.

The check matrix is a sweep like any figure: every (system, layout, seed,
shape) cell is an independent simulation, so it runs on the same
:class:`~repro.harness.sweep.SweepRunner` — ``--jobs N`` fans cells across
worker processes and ``--cache`` memoizes green cells in the on-disk
result cache, so a re-run after a code change only pays for what the
digest says changed.

``DEFAULT_MATRIX`` maps each system to the layouts its ordering contract
is checked on.  ``linux`` is deliberately limited to single-device
layouts: the baseline stack attaches its FLUSH to the final bio of a
group, whose fragments reach only the devices that bio strides, so on a
multi-device volume an acknowledged fsync genuinely does not cover every
member (real md/LVM fans FLUSH out to all members; modeling that would
add a command per group and shift the Lesson-1 flash figures).  The
limitation is documented in ``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.differential import check_cell, shrink_spec
from repro.check.workload import WorkloadSpec
from repro.harness.report import Report, Verdict
from repro.harness.sweep import RunSpec, SweepRunner

__all__ = [
    "DEFAULT_MATRIX",
    "SCALE_MATRIX",
    "DEFAULT_SEEDS",
    "MatrixResult",
    "build_matrix_specs",
    "run_check_matrix",
]

#: system -> layouts whose ordering contract the system must uphold.
DEFAULT_MATRIX: Dict[str, Tuple[str, ...]] = {
    "rio": ("flash", "optane", "4ssd-1target", "2optane-2targets"),
    "horae": ("flash", "optane", "2optane-2targets"),
    "linux": ("flash", "optane"),
    "barrier": ("flash", "optane"),
}

DEFAULT_SEEDS: Tuple[int, ...] = (0, 1, 2)

#: system -> (layout, initiators) cells checked on the sharded
#: multi-initiator cluster (:mod:`repro.scale`): the same order oracle,
#: but with streams fanned in from several initiator hosts, so
#: cross-host sharding, per-flow steering and coordinator recovery are
#: all under the crash fuzzer too.  Layouts here have >= 2 targets so
#: fan-in crosses real target boundaries.
SCALE_MATRIX: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "rio": (("2optane-2targets", 2),),
    "horae": (("2optane-2targets", 2),),
}


def _cell_label(spec: WorkloadSpec) -> str:
    """``check:<system>/<layout>[/x<initiators>]``: a cell's sweep label."""
    return (f"check:{spec.system}/{spec.layout}"
            + (f"/x{spec.initiators}" if spec.initiators > 1 else ""))


def _cell_verdict(report: dict) -> Verdict:
    """A check cell passes when no crash point it replayed failed."""
    return Verdict("failing_points", "<=", 0, len(report["failures"]),
                   report["crash_points"])


@dataclass
class MatrixResult(Report):
    """Everything one ``repro check`` invocation found."""

    #: (spec, report-dict) per cell, in matrix order.
    cells: List[Tuple[WorkloadSpec, dict]] = field(default_factory=list)
    #: Minimal reproducers of the failing cells (shrunk when requested).
    reproducers: List[WorkloadSpec] = field(default_factory=list)

    headers = ()

    def _graded(self):
        return [((spec, report), [_cell_verdict(report)])
                for spec, report in self.cells]

    def _table(self):
        per_system: Dict[str, List[dict]] = {}
        for spec, report in self.cells:
            per_system.setdefault(spec.system, []).append(report)
        rows = []
        for system, reports in per_system.items():
            points = sum(report["crash_points"] for report in reports)
            bad = sum(not _cell_verdict(report).ok for report in reports)
            status = "OK" if not bad else f"{bad} FAILING"
            rows.append(([f"{system:8s} {len(reports):3d} cell(s), "
                          f"{points:5d} crash point(s): {status}"], []))
        for spec, report in self.failures:
            details = [f"       {_cell_verdict(report)}"]
            for failure in report["failures"][:2]:
                for violation in failure["violations"][:2]:
                    details.append(
                        f"       {violation['kind']}: stream "
                        f"{violation['stream']} group {violation['group']}"
                    )
            rows.append(([f"  FAIL {_cell_label(spec)} seed {spec.seed}"],
                         details))
        return rows

    def _footer(self) -> List[str]:
        total_points = sum(r["crash_points"] for _s, r in self.cells)
        verdict = "all ordering invariants hold" if self.ok else "VIOLATIONS"
        return [f"checked {len(self.cells)} cell(s), {total_points} crash "
                f"point(s): {verdict}"]


def build_matrix_specs(
    systems: Optional[Sequence[str]] = None,
    layouts: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    **shape,
) -> List[WorkloadSpec]:
    """The checking matrix as concrete specs, in deterministic order.

    ``layouts`` overrides the per-system defaults (use with care: not
    every system supports every layout — barrier is single-device only).
    """
    if systems is None:
        systems = list(DEFAULT_MATRIX)
    specs = []
    for system in systems:
        if system not in DEFAULT_MATRIX:
            raise ValueError(
                f"unknown system {system!r}; one of {sorted(DEFAULT_MATRIX)}"
            )
        for layout in (layouts if layouts is not None
                       else DEFAULT_MATRIX[system]):
            for seed in seeds:
                specs.append(
                    WorkloadSpec(system=system, layout=layout,
                                 seed=seed, **shape)
                )
        if layouts is None:
            for layout, initiators in SCALE_MATRIX.get(system, ()):
                for seed in seeds:
                    specs.append(
                        WorkloadSpec(system=system, layout=layout, seed=seed,
                                     initiators=initiators, **shape)
                    )
    return specs


def run_check_matrix(
    specs: Sequence[WorkloadSpec],
    runner: Optional[SweepRunner] = None,
    shrink: bool = True,
) -> MatrixResult:
    """Check every spec (parallel + cached via ``runner``), then record a
    minimal reproducer (shrunk when ``shrink``) for each failing cell."""
    runner = runner or SweepRunner(jobs=1)
    run_specs = [
        RunSpec.make(check_cell, label=_cell_label(spec), **spec.to_dict())
        for spec in specs
    ]
    reports = runner.map(run_specs)
    result = MatrixResult(cells=list(zip(specs, reports)))
    result.reproducers = [shrink_spec(spec) if shrink else spec
                          for spec, _report in result.failures]
    return result
