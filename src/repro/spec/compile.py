"""Spec compilers: ScenarioSpec → sweep cells → one run → one outcome.

:func:`run_scenario` is the single execution path behind ``repro run
<spec.json>`` and every CLI verb that runs a scenario.  A ``figure``,
``claims`` or ``check`` spec calls its figure entry point, the scorecard
or the check matrix; every other scenario names a sweep builder
(:func:`~repro.harness.saturate.saturation_sweep` and friends) that takes
the validated :class:`ScenarioSpec` as its only argument, and
``run_scenario`` runs that sweep on a :mod:`~repro.harness.sweep` runner
with the caller's ``jobs``/``cache`` and wraps the native result in a
:class:`ScenarioOutcome`.

Two cache layers compose here:

* **cell level** — each sweep cell memoizes under its
  :meth:`~repro.harness.sweep.RunSpec.digest` exactly as before;
* **scenario level** — the reduced outcome memoizes under
  :meth:`ScenarioSpec.digest`, so a warm re-run of a whole spec is one
  cache read.  Both live in the same
  :class:`~repro.harness.cache.ResultCache` namespace (code version ×
  ``REPRO_*`` env fingerprint); the spec digest is domain-tagged so the
  two key spaces cannot collide.

Every result is a :class:`~repro.harness.report.Report`, so
``outcome.ok`` is the result's own verdict for every scenario: all of
its :class:`~repro.harness.report.Verdict` records pass.  Every failing
scenario yields minimal replayable specs in ``outcome.reproducers`` —
for ``check`` one single-cell spec per shrunk failing cell — and
:meth:`ScenarioOutcome.dump_reproducers` is the one writer of them.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, List

from repro.spec.scenario import ScenarioSpec

__all__ = ["ScenarioOutcome", "run_scenario"]


@dataclass
class ScenarioOutcome:
    """What one compiled scenario produced."""

    spec: ScenarioSpec
    #: The scenario's :class:`~repro.harness.report.Report`.
    result: Any
    #: Minimal replayable specs for whatever failed (empty when ok).
    reproducers: List[ScenarioSpec] = field(default_factory=list)
    #: True when the whole outcome came from the scenario-level cache.
    cached: bool = False
    #: Sweep-runner statistics of the run that produced this outcome
    #: (``None`` until :func:`run_scenario` fills it in).
    stats: Any = None

    @property
    def ok(self) -> bool:
        return self.result.ok

    def render(self) -> str:
        return self.result.render()

    def dump_reproducers(self, out_dir) -> List[str]:
        """Write one ``<scenario>-<digest12>.json`` spec per reproducer."""
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for repro_spec in self.reproducers:
            path = os.path.join(
                out_dir,
                f"{repro_spec.scenario}-{repro_spec.digest()[:12]}.json",
            )
            with open(path, "w") as handle:
                json.dump(repro_spec.to_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            paths.append(path)
        return paths


# ----------------------------------------------------------------------
# Per-scenario compilers
# ----------------------------------------------------------------------


def _run_figure(spec: ScenarioSpec):
    from repro.harness.figures import FIGURES

    fn, _description, _takes_duration = FIGURES[spec.workload["figure"]]
    options = spec.workload["options"] or {}
    return fn(**options)


def _run_claims(spec: ScenarioSpec):
    from repro.harness.claims import evaluate_claims

    # The figure sweeps run on run_scenario's ``configured`` runner, which
    # keeps all sweep statistics on one runner.
    return evaluate_claims(duration=spec.workload["duration"])


def _check_cells(spec: ScenarioSpec):
    """The :class:`~repro.check.workload.WorkloadSpec` cells a ``check``
    spec names, in matrix order."""
    from repro.check.runner import build_matrix_specs

    workload = spec.workload
    shape = {
        "streams": workload["streams"],
        "groups_per_stream": workload["groups_per_stream"],
        "writes_per_group": workload["writes_per_group"],
        "depth": workload["depth"],
        "flush_every": workload["flush_every"],
        "max_points": spec.oracle["max_points"],
    }
    # Non-default topology/devices/faults require explicit layouts
    # (validated), so build_matrix_specs never double-passes initiators
    # through its SCALE_MATRIX loop.
    if spec.topology["initiators"] > 1:
        shape["initiators"] = spec.topology["initiators"]
    if spec.devices["prefill"] > 0:
        shape["prefill"] = spec.devices["prefill"]
    if spec.faults is not None:
        shape["faults"] = spec.faults
    return build_matrix_specs(
        systems=workload["systems"],
        layouts=workload["layouts"],
        seeds=workload["seeds"],
        **shape,
    )


def _run_check(spec: ScenarioSpec):
    from repro.check.runner import run_check_matrix
    from repro.harness.sweep import get_runner

    return run_check_matrix(_check_cells(spec), runner=get_runner(),
                            shrink=spec.oracle["shrink"])


def _check_cell_spec(cell) -> ScenarioSpec:
    """One check cell (a :class:`~repro.check.workload.WorkloadSpec`) as
    the single-cell ``check`` spec whose :func:`_check_cells` is
    ``[cell]``, named after the cell's ``FAIL`` row."""
    from repro.check.runner import _cell_label

    return ScenarioSpec.from_dict({
        "scenario": "check",
        "name": f"failing check cell {_cell_label(cell)} seed {cell.seed}",
        "topology": {"initiators": cell.initiators},
        "devices": {"prefill": cell.prefill},
        "workload": {
            "systems": [cell.system],
            "layouts": [cell.layout],
            "seeds": [cell.seed],
            "streams": cell.streams,
            "groups_per_stream": cell.groups_per_stream,
            "writes_per_group": cell.writes_per_group,
            "depth": cell.depth,
            "flush_every": cell.flush_every,
        },
        "faults": cell.faults,
        "oracle": {"max_points": cell.max_points},
    })


#: Scenario -> (module, builder) of its sweep; each builder takes the
#: validated spec as its only argument.
_SWEEPS = {
    "chaos": ("repro.harness.chaos", "chaos_sweep"),
    "overload": ("repro.harness.overload", "overload_sweep"),
    "qualify": ("repro.harness.qualify", "qualify_sweep"),
    "saturate": ("repro.harness.saturate", "saturation_sweep"),
    "tenants": ("repro.harness.tenants", "tenants_sweep"),
}


def _qualify_reproducers(spec: ScenarioSpec, report) -> List[ScenarioSpec]:
    """One narrowed spec per failing qualification cell."""
    workload = spec.workload
    overrides = spec.policies["floors"] or {}
    reproducers = []
    for cell in report.failures:
        # Only the overrides of cells the narrowed spec still runs: a
        # floor on any other cell would make the reproducer invalid.
        floors = {key: value for key, value in overrides.items()
                  if key == cell.key
                  or (cell.phase == "oracle" and key.startswith("oracle/"))}
        narrowed = dict(workload)
        narrowed["sustained"] = False
        if cell.phase == "matrix":
            narrowed.update(
                systems=[cell.system], blocks_kib=[cell.block_kib],
                queue_depths=[cell.queue_depth],
            )
            oracle = {**spec.oracle, "enabled": False}
        elif cell.phase == "sustained":
            narrowed.update(systems=[cell.system], blocks_kib=[],
                            sustained=True)
            oracle = {**spec.oracle, "enabled": False}
        else:  # oracle cells: the trio is fixed, keep it whole
            narrowed["blocks_kib"] = []
            oracle = {**spec.oracle, "enabled": True}
        reproducers.append(spec.with_(
            name=f"failing qualify cell {cell.key}",
            workload=narrowed, oracle=oracle,
            policies={**spec.policies, "floors": floors or None},
        ))
    return reproducers


def _reproducers(spec: ScenarioSpec, result) -> List[ScenarioSpec]:
    """Minimal replayable specs for a failing result: one per failing
    chaos trial, qualification cell or (shrunk) check cell, else the
    spec itself."""
    if result.ok:
        return []
    if spec.scenario == "chaos":
        return [
            spec.with_(
                name=f"failing chaos trial {r.system}/seed{r.seed}",
                workload={**spec.workload, "systems": [r.system],
                          "trials": 1, "base_seed": r.seed},
            )
            for r in result.failures
        ]
    if spec.scenario == "qualify":
        return _qualify_reproducers(spec, result)
    if spec.scenario == "check":
        return [_check_cell_spec(minimal) for minimal in result.reproducers]
    return [spec]


def _run_sweep(spec: ScenarioSpec, runner):
    """Build the scenario's sweep from the spec and run it on
    ``runner``."""
    module, builder = _SWEEPS[spec.scenario]
    build = getattr(importlib.import_module(module), builder)
    return runner.run(build(spec))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    jobs: int = 1,
    cache=None,
) -> ScenarioOutcome:
    """Build and run one spec; returns its :class:`ScenarioOutcome`.

    ``cache`` (a :class:`~repro.harness.cache.ResultCache`) memoizes at
    both the cell and the scenario level; a warm scenario-level hit
    skips building and running entirely and returns the stored outcome with
    ``cached=True``, reproducers included.
    """
    from repro.harness.sweep import configured

    if cache is not None:
        hit, value = cache.get(spec.digest())
        if hit:
            value.cached = True
            return value

    with configured(jobs=jobs, cache=cache) as runner:
        if spec.scenario == "figure":
            result = _run_figure(spec)
        elif spec.scenario == "claims":
            result = _run_claims(spec)
        elif spec.scenario == "check":
            result = _run_check(spec)
        else:
            result = _run_sweep(spec, runner)
        outcome = ScenarioOutcome(spec=spec, result=result,
                                  reproducers=_reproducers(spec, result),
                                  stats=runner.stats)

    if cache is not None:
        cache.put(spec.digest(), outcome)
    return outcome
