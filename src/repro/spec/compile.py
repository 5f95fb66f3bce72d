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

Every failing scenario yields minimal replayable specs in
``outcome.reproducers`` — the same idea as ``repro check``'s shrunk
reproducers, generalized to all eight verbs.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.spec.scenario import ScenarioSpec, upgrade_workload_spec

__all__ = ["ScenarioOutcome", "run_scenario"]


@dataclass
class ScenarioOutcome:
    """What one compiled scenario produced."""

    spec: ScenarioSpec
    result: Any
    ok: bool = True
    #: Minimal replayable specs for whatever failed (empty when ok).
    reproducers: List[ScenarioSpec] = field(default_factory=list)
    #: True when the whole outcome came from the scenario-level cache.
    cached: bool = False
    #: Sweep-runner statistics of the run that produced this outcome
    #: (``None`` until :func:`run_scenario` fills it in).
    stats: Any = None

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


def _run_figure(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.figures import FIGURES

    fn, _description, _takes_duration = FIGURES[spec.workload["figure"]]
    options = spec.workload["options"] or {}
    return ScenarioOutcome(spec=spec, result=fn(**options))


def _run_claims(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.claims import evaluate_claims

    # The figure sweeps run on run_scenario's ``configured`` runner, which
    # keeps all sweep statistics on one runner.
    report = evaluate_claims(duration=spec.workload["duration"])
    ok = report.passed == report.total
    return ScenarioOutcome(
        spec=spec, result=report, ok=ok,
        reproducers=[] if ok else [spec],
    )


def _run_check(spec: ScenarioSpec,
               reproducer_dir: Optional[str]) -> ScenarioOutcome:
    from repro.check.runner import build_matrix_specs, run_check_matrix
    from repro.harness.sweep import get_runner

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
    cells = build_matrix_specs(
        systems=workload["systems"],
        layouts=workload["layouts"],
        seeds=workload["seeds"],
        **shape,
    )
    result = run_check_matrix(
        cells,
        runner=get_runner(),
        shrink=spec.oracle["shrink"],
        reproducer_dir=reproducer_dir,
    )
    reproducers = [
        upgrade_workload_spec(minimal.to_dict())
        for minimal in result.reproducers
    ]
    return ScenarioOutcome(
        spec=spec, result=result, ok=result.ok, reproducers=reproducers,
    )


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
    reproducers = []
    for cell in report.cells:
        if cell.ok:
            continue
        narrowed = dict(workload)
        narrowed["sustained"] = False
        if cell.phase == "matrix":
            narrowed.update(
                systems=[cell.system], blocks_kib=[cell.block_kib],
                queue_depths=[cell.queue_depth], patterns=[cell.pattern],
            )
            oracle = {**spec.oracle, "enabled": False}
        elif cell.phase == "sustained":
            narrowed.update(systems=[cell.system], blocks_kib=[],
                            sustained=True)
            oracle = {**spec.oracle, "enabled": False}
        else:  # oracle cells: the trio is profile-shaped, keep it whole
            narrowed["blocks_kib"] = []
            oracle = {**spec.oracle, "enabled": True}
        reproducers.append(spec.with_(
            name=f"failing qualify cell {cell.key}",
            workload=narrowed, oracle=oracle,
        ))
    return reproducers


def _run_sweep(spec: ScenarioSpec, runner) -> ScenarioOutcome:
    """Build the scenario's sweep from the spec, run it on ``runner``,
    and judge the result."""
    module, builder = _SWEEPS[spec.scenario]
    build = getattr(importlib.import_module(module), builder)
    result = runner.run(build(spec))
    workload = spec.workload
    ok, reproducers = True, []
    if spec.scenario == "chaos":
        ok = result.ok
        reproducers = [
            spec.with_(
                name=f"failing chaos trial {r.system}/seed{r.seed}",
                workload={**workload, "systems": [r.system], "trials": 1,
                          "base_seed": r.seed},
            )
            for r in result.failures
        ]
    elif spec.scenario == "qualify":
        ok = result.ok
        reproducers = _qualify_reproducers(spec, result)
    elif spec.scenario == "tenants" and workload["mode"] == "storm":
        # The acceptance criterion, both directions: QoS on holds the
        # gold SLO on every system, QoS off demonstrably violates it.
        ok = all(
            (row["within_slo"] == "yes") == (row["qos"] == "on")
            for row in result.rows
        )
        reproducers = [] if ok else [spec]
    return ScenarioOutcome(
        spec=spec, result=result, ok=ok, reproducers=reproducers,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    jobs: int = 1,
    cache=None,
    reproducer_dir: Optional[str] = None,
) -> ScenarioOutcome:
    """Build and run one spec; returns its :class:`ScenarioOutcome`.

    ``cache`` (a :class:`~repro.harness.cache.ResultCache`) memoizes at
    both the cell and the scenario level; a warm scenario-level hit
    skips building and running entirely and returns the stored outcome with
    ``cached=True``.  ``reproducer_dir`` is forwarded to the check
    matrix's shrink-and-dump pass.
    """
    from repro.harness.sweep import configured

    if cache is not None:
        hit, value = cache.get(spec.digest())
        if hit:
            value.cached = True
            return value

    with configured(jobs=jobs, cache=cache) as runner:
        if spec.scenario == "figure":
            outcome = _run_figure(spec)
        elif spec.scenario == "claims":
            outcome = _run_claims(spec)
        elif spec.scenario == "check":
            outcome = _run_check(spec, reproducer_dir)
        else:
            outcome = _run_sweep(spec, runner)
        outcome.stats = runner.stats

    if cache is not None:
        cache.put(spec.digest(), outcome)
    return outcome
