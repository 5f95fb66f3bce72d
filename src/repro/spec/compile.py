"""Spec compilers: ScenarioSpec → sweep cells → one run → one outcome.

:func:`run_scenario` is the single execution path behind ``repro run
<spec.json>`` and every CLI verb that runs a scenario: it dispatches a
validated :class:`ScenarioSpec` to the per-scenario compiler, which
rebuilds exactly the cell list the legacy
kwargs entry point would have built (so spec-driven runs are
bit-identical to kwargs-driven runs — proved by the differential tests
in ``tests/spec/``), runs it on a :class:`~repro.harness.sweep`
runner with the caller's ``jobs``/``cache``, and wraps the native result
in a :class:`ScenarioOutcome`.

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

import json
import os
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.spec.scenario import ScenarioSpec, upgrade_workload_spec

__all__ = ["ScenarioOutcome", "ChaosSuiteResult", "run_scenario"]


@dataclass
class ChaosSuiteResult:
    """A chaos suite's trials plus a render/verdict, mirroring the other
    planes' report objects (``repro run`` needs a uniform surface)."""

    results: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[Any]:
        return [r for r in self.results if not r.ok]

    def render(self) -> str:
        lines = [r.summary() for r in self.results]
        bad = len(self.failures)
        verdict = ("all robustness invariants hold" if not bad
                   else f"{bad} trial(s) FAILING")
        lines.append(f"{len(self.results)} trial(s): {verdict}")
        return "\n".join(lines)


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


def _nondefault(values: dict, defaults: dict) -> dict:
    """Only the entries differing from the callee's defaults: cells built
    from a spec then share cache digests with kwargs-form callers that
    leave those arguments unset."""
    return {k: v for k, v in values.items() if v != defaults[k]}


def _run_figure(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.figures import FIGURES

    fn, _description, _takes_duration = FIGURES[spec.workload["figure"]]
    options = spec.workload["options"] or {}
    return ScenarioOutcome(spec=spec, result=fn(**options))


def _run_claims(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.claims import evaluate_claims

    # jobs/cache left at None: the caller's ``configured`` runner (set up
    # by run_scenario) already carries them, and reusing it keeps all
    # sweep statistics on one runner.
    report = evaluate_claims(duration=spec.workload["duration"])
    ok = report.passed == report.total
    return ScenarioOutcome(
        spec=spec, result=report, ok=ok,
        reproducers=[] if ok else [spec],
    )


def _chaos_trial_kwargs(spec: ScenarioSpec) -> dict:
    workload = spec.workload
    return _nondefault(
        {
            "layout": spec.topology["layout"],
            "threads": workload["threads"],
            "groups_per_thread": workload["groups_per_thread"],
            "writes_per_group": workload["writes_per_group"],
            "depth": workload["depth"],
            "limit": workload["limit"],
        },
        {
            "layout": "optane", "threads": 4, "groups_per_thread": 12,
            "writes_per_group": 2, "depth": 4, "limit": 50e-3,
        },
    )


def _run_chaos(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.chaos import (
        chaos_suite_sweep,
        run_scale_chaos_trial,
    )
    from repro.harness.sweep import RunSpec, get_runner

    workload = spec.workload
    trial_kwargs = _chaos_trial_kwargs(spec)
    runner = get_runner()
    if spec.topology["initiators"] > 1:
        specs = [
            RunSpec.make(
                run_scale_chaos_trial,
                label=f"chaos/{system}/x{spec.topology['initiators']}"
                      f"/seed{workload['base_seed'] + i}",
                system=system,
                seed=workload["base_seed"] + i,
                initiators=spec.topology["initiators"],
                victim=workload["victim"],
                **trial_kwargs,
            )
            for system in workload["systems"]
            for i in range(workload["trials"])
        ]
        results = runner.map(specs)
    else:
        if spec.devices["prefill"] > 0:
            trial_kwargs["prefill"] = spec.devices["prefill"]
        if spec.faults is not None:
            trial_kwargs["plan_spec"] = spec.faults
        sweep = chaos_suite_sweep(
            systems=tuple(workload["systems"]),
            trials=workload["trials"],
            base_seed=workload["base_seed"],
            **trial_kwargs,
        )
        results = runner.map(sweep.specs)

    suite = ChaosSuiteResult(results=results)
    reproducers = [
        spec.with_(
            name=f"failing chaos trial {r.system}/seed{r.seed}",
            workload={**workload, "systems": [r.system], "trials": 1,
                      "base_seed": r.seed},
        )
        for r in suite.failures
    ]
    return ScenarioOutcome(
        spec=spec, result=suite, ok=suite.ok, reproducers=reproducers,
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


def _run_saturate(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.saturate import saturation_curves

    workload = spec.workload
    result = saturation_curves(
        systems=workload["systems"],
        loads_kiops=workload["loads_kiops"],
        layout=spec.topology["layout"],
        initiators=spec.topology["initiators"],
        tenants=workload["tenants"],
        duration=workload["duration"],
        steering=spec.topology["steering"],
        seed=workload["seed"],
    )
    return ScenarioOutcome(spec=spec, result=result)


def _run_overload(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.overload import (
        PROTECTIONS,
        gray_result,
        overload_curves,
    )

    workload = spec.workload
    if workload["mode"] == "gray":
        result = gray_result(
            duration=workload["duration"],
            seed=workload["seed"],
            offered_kiops=workload["offered_kiops"],
            degrade_factor=workload["degrade_factor"],
        )
        return ScenarioOutcome(spec=spec, result=result)
    protections = spec.policies["protections"]
    result = overload_curves(
        systems=workload["systems"],
        protections=(protections if protections is not None
                     else list(PROTECTIONS)),
        loads_kiops=workload["loads_kiops"],
        layout=spec.topology["layout"],
        initiators=spec.topology["initiators"],
        tenants=workload["tenants"],
        duration=workload["duration"],
        seed=workload["seed"],
    )
    return ScenarioOutcome(spec=spec, result=result)


def _run_tenants(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.tenants import noisy_neighbor_result, tenant_curves

    workload = spec.workload
    if workload["mode"] == "storm":
        result = noisy_neighbor_result(
            systems=workload["systems"],
            **_nondefault(
                {
                    "quantum": workload["quantum"],
                    "duration": workload["duration"],
                    "seed": workload["seed"],
                },
                {"quantum": 8.0, "duration": 3e-3, "seed": 42},
            ),
        )
        # The acceptance criterion, both directions: QoS on holds the
        # gold SLO on every system, QoS off demonstrably violates it.
        ok = all(
            (row["within_slo"] == "yes") == (row["qos"] == "on")
            for row in result.rows
        )
        return ScenarioOutcome(
            spec=spec, result=result, ok=ok,
            reproducers=[] if ok else [spec],
        )
    result = tenant_curves(
        systems=workload["systems"],
        loads_kiops=workload["loads_kiops"],
        layout=spec.topology["layout"],
        initiators=spec.topology["initiators"],
        streams=workload["streams"],
        num_tenants=workload["num_tenants"],
        zipf_alpha=workload["zipf_alpha"],
        diurnal_amplitude=workload["diurnal_amplitude"],
        diurnal_period=workload["diurnal_period"],
        qos=workload["qos"],
        quantum=workload["quantum"],
        duration=workload["duration"],
        steering=spec.topology["steering"],
        seed=workload["seed"],
    )
    return ScenarioOutcome(spec=spec, result=result)


def _run_qualify(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.harness.qualify import qualify_report

    workload = spec.workload
    report = qualify_report(
        profile=workload["profile"],
        systems=workload["systems"],
        blocks_kib=workload["blocks_kib"],
        queue_depths=workload["queue_depths"],
        patterns=workload["patterns"],
        layout=spec.topology["layout"],
        duration=workload["duration"],
        seed=workload["seed"],
        floors_override=spec.policies["floors"],
        oracle=spec.oracle["enabled"],
        sustained=workload["sustained"],
    )
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
    return ScenarioOutcome(
        spec=spec, result=report, ok=report.ok, reproducers=reproducers,
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
    """Compile and run one spec; returns its :class:`ScenarioOutcome`.

    ``cache`` (a :class:`~repro.harness.cache.ResultCache`) memoizes at
    both the cell and the scenario level; a warm scenario-level hit
    skips compilation entirely and returns the stored outcome with
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
        elif spec.scenario == "chaos":
            outcome = _run_chaos(spec)
        elif spec.scenario == "check":
            outcome = _run_check(spec, reproducer_dir)
        elif spec.scenario == "saturate":
            outcome = _run_saturate(spec)
        elif spec.scenario == "overload":
            outcome = _run_overload(spec)
        elif spec.scenario == "qualify":
            outcome = _run_qualify(spec)
        elif spec.scenario == "tenants":
            outcome = _run_tenants(spec)
        else:  # pragma: no cover - from_dict already rejects these
            raise ValueError(f"unknown scenario {spec.scenario!r}")
        outcome.stats = runner.stats

    if cache is not None:
        cache.put(spec.digest(), outcome)
    return outcome
