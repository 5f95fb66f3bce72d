"""run_scenario: figure, chaos and check specs render bit-identically to
their direct entry points; claims wiring; both cache layers; and the
reproducers of failing scenarios."""

import pytest

from repro.harness.cache import ResultCache
from repro.harness.report import Report, Verdict
from repro.spec import ScenarioSpec, run_scenario


def test_figure_spec_matches_kwargs():
    from repro.cli import FIGURES

    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "figure",
         "workload": {"figure": "fig3", "options": {"duration": 1e-3}}}
    ))
    legacy = FIGURES["fig3"][0](duration=1e-3)
    assert outcome.ok
    assert outcome.render() == legacy.render()


def test_chaos_spec_matches_kwargs():
    from repro.harness.chaos import run_chaos_suite

    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "chaos",
         "workload": {"systems": ["linux"], "trials": 2, "base_seed": 5,
                      "threads": 2, "groups_per_thread": 4}}
    ))
    legacy = run_chaos_suite(systems=("linux",), trials=2, base_seed=5,
                             threads=2, groups_per_thread=4)
    assert [r.summary() for r in outcome.result.results] == \
        [r.summary() for r in legacy]
    assert outcome.ok


def test_faulted_chaos_spec_matches_kwargs():
    from repro.harness.chaos import run_chaos_trial
    from repro.sim.faults import FaultPlan

    plan = FaultPlan(seed=7, delay_probability=0.02)
    plan.target_stall(at=1e-4, target_index=0, duration=5e-5)
    spec = ScenarioSpec.from_dict(
        {"scenario": "chaos",
         "workload": {"systems": ["linux"], "trials": 1, "threads": 2,
                      "groups_per_thread": 4},
         "faults": plan.to_dict()}
    )
    (trial,) = run_scenario(spec).result.results
    legacy = run_chaos_trial(system="linux", seed=1000, threads=2,
                             groups_per_thread=4, plan_spec=spec.faults)
    assert trial.summary() == legacy.summary()


def test_check_spec_matches_kwargs():
    from repro.check.runner import build_matrix_specs, run_check_matrix

    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "check",
         "workload": {"systems": ["linux"], "layouts": ["optane"],
                      "seeds": [0], "streams": 1, "groups_per_stream": 2,
                      "writes_per_group": 1, "depth": 1},
         "oracle": {"max_points": 6}}
    ))
    legacy = run_check_matrix(build_matrix_specs(
        systems=["linux"], layouts=["optane"], seeds=[0], streams=1,
        groups_per_stream=2, writes_per_group=1, depth=1, flush_every=2,
        max_points=6,
    ))
    assert outcome.render() == legacy.render()
    assert outcome.ok


def test_claims_spec_drives_the_scorecard(monkeypatch):
    """The claims compiler forwards the spec duration to the scorecard
    and maps a partial score to a failing outcome carrying the spec
    itself as its reproducer (the scorecard is too slow to run for real
    here; the wiring is what's under test)."""

    class FakeReport(Report):
        verdicts = [Verdict("claims held", ">=", 17, 16)]

        def render(self):
            return "16/17"

    seen = {}

    def fake_evaluate(duration):
        seen["duration"] = duration
        return FakeReport()

    monkeypatch.setattr("repro.harness.claims.evaluate_claims",
                        fake_evaluate)
    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "claims", "workload": {"duration": 1e-3}}))
    assert seen["duration"] == 1e-3
    assert not outcome.ok
    assert outcome.render() == "16/17"
    assert outcome.reproducers == [outcome.spec]


# ----------------------------------------------------------------------
# Every gate grades through Verdict: outcome.ok is the verdicts' verdict
# ----------------------------------------------------------------------


def _qualify_cell(breach):
    return {"kiops": 0.0 if breach else 35.0, "mbps": 143.4,
            "p999_us": 29.0, "samples": 27.0}


def _chaos_trial(breach):
    from repro.harness.chaos import ChaosResult

    trial = ChaosResult(system="rio", seed=1000, threads=1,
                        groups_per_thread=1, completed_groups=1)
    if breach:
        trial.duplicate_applies.append((0, 1, 0))
    return trial


def _check_cell(breach):
    failures = [{"crash_time": 1e-4, "violations": [
        {"kind": "order_hole", "stream": 0, "group": 1}]}] if breach else []
    return {"ok": not failures, "crash_points": 4, "groups_completed": 4,
            "failures": failures}


def _storm_cells(breach):
    on = {"gold_count": 51.0, "gold_p999_us": 3162.28 if breach else 100.0,
          "gold_slo_p999_us": 2000.0, "gold_complete_ratio": 0.85,
          "bronze_p999_us": 177.83, "sheds": 9.0, "shed_pace": 9.0,
          "shed_wfq": 0.0}
    off = dict(on, gold_count=0.0, gold_p999_us=0.0, gold_complete_ratio=0.0,
               sheds=0.0, shed_pace=0.0)
    return [on, off]


#: gate -> (spec document, canned sweep-cell results given ``breach``).
GATES = {
    "qualify": ({"scenario": "qualify",
                 "workload": {"systems": ["rio"], "blocks_kib": [4],
                              "queue_depths": [1], "sustained": False},
                 "oracle": {"enabled": False}},
                lambda breach: [_qualify_cell(breach)]),
    "chaos": ({"scenario": "chaos",
               "workload": {"systems": ["rio"], "trials": 1}},
              lambda breach: [_chaos_trial(breach)]),
    "check": ({"scenario": "check",
               "workload": {"systems": ["linux"], "layouts": ["optane"],
                            "seeds": [0]},
               "oracle": {"shrink": False}},
              lambda breach: [_check_cell(breach)]),
    "storm": ({"scenario": "tenants",
               "workload": {"mode": "storm", "systems": ["rio"]}},
              _storm_cells),
    "claims": ({"scenario": "claims"}, None),
}


@pytest.mark.parametrize("breach", [False, True])
@pytest.mark.parametrize("gate", sorted(GATES))
def test_every_gate_grades_through_verdicts(monkeypatch, gate, breach):
    """Each gate's result carries verdicts; an injected breach fails the
    outcome, and ``outcome.ok`` is exactly the verdicts' conjunction."""
    from repro.harness.claims import Claim, ClaimReport
    from repro.harness.sweep import SweepRunner

    doc, cells = GATES[gate]
    if cells is None:
        report = ClaimReport(claims=[Claim("§6.2", "rio above linux", [
            Verdict("flash 1t rio/linux kiops", ">", 50,
                    3.0 if breach else 203.0)])])
        monkeypatch.setattr("repro.harness.claims.evaluate_claims",
                            lambda duration: report)
    else:
        monkeypatch.setattr(SweepRunner, "map",
                            lambda self, specs: cells(breach))
    outcome = run_scenario(ScenarioSpec.from_dict(doc))
    verdicts = outcome.result.verdicts
    assert verdicts
    assert outcome.ok == all(v.ok for v in verdicts)
    assert outcome.ok is not breach
    assert bool(outcome.reproducers) is breach
    text = outcome.render()
    assert ("FAIL" in text) is breach
    for verdict in verdicts:
        if not verdict.ok:
            assert str(verdict) in text
    assert outcome.result.render_markdown()


# ----------------------------------------------------------------------
# Caching: cell level + scenario level
# ----------------------------------------------------------------------


def _tiny_saturate_spec():
    return ScenarioSpec.from_dict(
        {"scenario": "saturate",
         "workload": {"systems": ["rio"], "loads_kiops": [50],
                      "duration": 5e-4}}
    )


def test_scenario_level_cache_returns_identical_outcome(tmp_path):
    cache = ResultCache(root=tmp_path)
    cold = run_scenario(_tiny_saturate_spec(), cache=cache)
    warm = run_scenario(_tiny_saturate_spec(), cache=cache)
    assert not cold.cached
    assert warm.cached
    assert warm.render() == cold.render()


def test_cell_cache_is_shared_across_scenarios(tmp_path):
    """A degenerate tenant mix is the saturation sweep cell for cell: a
    saturate run warms every cell the tenants spec needs (different
    scenario-level key, same cell keys)."""
    cache = ResultCache(root=tmp_path)
    cold = run_scenario(_tiny_saturate_spec(), cache=cache)
    assert cold.stats.executed > 0
    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "tenants",
         "workload": {"systems": ["rio"], "loads_kiops": [50],
                      "duration": 5e-4, "zipf_alpha": None}}
    ), cache=cache)
    assert outcome.stats.executed == 0
    assert outcome.stats.cache_hits > 0
    assert outcome.render() == cold.render()


def test_stats_are_attached_to_the_outcome():
    outcome = run_scenario(_tiny_saturate_spec())
    assert outcome.stats is not None
    assert outcome.stats.executed >= 1


# ----------------------------------------------------------------------
# Reproducers
# ----------------------------------------------------------------------


def test_dump_reproducers_writes_loadable_specs(tmp_path):
    from repro.spec import ScenarioOutcome, load_spec_file

    spec = _tiny_saturate_spec()
    outcome = ScenarioOutcome(spec=spec, result=None, reproducers=[spec])
    (path,) = outcome.dump_reproducers(tmp_path)
    assert load_spec_file(path) == spec
    assert spec.digest()[:12] in path


def test_failing_chaos_trial_yields_a_narrowed_spec():
    """Force one trial to fail and check the reproducer pins its seed."""
    from repro.spec.compile import _reproducers, _run_sweep

    class FakeTrial:
        def __init__(self, system, seed, ok):
            self.system, self.seed = system, seed
            self.verdicts = [Verdict("errors", "<=", 0, 0 if ok else 1)]

        def summary(self):
            return f"{self.system}/seed{self.seed}"

    class FakeRunner:
        """Reduces the real chaos sweep over canned trial results."""

        def run(self, sweep):
            assert len(sweep.specs) == 2
            return sweep.reduce([FakeTrial("rio", 1000, True),
                                 FakeTrial("rio", 1001, False)])

    spec = ScenarioSpec.from_dict(
        {"scenario": "chaos", "workload": {"systems": ["rio"], "trials": 2}}
    )
    result = _run_sweep(spec, FakeRunner())
    assert not result.ok
    (repro_spec,) = _reproducers(spec, result)
    assert repro_spec.workload["systems"] == ["rio"]
    assert repro_spec.workload["trials"] == 1
    assert repro_spec.workload["base_seed"] == 1001
    # The reproducer is itself a valid, canonical spec.
    assert ScenarioSpec.from_json(repro_spec.canonical_json()) == repro_spec


def test_failing_qualify_cell_reproducer_keeps_only_its_floors():
    """A reproducer narrowed to one cell must drop the floor overrides of
    the cells it no longer runs, or replaying it is a spec error."""
    from repro.harness.qualify import qualify_sweep
    from repro.spec.compile import _reproducers, _run_sweep

    metrics = {"kiops": 20.0, "mbps": 80.0, "p999_us": 30.0,
               "samples": 20.0}

    class FakeRunner:
        def run(self, sweep):
            return sweep.reduce([metrics for _ in sweep.specs])

    spec = ScenarioSpec.from_dict({
        "scenario": "qualify",
        "workload": {"systems": ["rio"], "blocks_kib": [4, 64],
                     "queue_depths": [1], "sustained": False},
        "policies": {"floors": {"matrix/rio/4K/qd1": {"min_kiops": 1e9},
                                "matrix/rio/64K/qd1": {"min_kiops": 1.0}}},
        "oracle": {"enabled": False},
    })
    result = _run_sweep(spec, FakeRunner())
    (repro_spec,) = _reproducers(spec, result)
    assert repro_spec.policies["floors"] == {
        "matrix/rio/4K/qd1": {"min_kiops": 1e9}}
    # It replays: its one cell still fails the kept floor.
    assert not _run_sweep(repro_spec, FakeRunner()).ok
    assert len(qualify_sweep(repro_spec).specs) == 1
