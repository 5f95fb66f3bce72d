"""run_scenario: figure, chaos and check specs render bit-identically to
their direct entry points; claims wiring; both cache layers; and the
reproducers of failing scenarios."""

import pytest

from repro.harness.cache import ResultCache
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

    class FakeReport:
        passed, total = 16, 17

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
    outcome = ScenarioOutcome(spec=spec, result=None, ok=False,
                              reproducers=[spec])
    (path,) = outcome.dump_reproducers(tmp_path)
    assert load_spec_file(path) == spec
    assert spec.digest()[:12] in path


def test_failing_chaos_trial_yields_a_narrowed_spec():
    """Force one trial to fail and check the reproducer pins its seed."""
    from repro.spec.compile import _run_sweep

    class FakeTrial:
        def __init__(self, system, seed, ok):
            self.system, self.seed, self.ok = system, seed, ok

        def summary(self):
            return f"{self.system}/seed{self.seed}: {'ok' if self.ok else 'FAIL'}"

    class FakeRunner:
        """Reduces the real chaos sweep over canned trial results."""

        def run(self, sweep):
            assert len(sweep.specs) == 2
            return sweep.reduce([FakeTrial("rio", 1000, True),
                                 FakeTrial("rio", 1001, False)])

    spec = ScenarioSpec.from_dict(
        {"scenario": "chaos", "workload": {"systems": ["rio"], "trials": 2}}
    )
    outcome = _run_sweep(spec, FakeRunner())
    assert not outcome.ok
    (repro_spec,) = outcome.reproducers
    assert repro_spec.workload["systems"] == ["rio"]
    assert repro_spec.workload["trials"] == 1
    assert repro_spec.workload["base_seed"] == 1001
    # The reproducer is itself a valid, canonical spec.
    assert ScenarioSpec.from_json(repro_spec.canonical_json()) == repro_spec
