"""Differential tests: a compiled ScenarioSpec must render bit-identically
to the legacy kwargs entry point it replaces, for every verb."""

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


def test_saturate_spec_matches_kwargs():
    from repro.harness.saturate import saturation_curves

    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "saturate",
         "workload": {"systems": ["rio"], "loads_kiops": [100],
                      "duration": 1e-3}}
    ))
    legacy = saturation_curves(systems=("rio",), loads_kiops=(100,),
                               duration=1e-3)
    assert outcome.render() == legacy.render()


def test_overload_metastable_spec_matches_kwargs():
    from repro.harness.overload import overload_curves

    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "overload",
         "workload": {"mode": "metastable", "duration": 1e-3,
                      "loads_kiops": [200], "systems": ["rio"]},
         "policies": {"protections": ["off"]}}
    ))
    legacy = overload_curves(systems=("rio",), protections=("off",),
                             loads_kiops=(200,), duration=1e-3)
    assert outcome.render() == legacy.render()


def test_overload_gray_spec_matches_kwargs():
    from repro.harness.overload import gray_result

    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "overload",
         "workload": {"mode": "gray", "duration": 2e-3,
                      "offered_kiops": 60}}
    ))
    legacy = gray_result(duration=2e-3, offered_kiops=60)
    assert outcome.render() == legacy.render()


def test_qualify_cell_spec_matches_kwargs():
    from repro.harness.qualify import qualify_report

    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "qualify",
         "workload": {"profile": "smoke", "systems": ["rio"],
                      "blocks_kib": [4], "queue_depths": [1],
                      "patterns": ["seq"], "sustained": False},
         "oracle": {"enabled": False}}
    ))
    legacy = qualify_report(profile="smoke", systems=("rio",),
                            blocks_kib=(4,), queue_depths=(1,),
                            patterns=("seq",), sustained=False,
                            oracle=False)
    assert outcome.render() == legacy.render()


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


def test_cell_cache_is_shared_with_the_kwargs_entry_point(tmp_path):
    """A spec-compiled cell and the same kwargs-form cell share one
    digest, so either path warms the other."""
    from repro.harness.saturate import saturation_curves
    from repro.harness.sweep import configured

    cache = ResultCache(root=tmp_path)
    with configured(cache=cache) as runner:
        saturation_curves(systems=("rio",), loads_kiops=(50,),
                          duration=5e-4)
        assert runner.stats.executed > 0
    # The spec path reuses the kwargs path's cells (different
    # scenario-level key, same cell keys).
    outcome = run_scenario(_tiny_saturate_spec(), cache=cache)
    assert outcome.stats.executed == 0
    assert outcome.stats.cache_hits > 0


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


def test_failing_chaos_trial_yields_a_narrowed_spec(monkeypatch):
    """Force one trial to fail and check the reproducer pins its seed."""
    import repro.spec.compile as compile_mod

    class FakeTrial:
        def __init__(self, system, seed, ok):
            self.system, self.seed, self.ok = system, seed, ok

        def summary(self):
            return f"{self.system}/seed{self.seed}: {'ok' if self.ok else 'FAIL'}"

    class FakeRunner:
        stats = None

        def map(self, specs):
            return [FakeTrial("rio", 1000, True),
                    FakeTrial("rio", 1001, False)]

    monkeypatch.setattr("repro.harness.sweep.get_runner",
                        lambda: FakeRunner())
    spec = ScenarioSpec.from_dict(
        {"scenario": "chaos", "workload": {"systems": ["rio"], "trials": 2}}
    )
    outcome = compile_mod._run_chaos(spec)
    assert not outcome.ok
    (repro_spec,) = outcome.reproducers
    assert repro_spec.workload["systems"] == ["rio"]
    assert repro_spec.workload["trials"] == 1
    assert repro_spec.workload["base_seed"] == 1001
    # The reproducer is itself a valid, canonical spec.
    assert ScenarioSpec.from_json(repro_spec.canonical_json()) == repro_spec


def test_tenants_curves_spec_matches_kwargs():
    from repro.harness.tenants import tenant_curves

    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "tenants",
         "workload": {"systems": ["rio"], "loads_kiops": [50],
                      "streams": 2, "num_tenants": 8, "duration": 1e-3,
                      "seed": 7},
         "topology": {"initiators": 1}}
    ))
    legacy = tenant_curves(systems=("rio",), loads_kiops=(50,), streams=2,
                           num_tenants=8, duration=1e-3, seed=7,
                           initiators=1)
    assert outcome.render() == legacy.render()


def test_tenants_storm_cells_are_shared_with_the_kwargs_entry_point(
    tmp_path,
):
    """The storm spec compiles to the very same content-addressed cells
    as `noisy_neighbor_result()` called with kwargs (defaults trimmed,
    the PR 9 idiom): a warm cache from one satisfies the other with
    zero executions."""
    from repro.harness import sweep as sweep_mod
    from repro.harness.cache import ResultCache
    from repro.harness.tenants import noisy_neighbor_result

    cache = ResultCache(root=tmp_path, version="test")
    with sweep_mod.configured(jobs=1, cache=cache):
        kwargs_result = noisy_neighbor_result(systems=("rio",))
    assert cache.hits == 0

    warm = ResultCache(root=tmp_path, version="test")
    outcome = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "tenants",
         "workload": {"mode": "storm", "systems": ["rio"]}}
    ), cache=warm)
    assert warm.hits >= len(kwargs_result.rows)
    assert outcome.result.rows == kwargs_result.rows
