"""The sweep runner: spec hashing, ordering, parallel bit-identity.

The load-bearing guarantee is that ``repro sweep --jobs N`` is *exactly*
``repro run``: same rows, same floats, bit for bit.  That holds because
every cell is an independent deterministic simulation and the reduce step
consumes results in spec order — both asserted here against the real
figure sweeps, not mocks.
"""

import pytest

from repro.harness import figures
from repro.harness.cache import ResultCache
from repro.harness.chaos import chaos_sweep, run_chaos_suite
from repro.harness.sweep import (
    RunSpec,
    Sweep,
    SweepRunner,
    configured,
    run_sweep,
)
from repro.spec import ScenarioSpec

# A small but real figure sweep: 2 systems x 2 thread counts on flash.
SMALL_FIG10 = dict(panel="a", threads=(1, 2), duration=3e-4,
                   systems=("rio", "orderless"))


def double(x):
    """Top-level cell used by the ordering/caching unit tests."""
    return {"x": x, "doubled": 2 * x}


# ----------------------------------------------------------------------
# RunSpec identity
# ----------------------------------------------------------------------


def test_digest_is_stable_across_kwarg_order():
    a = RunSpec.make(double, x=3)
    b = RunSpec.make("tests.harness.test_sweep:double", x=3)
    assert a.digest() == b.digest()
    spec1 = RunSpec.make(figures.probe_fio, system="rio", layout="flash",
                         threads=1, duration=1e-4)
    spec2 = RunSpec.make(figures.probe_fio, duration=1e-4, threads=1,
                         layout="flash", system="rio")
    assert spec1.digest() == spec2.digest()


def test_digest_distinguishes_kwargs_and_fn():
    base = RunSpec.make(double, x=3)
    assert base.digest() != RunSpec.make(double, x=4).digest()
    assert base.digest() != RunSpec.make(
        "tests.harness.test_sweep:other", x=3).digest()


def test_tuple_and_list_kwargs_are_the_same_cell():
    a = RunSpec.make(double, x=(1, 2, 3))
    b = RunSpec.make(double, x=[1, 2, 3])
    assert a.digest() == b.digest()


def test_label_does_not_affect_identity():
    assert (RunSpec.make(double, label="a", x=1).digest()
            == RunSpec.make(double, label="b", x=1).digest())


def test_unencodable_kwargs_are_rejected_at_build_time():
    with pytest.raises(TypeError):
        RunSpec.make(double, x=object())
    with pytest.raises(TypeError):
        RunSpec.make(double, x=ResultCache)  # a class is not data


def test_lambdas_and_methods_are_rejected():
    with pytest.raises(TypeError):
        RunSpec.make(lambda x: x, x=1)


def test_spec_executes_by_reimport():
    spec = RunSpec.make(double, x=21)
    assert spec.execute() == {"x": 21, "doubled": 42}


# ----------------------------------------------------------------------
# Runner semantics
# ----------------------------------------------------------------------


def test_map_preserves_spec_order_not_completion_order():
    specs = [RunSpec.make(double, x=i) for i in (5, 1, 9, 3)]
    results = SweepRunner(jobs=2).map(specs)
    assert [r["x"] for r in results] == [5, 1, 9, 3]


def test_reduce_sees_results_in_spec_order():
    sweep = Sweep(
        name="t",
        specs=[RunSpec.make(double, x=i) for i in range(4)],
        reduce=lambda results: [r["doubled"] for r in results],
    )
    assert SweepRunner(jobs=1).run(sweep) == [0, 2, 4, 6]
    assert SweepRunner(jobs=3).run(sweep) == [0, 2, 4, 6]


def test_configured_swaps_and_restores_default_runner():
    from repro.harness import sweep as sweep_mod

    before = sweep_mod.get_runner()
    with configured(jobs=2) as runner:
        assert sweep_mod.get_runner() is runner
        assert runner.jobs == 2
    assert sweep_mod.get_runner() is before


# ----------------------------------------------------------------------
# Bit-identity: serial vs parallel, wrapper vs sweep
# ----------------------------------------------------------------------


def test_parallel_figure_is_bit_identical_to_serial():
    sweep_builder = figures.fig10_block_device_sweep
    serial = SweepRunner(jobs=1).run(sweep_builder(**SMALL_FIG10))
    parallel = SweepRunner(jobs=2).run(sweep_builder(**SMALL_FIG10))
    assert serial.headers == parallel.headers
    assert serial.rows == parallel.rows  # == on floats: bit-identical
    assert serial.render() == parallel.render()


def test_entry_point_matches_explicit_sweep_under_parallel_runner():
    serial = figures.fig10_block_device(**SMALL_FIG10)
    with configured(jobs=2):
        parallel = figures.fig10_block_device(**SMALL_FIG10)
    assert serial.rows == parallel.rows


def _chaos_spec(**workload):
    return ScenarioSpec.from_dict({"scenario": "chaos", "workload": workload})


def test_parallel_chaos_suite_matches_inline(tmp_path):
    inline = run_chaos_suite(systems=("rio",), trials=2, base_seed=77,
                             groups_per_thread=4)
    fanned = SweepRunner(jobs=2).run(chaos_sweep(_chaos_spec(
        systems=["rio"], trials=2, base_seed=77, groups_per_thread=4,
    ))).results
    assert [r.summary() for r in inline] == [r.summary() for r in fanned]
    assert [r.completion_log for r in inline] == [
        r.completion_log for r in fanned
    ]


def test_chaos_sweep_specs_are_per_trial():
    sweep = chaos_sweep(_chaos_spec(systems=["rio", "linux"], trials=3))
    assert len(sweep.specs) == 6
    assert len({spec.digest() for spec in sweep.specs}) == 6


def test_chaos_sweep_runs_scale_trials_across_initiators():
    spec = ScenarioSpec.from_dict({
        "scenario": "chaos", "topology": {"initiators": 2},
        "workload": {"systems": ["rio"], "trials": 2, "victim": 1},
    })
    cells = chaos_sweep(spec).specs
    assert [c.label for c in cells] == ["chaos/rio/x2/seed1000",
                                        "chaos/rio/x2/seed1001"]
    assert all(c.fn == "repro.harness.chaos:run_scale_chaos_trial"
               for c in cells)
    assert dict(cells[0].kwargs)["victim"] == 1


# ----------------------------------------------------------------------
# Bit-identity: saturation cells (scale-out plane)
# ----------------------------------------------------------------------

# A small but real saturation sweep: 2 systems x 2 offered loads over a
# 2-initiator sharded cluster, trimmed to smoke duration.
SMALL_SATURATE = {
    "scenario": "saturate",
    "workload": {"systems": ["rio", "linux"], "loads_kiops": [50, 200],
                 "duration": 5e-4, "tenants": 2},
}


def _saturation(**topology):
    from repro.harness.saturate import saturation_sweep

    return saturation_sweep(ScenarioSpec.from_dict(
        dict(SMALL_SATURATE, topology=topology)))


def test_parallel_saturation_is_bit_identical_to_serial():
    serial = SweepRunner(jobs=1).run(_saturation())
    parallel = SweepRunner(jobs=2).run(_saturation())
    assert serial.headers == parallel.headers
    assert serial.rows == parallel.rows  # == on floats: bit-identical
    assert serial.notes == parallel.notes
    assert serial.render() == parallel.render()


def test_warm_cache_saturation_rerun_executes_nothing(tmp_path):
    cold = SweepRunner(jobs=2, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    first = cold.run(_saturation())
    assert cold.stats.executed == 4 and cold.stats.cache_hits == 0

    warm = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    second = warm.run(_saturation())
    assert warm.stats.executed == 0, "warm rerun must skip every cell"
    assert warm.stats.cache_hits == 4
    assert first.rows == second.rows
    assert first.render() == second.render()


def test_saturation_specs_are_per_cell_and_steering_aware():
    base = _saturation()
    assert len(base.specs) == 4
    assert len({spec.digest() for spec in base.specs}) == 4
    steered = _saturation(steering="flow-hash")
    assert not ({s.digest() for s in base.specs}
                & {s.digest() for s in steered.specs})


# ----------------------------------------------------------------------
# Bit-identity: qualification cells
# ----------------------------------------------------------------------

# A small but real qualification matrix: 2 systems x 2 block sizes plus
# the rio sustained (GC + eviction pressure) pass; oracle cells are
# covered by tests/harness/test_qualify.py.
SMALL_QUALIFY = {
    "scenario": "qualify",
    "workload": {"profile": "smoke", "systems": ["rio", "linux"],
                 "blocks_kib": [4, 64], "queue_depths": [1],
                 "patterns": ["seq"]},
    "oracle": {"enabled": False},
}


def _qualification(floors=None):
    from repro.harness.qualify import qualify_sweep

    return qualify_sweep(ScenarioSpec.from_dict(
        dict(SMALL_QUALIFY, policies={"floors": floors})))


def test_parallel_qualify_is_bit_identical_to_serial():
    serial = SweepRunner(jobs=1).run(_qualification())
    parallel = SweepRunner(jobs=2).run(_qualification())
    assert serial.to_json() == parallel.to_json()  # bit-identical cells
    assert serial.digest() == parallel.digest()
    assert serial.render() == parallel.render()


def test_warm_cache_qualify_rerun_executes_nothing(tmp_path):
    cold = SweepRunner(jobs=2, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    first = cold.run(_qualification())
    assert cold.stats.executed == 6 and cold.stats.cache_hits == 0

    warm = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    second = warm.run(_qualification())
    assert warm.stats.executed == 0, "warm rerun must skip every cell"
    assert warm.stats.cache_hits == 6
    assert first.to_json() == second.to_json()
    assert first.digest() == second.digest()


def test_qualify_specs_are_per_cell_and_floors_do_not_change_identity():
    base = _qualification()
    assert len(base.specs) == 6
    assert len({spec.digest() for spec in base.specs}) == 6
    # Floors live in the reduce: overriding them must not invalidate the
    # cached cells (same spec digests).
    floored = _qualification(
        floors={"matrix/rio/4K/qd1/seq": {"min_kiops": 1e9}})
    assert ({s.digest() for s in base.specs}
            == {s.digest() for s in floored.specs})


# ----------------------------------------------------------------------
# Cache integration through the runner
# ----------------------------------------------------------------------


def test_warm_cache_rerun_skips_all_completed_specs(tmp_path):
    builder = figures.fig03_merging_cpu_sweep
    cache = ResultCache(root=tmp_path, version="test")
    cold = SweepRunner(jobs=1, cache=cache)
    first = cold.run(builder(batches=(1, 4), duration=3e-4))
    assert cold.stats.executed == 2 and cold.stats.cache_hits == 0

    warm = SweepRunner(jobs=2, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    second = warm.run(builder(batches=(1, 4), duration=3e-4))
    assert warm.stats.executed == 0, "warm rerun must skip completed specs"
    assert warm.stats.cache_hits == 2
    assert first.rows == second.rows


def test_changed_spec_only_recomputes_the_changed_cell(tmp_path):
    cache = ResultCache(root=tmp_path, version="test")
    runner = SweepRunner(jobs=1, cache=cache)
    runner.map([RunSpec.make(double, x=1), RunSpec.make(double, x=2)])
    runner.map([RunSpec.make(double, x=1), RunSpec.make(double, x=3)])
    assert runner.stats.cache_hits == 1
    assert runner.stats.executed == 3  # 2 cold + 1 new cell


def test_run_sweep_uses_default_runner_cache(tmp_path):
    cache = ResultCache(root=tmp_path, version="test")
    sweep = Sweep(name="t", specs=[RunSpec.make(double, x=7)])
    with configured(jobs=1, cache=cache):
        assert run_sweep(sweep)[0]["doubled"] == 14
        assert run_sweep(sweep)[0]["doubled"] == 14
    assert cache.hits == 1


def other(x):
    """Second top-level cell so fn identity is testable."""
    return x
