"""`repro tenants`: storm acceptance, sweep bit-identity, cache reuse,
the degenerate reduction to `probe_saturation`, weighted loadgen rates,
and the seeded golden.

The golden pins a small seeded tenant sweep (2 systems x 2 loads with
Zipf skew, diurnal breathing and QoS armed) down to the JSON report:
any drift in the tenant directory, the traffic plane, the QoS admission
or the report encoding shows up as a readable row diff.  Bless
intentional changes with::

    PYTHONPATH=src python -m pytest tests/harness/test_tenants.py \\
        --regen-goldens
"""

import json
import pathlib

import pytest

from repro.harness.cache import ResultCache
from repro.harness.saturate import saturation_sweep
from repro.harness.tenants import (
    probe_noisy_neighbor,
    probe_tenants,
    tenants_report,
    tenants_sweep,
)
from repro.harness.sweep import SweepRunner
from repro.spec import ScenarioSpec

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "goldens" / "tenants_smoke.json")

#: The golden sweep: small, seeded, every tenant-plane feature armed
#: (Zipf skew, diurnal breathing, QoS admission) so drift anywhere in
#: the plane moves a row.
GOLDEN = {
    "scenario": "tenants",
    "topology": {"initiators": 1},
    "workload": {
        "systems": ["rio", "linux"],
        "loads_kiops": [50, 100],
        "streams": 2,
        "num_tenants": 24,
        "zipf_alpha": 1.1,
        "diurnal_amplitude": 0.25,
        "diurnal_period": 5e-4,
        "qos": True,
        "duration": 1e-3,
        "seed": 7,
    },
}

#: A fast non-degenerate grid for the identity/cache tests.
SMALL = dict(systems=["rio"], loads_kiops=[50])

#: The storm's acceptance trio (the spec's default systems).
STORM = ScenarioSpec.from_dict({"scenario": "tenants",
                                "workload": {"mode": "storm"}})
SYSTEMS = STORM.workload["systems"]


def _spec(doc, **workload):
    """``doc`` with ``workload`` fields replaced, as a spec."""
    return ScenarioSpec.from_dict(
        dict(doc, workload={**doc["workload"], **workload}))


@pytest.fixture(scope="module")
def storm():
    """The acceptance matrix: 3 systems x QoS on/off, one seed."""
    return SweepRunner(jobs=1).run(tenants_sweep(STORM))


# ----------------------------------------------------------------------
# The storm (acceptance scenario) — both directions, all systems
# ----------------------------------------------------------------------


def _storm_row(storm, system, qos):
    rows = [r for r in storm.rows
            if r["system"] == system and r["qos"] == qos]
    assert rows, (system, qos)
    return rows[0]


def test_storm_covers_the_acceptance_matrix(storm):
    assert len(storm.rows) == 2 * len(SYSTEMS)
    assert {r["system"] for r in storm.rows} == set(SYSTEMS)


@pytest.mark.parametrize("system", SYSTEMS)
def test_qos_holds_the_gold_slo_under_the_storm(storm, system):
    """Direction one: with QoS on, the aggressor is paced/shed at the
    target's door and the quiet gold tenant's p999 stays within SLO."""
    row = _storm_row(storm, system, "on")
    assert row["within_slo"] == "yes", row
    assert 0.0 < row["gold_p999_us"] <= row["gold_slo_p999_us"], row
    assert row["gold_done"] >= 0.5, row
    # The protection actually engaged: the aggressor was shed.
    assert row["sheds"] > 0, row
    assert row["shed_pace"] > 0, row


@pytest.mark.parametrize("system", SYSTEMS)
def test_same_seed_without_qos_violates_the_slo(storm, system):
    """Direction two: the very same seeded storm through an unprotected
    target demonstrably violates the gold SLO (here: starvation — the
    aggressor's large writes monopolize the serialized media pipe and
    the gold ops never complete inside the window)."""
    row = _storm_row(storm, system, "off")
    assert row["within_slo"] == "NO", row
    assert row["sheds"] == 0, row  # nothing protected it


def test_storm_notes_record_both_directions(storm):
    assert any("both directions" in note for note in storm.notes)


def test_storm_probe_is_seeded_deterministic():
    fast = dict(duration=1e-3, warmup=5e-4)
    row = probe_noisy_neighbor("rio", **fast)
    assert probe_noisy_neighbor("rio", **fast) == row


@pytest.mark.parametrize("qos, gold, bronze, sheds", [
    (True, 13, 8, 630),
    (False, 3, 6, 0),
])
def test_fault_free_chaos_trial_measures_the_storm(qos, gold, bronze, sheds):
    """The tenant chaos trial runs the storm's own testbed: without
    faults it sees the very ops, tails and sheds the storm probe sees."""
    from repro.harness.chaos import run_tenant_chaos_trial

    window = dict(duration=1e-3, warmup=0.5e-3)
    trial = run_tenant_chaos_trial(system="rio", seed=3, qos=qos,
                                   faults=False, **window)
    row = probe_noisy_neighbor("rio", qos=qos, seed=3, **window)
    classes = trial.class_latency
    assert (row["gold_count"], row["bronze_count"]) == (gold, bronze)
    for name in ("gold", "bronze"):
        assert classes[name]["count"] == row[f"{name}_count"]
        assert classes[name]["p999_us"] == row[f"{name}_p999_us"]
    assert classes["gold"]["p50_us"] == row["gold_p50_us"]
    assert sum(trial.sheds_by_reason.values()) == row["sheds"] == sheds
    assert trial.sheds_by_reason.get("pace", 0.0) == row["shed_pace"]
    assert trial.sheds_by_reason.get("wfq", 0.0) == row["shed_wfq"]


# ----------------------------------------------------------------------
# Sweep identity and cache reuse
# ----------------------------------------------------------------------


def test_parallel_tenants_is_bit_identical_to_serial():
    serial = SweepRunner(jobs=1).run(tenants_sweep(_spec(GOLDEN)))
    parallel = SweepRunner(jobs=2).run(tenants_sweep(_spec(GOLDEN)))
    assert serial.rows == parallel.rows  # == on floats: bit-identical
    assert serial.notes == parallel.notes
    assert (json.dumps(tenants_report(serial), sort_keys=True)
            == json.dumps(tenants_report(parallel), sort_keys=True))


def test_warm_cache_tenants_rerun_executes_nothing(tmp_path):
    cold = SweepRunner(jobs=2, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    first = cold.run(tenants_sweep(_spec(GOLDEN, **SMALL)))
    assert cold.stats.executed == 1 and cold.stats.cache_hits == 0

    warm = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    second = warm.run(tenants_sweep(_spec(GOLDEN, **SMALL)))
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 1
    assert first.rows == second.rows
    assert first.render() == second.render()


def test_degenerate_config_is_the_saturation_sweep_bit_exactly():
    """No skew, no diurnal, no QoS: the tenant sweep *is* the saturation
    sweep — same cell digests (a warm `repro saturate` cache satisfies
    it with zero executions), same rows."""
    base_doc = {"scenario": "saturate", "topology": {"initiators": 1},
                "workload": {"systems": ["rio"], "loads_kiops": [50, 100],
                             "duration": 1e-3, "seed": 7, "tenants": 2}}
    degenerate = tenants_sweep(_spec(
        GOLDEN, systems=["rio"], loads_kiops=[50, 100], num_tenants=1,
        zipf_alpha=None, diurnal_amplitude=0.0, qos=False))
    base = saturation_sweep(ScenarioSpec.from_dict(base_doc))
    assert [s.digest() for s in degenerate.specs] == \
           [s.digest() for s in base.specs]
    rows = SweepRunner(jobs=1).run(degenerate).rows
    assert rows == SweepRunner(jobs=1).run(base).rows


def test_nondegenerate_config_changes_the_digests():
    skewed = tenants_sweep(_spec(GOLDEN, **SMALL, num_tenants=8,
                                 diurnal_amplitude=0.0, qos=False))
    base = saturation_sweep(ScenarioSpec.from_dict(
        {"scenario": "saturate", "topology": {"initiators": 1},
         "workload": {"systems": ["rio"], "loads_kiops": [50],
                      "duration": 1e-3, "seed": 7, "tenants": 2}}))
    assert {s.digest() for s in skewed.specs}.isdisjoint(
        {s.digest() for s in base.specs})


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------


def test_probe_reports_per_class_columns():
    row = probe_tenants("rio", "optane", 50, initiators=1, **{
        k: v for k, v in GOLDEN["workload"].items()
        if k not in ("systems", "loads_kiops")})
    assert row["achieved_kiops"] > 0
    for name in ("gold", "silver", "bronze"):
        assert f"{name}_p999_us" in row
        assert f"{name}_count" in row
    assert sum(row[f"{n}_count"] for n in ("gold", "silver", "bronze")) \
        == row["samples"]
    assert {"sheds", "shed_pace", "shed_wfq"} <= set(row)


def test_probe_rejects_unknown_layout():
    with pytest.raises(ValueError):
        probe_tenants("rio", "not-a-layout", 50)


def test_default_load_ladder_matches_saturate():
    tenants = ScenarioSpec.from_dict({"scenario": "tenants"})
    saturate = ScenarioSpec.from_dict({"scenario": "saturate"})
    # Same values and the same int literals: cell digests care.
    assert (tenants.workload["loads_kiops"]
            == saturate.workload["loads_kiops"])
    assert all(isinstance(load, int)
               for load in tenants.workload["loads_kiops"])


# ----------------------------------------------------------------------
# Weighted loadgen rates and per-tenant blocks (satellite regression)
# ----------------------------------------------------------------------


def _mini_run(**config_kwargs):
    from repro.harness.experiment import LAYOUTS
    from repro.scale import (
        OpenLoopConfig,
        ScaleOutCluster,
        run_open_loop,
    )
    from repro.sim.engine import Environment
    from repro.systems.base import make_stack

    env = Environment()
    cluster = ScaleOutCluster(env, LAYOUTS["optane"], num_initiators=1,
                              seed=7)
    stack = make_stack("rio", cluster, num_streams=2)
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=40e3, tenants=2, duration=5e-4, warmup=1e-4, seed=7,
        **config_kwargs))
    return (run.ops, run.elapsed, run.latency.count, run.latency.p50,
            run.latency.p99, run.latency.p999)


def test_uniform_weights_are_bit_identical_to_the_legacy_even_split():
    assert _mini_run() == _mini_run(weights=(1.0, 1.0))


def test_uniform_blocks_are_bit_identical_to_the_default_size():
    assert _mini_run() == _mini_run(blocks=(1, 1))


def test_skewed_weights_shift_the_split():
    even = _mini_run()
    skewed = _mini_run(weights=(3.0, 1.0))
    assert skewed != even


def test_weights_and_blocks_are_validated():
    from repro.scale import OpenLoopConfig
    from repro.scale.loadgen import _tenant_blocks, _tenant_rates

    with pytest.raises(ValueError, match="length"):
        _tenant_rates(OpenLoopConfig(offered_iops=1e3, tenants=2,
                                     duration=1e-3, weights=(1.0,)))
    with pytest.raises(ValueError, match="positive"):
        _tenant_rates(OpenLoopConfig(offered_iops=1e3, tenants=2,
                                     duration=1e-3, weights=(1.0, 0.0)))
    with pytest.raises(ValueError, match="length"):
        _tenant_blocks(OpenLoopConfig(offered_iops=1e3, tenants=2,
                                      duration=1e-3, blocks=(1,)))
    with pytest.raises(ValueError, match=">= 1"):
        _tenant_blocks(OpenLoopConfig(offered_iops=1e3, tenants=2,
                                      duration=1e-3, blocks=(1, 0)))


# ----------------------------------------------------------------------
# The golden
# ----------------------------------------------------------------------


def test_golden_tenants_report(request):
    result = SweepRunner(jobs=1).run(tenants_sweep(_spec(GOLDEN)))
    report = tenants_report(result)
    if request.config.getoption("--regen-goldens"):
        GOLDEN_PATH.write_text(json.dumps(report, indent=1,
                                          sort_keys=True) + "\n")
        return
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; run with --regen-goldens"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    # Rows first: a mismatch renders as a readable per-row diff.
    assert report["rows"] == golden["rows"]
    assert report == golden
