"""The overload experiment: metastable acceptance, the completion
mirage, gray-failure isolation, and sweep bit-identity."""

import pytest

from repro.harness.cache import ResultCache
from repro.harness.overload import (
    PROTECTIONS,
    overload_sweep,
    probe_gray,
    probe_overload,
)
from repro.harness.sweep import SweepRunner
from repro.spec import ScenarioSpec

#: The default acceptance grid: knee, 2x past it, 4x past it.  One
#: shared sweep for the whole module (each cell is an independent seeded
#: simulation; computing them once keeps the suite fast).
GRID = {
    "scenario": "overload",
    "topology": {"initiators": 2},
    "workload": {"systems": ["rio"], "duration": 2e-3, "tenants": 4},
}
LOADS = ScenarioSpec.from_dict(GRID).workload["loads_kiops"]


def _sweep(**workload):
    """The overload sweep of GRID with ``workload`` fields replaced."""
    return overload_sweep(ScenarioSpec.from_dict(
        dict(GRID, workload={**GRID["workload"], **workload})))


@pytest.fixture(scope="module")
def curves():
    return SweepRunner(jobs=1).run(_sweep())


def _row(curves, protection, offered):
    rows = [r for r in curves.series(system="rio", protection=protection)
            if r["offered_kiops"] == offered]
    assert rows, (protection, offered)
    return rows[0]


def test_probe_reports_one_cell():
    row = probe_overload("rio", "optane", 200, "full", duration=5e-4)
    assert row["offered_kiops"] == 200
    assert row["goodput_kiops"] > 0
    assert row["persisted_kiops"] > 0
    assert row["p999_us"] >= row["p99_us"] >= row["p50_us"] > 0


def test_probe_rejects_unknown_layout_and_protection():
    with pytest.raises(ValueError):
        probe_overload("rio", "not-a-layout", 100, "full")
    with pytest.raises(ValueError):
        probe_overload("rio", "optane", 100, "not-a-profile")


def test_grid_covers_both_protections(curves):
    assert len(curves.rows) == len(PROTECTIONS) * len(LOADS)
    for protection in PROTECTIONS:
        offered = curves.column("offered_kiops", protection=protection)
        assert offered == sorted(LOADS)


def test_sub_knee_protection_is_free(curves):
    """Below the knee the protection stack must cost nothing: identical
    goodput, no sheds, no failures, same tail."""
    low = min(LOADS)
    off, full = _row(curves, "off", low), _row(curves, "full", low)
    assert full["goodput_kiops"] == off["goodput_kiops"]
    assert full["shed_rate"] == 0.0
    assert full["p999_us"] == off["p999_us"]


def test_protected_stack_holds_the_knee_at_2x_overload(curves):
    """The tentpole acceptance: at 2x the knee the protected stack
    sustains >= 80% of knee goodput (it actually holds ~100%: admission
    pins it at device capacity)."""
    knee = max(r["goodput_kiops"]
               for r in curves.series(system="rio", protection="full"))
    mid, top = sorted(LOADS)[1:]
    for offered in (mid, top):
        row = _row(curves, "full", offered)
        assert row["goodput_kiops"] >= 0.8 * knee, (offered, row)
        assert row["timeout_rate"] == 0.0, row
        assert row["dead_streams"] == 0, row


def test_unprotected_stack_shows_the_completion_mirage_then_collapses(curves):
    """Past the knee the unprotected driver's 100us timeout expires while
    originals queue in the device; the retransmissions are duplicate-acked
    by the in-order gate, so completions decouple from persistence (the
    mirage).  At 4x the retry ladder outruns the receive cores and real
    goodput collapses."""
    mid, top = sorted(LOADS)[1:]
    mirage = _row(curves, "off", mid)
    assert mirage["goodput_kiops"] > 1.2 * mirage["persisted_kiops"], mirage
    collapse = _row(curves, "off", top)
    assert collapse["timeout_rate"] > 0.3, collapse
    knee = max(r["goodput_kiops"]
               for r in curves.series(system="rio", protection="full"))
    assert collapse["persisted_kiops"] < 0.6 * knee, collapse
    assert any("completion mirage" in note for note in curves.notes)


def test_protected_completions_equal_persistence(curves):
    """The protected stack never completes what the device has not
    served: goodput tracks persisted IOPS at every load point."""
    for row in curves.series(system="rio", protection="full"):
        assert row["goodput_kiops"] <= row["persisted_kiops"] * 1.05, row


def test_gray_scenario_contains_the_blast_radius():
    r = probe_gray(seed=42)
    assert r["breaker_trips"] >= 1
    assert r["sick_breaker_open"] == 1.0
    assert r["healthy_breakers_closed"] == 1.0
    assert r["failovers"] >= 1
    assert r["brownouts"] >= 1
    assert r["bystander_p999_us"] < 60.0
    # Seeded determinism: the same cell twice is value-identical.
    assert probe_gray(seed=42) == r


def test_parallel_overload_is_bit_identical_to_serial():
    small = dict(loads_kiops=[200, 400], duration=1e-3)
    serial = SweepRunner(jobs=1).run(_sweep(**small))
    parallel = SweepRunner(jobs=2).run(_sweep(**small))
    assert serial.headers == parallel.headers
    assert serial.rows == parallel.rows  # == on floats: bit-identical
    assert serial.notes == parallel.notes
    assert serial.render() == parallel.render()


def test_warm_cache_overload_rerun_executes_nothing(tmp_path):
    small = dict(loads_kiops=[200, 400], duration=1e-3)
    cold = SweepRunner(jobs=2, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    first = cold.run(_sweep(**small))
    assert cold.stats.executed == 4 and cold.stats.cache_hits == 0

    warm = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    second = warm.run(_sweep(**small))
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 4
    assert first.rows == second.rows
    assert first.render() == second.render()


def test_sweep_reads_mode_and_protections_from_the_spec():
    gray = overload_sweep(ScenarioSpec.from_dict(
        {"scenario": "overload",
         "workload": {"mode": "gray", "offered_kiops": 60}}))
    (cell,) = gray.specs
    assert cell.fn == "repro.harness.overload:probe_gray"
    assert dict(cell.kwargs)["offered_kiops"] == 60
    assert dict(cell.kwargs)["duration"] == 4e-3  # gray's default window
    full_only = overload_sweep(ScenarioSpec.from_dict(
        dict(GRID, policies={"protections": ["full"]})))
    assert [dict(c.kwargs)["protection"] for c in full_only.specs] == \
        ["full"] * len(LOADS)
