"""The saturation experiment: curve shapes, knees, CPU-efficiency claim."""

import pytest

from repro.harness import figures
from repro.harness.saturate import (
    DEFAULT_LOADS_KIOPS,
    SATURATE_SYSTEMS,
    knee_point,
    probe_saturation,
    saturation_curves,
    saturation_sweep,
)
from repro.harness.sweep import SweepRunner

#: One shared sweep for the whole module (each cell is an independent
#: seeded simulation; computing them once keeps the suite fast).
GRID = dict(systems=("linux", "rio"), loads_kiops=(50, 100, 200, 400),
            duration=2e-3, tenants=4, initiators=2)


@pytest.fixture(scope="module")
def curves():
    return SweepRunner(jobs=1).run(saturation_sweep(**GRID))


def test_probe_reports_one_load_point():
    row = probe_saturation("rio", "optane", 50, duration=5e-4)
    assert row["offered_kiops"] == 50
    assert row["achieved_kiops"] > 0
    assert row["p99_us"] >= row["p50_us"] > 0
    assert row["p999_us"] >= row["p99_us"]
    assert row["initiator_busy_cores"] > 0
    assert row["kiops_per_core"] > 0
    assert row["samples"] > 0


def test_probe_rejects_unknown_layout():
    with pytest.raises(ValueError):
        probe_saturation("rio", "not-a-layout", 50)


def test_curves_cover_the_grid_in_ascending_load_order(curves):
    assert len(curves.rows) == 2 * 4
    for system in GRID["systems"]:
        offered = curves.column("offered_kiops", system=system)
        assert offered == sorted(offered) == [50, 100, 200, 400]


def test_achieved_throughput_is_monotone_in_offered_load(curves):
    """More offered load never yields less achieved throughput (up to 2%
    measurement noise): the curves rise, then plateau — never collapse."""
    for system in GRID["systems"]:
        achieved = curves.column("achieved_kiops", system=system)
        for lower, higher in zip(achieved, achieved[1:]):
            assert higher >= lower * 0.98, (system, achieved)


def test_latency_explodes_past_the_knee(curves):
    for system in GRID["systems"]:
        rows = curves.series(system=system)
        knee = knee_point(curves, system)
        saturated = [r for r in rows
                     if r["offered_kiops"] > knee["offered_kiops"]]
        if not saturated:
            continue  # this grid never saturated the system
        assert max(r["p99_us"] for r in saturated) > 3 * rows[0]["p99_us"]


def test_rio_knee_is_more_cpu_efficient_than_linux(curves):
    """The acceptance claim (paper §6.1): at its saturation knee, rio
    delivers strictly more IOPS per busy initiator core than linux at
    its own knee — ordering without the CPU tax."""
    rio = knee_point(curves, "rio")
    linux = knee_point(curves, "linux")
    assert rio["offered_kiops"] > linux["offered_kiops"]
    assert rio["kiops_per_core"] > linux["kiops_per_core"]


def test_knee_point_falls_back_to_best_throughput(curves):
    always_saturated = knee_point(curves, "linux", threshold=2.0)
    best = max(curves.series(system="linux"),
               key=lambda r: r["achieved_kiops"])
    assert always_saturated == best
    assert knee_point(curves, "no-such-system") is None


def test_notes_summarize_every_system_knee(curves):
    assert len(curves.notes) == len(GRID["systems"])
    for system in GRID["systems"]:
        assert any(note.startswith(f"{system} knee:")
                   for note in curves.notes)


def test_defaults_cover_all_four_systems():
    assert set(SATURATE_SYSTEMS) == {"linux", "horae", "rio", "barrier"}
    assert list(DEFAULT_LOADS_KIOPS) == sorted(DEFAULT_LOADS_KIOPS)


def test_saturate_is_a_registered_figure():
    assert "saturate" in figures.SWEEP_BUILDERS
    sweep = figures.SWEEP_BUILDERS["saturate"](**GRID)
    assert len(sweep.specs) == 8


def test_saturation_curves_uses_default_runner():
    result = saturation_curves(systems=("rio",), loads_kiops=(50,),
                               duration=5e-4)
    assert len(result.rows) == 1
    assert result.rows[0]["system"] == "rio"
