"""`repro qualify`: cells, floors, report shape, the seeded golden.

The golden pins a small seeded matrix (2 systems x 2 block sizes on the
qualification layout) down to the canonical-JSON digest: any drift in
the device model, the workload driver or the report encoding shows up as
a readable cell diff.  Bless intentional changes with::

    PYTHONPATH=src python -m pytest tests/harness/test_qualify.py \\
        --regen-goldens
"""

import json
import pathlib

import pytest

from repro.harness.qualify import (
    PROFILES,
    QualifyReport,
    bench_artifact,
    check_floors,
    default_floors,
    probe_qualify_cell,
    probe_qualify_oracle,
    qualify_sweep,
    write_report,
)
from repro.harness.sweep import SweepRunner
from repro.spec import ScenarioSpec, SpecError

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "goldens" / "qualify_smoke.json")

#: The golden matrix: small, seeded, matrix-phase only (fast + hermetic).
GOLDEN = {
    "scenario": "qualify",
    "workload": {
        "profile": "smoke",
        "systems": ["rio", "linux"],
        "blocks_kib": [4, 64],
        "queue_depths": [1],
        "patterns": ["seq"],
        "seed": 7,
        "sustained": False,
    },
    "oracle": {"enabled": False},
}


def _sweep(doc, floors=None):
    """The qualify sweep of ``doc`` with optional floor overrides."""
    return qualify_sweep(ScenarioSpec.from_dict(
        dict(doc, policies={"floors": floors})))


def run_golden_report() -> QualifyReport:
    return SweepRunner(jobs=1).run(_sweep(GOLDEN))


# ----------------------------------------------------------------------
# Floors
# ----------------------------------------------------------------------


def test_default_floors_per_phase():
    matrix = default_floors("matrix", 1e-3)
    assert matrix["max_p999_us"] == pytest.approx(1000.0)
    sustained = default_floors("sustained", 1e-3)
    assert sustained["require_gc"] == 1.0
    assert sustained["min_cache_stalls"] == 1.0
    oracle = default_floors("oracle", 1e-3)
    assert oracle["max_violations"] == 0.0
    with pytest.raises(ValueError):
        default_floors("burn-in", 1e-3)


def test_check_floors_reports_each_breach():
    metrics = {"kiops": 10.0, "mbps": 40.0, "p999_us": 900.0,
               "violations": 2.0, "crash_points": 5.0}
    failures = check_floors(
        metrics,
        {"min_kiops": 50.0, "max_p999_us": 500.0, "max_violations": 0.0},
    )
    assert len(failures) == 3
    assert any("min_kiops" in f for f in failures)
    assert any("max_violations: violations=2 not <= 0" in f
               for f in failures)
    assert check_floors(metrics, {"min_kiops": 1.0}) == []


def test_check_floors_flags_missing_metric():
    failures = check_floors({}, {"min_kiops": 1.0})
    assert failures == ["min_kiops: metric kiops missing"]


def test_unknown_floor_override_cell_raises():
    with pytest.raises(ValueError, match="unknown cells"):
        _sweep({"scenario": "qualify"},
               floors={"matrix/zfs/4K/qd1/seq": {"min_kiops": 1.0}})


def test_linux_sustained_cell_waives_cache_stall_floor():
    sweep = _sweep({"scenario": "qualify",
                    "workload": {"profile": "smoke",
                                 "systems": ["rio", "linux"]}})
    floors = {c.key: c.floors for c in _sweep_cells(sweep)}
    assert "min_cache_stalls" in floors["sustained/rio/64K/qd256/seq"]
    assert "min_cache_stalls" not in floors["sustained/linux/64K/qd256/seq"]
    # GC realism still applies to linux.
    assert floors["sustained/linux/64K/qd256/seq"]["require_gc"] == 1.0


def _sweep_cells(sweep):
    """The QualifyCell list a sweep's reduce closes over (via a dry run
    of the reduce with placeholder metrics)."""
    report = sweep.reduce([{} for _ in sweep.specs])
    return report.cells


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------


def test_matrix_cell_measures_throughput_and_health():
    metrics = probe_qualify_cell(
        system="rio", block_kib=4, queue_depth=8, pattern="seq",
        duration=4e-4, warmup=1e-4,
    )
    assert metrics["kiops"] > 0
    assert metrics["mbps"] > 0
    assert metrics["gc_active"] == 0.0  # no prefill: GC idle
    assert metrics["write_amp"] == 1.0


def test_sustained_cell_reaches_gc_and_eviction_pressure():
    shape = PROFILES["smoke"]
    metrics = probe_qualify_cell(
        system="rio", block_kib=64, queue_depth=256, pattern="seq",
        duration=shape.sustained_duration, warmup=shape.warmup,
        prefill=shape.sustained_prefill,
    )
    assert metrics["gc_active"] == 1.0
    assert metrics["write_amp"] > 1.05
    assert metrics["cache_stalls"] >= 1
    assert metrics["cache_evictions"] > 0


def test_oracle_cell_is_clean_under_gc_at_depth_256():
    metrics = probe_qualify_oracle(system="rio", depth=256, prefill=0.92,
                                   max_points=3)
    assert metrics["crash_points"] >= 1
    assert metrics["violations"] == 0.0
    assert metrics["gc_active"] == 1.0


def test_unknown_layout_raises():
    with pytest.raises(ValueError, match="unknown layout"):
        probe_qualify_cell(system="rio", layout="tape-library")


# ----------------------------------------------------------------------
# Report + injected regression
# ----------------------------------------------------------------------


def test_injected_regression_fails_loudly():
    report = SweepRunner(jobs=1).run(_sweep(
        GOLDEN, floors={"matrix/rio/4K/qd1/seq": {"min_kiops": 10_000.0}},
    ))
    assert not report.ok
    assert report.failed == 1
    cell = report.cell("matrix/rio/4K/qd1/seq")
    assert not cell.ok
    assert any("min_kiops" in f for f in cell.failures)
    assert "FAIL" in report.render()
    assert "FAIL" in report.render_markdown()


def test_report_roundtrip_and_digest_stability():
    report = run_golden_report()
    again = run_golden_report()
    assert report.to_json() == again.to_json()
    assert report.digest() == again.digest()
    payload = json.loads(report.to_json())
    assert payload["kind"] == "repro-qualify-report"
    assert payload["passed"] == len(payload["cells"])


def test_write_report_emits_json_and_markdown(tmp_path):
    report = run_golden_report()
    paths = write_report(report, tmp_path)
    assert sorted(pathlib.Path(p).name for p in paths) == [
        "qualify.json", "qualify.md",
    ]
    payload = json.loads((tmp_path / "qualify.json").read_text())
    assert payload["ok"] is True
    assert "| cell |" in (tmp_path / "qualify.md").read_text()


def test_bench_artifact_shape():
    report = run_golden_report()
    artifact = bench_artifact(report)
    assert artifact["kind"] == "repro-bench-qualify"
    assert artifact["report_digest"] == report.digest()
    assert artifact["cells_pass"] == len(report.cells)
    assert "host_perf" not in artifact
    first = artifact["cells"]["matrix/rio/4K/qd1/seq"]
    assert first["ok"] is True and first["kiops"] > 0


def test_unknown_profile_raises():
    with pytest.raises(SpecError, match="workload.profile: 'soak' not one of"):
        ScenarioSpec.from_dict({"scenario": "qualify",
                                "workload": {"profile": "soak"}})


# ----------------------------------------------------------------------
# The golden
# ----------------------------------------------------------------------


def test_golden_qualify_report(request):
    report = run_golden_report()
    lines = [json.dumps(cell.as_dict(), sort_keys=True)
             for cell in report.cells]
    digest = report.digest()
    if request.config.getoption("--regen-goldens"):
        GOLDEN_PATH.write_text(json.dumps(
            {"digest": digest, "cells": lines}, indent=1) + "\n")
        return
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; run with --regen-goldens"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    # Cells first: a mismatch renders as a readable per-cell diff.
    assert lines == golden["cells"]
    assert digest == golden["digest"]
