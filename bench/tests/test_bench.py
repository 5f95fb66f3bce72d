"""Self-test of the host-cost benchmark: ``pytest bench/tests``.

Runs ``bench/run.py --quick`` (tiny simulated durations) end to end and
checks what the benchmark promises: every metric named in
``BENCHMARK.json`` is reported with its unit, runs are deterministic,
a wrong reference output fails the run, and the layer map is one-to-one.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from compare import compare, count_differences, verdict  # noqa: E402
from layers import LAYERS, check_mapping, classify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def last_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two full quick runs of every workload, the first writing its
    outputs as a reference file."""
    tmp = tmp_path_factory.mktemp("bench")
    runs = []
    for name in ("a", "b"):
        extra = ["--write-expected", tmp / "expected.json"] if name == "a" \
            else []
        proc = bench("--quick", "--reps", 1, "--out", tmp / f"{name}.json",
                     *extra)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc, json.loads((tmp / f"{name}.json").read_text())))
    return tmp, runs


def test_every_benchmark_metric_is_printed_with_its_unit(quick_runs):
    _, [(proc, _), _] = quick_runs
    line = last_line(proc)
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    for key in ("end_to_end", "per_layer"):
        for metric in SPEC[key]:
            for workload in WORKLOADS:
                reported = line["metrics"][f"{workload}.{metric['name']}"]
                assert reported["unit"] == metric["unit"]
                assert isinstance(reported["value"], float)
            assert re.search(rf"\s{re.escape(metric['name'])}\s.*\s"
                             rf"{re.escape(metric['unit'])}\b", proc.stdout)
    expected = len(WORKLOADS) * (len(SPEC["end_to_end"])
                                 + len(SPEC["per_layer"]))
    assert len(line["metrics"]) == expected


def test_names_are_well_formed(quick_runs):
    _, [(proc, _), _] = quick_runs
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer")
              for m in SPEC[key]]
    assert len(set(names)) == len(names)
    for name in names + list(last_line(proc)["metrics"]):
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_two_quick_runs_are_identical(quick_runs):
    _, [(_, a), (_, b)] = quick_runs
    assert a["reference"] == b["reference"]
    # calls_per_op and the other counts come from two separate traced
    # repetitions; they must match exactly.
    assert count_differences(a, b) == []
    for workload in WORKLOADS:
        assert a["workloads"][workload]["per_layer"][
            "sim.events_per_op"] > 0


def test_corrupted_expected_file_fails_the_run(quick_runs):
    tmp, _ = quick_runs
    expected = json.loads((tmp / "expected.json").read_text())
    expected["workloads"]["fio-qd32-rio"][0]["output"]["ops"] += 1
    corrupted = tmp / "corrupted.json"
    corrupted.write_text(json.dumps(expected))
    proc = bench("--quick", "--reps", 1, "--trace", 0, "--workload",
                 "fio-qd32-rio", "--expected", corrupted,
                 "--out", tmp / "corrupted-result.json")
    assert proc.returncode != 0
    line = last_line(proc)
    assert line["correct"] is False and line["failed"] >= 1


def test_reference_file_for_another_seed_is_refused(quick_runs):
    tmp, _ = quick_runs
    proc = bench("--quick", "--reps", 1, "--seed", 7, "--expected",
                 tmp / "expected.json", "--out", tmp / "seed7.json")
    assert proc.returncode == 2
    assert "seed 42" in proc.stderr


def test_without_simulator_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--quick", "--reps", 1, cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_source_file_maps_to_exactly_one_layer(tmp_path, monkeypatch):
    assert check_mapping(ROOT / "src" / "repro") == []
    assert classify("harness/tenants.py") == "tenants"
    assert classify("harness/sweep.py") == "harness"
    (tmp_path / "fs").mkdir()
    (tmp_path / "fs" / "journal.py").write_text("")
    (tmp_path / "newplane").mkdir()
    (tmp_path / "newplane" / "thing.py").write_text("")
    assert check_mapping(tmp_path) == [
        "newplane/thing.py maps to 0 layers: []"]
    monkeypatch.setitem(LAYERS, "fs.journal", ("fs/*",))
    assert check_mapping(tmp_path)[0] == (
        "fs/journal.py maps to 2 layers: ['fs', 'fs.journal']")


def test_compare_verdicts():
    def stats(*values):
        values = sorted(values)
        return {"median": values[len(values) // 2], "q1": values[0],
                "q3": values[-1], "n": len(values), "values": values}

    base = stats(99.0, 100.0, 101.0)
    assert verdict(base, stats(79.0, 80.0, 81.0), 0.1, False) == "worse"
    assert verdict(base, stats(104.0, 105.0, 106.0), 0.1, False) == "within"
    assert verdict(base, stats(119.0, 120.0, 121.0), 0.1, False) == "better"
    assert verdict(base, stats(79.0, 80.0, 81.0), 0.1, True) == "better"
    assert verdict(base, stats(50.0, 100.0, 150.0), 0.1, False) \
        == "unresolved"
    noisy = stats(90.0, 100.0, 120.0)
    assert verdict(noisy, stats(130.0, 140.0, 170.0), 0.1, False) == "better"


def test_compare_reads_run_results(quick_runs):
    _, [(_, a), (_, b)] = quick_runs
    rows = compare(a, b, SPEC)
    assert len(rows) == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)
    assert all(row[-1] != "missing" for row in rows)
