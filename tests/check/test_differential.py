"""The end-to-end checker: all systems green, shrinker, reproducers."""

import json

import pytest

from repro.check.differential import (
    check_cell,
    check_workload,
    differential_check,
    shrink_spec,
)
from repro.check.workload import WorkloadSpec
from repro.spec import SpecError, load_spec_file, run_scenario
from repro.spec.compile import _check_cell_spec

TINY = WorkloadSpec(seed=0, streams=1, groups_per_stream=3,
                    writes_per_group=2, depth=2, flush_every=2, max_points=8)


@pytest.mark.parametrize("system", ["rio", "horae", "linux", "barrier"])
@pytest.mark.parametrize("layout", ["flash", "optane"])
def test_fault_free_run_passes_oracle(system, layout):
    report = check_workload(TINY.with_(system=system, layout=layout))
    assert report.crash_points > 0
    assert report.ok, [str(v) for f in report.failures for v in f.violations]


def test_differential_check_runs_same_shape_everywhere():
    reports = differential_check(TINY, ["rio", "linux"])
    assert set(reports) == {"rio", "linux"}
    assert all(r.ok for r in reports.values())
    assert reports["rio"].spec.system == "rio"


def test_shrink_reaches_minimal_failing_shape():
    spec = WorkloadSpec(streams=4, groups_per_stream=6, writes_per_group=3,
                        depth=4)
    # Synthetic failure: anything with >= 2 streams "fails".
    shrunk = shrink_spec(spec, still_fails=lambda s: s.streams >= 2)
    assert shrunk.streams == 2  # 1 passes, so 2 is minimal
    assert shrunk.groups_per_stream == 1
    assert shrunk.writes_per_group == 1
    assert shrunk.depth == 1


def test_shrink_keeps_spec_when_nothing_smaller_fails():
    spec = WorkloadSpec(streams=1, groups_per_stream=1, writes_per_group=1,
                        depth=1)
    assert shrink_spec(spec, still_fails=lambda s: True) == spec


def test_shrink_is_bounded():
    calls = []

    def noisy(spec):
        calls.append(spec)
        return True

    shrink_spec(WorkloadSpec(streams=64, groups_per_stream=64,
                             writes_per_group=64, depth=64),
                still_fails=noisy, max_attempts=10)
    assert len(calls) <= 10


def test_reproducer_roundtrip_is_deterministic():
    spec = _check_cell_spec(TINY)
    first = run_scenario(spec).result
    again = run_scenario(spec).result
    assert first.cells[0][0] == TINY
    assert first.to_json() == again.to_json()


def test_replay_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(SpecError, match="unknown top-level key"):
        load_spec_file(path)


def test_check_cell_returns_cacheable_dict():
    result = check_cell(system="linux", layout="optane", seed=0, streams=1,
                        groups_per_stream=2, writes_per_group=1, depth=1,
                        flush_every=2, max_points=6)
    json.dumps(result)  # picklable/cacheable plain data
    assert result["ok"] is True
    assert result["spec"]["system"] == "linux"
