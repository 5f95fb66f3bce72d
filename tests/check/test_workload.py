"""The workload spec and plan: determinism, round-trips, disjointness."""

import pytest

from repro.check.workload import (
    STREAM_AREA,
    WorkloadSpec,
    build_plan,
    build_testbed,
)
from repro.spec import ScenarioSpec
from repro.spec.compile import _check_cell_spec, _check_cells


def test_plan_is_deterministic():
    spec = WorkloadSpec(seed=7, streams=3, groups_per_stream=5)
    assert build_plan(spec) == build_plan(spec)


def test_plan_changes_with_seed():
    a = build_plan(WorkloadSpec(seed=1))
    b = build_plan(WorkloadSpec(seed=2))
    assert a != b  # write sizes are seeded


def test_plan_tokens_are_unique():
    plan = build_plan(WorkloadSpec(streams=3, groups_per_stream=4,
                                   writes_per_group=3))
    tokens = [t for g in plan for w in g.writes for t in w.tokens]
    assert len(tokens) == len(set(tokens))


def test_stream_areas_are_disjoint():
    plan = build_plan(WorkloadSpec(streams=4, groups_per_stream=6,
                                   writes_per_group=3))
    for group in plan:
        for write in group.writes:
            area = write.lba // STREAM_AREA
            assert area == group.stream
            assert (write.lba + write.nblocks - 1) // STREAM_AREA == area


def test_flush_cadence():
    plan = build_plan(WorkloadSpec(streams=1, groups_per_stream=6,
                                   flush_every=3))
    flushes = [g.index for g in plan if g.flush]
    assert flushes == [3, 6]
    none = build_plan(WorkloadSpec(streams=1, groups_per_stream=6,
                                   flush_every=0))
    assert not any(g.flush for g in none)


def test_spec_json_roundtrip():
    """A cell survives the trip through its check spec's JSON."""
    spec = WorkloadSpec(system="horae", layout="flash", seed=3, streams=2,
                        groups_per_stream=9, writes_per_group=1, depth=4,
                        flush_every=1, max_points=12)
    text = _check_cell_spec(spec).canonical_json()
    assert _check_cells(ScenarioSpec.from_json(text)) == [spec]


def test_with_replaces_only_named_fields():
    spec = WorkloadSpec(seed=5)
    other = spec.with_(system="barrier", layout="flash")
    assert other.system == "barrier" and other.seed == 5
    assert spec.system == "rio"  # frozen original untouched


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        build_plan(WorkloadSpec(streams=0))


def test_testbed_is_deterministic():
    spec = WorkloadSpec(layout="2optane-2targets", seed=11)
    _env1, cluster1, _ = build_testbed(spec)
    _env2, cluster2, _ = build_testbed(spec)
    names1 = sorted(ssd.name for t in cluster1.targets for ssd in t.ssds)
    names2 = sorted(ssd.name for t in cluster2.targets for ssd in t.ssds)
    assert names1 == names2
