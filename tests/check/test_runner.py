"""The check matrix on the sweep runner: specs, caching, rendering."""

import pytest

from repro.check.runner import (
    DEFAULT_MATRIX,
    build_matrix_specs,
    run_check_matrix,
)
from repro.harness.cache import ResultCache
from repro.harness.sweep import SweepRunner

SHAPE = dict(streams=1, groups_per_stream=2, writes_per_group=1, depth=1,
             flush_every=2, max_points=6)


def test_default_matrix_covers_all_systems():
    assert set(DEFAULT_MATRIX) == {"rio", "horae", "linux", "barrier"}
    # barrier cannot order across devices: single-device layouts only.
    assert all("ssd" not in layout and "targets" not in layout
               for layout in DEFAULT_MATRIX["barrier"])


def test_build_matrix_specs_order_and_shape():
    specs = build_matrix_specs(systems=["linux"], seeds=[0, 1], **SHAPE)
    assert [s.seed for s in specs] == [0, 1] * len(DEFAULT_MATRIX["linux"])
    assert all(s.system == "linux" and s.streams == 1 for s in specs)


def test_build_matrix_specs_rejects_unknown_system():
    with pytest.raises(ValueError):
        build_matrix_specs(systems=["zfs"])


def test_run_check_matrix_green():
    specs = build_matrix_specs(systems=["rio"], layouts=["optane"],
                               seeds=[0], **SHAPE)
    result = run_check_matrix(specs, runner=SweepRunner(jobs=1))
    assert result.ok
    assert not result.reproducers  # green cells have none
    assert "OK" in result.render()
    assert "all ordering invariants hold" in result.render()


def test_run_check_matrix_uses_result_cache(tmp_path):
    specs = build_matrix_specs(systems=["linux"], layouts=["optane"],
                               seeds=[0], **SHAPE)
    cache = ResultCache(root=tmp_path)
    first = SweepRunner(jobs=1, cache=cache)
    run_check_matrix(specs, runner=first)
    assert first.stats.executed == len(specs)

    second = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
    result = run_check_matrix(specs, runner=second)
    assert second.stats.cache_hits == len(specs)
    assert second.stats.executed == 0
    assert result.ok
