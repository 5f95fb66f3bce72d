"""CLI surface: ``repro run <spec.json>`` and the ``repro spec`` verbs."""

import json

import pytest

from repro.cli import main
from repro.spec import ScenarioSpec


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def figure_spec(tmp_path):
    return _write(tmp_path, "fig3.json", {
        "scenario": "figure",
        "workload": {"figure": "fig3", "options": {"duration": 1e-3}},
    })


def test_run_spec_file_prints_table_and_stats(figure_spec, capsys):
    assert main(["run", figure_spec]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "[run figure " in out
    assert "cache disabled]" in out


def test_run_spec_rejects_duration_flag(figure_spec, capsys):
    assert main(["run", figure_spec, "--duration", "0.001"]) == 2
    assert "figure names only" in capsys.readouterr().err


def test_run_invalid_spec_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"scenario": "warp"})
    assert main(["run", path]) == 2
    assert "invalid spec" in capsys.readouterr().err


def test_run_spec_scenario_cache_warm_hit(figure_spec, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", figure_spec, "--cache",
                 "--cache-dir", cache_dir]) == 0
    cold = capsys.readouterr().out
    assert "scenario cache hit" not in cold
    assert main(["run", figure_spec, "--cache",
                 "--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr().out
    assert "scenario cache hit" in warm

    def table(text):
        return [l for l in text.splitlines() if not l.startswith("[run ")]

    assert table(cold) == table(warm)


def test_run_legacy_workload_spec_file(tmp_path, capsys):
    """A bare pre-spec ``WorkloadSpec`` dict is not a spec: ``run`` exits
    2 with one line naming its unknown top-level keys, and ``spec
    validate`` flags it INVALID."""
    path = _write(tmp_path, "legacy.json", {
        "system": "linux", "layout": "optane", "seed": 0, "streams": 1,
        "groups_per_stream": 2, "writes_per_group": 1, "depth": 1,
        "max_points": 4,
    })
    assert main(["run", path]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("invalid spec: ")
    assert ("unknown top-level key(s) ['depth', 'groups_per_stream', "
            "'layout', 'max_points', 'seed', 'streams', 'system', "
            "'writes_per_group']") in line
    assert main(["spec", "validate", path]) == 1
    err = capsys.readouterr().err
    assert "INVALID" in err and "Traceback" not in err


def test_spec_validate_reports_digest(figure_spec, capsys):
    assert main(["spec", "validate", figure_spec]) == 0
    out = capsys.readouterr().out
    assert "OK scenario=figure" in out
    assert "digest=" in out


def test_spec_validate_flags_invalid_files(figure_spec, tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"scenario": "chaos", "bogus": 1})
    assert main(["spec", "validate", figure_spec, bad]) == 1
    captured = capsys.readouterr()
    assert "OK scenario=figure" in captured.out
    assert "INVALID" in captured.err


def test_spec_canon_emits_canonical_json(figure_spec, capsys):
    assert main(["spec", "canon", figure_spec]) == 0
    out = capsys.readouterr().out.strip()
    spec = ScenarioSpec.from_json(out)
    assert spec.workload["figure"] == "fig3"
    # Canonical: defaults materialized, keys sorted.
    assert out == spec.canonical_json()


def test_spec_digest_is_stable(figure_spec, capsys):
    assert main(["spec", "digest", figure_spec]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["spec", "digest", figure_spec]) == 0
    assert capsys.readouterr().out.strip() == first
    assert len(first) == 64


def test_spec_diff_identical_and_differing(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"scenario": "saturate"})
    same = _write(tmp_path, "same.json",
                  {"scenario": "saturate", "workload": {"seed": 42}})
    other = _write(tmp_path, "other.json",
                   {"scenario": "saturate", "workload": {"seed": 7}})
    assert main(["spec", "diff", a, same]) == 0
    assert "canonically identical" in capsys.readouterr().out
    assert main(["spec", "diff", a, other]) == 1
    assert "workload.seed: 42 != 7" in capsys.readouterr().out


def test_spec_diff_needs_two_files(figure_spec, capsys):
    assert main(["spec", "diff", figure_spec]) == 2
    assert "exactly two" in capsys.readouterr().err
