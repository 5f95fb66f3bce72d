"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURES, main


def test_list_prints_every_figure(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES:
        assert name in out


def test_run_unknown_figure_fails(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_run_figure_prints_table(capsys):
    assert main(["run", "fig14"]) == 0
    out = capsys.readouterr().out
    assert "Figure 14" in out
    assert "riofs" in out


def test_run_with_duration(capsys):
    assert main(["run", "fig3", "--duration", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out


def test_every_registered_figure_is_callable():
    for name, (fn, description, _takes_duration) in FIGURES.items():
        assert callable(fn), name
        assert description


def test_check_green_matrix_exits_zero(capsys):
    assert main(["check", "--systems", "linux", "--layouts", "optane",
                 "--seeds", "0", "--streams", "1", "--groups", "2",
                 "--writes", "1", "--depth", "1", "--max-points", "6"]) == 0
    out = capsys.readouterr().out
    assert "all ordering invariants hold" in out
    assert "linux" in out


def test_check_unknown_system_raises(capsys):
    assert main(["check", "--systems", "zfs", "--seeds", "0"]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_check_replay_roundtrip(tmp_path, capsys):
    from repro.check import WorkloadSpec, check_workload, dump_reproducer

    spec = WorkloadSpec(system="linux", streams=1, groups_per_stream=2,
                        writes_per_group=1, depth=1, max_points=6)
    path = tmp_path / "r.json"
    dump_reproducer(path, check_workload(spec))
    assert main(["run", str(path)]) == 0
    assert "ordering invariants hold" in capsys.readouterr().out


def test_tenants_curves_cli_prints_table(capsys, tmp_path):
    assert main(["tenants", "--systems", "rio", "--loads", "50",
                 "--initiators", "1", "--streams", "2", "--tenants", "8",
                 "--duration", "0.001", "--seed", "7",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "gold_p999_us" in out
    assert "[tenants:" in out


def test_tenants_storm_cli_exits_zero_when_both_directions_hold(
    capsys, tmp_path,
):
    assert main(["tenants", "--storm",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Noisy neighbor" in out
    assert "both directions demonstrated" in out


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.mark.parametrize("argv", [
    ["saturate", "--loads", ","],
    ["saturate", "--loads", "25,abc"],
    ["tenants", "--storm", "--loads", "50"],
    ["tenants", "--diurnal-amplitude", "1.5"],
    ["overload", "--scenario", "gray", "--systems", "linux"],
    ["overload", "--protection", "bogus"],
    ["qualify", "--floor", "no-assignment"],
    ["saturate", "--layout", "nope"],
])
def test_malformed_verb_flags_exit_2_with_one_message(argv, capsys):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "invalid spec:" in err or "error: argument" in err


@pytest.mark.parametrize("argv", [
    ["claims", "--no-cache"],
    ["claims", "--format", "markdown"],
    ["check", "--format", "markdown"],
])
def test_verbs_reject_flags_they_never_had(argv, capsys):
    assert _exit_code(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


#: (verb argv, the same scenario as a spec document).  Loads are written
#: as floats: the verbs parse ``--loads`` to floats, and a spec's number
#: fields keep int vs float, so ``25`` would be a different scenario.
VERB_SPECS = [
    (["saturate", "--systems", "rio", "--loads", "25,100",
      "--initiators", "1", "--duration", "0.0005"],
     {"scenario": "saturate", "topology": {"initiators": 1},
      "workload": {"systems": ["rio"], "loads_kiops": [25.0, 100.0],
                   "duration": 0.0005}}),
    (["overload", "--loads", "200", "--protection", "full",
      "--initiators", "1", "--duration", "0.0005"],
     {"scenario": "overload", "topology": {"initiators": 1},
      "policies": {"protections": ["full"]},
      "workload": {"loads_kiops": [200.0], "duration": 0.0005}}),
    (["overload", "--scenario", "gray", "--duration", "0.001"],
     {"scenario": "overload",
      "workload": {"mode": "gray", "duration": 0.001}}),
    (["tenants", "--systems", "rio", "--loads", "50", "--initiators", "1",
      "--streams", "2", "--tenants", "8", "--qos", "--duration", "0.001"],
     {"scenario": "tenants", "topology": {"initiators": 1},
      "workload": {"systems": ["rio"], "loads_kiops": [50.0], "streams": 2,
                   "num_tenants": 8, "qos": True, "duration": 0.001}}),
    (["tenants", "--systems", "rio", "--loads", "50", "--zipf-alpha", "0",
      "--duration", "0.001"],
     {"scenario": "tenants",
      "workload": {"systems": ["rio"], "loads_kiops": [50.0],
                   "zipf_alpha": None, "duration": 0.001}}),
    (["tenants", "--systems", "rio", "--loads", "50", "--tenants", "16",
      "--zipf-alpha", "0", "--qos", "--duration", "0.0005"],
     {"scenario": "tenants",
      "workload": {"systems": ["rio"], "loads_kiops": [50.0],
                   "num_tenants": 16, "zipf_alpha": None, "qos": True,
                   "duration": 0.0005}}),
    (["tenants", "--storm", "--systems", "rio"],
     {"scenario": "tenants",
      "workload": {"mode": "storm", "systems": ["rio"]}}),
    (["qualify", "--systems", "rio",
      "--floor", "matrix/rio/4K/qd1/seq:min_kiops=1"],
     {"scenario": "qualify", "workload": {"systems": ["rio"]},
      "policies": {"floors": {"matrix/rio/4K/qd1/seq": {"min_kiops": 1.0}}}}),
    (["check", "--systems", "linux", "--layouts", "optane", "--seeds", "0",
      "--streams", "1", "--groups", "2", "--writes", "1", "--depth", "1"],
     {"scenario": "check", "oracle": {"max_points": 20},
      "workload": {"systems": ["linux"], "layouts": ["optane"],
                   "seeds": [0], "streams": 1, "groups_per_stream": 2,
                   "writes_per_group": 1, "depth": 1}}),
]


@pytest.mark.parametrize("argv, doc", VERB_SPECS, ids=[
    "saturate", "overload-metastable", "overload-gray", "tenants-qos",
    "tenants-uniform", "tenants-uniform-qos", "tenants-storm", "qualify",
    "check",
])
def test_verb_and_its_spec_file_are_one_scenario(argv, doc, tmp_path,
                                                 capsys):
    cache_dir = str(tmp_path / "cache")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    verb_code = main(argv + ["--cache", "--cache-dir", cache_dir])
    verb_out = capsys.readouterr().out
    assert f"[{argv[0]}: " in verb_out
    assert "scenario cache hit" not in verb_out
    assert main(["run", str(spec_path), "--cache",
                 "--cache-dir", cache_dir]) == verb_code
    spec_out = capsys.readouterr().out
    assert "scenario cache hit" in spec_out

    def report(text):
        return [line for line in text.splitlines()
                if not line.startswith(f"[{argv[0]}: ")
                and not line.startswith("[run ")]

    assert report(verb_out) == report(spec_out)


def test_sweep_spec_file_honours_clear_cache(tmp_path, capsys):
    doc = dict(VERB_SPECS[-1][1])
    spec_path = tmp_path / "check.json"
    spec_path.write_text(json.dumps(doc))
    argv = ["sweep", str(spec_path), "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    assert "scenario cache hit" not in capsys.readouterr().out
    assert main(argv) == 0
    assert "scenario cache hit" in capsys.readouterr().out
    assert main(argv + ["--clear-cache"]) == 0
    out = capsys.readouterr().out
    assert "cleared " in out
    assert "scenario cache hit" not in out
    assert "[sweep check " in out
