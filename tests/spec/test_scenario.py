"""Unit tests for the ScenarioSpec model: normalization, validation,
canonical serialization, digests, loaders and diff."""

import json

import pytest

from repro.spec import (
    SCENARIOS,
    SPEC_VERSION,
    ScenarioSpec,
    SpecError,
    diff_specs,
    load_spec,
    load_spec_file,
    upgrade_fault_plan,
    upgrade_workload_spec,
)


# ----------------------------------------------------------------------
# Normalization + defaults
# ----------------------------------------------------------------------


def test_minimal_spec_materializes_every_default():
    spec = ScenarioSpec.from_dict({"scenario": "saturate"})
    assert spec.version == SPEC_VERSION
    assert spec.scenario == "saturate"
    # Scenario-specific topology defaults (the legacy kwargs defaults).
    assert spec.topology == {"layout": "optane", "initiators": 2,
                            "steering": "pin"}
    assert spec.workload["systems"] == ["linux", "horae", "rio", "barrier"]
    assert spec.workload["loads_kiops"] == [25, 50, 100, 200, 400, 800]
    assert spec.faults is None
    assert spec.oracle == {"enabled": True, "max_points": 0, "shrink": True}


def test_scenario_specific_defaults_differ():
    chaos = ScenarioSpec.from_dict({"scenario": "chaos"})
    qualify = ScenarioSpec.from_dict({"scenario": "qualify"})
    assert chaos.topology["layout"] == "optane"
    assert chaos.topology["initiators"] == 1
    assert qualify.topology["layout"] == "flash-qual"
    # qualify's nullable workload axes resolve from the profile.
    assert qualify.workload["profile"] == "smoke"
    assert qualify.workload["systems"] == ["rio", "linux"]
    assert qualify.workload["blocks_kib"] == [4, 64]


def test_overload_duration_resolves_per_mode():
    meta = ScenarioSpec.from_dict({"scenario": "overload"})
    gray = ScenarioSpec.from_dict(
        {"scenario": "overload", "workload": {"mode": "gray"}}
    )
    assert meta.workload["duration"] == pytest.approx(2e-3)
    assert gray.workload["duration"] == pytest.approx(4e-3)


def test_check_systems_default_is_the_matrix():
    from repro.check.runner import DEFAULT_MATRIX

    spec = ScenarioSpec.from_dict({"scenario": "check"})
    assert spec.workload["systems"] == list(DEFAULT_MATRIX)
    assert spec.workload["layouts"] is None


def test_number_fields_preserve_int_vs_float():
    ints = ScenarioSpec.from_dict(
        {"scenario": "saturate", "workload": {"loads_kiops": [100, 200]}}
    )
    floats = ScenarioSpec.from_dict(
        {"scenario": "saturate", "workload": {"loads_kiops": [100.0, 200.0]}}
    )
    assert ints.workload["loads_kiops"] == [100, 200]
    assert all(isinstance(v, int) for v in ints.workload["loads_kiops"])
    assert all(isinstance(v, float) for v in floats.workload["loads_kiops"])
    # ...and therefore the canonical forms (and digests) differ: the
    # compiled cells really do render differently downstream.
    assert ints.canonical_json() != floats.canonical_json()


# ----------------------------------------------------------------------
# Rejection: unknown fields, bad values, misplaced sections
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"scenario": "nope"}, "spec.scenario"),
        ({"scenario": "chaos", "version": 2}, "spec.version"),
        ({"scenario": "chaos", "bogus": 1}, "unknown"),
        ({"scenario": "chaos", "workload": {"bogus": 1}}, "unknown field"),
        ({"scenario": "chaos", "workload": {"trials": 0}}, "trials"),
        ({"scenario": "chaos", "workload": {"trials": "three"}}, "trials"),
        ({"scenario": "saturate",
          "topology": {"steering": "warp"}}, "steering"),
        ({"scenario": "saturate", "workload": {"loads_kiops": []}},
         "at least one load"),
        ({"scenario": "figure", "workload": {"figure": "fig99"}},
         "unknown figure"),
        ({"scenario": "figure"}, "figure"),  # required field missing
    ],
)
def test_invalid_documents_raise_spec_error(data, fragment):
    with pytest.raises(SpecError, match=fragment):
        ScenarioSpec.from_dict(data)


def test_unused_sections_are_rejected():
    with pytest.raises(SpecError, match="does not use this section"):
        ScenarioSpec.from_dict(
            {"scenario": "figure", "workload": {"figure": "fig3"},
             "topology": {"initiators": 4}}
        )
    with pytest.raises(SpecError, match="does not support an embedded"):
        ScenarioSpec.from_dict(
            {"scenario": "saturate", "faults": {"seed": 1}}
        )


def test_check_rejects_unsafe_faults():
    base = {"scenario": "check",
            "workload": {"systems": ["linux"], "layouts": ["optane"]}}
    with pytest.raises(SpecError, match="unhardened driver"):
        ScenarioSpec.from_dict({**base, "faults": {"message_loss": 0.05}})
    with pytest.raises(SpecError, match="not\\s+supported under the crash"):
        ScenarioSpec.from_dict(
            {**base,
             "faults": {"timed": [{"kind": "qp_breakdown", "at": 1e-4,
                                   "qp_index": 0}]}}
        )
    # Delay + stall/degrade are the sanctioned check faults.
    spec = ScenarioSpec.from_dict(
        {**base,
         "faults": {"delay_probability": 0.01,
                    "timed": [{"kind": "target_stall", "at": 1e-4,
                               "target_index": 0, "duration": 5e-5}]}}
    )
    assert spec.faults["delay_probability"] == pytest.approx(0.01)


def test_check_requires_explicit_layouts_for_nondefault_topology():
    with pytest.raises(SpecError, match="explicit layouts are required"):
        ScenarioSpec.from_dict(
            {"scenario": "check", "topology": {"initiators": 2}}
        )
    spec = ScenarioSpec.from_dict(
        {"scenario": "check", "topology": {"initiators": 2},
         "workload": {"systems": ["rio"], "layouts": ["2optane-2targets"]}}
    )
    assert spec.topology["initiators"] == 2


def test_gray_mode_is_a_fixed_cell():
    with pytest.raises(SpecError, match="fixed\\s+single-cell"):
        ScenarioSpec.from_dict(
            {"scenario": "overload",
             "workload": {"mode": "gray", "tenants": 8}}
        )
    with pytest.raises(SpecError, match="fixed\\s+2-target layout"):
        ScenarioSpec.from_dict(
            {"scenario": "overload", "workload": {"mode": "gray"},
             "topology": {"initiators": 1}}
        )


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"scenario": "saturate", "workload": {"systems": ["zfs"]}},
         "workload.systems: unknown system"),
        ({"scenario": "qualify", "workload": {"systems": ["zfs"]}},
         "workload.systems: unknown system"),
        ({"scenario": "tenants", "workload": {"systems": ["rio", "zfs"]}},
         "workload.systems: unknown system"),
        ({"scenario": "chaos", "workload": {"systems": ["zfs"]}},
         "workload.systems: unknown system"),
        # make_stack builds orderless, but the check matrix has no cells
        # for it.
        ({"scenario": "check", "workload": {"systems": ["orderless"]}},
         "workload.systems: unknown system"),
        ({"scenario": "saturate", "topology": {"layout": "nope"}},
         "topology.layout: unknown layout"),
        ({"scenario": "chaos", "topology": {"layout": "nope"}},
         "topology.layout: unknown layout"),
        ({"scenario": "check",
          "workload": {"systems": ["rio"], "layouts": ["optane", "nope"]}},
         "workload.layouts: unknown layout"),
    ],
)
def test_unbuildable_systems_and_layouts_are_rejected(data, fragment):
    # These used to validate and then raise ValueError mid-run.
    with pytest.raises(SpecError, match=fragment):
        ScenarioSpec.from_dict(data)


def test_gray_mode_rejects_protection_profiles():
    with pytest.raises(SpecError, match="protected stack only"):
        ScenarioSpec.from_dict(
            {"scenario": "overload", "workload": {"mode": "gray"},
             "policies": {"protections": ["off"]}}
        )


def test_policy_sections_are_scenario_scoped():
    with pytest.raises(SpecError, match="only the qualify scenario"):
        ScenarioSpec.from_dict(
            {"scenario": "overload",
             "policies": {"floors": {"x": {"y": 1}}}}
        )
    with pytest.raises(SpecError, match="only the overload scenario"):
        ScenarioSpec.from_dict(
            {"scenario": "qualify", "policies": {"protections": ["off"]}}
        )
    with pytest.raises(SpecError, match="unknown profile"):
        ScenarioSpec.from_dict(
            {"scenario": "overload", "policies": {"protections": ["soft"]}}
        )
    with pytest.raises(SpecError, match="expected a number"):
        ScenarioSpec.from_dict(
            {"scenario": "qualify",
             "policies": {"floors": {"cell": {"goodput": "high"}}}}
        )


# ----------------------------------------------------------------------
# Canonical form, digest, equality
# ----------------------------------------------------------------------


def test_canonical_json_round_trips_to_an_equal_spec():
    spec = ScenarioSpec.from_dict(
        {"scenario": "chaos", "name": "demo",
         "workload": {"trials": 3, "systems": ["rio"]},
         "faults": {"seed": 9, "delay_probability": 0.02}}
    )
    again = ScenarioSpec.from_json(spec.canonical_json())
    assert again == spec
    assert again.canonical_json() == spec.canonical_json()
    assert again.digest() == spec.digest()


def test_digest_ignores_name_but_not_content():
    a = ScenarioSpec.from_dict({"scenario": "saturate"})
    b = a.with_(name="same experiment, different label")
    c = a.with_(workload={**a.workload, "seed": 43})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 64


def test_equivalent_documents_share_one_digest():
    # Explicitly writing out the defaults changes nothing.
    implicit = ScenarioSpec.from_dict({"scenario": "saturate"})
    explicit = ScenarioSpec.from_dict(
        {"scenario": "saturate", "version": 1,
         "topology": {"layout": "optane", "initiators": 2,
                      "steering": "pin"},
         "workload": {"tenants": 4, "seed": 42}}
    )
    assert implicit.digest() == explicit.digest()


# ----------------------------------------------------------------------
# Loaders: v1 + every legacy shape
# ----------------------------------------------------------------------


def test_load_spec_accepts_v1_documents():
    spec = load_spec({"scenario": "chaos", "workload": {"trials": 2}})
    assert isinstance(spec, ScenarioSpec)
    assert spec.workload["trials"] == 2


def test_load_spec_upgrades_a_bare_workload_spec():
    legacy = {"system": "rio", "layout": "flash", "seed": 3, "streams": 1,
              "max_points": 4}
    spec = load_spec(legacy)
    assert spec.scenario == "check"
    assert spec.workload["systems"] == ["rio"]
    assert spec.workload["layouts"] == ["flash"]
    assert spec.workload["seeds"] == [3]
    assert spec.workload["streams"] == 1
    assert spec.oracle["max_points"] == 4


def test_load_spec_upgrades_a_bare_fault_plan():
    spec = load_spec({"seed": 11, "delay_probability": 0.03})
    assert spec.scenario == "chaos"
    assert spec.workload["trials"] == 1
    assert spec.faults["seed"] == 11
    assert spec.faults["delay_probability"] == pytest.approx(0.03)


def test_load_spec_upgrades_a_check_reproducer(tmp_path):
    from repro.check import WorkloadSpec, check_workload, dump_reproducer

    wspec = WorkloadSpec(system="linux", streams=1, groups_per_stream=2,
                         writes_per_group=1, depth=1, max_points=4)
    path = tmp_path / "repro.json"
    dump_reproducer(path, check_workload(wspec))
    spec = load_spec_file(path)
    assert spec.scenario == "check"
    assert spec.workload["systems"] == ["linux"]
    assert spec == upgrade_workload_spec(wspec.to_dict())


def test_load_spec_rejects_garbage():
    with pytest.raises(SpecError, match="unrecognized document"):
        load_spec({"what": "is this"})
    with pytest.raises(SpecError, match="expected an object"):
        load_spec([1, 2, 3])


def test_load_spec_file_wraps_errors_with_the_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError, match="not valid JSON"):
        load_spec_file(bad)
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"scenario": "warp"}))
    with pytest.raises(SpecError, match="invalid.json"):
        load_spec_file(invalid)


def test_upgrade_fault_plan_round_trips_through_faultplan():
    from repro.sim.faults import FaultPlan

    plan = FaultPlan(seed=5, delay_probability=0.02)
    plan.target_stall(at=1e-4, target_index=0, duration=5e-5)
    spec = upgrade_fault_plan(plan.to_dict())
    rebuilt = FaultPlan.from_dict(spec.faults)
    assert rebuilt.to_dict() == plan.to_dict()


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------


def test_diff_specs_reports_dotted_paths():
    a = ScenarioSpec.from_dict({"scenario": "saturate"})
    b = ScenarioSpec.from_dict(
        {"scenario": "saturate",
         "workload": {"seed": 7, "loads_kiops": [100]}}
    )
    diff = diff_specs(a, b)
    paths = [p for p, _, _ in diff]
    assert "workload.loads_kiops" in paths
    assert "workload.seed" in paths
    assert diff_specs(a, a) == []


def test_every_scenario_has_a_minimal_document():
    for scenario in SCENARIOS:
        data = {"scenario": scenario}
        if scenario == "figure":
            data["workload"] = {"figure": "fig3"}
        spec = ScenarioSpec.from_dict(data)
        assert spec.scenario == scenario
        assert ScenarioSpec.from_json(spec.canonical_json()) == spec


def test_saturate_rejects_an_engine_field():
    # There is one engine; a document that still picks one is rejected
    # like any other unknown field.
    with pytest.raises(SpecError, match="engine"):
        ScenarioSpec.from_dict(
            {"scenario": "saturate", "workload": {"engine": "heap"}}
        )


# ----------------------------------------------------------------------
# The tenants scenario
# ----------------------------------------------------------------------


def test_tenants_duration_resolves_per_mode():
    curves = ScenarioSpec.from_dict({"scenario": "tenants"})
    storm = ScenarioSpec.from_dict(
        {"scenario": "tenants", "workload": {"mode": "storm"}}
    )
    assert curves.workload["duration"] == pytest.approx(2e-3)
    assert storm.workload["duration"] == pytest.approx(3e-3)


def test_tenants_rejects_degenerate_knob_values():
    with pytest.raises(SpecError, match="trough rate"):
        ScenarioSpec.from_dict(
            {"scenario": "tenants", "workload": {"diurnal_amplitude": 1.0}}
        )
    with pytest.raises(SpecError, match="null for an unskewed"):
        ScenarioSpec.from_dict(
            {"scenario": "tenants", "workload": {"zipf_alpha": 0.0}}
        )
    # null *is* the unskewed population.
    spec = ScenarioSpec.from_dict(
        {"scenario": "tenants", "workload": {"zipf_alpha": None}}
    )
    assert spec.workload["zipf_alpha"] is None


def test_tenants_storm_mode_is_a_fixed_experiment():
    with pytest.raises(SpecError, match="sweeps QoS on/off itself"):
        ScenarioSpec.from_dict(
            {"scenario": "tenants",
             "workload": {"mode": "storm", "qos": True}}
        )
    with pytest.raises(SpecError, match="fixed single-initiator testbed"):
        ScenarioSpec.from_dict(
            {"scenario": "tenants", "workload": {"mode": "storm"},
             "topology": {"initiators": 4}}
        )
    # The knobs that do apply key the digest.
    base = ScenarioSpec.from_dict(
        {"scenario": "tenants", "workload": {"mode": "storm"}}
    )
    tuned = ScenarioSpec.from_dict(
        {"scenario": "tenants",
         "workload": {"mode": "storm", "quantum": 4.0, "seed": 7}}
    )
    assert tuned.digest() != base.digest()


def test_tenants_curves_require_a_load_ladder():
    with pytest.raises(SpecError, match="loads_kiops"):
        ScenarioSpec.from_dict(
            {"scenario": "tenants", "workload": {"loads_kiops": []}}
        )
    # The storm carries no ladder; an empty list is only wrong in curves.
    storm = ScenarioSpec.from_dict(
        {"scenario": "tenants", "workload": {"mode": "storm"}}
    )
    assert storm.workload["mode"] == "storm"
