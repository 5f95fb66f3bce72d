"""Property-based ScenarioSpec guarantees: for any valid document,
serialize → parse → canonicalize is idempotent, the digest is stable
under renaming/reordering, and diff is a true equivalence check; for any
JSON value at all, loading yields a spec or a SpecError, nothing else.

No simulation runs here — these exercise the model only, so the suite
stays fast enough for every CI tier.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.check import WorkloadSpec
from repro.spec import (
    SCENARIOS,
    ScenarioSpec,
    SpecError,
    diff_specs,
)
from repro.spec import scenario as scenario_mod

# ----------------------------------------------------------------------
# Document strategies (valid by construction)
# ----------------------------------------------------------------------

_SYSTEMS = ["rio", "horae", "linux"]


def _subset(items):
    return st.lists(st.sampled_from(items), min_size=1,
                    max_size=len(items), unique=True)


chaos_docs = st.fixed_dictionaries(
    {"scenario": st.just("chaos")},
    optional={
        "name": st.text(max_size=20),
        "workload": st.fixed_dictionaries({}, optional={
            "systems": _subset(_SYSTEMS),
            "trials": st.integers(1, 8),
            "base_seed": st.integers(0, 10_000),
            "threads": st.integers(1, 6),
            "groups_per_thread": st.integers(1, 16),
            "depth": st.integers(1, 8),
        }),
        "faults": st.fixed_dictionaries({}, optional={
            "seed": st.integers(0, 1000),
            "delay_probability": st.floats(0, 0.3),
            "message_loss": st.floats(0, 0.3),
        }),
    },
)

saturate_docs = st.fixed_dictionaries(
    {"scenario": st.just("saturate")},
    optional={
        "name": st.text(max_size=20),
        "topology": st.fixed_dictionaries({}, optional={
            "initiators": st.integers(1, 4),
            "steering": st.sampled_from(
                ["pin", "round-robin", "least-loaded", "flow-hash"]),
        }),
        "workload": st.fixed_dictionaries({}, optional={
            "loads_kiops": st.lists(
                st.one_of(st.integers(1, 2000),
                          st.floats(1, 2000, allow_nan=False)),
                min_size=1, max_size=4),
            "tenants": st.integers(1, 8),
            "seed": st.integers(0, 10_000),
        }),
    },
)

check_docs = st.fixed_dictionaries(
    {"scenario": st.just("check"),
     "workload": st.fixed_dictionaries(
         {"systems": _subset(_SYSTEMS + ["barrier"]),
          "layouts": _subset(["optane", "flash"])},
         optional={
             "seeds": st.lists(st.integers(0, 100), min_size=1,
                               max_size=3, unique=True),
             "streams": st.integers(1, 4),
             "depth": st.integers(1, 4),
         })},
    optional={
        "oracle": st.fixed_dictionaries({}, optional={
            "max_points": st.integers(0, 32),
            "shrink": st.booleans(),
        }),
    },
)

qualify_docs = st.fixed_dictionaries(
    {"scenario": st.just("qualify")},
    optional={
        "workload": st.fixed_dictionaries({}, optional={
            "profile": st.sampled_from(["smoke", "full"]),
            "seed": st.integers(0, 100),
            "sustained": st.booleans(),
        }),
    },
)

spec_docs = st.one_of(chaos_docs, saturate_docs, check_docs, qualify_docs)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@given(doc=spec_docs)
@settings(max_examples=80, deadline=None)
def test_canonicalization_is_idempotent(doc):
    spec = ScenarioSpec.from_dict(doc)
    canon = spec.canonical_json()
    again = ScenarioSpec.from_json(canon)
    assert again == spec
    assert again.canonical_json() == canon
    assert again.digest() == spec.digest()


@given(doc=spec_docs, name=st.text(max_size=30))
@settings(max_examples=50, deadline=None)
def test_digest_excludes_the_display_name(doc, name):
    spec = ScenarioSpec.from_dict(doc)
    renamed = spec.with_(name=name)
    assert renamed.digest() == spec.digest()
    assert renamed.name == name


@given(doc=spec_docs)
@settings(max_examples=50, deadline=None)
def test_digest_survives_key_reordering(doc):
    spec = ScenarioSpec.from_dict(doc)
    # Re-encode with reversed key order at every level.
    def reorder(value):
        if isinstance(value, dict):
            return {k: reorder(value[k]) for k in reversed(list(value))}
        if isinstance(value, list):
            return [reorder(v) for v in value]
        return value

    shuffled = ScenarioSpec.from_dict(
        json.loads(json.dumps(reorder(spec.to_dict())))
    )
    assert shuffled.digest() == spec.digest()


@given(doc=spec_docs)
@settings(max_examples=50, deadline=None)
def test_diff_of_equal_specs_is_empty(doc):
    a = ScenarioSpec.from_dict(doc)
    b = ScenarioSpec.from_json(a.canonical_json())
    assert diff_specs(a, b) == []


@given(doc=spec_docs)
@settings(max_examples=50, deadline=None)
def test_load_spec_accepts_its_own_canonical_output(doc):
    spec = ScenarioSpec.from_dict(doc)
    assert ScenarioSpec.from_dict(json.loads(spec.canonical_json())) == spec


@given(loads=st.lists(st.integers(1, 1000), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_integer_loads_stay_integers(loads):
    spec = ScenarioSpec.from_dict(
        {"scenario": "saturate", "workload": {"loads_kiops": loads}}
    )
    assert spec.workload["loads_kiops"] == loads
    assert all(isinstance(v, int) for v in spec.workload["loads_kiops"])


# ----------------------------------------------------------------------
# Robustness: arbitrary JSON never escapes as anything but SpecError
# ----------------------------------------------------------------------

#: Every name the loader knows (top-level keys, section fields, values
#: that steer it: scenarios, modes, kinds, names), plus the keys of the
#: pre-spec documents it rejects.
_FIELD_NAMES = sorted(
    {"version", "scenario", "name", "topology", "devices", "workload",
     "faults", "policies", "oracle", "kind", "spec", "timed"}
    | {key for table in scenario_mod._WORKLOADS.values() for key in table}
    | set(scenario_mod._TOPOLOGY) | set(scenario_mod._DEVICES)
    | set(scenario_mod._POLICIES) | set(scenario_mod._ORACLE)
    | set(scenario_mod._FAULT_FIELDS) | set(WorkloadSpec.__dataclass_fields__)
    | {key for table in scenario_mod._TIMED_KINDS.values() for key in table}
)
_MEANINGFUL = [
    *SCENARIOS, *scenario_mod._TIMED_KINDS, "repro-check-reproducer",
    "fig3", "fig14", "recovery", "rio", "linux", "optane", "flash-qual",
    "gray", "storm", "smoke", "full", "off", "pin",
]

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=8), st.sampled_from(_MEANINGFUL),
)
_keys = st.one_of(st.sampled_from(_FIELD_NAMES), st.text(max_size=8))
json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=16,
)
#: Documents that get past the first checks: a real scenario, real
#: section names, arbitrary (often real-keyed) contents.
scenario_shaped = st.fixed_dictionaries(
    {"scenario": st.sampled_from(SCENARIOS)},
    optional={
        section: st.dictionaries(_keys, json_values, max_size=5)
        for section in ("topology", "devices", "workload", "faults",
                        "policies", "oracle")
    },
)
reproducer_shaped = st.fixed_dictionaries(
    {"kind": st.just("repro-check-reproducer")},
    optional={"spec": json_values},
)


@given(doc=st.one_of(json_values, scenario_shaped, reproducer_shaped))
@settings(max_examples=400, deadline=None)
def test_load_spec_yields_a_spec_or_a_spec_error(doc):
    try:
        spec = ScenarioSpec.from_dict(doc)
    except SpecError:
        return
    assert isinstance(spec, ScenarioSpec)
