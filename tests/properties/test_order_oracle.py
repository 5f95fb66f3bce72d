"""Property-based tests of the pure order oracle (``repro.check.oracle``).

Strategy: synthesize arbitrary per-group survival patterns and acked sets,
then check the oracle's verdict against independently-written reference
predicates of each system's contract — the oracle must flag a state if and
only if the contract is actually violated.
"""

from hypothesis import given, settings, strategies as st

from repro.check.oracle import (
    acked_groups,
    check_order_invariants,
    group_status,
)
from repro.check.workload import Completion, GroupPlan, WorkloadSpec, WritePlan
from repro.spec import ScenarioSpec
from repro.spec.compile import _check_cell_spec, _check_cells

STATUSES = st.sampled_from(["full", "partial", "none"])
_FLAGS = {"full": [True, True], "partial": [True, False],
          "none": [False, False]}


def _plan_and_survival(statuses, flush_indices):
    plan, survival = [], {}
    for i, status in enumerate(statuses):
        index = i + 1
        tokens = (("chk", 0, index, 0, 0), ("chk", 0, index, 0, 1))
        plan.append(GroupPlan(0, index, index in flush_indices,
                              (WritePlan(i * 2, 2, tokens),)))
        survival[(0, index)] = [list(_FLAGS[status])]
    return plan, survival


@st.composite
def oracle_cases(draw):
    statuses = draw(st.lists(STATUSES, min_size=1, max_size=8))
    indices = range(1, len(statuses) + 1)
    flush = {i for i in indices if draw(st.booleans())}
    acked = {(0, i) for i in indices if draw(st.booleans())}
    return statuses, flush, acked


def _ref_rollback_ok(statuses):
    k = 0
    while k < len(statuses) and statuses[k] == "full":
        k += 1
    return all(s == "none" for s in statuses[k:])


def _ref_linux_ok(statuses):
    k = 0
    while k < len(statuses) and statuses[k] == "full":
        k += 1
    if k < len(statuses) and statuses[k] == "partial":
        k += 1
    return all(s == "none" for s in statuses[k:])


def _ref_barrier_ok(statuses):
    flat = [f for s in statuses for f in _FLAGS[s]]
    return all(not later or earlier
               for earlier, later in zip(flat, flat[1:]))


def _ref_fsync_ok(statuses, flush, acked):
    return all(statuses[i - 1] == "full"
               for i in flush if (0, i) in acked)


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_rollback_oracle_matches_reference(case):
    statuses, flush, acked = case
    plan, survival = _plan_and_survival(statuses, flush)
    for system in ("rio", "horae"):
        violations = check_order_invariants(system, plan, survival, acked)
        order = [v for v in violations if v.kind != "lost-fsync"]
        assert (not order) == _ref_rollback_ok(statuses)
        fsync = [v for v in violations if v.kind == "lost-fsync"]
        assert (not fsync) == _ref_fsync_ok(statuses, flush, acked)


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_linux_oracle_matches_reference(case):
    statuses, flush, acked = case
    plan, survival = _plan_and_survival(statuses, flush)
    violations = check_order_invariants("linux", plan, survival, acked)
    order = [v for v in violations if v.kind != "lost-fsync"]
    assert (not order) == _ref_linux_ok(statuses)


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_barrier_oracle_matches_reference(case):
    statuses, flush, acked = case
    plan, survival = _plan_and_survival(statuses, flush)
    violations = check_order_invariants("barrier", plan, survival, acked)
    order = [v for v in violations if v.kind != "lost-fsync"]
    assert (not order) == _ref_barrier_ok(statuses)


@settings(max_examples=200, deadline=None)
@given(st.lists(STATUSES, min_size=1, max_size=6).map(
    lambda s: ["full"] * s.count("full") + ["none"] * (len(s) - s.count("full"))
))
def test_clean_prefix_never_flagged(statuses):
    plan, survival = _plan_and_survival(statuses, set())
    for system in ("rio", "horae", "linux", "barrier"):
        assert check_order_invariants(system, plan, survival, set()) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1,
                                    allow_nan=False),
                          st.integers(0, 3), st.integers(1, 9)),
                max_size=12),
       st.floats(min_value=0, max_value=1, allow_nan=False))
def test_acked_groups_monotone_in_crash_time(raw, crash_time):
    completions = [Completion(t, s, g, False) for t, s, g in raw]
    acked = acked_groups(completions, crash_time)
    assert acked <= {(c.stream, c.group) for c in completions}
    later = acked_groups(completions, crash_time + 0.5)
    assert acked <= later


@settings(max_examples=200, deadline=None)
@given(st.builds(
    WorkloadSpec,
    system=st.sampled_from(["rio", "horae", "linux", "barrier"]),
    layout=st.sampled_from(["flash", "optane", "4ssd-1target"]),
    seed=st.integers(0, 2**31),
    streams=st.integers(1, 8),
    groups_per_stream=st.integers(1, 16),
    writes_per_group=st.integers(1, 8),
    depth=st.integers(1, 8),
    flush_every=st.integers(0, 4),
    max_points=st.integers(0, 64),
))
def test_spec_json_roundtrip_any_shape(spec):
    text = _check_cell_spec(spec).canonical_json()
    assert _check_cells(ScenarioSpec.from_json(text)) == [spec]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=4),
                min_size=1, max_size=4))
def test_group_status_partition(blocks):
    status = group_status(blocks)
    flat = [f for w in blocks for f in w]
    assert status == ("full" if all(flat)
                      else "none" if not any(flat) else "partial")
