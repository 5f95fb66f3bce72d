"""Property-based chaos: for any seeded fault plan (message loss ≤5%,
corruption, delay, QP breakdowns, target stalls), the hardened stacks must
preserve their ordering contracts and make forward progress."""

from hypothesis import given, settings, strategies as st

from repro.harness.chaos import build_fault_plan, run_chaos_trial


def assert_invariants(result):
    assert not result.deadlocked, result.deadlock_reason
    assert result.completed_groups == result.total_groups, (
        f"forward progress lost: {result.completed_groups}/"
        f"{result.total_groups}"
    )
    assert result.completion_order_violations == [], result.summary()
    assert result.duplicate_applies == [], (
        "a retransmitted ordered write was applied twice: "
        f"{result.duplicate_applies}"
    )
    assert result.submission_order_violations == [], (
        "per-stream SSD submission order regressed: "
        f"{result.submission_order_violations}"
    )
    assert result.errors == [], result.errors
    assert result.leak_error == "", result.leak_error


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_rio_invariants_hold_under_random_fault_plans(seed):
    result = run_chaos_trial(
        system="rio", seed=seed, threads=2, groups_per_thread=8
    )
    assert_invariants(result)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_linux_invariants_hold_under_random_fault_plans(seed):
    result = run_chaos_trial(
        system="linux", seed=seed, threads=2, groups_per_thread=6
    )
    assert_invariants(result)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_fault_plans_always_meet_the_chaos_floor(seed):
    """Every generated plan has ≥1 breakdown, ≥1 stall, loss ≤5%."""
    plan = build_fault_plan(seed, num_qps=4, num_targets=1)
    kinds = [kind for kind, _at, _detail in plan._timed]
    assert kinds.count("qp_breakdown") >= 1
    assert kinds.count("target_stall") >= 1
    assert plan.message_loss <= 0.05
    assert plan.message_loss + plan.corruption + plan.delay_probability <= 1
