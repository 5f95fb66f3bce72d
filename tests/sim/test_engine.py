"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment, Interrupt, Resource, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(0.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [1.5, 2.0]


def test_timeout_value_is_delivered():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def make(delay, tag):
        def proc(env):
            yield env.timeout(delay)
            order.append(tag)

        return proc

    env.process(make(3.0, "c")(env))
    env.process(make(1.0, "a")(env))
    env.process(make(2.0, "b")(env))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_manual_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append((env.now, value))

    def opener(env):
        yield env.timeout(2.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert seen == [(2.0, "open")]


def test_event_failure_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_process_is_waitable_and_returns_value():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(1.0, 42)]


def test_wait_on_already_finished_process():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(0.5)
        return "done"

    def parent(env, child_proc):
        yield env.timeout(2.0)
        value = yield child_proc
        results.append((env.now, value))

    child_proc = env.process(child(env))
    env.process(parent(env, child_proc))
    env.run()
    assert results == [(2.0, "done")]


def test_all_of_waits_for_every_event():
    env = Environment()
    seen = []

    def parent(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        values = yield env.all_of([t1, t2])
        seen.append((env.now, sorted(values.values())))

    env.process(parent(env))
    env.run()
    assert seen == [(3.0, ["a", "b"])]


def test_any_of_fires_on_first_event():
    env = Environment()
    seen = []

    def parent(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(3.0, value="slow")
        yield env.any_of([t1, t2])
        seen.append(env.now)

    env.process(parent(env))
    env.run()
    assert seen == [1.0]


def test_all_of_empty_fires_immediately():
    env = Environment()
    seen = []

    def parent(env):
        yield env.all_of([])
        seen.append(env.now)

    env.process(parent(env))
    env.run()
    assert seen == [0.0]


def test_run_until_advances_clock_exactly():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=5.0)
    assert env.now == 5.0


def test_run_until_does_not_execute_later_events():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(10.0)
        log.append("late")

    env.process(proc(env))
    env.run(until=5.0)
    assert log == []
    env.run(until=15.0)
    assert log == ["late"]


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "value"

    proc_event = env.process(proc(env))
    assert env.run_until_event(proc_event) == "value"
    assert env.now == 2.0


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append("overslept")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 1.0, "wake up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_chain_of_processes():
    env = Environment()
    hops = []

    def hop(env, n):
        yield env.timeout(1.0)
        hops.append(n)
        if n < 5:
            yield env.process(hop(env, n + 1))

    env.process(hop(env, 1))
    env.run()
    assert hops == [1, 2, 3, 4, 5]
    assert env.now == 5.0


def test_peek_reports_next_event_time():
    env = Environment()

    def proc(env):
        yield env.timeout(7.0)

    env.process(proc(env))
    # The bootstrap event is at t=0.
    assert env.peek() == 0.0
    env.step()
    assert env.peek() == 7.0


# ----------------------------------------------------------------------
# Liveness watching / SimDeadlock
# ----------------------------------------------------------------------


def test_watched_pending_event_raises_simdeadlock_on_drain():
    from repro.sim import SimDeadlock

    env = Environment()
    stuck = env.event()
    env.watch_liveness(stuck, "completion of cmd 7")

    def waiter(env):
        yield stuck

    env.process(waiter(env))
    with pytest.raises(SimDeadlock, match="completion of cmd 7"):
        env.run()


def test_simdeadlock_raised_from_run_until():
    from repro.sim import SimDeadlock

    env = Environment()
    stuck = env.event()
    env.watch_liveness(stuck, "stuck waiter")

    def waiter(env):
        yield stuck

    env.process(waiter(env))
    with pytest.raises(SimDeadlock):
        env.run(until=10.0)


def test_simdeadlock_raised_from_run_until_event():
    from repro.sim import SimDeadlock

    env = Environment()
    stuck = env.event()
    other = env.event()
    env.watch_liveness(stuck, "stuck waiter")
    with pytest.raises(SimDeadlock):
        env.run_until_event(other)


def test_fired_watched_event_is_not_a_deadlock():
    env = Environment()
    done = env.event()
    env.watch_liveness(done, "fires later")

    def firer(env):
        yield env.timeout(1.0)
        done.succeed()

    env.process(firer(env))
    env.run()  # must not raise
    assert done.triggered


def test_unwatch_liveness_clears_registration():
    env = Environment()
    stuck = env.event()
    token = env.watch_liveness(stuck, "will be unwatched")
    env.unwatch_liveness(token)

    def waiter(env):
        yield stuck

    env.process(waiter(env))
    env.run()  # drains with a stuck waiter, but nothing is watched


def test_unwatched_drain_stays_silent():
    """Without liveness registrations, a drained heap is a normal finish."""
    env = Environment()
    stuck = env.event()

    def waiter(env):
        yield stuck

    env.process(waiter(env))
    env.run()
    assert not stuck.triggered


def test_simdeadlock_message_caps_listed_waiters():
    from repro.sim import SimDeadlock

    env = Environment()
    for i in range(12):
        env.watch_liveness(env.event(), f"waiter {i}")
    with pytest.raises(SimDeadlock, match=r"\+4 more"):
        env.run()


# ---------------------------------------------------------------------------
# Timeout cancellation (watchdog-arm disarming)
# ---------------------------------------------------------------------------


def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []

    def waiter(env, timeout):
        value = yield timeout
        fired.append(value)

    timeout = env.timeout(1e-6, value="boom")
    env.process(waiter(env, timeout))
    timeout.cancel()
    env.run()
    assert fired == []
    assert env.live_heap_size() == 0


def test_cancel_after_fire_is_noop():
    env = Environment()
    timeout = env.timeout(1e-6, value=7)
    results = []

    def waiter(env):
        results.append((yield timeout))

    env.process(waiter(env))
    env.run()
    timeout.cancel()  # already processed: must not corrupt accounting
    assert results == [7]
    assert env.live_heap_size() == 0


def test_cancel_skips_entry_without_advancing_clock():
    env = Environment()
    late = env.timeout(5e-6)
    early = env.timeout(1e-6)
    early.cancel()
    assert env.peek() == pytest.approx(5e-6)
    env.step()
    assert env.now == pytest.approx(5e-6)
    assert late.processed


def test_watchdog_pattern_does_not_accumulate_heap_entries():
    # The initiator-watchdog shape: any_of([done, expiry]) where done wins
    # and the loser expiry is cancelled.  The heap must stay flat instead
    # of retaining one armed timer per completed iteration.
    env = Environment()

    def one_arm(env):
        done = env.event()
        expiry = env.timeout(1e-3)

        def complete(env):
            yield env.timeout(1e-6)
            done.succeed()

        env.process(complete(env))
        yield env.any_of([done, expiry])
        assert done.triggered
        expiry.cancel()

    def driver(env):
        for _ in range(200):
            yield env.process(one_arm(env))

    env.process(driver(env))
    env.run()
    assert env.live_heap_size() == 0
    # Lazy compaction must have swept the dead entries in bulk: the heap
    # cannot still hold anywhere near one stale entry per iteration.
    assert len(env._heap) < 100


def test_cancelled_heap_compaction_keeps_live_entries():
    env = Environment()
    keep = env.timeout(1.0)
    doomed = [env.timeout(0.5) for _ in range(200)]
    for timeout in doomed:
        timeout.cancel()
    # Compaction triggered along the way; the live entry must survive.
    assert env.live_heap_size() == 1
    assert len(env._heap) < 200
    env.run()
    assert keep.processed
    assert env.now == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Event-lifecycle regressions: conditions over cancelled members, deadlock
# detection under run(until=...), non-event yields, and interrupts inside
# the immediate-resume window.
# ---------------------------------------------------------------------------


def test_all_of_fails_when_member_is_cancelled():
    # Regression: all_of over a cancelled arm used to hang forever (the
    # condition silently waited on an event that can never fire).
    env = Environment()
    a = env.timeout(1e-6)
    b = env.timeout(2e-6)
    cond = env.all_of([a, b])
    caught = []

    def waiter(env):
        try:
            yield cond
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    b.cancel()
    env.run()
    assert len(caught) == 1
    assert "can never fire" in caught[0]


def test_any_of_survives_cancelled_member_with_live_arm():
    env = Environment()
    a = env.timeout(1e-6, value="a")
    b = env.timeout(2e-6)
    cond = env.any_of([a, b])
    seen = []

    def waiter(env):
        seen.append((yield cond))

    env.process(waiter(env))
    b.cancel()
    env.run()
    assert len(seen) == 1
    assert seen[0][a] == "a"
    assert env.now == pytest.approx(1e-6)


def test_any_of_fails_when_every_member_is_cancelled():
    env = Environment()
    a = env.timeout(1e-6)
    b = env.timeout(2e-6)
    cond = env.any_of([a, b])
    caught = []

    def waiter(env):
        try:
            yield cond
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    a.cancel()
    b.cancel()
    env.run()
    assert len(caught) == 1
    assert "2 of 2" in caught[0]


def test_condition_over_already_cancelled_member_fails_at_creation():
    env = Environment()
    t = env.timeout(1e-6)
    t.cancel()
    cond = env.all_of([t])
    assert cond.triggered
    assert not cond.ok
    caught = []

    def waiter(env):
        try:
            yield cond
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    env.run()
    assert len(caught) == 1


def test_run_until_detects_deadlock_behind_cancelled_tail():
    # Regression: run(until=...) skipped the deadlock check whenever the
    # heap still held entries past `until` — even if every one of them was
    # a cancelled husk that can never fire.
    from repro.sim import SimDeadlock

    env = Environment()
    env.watch_liveness(env.event(), "stuck waiter")
    late = env.timeout(10.0)
    late.cancel()
    with pytest.raises(SimDeadlock, match="stuck waiter"):
        env.run(until=1.0)


def test_run_until_no_deadlock_while_live_entry_remains():
    from repro.sim import SimDeadlock  # noqa: F401 - imported for parity

    env = Environment()
    env.watch_liveness(env.timeout(10.0), "late but reachable")
    env.run(until=1.0)  # must not raise: the 10s timeout can still fire
    assert env.now == pytest.approx(1.0)


def test_non_event_yield_is_catchable_typeerror():
    # Regression: a generator that caught the non-event TypeError and
    # returned leaked a raw StopIteration out of callback dispatch.
    env = Environment()
    caught = []

    def proc(env):
        try:
            yield 42
        except TypeError as exc:
            caught.append(str(exc))
        return "done"

    p = env.process(proc(env))
    env.run()
    assert len(caught) == 1
    assert "non-event" in caught[0]
    assert p.processed and p.ok
    assert p.value == "done"


def test_non_event_yield_uncaught_propagates():
    env = Environment()

    def proc(env):
        yield "not an event"

    env.process(proc(env))
    with pytest.raises(TypeError, match="non-event"):
        env.run()


def test_non_event_yield_then_real_event_continues():
    env = Environment()
    log = []

    def proc(env):
        try:
            yield None
        except TypeError:
            log.append("caught")
        yield env.timeout(1e-6)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == ["caught", pytest.approx(1e-6)]


def test_interrupt_disarms_pending_immediate_resume():
    # Regression: interrupting a process inside the processed-target
    # immediate-resume window left the scheduled resume armed, delivering
    # a stale wakeup after the Interrupt.
    env = Environment()
    trace = []
    gate = env.event()
    gate.succeed()  # processed at t=0, before the victim waits on it

    def victim(env):
        yield env.timeout(1e-6)
        try:
            yield gate  # already processed: immediate-resume window
            trace.append("stale resume")
        except Interrupt as interrupt:
            trace.append(("interrupted", interrupt.cause))
        yield env.event()  # park forever; a stale resume would show up

    proc = env.process(victim(env))

    def attacker(env):
        yield env.timeout(1e-6)  # same timestamp, after the victim steps
        proc.interrupt("reset")

    env.process(attacker(env))
    env.run()
    assert trace == [("interrupted", "reset")]
    assert proc.is_alive  # parked on the fresh event, not resumed twice


def test_immediate_resume_still_works_without_interrupt():
    env = Environment()
    seen = []
    gate = env.event()
    gate.succeed("open")

    def waiter(env):
        yield env.timeout(1e-6)
        seen.append((yield gate))  # processed target: immediate resume

    env.process(waiter(env))
    env.run()
    assert seen == ["open"]


# -- in-place waits -----------------------------------------------------------

ENGINES = (Environment,)


def _hold(env, resource, trace):
    yield from resource.acquire()
    trace.append((env.now, resource.in_use))
    yield from env.sleep(1e-6)
    trace.append(env.now)
    resource.release()


@pytest.mark.parametrize("engine", ENGINES)
def test_free_grant_and_next_wake_complete_in_place_under_run(engine):
    env = engine()
    resource = Resource(env)
    trace = []
    env.process(_hold(env, resource, trace))
    env.run()
    assert trace == [(0.0, 1), 1e-6]
    assert next(env._eid) == 0  # no timeout was ever scheduled
    assert resource.in_use == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_waits_take_events_when_stepped(engine):
    env = engine()
    resource = Resource(env)
    trace = []
    env.run_until_event(env.process(_hold(env, resource, trace)))
    assert trace == [(0.0, 1), 1e-6]
    assert next(env._eid) == 1  # the sleep scheduled its timeout


@pytest.mark.parametrize("engine", ENGINES)
def test_sleep_past_until_waits_for_the_next_run(engine):
    env = engine()
    resource = Resource(env)
    trace = []
    env.process(_hold(env, resource, trace))
    env.run(until=0.5e-6)
    assert trace == [(0.0, 1)]
    assert env.now == 0.5e-6
    env.run(until=1e-6)  # lands exactly on until: completes
    assert trace == [(0.0, 1), 1e-6]


@pytest.mark.parametrize("engine", ENGINES)
def test_busy_resource_and_pending_work_are_not_skipped(engine):
    env = engine()
    resource = Resource(env)
    trace = []
    env.process(_hold(env, resource, trace))
    env.process(_hold(env, resource, trace))
    env.run()
    # The second holder queues behind the first and is granted at 1us.
    assert trace == [(0.0, 1), 1e-6, (1e-6, 1), 2e-6]
