"""Order oracle: the engine fires exactly what a plain ``(time, eid)``
heap fires, in the same order.

``ReferenceEnvironment`` is the minimal dispatcher the engine must match:
every trigger — ``succeed``/``fail``, zero-delay timeouts, process
bootstraps, immediate resumes, resource grants — becomes an ordinary
``(time, eid)`` heap entry, and ``run()`` pops one entry at a time and
calls its callbacks.  No ready queue, no inline resume, no direct handoff,
and conditions keep their dead callbacks.  Its ``run_until_event`` steps
one entry at a time until the event is processed, then steps out the rest
of that instant.  The engine shares its event classes with it, so what is
checked is the dispatcher alone.

Hypothesis generates small programs of cooperating processes mixing
zero-delay succeeds and fails, tied timestamps, ``Store`` and ``Resource``
handoffs, ``any_of``/``all_of`` (with the watchdog cancel), ``interrupt()``
(including inside the immediate-resume window), ``Timeout.cancel``,
non-event yields, and a driver that alternates ``run(until=...)``,
``run_until_event`` and ``step``.  Every resume, callback and segment
boundary is logged; the logs must be equal.

The programs also exercise the engine's in-place waits: ``env.sleep``,
holds built from ``Resource.acquire``, ``env.sleep`` and release, and the
one-frame ``Resource.hold``, plain, as the TX pipe of a real
:class:`~repro.hw.nic.Nic` (whose inflation can change while a transfer
queues) and on a real :class:`~repro.hw.cpu.Core` (whose busy time is
logged).  The plain holds and the NIC share the pipe that ``request()``
holds contend for.  Their wake times tie with pending heap entries and
with ``run(until=...)`` and ``run_until_event``'s limit, and processes are
resumed by ``step()`` and events with several callbacks, where a wait must
not complete in place, and by the event that ends a ``run_until_event``,
after which no wait may move the clock.  The reference never takes the
in-place path: its ``run()`` and ``run_until_event`` leave the engine's
inline limit at ``-inf``.
"""

from collections import deque
from heapq import heapify, heappop, heappush

from hypothesis import example, given, settings, strategies as st

from repro.hw.cpu import Core
from repro.hw.nic import Nic
from repro.sim import Environment, Interrupt, SimulationError, Store
from repro.sim.engine import _CANCELLED, _PROCESSED, Condition, _all_fired, _any_fired

_INF = float("inf")


class _HeapPush:
    """Stands in for the ready queue: a trigger at the current time becomes
    an ordinary ``(now, eid)`` heap entry."""

    def __init__(self, env):
        self.env = env

    def append(self, event):
        env = self.env
        heappush(env._heap, (env._now, next(env._eid), event))

    def __len__(self):
        return 0


class _KeepCallbacks(Condition):
    """A condition that leaves its dead callbacks on pending members."""

    __slots__ = ()

    def _detach(self):
        pass


class ReferenceEnvironment(Environment):
    """One heap of ``(time, eid, event)``; pop, advance, run callbacks."""

    def __init__(self):
        super().__init__()
        self._ready = _HeapPush(self)

    def all_of(self, events):
        return _KeepCallbacks(self, events, _all_fired)

    def any_of(self, events):
        return _KeepCallbacks(self, events, _any_fired)

    def _compact_heap(self):
        self._heap[:] = [e for e in self._heap if e[2]._state != _CANCELLED]
        heapify(self._heap)
        self._cancelled = 0

    def live_heap_size(self):
        return len(self._heap) - self._cancelled

    def peek(self):
        heap = self._heap
        while heap and heap[0][2]._state == _CANCELLED:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else _INF

    def step(self):
        if self.peek() == _INF:
            raise SimulationError("no more events to step")
        when, _eid, event = heappop(self._heap)
        self._now = when
        event._state = _PROCESSED
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self, until=None):
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while True:
            when = self.peek()
            if when == _INF or (until is not None and when > until):
                break
            self.step()
        if until is None or self.live_heap_size() == 0:
            self._raise_if_deadlocked()
        if until is not None:
            self._now = until

    def run_until_event(self, event, limit=_INF):
        while not event.processed:
            when = self.peek()
            if when == _INF:
                self._raise_if_deadlocked()
                raise SimulationError("event can never fire: heap is empty")
            if when > limit:
                raise SimulationError(f"event did not fire before t={limit}")
            self.step()
        while self.peek() <= self._now:
            self.step()
        if not event.ok:
            raise event.value
        return event.value


# ---------------------------------------------------------------------------
# Program interpreter
# ---------------------------------------------------------------------------

_DELAYS = (0.0, 0.0, 1e-6, 1e-6, 2e-6, 3e-6)
_SEGMENTS = (0.0, 1e-6, 2e-6, 5e-6)
_MAX_PROCS = 12
_EVENTS = 4


def _summary(value):
    if isinstance(value, dict):
        return tuple(sorted(repr(_summary(v)) for v in value.values()))
    if isinstance(value, BaseException):
        return ("exc", type(value).__name__, str(value))
    return value


def play(env_cls, scripts, segments):
    """Run one generated program; returns the full observation log."""
    env = env_cls()
    log = []
    events = [env.event() for _ in range(_EVENTS)]
    timeouts = []
    procs = []
    stores = (Store(env), Store(env, capacity=1))
    # 1 byte per microsecond: a transfer of k bytes takes _DELAYS-sized
    # wire times.
    nic = Nic(env, bandwidth=1e6)
    resource = nic._tx
    core = Core(env, 0)

    def delay(k):
        return _DELAYS[k % len(_DELAYS)]

    def timeout(k):
        t = env.timeout(_DELAYS[k % len(_DELAYS)], value=f"t{len(timeouts)}")
        timeouts.append(t)
        return t

    def op_body(pid, n, op):
        kind = op[0]
        tag = f"{pid}.{n}"
        if kind == "sleep":
            return (yield timeout(op[1]))
        if kind == "nap":
            yield from env.sleep(delay(op[1]))
            return env.now
        if kind == "charge":
            # acquire, sleep, release on the pipe "request" holds contend
            # for.
            yield from resource.acquire()
            try:
                yield from env.sleep(delay(op[1]))
            finally:
                resource.release()
            return env.now
        if kind == "hold":
            yield from resource.hold(delay(op[1]))
            return env.now
        if kind == "nic":
            yield from nic.occupy_tx(op[1] % 4)
            return (nic.bytes_sent, resource.queued)
        if kind == "inflate":
            nic.inflation = 1.0 + op[1] % 2
            return None
        if kind == "core":
            yield from core.run(delay(op[1]))
            return (core.tracker.busy_time, core.queued_work)
        if kind == "succeed":
            if not events[op[1] % _EVENTS].triggered:
                events[op[1] % _EVENTS].succeed(tag)
        elif kind == "fail":
            if not events[op[1] % _EVENTS].triggered:
                events[op[1] % _EVENTS].fail(ValueError(tag))
        elif kind == "renew":
            events[op[1] % _EVENTS] = env.event()
        elif kind == "wait":
            return (yield events[op[1] % _EVENTS])
        elif kind == "fire_wait":
            event = events[op[1] % _EVENTS]
            if not event.triggered:
                event.succeed(tag)
            return (yield event)
        elif kind == "observe":
            event = events[op[1] % _EVENTS]
            if not event.processed:
                event.callbacks.append(
                    lambda ev: log.append(("cb", tag, env.now, ev.ok)))
        elif kind == "put":
            return (yield stores[op[1] % 2].put(tag))
        elif kind == "get":
            return (yield stores[op[1] % 2].get())
        elif kind == "request":
            yield resource.request()
            try:
                yield timeout(op[1])
            finally:
                resource.release()
        elif kind == "any":
            arm = timeout(op[2])
            value = yield env.any_of([events[op[1] % _EVENTS], arm])
            arm.cancel()
            return value
        elif kind == "all":
            members = [events[op[1] % _EVENTS]]
            if timeouts:
                members.append(timeouts[op[2] % len(timeouts)])
            return (yield env.all_of(members))
        elif kind == "interrupt":
            victim = procs[op[1] % len(procs)]
            if victim.is_alive and victim is not env.active_process:
                victim.interrupt(tag)
        elif kind == "cancel":
            if timeouts:
                timeouts[op[1] % len(timeouts)].cancel()
        elif kind == "spawn":
            if len(procs) < _MAX_PROCS:
                spawn(scripts[op[1] % len(scripts)])
        elif kind == "join":
            return (yield procs[op[1] % len(procs)])
        elif kind == "bad":
            yield 42
        return None

    def body(pid, script):
        for n, op in enumerate(script):
            try:
                value = yield from op_body(pid, n, op)
            except Interrupt as interrupt:
                log.append((pid, n, env.now, "interrupted", interrupt.cause))
                continue
            except (ValueError, TypeError, SimulationError) as exc:
                log.append((pid, n, env.now, "raised", _summary(exc)))
                continue
            log.append((pid, n, env.now, "ok", _summary(value)))
        return pid

    def spawn(script):
        procs.append(env.process(body(len(procs), script)))

    for script in scripts:
        spawn(script)
    for segment in segments:
        kind = segment[0]
        if kind == "until":
            env.run(until=env.now + _SEGMENTS[segment[1] % len(_SEGMENTS)])
        elif kind == "until_event":
            try:
                value = env.run_until_event(
                    procs[segment[1] % len(procs)], limit=env.now + 4e-6)
                log.append(("returned", value))
            except SimulationError as exc:
                log.append(("gave up", str(exc)))
        elif env.peek() != _INF:
            env.step()
        log.append(("segment", env.now, env.live_heap_size()))
    env.run()
    log.append(("end", env.now, env.live_heap_size(),
                tuple((p.is_alive, _summary(p.value)) for p in procs)))
    return log


_OP = st.one_of(
    st.tuples(st.sampled_from(["sleep", "nap", "charge", "hold", "nic",
                               "inflate", "core"]),
              st.integers(0, 5)),
    st.tuples(st.sampled_from(["succeed", "fail", "renew", "wait",
                               "fire_wait", "observe", "interrupt",
                               "cancel", "spawn", "join"]),
              st.integers(0, 7)),
    st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 1)),
    st.tuples(st.just("request"), st.integers(0, 5)),
    st.tuples(st.sampled_from(["any", "all"]), st.integers(0, 7),
              st.integers(0, 7)),
    st.tuples(st.just("bad")),
)
_SCRIPTS = st.lists(st.lists(_OP, max_size=8), min_size=1, max_size=5)
_DRIVER = st.lists(
    st.one_of(
        st.tuples(st.just("until"), st.integers(0, 3)),
        st.tuples(st.just("until_event"), st.integers(0, 7)),
        st.tuples(st.just("step")),
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(scripts=_SCRIPTS, segments=_DRIVER)
# A zero-length run(until=now) window ahead of two chained timeouts.
@example(scripts=[[("sleep", 2), ("sleep", 2)]],
         segments=[("until", 0)])
# A nap whose wake time ties with a pending timeout: the timeout's smaller
# eid fires first.
@example(scripts=[[("sleep", 4)], [("nap", 4), ("nap", 2)]], segments=[])
# Naps and core charges landing exactly on run(until=...), then more
# after the boundary; a contended core.
@example(scripts=[[("nap", 2), ("nap", 2), ("core", 2)]],
         segments=[("until", 1), ("until", 1)])
@example(scripts=[[("nap", 2), ("core", 2)], [("core", 3), ("nap", 2)]],
         segments=[("until", 1), ("until", 2), ("until", 3)])
# Two processes resumed by one event (several callbacks) inside run():
# the first must not nap in place before the second runs.  Then the same
# program bootstrapped by step().
@example(scripts=[[("wait", 0), ("nap", 2), ("charge", 2)],
                  [("wait", 0), ("nap", 2)],
                  [("sleep", 2), ("succeed", 0), ("sleep", 5)]],
         segments=[("until", 3)])
@example(scripts=[[("wait", 0), ("nap", 2), ("charge", 2)],
                  [("wait", 0), ("nap", 2)],
                  [("sleep", 2), ("succeed", 0), ("sleep", 5)]],
         segments=[("step",), ("step",), ("step",), ("until", 3)])
# An observer callback ahead of a process on the event it waits for; then
# resumption by run_until_event.
@example(scripts=[[("observe", 1), ("wait", 1), ("core", 3), ("nap", 2)],
                  [("sleep", 2), ("succeed", 1), ("sleep", 5)]],
         segments=[("until", 3)])
@example(scripts=[[("observe", 1), ("wait", 1), ("core", 3), ("nap", 2)],
                  [("charge", 2), ("fire_wait", 1), ("nap", 3)]],
         segments=[("until_event", 0), ("step",)])
# A process resumed by the event that ends run_until_event: its hold and
# core charge must not complete in place past the halt time.
@example(scripts=[[("sleep", 2)], [("join", 0), ("hold", 2), ("core", 3)]],
         segments=[("until_event", 0), ("step",)])
# Resource.acquire and Resource.hold: a free slot is not granted in place
# while a zero-delay timeout is due now; a hold whose release ties with a
# pending timeout lets the timeout's smaller eid fire first.
@example(scripts=[[("charge", 0)], [("sleep", 0)]], segments=[])
@example(scripts=[[("sleep", 0), ("sleep", 0)], [("hold", 0)]],
         segments=[])
@example(scripts=[[("sleep", 2)], [("hold", 2)]], segments=[])
# NIC transfers queued behind a request() hold on their pipe while the
# inflation changes, beside a core charge.
@example(scripts=[[("request", 3)], [("nic", 2), ("nic", 1)],
                  [("inflate", 1), ("core", 2)]],
         segments=[("until", 1)])
def test_engines_fire_the_reference_sequence(scripts, segments):
    expected = play(ReferenceEnvironment, scripts, segments)
    assert play(Environment, scripts, segments) == expected


def test_oracle_rejects_a_lifo_ready_queue():
    """The oracle has teeth: serving the ready queue last-in-first-out
    breaks same-instant FIFO order, and the logs differ."""

    class _Lifo(deque):
        def popleft(self):
            return self.pop()

    class LifoEnvironment(Environment):
        def __init__(self):
            super().__init__()
            self._ready = _Lifo()

    scripts = [[("succeed", 0)], [("wait", 0)], [("sleep", 0)]]
    expected = play(ReferenceEnvironment, scripts, [])
    assert play(Environment, scripts, []) == expected
    assert play(LifoEnvironment, scripts, []) != expected


def test_sleep_rejects_a_negative_delay_like_timeout():
    env = Environment()
    outcomes = []

    def body():
        try:
            yield env.timeout(-1)
        except ValueError as exc:
            outcomes.append(str(exc))
        try:
            yield from env.sleep(-1)
        except ValueError as exc:
            outcomes.append(str(exc))

    env.process(body())
    env.run()
    assert outcomes == ["negative timeout delay: -1"] * 2
