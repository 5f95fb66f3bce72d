"""Event scheduler and generator-based processes.

The engine models virtual time in **seconds** (floats).  All hardware and
protocol latencies in the reproduction are expressed in seconds so that
throughput numbers come out directly in operations per second.

The programming model is cooperative coroutines::

    def worker(env):
        yield env.timeout(1e-6)          # wait 1 microsecond
        yield from env.sleep(1e-6)       # the same, in place when it can be
        result = yield some_event        # wait for an event, receive value

    env = Environment()
    env.process(worker(env))
    env.run(until=1.0)

Events may *succeed* (carrying a value) or *fail* (carrying an exception,
which is re-raised inside every waiting process).  A :class:`Process` is
itself an event that fires when the generator returns, so processes can wait
on each other.

Dispatch order
--------------

Events fire in ``(time, eid)`` order: by virtual time, and at equal times
in the order they were triggered.  Two structures hold what is scheduled:

* ``_heap``: timeouts due in the future, as ``(time, eid, event)``
  entries.  Only these draw an ``eid``;
* ``_ready``: a FIFO of events due *now*: ``succeed``/``fail``, timeouts
  whose ``now + delay == now``, process bootstraps and immediate resumes.

The clock only advances when ``_ready`` is empty (:meth:`Environment.
_advance`).  Advancing to ``t`` moves *every* heap entry due at ``t`` onto
``_ready`` in eid order, before any of them runs.  That preserves the
``(time, eid)`` order exactly:

* every heap entry due at ``t`` was pushed before the clock reached ``t``
  (a positive delay lands strictly later), so its eid is smaller than that
  of anything triggered at ``t``, and it sits ahead of all of those on
  ``_ready``;
* nothing is ever pushed onto the heap at the current time (a timeout
  due now goes to ``_ready``), so while ``_ready`` is non-empty no heap
  entry is due;
* within ``_ready``, FIFO order is trigger order, which is eid order.

In-place waits
--------------

Three waits finish without creating an event when that event would be the
very next one dispatched.  All apply only while the process is driven by
the inline loop of ``run()`` and ``run_until_event()``, within their time
limit ``_inline_limit``.  :meth:`Process._step` masks it to ``-inf`` while
it drives a generator, because its caller (:meth:`~Environment.step`, an
event with several callbacks, an interrupt) may have more to run at the
current time.  ``run_until_event()`` lowers it to ``now`` once its event
is processed, so the loop ends with that instant.

* **Synchronous grant** (the generator :meth:`repro.sim.resources.
  Resource.acquire`): a free slot is taken with no grant event and no
  yield when ``_ready`` is empty.  The grant would be appended to the
  empty ``_ready`` and the yield handed straight off to it (direct
  handoff, below), so nothing could run in between.
* **In-place advance** (the generator :meth:`Environment.sleep`): the
  clock moves to ``when = now + delay`` with no event when ``_ready`` is
  empty, ``when <= until`` and no heap entry is due at or before ``when``
  (strictly later, since an entry due at ``when`` has a smaller eid and
  fires first; a cancelled entry counts as due, which only makes in-place
  advances rarer).  The timeout would have been the unique earliest
  entry, the clock would have advanced to it, and the yield would have
  been handed off to it.
* **One-frame hold** (:meth:`repro.sim.resources.Resource.hold`): grant,
  hold for a duration, release, as one generator that inlines both tests
  above, so a free slot and a hold that would dispatch next cost no
  helper call and no yield.  ``Core.run`` (which integrates its busy time
  in the same frame), the NIC pipes and the SSD's interface and media
  pipes are holds.

In every case the process continues at the same time, with the same
value, before any other event, exactly as in the ``(time, eid)`` order;
only an event, its heap or queue entry and the trip up and down the
``yield from`` chain are saved.  Skipped eids leave the relative order of
the others unchanged.  In every other case they fall back to the plain
event.

The closed-loop drivers keep their queue-depth windows in a
:class:`repro.sim.resources.IssueWindow`: it waits exactly as an
``any_of`` over every op in flight and a rescan would, at O(1) host work
per op.  Its in-flight count is stale (refreshed only after a wake, to
the ops not yet triggered then), and it wakes at the dispatch of the
first op that triggered after the last refresh, using only a trigger
count and a dispatch count: op trackers go through the FIFO ready queue,
so they dispatch in trigger order.

Performance notes
-----------------

This module is the host-side hot path of every experiment: a figure sweep
processes tens of millions of events.  The implementation trades a little
uniformity for speed:

* every event class declares ``__slots__``.  The ``bio`` and
  ``_blocked_item`` slots exist so higher layers (the ordered stacks and
  :mod:`repro.sim.resources`) can annotate events without re-introducing a
  ``__dict__``;
* an event due now costs one ``deque.append`` and one ``popleft``; only
  future timeouts pay for a heap entry;
* the hot factories (:meth:`Environment.timeout`, the process bootstrap,
  a :class:`~repro.sim.resources.Resource` grant, an immediate
  :class:`~repro.sim.resources.Store` get or put) build their
  already-triggered events in one frame;
* **inline resume**: when an event's only callback resumes a process,
  the run loop (:meth:`Environment._run`) calls ``send``/``throw`` itself,
  without the ``_resume``/``_step`` frames, and re-parks the process with
  the same bound method;
* **direct handoff**: when the resumed process yields an event with no
  other callbacks that is certain to dispatch next — the head of
  ``_ready``, after advancing the clock if ``_ready`` was empty — the run
  loop consumes that event and keeps running the same generator.  An
  already-processed target with ``_ready`` empty is handed off the same
  way, since its immediate resume would be the next event.  Nothing else
  can run in between, so this is the order the loop would produce anyway;
* **in-place waits** (above) go one step further and skip the event.

``sim.events_per_op`` in ``bench/`` counts heap pops, so handoffs and
in-place waits lower it without the model doing less.

The observable semantics are identical to a plain ``(time, eid)`` heap:
the order oracle in ``tests/properties/test_dispatch_order.py``, the
engine unit tests and the serial-vs-parallel bit-identity test in
``tests/harness/test_sweep.py`` pin that down.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "SimDeadlock",
    "Interrupt",
    "Event",
    "Timeout",
    "Condition",
    "Process",
    "Environment",
]

_INF = float("inf")
_NEG_INF = float("-inf")


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class SimDeadlock(SimulationError):
    """The event heap drained while liveness-watched waiters were pending.

    Virtual time has no external inputs: once the heap is empty nothing can
    ever fire a pending event, so a drained heap with registered waiters is
    a genuine deadlock (e.g. a completion orphaned by a dropped message).
    Components register must-fire events via
    :meth:`Environment.watch_liveness` to turn silent hangs into this
    diagnosable failure.
    """


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value given to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled (heap or ready queue), callbacks not yet run
_PROCESSED = 2  # callbacks have run
_CANCELLED = 3  # scheduled entry is dead; the run loop skips it


class Event:
    """A one-shot occurrence in virtual time that processes can wait on."""

    __slots__ = (
        "env",
        "callbacks",
        "_state",
        "_ok",
        "_value",
        # Annotation slots for higher layers (see module docstring).
        "bio",
        "_blocked_item",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._ok = True
        self._value: Any = None

    # -- inspection -------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (waiters have been resumed)."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or the failure exception)."""
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, delivering ``value`` to waiters."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event as a failure; ``exception`` is raised in waiters."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.env._ready.append(self)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x} state={self._state}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay.

    Timeouts are born triggered.  :meth:`Environment.timeout` builds them
    in one frame, as does :meth:`repro.sim.resources.Resource.hold`.
    """

    __slots__ = ("delay",)

    def cancel(self) -> None:
        """Disarm a timeout that lost a race (e.g. the other arm of an
        ``any_of`` fired first).

        The scheduled entry cannot be removed cheaply, so the timeout is
        marked dead and the run loop skips it without advancing the clock;
        once enough dead entries accumulate the environment compacts them
        in one pass.  Without this, every completed watchdog arm would stay
        a live heap entry until its expiry time — a real leak on long runs.
        No-op if the timeout already fired.

        Cancellation is a *condition-visible* terminal state: a
        :class:`Condition` watching this timeout is told the member can
        never fire (so an ``all_of`` over a cancelled arm fails loudly
        instead of hanging forever).  Other registered callbacks are
        dropped — a waiter that truly depends on the timeout should be
        liveness-watched, which turns the hang into :class:`SimDeadlock`.
        """
        if self._state != _TRIGGERED:
            return
        self._state = _CANCELLED
        callbacks = self.callbacks
        self.callbacks = []
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Condition):
                owner._on_member_cancelled(self)
        self.env._note_cancelled()


class Condition(Event):
    """Fires when ``evaluate`` says enough of the watched events fired.

    Used for :meth:`Environment.all_of` and :meth:`Environment.any_of`.
    The condition value is a dict mapping each processed member to its value.
    Once it fires it unhooks itself from the members that have not fired
    yet, so a long-lived member does not collect dead callbacks (one per
    ``any_of`` it ever took part in).  A member therefore must not rely on
    the condition's callback to look "listened to" — in particular a
    :class:`~repro.sim.resources.Resource` request belongs in a ``yield``,
    not in a condition.
    """

    __slots__ = ("_events", "_evaluate", "_fired", "_dead")

    def __init__(
        self,
        env: "Environment",
        events: Iterable[Event],
        evaluate: Callable[[int, int], bool],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._fired = 0
        self._dead = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if self._state != _PENDING:
                break  # already decided: later members need no callback
            state = event._state
            if state == _PROCESSED:
                self._on_event(event)
            elif state == _CANCELLED:
                self._on_member_cancelled(event)
            else:
                event.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self._fired += 1
            if not self._evaluate(self._fired, len(self._events)):
                return
            self.succeed(
                {e: e._value for e in self._events if e._state == _PROCESSED}
            )
        self._detach()

    def _on_member_cancelled(self, event: Event) -> None:
        """A watched member was cancelled and can never fire.

        The condition stays pending while the remaining live members could
        still satisfy ``evaluate`` (an ``any_of`` with a live arm); once
        satisfaction is impossible (an ``all_of`` over any cancelled arm,
        or an ``any_of`` whose every arm died) it fails loudly instead of
        silently never firing.
        """
        if self._state != _PENDING:
            return
        self._dead += 1
        total = len(self._events)
        # Best case: every still-live member eventually fires.
        reachable = total - self._dead
        if not self._evaluate(reachable, total):
            self.fail(SimulationError(
                f"condition can never fire: {self._dead} of {total} "
                "watched event(s) were cancelled"
            ))
            self._detach()

    def _detach(self) -> None:
        """Remove this (now decided) condition's callback from members
        whose callbacks have not run.  The callback would be a no-op, so
        removing it cannot change what fires or when."""
        callback = self._on_event
        for event in self._events:
            if event._state <= _TRIGGERED:
                try:
                    event.callbacks.remove(callback)
                except ValueError:
                    pass  # registration was skipped (decided at creation)


def _all_fired(fired: int, total: int) -> bool:
    return fired == total


def _any_fired(fired: int, total: int) -> bool:
    return fired >= 1


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("_generator", "_waiting_on", "_pending_resume")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._state = _PENDING
        self._ok = True
        self._value = None
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: The scheduled immediate-resume event while the process waits on
        #: an already-processed target; ``interrupt()`` must disarm it.
        self._pending_resume: Optional[Event] = None
        # Bootstrap: resume the generator at the current simulation time.
        bootstrap = Event.__new__(Event)
        bootstrap.env = env
        bootstrap.callbacks = [self._resume]
        bootstrap._state = _TRIGGERED
        bootstrap._ok = True
        bootstrap._value = None
        env._ready.append(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != _PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self._waiting_on is not None:
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
        pending = self._pending_resume
        if pending is not None:
            # The process was interrupted inside the processed-target
            # immediate-resume window: disarm the scheduled resume, or it
            # would deliver a spurious second wakeup after the Interrupt.
            self._pending_resume = None
            if pending._state == _TRIGGERED:
                pending._state = _CANCELLED
                pending.callbacks = []
                self.env._note_cancelled()
        wakeup = Event(self.env)
        wakeup.callbacks.append(
            lambda _ev: self._step(throw=Interrupt(cause))
        )
        wakeup.succeed()

    # -- internal ----------------------------------------------------------
    #
    # Environment.run inlines _resume/_step/_wait_for for the common case
    # (see the module docstring); these methods serve step(), callback
    # lists with more than one entry, and interrupts.

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self._pending_resume = None
        if event._ok:
            self._step(send=event._value)
        else:
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._state != _PENDING:
            return
        env = self.env
        gen = self._generator
        # Our caller, not run()'s inline loop, dispatches next: no in-place
        # waits while this generator runs (module docstring).
        inline_limit = env._inline_limit
        env._inline_limit = _NEG_INF
        try:
            while True:
                env._active_process = self
                try:
                    if throw is not None:
                        target = gen.throw(throw)
                    else:
                        target = gen.send(send)
                except StopIteration as stop:
                    env._active_process = None
                    self.succeed(stop.value)
                    return
                except Interrupt:
                    # Interrupt escaped the generator: treat as clean
                    # termination.
                    env._active_process = None
                    self.succeed(None)
                    return
                except BaseException:
                    env._active_process = None
                    raise
                env._active_process = None
                if isinstance(target, Event):
                    break
                # Non-event yield: throw into the generator and loop, so a
                # generator that catches the error and returns (or yields a
                # real event next) goes through the same StopIteration /
                # registration paths as a plain send — no raw StopIteration
                # can leak out of callback dispatch.
                send = None
                throw = TypeError(
                    f"process yielded a non-event: {target!r}")
        finally:
            env._inline_limit = inline_limit
        self._wait_for(target)

    def _wait_for(self, target: Event) -> None:
        """Park the process on ``target`` (the tail half of a step)."""
        if target._state == _PROCESSED:
            # Already fired and callbacks ran: resume immediately (same
            # time) with the target's outcome.  Tracked in _pending_resume
            # so interrupt() can disarm it.
            immediate = Event.__new__(Event)
            immediate.env = self.env
            immediate.callbacks = [self._resume]
            immediate._state = _TRIGGERED
            immediate._ok = target._ok
            immediate._value = target._value
            self._pending_resume = immediate
            self.env._ready.append(immediate)
        else:
            # Pending, triggered, or cancelled.  A cancelled target can
            # never fire: the process parks forever (pinned semantics —
            # liveness-watch the waiter to turn that into SimDeadlock).
            self._waiting_on = target
            target.callbacks.append(self._resume)


#: The unbound resume function: the run loop recognizes "this event's sole
#: callback resumes a process" by it and inlines the generator step.
_RESUME = Process._resume


class Environment:
    """The simulation clock plus the scheduled events (see the module
    docstring for the dispatch order)."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Future timeouts: (time, eid, event).
        self._heap: List = []
        #: Events due at the current time, in trigger order.
        self._ready: deque = deque()
        #: Dead (cancelled) entries still sitting in the heap or the ready
        #: queue; the run loop skips them and :meth:`_compact_heap` sweeps
        #: them in bulk.
        self._cancelled = 0
        self._eid = count()
        #: Time limit of the running inline loop (:meth:`_run`) while it
        #: drives a generator, else -inf: the bound for in-place waits
        #: (module docstring).
        self._inline_limit = _NEG_INF
        self._active_process: Optional[Process] = None
        #: Liveness registry: token -> (event, description).  Checked when
        #: the heap drains; see :class:`SimDeadlock`.
        self._liveness: dict = {}
        self._liveness_ids = count()
        #: Optional :class:`repro.sim.obs.Observability`; when attached
        #: (``Observability(env)``) components record lifecycle spans and
        #: events and publish metrics.  None (the default) keeps every
        #: instrumentation site a single attribute check — behavior is
        #: bit-identical to an uninstrumented run.
        self.obs = None

    def trace(self, category: str, event: str, **fields) -> None:
        """Log an instant event on the attached observability plane
        (``env.obs.events``); a single attribute check when none is."""
        if self.obs is not None:
            self.obs.record(self._now, category, event, fields)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None between steps)."""
        return self._active_process

    # -- factory helpers ----------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Build and schedule a timeout in one frame (the most executed
        call in the simulator)."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._state = _TRIGGERED
        timeout._ok = True
        timeout._value = value
        timeout.delay = delay
        now = self._now
        when = now + delay
        if when == now:
            self._ready.append(timeout)
        else:
            heappush(self._heap, (when, next(self._eid), timeout))
        return timeout

    def sleep(self, delay: float):
        """Generator: wait ``delay`` seconds — ``yield from env.sleep(d)``.

        Behaves as ``yield env.timeout(delay)``, but moves the clock to
        ``now + delay`` in place, with no event and no yield, when that
        timeout would be the next event dispatched (module docstring,
        "In-place waits").
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        when = self._now + delay
        heap = self._heap
        if (not self._ready and when <= self._inline_limit
                and (not heap or heap[0][0] > when)):
            self._now = when
        else:
            yield self.timeout(delay)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, events, _all_fired)

    def any_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, events, _any_fired)

    # -- liveness watching ---------------------------------------------------

    def watch_liveness(self, event: Event, description: str = "") -> int:
        """Register ``event`` as one that *must* eventually fire.

        Returns a token for :meth:`unwatch_liveness`.  If the event heap
        ever drains while a watched event is still pending, the run loop
        raises :class:`SimDeadlock` naming the stuck waiters instead of
        returning as if the simulation finished cleanly.
        """
        token = next(self._liveness_ids)
        self._liveness[token] = (event, description)
        return token

    def unwatch_liveness(self, token: int) -> None:
        self._liveness.pop(token, None)

    def _raise_if_deadlocked(self) -> None:
        if not self._liveness:
            return
        pending = [
            description or repr(event)
            for event, description in self._liveness.values()
            if not event.triggered
        ]
        if pending:
            shown = "; ".join(pending[:8])
            more = f" (+{len(pending) - 8} more)" if len(pending) > 8 else ""
            raise SimDeadlock(
                f"event heap drained at t={self._now} with "
                f"{len(pending)} pending waiter(s): {shown}{more}"
            )

    # -- scheduling ----------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Account one newly-dead scheduled entry; compact once they
        outnumber the live ones."""
        self._cancelled += 1
        if self._cancelled > 64 and self._cancelled > self.live_heap_size():
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop cancelled entries from the heap and the ready queue in one
        pass and re-heapify.

        Filters in place: the run loop binds the ready queue's methods to
        locals, so rebinding the attributes here would strand it on a
        stale object.
        """
        self._heap[:] = [entry for entry in self._heap
                         if entry[2]._state != _CANCELLED]
        heapify(self._heap)
        ready = self._ready
        live = [event for event in ready if event._state != _CANCELLED]
        ready.clear()
        ready.extend(live)
        self._cancelled = 0

    def live_heap_size(self) -> int:
        """Number of scheduled entries that can still fire (excludes
        cancelled ones)."""
        return len(self._heap) + len(self._ready) - self._cancelled

    def _advance(self, limit: float) -> bool:
        """Called with ``_ready`` empty: move the clock to the earliest live
        heap time, if it is ``<= limit``, and queue every entry due then
        on ``_ready`` in eid order.  False if there is none."""
        heap = self._heap
        while heap:
            entry = heap[0]
            when = entry[0]
            if when > limit:
                return False
            heappop(heap)
            event = entry[2]
            if event._state == _CANCELLED:
                self._cancelled -= 1
                continue
            self._now = when
            ready = self._ready
            ready.append(event)
            while heap and heap[0][0] == when:
                ready.append(heappop(heap)[2])
            return True
        return False

    def _next_scheduled(self) -> float:
        """Time of the earliest live heap entry, or +inf (``_ready`` is
        empty when this is called)."""
        heap = self._heap
        while heap and heap[0][2]._state == _CANCELLED:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else _INF

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        ready = self._ready
        while ready and ready[0]._state == _CANCELLED:
            ready.popleft()
            self._cancelled -= 1
        if ready:
            return self._now
        return self._next_scheduled()

    def step(self) -> None:
        """Process the single next (live) event."""
        ready = self._ready
        while True:
            if not ready and not self._advance(_INF):
                raise SimulationError("no more events to step")
            event = ready.popleft()
            if event._state != _CANCELLED:
                break
            self._cancelled -= 1
        event._state = _PROCESSED
        callbacks = event.callbacks
        if callbacks:
            event.callbacks = []
            for callback in callbacks:
                callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing is scheduled or virtual time reaches ``until``.

        When ``until`` is given the clock is advanced exactly to it even if
        the last event fires earlier, so throughput windows are exact.

        This is the innermost host-side loop of every experiment: it
        inlines :meth:`step`, and inlines the process resume with direct
        handoff (module docstring).  While it runs, ``_inline_limit`` is
        ``until``, which enables the in-place waits.
        """
        if until is None:
            limit = _INF
        elif until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        else:
            limit = until
        self._inline_limit = limit
        try:
            self._run()
        finally:
            self._inline_limit = _NEG_INF
        if until is None:
            self._raise_if_deadlocked()
            return
        if self.live_heap_size() == 0:
            # Nothing scheduled can ever fire again (at most cancelled
            # husks past `until` remain): a watched waiter is stuck.
            self._raise_if_deadlocked()
        self._now = until

    def _run(self) -> None:
        """The dispatch loop of :meth:`run` and :meth:`run_until_event`, up
        to ``_inline_limit``, which :meth:`_halt` may lower mid-run."""
        ready = self._ready
        popleft = ready.popleft
        advance = self._advance
        while True:
            if not ready and not advance(self._inline_limit):
                break
            event = popleft()
            if event._state == _CANCELLED:
                self._cancelled -= 1
                continue
            event._state = _PROCESSED
            callbacks = event.callbacks
            if not callbacks:
                continue
            event.callbacks = []
            if (len(callbacks) != 1
                    or getattr(callbacks[0], "__func__", None) is not _RESUME):
                for callback in callbacks:
                    callback(event)
                continue
            # The sole callback resumes a process: Process._resume/_step,
            # inlined.  The loop runs the generator across handoffs.
            resume = callbacks[0]
            proc = resume.__self__
            if proc._state != _PENDING:
                continue
            proc._waiting_on = None
            proc._pending_resume = None
            gen = proc._generator
            ok = event._ok
            value = event._value
            while True:
                self._active_process = proc
                try:
                    if ok:
                        target = gen.send(value)
                    else:
                        target = gen.throw(value)
                except StopIteration as stop:
                    self._active_process = None
                    proc.succeed(stop.value)
                    break
                except Interrupt:
                    # Escaped the generator: clean termination.
                    self._active_process = None
                    proc.succeed(None)
                    break
                except BaseException:
                    self._active_process = None
                    raise
                self._active_process = None
                if not isinstance(target, Event):
                    proc._step(throw=TypeError(
                        f"process yielded a non-event: {target!r}"))
                    break
                state = target._state
                if state == _TRIGGERED:
                    if (not target.callbacks
                            and (ready or advance(self._inline_limit))
                            and ready[0] is target):
                        # Direct handoff: the target is the next event.
                        popleft()
                        target._state = _PROCESSED
                        ok = target._ok
                        value = target._value
                        continue
                elif state == _PROCESSED:
                    if not ready:
                        # Its immediate resume would be the next event.
                        ok = target._ok
                        value = target._value
                        continue
                    proc._wait_for(target)
                    break
                proc._waiting_on = target
                target.callbacks.append(resume)
                break

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` is processed and to the end of that instant,
        so its waiters observe it too; returns its value. Raises on failure."""
        if event._state == _PROCESSED:
            limit = self._now
        else:
            event.callbacks.append(self._halt)
        self._inline_limit = limit
        try:
            self._run()
        finally:
            self._inline_limit = _NEG_INF
            if event._state <= _TRIGGERED:  # not processed, not cancelled
                event.callbacks.remove(self._halt)
        if event._state != _PROCESSED:
            if self._next_scheduled() == _INF:
                self._raise_if_deadlocked()
                raise SimulationError("event can never fire: heap is empty")
            raise SimulationError(f"event did not fire before t={limit}")
        if not event._ok:
            raise event._value
        return event._value

    def _halt(self, event: Event) -> None:
        """``run_until_event()``'s callback: end the loop at this instant."""
        self._inline_limit = self._now
