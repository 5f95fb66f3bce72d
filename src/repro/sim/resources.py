"""Queueing primitives: FIFO stores, counted resources and issue windows.

These are the building blocks for hardware queues (NVMe submission queues,
NIC queue pairs), for mutual exclusion (per-core run queues, the single
in-flight-request constraint of the synchronous baselines) and for the
queue-depth windows of the closed-loop workload drivers.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Optional

from repro.sim.engine import (
    _PENDING,
    _PROCESSED,
    _TRIGGERED,
    Environment,
    Event,
    SimulationError,
    Timeout,
)

__all__ = ["Store", "Resource", "IssueWindow"]

#: Granted puts, gets and requests are already-triggered events; the
#: factories below build them in one frame, with exactly the field writes
#: of ``Event(env).succeed(value)``.
_new_event = Event.__new__


class Store:
    """An unbounded (or bounded) FIFO channel between processes.

    ``put(item)`` returns an event that fires once the item is accepted
    (immediately unless the store is bounded and full).  ``get()`` returns an
    event that fires with the oldest item once one is available.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # events carrying blocked items

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            event = Event(self.env)
            event._blocked_item = item  # type: ignore[attr-defined]
            self._putters.append(event)
            return event
        env = self.env
        event = _new_event(Event)
        event.env = env
        event.callbacks = []
        event._state = _TRIGGERED
        event._ok = True
        event._value = None
        env._ready.append(event)
        return event

    def get(self) -> Event:
        env = self.env
        if not self._items:
            event = Event(env)
            self._getters.append(event)
            return event
        event = _new_event(Event)
        event.env = env
        event.callbacks = []
        event._state = _TRIGGERED
        event._ok = True
        event._value = self._items.popleft()
        env._ready.append(event)
        if self._putters:
            self._admit_blocked_putter()
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: the oldest item, or None if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_blocked_putter()
        return item

    def _admit_blocked_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter = self._putters.popleft()
            self._items.append(putter._blocked_item)  # type: ignore[attr-defined]
            putter.succeed()


class Resource:
    """A counted resource with FIFO grant order (like a semaphore).

    ``request()`` yields an event that fires when a slot is granted;
    ``release()`` frees one slot.  Used to model limited hardware
    concurrency (e.g. flash chips, DMA engines).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Request a slot; yield the returned event *immediately*.

        Abandoned waiters (e.g. interrupted processes) are detected by
        having no registered callbacks at grant time, so an event parked
        un-yielded across other waits would be mistaken for abandoned.
        """
        env = self.env
        if self._in_use < self.capacity:
            self._in_use += 1
            event = _new_event(Event)
            event.env = env
            event.callbacks = []
            event._state = _TRIGGERED
            event._ok = True
            event._value = None
            env._ready.append(event)
            return event
        event = Event(env)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        # Grant the slot to the oldest waiter that is still listening.
        # A waiter whose process was interrupted has no callbacks left —
        # granting to it would leak the slot forever.
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.callbacks:
                waiter.succeed()
                return
        self._in_use -= 1

    def acquire(self):
        """Generator: take a slot — ``yield from resource.acquire()``.

        Behaves as ``yield resource.request()``, but takes a free slot in
        place, with no grant event and no yield, when its grant would be
        the next event dispatched: the ready queue is empty and
        :meth:`Environment.run`'s inline loop drives the process (the
        synchronous grant of :mod:`repro.sim.engine`'s "In-place waits").
        """
        env = self.env
        if (self._in_use < self.capacity and not env._ready
                and env._now <= env._inline_limit):
            self._in_use += 1
        else:
            yield self.request()

    def hold(self, duration: float, busy=None, scale=None):
        """Generator: take a slot, hold it ``duration`` seconds, release it
        — ``yield from resource.hold(duration)``.

        Behaves as ``yield from resource.acquire()``, then ``yield from
        env.sleep(duration)`` inside ``try``/``finally: release()``, in one
        frame: the in-place tests of :meth:`acquire` and
        :meth:`Environment.sleep` are inlined, so a free slot and a hold
        that would dispatch next cost no helper call, no event and no
        yield (the in-place waits of :mod:`repro.sim.engine`).

        ``scale``, if given, maps ``duration`` to the hold time once the
        slot is granted (a gray-failure inflation may change while the
        request queues).  ``busy``, if given, is a
        :class:`~repro.sim.stats.BusyTracker` whose busy time runs from the
        grant to the release, exactly as ``begin()``/``end()`` around the
        hold would count it.
        """
        if duration < 0:
            raise ValueError(f"negative hold time: {duration}")
        env = self.env
        if (self._in_use < self.capacity and not env._ready
                and env._now <= env._inline_limit):
            self._in_use += 1
        else:
            yield self.request()
        if scale is not None:
            duration = scale(duration)
        if busy is not None:
            if busy._depth == 0:
                busy._busy_since = env._now
            busy._depth += 1
        try:
            when = env._now + duration
            heap = env._heap
            if (not env._ready and when <= env._inline_limit
                    and (not heap or heap[0][0] > when)):
                env._now = when
            else:
                # env.timeout(duration), built in this frame.
                timeout = _new_event(Timeout)
                timeout.env = env
                timeout.callbacks = []
                timeout._state = _TRIGGERED
                timeout._ok = True
                timeout._value = None
                timeout.delay = duration
                if when == env._now:
                    env._ready.append(timeout)
                else:
                    heappush(heap, (when, next(env._eid), timeout))
                yield timeout
        finally:
            if busy is not None:
                busy._depth -= 1
                if busy._depth == 0:
                    busy._busy_total += env._now - busy._busy_since
            if self._waiters:
                self.release()
            else:
                self._in_use -= 1


class _Op(Event):
    """The tracker of one op in an :class:`IssueWindow`: fires once every
    member event has fired, or fails with the first member that failed
    (``env.all_of`` semantics, without the value dict)."""

    __slots__ = ("_left", "_window", "_info", "_born_triggered")

    def _member_fired(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if event._ok:
            self._left -= 1
            if self._left:
                return
        else:
            self._ok = False
            self._value = event._value
        self._state = _TRIGGERED
        self.env._ready.append(self)
        self._window._triggered += 1


class IssueWindow:
    """The queue-depth window of a closed-loop issuer, at O(1) host work
    per op.

    ``yield from window.issue(events, *info)`` tracks one op, made of the
    completion events ``events``, and then waits while ``depth`` ops are in
    flight.  When the op completes, ``on_complete(*info)`` runs.  This is
    exactly the loop::

        tracker = env.all_of(events)
        env.process(watch(tracker, *info))      # on_complete after `yield`
        trackers.append(tracker)
        while len(trackers) >= depth:
            yield env.any_of(trackers)
            trackers = [t for t in trackers if not t.triggered]

    with neither the rescan, the ``any_of`` over the whole window, nor a
    process per op.  Its semantics, exactly those of that loop:

    * an op's *tracker* triggers when the last of its events fires (or the
      first one fails) and is then dispatched from the ready queue like
      any event.  ``on_complete`` runs at that dispatch; a failed op
      raises its exception out of :meth:`Environment.run` there instead.
      A tracker already triggered when tracked (every event had fired: a
      synchronous stack) completes where the watch process would have
      seen it: at a start event queued right behind the tracker, or, if
      more is due now, at an event queued behind all of it (the watch's
      immediate resume).
    * the in-flight count is stale: it is refreshed only after a wake,
      to the number of ops not yet triggered at that moment, and then
      grows by one per op issued until the next refresh.
    * a wait fires at once if an op that triggered after the last refresh
      has already been dispatched; otherwise it fires at the dispatch of
      the first such op, and fails if that op failed.

    Trackers always go through the FIFO ready queue, so they dispatch in
    trigger order: a trigger count, a dispatch count and the trigger count
    at the last refresh (``_mark``) decide both rules.  The in-flight count
    is ``issued - _mark``, and after a wake it is below ``depth`` (the op
    that fired the wake triggered after the refresh before it), so one
    wait per issue suffices.

    :meth:`track` alone returns the tracker for a caller that waits on
    trackers itself (the head-of-line wait of
    :func:`repro.scale.loadgen.run_closed_loop`).  Member events must be
    plain events, not timeouts that could be cancelled.
    """

    def __init__(self, env: Environment, depth: int, on_complete=None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.env = env
        self.depth = depth
        self._on_complete = on_complete
        self._dispatch_callback = self._dispatched_op
        self._issued = 0
        self._triggered = 0
        self._dispatched = 0
        self._mark = 0
        self._wake: Optional[Event] = None

    @property
    def refreshed(self) -> int:
        """Ops that had triggered at the last refresh."""
        return self._mark

    def track(self, events, *info) -> Event:
        """Track one op; returns its tracker (see the class docstring)."""
        env = self.env
        op = _new_event(_Op)
        op.env = env
        op.callbacks = [self._dispatch_callback]
        op._state = _PENDING
        op._ok = True
        op._value = None
        op._left = len(events)
        op._window = self
        op._info = info
        op._born_triggered = False
        self._issued += 1
        member_fired = op._member_fired
        for event in events:
            if op._state != _PENDING:
                break
            if event._state == _PROCESSED:
                member_fired(event)
            else:
                event.callbacks.append(member_fired)
        if op._state != _PENDING and self._on_complete is not None:
            op._born_triggered = True
            self._queue(op, [self._started_op])
        return op

    def issue(self, events, *info):
        """Generator: track one op, then wait while the window is full."""
        self.track(events, *info)
        if self._issued - self._mark >= self.depth:
            if self._dispatched > self._mark:
                wake = self._queue(None, [])
            else:
                wake = self._wake = Event(self.env)
            yield wake
            self._mark = self._triggered

    def _queue(self, value, callbacks) -> Event:
        """An event that succeeds with ``value`` now, with ``callbacks``."""
        env = self.env
        event = _new_event(Event)
        event.env = env
        event.callbacks = callbacks
        event._state = _TRIGGERED
        event._ok = True
        event._value = value
        env._ready.append(event)
        return event

    def _dispatched_op(self, op: _Op) -> None:
        self._dispatched += 1
        wake = self._wake
        if wake is not None and self._dispatched > self._mark:
            self._wake = None
            if op._ok:
                wake.succeed()
            else:
                wake.fail(op._value)
        if not op._born_triggered:
            self._complete(op)

    def _started_op(self, start: Event) -> None:
        # An op whose tracker was born triggered completes where a watch
        # process started behind the tracker would have: at once if
        # nothing else is due now, else behind everything due now.
        if self.env._ready:
            self._queue(start._value, [self._completed_op])
        else:
            self._complete(start._value)

    def _completed_op(self, event: Event) -> None:
        self._complete(event._value)

    def _complete(self, op: _Op) -> None:
        if not op._ok:
            raise op._value
        if self._on_complete is not None:
            self._on_complete(*op._info)
