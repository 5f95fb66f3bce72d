"""Queueing primitives: FIFO stores and counted resources.

These are the building blocks for hardware queues (NVMe submission queues,
NIC queue pairs) and for mutual exclusion (per-core run queues, the single
in-flight-request constraint of the synchronous baselines).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import _TRIGGERED, Environment, Event, SimulationError

__all__ = ["Store", "Resource"]

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

    def request_or_none(self) -> Optional[Event]:
        """:meth:`request`, or None when the slot is free and its grant
        would be the next event dispatched (the ready queue is empty and
        :meth:`Environment.run`'s inline loop drives the process): then the
        slot is taken in place (the synchronous grant of
        :mod:`repro.sim.engine`'s "In-place waits").  The caller yields
        what it gets back, if anything::

            grant = resource.request_or_none()
            if grant is not None:
                yield grant
        """
        env = self.env
        if (self._in_use < self.capacity and not env._ready
                and env._now <= env._inline_limit):
            self._in_use += 1
            return None
        return self.request()

    def acquire(self):
        """Generator: take a slot — ``yield from resource.acquire()``.

        Behaves as ``yield resource.request()``, but completes in place,
        with no grant event and no yield, when :meth:`request_or_none`
        can.
        """
        grant = self.request_or_none()
        if grant is not None:
            yield grant
