"""Calendar-queue scheduler with batched same-timestamp advance.

:class:`CalendarEnvironment` is a drop-in :class:`~repro.sim.engine.
Environment` with a different store for future timeouts, tuned for the
shape of storage workloads: huge numbers of timeouts, heavily clustered on
shared timestamps (every completion in an interrupt batch, every tenant
arrival in a tick).  Instead of one binary-heap entry per timeout it keeps

* ``_buckets``: a dict mapping each *exact* timestamp to the FIFO list of
  ``(eid, timeout)`` scheduled for it.  Event ids grow monotonically, so a
  bucket is eid-ordered by construction;
* ``_times``: a small heap of distinct timestamps (one push per *new*
  timestamp, not per event).

Everything else is the engine's: events due now go on the shared ready
queue, the inherited ``_heap`` holds whatever is pushed there directly
(cross-shard messages from :mod:`repro.sim.parallel`), and the run loop,
with its inline resume, direct handoff and in-place waits, is
:meth:`~repro.sim.engine.Environment.run` itself.  Two decisions look at
the buckets: :meth:`_advance` moves a whole bucket onto the ready queue at
once, merged with any heap entries due at the same time by eid, and
:meth:`timeout_or_none`, the in-place advance, checks the earliest bucket
time as well as the heap in its "nothing due by then" test.  Dispatch
order is therefore exactly the heap engine's ``(time, eid)`` order, and
results are
**bit-identical** (asserted against real saturation cells in
``tests/sim/test_calendar.py`` and by the order oracle in
``tests/properties/test_dispatch_order.py``).

Pick it via ``engine="calendar"`` on :func:`repro.harness.saturate.
probe_saturation` / ``repro saturate --engine calendar``, or construct
one directly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import List

from repro.sim.engine import _CANCELLED, _TRIGGERED, Environment, Timeout

__all__ = ["CalendarEnvironment"]

_INF = float("inf")
_EID = itemgetter(0)


class CalendarEnvironment(Environment):
    """Bucketed-timestamp scheduler behind the ``Environment`` API."""

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        #: timestamp -> [(eid, Timeout), ...] in eid (arrival) order.
        self._buckets: dict = {}
        #: Heap of bucket timestamps (one entry per live bucket; stale
        #: entries from consumed buckets are stripped lazily).
        self._times: List[float] = []
        #: Total entries across all buckets (live + cancelled).
        self._bucket_count = 0

    # -- scheduling structures ---------------------------------------------

    def _schedule_timeout(self, timeout: Timeout, when: float) -> None:
        """Append to the bucket for ``when`` (see :meth:`timeout`)."""
        bucket = self._buckets.get(when)
        eid = next(self._eid)
        if bucket is None:
            self._buckets[when] = [(eid, timeout)]
            heappush(self._times, when)
        else:
            bucket.append((eid, timeout))
        self._bucket_count += 1

    def timeout(self, delay: float, value=None) -> Timeout:
        """Build + schedule a timeout in one frame.

        Field writes, the ready-queue case and the bucket insert are
        identical to ``Timeout.__init__``/``_schedule_timeout`` — eid
        allocation order included, which is what keeps dispatch order
        bit-identical to the heap engine.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._state = _TRIGGERED
        t._ok = True
        t._value = value
        t.delay = delay
        now = self._now
        when = now + delay
        if when == now:
            self._ready.append(t)
            return t
        eid = next(self._eid)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(eid, t)]
            heappush(self._times, when)
        else:
            bucket.append((eid, t))
        self._bucket_count += 1
        return t

    def _compact_heap(self) -> None:
        """Drop cancelled entries from the buckets, then from the heap and
        the ready queue."""
        buckets = self._buckets
        for when in list(buckets):
            bucket = buckets[when]
            bucket[:] = [entry for entry in bucket
                         if entry[1]._state != _CANCELLED]
            if not bucket:
                del buckets[when]
        self._bucket_count = sum(len(b) for b in buckets.values())
        self._times[:] = buckets.keys()
        heapify(self._times)
        super()._compact_heap()

    def live_heap_size(self) -> int:
        return super().live_heap_size() + self._bucket_count

    def timeout_or_none(self, delay: float):
        """The engine's in-place advance, with the buckets in its "nothing
        due by the wake time" test: a bucket due at or before it goes
        first, so the timeout is returned.  A stale bucket time (bucket
        consumed) at the top of ``_times`` only makes the test more
        conservative."""
        times = self._times
        if times and delay >= 0 and times[0] <= self._now + delay:
            return self.timeout(delay)
        return super().timeout_or_none(delay)

    # -- advancing the clock -------------------------------------------------

    def _next_times(self):
        """(heap time, bucket time) of the earliest entries, +inf when
        empty.  Strips cancelled heap tops and stale bucket times (bucket
        consumed or compacted away)."""
        heap = self._heap
        while heap and heap[0][2]._state == _CANCELLED:
            heappop(heap)
            self._cancelled -= 1
        times = self._times
        buckets = self._buckets
        while times and times[0] not in buckets:
            heappop(times)
        return (heap[0][0] if heap else _INF,
                times[0] if times else _INF)

    def _next_scheduled(self) -> float:
        """Earliest time that can still fire (drops all-cancelled
        buckets)."""
        while True:
            h_t, b_t = self._next_times()
            if b_t >= h_t:
                return h_t
            bucket = self._buckets[b_t]
            if any(entry[1]._state != _CANCELLED for entry in bucket):
                return b_t
            del self._buckets[b_t]
            heappop(self._times)
            self._bucket_count -= len(bucket)
            self._cancelled -= len(bucket)

    def _advance(self, limit: float) -> bool:
        """Queue the earliest bucket — merged by eid with heap entries due
        at the same time — on the ready queue and move the clock there."""
        heap = self._heap
        while True:
            h_t, b_t = self._next_times()
            t = h_t if h_t <= b_t else b_t
            if t == _INF or t > limit:
                return False
            due = []
            if b_t == t:
                heappop(self._times)
                due = self._buckets.pop(t)
                self._bucket_count -= len(due)
            if h_t == t:
                while heap and heap[0][0] == t:
                    _when, eid, event = heappop(heap)
                    due.append((eid, event))
                due.sort(key=_EID)
            live = [event for _eid, event in due
                    if event._state != _CANCELLED]
            self._cancelled -= len(due) - len(live)
            if live:
                self._now = t
                self._ready.extend(live)
                return True
