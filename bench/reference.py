"""Host-speed sampling: scale host seconds to a nominal host speed.

A shared host runs the simulator slower or faster from one second or
minute to the next, by up to half on the hosts this benchmark was built
on.  So that two runs compare, a worker samples the host's current speed
while it measures: every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler
times one fixed reference burst of about half a millisecond.  The burst is
pure Python shaped like the simulator's own work -- generator processes
resumed from a binary heap of small event objects, plus dict updates and
random reads over a table of a few MB -- and it never changes, so a change
to the simulator moves scaled time as it moves raw time.

:meth:`HostSpeed.measure` turns a measured interval into nominal seconds:
the interval minus the bursts inside it, times the mean host speed over
those bursts relative to ``NOMINAL_BURST_S``.
"""

import gc
import heapq
import signal
import time

__all__ = ["HostSpeed"]

INTERVAL_S = 0.01
#: Burst time on an idle 2-vCPU Xeon VM under CPython 3.11, amid simulator
#: work.  It only sets the scale: there, scaled seconds read about the same
#: as raw ones.
NOMINAL_BURST_S = 0.5e-3

_TABLE_RECORDS = 50_000
_TABLE_READS = 250
_STEPS = 150
_PROCESSES = 16


class _Event:
    __slots__ = ("when", "callbacks")

    def __init__(self, when):
        self.when = when
        self.callbacks = []


class _Burst:
    """One fixed unit of reference work."""

    def __init__(self):
        self.table = [[i, float(i)] for i in range(_TABLE_RECORDS)]
        self.state = 12345

    def _next(self):
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state

    def __call__(self):
        counts = {}

        def process(pid):
            while True:
                event = yield (self._next() % 1000) * 1e-7 + 1e-8
                key = (pid, int(event.when * 1e7) & 63)
                counts[key] = counts.get(key, 0) + 1

        heap = []
        for pid in range(_PROCESSES):
            generator = process(pid)
            event = _Event(next(generator))
            event.callbacks.append(generator)
            heapq.heappush(heap, (event.when, pid, event))
        eid = _PROCESSES
        for _ in range(_STEPS):
            now, _eid, event = heapq.heappop(heap)
            for generator in event.callbacks:
                nxt = _Event(now + generator.send(event))
                nxt.callbacks.append(generator)
                eid += 1
                heapq.heappush(heap, (nxt.when, eid, nxt))
        for _ in range(_TABLE_READS):
            record = self.table[self._next() % _TABLE_RECORDS]
            record[0] += 1
            record[1] *= 1.0000001


class HostSpeed:
    """Samples host speed from ``start()`` until ``stop()``."""

    def __init__(self):
        self.samples = []  # (burst start, burst seconds)
        self._burst = _Burst()
        self._previous = None

    def _sample(self, _signum, _frame):
        # With the collector on, a burst's allocations could start a
        # collection that walks the simulator's whole heap, and the burst
        # would time the simulator's memory instead of the host.
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        self._burst()
        elapsed = time.perf_counter() - started
        if collecting:
            gc.enable()
        self.samples.append((started, elapsed))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float, exclude: float = 0.0):
        """``(raw, scaled)`` seconds of work between two ``perf_counter``
        readings, less the bursts and ``exclude`` seconds of overhead.

        Scales by the bursts inside the interval, or by every burst when
        none fell inside it; not at all when there are none."""
        inside = [d for t, d in self.samples if start <= t < end]
        basis = inside or [d for _, d in self.samples]
        speed = (sum(NOMINAL_BURST_S / d for d in basis) / len(basis)
                 if basis else 1.0)
        raw = end - start - sum(inside) - exclude
        return raw, raw * speed
