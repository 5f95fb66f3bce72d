"""Measurement helpers: latency distributions and CPU busy time.

The paper reports throughput (IOPS / MB/s / ops/s), average and 99th
percentile latency, and "CPU efficiency" defined in §6.1 as throughput
divided by CPU utilization where utilization is sampled the way ``top``
reports it.  :class:`BusyTracker` reproduces that definition by integrating
busy virtual time per core.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.sim.engine import Environment

__all__ = ["LatencyRecorder", "BusyTracker"]


class LatencyRecorder:
    """Collects individual operation latencies (seconds)."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self._samples.append(latency)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile out of range: {p}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    @property
    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0


class BusyTracker:
    """Integrates busy time so utilization matches what ``top`` reports.

    Components call ``begin()``/``end()`` around CPU work.  Nested sections
    are allowed (a core running the block layer inside an interrupt handler)
    and count once — wall-clock busy time, not a sum over sections.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._depth = 0
        self._busy_since = 0.0
        self._busy_total = 0.0
        self._window_start: Optional[float] = None
        self._window_busy_base = 0.0
        self._window_end: Optional[float] = None
        self._window_end_busy: Optional[float] = None

    def begin(self) -> None:
        if self._depth == 0:
            self._busy_since = self.env.now
        self._depth += 1

    def end(self) -> None:
        if self._depth <= 0:
            raise RuntimeError("BusyTracker.end() without begin()")
        self._depth -= 1
        if self._depth == 0:
            self._busy_total += self.env.now - self._busy_since

    def _busy_now(self) -> float:
        running = self.env.now - self._busy_since if self._depth > 0 else 0.0
        return self._busy_total + running

    def start_window(self) -> None:
        self._window_start = self.env.now
        self._window_busy_base = self._busy_now()
        self._window_end = None
        self._window_end_busy = None

    def stop_window(self) -> None:
        self._window_end = self.env.now
        self._window_end_busy = self._busy_now()

    @property
    def busy_time(self) -> float:
        """Busy seconds inside the measurement window."""
        if self._window_start is None:
            return self._busy_now()
        end_busy = (
            self._window_end_busy
            if self._window_end_busy is not None
            else self._busy_now()
        )
        return end_busy - self._window_busy_base

    def utilization(self) -> float:
        """Busy fraction of the window (0..1)."""
        if self._window_start is None:
            if self.env.now <= 0:
                return 0.0
            return self._busy_now() / self.env.now
        end = self._window_end if self._window_end is not None else self.env.now
        elapsed = end - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed
