"""Measurement helpers: the measurement window, latency distributions
and CPU busy time.

The paper reports throughput (IOPS / MB/s / ops/s), average and 99th
percentile latency, and "CPU efficiency" defined in §6.1 as throughput
divided by CPU utilization where utilization is sampled the way ``top``
reports it, all over one steady-state window.  :class:`MeasurementWindow`
is that window for every workload driver: it opens ``warmup`` after it is
made, closes ``duration`` later, and applies the one inclusion rule.  It
keeps two counts:

* ``ops`` — ops *completed* inside the window (with their weight and
  bytes);
* ``samples`` — the latencies of ops also *issued* inside it, in a
  :class:`LatencyRecorder`.

:class:`BusyTracker` reproduces the utilization definition by integrating
busy virtual time per core; :meth:`MeasurementWindow.watch_cpu` opens and
closes a cluster's tracker windows at the window's instants.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

from repro.sim.engine import Environment

__all__ = ["MeasurementWindow", "LatencyRecorder", "BusyTracker",
           "ssd_commands_served"]


class LatencyRecorder:
    """Collects individual operation latencies (seconds)."""

    def __init__(self, samples: Iterable[float] = ()) -> None:
        self._samples: List[float] = []
        for latency in samples:
            self.record(latency)

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


def ssd_commands_served(cluster) -> int:
    """Commands served by every SSD of ``cluster``'s targets."""
    return sum(ssd.commands_served
               for target in cluster.targets for ssd in target.ssds)


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


class MeasurementWindow:
    """The steady-state window of one workload run: its interval, op
    count, latency samples and CPU window.

    The window opens ``warmup`` after it is made and closes ``duration``
    later (``start`` and ``end``); both instants are inside.  An op counts
    in ``ops`` when it completes inside the window, and its latency is a
    sample when it was also issued inside.  Drivers report one of the two
    counts:

    * completed ops (``ops``): fio, the open loop (saturate, tenants,
      overload and gray) and the Filebench personalities (Varmail,
      fileserver);
    * issued-and-completed ops (``samples``): the fillsync and OLTP
      databases and the Fig. 13 fsync probe.

    :func:`repro.scale.loadgen.run_open_loop` counts and samples every
    completion, error completions included, and splits the goodput from
    the failures beside these counts.  One count for every driver, and
    what an error completion counts as, are ROADMAP open item 4.
    """

    def __init__(self, env: Environment, warmup: float, duration: float):
        self.env = env
        self.warmup = warmup
        self.duration = duration
        self.start = env.now + warmup
        self.end = self.start + duration
        self.ops = 0
        self.bytes = 0
        self.latency = LatencyRecorder()
        #: The initiator driver's ``commands_sent`` and the cluster's
        #: :func:`ssd_commands_served` when the CPU window opened (see
        #: :meth:`watch_cpu`).
        self.commands_at_start = 0
        self.served_at_start = 0

    @property
    def samples(self) -> int:
        return self.latency.count

    def inside(self) -> bool:
        """True when now is inside the window."""
        return self.start <= self.env.now <= self.end

    def count(self, weight: int = 1, nbytes: int = 0) -> bool:
        """Count ``weight`` ops of ``nbytes`` completing now; True when
        now is inside the window."""
        if not self.inside():
            return False
        self.ops += weight
        self.bytes += nbytes
        return True

    def complete(self, issued_at: float, weight: int = 1,
                 nbytes: int = 0) -> Optional[float]:
        """:meth:`count` an op issued at ``issued_at`` completing now, and
        sample its latency when it was issued inside the window.  Returns
        the sampled latency, or None."""
        if not self.count(weight, nbytes) or issued_at < self.start:
            return None
        latency = self.env.now - issued_at
        self.latency.record(latency)
        return latency

    def watch_cpu(self, cluster) -> None:
        """Open and close ``cluster``'s CPU window at the window's
        instants, taking the opening's ``commands_at_start`` and
        ``served_at_start``; call it where the window is made."""
        self.env.process(self._watch_cpu(cluster))

    def _watch_cpu(self, cluster):
        yield self.env.timeout(self.warmup)
        cluster.start_cpu_window()
        self.commands_at_start = cluster.driver.commands_sent
        self.served_at_start = ssd_commands_served(cluster)
        yield self.env.timeout(self.duration)
        cluster.stop_cpu_window()
