"""Engine throughput measurement: the BENCH_engine.json trajectory.

One workload, four ways: ``procs`` in-phase ticker processes burning
``events`` timeout events total, run on

* the serial event-heap engine (the baseline every ratio is against),
* the calendar-queue engine (timeouts in exact-timestamp buckets, each
  bucket queued for dispatch at once),
* the sharded parallel engine at ``jobs=1`` (the windowed protocol's
  serial reference — its cost over the plain engine is the barrier
  overhead), and
* the sharded parallel engine at ``jobs=N`` (aggregate events/s across
  worker processes).

``repro bench-engine`` writes the report to ``results/BENCH_engine.json``
so re-anchors can track the trajectory; the committed artifact records
the dev container (cores included — parallel scaling is meaningless
without that denominator).  The same numbers are floor-gated in
``benchmarks/test_simulator_performance.py``.
"""

from __future__ import annotations

import os
import platform
import time
from functools import partial
from typing import Dict, Optional

from repro.sim.calendar import CalendarEnvironment
from repro.sim.engine import Environment
from repro.sim.parallel import run_sharded, tick_shard

__all__ = ["bench_engines", "run_ticker"]

#: Tick interval (virtual seconds) for the benchmark workload.
TICK = 1e-6


def run_ticker(env_cls, events: int, procs: int) -> float:
    """Run ``procs`` in-phase tickers totalling ``events`` events; returns
    the wall-clock seconds spent inside ``env.run``."""
    env = env_cls()
    per_proc = max(1, events // procs)

    def ticker():
        for _ in range(per_proc):
            yield env.timeout(TICK)

    for _ in range(procs):
        env.process(ticker())
    started = time.perf_counter()
    env.run()
    return time.perf_counter() - started


def _best_events_per_sec(fn, events: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        best = min(best, fn())
    return events / best


def bench_engines(
    events: int = 100_000,
    procs: int = 50,
    jobs: Optional[int] = None,
    repeats: int = 3,
) -> Dict:
    """Measure every engine on the shared ticker workload.

    Returns the BENCH report dict: one data point per engine with raw
    events/s and the speedup over the serial heap engine measured *on
    this host, in this run* — never against a stored number.
    """
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = max(1, cpus)
    per_proc = max(1, events // procs)
    total = per_proc * procs

    serial = _best_events_per_sec(
        lambda: run_ticker(Environment, events, procs), total, repeats)
    calendar = _best_events_per_sec(
        lambda: run_ticker(CalendarEnvironment, events, procs),
        total, repeats)

    def sharded(shard_jobs: int, engine: str) -> float:
        shards = max(1, shard_jobs)
        builders = [partial(tick_shard, events=per_proc, interval=TICK)
                    for _ in range(shards * max(1, procs // shards))]
        shard_events = per_proc * len(builders)

        def once() -> float:
            started = time.perf_counter()
            run_sharded(builders, lookahead=float("inf"),
                        until=per_proc * TICK, jobs=shard_jobs,
                        engine=engine)
            return time.perf_counter() - started

        return _best_events_per_sec(once, shard_events, repeats)

    parallel_serial = sharded(1, "heap")
    parallel = sharded(jobs, "calendar")

    points = [
        {"engine": "heap", "jobs": 1, "events_per_sec": serial},
        {"engine": "calendar", "jobs": 1, "events_per_sec": calendar},
        {"engine": "parallel(jobs=1)", "jobs": 1,
         "events_per_sec": parallel_serial},
        {"engine": f"parallel(jobs={jobs})", "jobs": jobs,
         "events_per_sec": parallel},
    ]
    for point in points:
        point["events_per_sec"] = round(point["events_per_sec"], 1)
        point["speedup_vs_serial"] = round(
            point["events_per_sec"] / points[0]["events_per_sec"], 3)
    return {
        "benchmark": "engine-ticker",
        "workload": {"events": total, "procs": procs,
                     "tick_seconds": TICK, "repeats": repeats},
        "host": {"cpus": cpus, "platform": platform.platform(),
                 "python": platform.python_version()},
        "engines": points,
    }
