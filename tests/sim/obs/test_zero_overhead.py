"""Observability must not perturb the simulation.

The span plane is pure bookkeeping: it schedules no events, draws no
randomness, and costs a single attribute check when disabled.  These tests
run the identical fixed-seed workload with and without an
:class:`~repro.sim.obs.Observability` attached and demand *bit-identical*
outcomes — final sim time, every journal-commit timestamp, per-SSD service
counts, driver command counts, and even the number of events the engine
ever scheduled.
"""

from collections import deque

import pytest

from repro.fs.filesystem import make_filesystem
from repro.harness.experiment import build_cluster
from repro.sim.engine import Environment
from repro.sim.obs import Observability

KINDS = ("ext4", "horaefs", "riofs")


class CountingDeque(deque):
    """The engine's ready queue, counting every event put on it."""

    appended = 0

    def append(self, event):
        self.appended += 1
        super().append(event)


def probe(kind: str, instrumented: bool, iterations: int = 6):
    """The Fig. 14 fsync probe; returns a tuple of observable outcomes."""
    env = Environment()
    env._ready = CountingDeque()
    if instrumented:
        Observability(env)
    cluster = build_cluster("optane", env=env, seed=42)
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))

    def worker():
        core = cluster.initiator.cpus.pick(0)
        file = yield from fs.create(core, "probe")
        for _ in range(iterations):
            yield from fs.append(core, file, nblocks=1)
            yield from fs.fsync(core, file, thread_id=0)

    env.run_until_event(env.process(worker()))
    breakdowns = tuple(
        (b.started, b.data_dispatched, b.jm_dispatched, b.jc_dispatched,
         b.completed)
        for j in fs.journals for b in j.breakdowns
    )
    served = tuple(
        ssd.commands_served
        for target in cluster.targets for ssd in target.ssds
    )
    # Future timeouts draw an event id from an itertools.count (peeking its
    # next value consumes none); everything due at the current time goes
    # through the ready queue.  A heap entry moved onto the ready queue
    # when the clock reaches it is counted by both, identically in both
    # runs, so any extra event scheduled by observability shows up.
    events_scheduled = env._eid.__reduce__()[1][0] + env._ready.appended
    return {
        "now": env.now,
        "breakdowns": breakdowns,
        "ssd_commands_served": served,
        "driver_commands_sent": cluster.driver.commands_sent,
        "events_scheduled": events_scheduled,
    }


@pytest.mark.parametrize("kind", KINDS)
def test_disabled_observability_is_invisible(kind):
    baseline = probe(kind, instrumented=False)
    instrumented = probe(kind, instrumented=True)
    # Bit-identical, not approximately equal: == on raw floats.
    assert instrumented == baseline
