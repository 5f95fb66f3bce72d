#!/usr/bin/env python3
"""Watching the I/O pipeline work: tracing one journaling transaction.

Attaches an :class:`~repro.sim.obs.Observability` and submits the classic
journal pattern through Rio, then prints the pipeline's internal events
from its event log (``obs.events``):
scheduler merges, PMR attribute appends, the target's in-order gate, SSD
service, and the sequencer's in-order releases — the whole §4 machinery in
one timeline.

Run:  python examples/trace_the_pipeline.py
"""

from collections import Counter

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment
from repro.sim.obs import Observability


def main():
    env = Environment()
    obs = Observability(env)
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, num_streams=2)
    core = cluster.initiator.cpus.pick(0)

    def app(env):
        events = []
        # Transaction 1: journal blocks then a flushed commit record.
        e = yield from rio.write(core, 0, lba=0, nblocks=2,
                                 end_of_group=True, kick=False)
        events.append(e)
        e = yield from rio.write(core, 0, lba=2, nblocks=1,
                                 end_of_group=True, flush=True)
        events.append(e)
        # Transaction 2 on another stream, concurrently.
        e = yield from rio.write(core, 1, lba=100, nblocks=1,
                                 end_of_group=True)
        events.append(e)
        yield env.all_of(events)

    env.run_until_event(env.process(app(env)))

    print("pipeline timeline:")
    for event in obs.events[:60]:
        print(event)
    counts = Counter(f"{e.category}.{e.event}" for e in obs.events)
    print("\nevent counts:", dict(counts))
    assert counts["rio.sched.merge"] >= 1   # JM+JC merged (Principle 3)
    assert counts["rio.seq.release"] == 3   # in-order completion (step 9)
    assert counts["ssd.write"] >= 2
    print("\nOK: merge -> attribute append -> SSD write -> ordered release.")


if __name__ == "__main__":
    main()
