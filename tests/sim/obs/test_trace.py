"""Tests for the observability plane's event log (``env.trace`` sites)."""

from collections import Counter

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment
from repro.sim.obs import Observability, TraceEvent


def test_trace_records_events():
    env = Environment()
    obs = Observability(env)
    env.trace("ssd", "write", lba=5, dev="ssd0")
    assert obs.events == [
        TraceEvent(0.0, "ssd", "write", (("dev", "ssd0"), ("lba", 5)))
    ]
    assert "ssd" in str(obs.events[0])


def test_category_filter():
    env = Environment()
    obs = Observability(env)
    env.trace("ssd", "write")
    env.trace("rio.gate", "stall")
    env.trace("ssd", "read")
    gate = [e for e in obs.events if e.category == "rio.gate"]
    assert [(e.category, e.event) for e in gate] == [("rio.gate", "stall")]


def test_capacity_drops_overflow():
    env = Environment()
    obs = Observability(env, capacity=2)
    for i in range(5):
        env.trace("c", "e", i=i)  # never raises past capacity
    assert [dict(e.fields)["i"] for e in obs.events] == [0, 1]
    assert obs.events_dropped == 3


def test_environment_without_obs_is_silent():
    env = Environment()
    env.trace("anything", "happens")  # must not raise
    obs = Observability(env, attach=False)
    env.trace("anything", "happens")
    assert obs.events == []


def test_end_to_end_rio_tracing():
    env = Environment()
    obs = Observability(env)
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        events = []
        for i in range(4):
            done = yield from rio.write_ordered(core, 0, lba=i, nblocks=1,
                                                kick=(i == 3))
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    counts = Counter(f"{e.category}.{e.event}" for e in obs.events)
    assert counts["rio.sched.merge"] == 3  # 4 writes merged into 1
    assert counts["rio.log.append"] == 1
    assert counts["ssd.write"] == 1
    assert counts["rio.seq.release"] == 4
    assert obs.events_dropped == 0
