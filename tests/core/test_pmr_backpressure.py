"""End-to-end PMR-log backpressure: a tiny PMR must throttle, not break."""

import pytest

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.core.attributes import ATTRIBUTE_SIZE
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def test_tiny_pmr_throttles_but_everything_completes():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),),
                      pmr_size=16 * ATTRIBUTE_SIZE)
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)
    n = 100

    def writer(env):
        events = []
        for i in range(n):
            done = yield from rio.write_ordered(core, 0, lba=i * 2, nblocks=1,
                                                payload=[i])
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(writer(env)))
    # Every write completed, in order, despite a 16-entry log.
    ssd = cluster.targets[0].ssds[0]
    assert all(ssd.durable_payload(i * 2) == i for i in range(n))
    log = rio.policies[0].log
    assert log.capacity == 16
    assert log.tail >= n  # every attribute passed through the tiny log
    assert log.live_entries <= log.capacity


def test_tiny_pmr_never_overwrites_live_entries():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),),
                      pmr_size=8 * ATTRIBUTE_SIZE)
    rio = RioDevice(cluster, num_streams=2)
    core0 = cluster.initiator.cpus.pick(0)
    core1 = cluster.initiator.cpus.pick(1)
    log = rio.policies[0].log
    violations = []

    def monitor(env):
        while env.now < 2e-3:
            if log.tail - log.head > log.capacity:
                violations.append((env.now, log.head, log.tail))
            yield env.timeout(1e-6)

    def writer(core, stream):
        for i in range(60):
            done = yield from rio.write_ordered(core, stream,
                                                lba=stream * 10_000 + i * 2,
                                                nblocks=1)
            if i % 8 == 7:
                yield done  # periodic waits let acks flow

    env.process(monitor(env))
    p0 = env.process(writer(core0, 0))
    p1 = env.process(writer(core1, 1))
    env.run_until_event(env.all_of([p0, p1]))
    assert violations == []
