"""Tests for NVMe over TCP: Rio's design carries over (§4.5 Principle 2:
"Each socket of the TCP stack has similar in-order delivery property").
"""

import pytest

from repro.block.mq import BlockLayer
from repro.block.request import Bio
from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment
from repro.systems import make_stack


def make_cluster(transport="tcp", **kwargs):
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),), transport=transport,
                      **kwargs)
    return env, cluster


def test_invalid_transport_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Cluster(env, target_ssds=((OPTANE_905P,),), transport="carrier-pigeon")


def test_tcp_write_lands_on_remote_ssd():
    env, cluster = make_cluster()
    layer = BlockLayer(env, cluster.driver, cluster.volume())
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        done = yield from layer.submit_bio(
            core, Bio(op="write", lba=3, nblocks=1, payload=["tcp-data"])
        )
        yield done

    env.run_until_event(env.process(proc(env)))
    assert cluster.targets[0].ssds[0].durable_payload(3) == "tcp-data"


def test_tcp_read_roundtrip():
    env, cluster = make_cluster()
    layer = BlockLayer(env, cluster.driver, cluster.volume())
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        done = yield from layer.submit_bio(
            core, Bio(op="write", lba=5, nblocks=2, payload=["a", "b"])
        )
        yield done
        read = Bio(op="read", lba=5, nblocks=2)
        done = yield from layer.submit_bio(core, read)
        yield done
        return read.payload

    assert env.run_until_event(env.process(proc(env))) == ["a", "b"]


def test_tcp_latency_higher_than_rdma():
    def write_latency(transport):
        env, cluster = make_cluster(transport=transport)
        layer = BlockLayer(env, cluster.driver, cluster.volume())
        core = cluster.initiator.cpus.pick(0)

        def proc(env):
            done = yield from layer.submit_bio(
                core, Bio(op="write", lba=0, nblocks=1)
            )
            yield done

        env.run_until_event(env.process(proc(env)))
        return env.now

    assert write_latency("tcp") > 1.5 * write_latency("rdma")


def test_tcp_costs_more_cpu_per_write():
    def cpu_per_op(transport):
        env, cluster = make_cluster(transport=transport)
        layer = BlockLayer(env, cluster.driver, cluster.volume())
        core = cluster.initiator.cpus.pick(0)

        def proc(env):
            for i in range(50):
                done = yield from layer.submit_bio(
                    core, Bio(op="write", lba=i, nblocks=1)
                )
                yield done

        env.run_until_event(env.process(proc(env)))
        return (cluster.initiator.cpus.busy_time()
                + cluster.targets[0].cpus.busy_time())

    assert cpu_per_op("tcp") > 1.3 * cpu_per_op("rdma")


def test_rio_preserves_order_over_tcp():
    """In-order completion and durability semantics hold on TCP sockets."""
    env, cluster = make_cluster()
    rio = RioDevice(cluster, num_streams=2)
    core = cluster.initiator.cpus.pick(0)
    release_order = []

    def proc(env):
        events = []
        for i in range(20):
            done = yield from rio.write_ordered(core, 0, lba=i * 3, nblocks=1,
                                                payload=[i])
            events.append(done)
            env.process(track(env, i, done))
        yield env.all_of(events)

    def track(env, i, done):
        yield done
        release_order.append(i)

    env.run_until_event(env.process(proc(env)))
    assert release_order == list(range(20))
    ssd = cluster.targets[0].ssds[0]
    assert all(ssd.durable_payload(i * 3) == i for i in range(20))


def test_rio_still_beats_linux_over_tcp():
    """The asynchronous I/O pipeline wins on TCP too — the ordering cost
    is synchronous waiting, which Rio removes regardless of transport."""

    def throughput(system):
        env, cluster = make_cluster()
        stack = make_stack(system, cluster, num_streams=1)
        count = [0]

        def writer(env):
            core = cluster.initiator.cpus.pick(0)
            inflight = []
            i = 0
            while env.now < 4e-3:
                done = yield from stack.write_ordered(core, 0, lba=i * 2,
                                                      nblocks=1)
                i += 1
                inflight.append(done)
                if len(inflight) >= 32:
                    yield env.any_of(inflight)
                    done_now = [e for e in inflight if e.triggered]
                    count[0] += len(done_now)
                    inflight = [e for e in inflight if not e.triggered]

        env.process(writer(env))
        env.run(until=4e-3)
        return count[0]

    rio = throughput("rio")
    linux = throughput("linux")
    assert rio > 3 * linux
