"""Tests for the multi-initiator extension (§4.9): a ScaleOutCluster
with one RioDevice per node, each on its own directory-assigned range."""

import pytest

from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.scale import ScaleOutCluster, StreamDirectory
from repro.sim import Environment


def make_multi(num_initiators=2, targets=((OPTANE_905P,),), streams=4):
    env = Environment()
    cluster = ScaleOutCluster(
        env,
        target_ssds=targets,
        num_initiators=num_initiators,
    )
    devices = [
        RioDevice(node, num_streams=streams,
                  stream_base=cluster.directory.allocate(streams))
        for node in cluster.nodes
    ]
    return env, cluster, devices


def test_stream_directory_allocates_disjoint_ranges():
    directory = StreamDirectory()
    a = directory.allocate(8)
    b = directory.allocate(8)
    c = directory.allocate(4)
    assert (a, b, c) == (0, 8, 16)
    with pytest.raises(ValueError):
        directory.allocate(0)


def test_initiators_share_targets_but_not_drivers():
    env, cluster, devices = make_multi()
    assert len(cluster.nodes) == 2
    assert cluster.nodes[0].driver is not cluster.nodes[1].driver
    assert cluster.nodes[0].namespaces[0].target is \
        cluster.nodes[1].namespaces[0].target
    # Both Rio devices reuse the one target policy (no state wipe).
    assert devices[0].policies[0] is devices[1].policies[0]


def test_concurrent_initiators_preserve_per_stream_order():
    env, cluster, devices = make_multi()
    release_orders = {0: [], 1: []}

    def writer(node, order):
        core = node.cpus.pick(0)
        events = []
        for i in range(25):
            done = yield from devices[node.index].write_ordered(
                core, 0, lba=node.index * 1_000_000 + i * 2, nblocks=1,
                payload=[(node.index, i + 1)],
            )
            events.append(done)
            env.process(track(order, i, done))
        yield env.all_of(events)

    def track(order, i, done):
        yield done
        order.append(i)

    procs = [
        env.process(writer(node, release_orders[node.index]))
        for node in cluster.nodes
    ]
    env.run_until_event(env.all_of(procs))
    assert release_orders[0] == list(range(25))
    assert release_orders[1] == list(range(25))


def test_attributes_carry_global_stream_ids():
    env, cluster, devices = make_multi(streams=4)
    core = cluster.nodes[1].cpus.pick(0)

    def proc(env):
        done = yield from devices[1].write_ordered(core, 2, lba=0, nblocks=1)
        yield done

    env.run_until_event(env.process(proc(env)))
    records = list(cluster.targets[0].pmr.records().values())
    assert records
    # Initiator 1 owns streams 4..7; its local stream 2 is global 6.
    assert all(r.stream_id == 6 for r in records)


def test_both_initiators_write_durably():
    env, cluster, devices = make_multi()

    def writer(node):
        core = node.cpus.pick(0)
        events = []
        for i in range(10):
            done = yield from devices[node.index].write_ordered(
                core, 0, lba=node.index * 100 + i, nblocks=1,
                payload=[(node.index, i)],
            )
            events.append(done)
        yield env.all_of(events)

    procs = [env.process(writer(node)) for node in cluster.nodes]
    env.run_until_event(env.all_of(procs))
    ssd = cluster.targets[0].ssds[0]
    for node in cluster.nodes:
        for i in range(10):
            assert ssd.durable_payload(node.index * 100 + i) == (node.index, i)


def test_crash_recovery_with_two_initiators():
    """A coordinator (initiator 0) recovers the whole cluster: prefixes
    are computed per global stream, covering both initiators' streams."""
    env, cluster, devices = make_multi()

    def writer(node):
        core = node.cpus.pick(0)
        for i in range(50):
            yield from devices[node.index].write_ordered(
                core, 0, lba=node.index * 1_000_000 + i * 2, nblocks=1,
                payload=[(node.index, i + 1)],
            )

    for node in cluster.nodes:
        env.process(writer(node))
    env.run(until=60e-6)
    for target in cluster.targets:
        target.crash()
    env.run(until=env.now + 100e-6)
    for target in cluster.targets:
        target.restart()

    holder = {}

    def recover(env):
        core = cluster.nodes[0].cpus.pick(0)
        holder["report"] = yield from devices[0].recovery() \
            .run_initiator_recovery(core)

    env.run_until_event(env.process(recover(env)))
    report = holder["report"]
    # Streams of both initiators appear (global ids 0 and 4).
    assert 0 in report.prefixes
    assert 4 in report.prefixes
    # Prefix property per stream, against ground truth.
    for node in cluster.nodes:
        stream = devices[node.index].sequencer.stream_base  # local stream 0
        prefix = report.prefixes.get(stream, 0)
        ssd = cluster.targets[0].ssds[0]
        for i in range(50):
            payload = ssd.durable_payload(node.index * 1_000_000 + i * 2)
            if i + 1 <= prefix:
                assert payload == (node.index, i + 1)
            else:
                assert payload is None
