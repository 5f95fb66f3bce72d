"""StreamDirectory: range exhaustion, disjointness, wire translation.

The directory is the paper's "distributed sequencer service" reduced to a
range allocator (§4.9); the invariants that make sharing targets safe are
(a) allocated global ranges never overlap, (b) a bounded directory refuses
over-allocation instead of silently colliding, and (c) each initiator's
*local* stream ids are translated to its global range before they reach
the wire — the shared targets and PMR logs must only ever see global ids.
"""

import pytest

from repro.core.api import RioDevice
from repro.core.attributes import OrderingAttribute
from repro.hw.ssd import OPTANE_905P
from repro.scale import ScaleOutCluster, StreamDirectory
from repro.sim import Environment


def make_multi(num_initiators, streams=4):
    env = Environment()
    cluster = ScaleOutCluster(env, target_ssds=((OPTANE_905P,),),
                              num_initiators=num_initiators)
    devices = [
        RioDevice(node, num_streams=streams,
                  stream_base=cluster.directory.allocate(streams))
        for node in cluster.nodes
    ]
    return env, cluster, devices


# ----------------------------------------------------------------------
# Range exhaustion
# ----------------------------------------------------------------------


def test_unbounded_directory_allocates_monotonically():
    directory = StreamDirectory()
    assert [directory.allocate(3) for _ in range(4)] == [0, 3, 6, 9]


def test_bounded_directory_exhausts():
    directory = StreamDirectory(capacity=8)
    assert directory.allocate(5) == 0
    assert directory.allocate(3) == 5
    with pytest.raises(ValueError, match="exhausted"):
        directory.allocate(1)


def test_partial_overflow_is_refused_and_does_not_burn_range():
    directory = StreamDirectory(capacity=8)
    directory.allocate(6)
    with pytest.raises(ValueError, match="2 of 8 left"):
        directory.allocate(3)
    # The failed request must not have consumed anything.
    assert directory.allocate(2) == 6


def test_invalid_capacity_and_count():
    with pytest.raises(ValueError):
        StreamDirectory(capacity=0)
    with pytest.raises(ValueError):
        StreamDirectory().allocate(0)


# ----------------------------------------------------------------------
# Disjointness across initiators
# ----------------------------------------------------------------------


def test_assigned_ranges_are_disjoint_across_initiators():
    env, cluster, devices = make_multi(num_initiators=3)
    ranges = [
        range(rio.sequencer.stream_base,
              rio.sequencer.stream_base + rio.num_streams)
        for rio in devices
    ]
    claimed = [sid for r in ranges for sid in r]
    assert len(claimed) == len(set(claimed)), "global stream ranges overlap"
    assert cluster.directory.allocations == [(0, 4), (4, 4), (8, 4)]


# ----------------------------------------------------------------------
# Local -> global translation at the wire boundary
# ----------------------------------------------------------------------


def test_local_stream_ids_reach_the_wire_translated():
    env, cluster, devices = make_multi(num_initiators=2)

    def writer(node):
        core = node.cpus.pick(0)
        # Both initiators use *local* stream 1.
        done = yield from devices[node.index].write(
            core, 1, lba=node.index * 1_000_000, nblocks=1,
            payload=[("node", node.index)],
        )
        yield done

    for node in cluster.nodes:
        env.process(writer(node))
    env.run(until=5e-3)

    target = cluster.targets[0]
    wire_streams = {stream for stream, _pos, _epoch, _t in target.audit_log}
    # local 1 -> global stream_base + 1 for each node; the shared target
    # must never observe the raw local id of the second node colliding
    # with the first node's range.
    expected = {
        rio.sequencer.stream_base + 1 for rio in devices
    }
    assert wire_streams == expected == {1, 5}

    logged = {
        record.stream_id
        for _off, (_nbytes, record) in sorted(target.pmr._records.items())
        if isinstance(record, OrderingAttribute)
    }
    assert logged <= expected
    assert logged, "no ordering attributes reached the PMR log"
