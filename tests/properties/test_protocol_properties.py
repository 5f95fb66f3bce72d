"""Property-based tests: codec round-trips, merging legality, volume maps,
attribute-log liveness, and end-to-end ordered completion."""

from hypothesis import given, settings, strategies as st

from repro.block.request import Bio
from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.core.attributes import OrderingAttribute
from repro.hw.ssd import OPTANE_905P
from repro.nvmeof.command import (
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    NvmeCommand,
    NvmeResponse,
    RioFields,
)
from repro.sim import Environment


# ----------------------------------------------------------------------
# Table 1 codec round-trip over the full field space
# ----------------------------------------------------------------------


@given(
    opcode=st.sampled_from([OP_FLUSH, OP_WRITE, OP_READ]),
    cid=st.integers(0, 0xFFFF),
    nsid=st.integers(0, 0xFFFF),
    slba=st.integers(0, (1 << 48) - 1),
    nblocks=st.integers(1, 0x10000),
    fua=st.booleans(),
    flush_after=st.booleans(),
    rio_op=st.integers(0, 0xF),
    start_seq=st.integers(0, 0xFFFFFFFF),
    prev=st.integers(0, 0xFFFFFFFF),
    num=st.integers(0, 0xFFFF),
    stream_id=st.integers(0, 0xFFFF),
    flags=st.integers(0, 0xF),
)
@settings(max_examples=300, deadline=None)
def test_command_codec_roundtrip(opcode, cid, nsid, slba, nblocks, fua,
                                 flush_after, rio_op, start_seq, prev, num,
                                 stream_id, flags):
    rio = RioFields(rio_op=rio_op, start_seq=start_seq,
                    end_seq=start_seq, prev=prev, num=num,
                    stream_id=stream_id, flags=flags)
    cmd = NvmeCommand(opcode=opcode, cid=cid, nsid=nsid, slba=slba,
                      nblocks=nblocks if opcode != OP_FLUSH else 0,
                      fua=fua, flush_after=flush_after, rio=rio)
    out = NvmeCommand.unpack(cmd.pack())
    assert out.opcode == opcode
    assert out.cid == cid
    assert out.nsid == nsid
    assert out.slba == slba
    if opcode != OP_FLUSH:
        assert out.nblocks == cmd.nblocks
    assert out.fua == fua
    assert out.flush_after == flush_after
    assert out.rio.rio_op == rio_op
    assert out.rio.start_seq == start_seq
    assert out.rio.prev == prev
    assert out.rio.num == num
    assert out.rio.stream_id == stream_id
    assert out.rio.flags == flags


@given(cid=st.integers(0, 0xFFFF), status=st.integers(0, 0x7FFF),
       sq_head=st.integers(0, 0xFFFF), result=st.integers(0, 0xFFFFFFFF))
@settings(max_examples=200, deadline=None)
def test_response_codec_roundtrip(cid, status, sq_head, result):
    out = NvmeResponse.unpack(
        NvmeResponse(cid=cid, status=status, sq_head=sq_head,
                     result=result).pack()
    )
    assert (out.cid, out.status, out.sq_head, out.result) == (
        cid, status, sq_head, result)


# ----------------------------------------------------------------------
# Volume extent mapping is a bijection
# ----------------------------------------------------------------------


@given(width=st.integers(1, 5), lba=st.integers(0, 1000),
       nblocks=st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_volume_extents_partition_the_range(width, lba, nblocks):
    env = Environment()
    cluster = Cluster(env, target_ssds=(tuple([OPTANE_905P] * width),))
    volume = cluster.volume()
    seen_offsets = []
    seen_locations = set()
    for ns, local_lba, offsets in volume.extents(lba, nblocks):
        seen_offsets.extend(offsets)
        for i, offset in enumerate(offsets):
            location = (id(ns), local_lba + i)
            assert location not in seen_locations
            seen_locations.add(location)
            # The per-block map agrees with locate().
            direct_ns, direct_local = volume.locate(lba + offset)
            assert direct_ns is ns
            assert direct_local == local_lba + i
    assert sorted(seen_offsets) == list(range(nblocks))


# ----------------------------------------------------------------------
# End-to-end: ordered completion survives arbitrary write plans
# ----------------------------------------------------------------------


@st.composite
def write_plans(draw):
    """A list of (stream, nblocks, end_of_group, flush, kick) tuples."""
    plan = []
    for _ in range(draw(st.integers(2, 20))):
        plan.append((
            draw(st.integers(0, 2)),        # stream
            draw(st.integers(1, 4)),        # nblocks
            draw(st.booleans()),            # end_of_group
            draw(st.booleans()),            # flush
            draw(st.booleans()),            # kick
        ))
    return plan


@given(write_plans())
@settings(max_examples=60, deadline=None)
def test_in_order_completion_for_any_plan(plan):
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, num_streams=3)
    core = cluster.initiator.cpus.pick(0)
    order = {s: [] for s in range(3)}
    events = []
    next_lba = [0]

    def writer(env):
        open_group = {s: False for s in range(3)}
        for stream, nblocks, end, flush, kick in plan:
            lba = next_lba[0]
            next_lba[0] += nblocks + 1
            done = yield from rio.write_ordered(
                core, stream, lba=lba, nblocks=nblocks,
                end_of_group=end, flush=flush, kick=kick,
            )
            open_group[stream] = not end
            events.append(done)
            env.process(track(env, stream, done))
        # Close any groups left open so everything can complete, and kick.
        for stream, is_open in open_group.items():
            if is_open:
                lba = next_lba[0]
                next_lba[0] += 2
                done = yield from rio.write_ordered(core, stream, lba=lba, nblocks=1,
                                                    end_of_group=True, kick=True)
                events.append(done)
                env.process(track(env, stream, done))
            else:
                rio.scheduler.kick(stream)
        yield env.all_of(events)

    def track(env, stream, done):
        seq = yield done
        order[stream].append(seq)

    env.run_until_event(env.process(writer(env)))
    assert all(e.triggered for e in events)
    for stream, seqs in order.items():
        assert seqs == sorted(seqs), f"stream {stream} released out of order"


# ----------------------------------------------------------------------
# The PMR attribute log never overwrites live entries
# ----------------------------------------------------------------------


@given(st.integers(2, 30), st.integers(2, 10))
@settings(max_examples=30, deadline=None)
def test_attribute_log_liveness(nwrites, capacity_entries):
    from repro.core.target import AttributeLog
    from repro.hw.cpu import Core
    from repro.hw.pmr import PersistentMemoryRegion

    env = Environment()
    core = Core(env, 0)
    pmr = PersistentMemoryRegion(env, size=capacity_entries * 32)
    log = AttributeLog(env, pmr)

    def driver(env):
        for i in range(nwrites):
            attr = OrderingAttribute(stream_id=0, start_seq=i + 1,
                                     end_seq=i + 1, prev=i)
            pos = yield from log.append(core, attr)
            assert log.tail - log.head <= log.capacity
            # Immediately acknowledge so the head can advance.
            log.acknowledge(0, i + 1)

    env.run_until_event(env.process(driver(env)))
    assert log.head == log.tail  # everything recycled
