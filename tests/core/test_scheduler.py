"""Unit tests for the Rio I/O scheduler (merging rules, dispatch fields)."""

import pytest

from repro.block.mq import BlockLayer
from repro.block.request import Bio, BlockRequest, WriteFlags
from repro.cluster import Cluster
from repro.core.attributes import OrderingAttribute
from repro.core.scheduler import RioIoScheduler
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def make_scheduler(width=1, merging=True, affinity=True):
    env = Environment()
    cluster = Cluster(env, target_ssds=(tuple([OPTANE_905P] * width),))
    layer = BlockLayer(env, cluster.driver, cluster.volume())
    scheduler = RioIoScheduler(
        env, layer, cluster.initiator.cpus, num_streams=2,
        merging_enabled=merging, qp_affinity=affinity,
    )
    return env, cluster, layer, scheduler


def req(ns, lba, nblocks, seq, stream=0, gi=0, boundary=True, split=False,
        flush=False, ipu=False):
    attr = OrderingAttribute(
        stream_id=stream, start_seq=seq, end_seq=seq, lba=lba,
        nblocks=nblocks, boundary=boundary, group_index=gi,
        flush=flush, ipu=ipu,
    )
    if split:
        attr = attr.clone_fragment(0, 2, lba, nblocks)
    return BlockRequest(op="write", lba=lba, nblocks=nblocks, attr=attr,
                        stream_id=stream)


def test_can_merge_happy_path():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    a = req(ns, lba=0, nblocks=1, seq=1)
    b = req(ns, lba=1, nblocks=1, seq=2)
    assert sched.can_merge(ns, a, ns, b)


def test_cannot_merge_nonconsecutive_seq():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    a = req(ns, lba=0, nblocks=1, seq=1)
    b = req(ns, lba=1, nblocks=1, seq=3)  # gap: seq 2 missing
    assert not sched.can_merge(ns, a, ns, b)


def test_cannot_merge_nonconsecutive_lba():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    a = req(ns, lba=0, nblocks=1, seq=1)
    b = req(ns, lba=5, nblocks=1, seq=2)
    assert not sched.can_merge(ns, a, ns, b)


def test_cannot_merge_across_streams():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    a = req(ns, lba=0, nblocks=1, seq=1, stream=0)
    b = req(ns, lba=1, nblocks=1, seq=1, stream=1)
    assert not sched.can_merge(ns, a, ns, b)


def test_cannot_merge_split_fragments():
    """'A merged request can not be split, and vice versa' (§4.5)."""
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    a = req(ns, lba=0, nblocks=1, seq=1, split=True)
    b = req(ns, lba=1, nblocks=1, seq=2)
    assert not sched.can_merge(ns, a, ns, b)
    assert not sched.can_merge(ns, b, ns, a)


def test_cannot_merge_past_flush_barrier():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    a = req(ns, lba=0, nblocks=1, seq=1, flush=True)
    a.flush = True
    b = req(ns, lba=1, nblocks=1, seq=2)
    assert not sched.can_merge(ns, a, ns, b)
    # But merging *into* a final flush request is fine.
    c = req(ns, lba=0, nblocks=1, seq=1)
    d = req(ns, lba=1, nblocks=1, seq=2, flush=True)
    assert sched.can_merge(ns, c, ns, d)


def test_cannot_merge_mixed_ipu():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    a = req(ns, lba=0, nblocks=1, seq=1, ipu=True)
    b = req(ns, lba=1, nblocks=1, seq=2, ipu=False)
    assert not sched.can_merge(ns, a, ns, b)


def test_cannot_merge_beyond_max_transfer():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    max_blocks = OPTANE_905P.max_transfer // 4096
    a = req(ns, lba=0, nblocks=max_blocks - 1, seq=1)
    b = req(ns, lba=max_blocks - 1, nblocks=2, seq=2)
    assert not sched.can_merge(ns, a, ns, b)


def test_merge_batch_compacts_attributes():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    batch = [
        (ns, req(ns, lba=0, nblocks=1, seq=1)),
        (ns, req(ns, lba=1, nblocks=1, seq=2)),
        (ns, req(ns, lba=2, nblocks=1, seq=3)),
    ]
    merged = sched._merge_batch(batch)
    assert len(merged) == 1
    _ns, out = merged[0]
    assert out.nblocks == 3
    assert out.attr.merged
    assert out.attr.start_seq == 1
    assert out.attr.end_seq == 3
    assert out.attr.covered == 3
    assert len(out.attr.covered_ids) == 3
    assert sched.requests_merged == 2


def test_merge_within_group_same_seq():
    """W1_1 + W1_2 (same seq) are seq-continuous per §4.5 requirement 2."""
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    batch = [
        (ns, req(ns, lba=0, nblocks=2, seq=1, gi=0, boundary=False)),
        (ns, req(ns, lba=2, nblocks=1, seq=1, gi=1, boundary=True)),
    ]
    merged = sched._merge_batch(batch)
    assert len(merged) == 1
    assert merged[0][1].attr.boundary  # the later request's boundary wins


def test_dispatch_fields_prev_chain():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    r1 = req(ns, lba=0, nblocks=1, seq=1)
    r2 = req(ns, lba=10, nblocks=1, seq=2)
    r3 = req(ns, lba=20, nblocks=1, seq=3)
    for r in (r1, r2, r3):
        sched._assign_dispatch_fields(0, ns, r)
    assert (r1.attr.prev, r2.attr.prev, r3.attr.prev) == (0, 1, 2)
    assert [r.attr.server_pos for r in (r1, r2, r3)] == [0, 1, 2]


def test_dispatch_fields_same_group_shares_prev():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    r1 = req(ns, lba=0, nblocks=1, seq=1)
    r2a = req(ns, lba=10, nblocks=1, seq=2, gi=0, boundary=False)
    r2b = req(ns, lba=20, nblocks=1, seq=2, gi=1, boundary=True)
    for r in (r1, r2a, r2b):
        sched._assign_dispatch_fields(0, ns, r)
    assert r2a.attr.prev == 1
    assert r2b.attr.prev == 1  # same group, same predecessor


def test_qp_affinity_sets_stream_queue():
    env, cluster, layer, sched = make_scheduler(affinity=True)
    ns = cluster.namespaces[0]
    r = req(ns, lba=0, nblocks=1, seq=1, stream=1)
    sched._assign_dispatch_fields(1, ns, r)
    assert r.qp_index == 1


def test_reset_target_clears_positions():
    env, cluster, layer, sched = make_scheduler()
    ns = cluster.namespaces[0]
    r1 = req(ns, lba=0, nblocks=1, seq=1)
    sched._assign_dispatch_fields(0, ns, r1)
    sched.reset_target(ns.target)
    r2 = req(ns, lba=10, nblocks=1, seq=2)
    sched._assign_dispatch_fields(0, ns, r2)
    assert r2.attr.server_pos == 0  # counter restarted


def test_num_streams_validation():
    env, cluster, layer, _sched = make_scheduler()
    with pytest.raises(ValueError):
        RioIoScheduler(env, layer, cluster.initiator.cpus, num_streams=0)


@pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="stream stealing is broken: writers on different cores append "
    "to one ORDER queue out of seq order (ROADMAP open item 3)")
def test_writers_on_different_cores_share_one_stream():
    """Fig. 7(b) stream stealing: four writers, each on its own core,
    submit ordered writes to stream 0 with 8 in flight each."""
    from repro.core.api import RioDevice

    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, num_streams=1)

    def writer(w):
        core = cluster.initiator.cpus.pick(w)
        inflight = []
        for i in range(64):
            done = yield from rio.write_ordered(core, 0, w * 1_000_000 + i, 1,
                                                end_of_group=True)
            inflight.append(done)
            if len(inflight) == 8:
                yield inflight.pop(0)
        for done in inflight:
            yield done

    writers = [env.process(writer(w)) for w in range(4)]
    env.run_until_event(env.all_of(writers), limit=1e-2)
    assert all(w.processed for w in writers)
