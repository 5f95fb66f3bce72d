"""Direct unit tests for block-layer merging and plugging internals."""

import pytest

from repro.block.mq import BlockLayer, Plug
from repro.block.request import Bio, BlockRequest, WriteFlags
from repro.cluster import Cluster
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def make_layer(width=1, merging=True):
    env = Environment()
    cluster = Cluster(env, target_ssds=(tuple([OPTANE_905P] * width),))
    layer = BlockLayer(env, cluster.driver, cluster.volume(),
                       merging_enabled=merging)
    return env, cluster, layer


def req(lba, nblocks, op="write", flush=False, fua=False):
    return BlockRequest(op=op, lba=lba, nblocks=nblocks,
                        bios=[Bio(op=op, lba=lba, nblocks=nblocks)],
                        flush=flush, fua=fua)


def test_can_merge_rules():
    a = req(0, 2)
    b = req(2, 1)
    assert BlockLayer.can_merge(a, b)
    assert not BlockLayer.can_merge(a, req(5, 1))  # gap
    assert not BlockLayer.can_merge(req(0, 1, op="read"), req(1, 1, op="read"))
    assert not BlockLayer.can_merge(req(0, 1, flush=True), req(1, 1))
    assert not BlockLayer.can_merge(req(0, 1, fua=True), req(1, 1))
    # Ordered requests (with attrs) never merge in the orderless layer.
    attributed = req(0, 1)
    attributed.attr = object()
    assert not BlockLayer.can_merge(attributed, req(1, 1))


def test_merge_fragments_respects_max_transfer():
    env, cluster, layer = make_layer()
    ns = cluster.namespaces[0]
    max_blocks = OPTANE_905P.max_transfer // 4096
    fragments = [(ns, req(i, 1)) for i in range(max_blocks + 5)]
    merged = layer.merge_fragments(fragments)
    assert len(merged) == 2
    assert merged[0][1].nblocks == max_blocks
    assert merged[1][1].nblocks == 5


def test_merge_fragments_keeps_per_device_separation():
    env, cluster, layer = make_layer(width=2)
    ns0, ns1 = cluster.namespaces
    fragments = [
        (ns0, req(0, 1)), (ns1, req(0, 1)),
        (ns0, req(1, 1)), (ns1, req(1, 1)),
    ]
    merged = layer.merge_fragments(fragments)
    assert len(merged) == 2  # one merged run per device
    assert all(r.nblocks == 2 for _ns, r in merged)


def test_merged_request_inherits_flush_of_tail():
    env, cluster, layer = make_layer()
    ns = cluster.namespaces[0]
    fragments = [(ns, req(0, 1)), (ns, req(1, 1, flush=True))]
    merged = layer.merge_fragments(fragments)
    assert len(merged) == 1
    assert merged[0][1].flush


def test_plug_holds_until_finish():
    env, cluster, layer = make_layer()
    core = cluster.initiator.cpus.pick(0)
    plug = Plug()

    def proc(env):
        done = yield from layer.submit_bio(
            core, Bio(op="write", lba=0, nblocks=1), plug=plug
        )
        # Nothing dispatched yet: the command counter is untouched.
        assert cluster.driver.commands_sent == 0
        assert len(plug) == 1
        yield from layer.finish_plug(core, plug)
        yield done

    env.run_until_event(env.process(proc(env)))
    assert cluster.driver.commands_sent == 1
    assert len(plug) == 0


def test_finish_plug_without_merging_keeps_fragments():
    env, cluster, layer = make_layer(merging=False)
    core = cluster.initiator.cpus.pick(0)
    plug = Plug()

    def proc(env):
        events = []
        for i in range(3):
            done = yield from layer.submit_bio(
                core, Bio(op="write", lba=i, nblocks=1), plug=plug
            )
            events.append(done)
        yield from layer.finish_plug(core, plug)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    assert cluster.driver.commands_sent == 3


def test_bio_validation():
    with pytest.raises(ValueError):
        Bio(op="write", lba=0, nblocks=0)
    with pytest.raises(ValueError):
        Bio(op="teleport", lba=0, nblocks=1)
    with pytest.raises(ValueError):
        Bio(op="write", lba=0, nblocks=2, payload=["one"])
    with pytest.raises(ValueError):
        BlockRequest(op="write", lba=0, nblocks=0)


def test_split_read_reassembles_payload_across_devices():
    env, cluster, layer = make_layer(width=2)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        write = Bio(op="write", lba=0, nblocks=4,
                    payload=["a", "b", "c", "d"])
        done = yield from layer.submit_bio(core, write)
        yield done
        read = Bio(op="read", lba=0, nblocks=4)
        done = yield from layer.submit_bio(core, read)
        yield done
        return read.payload

    payload = env.run_until_event(env.process(proc(env)))
    assert payload == ["a", "b", "c", "d"]


class _FastFailDriver:
    """Driver stub that fails every request locally the way
    ``InitiatorDriver._fast_fail`` does: ``submit`` sets the request's
    status and returns an event that has already fired."""

    def __init__(self, env):
        self.env = env

    def submit(self, core, ns, request):
        request.status = 7
        done = self.env.event()
        done.succeed(None)
        return done
        yield  # a generator, like the real driver's submit


def _fast_fail_log(busy):
    """Where a fast-failed request's bio completes relative to the events
    that are ready around its dispatch (``busy``) or with none ready."""
    env = Environment()
    layer = BlockLayer(env, _FastFailDriver(env), volume=None)
    log = []

    def mark(label):
        event = env.event()
        event.callbacks.append(lambda _event: log.append((env.now, label)))
        event.succeed()

    bio = Bio(op="write", lba=0, nblocks=1)
    bio.make_completion(env).callbacks.append(
        lambda _event: log.append((env.now, "bio", bio.status)))
    request = BlockRequest(op="write", lba=0, nblocks=1, bios=[bio],
                           qp_index=0)

    def submitter():
        if busy:
            mark("before")
        yield from layer.dispatch(None, None, request)
        if busy:
            mark("after")
            yield env.timeout(0)
            log.append((env.now, "resumed"))
            mark("later")
        else:
            yield env.timeout(1e-6)
            log.append((env.now, "resumed"))

    env.process(submitter())
    env.run()
    return log


@pytest.mark.parametrize("busy,expected", [
    (False, [(0.0, "bio", 7), (1e-6, "resumed")]),
    (True, [(0.0, "before"), (0.0, "after"), (0.0, "resumed"),
            (0.0, "later"), (0.0, "bio", 7)]),
])
def test_fast_failed_request_completes_where_the_watcher_did(busy, expected):
    """An already-fired driver event completes the bio one hop after the
    dispatch's own instant work, and a second hop later when other events
    were ready at the first: the order a watcher process spawned at
    dispatch produced (pinned at that implementation)."""
    assert _fast_fail_log(busy) == expected
