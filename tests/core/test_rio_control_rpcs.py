"""Tests for the Rio target's control-plane RPCs (§4.4 recovery plumbing)."""

import pytest

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def setup_with_writes(n=6):
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)

    def writer(env):
        events = []
        for i in range(n):
            done = yield from rio.write_ordered(core, 0, lba=i * 2, nblocks=1,
                                                payload=[i])
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(writer(env)))
    return env, cluster, rio, core


def rpc(env, cluster, core, kind, payload=None, nbytes=32):
    endpoint = cluster.namespaces[0].endpoints[0]
    holder = {}

    def proc(env):
        waiter = yield from cluster.driver.rpc(core, endpoint, kind, payload,
                                               nbytes=nbytes)
        holder["reply"] = yield waiter

    env.run_until_event(env.process(proc(env)))
    return holder["reply"]


def test_read_attrs_returns_persisted_records():
    env, cluster, rio, core = setup_with_writes(6)
    records = rpc(env, cluster, core, "rio_read_attrs")
    # Completed + acked groups may have been recycled, but the PMR content
    # survives; at minimum the most recent attributes are visible.
    assert records
    assert all(r.stream_id == 0 for r in records)


def test_discard_erases_requested_extents():
    env, cluster, rio, core = setup_with_writes(4)
    ssd = cluster.targets[0].ssds[0]
    assert ssd.durable_payload(0) == 0
    count = rpc(env, cluster, core, "rio_discard", [(0, 0, 1), (0, 2, 1)])
    assert count == 2
    assert ssd.durable_payload(0) is None
    assert ssd.durable_payload(2) is None
    assert ssd.durable_payload(4) == 2  # untouched


def test_clear_log_wipes_pmr():
    env, cluster, rio, core = setup_with_writes(4)
    assert cluster.targets[0].pmr.records()
    ok = rpc(env, cluster, core, "rio_clear_log")
    assert ok is True
    assert cluster.targets[0].pmr.records() == {}
    # Clearing the target's ordering state goes hand in hand with resetting
    # the initiator's per-server dispatch positions (as recovery does).
    rio.scheduler_reset_target(cluster.targets[0])
    # The device remains usable for new ordered writes afterwards.
    def more(env):
        done = yield from rio.write_ordered(core, 0, lba=100, nblocks=1,
                                            payload=["post-clear"])
        yield done

    env.run_until_event(env.process(more(env)))
    assert cluster.targets[0].ssds[0].durable_payload(100) == "post-clear"
