"""Tests for crash recovery: per-server validation, global merge, roll-back
and replay (§4.4, Figure 6, §4.8)."""

import pytest

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.core.attributes import OrderingAttribute
from repro.core.recovery import merge_global_order, rebuild_server_list
from repro.hw.ssd import FLASH_PM981, OPTANE_905P
from repro.sim import Environment


def record(target, seq, pos, persist, stream=0, lba=None, flush=False,
           split=False, split_index=0, split_total=0, ipu=False, gi=0,
           num=1, boundary=True, log_pos=None):
    return OrderingAttribute(
        stream_id=stream,
        start_seq=seq,
        end_seq=seq,
        prev=0 if pos == 0 else seq - 1,
        num=num if boundary else 0,
        persist=persist,
        lba=lba if lba is not None else seq * 10,
        nblocks=1,
        boundary=boundary,
        split=split,
        split_index=split_index,
        split_total=split_total,
        ipu=ipu,
        flush=flush,
        server_pos=pos,
        group_index=gi,
        target_name=target,
        nsid=0,
        log_pos=log_pos if log_pos is not None else pos,
    )


# ======================================================================
# Per-server list validation (§4.3.2)
# ======================================================================


def test_plp_valid_prefix_stops_at_first_nonpersist():
    records = [
        record("t0", 1, 0, 1),
        record("t0", 2, 1, 0),
        record("t0", 3, 2, 1),  # durable, but after a gap
    ]
    server = rebuild_server_list("t0", 0, records, plp=True)
    assert [r.start_seq for r in server.valid] == [1]


def test_plp_all_persist_all_valid():
    records = [record("t0", s, s - 1, 1) for s in (1, 2, 3)]
    server = rebuild_server_list("t0", 0, records, plp=True)
    assert [r.start_seq for r in server.valid] == [1, 2, 3]


def test_nonplp_valid_up_to_latest_flush():
    records = [
        record("t0", 1, 0, 0),
        record("t0", 2, 1, 0),
        record("t0", 3, 2, 1, flush=True),  # covers 1..3
        record("t0", 4, 3, 0),
    ]
    server = rebuild_server_list("t0", 0, records, plp=False)
    assert [r.start_seq for r in server.valid] == [1, 2, 3]


def test_nonplp_no_flush_means_nothing_valid():
    records = [record("t0", s, s - 1, 0) for s in (1, 2)]
    server = rebuild_server_list("t0", 0, records, plp=False)
    assert server.valid == []


def test_dedup_keeps_newest_log_position():
    stale = record("t0", 1, 0, 0, log_pos=1)
    fresh = record("t0", 1, 0, 1, log_pos=9)
    server = rebuild_server_list("t0", 0, [stale, fresh], plp=True)
    assert len(server.records) == 1
    assert server.records[0].persist == 1


def test_other_streams_and_servers_are_filtered():
    records = [
        record("t0", 1, 0, 1, stream=0),
        record("t0", 1, 0, 1, stream=1),
        record("t1", 1, 0, 1, stream=0),
    ]
    server = rebuild_server_list("t0", 0, records, plp=True)
    assert len(server.records) == 1


# ======================================================================
# Global merge (§4.4.1) — including the Figure 6 example
# ======================================================================


def test_figure6_example():
    """Paper Figure 6: per-server lists 1←3 (server 1) and 2←5 (server 2);
    W4 is not durable, so W5 is dropped; the global list is 1←2←3 and
    W4..W7 are erased."""
    t0_records = [
        record("t0", 1, 0, 1),
        record("t0", 3, 1, 1),
        record("t0", 6, 2, 0),
    ]
    t1_records = [
        record("t1", 2, 0, 1),
        record("t1", 4, 1, 0),
        record("t1", 5, 2, 1),
        record("t1", 7, 3, 0),
    ]
    everything = t0_records + t1_records
    servers = [
        rebuild_server_list("t0", 0, everything, plp=True),
        rebuild_server_list("t1", 0, everything, plp=True),
    ]
    assert [r.start_seq for r in servers[0].valid] == [1, 3]
    assert [r.start_seq for r in servers[1].valid] == [2]  # W5 after the W4 gap

    order = merge_global_order(servers, stream_id=0)
    assert order.prefix_seq == 3  # global list 1 <- 2 <- 3
    assert order.complete_seqs == {1, 2, 3}
    discarded_seq_lbas = {lba for _t, _n, lba, _c in order.discard_extents}
    # W4..W7 (lba = seq*10) are erased; W1..W3 are not.
    assert discarded_seq_lbas == {40, 50, 60, 70}


def test_group_incomplete_without_boundary_record():
    # Group 1 had two requests; the boundary (second) never arrived.
    records = [record("t0", 1, 0, 1, gi=0, boundary=False, num=0)]
    servers = [rebuild_server_list("t0", 0, records, plp=True)]
    order = merge_global_order(servers, stream_id=0)
    assert order.prefix_seq == 0
    assert 1 in order.incomplete_seqs


def test_group_complete_needs_every_member():
    # Group 1 = two requests; only the boundary one durable.
    records = [
        record("t0", 1, 0, 0, gi=0, boundary=False, num=0),
        record("t0", 1, 1, 1, gi=1, boundary=True, num=2),
    ]
    servers = [rebuild_server_list("t0", 0, records, plp=True)]
    order = merge_global_order(servers, stream_id=0)
    assert order.prefix_seq == 0


def test_split_request_needs_all_fragments():
    """Fragments are merged back before validating the global order (§4.5:
    W2 divided over two servers)."""
    frag0 = record("t0", 2, 0, 1, split=True, split_index=0, split_total=2)
    frag1_missing = record("t1", 2, 0, 0, split=True, split_index=1, split_total=2)
    base = [record("t0", 1, 1, 1, log_pos=5)]
    # Hmm: keep per-server positions consistent: W1 on t0 pos 0, frag at pos 1.
    records = [
        record("t0", 1, 0, 1),
        record("t0", 2, 1, 1, split=True, split_index=0, split_total=2),
        record("t1", 2, 0, 0, split=True, split_index=1, split_total=2),
    ]
    servers = [
        rebuild_server_list("t0", 0, records, plp=True),
        rebuild_server_list("t1", 0, records, plp=True),
    ]
    order = merge_global_order(servers, stream_id=0)
    assert order.prefix_seq == 1  # group 2 incomplete: one fragment volatile


def test_split_request_complete_with_all_fragments():
    records = [
        record("t0", 1, 0, 1),
        record("t0", 2, 1, 1, split=True, split_index=0, split_total=2),
        record("t1", 2, 0, 1, split=True, split_index=1, split_total=2),
    ]
    servers = [
        rebuild_server_list("t0", 0, records, plp=True),
        rebuild_server_list("t1", 0, records, plp=True),
    ]
    order = merge_global_order(servers, stream_id=0)
    assert order.prefix_seq == 2


def test_ipu_blocks_are_reported_not_discarded():
    records = [
        record("t0", 1, 0, 0),
        record("t0", 2, 1, 1, ipu=True),
    ]
    servers = [rebuild_server_list("t0", 0, records, plp=True)]
    order = merge_global_order(servers, stream_id=0)
    assert order.prefix_seq == 0
    assert order.discard_extents == [("t0", 0, 10, 1)]
    assert order.ipu_extents == [("t0", 0, 20, 1)]


def test_missing_middle_group_caps_prefix():
    # Records mention groups 1 and 3; group 2 never reached any server.
    records = [
        record("t0", 1, 0, 1),
        record("t0", 3, 1, 1),
    ]
    servers = [rebuild_server_list("t0", 0, records, plp=True)]
    order = merge_global_order(servers, stream_id=0)
    assert order.prefix_seq == 1


def test_empty_records_mean_empty_order():
    order = merge_global_order(
        [rebuild_server_list("t0", 0, [], plp=True)], stream_id=0
    )
    assert order.prefix_seq == 0
    assert order.discard_extents == []


# ======================================================================
# Full-system crash + initiator recovery over the simulated cluster
# ======================================================================


def run_crash_recovery(profiles, nwrites=40, crash_at=400e-6, flush_every=1):
    env = Environment()
    cluster = Cluster(env, target_ssds=profiles)
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)

    def writer(env):
        events = []
        for i in range(nwrites):
            flush = (i % flush_every) == flush_every - 1
            done = yield from rio.write_ordered(
                core, 0, lba=i * 2, nblocks=1, payload=[("g", i + 1)],
                flush=flush,
            )
            events.append(done)
        yield env.all_of(events)

    env.process(writer(env))
    env.run(until=crash_at)
    for target in cluster.targets:
        target.crash()
    env.run(until=crash_at + 100e-6)  # drain the wreckage
    for target in cluster.targets:
        target.restart()

    report_holder = {}

    def recover(env):
        report = yield from rio.recovery().run_initiator_recovery(core)
        report_holder["report"] = report

    proc = env.process(recover(env))
    env.run_until_event(proc)
    return cluster, rio, report_holder["report"]


def assert_prefix_property(cluster, report, nwrites):
    """§4.8: the post-crash state must be a prefix D1 <- ... <- Dk."""
    prefix = report.prefixes.get(0, 0)
    volume_of = {}
    for i in range(nwrites):
        seq = i + 1
        volume_of[seq] = i * 2
    for seq, vol_lba in volume_of.items():
        ns_index = vol_lba % len(cluster.namespaces)
        ns = cluster.namespaces[ns_index]
        local = vol_lba // len(cluster.namespaces)
        ssd = ns.target.ssds[ns.nsid]
        payload = ssd.durable_payload(local)
        if seq <= prefix:
            assert payload == ("g", seq), (
                f"group {seq} inside prefix {prefix} lost: {payload}"
            )
        else:
            assert payload is None, (
                f"group {seq} beyond prefix {prefix} survived: {payload}"
            )


def test_initiator_recovery_on_optane_single_target():
    cluster, rio, report = run_crash_recovery(((OPTANE_905P,),))
    assert report.mode == "initiator"
    assert report.records_scanned > 0
    assert_prefix_property(cluster, report, 40)


def test_initiator_recovery_on_flash_with_flushes():
    cluster, rio, report = run_crash_recovery(
        ((FLASH_PM981,),), nwrites=30, crash_at=2e-3, flush_every=4
    )
    assert_prefix_property(cluster, report, 30)


def test_initiator_recovery_two_targets():
    cluster, rio, report = run_crash_recovery(
        ((OPTANE_905P,), (OPTANE_905P,)), nwrites=40
    )
    assert_prefix_property(cluster, report, 40)


def test_recovery_reports_phase_times():
    cluster, rio, report = run_crash_recovery(((OPTANE_905P,),))
    assert report.rebuild_seconds > 0
    assert report.total_seconds >= report.rebuild_seconds


def test_recovery_with_no_crashed_writes_discards_nothing():
    """Crash after everything completed: recovery must not roll back."""
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)

    def writer(env):
        events = []
        for i in range(10):
            done = yield from rio.write_ordered(core, 0, lba=i * 2, nblocks=1,
                                                payload=[("g", i + 1)])
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(writer(env)))
    for target in cluster.targets:
        target.crash()
        target.restart()

    holder = {}

    def recover(env):
        holder["report"] = yield from rio.recovery().run_initiator_recovery(core)

    env.run_until_event(env.process(recover(env)))
    for i in range(10):
        assert cluster.targets[0].ssds[0].durable_payload(i * 2) == ("g", i + 1)
