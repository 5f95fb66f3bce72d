"""Integration tests for the Rio ordered block device (§4.1–§4.6)."""

import pytest

from repro.block.request import Bio, WriteFlags
from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import FLASH_PM981, OPTANE_905P
from repro.sim import Environment


def make_rio(profiles=((OPTANE_905P,),), num_streams=4, **kwargs):
    env = Environment()
    cluster = Cluster(env, target_ssds=profiles)
    rio = RioDevice(cluster, num_streams=num_streams, **kwargs)
    return env, cluster, rio


def test_single_ordered_write_completes_and_persists():
    env, cluster, rio = make_rio()
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        done = yield from rio.write_ordered(core, stream_id=0, lba=5, nblocks=1,
                                            payload=["v"])
        yield done

    env.run_until_event(env.process(proc(env)))
    assert cluster.targets[0].ssds[0].durable_payload(5) == "v"


def test_completions_are_released_in_order():
    """Even though execution is asynchronous, the caller observes group
    completions strictly in submission order (step ⑨)."""
    env, cluster, rio = make_rio()
    core = cluster.initiator.cpus.pick(0)
    release_order = []

    def proc(env):
        events = []
        for i in range(10):
            done = yield from rio.write_ordered(core, stream_id=0, lba=100 + 2 * i,
                                                nblocks=1)
            events.append((i, done))
        for i, done in events:
            env.process(watch(env, i, done))
        yield env.all_of([e for _i, e in events])

    def watch(env, i, done):
        yield done
        release_order.append(i)

    env.run_until_event(env.process(proc(env)))
    assert release_order == list(range(10))


def test_groups_complete_at_group_granularity():
    env, cluster, rio = make_rio()
    core = cluster.initiator.cpus.pick(0)
    completed = []

    def proc(env):
        # Group 1: two requests (journal description + metadata), then the
        # commit record as group 2 — the motivation workload's pattern.
        e1 = yield from rio.write_ordered(core, 0, lba=0, nblocks=2, end_of_group=False)
        e2 = yield from rio.write_ordered(core, 0, lba=10, nblocks=1, end_of_group=True)
        e3 = yield from rio.write_ordered(core, 0, lba=20, nblocks=1, end_of_group=True)
        for tag, event in (("g1a", e1), ("g1b", e2), ("g2", e3)):
            env.process(watch(env, tag, event))
        yield env.all_of([e1, e2, e3])

    def watch(env, tag, event):
        yield event
        completed.append(tag)

    env.run_until_event(env.process(proc(env)))
    assert completed.index("g2") > completed.index("g1a")
    assert completed.index("g2") > completed.index("g1b")


def test_streams_are_independent():
    env, cluster, rio = make_rio(num_streams=2)
    core0 = cluster.initiator.cpus.pick(0)
    core1 = cluster.initiator.cpus.pick(1)
    done_events = []

    def writer(env, core, stream, base):
        for i in range(5):
            done = yield from rio.write_ordered(core, stream, lba=base + i * 2, nblocks=1)
            done_events.append(done)
            yield done

    p0 = env.process(writer(env, core0, 0, 0))
    p1 = env.process(writer(env, core1, 1, 1000))
    env.run_until_event(env.all_of([p0, p1]))
    assert all(e.triggered for e in done_events)


def test_flush_in_final_request_gives_durability_on_flash():
    env, cluster, rio = make_rio(profiles=((FLASH_PM981,),))
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        e1 = yield from rio.write_ordered(core, 0, lba=0, nblocks=2,
                                          payload=["jd", "jm"], end_of_group=False)
        e2 = yield from rio.write_ordered(core, 0, lba=2, nblocks=1, payload=["jc"],
                                          end_of_group=True, flush=True)
        yield env.all_of([e1, e2])

    env.run_until_event(env.process(proc(env)))
    ssd = cluster.targets[0].ssds[0]
    for lba, val in ((0, "jd"), (1, "jm"), (2, "jc")):
        assert ssd.is_durable(lba), f"lba {lba} not durable after flush"
        assert ssd.durable_payload(lba) == val


def test_ordered_writes_on_flash_skip_per_request_flush():
    """Rio needs no FLUSH for ordering (only for explicit durability)."""
    env, cluster, rio = make_rio(profiles=((FLASH_PM981,),))
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        events = []
        for i in range(20):
            done = yield from rio.write_ordered(core, 0, lba=i, nblocks=1)
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    assert cluster.targets[0].ssds[0].flushes_served == 0


def test_consecutive_ordered_writes_merge():
    """A batch of seq-continuous, LBA-consecutive ordered writes merges
    into a single command (Figure 8(a), Figure 12's batch workload)."""
    env, cluster, rio = make_rio()
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        events = []
        for i in range(8):  # sequential LBAs: mergeable
            last = i == 7
            done = yield from rio.write_ordered(core, 0, lba=i, nblocks=1, payload=[i],
                                                kick=last)
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    assert rio.scheduler.requests_merged == 7
    assert cluster.driver.commands_sent == 1
    ssd = cluster.targets[0].ssds[0]
    assert [ssd.durable_payload(i) for i in range(8)] == list(range(8))


def test_multi_request_group_merges_without_explicit_kick():
    """A group's requests are staged until the boundary request kicks, so
    the journal-pattern group (JD+JM then JC) merges by default."""
    env, cluster, rio = make_rio()
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        e1 = yield from rio.write_ordered(core, 0, lba=0, nblocks=2, end_of_group=False)
        e2 = yield from rio.write_ordered(core, 0, lba=2, nblocks=1, end_of_group=True)
        yield env.all_of([e1, e2])

    env.run_until_event(env.process(proc(env)))
    assert cluster.driver.commands_sent == 1
    assert rio.scheduler.requests_merged == 1


def test_merging_can_be_disabled():
    env, cluster, rio = make_rio(merging_enabled=False)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        events = []
        for i in range(8):
            done = yield from rio.write_ordered(core, 0, lba=i, nblocks=1)
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    assert rio.scheduler.requests_merged == 0
    assert cluster.driver.commands_sent == 8


def test_random_lbas_do_not_merge():
    env, cluster, rio = make_rio()
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        events = []
        for i in range(8):
            done = yield from rio.write_ordered(core, 0, lba=i * 100, nblocks=1)
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    assert rio.scheduler.requests_merged == 0


def test_stream_qp_affinity_reduces_submission_stalls():
    """Principle 2: pinning a stream to one QP inherits RC in-order
    delivery, so the target's in-order gate rarely blocks; spraying
    across QPs (the ablation) makes out-of-order arrivals common."""

    def stalls(qp_affinity):
        env, cluster, rio = make_rio(num_streams=2, qp_affinity=qp_affinity)
        core = cluster.initiator.cpus.pick(5)  # stream stealing too

        def proc(env):
            events = []
            for i in range(100):
                done = yield from rio.write_ordered(core, 1, lba=i * 10, nblocks=1)
                events.append(done)
            yield env.all_of(events)

        env.run_until_event(env.process(proc(env)))
        return rio.policies[0].out_of_order_arrivals

    with_affinity = stalls(qp_affinity=True)
    without_affinity = stalls(qp_affinity=False)
    assert without_affinity > with_affinity
    assert with_affinity <= 10  # near-zero with RC in-order delivery


def test_ordered_write_targets_multiple_servers():
    env, cluster, rio = make_rio(profiles=((OPTANE_905P,), (OPTANE_905P,)))
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        events = []
        for i in range(8):
            done = yield from rio.write_ordered(core, 0, lba=i, nblocks=1,
                                                payload=[f"b{i}"])
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    # Round-robin striping: even volume LBAs on target0, odd on target1.
    assert cluster.targets[0].ssds[0].durable_payload(0) == "b0"
    assert cluster.targets[1].ssds[0].durable_payload(0) == "b1"


def test_split_request_carries_split_attributes():
    env, cluster, rio = make_rio(profiles=((OPTANE_905P, OPTANE_905P),))
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        done = yield from rio.write_ordered(core, 0, lba=0, nblocks=4,
                                            payload=["a", "b", "c", "d"])
        yield done

    env.run_until_event(env.process(proc(env)))
    # The 4-block write striped over 2 SSDs: each fragment logged with the
    # split flag in each target's PMR.
    records = [
        r for r in cluster.targets[0].pmr.records().values()
    ]
    assert records, "no attributes persisted"
    assert all(r.split for r in records)
    assert all(r.split_total == 2 for r in records)


def test_attribute_log_recycles_space():
    env, cluster, rio = make_rio()
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        for i in range(50):
            done = yield from rio.write_ordered(core, 0, lba=i * 3, nblocks=1)
            yield done  # released immediately -> ack piggybacked later

    env.run_until_event(env.process(proc(env)))
    log = rio.policies[0].log
    # Head must have advanced (completed groups recycled).
    assert log.head > 0
    assert log.live_entries < 50


def test_throughput_tracks_orderless_on_optane():
    """Rio's ordered throughput should be within ~25% of orderless
    (Figure 10(b): 'similar throughput ... against the orderless')."""
    from repro.block.mq import BlockLayer

    def run_rio():
        env, cluster, rio = make_rio(num_streams=1)
        core = cluster.initiator.cpus.pick(0)
        count = [0]

        def writer(env):
            inflight = []
            lba = 0
            while env.now < 10e-3:
                done = yield from rio.write_ordered(core, 0, lba=lba * 7, nblocks=1)
                lba += 1
                inflight.append(done)
                if len(inflight) >= 32:
                    yield env.any_of(inflight)
                    inflight = [e for e in inflight if not e.triggered]
                    count[0] = lba
            yield env.all_of(inflight)

        env.process(writer(env))
        env.run(until=10e-3)
        return count[0] / 10e-3

    def run_orderless():
        env = Environment()
        cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
        layer = BlockLayer(env, cluster.driver, cluster.volume())
        core = cluster.initiator.cpus.pick(0)
        count = [0]

        def writer(env):
            inflight = []
            lba = 0
            while env.now < 10e-3:
                done = yield from layer.submit_bio(
                    core, Bio(op="write", lba=lba * 7, nblocks=1)
                )
                lba += 1
                inflight.append(done)
                if len(inflight) >= 32:
                    yield env.any_of(inflight)
                    inflight = [e for e in inflight if not e.triggered]
                    count[0] = lba
            yield env.all_of(inflight)

        env.process(writer(env))
        env.run(until=10e-3)
        return count[0] / 10e-3

    rio_iops = run_rio()
    orderless_iops = run_orderless()
    assert rio_iops > 0.7 * orderless_iops
