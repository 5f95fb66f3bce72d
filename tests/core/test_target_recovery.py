"""Tests for replay-based target recovery (§4.4.1, target crash)."""

import pytest

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import FLASH_PM981, OPTANE_905P
from repro.sim import Environment


def crash_one_target_mid_run(profiles, nwrites=30, crash_at=50e-6,
                             num_streams=2):
    env = Environment()
    cluster = Cluster(env, target_ssds=profiles)
    rio = RioDevice(cluster, num_streams=num_streams)
    core = cluster.initiator.cpus.pick(0)
    app_events = []

    def writer(env):
        for i in range(nwrites):
            done = yield from rio.write_ordered(
                core, 0, lba=i, nblocks=1, payload=[("w", i + 1)],
            )
            app_events.append(done)

    env.process(writer(env))
    env.run(until=crash_at)
    victim = cluster.targets[0]
    victim.crash()
    env.run(until=env.now + 100e-6)
    victim.restart()
    return env, cluster, rio, core, victim, app_events


def run_target_recovery(env, rio, core, victim):
    holder = {}

    def recover(env):
        holder["report"] = yield from rio.recovery().run_target_recovery(
            core, victim
        )

    env.run_until_event(env.process(recover(env)))
    return holder["report"]


def test_replay_completes_all_writes_single_target():
    env, cluster, rio, core, victim, events = crash_one_target_mid_run(
        ((OPTANE_905P,),)
    )
    lost_before = sum(1 for e in events if not e.triggered)
    assert lost_before > 0, "crash came too late to be interesting"
    report = run_target_recovery(env, rio, core, victim)
    assert report.mode == "target"
    assert report.replayed_requests > 0
    env.run(until=env.now + 2e-3)
    # Every application completion eventually fires, in order.
    assert all(e.triggered for e in events)


def test_replay_makes_all_data_durable():
    env, cluster, rio, core, victim, events = crash_one_target_mid_run(
        ((OPTANE_905P,),)
    )
    run_target_recovery(env, rio, core, victim)
    env.run(until=env.now + 2e-3)
    ssd = cluster.targets[0].ssds[0]
    for i in range(30):
        assert ssd.durable_payload(i) == ("w", i + 1), f"write {i} lost"


def test_replay_is_idempotent():
    """Running target recovery twice must not corrupt anything."""
    env, cluster, rio, core, victim, events = crash_one_target_mid_run(
        ((OPTANE_905P,),)
    )
    run_target_recovery(env, rio, core, victim)
    env.run(until=env.now + 1e-3)
    report2 = run_target_recovery(env, rio, core, victim)
    env.run(until=env.now + 1e-3)
    assert report2.replayed_requests == 0  # nothing left to replay
    ssd = cluster.targets[0].ssds[0]
    for i in range(30):
        assert ssd.durable_payload(i) == ("w", i + 1)


def test_replay_with_two_targets_only_one_crashed():
    """§4.4.1: merging does not drop attributes of alive targets; the
    broken list is repaired by replaying onto the failed one."""
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,), (OPTANE_905P,)))
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)
    events = []

    def writer(env):
        for i in range(40):
            done = yield from rio.write_ordered(
                core, 0, lba=i, nblocks=1, payload=[("w", i + 1)],
            )
            events.append(done)

    env.process(writer(env))
    env.run(until=120e-6)
    victim = cluster.targets[0]
    victim.crash()
    env.run(until=env.now + 100e-6)
    victim.restart()
    report = run_target_recovery(env, rio, core, victim)
    env.run(until=env.now + 2e-3)
    assert all(e.triggered for e in events)
    # All 40 writes durable across both targets (volume stripes them).
    for i in range(40):
        ns, local = rio.volume.locate(i)
        assert ns.target.ssds[ns.nsid].durable_payload(local) == ("w", i + 1)


def test_ordered_writes_resume_after_recovery():
    env, cluster, rio, core, victim, events = crash_one_target_mid_run(
        ((OPTANE_905P,),)
    )
    run_target_recovery(env, rio, core, victim)
    env.run(until=env.now + 2e-3)

    more = []

    def resume(env):
        for i in range(10):
            done = yield from rio.write_ordered(
                core, 0, lba=1000 + i, nblocks=1, payload=[("post", i)],
            )
            more.append(done)
        yield env.all_of(more)

    env.run_until_event(env.process(resume(env)))
    ssd = cluster.targets[0].ssds[0]
    for i in range(10):
        assert ssd.durable_payload(1000 + i) == ("post", i)
