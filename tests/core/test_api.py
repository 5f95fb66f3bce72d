"""Tests for the RioDevice public surface (§4.6 programming model)."""

import pytest

from repro.block.request import Bio
from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.core.recovery import RioRecovery
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def make_rio(**kwargs):
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, **kwargs)
    return env, cluster, rio


def test_default_streams_match_core_count():
    env, cluster, rio = make_rio()
    assert rio.num_streams == len(cluster.initiator.cpus)


def test_rio_wait_returns_event_value():
    env, cluster, rio = make_rio(num_streams=1)
    core = cluster.initiator.cpus.pick(0)
    holder = {}

    def proc(env):
        done = yield from rio.write_ordered(core, 0, lba=0, nblocks=1)
        holder["seq"] = yield from rio.wait(done)

    env.run_until_event(env.process(proc(env)))
    assert holder["seq"] == 1  # the released group's sequence number


def test_recovery_factory_returns_bound_recovery():
    env, cluster, rio = make_rio(num_streams=1)
    recovery = rio.recovery()
    assert isinstance(recovery, RioRecovery)
    assert recovery.stack is rio


def test_submit_rejects_read_bios():
    env, cluster, rio = make_rio(num_streams=1)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        bio = Bio(op="read", lba=0, nblocks=1)
        yield from rio.submit_ordered(core, bio)

    with pytest.raises(ValueError):
        env.run_until_event(env.process(proc(env)))


def test_ipu_flag_reaches_the_attribute():
    env, cluster, rio = make_rio(num_streams=1)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        done = yield from rio.write_ordered(core, 0, lba=0, nblocks=1, ipu=True)
        yield done

    env.run_until_event(env.process(proc(env)))
    records = list(cluster.targets[0].pmr.records().values())
    assert records and all(r.ipu for r in records)


def test_two_devices_on_disjoint_volumes():
    """Two RioDevices over disjoint namespace sets coexist (e.g. one per
    tenant), since ordering state is per target policy and streams."""
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P, OPTANE_905P),))
    vol_a = cluster.volume(cluster.namespaces[:1])
    vol_b = cluster.volume(cluster.namespaces[1:])
    rio_a = RioDevice(cluster, volume=vol_a, num_streams=1)
    rio_b = RioDevice(cluster, volume=vol_b, num_streams=1, stream_base=16)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        e1 = yield from rio_a.write_ordered(core, 0, lba=0, nblocks=1, payload=["a"])
        e2 = yield from rio_b.write_ordered(core, 0, lba=0, nblocks=1, payload=["b"])
        yield env.all_of([e1, e2])

    env.run_until_event(env.process(proc(env)))
    assert cluster.targets[0].ssds[0].durable_payload(0) == "a"
    assert cluster.targets[0].ssds[1].durable_payload(0) == "b"
