"""Unit tests for the Cluster testbed builder."""

import pytest

from repro.cluster import Cluster
from repro.hw.ssd import FLASH_PM981, OPTANE_905P
from repro.scale import ScaleOutCluster
from repro.sim import Environment

#: The two entry points to the one assembly, and the name each gives
#: its (first) initiator host.
ENTRY_POINTS = [
    pytest.param(Cluster, {}, "initiator", id="Cluster"),
    pytest.param(ScaleOutCluster, {"num_initiators": 1}, "initiator0",
                 id="ScaleOutCluster-N1"),
]


def test_cluster_requires_targets():
    env = Environment()
    with pytest.raises(ValueError):
        Cluster(env, target_ssds=())
    with pytest.raises(ValueError):
        Cluster(env, target_ssds=((),))


def test_cluster_builds_paper_testbed():
    env = Environment()
    cluster = Cluster(
        env,
        target_ssds=((FLASH_PM981, OPTANE_905P), (FLASH_PM981, OPTANE_905P)),
    )
    assert len(cluster.targets) == 2
    assert len(cluster.namespaces) == 4
    assert len(cluster.initiator.cpus) == 36  # 2 x 18 cores
    assert all(len(t.cpus) == 36 for t in cluster.targets)
    assert all(t.pmr.size == 2 * 1024 * 1024 for t in cluster.targets)


def test_namespaces_with_profile():
    env = Environment()
    cluster = Cluster(env, target_ssds=((FLASH_PM981, OPTANE_905P),))
    flash = cluster.namespaces_with_profile("PM981-flash")
    optane = cluster.namespaces_with_profile("905P-optane")
    assert len(flash) == 1
    assert len(optane) == 1
    assert flash[0].nsid == 0
    assert optane[0].nsid == 1


def test_volume_defaults_to_all_namespaces():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P, OPTANE_905P),))
    assert cluster.volume().width == 2
    assert cluster.volume(cluster.namespaces[:1]).width == 1


def test_empty_namespace_selection_is_not_widened_to_all():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    with pytest.raises(ValueError, match="at least one namespace"):
        cluster.volume(cluster.namespaces_with_profile("PM981-flash"))
    with pytest.raises(ValueError, match="at least one namespace"):
        cluster.nodes[0].volume([])


@pytest.mark.parametrize("cls, kwargs, _host", ENTRY_POINTS)
def test_zero_qps_is_rejected(cls, kwargs, _host):
    env = Environment()
    with pytest.raises(ValueError, match="at least one queue pair"):
        cls(env, target_ssds=((OPTANE_905P,),), num_qps=0, **kwargs)


@pytest.mark.parametrize("cls, kwargs, host", ENTRY_POINTS)
def test_host_names_per_entry_point(cls, kwargs, host):
    """The host name seeds the driver's jitter RNG and keys the obs
    gauges, so each entry point must keep the names it always had."""
    env = Environment()
    cluster = cls(env, target_ssds=((OPTANE_905P,),), **kwargs)
    assert cluster.initiator.name == host
    assert cluster.initiator.cpus.name == f"{host}-cpu"
    assert cluster.initiator.nic.name == f"{host}-nic"


def test_num_qps_configurable():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),), num_qps=4)
    assert cluster.namespaces[0].num_queues == 4


def test_seeds_give_identical_topology_different_jitter():
    def qp_delay(seed):
        env = Environment()
        cluster = Cluster(env, target_ssds=((OPTANE_905P,),), seed=seed)
        return cluster.fabric.queue_pairs[0].propagation_delay

    assert qp_delay(1) == qp_delay(1)
    assert qp_delay(1) != qp_delay(2)


def test_cpu_window_helpers():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    cluster.start_cpu_window()

    def work(env):
        yield from cluster.initiator.cpus.pick(0).run(1e-3)
        yield from cluster.targets[0].cpus.pick(0).run(0.5e-3)

    env.run_until_event(env.process(work(env)))
    cluster.stop_cpu_window()
    elapsed = env.now
    assert cluster.initiator_busy_cores(elapsed) == pytest.approx(
        1e-3 / elapsed
    )
    assert cluster.target_busy_cores(elapsed) == pytest.approx(
        0.5e-3 / elapsed
    )
