"""Testbed assembly: initiator + target servers + fabric + namespaces.

Reproduces the paper's physical setup (§6.1): one initiator and up to two
target servers, each with 2×18-core Xeon Gold 5220 CPUs, connected by
200 Gbps ConnectX-6 RDMA; target 1 holds a PM981 flash and a 905P Optane
SSD, target 2 a PM981 and a P4800X; each target has a 2 MB PMR.

:class:`Cluster` is the one-stop constructor used by the experiment
harness, the examples and the integration tests::

    env = Environment()
    cluster = Cluster(env, target_ssds=((FLASH_PM981, OPTANE_905P),))
    layer = BlockLayer(env, cluster.driver, cluster.volume())
    core = cluster.initiator.cpus.pick(0)

It is :class:`repro.scale.ScaleOutCluster` with one initiator host, and
takes the same keyword arguments except ``num_initiators``:
``target_ssds`` is one inner sequence per target server; ``transport``
selects ``"rdma"`` or ``"tcp"``; pass a
:class:`~repro.nvmeof.initiator.DriverHardening` to arm timeouts/retries
(the fault plane's recovery side).  Striped (multi-SSD) block access goes
through :meth:`Cluster.volume`; :meth:`Cluster.namespaces_with_profile`
picks out namespaces by device model.  Its one host is named
``initiator`` (CPU set ``initiator-cpu``, NIC ``initiator-nic``).

For where this testbed sits in the overall stack — and what the layers it
wires together actually do — see ``docs/architecture.md``.  The
multi-initiator form of this assembly is :mod:`repro.scale`.
"""

from __future__ import annotations

from typing import Sequence

from repro.hw.ssd import SsdProfile
from repro.scale.cluster import DEFAULT_CORES, ScaleOutCluster
from repro.sim.engine import Environment

__all__ = ["Cluster", "DEFAULT_CORES"]


class Cluster(ScaleOutCluster):
    """A connected initiator/targets testbed over one RDMA fabric."""

    host_name = "initiator"

    def __init__(self, env: Environment,
                 target_ssds: Sequence[Sequence[SsdProfile]], **kwargs):
        super().__init__(env, target_ssds, num_initiators=1, **kwargs)
