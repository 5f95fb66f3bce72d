"""Testbed assembly: N initiator hosts fan in to M shared targets.

The paper's testbed (§6.1) and its §4.9 multi-initiator sketch are one
topology at different N.  Each initiator host — a :class:`ScaleNode`,
the per-host cluster view stacks and :class:`~repro.core.api.RioDevice`
are built on — has its own CPU set, NIC, driver and connections; the
target servers, SSDs and PMRs are shared.  :class:`repro.cluster.Cluster`
is this assembly at N=1.  ``steering`` selects the target- and
initiator-side IRQ/completion steering policy
(:data:`repro.hw.cpu.STEERING_POLICIES`), ``qp_steering`` the
block-queue-to-QP mapping.

:class:`StreamDirectory` — the paper's "distributed sequencer service",
a trivially fast in-memory allocator per the paper's argument — hands
each node's :class:`~repro.core.api.RioDevice` a disjoint global
wire-stream range, into which the device translates its *local* stream
ids.  Streams are fully independent (§4.5), and the targets' submission
gates, PMR attribute logs and recovery key by global stream id, so two
initiators never couple.

:func:`repro.systems.base.make_stack` puts any compared system on every
node and, at N > 1, shards by *congruence* through a
:class:`~repro.systems.base.ShardedStack`: global stream ``s`` is owned
by node ``s % N``, so each node's stack only sees its own residue class.
Rio's sequencer indexes streams densely, so each Rio node gets its own
stream count and directory range, the router maps ``s`` to the
node-local index ``s // N``, and the node's device translates to the
wire::

    cluster = ScaleOutCluster(env, target_ssds=((OPTANE_905P,),))
    stack = make_stack("rio", cluster, num_streams=8)

Recovery after a full-cluster crash runs once, from node 0: the PMR logs
are keyed by global wire stream id, so the coordinator's scan covers
every initiator's streams (§4.9; proven by
``tests/core/test_multi_initiator.py`` and the multi-initiator cells of
the ``repro check`` matrix).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.block.volume import LogicalVolume
from repro.hw.cpu import CpuSet
from repro.hw.nic import Nic
from repro.hw.pmr import PersistentMemoryRegion
from repro.hw.ssd import NvmeSsd, SsdProfile
from repro.net.fabric import Fabric
from repro.nvmeof.costs import DEFAULT_COSTS, CpuCosts
from repro.nvmeof.initiator import (
    DriverHardening,
    InitiatorDriver,
    InitiatorServer,
    RemoteNamespace,
)
from repro.nvmeof.target import TargetServer
from repro.sim.engine import Environment
from repro.sim.rng import DeterministicRNG

__all__ = ["DEFAULT_CORES", "ScaleNode", "ScaleOutCluster", "StreamDirectory"]

#: 2 × 18 cores per server, as in the paper's testbed.
DEFAULT_CORES = 36


class StreamDirectory:
    """Allocates disjoint global stream-id ranges to initiators.

    The paper's "distributed sequencer" reduced to its essence: a
    monotonically advancing range allocator.  (Allocation happens at
    setup time, so its cost is irrelevant — exactly the paper's argument
    for why distributed concurrency control is not the slow part.)
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._next_base = 0
        self.allocations: List[tuple] = []

    def allocate(self, count: int) -> int:
        if count < 1:
            raise ValueError("need at least one stream")
        if self.capacity is not None and self._next_base + count > self.capacity:
            raise ValueError(
                f"stream directory exhausted: requested {count}, "
                f"{self.capacity - self._next_base} of {self.capacity} left"
            )
        base = self._next_base
        self._next_base += count
        self.allocations.append((base, count))
        return base


class ScaleNode:
    """One initiator host: the per-host cluster view stacks are built on.

    Carries what a stack or :class:`~repro.core.api.RioDevice` reads from
    "its cluster": ``env``, ``costs``, the shared ``targets``, this host's
    ``initiator`` server, ``driver`` and ``namespaces``, and
    :meth:`volume`.
    """

    def __init__(self, cluster: "ScaleOutCluster", index: int,
                 initiator: InitiatorServer, driver: InitiatorDriver,
                 namespaces: List[RemoteNamespace]):
        self.env = cluster.env
        self.costs = cluster.costs
        self.targets = cluster.targets
        self.index = index
        self.initiator = initiator
        self.driver = driver
        self.namespaces = namespaces

    @property
    def cpus(self) -> CpuSet:
        return self.initiator.cpus

    def volume(self, namespaces: Optional[List[RemoteNamespace]] = None,
               stripe_blocks: int = 1) -> LogicalVolume:
        """A logical volume over ``namespaces`` (default: all of this
        host's)."""
        if namespaces is None:
            namespaces = self.namespaces
        return LogicalVolume(namespaces, stripe_blocks)

    def __repr__(self) -> str:
        return f"<ScaleNode {self.index} ({self.initiator.name})>"


class ScaleOutCluster:
    """N initiator hosts sharing M target servers over one fabric.

    ``target_ssds`` is one inner sequence per target server; ``transport``
    selects ``"rdma"`` or ``"tcp"``; pass a
    :class:`~repro.nvmeof.initiator.DriverHardening` to arm
    timeouts/retries (the fault plane's recovery side).
    """

    #: Name of host i, formatted with i; its CPU set and NIC add ``-cpu``
    #: and ``-nic``.  Names seed the driver's jitter RNG and key obs
    #: gauges, so each entry point keeps its own.
    host_name = "initiator{}"

    def __init__(
        self,
        env: Environment,
        target_ssds: Sequence[Sequence[SsdProfile]],
        num_initiators: int = 2,
        initiator_cores: int = DEFAULT_CORES,
        target_cores: int = DEFAULT_CORES,
        num_qps: Optional[int] = None,
        costs: CpuCosts = DEFAULT_COSTS,
        seed: int = 42,
        transport: str = "rdma",
        steering: str = "pin",
        qp_steering: str = "pin",
        hardening: Optional[DriverHardening] = None,
        pmr_size: Optional[int] = None,
    ):
        if num_initiators < 1:
            raise ValueError("need at least one initiator host")
        if not target_ssds:
            raise ValueError("need at least one target server")
        self.env = env
        self.costs = costs
        self.transport = transport
        self.steering = steering
        self.num_initiators = num_initiators
        self.rng = DeterministicRNG(seed)
        self.fabric = Fabric(env, self.rng.fork("fabric"), transport=transport)
        self.directory = StreamDirectory()
        if num_qps is None:
            num_qps = initiator_cores

        # ---- shared target servers ----
        self.targets: List[TargetServer] = []
        for tid, profiles in enumerate(target_ssds):
            if not profiles:
                raise ValueError(f"target {tid} has no SSDs")
            name = f"target{tid}"
            ssds = [
                NvmeSsd(env, profile, rng=self.rng.fork(f"{name}-ssd{sid}"),
                        name=f"{name}-ssd{sid}")
                for sid, profile in enumerate(profiles)
            ]
            self.targets.append(
                TargetServer(
                    env,
                    name=name,
                    cpus=CpuSet(env, target_cores, name=f"{name}-cpu"),
                    nic=Nic(env, name=f"{name}-nic"),
                    ssds=ssds,
                    pmr=PersistentMemoryRegion(
                        env,
                        **({"size": pmr_size} if pmr_size else {}),
                        name=f"{name}-pmr",
                    ),
                    costs=costs,
                    steering=steering,
                )
            )

        # ---- per-initiator hosts ----
        self.nodes: List[ScaleNode] = []
        for iid in range(num_initiators):
            name = self.host_name.format(iid)
            server = InitiatorServer(
                env,
                name=name,
                cpus=CpuSet(env, initiator_cores, name=f"{name}-cpu"),
                nic=Nic(env, name=f"{name}-nic"),
            )
            driver = InitiatorDriver(
                env, server, costs=costs, hardening=hardening,
                steering=steering,
            )
            namespaces: List[RemoteNamespace] = []
            for target in self.targets:
                qps = self.fabric.connect(server.nic, target.nic, num_qps)
                initiator_eps = [qp.endpoints[0] for qp in qps]
                target_eps = [qp.endpoints[1] for qp in qps]
                target.attach_connection(target_eps)
                driver.register_connection(initiator_eps)
                for sid in range(len(target.ssds)):
                    namespaces.append(
                        RemoteNamespace(target, nsid=sid,
                                        endpoints=initiator_eps,
                                        qp_steering=qp_steering)
                    )
            self.nodes.append(ScaleNode(self, iid, server, driver, namespaces))
        # Single-host callers (every N=1 experiment, the crash oracle's
        # workload and recovery drivers) address "the initiator": on N
        # hosts that is the coordinator, node 0.
        self.initiator = self.nodes[0].initiator
        self.driver = self.nodes[0].driver
        self.namespaces = self.nodes[0].namespaces

    # -- robustness plane --------------------------------------------------

    def attach_health(self, config=None) -> List[Any]:
        """Install a :class:`~repro.robust.health.HealthMonitor` on every
        node's driver (one monitor per node: health is judged from each
        initiator's own completion stream).  Returns the monitors,
        node-indexed."""
        from repro.robust.health import HealthMonitor

        monitors = []
        for node in self.nodes:
            monitor = HealthMonitor(config, env=self.env)
            node.driver.health = monitor
            monitors.append(monitor)
        return monitors

    def install_admission(self, config=None) -> None:
        """Install target-side admission control on every shared target."""
        for target in self.targets:
            target.install_admission(config)

    def healthy_target_for(self, node_index: int, now: float) -> int:
        """Index of the healthiest target by node ``node_index``'s monitor
        (for steering *unordered* flows; ordered streams cannot migrate).
        Falls back to target 0 when no monitor is attached."""
        driver = self.nodes[node_index].driver
        if driver.health is None:
            return 0
        names = [t.name for t in self.targets]
        best = driver.health.pick(names, now)
        return names.index(best)

    # -- single-initiator surface: the coordinator, node 0 ----------------

    def volume(self, namespaces: Optional[List[RemoteNamespace]] = None,
               stripe_blocks: int = 1) -> LogicalVolume:
        return self.nodes[0].volume(namespaces, stripe_blocks)

    def namespaces_with_profile(self, profile_name: str) -> List[RemoteNamespace]:
        """All of node 0's namespaces backed by SSDs of the given profile."""
        return [
            ns
            for ns in self.namespaces
            if ns.target.ssds[ns.nsid].profile.name == profile_name
        ]

    # -- measurement helpers -----------------------------------------------

    def start_cpu_window(self) -> None:
        for node in self.nodes:
            node.cpus.start_window()
        for target in self.targets:
            target.cpus.start_window()

    def stop_cpu_window(self) -> None:
        for node in self.nodes:
            node.cpus.stop_window()
        for target in self.targets:
            target.cpus.stop_window()

    def initiator_busy_cores(self, elapsed: float) -> float:
        """Busy cores summed over every initiator host."""
        return sum(node.cpus.busy_cores(elapsed) for node in self.nodes)

    def target_busy_cores(self, elapsed: float) -> float:
        return sum(t.cpus.busy_cores(elapsed) for t in self.targets)
