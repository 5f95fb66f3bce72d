"""CPU core models with busy-time accounting.

The paper's CPU-efficiency metric (§6.1) is throughput divided by CPU
utilization as reported by ``top``.  We reproduce it by charging every piece
of software work (block layer, driver command building, RDMA posts,
interrupt handlers, MMIO persists, file-system logic) to a :class:`Core`,
which serializes work on that core and integrates busy time into a per-core
:class:`~repro.sim.stats.BusyTracker`.

Utilization for a server is expressed in *busy cores* (the sum of per-core
utilizations, like summing ``top``'s per-core percentages), so "CPU
efficiency" is operations per second per busy core.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.sim.stats import BusyTracker

__all__ = [
    "Core",
    "CoreSteering",
    "CpuSet",
    "CONTEXT_SWITCH_COST",
    "STEERING_POLICIES",
]

#: One sleep/wake transition on a ~2.2 GHz Xeon (seconds).  Synchronous
#: ordering pays two of these per wait; this is part of the per-operation
#: software cost the paper's Lesson 3 (§3.2) is about.
CONTEXT_SWITCH_COST = 1.5e-6


class Core:
    """A single CPU core: a serial execution resource with busy accounting."""

    def __init__(self, env: Environment, index: int):
        self.env = env
        self.index = index
        self.tracker = BusyTracker(env)
        self._resource = Resource(env, capacity=1)

    def run(self, duration: float):
        """Occupy this core for ``duration`` seconds of work — ``yield from
        core.run(0.5e-6)``.

        Work on the same core is serialized FIFO; busy time accrues only
        while work actually runs.  Returns the core resource's
        :meth:`~repro.sim.resources.Resource.hold` generator, which
        integrates the busy time itself: a free core and a charge that
        would dispatch next complete in place, with no helper call and
        without ever yielding (the in-place waits of
        :mod:`repro.sim.engine`).
        """
        if duration < 0:
            raise ValueError(f"negative CPU work: {duration}")
        return self._resource.hold(duration, self.tracker)

    def context_switch(self):
        """Charge one sleep/wake context-switch pair — ``yield from
        core.context_switch()``."""
        return self.run(2 * CONTEXT_SWITCH_COST)

    @property
    def queued_work(self) -> int:
        """Number of work items waiting for this core."""
        return self._resource.queued

    def __repr__(self) -> str:
        return f"<Core {self.index}>"


#: Affinity-aware IRQ/completion steering policies (scale-out plane).
STEERING_POLICIES = ("pin", "round-robin", "least-loaded", "flow-hash")


def _flow_hash(key: int) -> int:
    """Stable 64-bit scatter of a flow key.

    Python's ``hash(int)`` is (nearly) the identity, which would collapse
    flow-hash steering into modulo pinning; blake2b gives an
    avalanche-quality spread that is identical across processes and runs
    (no ``PYTHONHASHSEED`` dependence), which the bit-identity guarantees
    of the sweep runner rely on.
    """
    digest = hashlib.blake2b(
        key.to_bytes(8, "little", signed=True), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class CoreSteering:
    """Maps flow keys to cores of a fixed subset under one policy.

    The target and initiator drivers ask "which core takes this
    interrupt?" once per message; the answer is this object's
    :meth:`select`.  Policies:

    ``pin``
        ``cores[key % n]`` — static modulo pinning, the historical
        behaviour (one flow, one core, forever).  Deterministic per key.
    ``round-robin``
        Cores in rotation regardless of key: spreads load evenly but
        migrates flows across cores (cold caches, no IRQ coalescing).
    ``least-loaded``
        The core with the shortest run queue at selection time (ties:
        lowest index) — work-stealing-style balance.
    ``flow-hash``
        ``cores[blake2b(key) % n]`` — RSS-style hashing: flows stay
        pinned (coalescing still works) but hot neighbouring keys spread
        instead of striding.
    """

    def __init__(self, cores: Sequence[Core], policy: str = "pin"):
        if not cores:
            raise ValueError("steering needs at least one core")
        if policy not in STEERING_POLICIES:
            raise ValueError(
                f"unknown steering policy {policy!r}; "
                f"one of {STEERING_POLICIES}"
            )
        self.cores = list(cores)
        self.policy = policy
        self._rr_next = 0
        #: selections per core index — observability for the saturation
        #: harness and the property suite.
        self.selections: dict = {}
        #: Core indices the health plane has quarantined (e.g. a core
        #: whose IRQ affinity points at a degraded NIC path).  Never
        #: selected while at least one non-quarantined core remains.
        self._quarantined: set = set()
        #: Tenant-class isolation (multi-tenant plane): class name -> core
        #: sub-pool.  Flows steered with a class confined to a pool cannot
        #: land outside it, so an aggressor class's interrupt storm stays
        #: off the quiet classes' cores.  Unassigned classes (and calls
        #: without a class) use the full pool — the historical behaviour.
        self._class_pools: Dict[str, List[Core]] = {}

    def assign_class(self, class_name: str, core_indices: Sequence[int]) -> None:
        """Confine flows of ``class_name`` to the given core subset."""
        wanted = set(core_indices)
        chosen = [c for c in self.cores if c.index in wanted]
        if not chosen:
            raise ValueError(
                f"class {class_name!r} pool selects none of this steering's "
                f"cores {[c.index for c in self.cores]}"
            )
        self._class_pools[class_name] = chosen

    def class_pool(self, class_name: str) -> List[Core]:
        """The cores ``class_name`` is confined to (full pool if none)."""
        return list(self._class_pools.get(class_name, self.cores))

    def quarantine(self, core_index: int) -> None:
        """Exclude a core from selection (health-plane steering)."""
        if any(c.index == core_index for c in self.cores):
            self._quarantined.add(core_index)

    def release(self, core_index: int) -> None:
        """Return a quarantined core to the selection pool."""
        self._quarantined.discard(core_index)

    def _pool(self, tenant_class: Optional[str] = None) -> List[Core]:
        base = self.cores
        if tenant_class is not None:
            base = self._class_pools.get(tenant_class, self.cores)
        if not self._quarantined:
            return base
        healthy = [c for c in base if c.index not in self._quarantined]
        return healthy if healthy else base

    def select(self, key: int, tenant_class: Optional[str] = None) -> Core:
        """The core that handles the message with flow key ``key``.

        ``tenant_class`` (multi-tenant plane) confines the choice to the
        class's assigned sub-pool, if one was installed via
        :meth:`assign_class`; otherwise it is ignored.
        """
        pool = self._pool(tenant_class)
        n = len(pool)
        if self.policy == "pin":
            core = pool[key % n]
        elif self.policy == "round-robin":
            core = pool[self._rr_next % n]
            self._rr_next += 1
        elif self.policy == "least-loaded":
            core = min(
                pool, key=lambda c: (c.queued_work, c.index)
            )
        else:  # flow-hash
            core = pool[_flow_hash(key) % n]
        self.selections[core.index] = self.selections.get(core.index, 0) + 1
        return core

    def __repr__(self) -> str:
        return (
            f"<CoreSteering {self.policy} over "
            f"{len(self.cores)} core(s)>"
        )


class CpuSet:
    """All cores of one server.

    ``pick(i)`` wraps around, so workloads can pin thread *i* to core
    ``i % ncores`` the way the paper's FIO/db_bench threads land on cores.
    """

    def __init__(self, env: Environment, ncores: int, name: str = "cpu"):
        if ncores < 1:
            raise ValueError("a server needs at least one core")
        self.env = env
        self.name = name
        self.cores: List[Core] = [Core(env, i) for i in range(ncores)]
        obs = env.obs
        if obs is not None:
            for core in self.cores:
                obs.metrics.register_gauge(
                    f"cpu.{name}.core{core.index}.busy_s",
                    lambda t=core.tracker: t.busy_time,
                )
            obs.metrics.register_gauge(
                f"cpu.{name}.busy_s", self.busy_time
            )

    def __len__(self) -> int:
        return len(self.cores)

    def pick(self, index: int) -> Core:
        return self.cores[index % len(self.cores)]

    def least_loaded(self) -> Core:
        """The core with the shortest run queue (ties: lowest index)."""
        return min(self.cores, key=lambda core: (core.queued_work, core.index))

    def steering(
        self, policy: str = "pin", cores: Optional[Sequence[Core]] = None
    ) -> CoreSteering:
        """A :class:`CoreSteering` over ``cores`` (default: all of them)."""
        return CoreSteering(cores if cores is not None else self.cores, policy)

    # -- measurement -------------------------------------------------------

    def start_window(self) -> None:
        for core in self.cores:
            core.tracker.start_window()

    def stop_window(self) -> None:
        for core in self.cores:
            core.tracker.stop_window()

    def busy_time(self) -> float:
        """Total busy core-seconds inside the measurement window."""
        return sum(core.tracker.busy_time for core in self.cores)

    def busy_cores(self, elapsed: Optional[float] = None) -> float:
        """Average number of simultaneously busy cores over the window."""
        if elapsed is not None:
            if elapsed <= 0:
                return 0.0
            return self.busy_time() / elapsed
        return sum(core.tracker.utilization() for core in self.cores)
