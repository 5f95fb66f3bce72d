"""Seeded ordered workloads for the crash-consistency checker.

A :class:`WorkloadSpec` is the *entire* input of a check: system, layout,
seed and a handful of shape knobs.  Everything else — block addresses,
write sizes, group boundaries, flush points and the unique per-block
payload tokens the oracle greps recovered media for — derives
deterministically from the spec, so a failing spec *is* a reproducer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.experiment import LAYOUTS, build_cluster
from repro.scale import ScaleOutCluster
from repro.sim.engine import Environment, Event
from repro.sim.rng import DeterministicRNG
from repro.systems.base import make_stack

__all__ = [
    "STREAM_AREA",
    "WorkloadSpec",
    "WritePlan",
    "GroupPlan",
    "Completion",
    "build_plan",
    "build_testbed",
    "start_workload",
]

#: Volume-LBA area reserved per stream; streams never cross areas, so a
#: recovered block always attributes to exactly one planned write.
STREAM_AREA = 1 << 20


@dataclass(frozen=True)
class WorkloadSpec:
    """One fully-deterministic checker workload."""

    system: str = "rio"
    layout: str = "optane"
    seed: int = 0
    streams: int = 2
    groups_per_stream: int = 4
    writes_per_group: int = 2
    depth: int = 2
    #: Every k-th group of a stream is an fsync group (0 = no flushes).
    flush_every: int = 2
    #: Cap on enumerated crash points (0 = every persistence event).
    max_points: int = 0
    #: Initiator hosts; > 1 builds a sharded multi-initiator cluster
    #: (:mod:`repro.scale`) so ordering is fuzzed under fan-in.
    initiators: int = 1
    #: Fraction of each SSD's logical capacity prefilled directly on media
    #: before the run: qualification cells use it to start in steady-state
    #: GC (a no-op on profiles without a declared capacity).  Prefilled
    #: blocks carry their own tokens, so the oracle never mistakes them
    #: for planned writes.
    prefill: float = 0.0
    #: Optional embedded fault plan (a :meth:`FaultPlan.to_dict` document,
    #: == the ScenarioSpec ``faults`` section) installed on the *recording*
    #: run only — recovery replays stay fault-free (power-cycle model).
    #: The checker workload runs without driver hardening, so only
    #: delay/stall/degrade faults are sane here; spec validation
    #: (:mod:`repro.spec`) enforces that.
    faults: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def with_(self, **changes) -> "WorkloadSpec":
        return replace(self, **changes)


@dataclass(frozen=True)
class WritePlan:
    """One planned ordered write: volume extent + unique block tokens."""

    lba: int
    nblocks: int
    tokens: Tuple[Tuple, ...]


@dataclass(frozen=True)
class GroupPlan:
    """One planned ordered group (``index`` is 1-based, == Rio's seq)."""

    stream: int
    index: int
    flush: bool
    writes: Tuple[WritePlan, ...]


@dataclass
class Completion:
    """An ordered-completion the application observed before the crash."""

    time: float
    stream: int
    group: int
    flush: bool


def build_plan(spec: WorkloadSpec) -> List[GroupPlan]:
    """Derive the concrete write plan from the spec (pure, deterministic)."""
    if spec.streams < 1 or spec.groups_per_stream < 1 or spec.writes_per_group < 1:
        raise ValueError("spec needs at least one stream/group/write")
    plan: List[GroupPlan] = []
    for stream in range(spec.streams):
        rng = DeterministicRNG(spec.seed).fork(f"check-plan-s{stream}")
        lba = stream * STREAM_AREA
        for index in range(1, spec.groups_per_stream + 1):
            flush = spec.flush_every > 0 and index % spec.flush_every == 0
            writes: List[WritePlan] = []
            for windex in range(spec.writes_per_group):
                nblocks = rng.randint(1, 3)
                tokens = tuple(
                    ("chk", stream, index, windex, block)
                    for block in range(nblocks)
                )
                writes.append(WritePlan(lba=lba, nblocks=nblocks, tokens=tokens))
                lba += nblocks
            plan.append(GroupPlan(stream, index, flush, tuple(writes)))
    return plan


def build_testbed(spec: WorkloadSpec):
    """Fresh deterministic (env, cluster, stack) for the spec.

    The same spec always yields byte-identical component names and jitter
    streams, which is what makes snapshot restore into a *fresh* testbed a
    faithful crash model.

    ``spec.initiators > 1`` builds a sharded multi-initiator cluster
    instead: N initiator hosts fan in to the layout's targets, streams
    are sharded across hosts by residue (stream ``s`` on host ``s % N``),
    and recovery runs once from the coordinator (host 0) — the same
    order oracle then validates ordering under fan-in.
    """
    env = Environment()
    if spec.initiators > 1:
        cluster = ScaleOutCluster(
            env, LAYOUTS[spec.layout], num_initiators=spec.initiators,
            seed=spec.seed,
        )
    else:
        # Cluster's host name: names seed jitter and key crash-point
        # restore.
        cluster = build_cluster(spec.layout, env=env, seed=spec.seed)
    stack = make_stack(spec.system, cluster, num_streams=max(spec.streams, 1))
    _prefill_cluster(cluster, spec.prefill)
    return env, cluster, stack


def _prefill_cluster(cluster, fraction: float) -> None:
    """Apply the spec's prefill to every SSD (deterministic, timeless)."""
    if not fraction:
        return
    for target in cluster.targets:
        for ssd in target.ssds:
            ssd.prefill(fraction)


def start_workload(env, cluster, stack, spec: WorkloadSpec,
                   plan: List[GroupPlan], completions: List[Completion]) -> Event:
    """Spawn one writer process per stream; returns the all-done event.

    Each writer keeps ``spec.depth`` groups in flight (ordered submission,
    asynchronous completion — the paper's programming model, §4.6) and
    appends a :class:`Completion` the moment a group's ordered completion
    event fires.
    """
    per_stream: Dict[int, List[GroupPlan]] = {}
    for group in plan:
        per_stream.setdefault(group.stream, []).append(group)
    dones = []
    for stream, groups in sorted(per_stream.items()):
        done = Event(env)
        dones.append(done)
        env.process(
            _stream_writer(env, cluster, stack, spec, stream, groups,
                           completions, done)
        )
    return env.all_of(dones)


def _stream_writer(env, cluster, stack, spec, stream, groups, completions, done):
    core = cluster.initiator.cpus.pick(stream % len(cluster.initiator.cpus))
    inflight: List[Event] = []
    for group in groups:
        event = None
        for windex, write in enumerate(group.writes):
            last = windex == len(group.writes) - 1
            event = yield from stack.write_ordered(
                core,
                stream,
                lba=write.lba,
                nblocks=write.nblocks,
                payload=list(write.tokens),
                end_of_group=last,
                flush=group.flush and last,
            )

        def _observe(_event, g=group):
            completions.append(Completion(env.now, g.stream, g.index, g.flush))

        if event.triggered:
            _observe(event)
        else:
            event.callbacks.append(_observe)
        inflight.append(event)
        while len(inflight) >= max(spec.depth, 1):
            head = inflight.pop(0)
            if not head.triggered:
                yield head
    for event in inflight:
        if not event.triggered:
            yield event
    done.succeed()
