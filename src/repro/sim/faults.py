"""Deterministic transient-fault injection (the chaos plane).

A :class:`FaultPlan` describes which transient faults to inject into a
simulated cluster and when:

* **message faults** — per-message drop / corruption / extra delay on the
  fabric's queue-pair pumps, drawn probabilistically from the plan's own
  RNG streams;
* **timed faults** — QP breakdown, target stall, and target crash(-restart)
  fired at configured virtual times.

Determinism: the plan owns a :class:`~repro.sim.rng.DeterministicRNG`
seeded independently of the cluster, with one forked sub-stream per
(queue pair, direction) lane.  Because each lane's pump processes messages
FIFO, the sequence of draws per lane — and therefore the whole fault
schedule — is a pure function of the plan seed, regardless of cross-lane
interleaving.  A cluster without an installed plan performs **zero** extra
RNG draws and no extra event scheduling: the fault plane is free when
inactive, and all pre-existing RNG streams are untouched either way.

Every injected fault is appended to :attr:`FaultPlan.injected` and logged
through ``env.trace`` (category ``"fault"``, kept in ``env.obs.events``
when an observability plane is attached) with its cause and virtual
timestamp.

This module deliberately knows nothing about the upper layers: ``install``
takes any cluster-shaped object (``env``, ``fabric``, ``targets``) and the
per-message hook is called back by the fabric, so ``repro.sim`` stays at
the bottom of the dependency order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.rng import DeterministicRNG

__all__ = ["FaultPlan", "FaultRecord"]

#: Verdicts returned by :meth:`FaultPlan.message_verdict`.
DELIVER = "deliver"
DROP = "drop"
CORRUPT = "corrupt"
DELAY = "delay"


@dataclass
class FaultRecord:
    """One injected fault: what, when, and the details of the victim."""

    time: float
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)


class FaultPlan:
    """A deterministic, seeded schedule of transient faults.

    Probabilistic message faults::

        plan = FaultPlan(seed=7, message_loss=0.03, corruption=0.01,
                         delay_probability=0.05)

    Timed faults (virtual-time triggers)::

        plan.qp_breakdown(at=2e-3, qp_index=1)
        plan.target_stall(at=3e-3, target_index=0, duration=500e-6)
        plan.target_crash(at=5e-3, target_index=0, restart_after=1e-3)

    then ``plan.install(cluster)`` arms everything.
    """

    def __init__(
        self,
        seed: int = 0,
        message_loss: float = 0.0,
        corruption: float = 0.0,
        delay_probability: float = 0.0,
        delay_range: Tuple[float, float] = (5e-6, 50e-6),
    ):
        for name, p in (
            ("message_loss", message_loss),
            ("corruption", corruption),
            ("delay_probability", delay_probability),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if message_loss + corruption + delay_probability > 1.0:
            raise ValueError("fault probabilities must sum to at most 1")
        if delay_range[0] < 0 or delay_range[1] < delay_range[0]:
            raise ValueError(f"bad delay_range: {delay_range}")
        self.seed = seed
        self.message_loss = message_loss
        self.corruption = corruption
        self.delay_probability = delay_probability
        self.delay_range = delay_range
        self._rng = DeterministicRNG(seed)
        self._lane_rngs: Dict[Tuple[int, int], DeterministicRNG] = {}
        self._timed: List[Tuple[str, float, Dict[str, Any]]] = []
        self.env = None  # set by install()
        #: Every fault actually injected, in injection order.
        self.injected: List[FaultRecord] = []
        # Counters (cheap aggregate view for harnesses and tests).
        self.messages_seen = 0
        self.messages_dropped = 0
        self.messages_corrupted = 0
        self.messages_delayed = 0

    # ------------------------------------------------------------------
    # Timed-fault configuration
    # ------------------------------------------------------------------

    def qp_breakdown(self, at: float, qp_index: int) -> "FaultPlan":
        """Break one queue pair at virtual time ``at`` (epoch bump on both
        sides: in-flight messages are discarded, the initiator reconnects
        and resubmits)."""
        self._timed.append(("qp_breakdown", at, {"qp_index": qp_index}))
        return self

    def target_stall(
        self, at: float, target_index: int, duration: float
    ) -> "FaultPlan":
        """Freeze a target's message processing for ``duration`` seconds
        (a wedged/GC-pausing server: commands pile up unanswered)."""
        self._timed.append(
            ("target_stall", at,
             {"target_index": target_index, "duration": duration})
        )
        return self

    def target_crash(
        self,
        at: float,
        target_index: int,
        restart_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Power-cycle a target at ``at``; restart it ``restart_after``
        seconds later (None = stays down)."""
        self._timed.append(
            ("target_crash", at,
             {"target_index": target_index, "restart_after": restart_after})
        )
        return self

    def degrade(
        self,
        at: float,
        target_index: int,
        factor: float,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Gray failure: multiply one target's service times (SSD media and
        NIC wire) by ``factor`` starting at ``at``; restore after
        ``duration`` seconds (None = stays degraded).  Nothing errors and
        nothing crashes — the target just gets slow."""
        if factor < 1.0:
            raise ValueError("degrade factor must be >= 1")
        self._timed.append(
            ("degrade", at,
             {"target_index": target_index, "factor": factor,
              "duration": duration})
        )
        return self

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, cluster) -> "FaultPlan":
        """Arm the plan on a cluster: hook every queue pair and schedule
        the timed faults.  Idempotent per cluster is not supported — build
        one plan per cluster."""
        if self.env is not None:
            raise RuntimeError("a FaultPlan can only be installed once")
        self.env = cluster.env
        cluster.fabric.fault_plan = self
        for qp in cluster.fabric.queue_pairs:
            qp.fault_plan = self
        for kind, at, detail in self._timed:
            self.env.process(self._fire_timed(cluster, kind, at, dict(detail)))
        return self

    def _fire_timed(self, cluster, kind: str, at: float, detail: Dict[str, Any]):
        env = cluster.env
        if at > env.now:
            yield env.timeout(at - env.now)
        if kind == "qp_breakdown":
            qps = cluster.fabric.queue_pairs
            qp = qps[detail["qp_index"] % len(qps)]
            detail["qp_index"] = qp.index
            self.record(kind, **detail)
            qp.breakdown()
        elif kind == "target_stall":
            target = cluster.targets[detail["target_index"] % len(cluster.targets)]
            detail["target"] = target.name
            self.record(kind, **detail)
            target.stall(detail["duration"])
        elif kind == "degrade":
            target = cluster.targets[detail["target_index"] % len(cluster.targets)]
            detail["target"] = target.name
            self.record(kind, **detail)
            target.degrade(detail["factor"])
            duration = detail.get("duration")
            if duration is not None:
                yield env.timeout(duration)
                self.record("degrade_end", target=target.name)
                target.restore()
        elif kind == "target_crash":
            target = cluster.targets[detail["target_index"] % len(cluster.targets)]
            detail["target"] = target.name
            self.record(kind, **detail)
            target.crash()
            restart_after = detail.get("restart_after")
            if restart_after is not None:
                yield env.timeout(restart_after)
                self.record("target_restart", target=target.name)
                target.restart()

    # ------------------------------------------------------------------
    # Per-message hook (called by QueuePair._pump)
    # ------------------------------------------------------------------

    def message_verdict(self, qp, side: int, message) -> Tuple[str, float]:
        """Decide the fate of one message: ``(verdict, extra_delay)``.

        Called from the QP pump in FIFO order per (qp, side) lane, which
        makes the draw sequence — and so the verdicts — deterministic.
        """
        self.messages_seen += 1
        if self.env is None:
            # Hooked directly onto a QP (fabric-level tests) without
            # install(): adopt the QP's environment for timestamps/tracing.
            self.env = qp.env
        rng = self._lane_rngs.get((qp.index, side))
        if rng is None:
            rng = self._rng.fork(f"lane{qp.index}.{side}")
            self._lane_rngs[(qp.index, side)] = rng
        r = rng.random()
        if r < self.message_loss:
            self.messages_dropped += 1
            self.record("drop", qp=qp.index, side=side, msg=message.kind,
                        nbytes=message.nbytes)
            return DROP, 0.0
        if r < self.message_loss + self.corruption:
            self.messages_corrupted += 1
            self.record("corrupt", qp=qp.index, side=side, msg=message.kind,
                        nbytes=message.nbytes)
            return CORRUPT, 0.0
        if r < self.message_loss + self.corruption + self.delay_probability:
            extra = rng.uniform(*self.delay_range)
            self.messages_delayed += 1
            self.record("delay", qp=qp.index, side=side, msg=message.kind,
                        extra=extra)
            return DELAY, extra
        return DELIVER, 0.0

    # ------------------------------------------------------------------
    # Serialization (the ScenarioSpec ``faults`` sub-section)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form: construction parameters plus the timed
        schedule.  Runtime state (installed env, injected records,
        counters) is deliberately excluded — a plan round-tripped through
        :meth:`from_dict` is a *fresh* plan with the same schedule."""
        return {
            "seed": self.seed,
            "message_loss": self.message_loss,
            "corruption": self.corruption,
            "delay_probability": self.delay_probability,
            "delay_range": list(self.delay_range),
            "timed": [
                {"kind": kind, "at": at, **detail}
                for kind, at, detail in self._timed
            ],
        }

    @staticmethod
    def _as_mapping(value) -> Dict[str, Any]:
        """Accept a dict or the sweep runner's frozen ``(key, value)``
        pair form — dict-valued kwargs cross RunSpec boundaries as sorted
        pair tuples (see ``repro.harness.sweep``)."""
        if isinstance(value, dict):
            return value
        if isinstance(value, (list, tuple)) and all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            and isinstance(pair[0], str)
            for pair in value
        ):
            return dict(value)
        raise ValueError(f"expected a fault-plan mapping, got {value!r}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (or the equivalent
        ScenarioSpec ``faults`` section).  Unknown timed kinds raise."""
        data = cls._as_mapping(data)
        plan = cls(
            seed=int(data.get("seed", 0)),
            message_loss=float(data.get("message_loss", 0.0)),
            corruption=float(data.get("corruption", 0.0)),
            delay_probability=float(data.get("delay_probability", 0.0)),
            delay_range=tuple(data.get("delay_range", (5e-6, 50e-6))),
        )
        builders = {
            "qp_breakdown": plan.qp_breakdown,
            "target_stall": plan.target_stall,
            "target_crash": plan.target_crash,
            "degrade": plan.degrade,
        }
        for i, entry in enumerate(data.get("timed") or []):
            detail = dict(cls._as_mapping(entry))
            kind = detail.pop("kind", None)
            if kind not in builders:
                raise ValueError(f"timed[{i}]: unknown fault kind {kind!r}")
            builders[kind](**detail)
        return plan

    # ------------------------------------------------------------------

    def record(self, kind: str, **detail) -> None:
        """Log one injected fault (list + ``env.trace``, with virtual
        timestamp)."""
        now = self.env.now if self.env is not None else 0.0
        self.injected.append(FaultRecord(time=now, kind=kind, detail=detail))
        if self.env is not None:
            self.env.trace("fault", kind, **detail)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.injected:
            counts[rec.kind] = counts.get(rec.kind, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} loss={self.message_loss} "
            f"corrupt={self.corruption} delay={self.delay_probability} "
            f"timed={len(self._timed)} injected={len(self.injected)}>"
        )
