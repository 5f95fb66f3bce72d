"""Target admission control and the initiator-side retry budget.

**Admission** (:class:`AdmissionController`) sits in the target's receive
path, after the RECV completion is processed but *before* the ordering
policy runs and before any data is fetched — a shed command costs the
target one receive and one response, never an RDMA READ or an SSD slot.
A **queue-depth cap** per class (ordered vs. unordered) on commands
admitted and not yet completed sheds load; an optional
:class:`TenantQos` adds per-tenant pacing and weighted-fair shedding.

**Ordering × shedding.**  An ordered stream's durable history must stay a
prefix: the target-side gate admits dense per-server positions, so a shed
command can never be "skipped over".  The controller therefore sheds a
whole *suffix*: rejecting position ``p`` of a stream plants a marker, and
every later position of that stream is shed until ``p`` itself is
admitted (the driver re-posts the same command — same CID, same
attribute — after a backoff).  The invariant tested by the property suite
is that an ordered position is only ever admitted when every smaller
position of its stream has been admitted before it.

**Retry budget** (:class:`RetryBudget`) is the initiator-side half: a
token bucket that earns a fixed fraction of a token per *fresh* command
and spends one token per retransmission, so retries are bounded to that
fraction of fresh traffic and synchronized expiries cannot snowball into
a retry storm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.nvmeof.command import OP_WRITE

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "QosClass",
    "RetryBudget",
    "TenantQos",
]

#: Admission classes.
ORDERED = "ordered"
UNORDERED = "unordered"


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs of one target's admission controller."""

    #: Queue-depth cap per class: commands admitted and not yet completed.
    max_inflight_ordered: int = 64
    max_inflight_unordered: int = 64

    def __post_init__(self):
        if self.max_inflight_ordered < 1 or self.max_inflight_unordered < 1:
            raise ValueError("admission caps must be >= 1")


@dataclass(frozen=True)
class QosClass:
    """QoS parameters of one tenant service class.

    ``weight``    — weighted-fair share: the class's virtual work grows
                    by ``1/weight`` per admitted command, so a heavier
                    class may hold proportionally more of the window.
    ``rate_iops`` — per-*tenant* token-bucket refill rate (None = no
                    per-tenant pacing for members of this class).
    ``burst``     — token-bucket depth in commands.
    """

    name: str
    weight: float = 1.0
    rate_iops: Optional[float] = None
    burst: float = 32.0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("QoS class weight must be positive")
        if self.rate_iops is not None and self.rate_iops <= 0:
            raise ValueError("QoS rate_iops must be positive")
        if self.burst < 1.0:
            raise ValueError("QoS burst must hold >= 1 command")


class TenantQos:
    """Tenant-aware QoS policy for one admission controller.

    Two mechanisms, both deciding *before* any data is fetched:

    * **per-tenant token buckets** — a tenant whose class sets
      ``rate_iops`` may admit at most ``rate x window + burst`` commands
      over any window (shed reason ``"pace"``);
    * **weighted-fair deficits** — each class accumulates virtual work
      at ``1/weight`` per admit; a class more than ``quantum`` ahead of
      the least-served *active* class is shed (reason ``"wfq"``).  A
      class with no competitors is never wfq-shed (work conservation),
      and a class returning from idle is re-anchored to the current
      virtual time so banked idle credit cannot starve the backlog.
    """

    def __init__(
        self,
        classes: Tuple[QosClass, ...],
        classifier: Callable[[int], str],
        quantum: float = 8.0,
    ):
        if not classes:
            raise ValueError("TenantQos needs at least one class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate QoS class names")
        if quantum <= 0:
            raise ValueError("WFQ quantum must be positive")
        self.classes = tuple(classes)
        self.classifier = classifier
        self.quantum = quantum
        self._by_name = {c.name: c for c in classes}

    def resolve(self, tenant: int) -> QosClass:
        return self._by_name[self.classifier(tenant)]

    @classmethod
    def from_directory(cls, directory, quantum: float = 8.0) -> "TenantQos":
        """Build the policy straight off a
        :class:`repro.tenants.TenantDirectory` (weights, rates and bursts
        come from its :class:`~repro.tenants.TenantClass` entries)."""
        classes = tuple(
            QosClass(name=c.name, weight=c.weight, rate_iops=c.rate_iops,
                     burst=c.burst)
            for c in directory.classes
        )
        return cls(classes, directory.class_name_of, quantum=quantum)


class AdmissionController:
    """Bounded per-class admission with ordering-aware suffix shedding.

    Usage (the target server does this)::

        token, reason = controller.admit(cmd, env.now)
        if token is None:
            ...error-complete with STATUS_QFULL (reason says why)...
        try:
            ...execute the command...
        finally:
            controller.complete(token)

    Every admitted token is completed exactly once (command conservation),
    including when the command dies mid-flight to a target crash — the
    ``finally`` runs during generator unwinding.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        qos: Optional[TenantQos] = None,
    ):
        self.config = config if config is not None else AdmissionConfig()
        self.qos = qos
        self._tokens = count(1)
        #: token -> (class, qos class name or None).
        self._entries: Dict[int, Tuple[str, Optional[str]]] = {}
        #: tenant -> [tokens, last refill time] (token-bucket pacing).
        self._buckets: Dict[int, List[float]] = {}
        #: QoS class -> accumulated virtual work (1/weight per admit).
        self._class_vwork: Dict[str, float] = {}
        #: QoS class -> commands admitted and not yet completed.
        self._class_inflight: Dict[str, int] = {}
        self._inflight: Dict[str, int] = {ORDERED: 0, UNORDERED: 0}
        #: Ordered suffix markers: stream -> first shed position.  While a
        #: marker is planted, every position >= it is shed until the marker
        #: position itself is admitted.
        self._shed_from: Dict[int, int] = {}
        #: Highest first-time-admitted position per stream (the prefix
        #: high-water mark the property suite checks against).
        self.admitted_upto: Dict[int, int] = {}
        self.admitted = 0
        self.shed = 0
        self.shed_by_reason: Dict[str, int] = {}

    # ------------------------------------------------------------------

    @staticmethod
    def _attr_of(cmd) -> Any:
        request = getattr(cmd, "context", None)
        return getattr(request, "attr", None) if request is not None else None

    @staticmethod
    def _tenant_of(cmd) -> Optional[int]:
        request = getattr(cmd, "context", None)
        return getattr(request, "tenant", None) if request is not None else None

    def classify(self, cmd) -> str:
        attr = self._attr_of(cmd)
        if attr is not None and cmd.opcode == OP_WRITE:
            return ORDERED
        return UNORDERED

    def inflight(self, cls: str) -> int:
        return self._inflight[cls]

    # ------------------------------------------------------------------

    def admit(self, cmd, now: float) -> Tuple[Optional[int], Optional[str]]:
        """Decide one arrival: ``(token, None)`` or ``(None, reason)``."""
        cls = self.classify(cmd)
        attr = self._attr_of(cmd) if cls == ORDERED else None
        stream = attr.stream_id if attr is not None else None
        pos = attr.server_pos if attr is not None else None

        if stream is not None and pos <= self.admitted_upto.get(stream, -1):
            # A retransmission of a position already admitted once: the
            # gate will suppress it as a duplicate, so ordering does not
            # depend on it — never plant a suffix marker for it (the hole
            # it would mark does not exist and nothing would fill it).
            stream = pos = None
            cls = UNORDERED

        if stream is not None:
            marker = self._shed_from.get(stream)
            if marker is not None and pos > marker:
                # Suffix rule: a later position of a shed stream must not
                # slip past the hole at ``marker``.
                return None, self._reject(cls, stream, pos, "suffix")
            if pos > self.admitted_upto.get(stream, -1) + 1:
                # Dense rule: admitting past a hole would park this command
                # at the target's in-order gate *while holding an admission
                # slot*; with the hole's command backing off at the
                # initiator, enough such parkers wedge the whole window
                # (slots free only on completion, completion needs the
                # hole).  Shedding keeps every admitted ordered command
                # immediately runnable.
                return None, self._reject(cls, stream, pos, "gap")

        cap = (
            self.config.max_inflight_ordered
            if cls == ORDERED
            else self.config.max_inflight_unordered
        )
        if self._inflight[cls] >= cap:
            return None, self._reject(cls, stream, pos, "qfull")

        tenant = self._tenant_of(cmd)
        qcls: Optional[QosClass] = None
        if self.qos is not None and tenant is not None:
            qcls = self.qos.resolve(tenant)
            if qcls.rate_iops is not None and (
                self._bucket_refill(tenant, qcls, now) < 1.0
            ):
                # Per-tenant pacing: the bucket refills at rate_iops, so
                # over any window the tenant admits at most
                # rate x window + burst commands.
                return None, self._reject(cls, stream, pos, "pace")
            vwork = self._class_vwork.get(qcls.name, 0.0)
            behind = [
                self._class_vwork.get(name, 0.0)
                for name, inflight in self._class_inflight.items()
                if inflight > 0 and name != qcls.name
            ]
            if behind and vwork > min(behind) + self.qos.quantum:
                # Weighted-fair deficit: this class has pulled more than a
                # quantum ahead of the least-served competing class — shed
                # so the laggard's arrivals find slots.  With no active
                # competitor the check never fires (work conservation).
                return None, self._reject(cls, stream, pos, "wfq")

        if stream is not None:
            if self._shed_from.get(stream) == pos:
                del self._shed_from[stream]  # the hole is being filled
            upto = self.admitted_upto.get(stream, -1)
            self.admitted_upto[stream] = max(upto, pos)
        qos_name: Optional[str] = None
        if qcls is not None:
            qos_name = qcls.name
            if qcls.rate_iops is not None:
                self._buckets[tenant][0] -= 1.0
            if self._class_inflight.get(qos_name, 0) == 0:
                # Returning from idle: re-anchor to the current virtual
                # time so idle credit cannot be banked against the backlog.
                active = [
                    self._class_vwork.get(name, 0.0)
                    for name, inflight in self._class_inflight.items()
                    if inflight > 0
                ]
                if active:
                    self._class_vwork[qos_name] = max(
                        self._class_vwork.get(qos_name, 0.0), min(active))
            self._class_vwork[qos_name] = (
                self._class_vwork.get(qos_name, 0.0) + 1.0 / qcls.weight)
            self._class_inflight[qos_name] = (
                self._class_inflight.get(qos_name, 0) + 1)
        token = next(self._tokens)
        self._entries[token] = (cls, qos_name)
        self._inflight[cls] += 1
        self.admitted += 1
        return token, None

    def _bucket_refill(self, tenant: int, qcls: QosClass, now: float) -> float:
        """Refill ``tenant``'s bucket up to ``now``; returns the balance."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = [qcls.burst, now]
        tokens, last = bucket
        tokens = min(qcls.burst, tokens + qcls.rate_iops * (now - last))
        bucket[0] = tokens
        bucket[1] = now
        return tokens

    def qos_inflight(self, class_name: str) -> int:
        return self._class_inflight.get(class_name, 0)

    def qos_virtual_work(self, class_name: str) -> float:
        return self._class_vwork.get(class_name, 0.0)

    def _reject(self, cls: str, stream, pos, reason: str) -> str:
        self.shed += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        if stream is not None:
            marker = self._shed_from.get(stream)
            if marker is None or pos < marker:
                self._shed_from[stream] = pos
        return reason

    def complete(self, token: int) -> None:
        """Account one admitted command's exit (response posted, or the
        handler unwound because the server crashed)."""
        entry = self._entries.pop(token, None)
        if entry is None:
            return
        cls, qos_name = entry
        self._inflight[cls] -= 1
        if qos_name is not None:
            self._class_inflight[qos_name] -= 1

    def reset_markers(self) -> None:
        """Forget suffix markers (target restart: per-server positions are
        legitimately replayed in the new epoch)."""
        self._shed_from.clear()
        self.admitted_upto.clear()

    def __repr__(self) -> str:
        return (
            f"<AdmissionController admitted={self.admitted} shed={self.shed} "
            f"inflight={dict(self._inflight)}>"
        )


@dataclass
class RetryBudget:
    """Token-bucket retry budget: retries are a bounded fraction of fresh
    traffic.

    Each fresh command earns ``ratio`` tokens (clipped at ``cap``); each
    retransmission spends one whole token.  With the bucket empty the
    retransmission is suppressed — the command keeps waiting for its
    original post instead of joining a storm.  Total retries are
    therefore bounded by ``cap + ratio * fresh_commands``.
    """

    ratio: float = 0.2
    cap: float = 8.0
    tokens: float = field(init=False)
    earned: int = field(init=False, default=0)
    spent: int = field(init=False, default=0)
    suppressed: int = field(init=False, default=0)

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("retry budget ratio must be in [0, 1]")
        if self.cap < 1.0:
            raise ValueError("retry budget cap must be >= 1")
        self.tokens = self.cap  # start full: cold-start retries allowed

    def earn(self) -> None:
        self.earned += 1
        self.tokens = min(self.cap, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.suppressed += 1
        return False
