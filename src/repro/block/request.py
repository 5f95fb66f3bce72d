"""Bio and block-request structures.

A :class:`Bio` is what file systems and applications submit: one contiguous
write/read/flush with ordering flags.  The block layer may *merge* several
bios into one :class:`BlockRequest` (fewer NVMe-oF commands — Lesson 3) or
*split* one bio across several requests (hardware transfer limits, volume
striping — §4.5).  Ordering attributes (§4.2) ride inside the bio, the way
the real implementation stashes them in ``bio->bi_private`` (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, List, Optional

from repro.hw.ssd import BLOCK_SIZE
from repro.sim.engine import Environment, Event

__all__ = ["WriteFlags", "Bio", "BlockRequest", "BLOCK_SIZE"]

_bio_ids = count(1)
_req_ids = count(1)


@dataclass
class WriteFlags:
    """Ordering/durability flags attached to a bio.

    ``ordered``        — this write participates in a storage-order stream.
    ``group_end``      — marks the final request of an ordered group (the
                         special flag Rio's sequencer keys on, §4.2).
    ``flush``          — a FLUSH must make this and all preceding writes of
                         the stream durable before completion (fsync path).
    ``fua``            — force unit access (durable before completing).
    ``ipu``            — in-place update: recovery must not roll this block
                         back automatically (§4.4.2).
    """

    ordered: bool = False
    group_end: bool = False
    flush: bool = False
    fua: bool = False
    ipu: bool = False
    #: Barrier write (BarrierFS-style interface, §2.2): persists in
    #: submission order relative to other barrier writes, no FLUSH needed.
    barrier: bool = False


@dataclass
class Bio:
    """One contiguous block I/O as submitted by the upper layer."""

    op: str  # "write" | "read" | "flush"
    lba: int = 0
    nblocks: int = 0
    payload: Optional[List[Any]] = None
    flags: WriteFlags = field(default_factory=WriteFlags)
    stream_id: int = 0
    #: Rio ordering attribute (set by the sequencer); opaque to this layer.
    attr: Any = None
    #: Issuing tenant (multi-tenant traffic plane), or None for anonymous
    #: flows.  Rides merge/split down to the NVMe-oF command context so the
    #: target's QoS admission can bucket/weigh per tenant class.
    tenant: Optional[int] = None
    bio_id: int = field(default_factory=lambda: next(_bio_ids))
    submitted_at: float = 0.0
    #: When the bio was first dispatched to the driver (vs merely staged) —
    #: the quantity Figure 14's breakdown measures.
    dispatched_at: float = 0.0
    completed_at: float = 0.0
    #: Completion event, created by the stack that accepts the bio.  It
    #: fires with no value: a bio holds its completion, so a completion
    #: carrying the bio would make every finished bio cyclic garbage that
    #: only the cycle collector frees.  Waiters read the bio they hold.
    completion: Optional[Event] = None
    #: Completion status (0 = success).  Non-zero when a covering request
    #: error-completed — e.g. the driver's retry budget ran out
    #: (:data:`repro.nvmeof.command.STATUS_TIMEOUT`).
    status: int = 0
    #: Observability plumbing (all None/"" unless an
    #: :class:`repro.sim.obs.Observability` is attached): the bio's own
    #: ``block.mq`` span, the parent span to nest it under (e.g. the
    #: journal commit's ``fs.journal`` span) and a role label ("data",
    #: "jm", "jc", ...) the Fig. 14 reconstruction keys on.
    obs_span: Any = None
    obs_parent: Any = None
    obs_role: str = ""

    def __post_init__(self):
        if self.op not in ("write", "read", "flush"):
            raise ValueError(f"unknown bio op: {self.op}")
        if self.op != "flush" and self.nblocks <= 0:
            raise ValueError("read/write bio needs nblocks >= 1")
        if self.payload is not None and len(self.payload) != self.nblocks:
            raise ValueError("payload length must equal nblocks")

    @property
    def nbytes(self) -> int:
        return self.nblocks * BLOCK_SIZE

    @property
    def end_lba(self) -> int:
        """One past the last block."""
        return self.lba + self.nblocks

    def make_completion(self, env: Environment) -> Event:
        if self.completion is None:
            self.completion = Event(env)
        return self.completion

    def complete(self, env: Environment) -> None:
        self.completed_at = env.now
        if self.obs_span is not None:
            obs = env.obs
            if obs is not None:
                obs.spans.close(self.obs_span, status=self.status)
            self.obs_span = None
        if self.completion is not None and not self.completion.triggered:
            self.completion.succeed()

    def __repr__(self) -> str:
        return (
            f"<Bio {self.bio_id} {self.op} lba={self.lba} n={self.nblocks} "
            f"stream={self.stream_id}>"
        )


@dataclass
class BlockRequest:
    """The unit the driver turns into one NVMe-oF command.

    Carries the bios it covers; completing the request completes every
    covered bio (merging: many bios, one request).  A split bio is covered
    by several requests and completes when its ``pending_splits`` counter
    reaches zero.
    """

    op: str
    lba: int
    nblocks: int
    bios: List[Bio] = field(default_factory=list)
    payload: Optional[List[Any]] = None
    flush: bool = False
    fua: bool = False
    barrier: bool = False
    #: Compact ordering attribute covering all bios (merged range), or None.
    attr: Any = None
    stream_id: int = 0
    #: Issuing tenant shared by the covered bios (merge never crosses
    #: tenants), or None for anonymous flows.
    tenant: Optional[int] = None
    #: Which hardware/NIC queue this request should use (Principle 2).
    #: None = let the block layer pick the submitting core's queue.
    qp_index: Optional[int] = None
    req_id: int = field(default_factory=lambda: next(_req_ids))
    #: Completion status (0 = success).  Set by the initiator driver on an
    #: error completion (response status, or host-side timeout after the
    #: retry budget is exhausted) and fanned out to the covered bios.
    status: int = 0
    #: Split bookkeeping: parent bio -> remaining fragment count.
    is_split_fragment: bool = False
    #: For split fragments: block offsets within the parent bio covered by
    #: this fragment (used to reassemble read payloads).
    volume_offsets: Optional[List[int]] = None
    #: Observability span context ({"queue": Span, "fabric": Span}), set by
    #: the block layer / driver only when an Observability is attached.
    obs: Any = None

    def __post_init__(self):
        if self.op not in ("write", "read", "flush"):
            raise ValueError(f"unknown request op: {self.op}")
        if self.op != "flush" and self.nblocks <= 0:
            raise ValueError("read/write request needs nblocks >= 1")

    @property
    def nbytes(self) -> int:
        return self.nblocks * BLOCK_SIZE

    @property
    def end_lba(self) -> int:
        return self.lba + self.nblocks

    def __repr__(self) -> str:
        return (
            f"<BlockRequest {self.req_id} {self.op} lba={self.lba} "
            f"n={self.nblocks} bios={len(self.bios)} "
            f"flush={self.flush} qp={self.qp_index}>"
        )
