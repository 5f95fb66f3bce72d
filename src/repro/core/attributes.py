"""Ordering attributes (§4.2, Figure 5).

The ordering attribute is the logical identity of an ordered write request:
which *group* it belongs to (``seq`` — the global, per-stream order), which
group precedes it *on the same target server* (``prev``), how many requests
the group contains (``num``, recorded by the final request), and whether
its data blocks are durable (``persist``).  ``split``/``merged``/``ipu``
flags drive the scheduler and recovery special cases.

Attributes are 32 bytes on the wire/PMR (§6.1 quotes 0.6 µs to persist one
32 B attribute); :meth:`OrderingAttribute.to_rio_fields` maps an attribute
onto the reserved NVMe-oF command fields of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional

from repro.nvmeof.command import (
    FLAG_BOUNDARY,
    FLAG_IPU,
    FLAG_MERGED,
    FLAG_SPLIT,
    RIO_OP_SUBMIT,
    RioFields,
)

__all__ = ["OrderingAttribute", "CoveredRequest", "ATTRIBUTE_SIZE"]

#: On-wire/PMR size of one attribute (bytes).
ATTRIBUTE_SIZE = 32


@dataclass(frozen=True)
class CoveredRequest:
    """Identity of one original ordered write covered by an attribute."""

    seq: int
    group_index: int
    lba: int
    nblocks: int
    boundary: bool

    @property
    def request_id(self):
        return (self.seq, self.group_index)


@dataclass
class OrderingAttribute:
    """Identity and ordering state of one ordered write request."""

    stream_id: int
    #: Global (per-stream) order: first group covered by this request.
    start_seq: int
    #: Last group covered (== start_seq unless merging spanned groups).
    end_seq: int
    #: seq of the preceding group on the same target server (0 = none).
    prev: int = 0
    #: Requests in the group; meaningful on the boundary (final) request.
    num: int = 0
    #: 0 while data blocks are in flight; 1 once they are durable (§4.3.2).
    persist: int = 0
    #: Logical block address range of the request's data.
    lba: int = 0
    nblocks: int = 0
    #: Final request of its group (the sequencer's group delimiter).
    boundary: bool = False
    #: Fragment of a divided request (§4.5): rejoined during recovery.
    split: bool = False
    #: Fragment index / total when split is set.
    split_index: int = 0
    split_total: int = 0
    #: Covers several merged requests — an atomic unit during recovery.
    merged: bool = False
    #: How many original ordered write requests this attribute covers.
    covered: int = 1
    #: Position of the request within its group (distinct requests of one
    #: group share seq; this index tells them apart during recovery).
    group_index: int = 0
    #: For merged attributes: the :class:`CoveredRequest` identities covered.
    #: In the real 32 B encoding this is reconstructible from the seq range,
    #: the LBA range and the per-group num fields; the simulator carries it
    #: explicitly for precise roll-back.
    covered_ids: Optional[list] = None
    #: Namespace (SSD) index on the target server, assigned at dispatch.
    nsid: int = 0
    #: Absolute position in the PMR circular log (assigned by the target).
    log_pos: int = -1
    #: In-place update: recovery must not roll these blocks back (§4.4.2).
    ipu: bool = False
    #: Embeds a FLUSH: its persist toggling covers all preceding requests
    #: on the same server (non-PLP rule of §4.3.2).
    flush: bool = False
    #: Per-(stream, server) dense dispatch position — the practical carrier
    #: of the per-server order used for in-order submission (§4.3.1).
    server_pos: int = -1
    #: Completed-up-to hint piggybacked for PMR log recycling (§4.3.2).
    ack_seq: int = 0
    #: Assigned at dispatch: which target server the request went to.
    target_name: str = ""

    def __post_init__(self):
        if self.start_seq < 1 or self.end_seq < self.start_seq:
            raise ValueError(
                f"bad seq range: [{self.start_seq}, {self.end_seq}]"
            )
        if self.prev < 0 or self.prev >= self.start_seq:
            raise ValueError(
                f"prev ({self.prev}) must precede start_seq ({self.start_seq})"
            )
        if self.split and self.merged:
            raise ValueError("a merged request can not be split, and vice versa")

    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        """Convenience for unmerged attributes."""
        return self.start_seq

    def covers(self, seq: int) -> bool:
        return self.start_seq <= seq <= self.end_seq

    def copy(self, **changes) -> "OrderingAttribute":
        """A shallow copy with ``changes`` applied, field for field what
        ``dataclasses.replace(self, **changes)`` returns, at a fraction of
        its cost: the constructor takes every field positionally, then only
        the changed ones are set.  ``__post_init__`` reruns on the changed
        copy only when a field it checks changed."""
        if not _FIELDS.issuperset(changes):
            raise TypeError(
                f"unknown field(s): {sorted(changes.keys() - _FIELDS)}")
        clone = OrderingAttribute(*_field_values(self))
        for name, value in changes.items():
            setattr(clone, name, value)
        if not _CHECKED.isdisjoint(changes):
            clone.__post_init__()
        return clone

    def clone_fragment(self, index: int, total: int, lba: int, nblocks: int
                       ) -> "OrderingAttribute":
        """Attribute for one fragment of a divided request (§4.5)."""
        if total < 2:
            raise ValueError("splitting requires at least two fragments")
        return self.copy(
            split=True,
            split_index=index,
            split_total=total,
            lba=lba,
            nblocks=nblocks,
            merged=False,
        )

    # -- Table 1 projection -------------------------------------------------

    def to_rio_fields(self) -> RioFields:
        flags = 0
        if self.boundary:
            flags |= FLAG_BOUNDARY
        if self.split:
            flags |= FLAG_SPLIT
        if self.ipu:
            flags |= FLAG_IPU
        if self.merged:
            flags |= FLAG_MERGED
        return RioFields(
            rio_op=RIO_OP_SUBMIT,
            start_seq=self.start_seq & 0xFFFF_FFFF,
            end_seq=self.end_seq & 0xFFFF_FFFF,
            prev=self.prev & 0xFFFF_FFFF,
            num=self.num & 0xFFFF,
            stream_id=self.stream_id & 0xFFFF,
            flags=flags,
        )

    def __repr__(self) -> str:
        seq = (
            f"{self.start_seq}"
            if self.start_seq == self.end_seq
            else f"{self.start_seq}-{self.end_seq}"
        )
        marks = "".join(
            mark
            for mark, on in (
                ("B", self.boundary),
                ("S", self.split),
                ("M", self.merged),
                ("I", self.ipu),
                ("F", self.flush),
                ("P", bool(self.persist)),
            )
            if on
        )
        return (
            f"<Attr s{self.stream_id} seq={seq} prev={self.prev} "
            f"lba={self.lba}+{self.nblocks} {marks}>"
        )


_FIELD_NAMES = tuple(f.name for f in fields(OrderingAttribute))
_FIELDS = frozenset(_FIELD_NAMES)
#: Every field's value, in constructor order.
_field_values = attrgetter(*_FIELD_NAMES)
#: The fields ``OrderingAttribute.__post_init__`` validates.
_CHECKED = frozenset({"start_seq", "end_seq", "prev", "split", "merged"})
