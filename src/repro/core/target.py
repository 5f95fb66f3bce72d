"""Rio target-side logic: in-order submission and persistent attributes.

Implements §4.3 (steps ⑤⑥⑦ of Figure 4):

* **In-order submission** (§4.3.1) — ordered write requests are submitted
  to the SSD in per-server order, so the SSD's durability interface (FLUSH)
  keeps its meaning: a request that must not become durable before its
  predecessors is never submitted ahead of them.  The per-server order is
  carried by the attribute's dense ``server_pos``; with Rio's stream→QP
  affinity requests arrive already in order and the gate almost never
  blocks (Principle 2).
* **Persistent ordering attributes** (§4.3.2) — before a request reaches
  the SSD its attribute is appended to a circular log in PMR (persist = 0);
  when its data becomes durable the persist field is toggled to 1: at
  completion time on PLP SSDs, or at FLUSH completion on SSDs with a
  volatile cache (only the flush-carrying attribute is toggled).
  Space is recycled by advancing the head pointer over attributes whose
  groups the initiator has already released (the ``ack_seq`` piggyback).

The policy also answers the recovery RPCs (§4.4): shipping surviving PMR
records to the initiator and executing discard requests during roll-back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.attributes import ATTRIBUTE_SIZE, OrderingAttribute
from repro.hw.pmr import PersistentMemoryRegion
from repro.hw.ssd import DiskIO
from repro.net.fabric import Message
from repro.nvmeof.command import NvmeCommand
from repro.nvmeof.target import TargetContext, TargetPolicy, TargetServer
from repro.sim.engine import Environment, Event

__all__ = ["AttributeLog", "RioTargetPolicy"]


class AttributeLog:
    """The PMR circular log of ordering attributes (§4.3.2).

    ``head`` and ``tail`` are *in-memory* pointers (lost on crash, as in the
    paper); liveness after a crash is re-derived by the recovery scan.
    Appends block when the log is full until recycling frees space — the
    invariant that unacknowledged attributes are never overwritten.
    """

    def __init__(self, env: Environment, pmr: PersistentMemoryRegion):
        self.env = env
        self.pmr = pmr
        self.capacity = pmr.size // ATTRIBUTE_SIZE
        self.head = 0  # oldest live position
        self.tail = 0  # next append position
        self._records: Dict[int, OrderingAttribute] = {}  # log_pos -> record
        self._space_waiters: List[Event] = []
        #: Highest released (acknowledged) seq per stream.
        self._acks: Dict[int, int] = {}

    @property
    def live_entries(self) -> int:
        return self.tail - self.head

    def offset_of(self, log_pos: int) -> int:
        return (log_pos % self.capacity) * ATTRIBUTE_SIZE

    def append(self, core, attr: OrderingAttribute):
        """Generator: persist a snapshot of ``attr``; returns its log_pos."""
        while self.tail - self.head >= self.capacity:
            waiter = Event(self.env)
            self._space_waiters.append(waiter)
            yield waiter
        log_pos = self.tail
        self.tail += 1
        record = attr.copy(log_pos=log_pos)
        self._records[log_pos] = record
        yield from self.pmr.persist(
            core, self.offset_of(log_pos), ATTRIBUTE_SIZE, record
        )
        return log_pos

    def toggle_persist(self, core, log_pos: int, cpu_cost: float = 0.15e-6):
        """Generator: set the persist field of a logged attribute to 1.

        A posted MMIO store of one field — cheaper than the full append;
        a later dependent MMIO read fences it, so no read-back is needed.
        """
        record = self._records.get(log_pos)
        if record is None:
            return
        yield from core.run(cpu_cost)
        record.persist = 1
        self.pmr.persist_instant(
            self.offset_of(log_pos), ATTRIBUTE_SIZE, record
        )

    def acknowledge(self, stream_id: int, released_seq: int) -> None:
        """Record the initiator's release progress and recycle space."""
        if released_seq <= self._acks.get(stream_id, 0):
            return
        self._acks[stream_id] = released_seq
        self._advance_head()

    def _advance_head(self) -> None:
        advanced = False
        while self.head < self.tail:
            record = self._records.get(self.head)
            if record is None:
                self.head += 1
                advanced = True
                continue
            if record.end_seq <= self._acks.get(record.stream_id, 0):
                del self._records[self.head]
                self.head += 1
                advanced = True
            else:
                break
        if advanced:
            waiters, self._space_waiters = self._space_waiters, []
            for waiter in waiters:
                waiter.succeed()

    def reset(self) -> None:
        """Volatile state after a power cycle (PMR content survives)."""
        self.head = 0
        self.tail = 0
        self._records.clear()
        self._space_waiters.clear()
        self._acks.clear()


class RioTargetPolicy(TargetPolicy):
    """The Rio additions to the stock NVMe-oF target driver."""

    def __init__(self):
        self.target: Optional[TargetServer] = None
        self.log: Optional[AttributeLog] = None
        #: Per stream: next expected server_pos (the in-order gate).
        self._next_pos: Dict[int, int] = {}
        self._pos_waiters: Dict[Tuple[int, int], Event] = {}
        #: In-flight command -> log position (for the persist toggle).
        #: Keyed by object identity: NVMe CIDs are only unique per
        #: initiator connection, and a target may serve several (§4.9).
        self._log_pos_of: Dict[int, int] = {}
        #: Per stream: highest server_pos that has reached the gate.
        self._arrived: Dict[int, int] = {}
        #: Per stream: highest server_pos *admitted through* the gate (the
        #: duplicate-suppression high-water mark; claimed synchronously at
        #: admission, before the attribute append yields).
        self._admitted: Dict[int, int] = {}
        #: Retransmissions suppressed (idempotent-retry invariant).
        self.duplicates_suppressed = 0
        #: Requests that reached the gate before their predecessor arrived
        #: (true out-of-order deliveries — what Principle 2 minimizes).
        self.out_of_order_arrivals = 0
        #: Total virtual time spent blocked at the in-order gate.
        self.stall_time = 0.0

    def attach(self, target: TargetServer) -> None:
        self.target = target
        self.log = AttributeLog(target.env, target.pmr)
        obs = target.env.obs
        if obs is not None:
            m = obs.metrics
            m.register_gauge(f"rio.gate.{target.name}.duplicates_suppressed",
                             lambda: self.duplicates_suppressed)
            m.register_gauge(f"rio.gate.{target.name}.out_of_order_arrivals",
                             lambda: self.out_of_order_arrivals)
            m.register_gauge(f"rio.gate.{target.name}.stall_s",
                             lambda: self.stall_time)

    # ------------------------------------------------------------------
    # §4.3.1 in-order submission + §4.3.2 attribute persistence
    # ------------------------------------------------------------------

    @staticmethod
    def _attr_of(cmd: NvmeCommand) -> Optional[OrderingAttribute]:
        # The wire carries the attribute in the command's reserved fields
        # (Table 1); the simulator reads the full attribute object from the
        # originating request — informationally equivalent.
        request = cmd.context
        return getattr(request, "attr", None) if request is not None else None

    def _is_duplicate(self, ctx: TargetContext, attr) -> bool:
        """True (and flags ``ctx.duplicate``) if this (stream, seq) was
        already admitted through the gate or has a twin queued at it."""
        if (
            attr.server_pos <= self._admitted.get(attr.stream_id, -1)
            or (attr.stream_id, attr.server_pos) in self._pos_waiters
        ):
            ctx.duplicate = True
            self.duplicates_suppressed += 1
            ctx.env.trace("rio.gate", "duplicate", stream=attr.stream_id,
                          pos=attr.server_pos, seq=attr.start_seq,
                          cause="retransmission of admitted write")
            return True
        return False

    def before_submit(self, ctx: TargetContext, cmd: NvmeCommand):
        attr = self._attr_of(cmd)
        if attr is None:
            return
        # Process the recycling ack first: even if this command stalls at
        # the gate, the log head can advance (avoids append-space waits
        # feeding back into the gate).
        self.log.acknowledge(attr.stream_id, attr.ack_seq)
        # Duplicate suppression (idempotent retry): a retransmission of a
        # (stream, seq) already admitted through the gate — or currently
        # queued at it — must never reach the SSD a second time, or
        # in-order submission and the gate's dense-position accounting
        # would both break.
        if self._is_duplicate(ctx, attr):
            return
        # In-order submission gate: wait for all predecessors of this
        # stream on this server to have been submitted to the SSD.
        arrived = self._arrived.get(attr.stream_id, -1)
        if attr.server_pos > arrived + 1:
            self.out_of_order_arrivals += 1
        self._arrived[attr.stream_id] = max(arrived, attr.server_pos)
        expected = self._next_pos.get(attr.stream_id, 0)
        if attr.server_pos > expected:
            ctx.env.trace("rio.gate", "stall", stream=attr.stream_id,
                          pos=attr.server_pos, expected=expected)
            waiter = Event(ctx.env)
            self._pos_waiters[(attr.stream_id, attr.server_pos)] = waiter
            stall_started = ctx.env.now
            yield waiter
            self.stall_time += ctx.env.now - stall_started
            # A twin copy may have been admitted while this one waited
            # (waiter popped by the predecessor, twin raced past): recheck.
            if self._is_duplicate(ctx, attr):
                return
        # Claim the position before the append yields, so a twin arriving
        # mid-append is flagged as a duplicate rather than double-applied.
        self._admitted[attr.stream_id] = attr.server_pos
        # Persist the ordering attribute (persist = 0) before the data.
        log_pos = yield from self.log.append(ctx.core, attr)
        ctx.env.trace("rio.log", "append", stream=attr.stream_id,
                      seq=attr.start_seq, pos=log_pos)
        self._log_pos_of[id(cmd)] = log_pos
        # Open the gate for the successor.
        self._next_pos[attr.stream_id] = attr.server_pos + 1
        successor = self._pos_waiters.pop(
            (attr.stream_id, attr.server_pos + 1), None
        )
        if successor is not None and not successor.triggered:
            successor.succeed()

    def after_completion(self, ctx: TargetContext, cmd: NvmeCommand):
        attr = self._attr_of(cmd)
        if attr is None:
            return
        log_pos = self._log_pos_of.pop(id(cmd), None)
        if log_pos is None:
            return
        ssd = self.target.ssds[cmd.nsid]
        if ssd.profile.plp:
            # Data durable at completion: toggle persist (step ⑦).
            yield from self.log.toggle_persist(ctx.completion_core, log_pos)
        elif cmd.flush_after:
            # Volatile cache: only the flush-carrying attribute is toggled,
            # covering all preceding requests on this server (§4.3.2).
            yield from self.log.toggle_persist(ctx.completion_core, log_pos)

    # ------------------------------------------------------------------
    # Recovery RPCs (§4.4)
    # ------------------------------------------------------------------

    def on_control(self, ctx: TargetContext, message: Message):
        if message.kind == "rio_ack":
            # Fire-and-forget release notification from the sequencer:
            # recycle log space (§4.3.2 head-pointer movement).  Usually
            # redundant with the per-command piggyback, but essential for
            # liveness when every command was dispatched before any group
            # was released (deep floods with a small PMR).
            for stream_id, released_seq in message.payload:
                self.log.acknowledge(stream_id, released_seq)
            return
            yield  # pragma: no cover - generator form
        rpc_id, payload = message.payload
        if message.kind == "rio_read_attrs":
            records = [
                record
                for record in self.target.pmr.records().values()
                if isinstance(record, OrderingAttribute)
            ]
            # Reading PMR + shipping the attributes costs CPU and wire time.
            yield from ctx.core.run(0.05e-6 * max(1, len(records)))
            ctx.endpoint.post_send(
                Message(
                    kind="rpc_resp",
                    payload=(rpc_id, records),
                    nbytes=max(ATTRIBUTE_SIZE, ATTRIBUTE_SIZE * len(records)),
                )
            )
        elif message.kind == "rio_flush":
            # fsync fan-out (§4.6 durability): on a volume spanning several
            # devices the FLUSH embedded in the final request drains only
            # the device(s) that request landed on.  The initiator fans an
            # explicit per-device flush out to every *volatile* member once
            # the group is released; the drain covers everything admitted
            # to this device for groups <= up_to_seq, so the newest covered
            # PMR record of this (stream, device) becomes valid flush
            # evidence for the recovery scan.
            stream_id, nsid, up_to_seq = payload
            ssd = self.target.ssds[nsid]
            yield from ctx.core.run(0.2e-6)
            yield ssd.submit(DiskIO(op="flush"))
            best_offset = None
            best: Optional[OrderingAttribute] = None
            for offset, record in self.target.pmr.records().items():
                if (
                    isinstance(record, OrderingAttribute)
                    and record.stream_id == stream_id
                    and record.nsid == nsid
                    and record.end_seq <= up_to_seq
                    and (
                        best is None
                        or (record.server_pos, record.log_pos)
                        > (best.server_pos, best.log_pos)
                    )
                ):
                    best_offset, best = offset, record
            if best is not None:
                yield from ctx.completion_core.run(0.15e-6)
                best.flush = True
                best.persist = 1
                self.target.pmr.persist_instant(
                    best_offset, ATTRIBUTE_SIZE, best
                )
            ctx.endpoint.post_send(
                Message(
                    kind="rpc_resp",
                    payload=(rpc_id, best is not None),
                    nbytes=16,
                )
            )
        elif message.kind == "rio_discard":
            extents = payload  # list of (nsid, lba, nblocks)
            for nsid, lba, nblocks in extents:
                ssd = self.target.ssds[nsid]
                # A deallocate/TRIM per extent: cheap but not free.
                yield from ctx.core.run(0.2e-6)
                yield ctx.env.timeout(2e-6)
                ssd.discard(lba, nblocks)
            ctx.endpoint.post_send(
                Message(kind="rpc_resp", payload=(rpc_id, len(extents)), nbytes=16)
            )
        elif message.kind == "rio_clear_log":
            self.target.pmr.clear()
            self.log.reset()
            self._next_pos.clear()
            self._pos_waiters.clear()
            self._arrived.clear()
            self._admitted.clear()
            ctx.endpoint.post_send(
                Message(kind="rpc_resp", payload=(rpc_id, True), nbytes=16)
            )

    def on_restart(self) -> None:
        self.log.reset()
        self._next_pos.clear()
        self._pos_waiters.clear()
        self._log_pos_of.clear()
        self._arrived.clear()
        self._admitted.clear()
