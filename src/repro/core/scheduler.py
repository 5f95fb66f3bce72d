"""Rio I/O scheduler: ORDER queues, stream affinity, merging, splitting.

Implements §4.5 and Figures 7–8:

* **Principle 1** — ordered requests go through dedicated per-stream
  *ORDER queues*, separate from orderless traffic.  Each stream has a pump
  process (running on the stream's home core) that drains its queue; while
  the pump is busy dispatching, newly submitted requests accumulate, which
  is exactly the natural batching that makes merging possible.
* **Principle 2** — every request of a stream is dispatched on the *same*
  NIC queue pair (``qp_index = stream_id``), inheriting RC in-order
  delivery so the target's in-order submission almost never stalls.  The
  ``qp_affinity`` switch exists for the ablation benchmark.
* **Principle 3** — merging may *enhance* but never weaken ordering:
  requests merge only when they are from one stream, seq-continuous and
  LBA-consecutive; the merged request carries one compacted attribute and
  recovers atomically.  Split fragments are never merged and vice versa.

Stream stealing (Figure 7(b)) works by construction: any core may enqueue
into any stream, but dispatch order and QP selection follow the *stream*,
not the submitting core.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.block.mq import BlockLayer, observe_merge
from repro.block.request import Bio, BlockRequest
from repro.core.attributes import CoveredRequest, OrderingAttribute
from repro.hw.cpu import CpuSet
from repro.nvmeof.costs import DEFAULT_COSTS, CpuCosts
from repro.sim.engine import Environment, Event

from collections import deque

__all__ = ["RioIoScheduler"]


class RioIoScheduler:
    """Per-stream ORDER queues feeding the driver through the block layer."""

    def __init__(
        self,
        env: Environment,
        block_layer: BlockLayer,
        cpus: CpuSet,
        num_streams: int,
        costs: CpuCosts = DEFAULT_COSTS,
        merging_enabled: bool = True,
        qp_affinity: bool = True,
    ):
        if num_streams < 1:
            raise ValueError("need at least one stream")
        self.env = env
        self.block_layer = block_layer
        self.cpus = cpus
        self.costs = costs
        self.merging_enabled = merging_enabled
        self.qp_affinity = qp_affinity
        self._queues: List[deque] = [deque() for _ in range(num_streams)]
        self._kicks: List[Event] = [Event(env) for _ in range(num_streams)]
        #: Per (stream, namespace): last dispatched group seq and its prev.
        self._last_group: Dict[Tuple, Tuple[int, int]] = {}
        #: Per (stream, namespace): dense dispatch position counter.
        self._server_pos: Dict[Tuple, int] = {}
        #: Released-seq provider installed by the sequencer (ack piggyback).
        self.released_seq_of = lambda stream_id: 0
        self.requests_merged = 0
        self.requests_dispatched = 0
        obs = env.obs
        if obs is not None:
            obs.metrics.register_gauge(
                "rio.order_queue_depth",
                lambda: sum(len(queue) for queue in self._queues),
            )
            obs.metrics.register_gauge(
                "rio.requests_merged", lambda: self.requests_merged
            )
            obs.metrics.register_gauge(
                "rio.requests_dispatched", lambda: self.requests_dispatched
            )
        for stream_id in range(num_streams):
            env.process(self._pump(stream_id))

    @property
    def num_streams(self) -> int:
        return len(self._queues)

    # ------------------------------------------------------------------
    # Enqueue (called by the sequencer, on the submitting core)
    # ------------------------------------------------------------------

    def enqueue(self, core, bio: Bio, kick: bool = True):
        """Generator: split the bio and stage fragments in its ORDER queue.

        With ``kick=False`` the fragments are *staged only* (like bios in a
        blk-mq plug): dispatch happens on the next kick, letting callers
        batch a whole group/transaction so consecutive requests merge.
        """
        yield from core.run(self.costs.block_layer_per_bio)
        bio.submitted_at = self.env.now
        bio.make_completion(self.env)
        self.block_layer.open_bio_span(bio)
        fragments = self.block_layer.split_bio(bio)
        bio._pending_fragments = len(fragments)  # type: ignore[attr-defined]
        if len(fragments) > 1:
            # Divided request: per-fragment attributes with the split flag,
            # rejoined during recovery (§4.5 "Request splitting").
            total = len(fragments)
            for index, (ns, request) in enumerate(fragments):
                request.attr = bio.attr.clone_fragment(
                    index, total, request.lba, request.nblocks
                )
        else:
            ns, request = fragments[0]
            request.attr = bio.attr.copy(
                lba=request.lba, nblocks=request.nblocks
            )
        stream_id = bio.stream_id % len(self._queues)
        queue = self._queues[stream_id]
        for ns, request in fragments:
            queue.append((ns, request))
        if kick:
            self.kick(stream_id)

    def kick(self, stream_id: int) -> None:
        """Wake the stream's pump (the blk_finish_plug moment)."""
        event = self._kicks[stream_id % len(self._kicks)]
        if not event.triggered:
            event.succeed()

    # ------------------------------------------------------------------
    # Pump: drain, merge, dispatch (per stream)
    # ------------------------------------------------------------------

    def _pump(self, stream_id: int):
        queue = self._queues[stream_id]
        core = self.cpus.pick(stream_id)
        while True:
            if not queue:
                self._kicks[stream_id] = Event(self.env)
                yield self._kicks[stream_id]
                continue
            batch = list(queue)
            queue.clear()
            if self.merging_enabled and len(batch) > 1:
                yield from core.run(self.costs.merge_per_bio * len(batch))
                batch = self._merge_batch(batch)
            for ns, request in batch:
                self._assign_dispatch_fields(stream_id, ns, request)
                yield from self.block_layer.dispatch(core, ns, request)
                self.requests_dispatched += 1

    # ------------------------------------------------------------------
    # Merging (Principle 3, Figure 8(a))
    # ------------------------------------------------------------------

    def can_merge(self, ns_a, req_a: BlockRequest, ns_b, req_b: BlockRequest) -> bool:
        """The three requirements of §4.5 plus hardware/atomicity limits."""
        attr_a: Optional[OrderingAttribute] = req_a.attr
        attr_b: Optional[OrderingAttribute] = req_b.attr
        if attr_a is None or attr_b is None:
            return False
        max_blocks = ns_a.target.ssds[ns_a.nsid].profile.max_transfer // 4096
        return (
            ns_a is ns_b  # same device (implied by LBA-consecutive)
            and req_a.op == req_b.op == "write"
            and attr_a.stream_id == attr_b.stream_id  # requirement 1
            and attr_b.start_seq in (attr_a.end_seq, attr_a.end_seq + 1)  # req. 2
            and req_a.end_lba == req_b.lba  # requirement 3
            and not attr_a.split
            and not attr_b.split  # merged and split are exclusive
            and not req_a.flush  # a FLUSH barrier must stay last
            and not req_a.fua
            and not req_b.fua
            and attr_a.ipu == attr_b.ipu
            and req_a.nblocks + req_b.nblocks <= max_blocks
        )

    def _merge_batch(self, batch: List[Tuple[object, BlockRequest]]):
        merged: List[Tuple[object, BlockRequest]] = []
        for ns, request in batch:
            if merged:
                last_ns, last_req = merged[-1]
                if self.can_merge(last_ns, last_req, ns, request):
                    self._absorb(last_req, request)
                    self.requests_merged += 1
                    self.env.trace("rio.sched", "merge",
                                   stream=last_req.attr.stream_id,
                                   into_seq=last_req.attr.start_seq,
                                   end_seq=last_req.attr.end_seq)
                    continue
            self._ensure_covered_ids(request)
            merged.append((ns, request))
        return merged

    @staticmethod
    def _ensure_covered_ids(request: BlockRequest) -> None:
        attr: OrderingAttribute = request.attr
        if attr.covered_ids is None:
            attr.covered_ids = [
                CoveredRequest(
                    seq=attr.start_seq,
                    group_index=attr.group_index,
                    lba=attr.lba,
                    nblocks=attr.nblocks,
                    boundary=attr.boundary,
                )
            ]

    def _absorb(self, into: BlockRequest, request: BlockRequest) -> None:
        """Compact two requests and their attributes into one (Figure 8(a))."""
        a: OrderingAttribute = into.attr
        b: OrderingAttribute = request.attr
        self._ensure_covered_ids(into)
        a.covered_ids.append(
            CoveredRequest(
                seq=b.start_seq,
                group_index=b.group_index,
                lba=b.lba,
                nblocks=b.nblocks,
                boundary=b.boundary,
            )
        )
        a.end_seq = max(a.end_seq, b.end_seq)
        a.covered += b.covered
        a.merged = True
        a.boundary = b.boundary  # the later request's boundary wins
        a.num = b.num
        a.flush = a.flush or b.flush
        a.nblocks += b.nblocks
        into.nblocks += request.nblocks
        into.bios.extend(request.bios)
        into.flush = into.flush or request.flush
        if into.payload is not None and request.payload is not None:
            into.payload = into.payload + request.payload
        elif request.payload is not None:
            into.payload = (
                [None] * (into.nblocks - request.nblocks) + request.payload
            )
        obs = self.env.obs
        if obs is not None:
            observe_merge(obs, into, request)

    # ------------------------------------------------------------------
    # Dispatch bookkeeping (per-server order, QP affinity, ack piggyback)
    # ------------------------------------------------------------------

    def _assign_dispatch_fields(self, stream_id: int, ns, request: BlockRequest):
        attr: OrderingAttribute = request.attr
        # Per-server order (§4.3.1): one chain per (stream, target server),
        # spanning all namespaces on that server.
        key = (stream_id, ns.target)
        last_seq, last_prev = self._last_group.get(key, (0, 0))
        if attr.start_seq > last_seq:
            attr.prev = last_seq
        else:
            # Another request of the same group already went to this server.
            attr.prev = last_prev
        self._last_group[key] = (max(last_seq, attr.end_seq), attr.prev)
        pos = self._server_pos.get(key, 0)
        attr.server_pos = pos
        self._server_pos[key] = pos + 1
        attr.ack_seq = self.released_seq_of(stream_id)
        attr.target_name = ns.target.name
        attr.nsid = ns.nsid
        request.flush = request.flush or attr.flush
        if self.qp_affinity:
            request.qp_index = stream_id
        else:
            # Ablation: spray across queues like orderless traffic does.
            request.qp_index = (attr.server_pos * 7 + stream_id) % max(
                1, ns.num_queues
            )

    def reset_target(self, target) -> None:
        """Forget per-server dispatch state for a restarted target (its
        in-order gate restarted from position zero)."""
        for key in list(self._server_pos):
            if key[1] is target:
                del self._server_pos[key]
        for key in list(self._last_group):
            if key[1] is target:
                del self._last_group[key]
