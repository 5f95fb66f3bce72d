"""Multi-queue block layer: splitting, plug-based merging, dispatch.

This is the orderless Linux data path (and the substrate every ordered
system in the reproduction builds on):

* **splitting** — a bio is broken into per-device fragments at volume
  stripe boundaries and at the device's maximum transfer size (§4.5);
* **plugging** — a :class:`Plug` batches fragments the way
  ``blk_start_plug``/``blk_finish_plug`` do, so LBA-consecutive writes on
  the same device merge into one request → one NVMe-oF command (Figure 3);
* **dispatch** — merged requests go to the initiator driver on the queue
  pair selected by ``qp_index`` (per-core by default, per-stream for Rio).

Bio completion fans in over fragments: a split bio completes when its last
fragment's request completes; a merged request completes every bio it
covers.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.block.request import Bio, BlockRequest
from repro.block.volume import LogicalVolume
from repro.hw.cpu import Core
from repro.nvmeof.costs import DEFAULT_COSTS, CpuCosts
from repro.sim.engine import Environment, Event

if TYPE_CHECKING:  # typing only — avoids a block <-> nvmeof import cycle
    from repro.nvmeof.initiator import InitiatorDriver, RemoteNamespace

__all__ = ["Plug", "BlockLayer", "observe_merge"]


def observe_merge(obs, into: BlockRequest, request: BlockRequest) -> None:
    """Record a request merge in the span plane: the absorbed request's
    staging span closes (tagged with the survivor), and the survivor's
    span widens to cover the absorbed bios.  Shared by the orderless merge
    path here and Rio's ORDER-queue merge
    (:meth:`repro.core.scheduler.RioIoScheduler._absorb`)."""
    survivor = (into.obs or {}).get("queue")
    if survivor is not None:
        survivor.attrs["bios"] = tuple(b.bio_id for b in into.bios)
    absorbed = (request.obs or {}).get("queue")
    obs.spans.close(absorbed, merged_into=into.req_id)


def _queue_hop(env: Environment, callback) -> None:
    """Run ``callback`` at the dispatch of a new event due now."""
    hop = Event(env)
    hop.callbacks.append(callback)
    hop.succeed()


class Plug:
    """A per-thread staging list of not-yet-dispatched request fragments."""

    def __init__(self) -> None:
        self.fragments: List[Tuple["RemoteNamespace", BlockRequest]] = []

    def add(self, ns: "RemoteNamespace", request: BlockRequest) -> None:
        self.fragments.append((ns, request))

    def __len__(self) -> int:
        return len(self.fragments)


class BlockLayer:
    """Splitting, merging and dispatch between bios and the driver."""

    def __init__(
        self,
        env: Environment,
        driver: "InitiatorDriver",
        volume: LogicalVolume,
        costs: CpuCosts = DEFAULT_COSTS,
        merging_enabled: bool = True,
    ):
        self.env = env
        self.driver = driver
        self.volume = volume
        self.costs = costs
        self.merging_enabled = merging_enabled
        self.requests_dispatched = 0
        self.bios_merged = 0
        obs = env.obs
        if obs is not None:
            obs.metrics.register_gauge(
                "block.requests_dispatched", lambda: self.requests_dispatched
            )
            obs.metrics.register_gauge(
                "block.bios_merged", lambda: self.bios_merged
            )

    # ------------------------------------------------------------------
    # Bio entry points
    # ------------------------------------------------------------------

    def open_bio_span(self, bio: Bio) -> None:
        """Open the bio's ``block.mq`` lifecycle span (idempotent; no-op
        with no observability attached).  Closed by :meth:`Bio.complete`."""
        obs = self.env.obs
        if obs is not None and bio.obs_span is None:
            bio.obs_span = obs.spans.open(
                "block.mq", parent=bio.obs_parent, host="initiator",
                bio=bio.bio_id, op=bio.op, lba=bio.lba, n=bio.nblocks,
                stream=bio.stream_id, role=bio.obs_role,
            )

    def submit_bio(self, core: Core, bio: Bio, plug: Optional[Plug] = None):
        """Generator: accept a bio; returns its completion event.

        With a ``plug``, fragments are staged for merging and dispatched
        by :meth:`finish_plug`; otherwise they dispatch immediately.
        """
        completion = bio.make_completion(self.env)
        bio.submitted_at = self.env.now
        self.open_bio_span(bio)
        yield from core.run(self.costs.block_layer_per_bio)
        fragments = self.split_bio(bio)
        bio._pending_fragments = len(fragments)  # type: ignore[attr-defined]
        if plug is not None:
            for ns, request in fragments:
                plug.add(ns, request)
        else:
            for ns, request in fragments:
                yield from self.dispatch(core, ns, request)
        return completion

    def finish_plug(self, core: Core, plug: Plug):
        """Generator: merge staged fragments and dispatch them all."""
        fragments = plug.fragments
        plug.fragments = []
        if self.merging_enabled and len(fragments) > 1:
            yield from core.run(self.costs.merge_per_bio * len(fragments))
            fragments = self.merge_fragments(fragments)
        for ns, request in fragments:
            yield from self.dispatch(core, ns, request)

    # ------------------------------------------------------------------
    # Splitting (§4.5: hardware limits and volume striping)
    # ------------------------------------------------------------------

    def split_bio(self, bio: Bio) -> List[Tuple["RemoteNamespace", BlockRequest]]:
        """Break a bio into per-device, size-limited request fragments."""
        if bio.op == "flush":
            # A bare flush fans out to every member device.
            return self._observe_fragments(bio, [
                (
                    ns,
                    BlockRequest(
                        op="flush",
                        lba=0,
                        nblocks=0,
                        bios=[bio],
                        stream_id=bio.stream_id,
                        attr=bio.attr,
                        tenant=bio.tenant,
                    ),
                )
                for ns in self.volume.namespaces
            ])
        fragments: List[Tuple["RemoteNamespace", BlockRequest]] = []
        extents = list(self.volume.extents(bio.lba, bio.nblocks))
        split = len(extents) > 1 or any(
            len(offsets) > ns.target.ssds[ns.nsid].profile.max_transfer // 4096
            for ns, _lba, offsets in extents
        )
        for ns, local_lba, vol_offsets in extents:
            max_blocks = ns.target.ssds[ns.nsid].profile.max_transfer // 4096
            local_nblocks = len(vol_offsets)
            start = 0
            while start < local_nblocks:
                chunk = min(max_blocks, local_nblocks - start)
                payload = None
                if bio.payload is not None:
                    payload = [
                        bio.payload[vol_offsets[start + i]] for i in range(chunk)
                    ]
                request = BlockRequest(
                    op=bio.op,
                    lba=local_lba + start,
                    nblocks=chunk,
                    bios=[bio],
                    payload=payload,
                    flush=bio.flags.flush,
                    fua=bio.flags.fua,
                    barrier=bio.flags.barrier,
                    attr=bio.attr,
                    stream_id=bio.stream_id,
                    tenant=bio.tenant,
                    is_split_fragment=split,
                    volume_offsets=vol_offsets[start : start + chunk],
                )
                fragments.append((ns, request))
                start += chunk
        return self._observe_fragments(bio, fragments)

    def _observe_fragments(
        self, bio: Bio, fragments: List[Tuple["RemoteNamespace", BlockRequest]]
    ) -> List[Tuple["RemoteNamespace", BlockRequest]]:
        """Open an ``initiator.queue`` span per fragment (staging -> dispatch).

        Gated on the bio's own span being open: callers that use
        :meth:`split_bio` merely to *plan* fragments (HoraeFS computing its
        control-path extents) never submitted the bio, and their throwaway
        fragments must not appear in the span forest."""
        obs = self.env.obs
        if obs is not None and bio.obs_span is not None:
            for _ns, request in fragments:
                request.obs = {
                    "queue": obs.spans.open(
                        "initiator.queue", parent=bio.obs_span,
                        host="initiator", req=request.req_id, op=request.op,
                        lba=request.lba, n=request.nblocks,
                        stream=request.stream_id, bios=(bio.bio_id,),
                    )
                }
        return fragments

    # ------------------------------------------------------------------
    # Merging (Lesson 3)
    # ------------------------------------------------------------------

    @staticmethod
    def can_merge(prev: BlockRequest, nxt: BlockRequest) -> bool:
        """Standard orderless merge test: same op, LBA-consecutive, and the
        earlier request must not carry a post-flush barrier."""
        return (
            prev.op == nxt.op == "write"
            and prev.end_lba == nxt.lba
            and not prev.flush
            and not prev.fua
            and not nxt.fua
            and prev.attr is None
            and nxt.attr is None
            and prev.tenant == nxt.tenant
        )

    def merge_fragments(
        self, fragments: List[Tuple["RemoteNamespace", BlockRequest]]
    ) -> List[Tuple["RemoteNamespace", BlockRequest]]:
        """Coalesce LBA-consecutive staged fragments per device (in order)."""
        merged: List[Tuple["RemoteNamespace", BlockRequest]] = []
        last_by_ns: Dict[int, int] = {}  # id(ns) -> index into merged
        for ns, request in fragments:
            index = last_by_ns.get(id(ns))
            if index is not None:
                _ns, prev = merged[index]
                max_blocks = ns.target.ssds[ns.nsid].profile.max_transfer // 4096
                if (
                    self.can_merge(prev, request)
                    and prev.nblocks + request.nblocks <= max_blocks
                ):
                    self._absorb(prev, request)
                    self.bios_merged += 1
                    continue
            merged.append((ns, request))
            last_by_ns[id(ns)] = len(merged) - 1
        return merged

    def _absorb(self, prev: BlockRequest, request: BlockRequest) -> None:
        prev.nblocks += request.nblocks
        prev.bios.extend(request.bios)
        prev.flush = prev.flush or request.flush
        if prev.payload is not None and request.payload is not None:
            prev.payload = prev.payload + request.payload
        elif request.payload is not None:
            prev.payload = ([None] * (prev.nblocks - request.nblocks)) + request.payload
        obs = self.env.obs
        if obs is not None:
            observe_merge(obs, prev, request)

    # ------------------------------------------------------------------
    # Dispatch + completion fan-out
    # ------------------------------------------------------------------

    def dispatch(self, core: Core, ns: "RemoteNamespace", request: BlockRequest):
        """Generator: hand one request to the driver; wires completions.

        The driver's event completes the request through a callback
        (:meth:`_complete_request`), not a watcher process.  It runs where
        a watcher spawned here (waiting once on ``done``) ran its body:

        * ``done`` pending (the usual case): at ``done``'s dispatch, where
          the watcher resumed too; it registered at its bootstrap, later
          in this instant.  One other listener registers on ``done``: the
          driver's command watchdog (``DriverHardening.command_timeout``),
          whose bootstrap was queued before the watcher's, so the watcher
          listened after it and this callback listens before it.  The swap
          cannot be observed: every path that fires ``done`` cancels the
          command's expiry first, so the watchdog only wakes to find its
          expiry cancelled and ends.
        * ``done`` already fired (``InitiatorDriver._fast_fail``): at the
          watcher's bootstrap the event had been processed, so its body ran
          at once if nothing else was ready and otherwise one queue hop
          later.  Two hops queued from here reproduce both: with nothing
          ready at the first, the second is the next event anyway.
        """
        if request.qp_index is None:
            request.qp_index = core.index
        for bio in request.bios:
            if not bio.dispatched_at:
                bio.dispatched_at = self.env.now
        obs = self.env.obs
        if obs is not None and request.obs is not None:
            # The staging span's end is the dispatch moment — by design the
            # same timestamp as ``bio.dispatched_at`` just above, so the
            # Fig. 14 reconstruction from spans matches the harness exactly.
            obs.spans.close(request.obs.get("queue"), dispatched=1,
                            qp=request.qp_index)
        done = yield from self.driver.submit(core, ns, request)
        self.requests_dispatched += 1
        complete = partial(self._complete_request, request)
        if not done.triggered:
            done.callbacks.append(complete)
            return
        env = self.env
        _queue_hop(env, lambda _hop: _queue_hop(
            env, lambda _hop: complete(done)))

    def _complete_request(self, request: BlockRequest, done: Event) -> None:
        """Fan the driver's completion (value: the command) out to the
        request's bios."""
        if not done.ok:
            raise done.value
        cmd = done.value
        if request.op == "read" and cmd is not None and cmd.payload is not None:
            request.payload = cmd.payload
            if len(request.bios) == 1:
                bio = request.bios[0]
                if not request.is_split_fragment:
                    bio.payload = list(cmd.payload)
                else:
                    # Scatter-gather reassembly: place this fragment's
                    # blocks at their offsets within the parent bio.
                    if bio.payload is None or len(bio.payload) != bio.nblocks:
                        bio.payload = [None] * bio.nblocks
                    offsets = request.volume_offsets or range(request.nblocks)
                    for i, offset in enumerate(offsets):
                        bio.payload[offset] = cmd.payload[i]
        for bio in request.bios:
            if request.status and not bio.status:
                bio.status = request.status
            remaining = getattr(bio, "_pending_fragments", 1) - 1
            bio._pending_fragments = remaining  # type: ignore[attr-defined]
            if remaining <= 0:
                bio.complete(self.env)
