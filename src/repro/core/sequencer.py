"""Rio sequencer: attribute creation and in-order completion (§4.1, §4.2).

The sequencer is the shim between the file system and the block layer.  It
controls the *start* and *end* of an ordered write request's lifetime —
everything in between runs out-of-order and asynchronously:

* **start** — submission order from the caller *is* the storage order: the
  sequencer stamps each request with an ordering attribute whose ``seq`` is
  the current group number, closing a group when the caller marks the final
  request (step ② of Figure 4);
* **end** — raw completions may arrive out of order; the sequencer releases
  them to the caller strictly in group order (step ⑨), so the file system
  only ever observes ordered states.

The sequencer also retains the bios of unreleased groups: they are the
replay source for target-crash recovery (§4.4.1 — "the initiator re-sends
W4 until a successful completion response is received").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.block.request import Bio
from repro.core.attributes import OrderingAttribute
from repro.core.scheduler import RioIoScheduler
from repro.hw.cpu import Core
from repro.nvmeof.costs import DEFAULT_COSTS, CpuCosts
from repro.sim.engine import Environment, Event

__all__ = ["GroupState", "StreamState", "RioSequencer"]


@dataclass
class GroupState:
    """One ordered group (all requests sharing a sequence number)."""

    seq: int
    bios: List[Bio] = field(default_factory=list)
    app_events: List[Event] = field(default_factory=list)
    closed: bool = False
    completed: int = 0

    @property
    def done(self) -> bool:
        return self.closed and self.completed >= len(self.bios)


@dataclass
class StreamState:
    """Per-stream ordering state (streams are independent, §4.5)."""

    stream_id: int
    next_seq: int = 1
    #: Unreleased groups, seq -> state (release removes entries).
    groups: Dict[int, GroupState] = field(default_factory=dict)
    #: Next group seq to release to the caller.
    release_ptr: int = 1
    #: Highest released seq (piggybacked as the PMR recycling ack).
    released_seq: int = 0


class RioSequencer:
    """Creates ordering attributes and enforces in-order completion.

    Each submitted bio's raw completion reaches the sequencer as a callback
    registered at submission (:meth:`_complete_one`), not through a
    watcher process.  A watcher spawned at submission registered the same
    body on the same event at its bootstrap, later in the same instant.
    The two give the same order because the completion is fresh and
    pending at submission, it cannot fire before that bootstrap (the block
    layer completes a bio from a callback on the driver's event or from a
    later queue hop, never inside the submitting call), and nothing else
    registers on it in between.  Only the submitter and the group hold
    the bio, and recovery's replay, the one other reader of a group's
    bios, waits on them only after re-enqueueing them, whose CPU charge
    yields first.
    """

    def __init__(
        self,
        env: Environment,
        scheduler: RioIoScheduler,
        num_streams: int,
        costs: CpuCosts = DEFAULT_COSTS,
        stream_base: int = 0,
    ):
        if num_streams < 1:
            raise ValueError("need at least one stream")
        if stream_base < 0:
            raise ValueError("stream_base must be >= 0")
        self.env = env
        self.scheduler = scheduler
        self.costs = costs
        #: Global stream-id offset: with multiple initiator servers (§4.9)
        #: each initiator owns a disjoint stream-id range, so per-stream
        #: state on the shared targets never collides.
        self.stream_base = stream_base
        self.streams = [StreamState(i) for i in range(num_streams)]
        self.groups_released = 0

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    # ------------------------------------------------------------------
    # Submission (§4.2 "Creation")
    # ------------------------------------------------------------------

    def submit(
        self,
        core: Core,
        bio: Bio,
        end_of_group: bool = True,
        flush: bool = False,
        kick: Optional[bool] = None,
    ):
        """Generator: submit one ordered write; returns the ordered
        completion event (fires only when all earlier groups completed).

        ``end_of_group`` marks the final request of a group (requests in a
        group may be freely reordered among themselves); ``flush`` embeds a
        FLUSH in the request for durability (§4.6).

        ``kick`` controls when the ORDER queue dispatches: by default the
        group boundary kicks, so a multi-request group is staged together
        and its consecutive members merge (Principle 3).  Callers batching
        several groups (Figure 12) pass ``kick=False`` for all but the last.
        """
        if bio.op != "write":
            raise ValueError("only writes participate in storage order")
        stream = self.streams[bio.stream_id]
        yield from core.run(self.costs.sequencer_per_bio)

        seq = stream.next_seq
        group = stream.groups.get(seq)
        if group is None:
            group = GroupState(seq)
            stream.groups[seq] = group
        if group.closed:
            raise RuntimeError(f"group {seq} already closed on stream {bio.stream_id}")

        if flush:
            bio.flags.flush = True
        bio.flags.ordered = True
        bio.flags.group_end = end_of_group
        attr = OrderingAttribute(
            stream_id=self.stream_base + bio.stream_id,
            start_seq=seq,
            end_seq=seq,
            boundary=end_of_group,
            ipu=bio.flags.ipu,
            flush=bio.flags.flush,
            lba=bio.lba,
            nblocks=bio.nblocks,
            group_index=len(group.bios),
        )
        bio.attr = attr
        group.bios.append(bio)
        if end_of_group:
            attr.num = len(group.bios)
            group.closed = True
            stream.next_seq += 1

        app_event = Event(self.env)
        app_event.bio = bio  # error/status visibility for callers
        group.app_events.append(app_event)
        bio.make_completion(self.env).callbacks.append(
            partial(self._complete_one, stream, group))

        if kick is None:
            kick = end_of_group
        yield from self.scheduler.enqueue(core, bio, kick=kick)
        return app_event

    # ------------------------------------------------------------------
    # In-order completion (§4.1 step ⑨)
    # ------------------------------------------------------------------

    def _complete_one(self, stream: StreamState, group: GroupState,
                      _raw: Event) -> None:
        """Callback on a bio's raw completion (see the class docstring)."""
        group.completed += 1
        self._release(stream)

    def _release(self, stream: StreamState) -> None:
        while True:
            group = stream.groups.get(stream.release_ptr)
            if group is None or not group.done:
                return
            for event in group.app_events:
                if not event.triggered:
                    event.succeed(group.seq)
            stream.released_seq = group.seq
            self.env.trace("rio.seq", "release", stream=stream.stream_id,
                           seq=group.seq, requests=len(group.bios))
            del stream.groups[group.seq]
            stream.release_ptr += 1
            self.groups_released += 1

    def released_seq(self, stream_id: int) -> int:
        return self.streams[stream_id].released_seq

    # ------------------------------------------------------------------
    # Replay support (§4.4.1 target recovery)
    # ------------------------------------------------------------------

    def unreleased_groups(self, stream_id: int) -> List[GroupState]:
        """Groups not yet released, oldest first — the replay window."""
        stream = self.streams[stream_id]
        return [stream.groups[seq] for seq in sorted(stream.groups)]
