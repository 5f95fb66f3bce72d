"""Metadata journaling engine with group commit.

One :class:`Journal` owns a contiguous journal area on the volume and an
ordering stream.  ``fsync`` callers enqueue :class:`Transaction` objects;
the journal's commit worker batches whatever is pending into one on-disk
transaction (JBD2-style group commit) and writes it through the configured
ordered stack:

* group *k*   — the transaction's data blocks (ordered mode: data must
  persist before the commit record) and the journal description +
  journaled-metadata blocks, all freely reorderable among themselves;
* group *k+1* — the commit record, with an embedded FLUSH for durability.

On the Linux stack this pattern *is* the classic synchronous journaling
(wait + FLUSH per group); on HORAE it rides the control path; on Rio the
groups flow asynchronously through one stream and the consecutive journal
blocks merge (the Figure 14 behaviour).

Timestamps for the Figure 14 latency breakdown are recorded per commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple  # noqa: F401

from repro.block.request import Bio, WriteFlags
from repro.hw.cpu import Core
from repro.sim.engine import Environment, Event
from repro.sim.resources import Store
from repro.systems.base import OrderedStack

__all__ = ["Transaction", "CommitBreakdown", "Journal"]

#: CPU cost of assembling one on-disk transaction (block checksums,
#: descriptor setup) — file-system-side Lesson 3 term.
TXN_ASSEMBLY_COST = 0.8e-6


@dataclass
class Transaction:
    """One file-level transaction awaiting commit."""

    #: Home locations of the journaled metadata blocks: (lba, payload).
    metadata_blocks: List[Tuple[int, Any]] = field(default_factory=list)
    #: Dirty data extents to write before the commit record:
    #: (lba, nblocks, payload list, ipu flag).
    data_extents: List[Tuple[int, int, Optional[List[Any]], bool]] = field(
        default_factory=list
    )
    #: Set when freed blocks are being reused: forces the classic FLUSH
    #: before the data write (§4.4.2 block reuse).
    block_reuse: bool = False
    #: Fired when the transaction is durable.
    done: Optional[Event] = None
    enqueued_at: float = 0.0


@dataclass
class CommitBreakdown:
    """Timestamps of one commit, for the Figure 14 breakdown."""

    started: float = 0.0
    data_dispatched: float = 0.0
    jm_dispatched: float = 0.0
    jc_dispatched: float = 0.0
    completed: float = 0.0

    @property
    def total(self) -> float:
        return self.completed - self.started


class Journal:
    """One journal area + commit worker bound to an ordering stream."""

    def __init__(
        self,
        env: Environment,
        stack: OrderedStack,
        core: Core,
        stream_id: int,
        area_start: int,
        area_blocks: int,
        name: str = "journal",
        sync_data_group: bool = False,
        commit_cpu_per_block: float = 0.7e-6,
    ):
        if area_blocks < 8:
            raise ValueError("journal area too small")
        self.env = env
        self.stack = stack
        self.core = core
        self.stream_id = stream_id
        self.area_start = area_start
        self.area_blocks = area_blocks
        self.name = name
        #: Ext4's ordered mode: data writeback completes *before* journal
        #: writes start (an extra synchronous boundary).  RioFS/HoraeFS
        #: only need data-before-commit-record, which the group gives them.
        self.sync_data_group = sync_data_group
        #: jbd2 copies and checksums every journaled buffer on the commit
        #: thread — per-block CPU serialized on this journal's core.
        self.commit_cpu_per_block = commit_cpu_per_block
        self._pending: Store = Store(env)
        self._used = 0  # blocks consumed since the last checkpoint
        self._txn_counter = 0
        #: Journaled metadata awaiting write-back: home lba -> payload.
        self._dirty_metadata: Dict[int, Any] = {}
        self.commits = 0
        self.checkpoints = 0
        self.breakdowns: List[CommitBreakdown] = []
        env.process(self._commit_worker())

    # ------------------------------------------------------------------
    # fsync-side API
    # ------------------------------------------------------------------

    def submit(self, txn: Transaction) -> Event:
        """Enqueue a transaction; returns its durability event."""
        if txn.done is None:
            txn.done = Event(self.env)
        txn.enqueued_at = self.env.now
        self._pending.put(txn)
        return txn.done

    # ------------------------------------------------------------------
    # Commit worker (group commit)
    # ------------------------------------------------------------------

    def _commit_worker(self):
        while True:
            first = yield self._pending.get()
            batch = [first]
            while True:
                extra = self._pending.try_get()
                if extra is None:
                    break
                batch.append(extra)
            yield from self._commit(batch)

    def _alloc_journal(self, nblocks: int) -> int:
        lba = self.area_start + (self._used % (self.area_blocks - nblocks))
        self._used += nblocks
        return lba

    def _commit(self, batch: List[Transaction]):
        core = self.core
        stream = self.stream_id
        breakdown = CommitBreakdown(started=self.env.now)
        self._txn_counter += 1
        obs = self.env.obs
        cspan = None
        if obs is not None:
            # The commit's root span: opens at ``breakdown.started`` and
            # closes at ``breakdown.completed``, so the Fig. 14 numbers can
            # be reconstructed from the span tree alone.
            cspan = obs.spans.open(
                "fs.journal", host="initiator", journal=self.name,
                stream=stream, batch=len(batch), txn=self._txn_counter,
            )

        yield from core.run(TXN_ASSEMBLY_COST * len(batch))

        # Checkpoint when the journal area is nearly exhausted.
        if self._used >= int(self.area_blocks * 0.8):
            yield from self._checkpoint(cspan)

        # Block reuse regresses to the classic synchronous FLUSH (§4.4.2/§4.7).
        if any(t.block_reuse for t in batch):
            flush_bio = Bio(op="write", lba=self.area_start, nblocks=1,
                            stream_id=stream, flags=WriteFlags(flush=True),
                            obs_parent=cspan, obs_role="reuse_flush")
            done = yield from self.stack.submit_ordered(
                core, flush_bio, end_of_group=True, flush=True
            )
            yield done

        metadata = [m for txn in batch for m in txn.metadata_blocks]
        data_blocks = sum(
            nblocks for txn in batch for _l, nblocks, _p, _i in txn.data_extents
        )
        # jbd2-style buffer copies + checksums on the commit thread.
        yield from core.run(
            self.commit_cpu_per_block * (len(metadata) + data_blocks + 2)
        )

        events = []
        data_bios = []
        # ---- group k: data blocks (ordered mode) ----
        last_data = None
        for txn in batch:
            for lba, nblocks, payload, ipu in txn.data_extents:
                bio = Bio(op="write", lba=lba, nblocks=nblocks,
                          payload=payload, stream_id=stream,
                          flags=WriteFlags(ipu=ipu),
                          obs_parent=cspan, obs_role="data")
                last_data = bio
                data_bios.append(bio)
        for index, bio in enumerate(data_bios):
            closes_group = self.sync_data_group and bio is last_data
            done = yield from self.stack.submit_ordered(
                core, bio, end_of_group=closes_group, kick=False,
            )
            events.append(done)

        # ---- group k (cont. — or its own group for Ext4): JD + JM ----
        jd_jm_blocks = 1 + len(metadata)
        journal_lba = self._alloc_journal(jd_jm_blocks + 1)
        jd_payload = [("JD", self._txn_counter)] + [
            ("JM", lba, payload) for lba, payload in metadata
        ]
        jm_bio = Bio(op="write", lba=journal_lba, nblocks=jd_jm_blocks,
                     payload=jd_payload, stream_id=stream,
                     obs_parent=cspan, obs_role="jm")
        done = yield from self.stack.submit_ordered(
            core, jm_bio, end_of_group=True, kick=False,
        )
        events.append(done)

        # ---- final group: the commit record, flushed for durability ----
        jc_bio = Bio(op="write", lba=journal_lba + jd_jm_blocks, nblocks=1,
                     payload=[("JC", self._txn_counter)], stream_id=stream,
                     obs_parent=cspan, obs_role="jc")
        jc_done = yield from self.stack.submit_ordered(
            core, jc_bio, end_of_group=True, flush=True, kick=True,
        )
        events.append(jc_done)

        for lba, payload in metadata:
            self._dirty_metadata[lba] = payload

        yield self.env.all_of(events)
        breakdown.completed = self.env.now
        started = breakdown.started
        breakdown.data_dispatched = (
            max((b.dispatched_at for b in data_bios), default=started)
        )
        breakdown.jm_dispatched = jm_bio.dispatched_at or started
        breakdown.jc_dispatched = jc_bio.dispatched_at or started
        self.breakdowns.append(breakdown)
        self.commits += 1
        if cspan is not None:
            obs.spans.close(cspan)
            obs.metrics.inc("journal.commits")

        for txn in batch:
            if not txn.done.triggered:
                txn.done.succeed()

    def _checkpoint(self, parent=None):
        """Write journaled metadata to its home locations and recycle the
        journal area.

        Classic checkpointing: the home-location writes are orderless
        (they are re-creatable from the journal until the area is
        recycled), followed by a FLUSH so recycling never exposes a window
        where neither the journal copy nor the home copy is durable.
        """
        self.checkpoints += 1
        dirty, self._dirty_metadata = self._dirty_metadata, {}
        completions = []
        for lba, payload in dirty.items():
            bio = Bio(op="write", lba=lba, nblocks=1, payload=[payload],
                      stream_id=self.stream_id,
                      obs_parent=parent, obs_role="checkpoint")
            done = yield from self.stack.block_layer.submit_bio(self.core, bio)
            completions.append(done)
        if completions:
            yield self.env.all_of(completions)
        flush_bio = Bio(op="flush", stream_id=self.stream_id,
                        obs_parent=parent, obs_role="checkpoint_flush")
        done = yield from self.stack.block_layer.submit_bio(
            self.core, flush_bio
        )
        yield done
        self._used = 0
