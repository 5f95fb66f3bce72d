"""An LSM-tree key-value store standing in for RocksDB (Figure 15(b)).

Implements the pieces of RocksDB that the ``fillsync`` workload exercises:

* a write-ahead log with **write-group batching**: concurrent writers form
  a group; the leader appends everyone's entries to the WAL and issues one
  fsync (RocksDB's group commit);
* an in-memory memtable with a per-put indexing CPU cost (RocksDB "also
  demands CPU cycles for in-memory indexing and compaction", §6.4);
* background memtable flushes writing SST files through the file system
  (large sequential appends + fsync), charging compaction CPU.

``run_fillsync`` is the db_bench workload of §6.4: 16-byte keys and
1024-byte values, every put followed by a synchronous WAL write.
The CPU-availability effect the paper reports (RioFS leaves more CPU for
RocksDB) emerges naturally: foreground puts, WAL fsync processing and
compaction all compete for the same initiator cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import Cluster
from repro.fs.filesystem import File, SimFileSystem
from repro.hw.cpu import Core
from repro.sim.engine import Environment, Event
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import MeasurementWindow

__all__ = ["KVStore", "FillsyncResult", "run_fillsync"]

KEY_SIZE = 16
VALUE_SIZE = 1024
BLOCK = 4096

#: CPU cost of one memtable (skiplist) insert.
MEMTABLE_INSERT_COST = 1.2e-6
#: CPU cost of encoding one WAL record.
WAL_ENCODE_COST = 0.3e-6
#: Compaction/flush CPU per flushed block.
FLUSH_CPU_PER_BLOCK = 2.0e-6
#: Memtable size threshold that triggers a flush (blocks of entries).
MEMTABLE_FLUSH_BLOCKS = 2048  # 8 MB


@dataclass
class _WriteGroup:
    entries: List[Tuple[Any, Any]] = field(default_factory=list)
    done: Optional[Event] = None


class KVStore:
    """A minimal LSM KV store over :class:`SimFileSystem`."""

    def __init__(self, cluster: Cluster, fs: SimFileSystem, name: str = "db"):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.fs = fs
        self.name = name
        self.memtable: Dict[Any, Any] = {}
        self.memtable_bytes = 0
        self.sst_files: List[File] = []
        self.puts = 0
        self.wal_fsyncs = 0
        self.flushes = 0
        self._wal: Optional[File] = None
        self._group: Optional[_WriteGroup] = None
        self._leader_active = False
        self._flush_in_progress = False
        self._sst_serial = 0

    def open(self, core: Core):
        """Generator: create the WAL file."""
        self._wal = yield from self.fs.create(core, f"{self.name}-wal")
        return self

    # ------------------------------------------------------------------
    # Write path (fillsync: sync=True)
    # ------------------------------------------------------------------

    def put(self, core: Core, key: Any, value: Any, thread_id: int = 0):
        """Generator: insert one record with a synchronous WAL write.

        Concurrent puts join a write group; the leader performs the WAL
        append + fsync for the whole group (RocksDB's joined writers).
        """
        yield from core.run(MEMTABLE_INSERT_COST + WAL_ENCODE_COST)
        self.memtable[key] = value
        self.memtable_bytes += KEY_SIZE + VALUE_SIZE
        self.puts += 1

        if self._group is None:
            self._group = _WriteGroup(done=Event(self.env))
        group = self._group
        group.entries.append((key, value))

        if not self._leader_active:
            # Become the leader: commit whatever has batched up.
            self._leader_active = True
            try:
                while self._group is not None and self._group.entries:
                    current, self._group = self._group, None
                    yield from self._commit_group(core, current, thread_id)
            finally:
                self._leader_active = False
        else:
            yield group.done

        if (
            self.memtable_bytes >= MEMTABLE_FLUSH_BLOCKS * BLOCK
            and not self._flush_in_progress
        ):
            self._flush_in_progress = True
            self.env.process(self._flush_memtable())

    def _commit_group(self, core: Core, group: _WriteGroup, thread_id: int):
        nbytes = len(group.entries) * (KEY_SIZE + VALUE_SIZE + 8)
        nblocks = max(1, (nbytes + BLOCK - 1) // BLOCK)
        yield from self.fs.append(core, self._wal, nblocks=nblocks)
        yield from self.fs.fsync(core, self._wal, thread_id=thread_id)
        self.wal_fsyncs += 1
        group.done.succeed()

    # ------------------------------------------------------------------
    # Background flush (memtable -> SST)
    # ------------------------------------------------------------------

    def _flush_memtable(self):
        core = self.cluster.initiator.cpus.least_loaded()
        entries_bytes = self.memtable_bytes
        self.memtable = {}
        self.memtable_bytes = 0
        nblocks = max(1, entries_bytes // BLOCK)
        self._sst_serial += 1
        sst = yield from self.fs.create(core, f"{self.name}-sst{self._sst_serial}")
        # Sorting + encoding the SST costs CPU (the compaction term).
        yield from core.run(FLUSH_CPU_PER_BLOCK * nblocks)
        chunk = 256
        written = 0
        while written < nblocks:
            step = min(chunk, nblocks - written)
            yield from self.fs.append(core, sst, nblocks=step)
            written += step
        yield from self.fs.fsync(core, sst)
        self.sst_files.append(sst)
        self.flushes += 1
        self._flush_in_progress = False

    def get(self, core: Core, key: Any):
        """Generator: memtable lookup, falling back to SST reads."""
        yield from core.run(MEMTABLE_INSERT_COST)
        if key in self.memtable:
            return self.memtable[key]
        for sst in reversed(self.sst_files):
            if sst.size_blocks:
                yield from self.fs.read(core, sst, 0, 1)
                break
        return None


@dataclass
class FillsyncResult:
    threads: int
    puts: int = 0
    elapsed: float = 0.0
    wal_fsyncs: int = 0
    flushes: int = 0
    initiator_busy_cores: float = 0.0

    @property
    def ops_per_sec(self) -> float:
        return self.puts / self.elapsed if self.elapsed else 0.0


def run_fillsync(
    cluster: Cluster,
    fs: SimFileSystem,
    threads: int = 1,
    duration: float = 10e-3,
    warmup: float = 1e-3,
    seed: int = 7,
) -> FillsyncResult:
    """db_bench fillsync: every put is followed by a synchronous WAL write."""
    env: Environment = cluster.env
    result = FillsyncResult(threads=threads)
    db_holder: Dict[str, KVStore] = {}

    def opener(env):
        core = cluster.initiator.cpus.pick(0)
        db = KVStore(cluster, fs)
        yield from db.open(core)
        db_holder["db"] = db

    env.run_until_event(env.process(opener(env)))
    db = db_holder["db"]
    # The window opens once the database is open, as in run_oltp.
    measured = MeasurementWindow(env, warmup, duration)
    measured.watch_cpu(cluster)

    def writer(thread_id: int):
        rng = DeterministicRNG(seed).fork(f"fillsync{thread_id}")
        core = cluster.initiator.cpus.pick(thread_id)
        while env.now < measured.end:
            key = (thread_id, rng.randint(0, 1 << 30))
            started = env.now
            yield from db.put(core, key, b"v" * 0, thread_id=thread_id)
            measured.complete(started)

    for thread_id in range(threads):
        env.process(writer(thread_id))
    env.run(until=measured.end)
    result.puts = measured.samples
    result.elapsed = duration
    result.wal_fsyncs = db.wal_fsyncs
    result.flushes = db.flushes
    result.initiator_busy_cores = cluster.initiator_busy_cores(duration)
    return result
