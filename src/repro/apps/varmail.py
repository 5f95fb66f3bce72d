"""Filebench Varmail personality (Figure 15(a)).

Varmail models a mail server: a loop of metadata-heavy, fsync-intensive
operations per thread.  Following the Filebench default personality, each
iteration performs:

1. delete an old mail file (directory + inode metadata),
2. create a new mail file, append ~16 KB, **fsync**,
3. open another mail, read it whole, append ~16 KB, **fsync**,
4. open a mail and read it whole.

Filebench counts each primitive as one operation; we do the same, so the
reported ops/s is comparable in shape to the paper's Figure 15(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster import Cluster
from repro.fs.filesystem import SimFileSystem
from repro.sim.engine import Environment
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import MeasurementWindow

__all__ = ["VarmailResult", "run_varmail", "run_fileserver"]

#: Varmail default: ~16 KB mean append size = 4 blocks.
APPEND_BLOCKS = 4


@dataclass
class VarmailResult:
    threads: int
    ops: int = 0
    elapsed: float = 0.0
    fsyncs: int = 0

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0


def run_fileserver(
    cluster: Cluster,
    fs,
    threads: int = 1,
    duration: float = 10e-3,
    warmup: float = 1e-3,
    files_per_thread: int = 32,
    seed: int = 17,
) -> VarmailResult:
    """Filebench *fileserver* personality: create/append/read/delete with
    no per-operation fsync.

    The contrast workload to Varmail: with few ordering points, the gap
    between the compared file systems nearly vanishes — which is itself a
    paper-consistent observation (the cost under study is the cost of
    *ordering*, not of I/O).
    """
    env: Environment = cluster.env
    result = VarmailResult(threads=threads)
    measured = MeasurementWindow(env, warmup, duration)
    count = measured.count

    def thread_body(thread_id: int):
        rng = DeterministicRNG(seed).fork(f"fileserver{thread_id}")
        core = cluster.initiator.cpus.pick(thread_id)
        pool: List = []
        serial = 0
        for _ in range(files_per_thread):
            name = f"fs{thread_id}-{serial}"
            serial += 1
            file = yield from fs.create(core, name)
            yield from fs.append(core, file, nblocks=APPEND_BLOCKS)
            pool.append(file)
        # One initial sync so the dataset exists on the device.
        yield from fs.fsync(core, pool[-1], thread_id=thread_id)

        while env.now < measured.end:
            # create + whole-file write (buffered).
            name = f"fs{thread_id}-{serial}"
            serial += 1
            file = yield from fs.create(core, name)
            yield from fs.append(core, file, nblocks=APPEND_BLOCKS)
            pool.append(file)
            count(2)
            # read a file.
            victim = pool[rng.randint(0, len(pool) - 1)]
            if victim.size_blocks:
                yield from fs.read(core, victim, 0,
                                   min(victim.size_blocks, APPEND_BLOCKS))
            count(1)
            # append to a file.
            victim = pool[rng.randint(0, len(pool) - 1)]
            yield from fs.append(core, victim, nblocks=1)
            count(1)
            # delete a file.
            victim = pool.pop(rng.randint(0, len(pool) - 1))
            yield from fs.unlink(core, victim.name)
            count(1)

    for thread_id in range(threads):
        env.process(thread_body(thread_id))
    env.run(until=measured.end)
    result.ops = measured.ops
    result.elapsed = duration
    result.fsyncs = fs.fsyncs
    return result


def run_varmail(
    cluster: Cluster,
    fs: SimFileSystem,
    threads: int = 1,
    duration: float = 10e-3,
    warmup: float = 1e-3,
    files_per_thread: int = 32,
    seed: int = 99,
) -> VarmailResult:
    """Run the Varmail loop on ``fs`` and report steady-state ops/s."""
    env: Environment = cluster.env
    result = VarmailResult(threads=threads)
    measured = MeasurementWindow(env, warmup, duration)
    count = measured.count

    def thread_body(thread_id: int):
        rng = DeterministicRNG(seed).fork(f"varmail{thread_id}")
        core = cluster.initiator.cpus.pick(thread_id)
        mailbox: List = []
        serial = 0

        # Pre-populate the per-thread mailbox.
        for i in range(files_per_thread):
            name = f"t{thread_id}-mail{serial}"
            serial += 1
            file = yield from fs.create(core, name)
            yield from fs.append(core, file, nblocks=APPEND_BLOCKS)
            mailbox.append(file)
        yield from fs.fsync(core, mailbox[-1], thread_id=thread_id)

        while env.now < measured.end:
            # 1. delete an old mail.
            victim = mailbox.pop(rng.randint(0, len(mailbox) - 1))
            yield from fs.unlink(core, victim.name)
            count(1)

            # 2. deliver a mail: create under a temporary name, append,
            # fsync, then rename into place (the classic maildir dance).
            name = f"t{thread_id}-mail{serial}"
            serial += 1
            file = yield from fs.create(core, f"{name}.tmp")
            yield from fs.append(core, file, nblocks=APPEND_BLOCKS)
            yield from fs.fsync(core, file, thread_id=thread_id)
            yield from fs.rename(core, f"{name}.tmp", name)
            mailbox.append(file)
            count(4)

            # 3. read-modify-append-fsync an existing mail.
            file = mailbox[rng.randint(0, len(mailbox) - 1)]
            if file.size_blocks:
                yield from fs.read(core, file, 0, min(file.size_blocks, 4))
            yield from fs.append(core, file, nblocks=APPEND_BLOCKS)
            yield from fs.fsync(core, file, thread_id=thread_id)
            count(3)

            # 4. read a whole mail.
            file = mailbox[rng.randint(0, len(mailbox) - 1)]
            if file.size_blocks:
                yield from fs.read(core, file, 0, min(file.size_blocks, 4))
            count(1)

    for thread_id in range(threads):
        env.process(thread_body(thread_id))
    env.run(until=measured.end)
    result.ops = measured.ops
    result.elapsed = duration
    result.fsyncs = fs.fsyncs
    return result
