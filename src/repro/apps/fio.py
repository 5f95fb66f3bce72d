"""FIO-style block-device workload driver.

Drives an :class:`~repro.systems.base.OrderedStack` with the write patterns
of the paper's block-level experiments:

* ``pattern="rand" | "seq" | "mixed"`` with configurable write size
  (Figures 10, 11; ``mixed`` is the qualification matrix's 50/50
  seeded blend of sequential and random ops);
* ``batch`` — groups of LBA-consecutive writes staged together so merging
  can fire (Figures 3 and 12);
* ``journal_pattern=True`` — the motivation workload of §3.1: each
  iteration issues a 2-block ordered write followed by a 1-block ordered
  write (journal description + metadata, then the commit record);
* per-thread private SSD areas and per-thread streams, like the paper's
  FIO jobs.

Returns throughput, latency and the §6.1 CPU-efficiency metric computed
from the initiator's and targets' busy cores during the measured window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import Cluster
from repro.sim.engine import Environment
from repro.sim.resources import IssueWindow
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import LatencyRecorder
from repro.systems.base import OrderedStack

__all__ = ["BlockWorkloadResult", "run_block_workload"]

#: Private LBA area per thread, in blocks (far apart so threads never merge
#: with each other).
THREAD_AREA_BLOCKS = 16_000_000


@dataclass
class BlockWorkloadResult:
    """Measured outcome of one block-workload run."""

    system: str
    threads: int
    ops: int = 0
    bytes_written: int = 0
    elapsed: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    initiator_busy_cores: float = 0.0
    target_busy_cores: float = 0.0
    commands_sent: int = 0

    @property
    def iops(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0

    @property
    def mb_per_sec(self) -> float:
        return self.bytes_written / self.elapsed / 1e6 if self.elapsed else 0.0

    @property
    def initiator_efficiency(self) -> float:
        """Throughput per busy initiator core (§6.1 CPU efficiency)."""
        if self.initiator_busy_cores <= 0:
            return 0.0
        return self.iops / self.initiator_busy_cores

    @property
    def target_efficiency(self) -> float:
        if self.target_busy_cores <= 0:
            return 0.0
        return self.iops / self.target_busy_cores


def run_block_workload(
    cluster: Cluster,
    stack: OrderedStack,
    threads: int = 1,
    duration: float = 5e-3,
    warmup: float = 0.5e-3,
    write_blocks: int = 1,
    pattern: str = "rand",
    batch: int = 1,
    queue_depth: int = 32,
    journal_pattern: bool = False,
    durable: bool = False,
    seed: int = 1234,
) -> BlockWorkloadResult:
    """Run the workload to completion of the measurement window."""
    if pattern not in ("rand", "seq", "mixed"):
        raise ValueError(f"pattern must be rand|seq|mixed, got {pattern!r}")
    if threads < 1 or batch < 1 or queue_depth < 1:
        raise ValueError("threads, batch and queue_depth must be >= 1")
    env: Environment = cluster.env
    result = BlockWorkloadResult(system=stack.name, threads=threads)
    end_time = warmup + duration
    commands_at_start = [0]

    def thread_body(thread_id: int):
        rng = DeterministicRNG(seed).fork(f"fio{thread_id}")
        core = cluster.initiator.cpus.pick(thread_id)
        base = thread_id * THREAD_AREA_BLOCKS
        seq_cursor = 0
        window = IssueWindow(env, max(1, queue_depth // batch), complete)

        def next_lba(size: int) -> int:
            nonlocal seq_cursor
            # "mixed" picks seq/rand per op from the seeded RNG (50/50).
            mode = pattern
            if pattern == "mixed":
                mode = "seq" if rng.randint(0, 1) else "rand"
            if mode == "seq":
                lba = base + seq_cursor
                seq_cursor += size
                if seq_cursor > THREAD_AREA_BLOCKS - size:
                    seq_cursor = 0
                return lba
            slot = rng.randint(0, THREAD_AREA_BLOCKS // (size + 2) - 1)
            return base + slot * (size + 2)  # +2: never LBA-consecutive

        while env.now < end_time:
            issued_at = env.now
            events = []
            if journal_pattern:
                # §3.1: 2-block ordered write, then a 1-block ordered write
                # (journal description+metadata, then the commit record).
                lba = next_lba(3)
                e1 = yield from stack.write_ordered(
                    core, thread_id, lba=lba, nblocks=2,
                    end_of_group=True, kick=False,
                )
                e2 = yield from stack.write_ordered(
                    core, thread_id, lba=lba + 2, nblocks=1,
                    end_of_group=True, flush=durable, kick=True,
                )
                events = [e1, e2]
                op_blocks = 3
            elif batch > 1:
                # A mergeable batch of LBA-consecutive writes (Figures 3/12).
                lba = next_lba(batch * write_blocks)
                for i in range(batch):
                    last = i == batch - 1
                    done = yield from stack.write_ordered(
                        core, thread_id, lba=lba + i * write_blocks,
                        nblocks=write_blocks, end_of_group=True,
                        flush=durable and last, kick=last,
                    )
                    events.append(done)
                op_blocks = batch * write_blocks
            else:
                lba = next_lba(write_blocks)
                done = yield from stack.write_ordered(
                    core, thread_id, lba=lba, nblocks=write_blocks,
                    end_of_group=True, flush=durable,
                )
                events = [done]
                op_blocks = write_blocks

            yield from window.issue(events, issued_at, len(events), op_blocks)

    def complete(issued_at, nops, op_blocks):
        if warmup <= env.now <= end_time:
            result.ops += nops
            result.bytes_written += op_blocks * 4096
            if issued_at >= warmup:
                result.latency.record(env.now - issued_at)

    def measurement(env):
        yield env.timeout(warmup)
        cluster.start_cpu_window()
        commands_at_start[0] = cluster.driver.commands_sent
        yield env.timeout(duration)
        cluster.stop_cpu_window()

    env.process(measurement(env))
    for thread_id in range(threads):
        env.process(thread_body(thread_id))
    env.run(until=end_time)

    result.elapsed = duration
    result.initiator_busy_cores = cluster.initiator_busy_cores(duration)
    result.target_busy_cores = cluster.target_busy_cores(duration)
    result.commands_sent = cluster.driver.commands_sent - commands_at_start[0]
    return result
