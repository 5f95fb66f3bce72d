"""Per-figure reproduction entry points (paper §3 and §6).

Every function returns a :class:`~repro.harness.experiment.FigureResult`
whose rows are the same series the paper plots.  Default windows are sized
for the benchmark suite; raise ``duration`` (and thread lists) for
higher-fidelity runs — the shapes are stable well below one simulated
second because the simulation is deterministic.

Structure: each figure is a *sweep* — independent simulation cells plus a
reduce step — expressed with :mod:`repro.harness.sweep`:

* ``probe_*`` functions are the cells: top-level, picklable-kwarg,
  dict-returning, so they can run in worker processes and be memoized by
  the on-disk result cache;
* ``figXX_*_sweep`` builders turn figure parameters into a
  :class:`~repro.harness.sweep.Sweep` (specs + reduce);
* the public ``figXX_*`` entry points keep their original signatures and
  run the sweep on the process-wide runner — serial by default,
  parallel/cached under ``repro sweep --jobs N --cache`` or
  :func:`repro.harness.sweep.configured`.

Because cells are independent and the reduce consumes results in spec
order, a parallel run is bit-identical to a serial one
(``tests/harness/test_sweep.py`` asserts this).

:data:`FIGURES` is what a ``figure`` :class:`~repro.spec.ScenarioSpec`
names; its ``options`` must be parameters of the figure's callable.  The
saturation, overload and tenant experiments are scenarios of their own,
not figures: their builders (``saturation_sweep(spec)`` and friends)
take the spec, and :func:`repro.spec.run_scenario` runs them.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.apps.fio import run_block_workload
from repro.apps.kvstore import run_fillsync
from repro.apps.varmail import run_varmail
from repro.fs.filesystem import make_filesystem
from repro.harness.experiment import (
    FigureResult,
    build_cluster,
    build_stack,
    fio_run,
)
from repro.harness.sweep import RunSpec, Sweep, run_sweep
from repro.sim.resources import IssueWindow
from repro.sim.stats import MeasurementWindow

__all__ = [
    "fig02_motivation",
    "fig03_merging_cpu",
    "fig10_block_device",
    "fig11_write_sizes",
    "fig12_batch_sizes",
    "fig13_filesystem",
    "fig14_latency_breakdown",
    "fig15a_varmail",
    "fig15b_rocksdb",
    "recovery_table",
    "probe_fio",
    "probe_fs_fsync",
    "probe_fsync_breakdown",
    "probe_varmail",
    "probe_fillsync",
    "probe_recovery_trial",
]

ORDERED_SYSTEMS = ("linux", "horae", "rio", "orderless")


# ======================================================================
# Sweep cells (top-level, picklable, cache-addressable)
# ======================================================================


def probe_fio(system: str, layout: str, threads: int, duration: float,
              seed: int = 42, **workload_kwargs) -> Dict[str, float]:
    """One block-workload cell: fresh testbed, one run, scalar outputs."""
    run = fio_run(system, layout, threads=threads, duration=duration,
                  seed=seed, **workload_kwargs)
    return {
        "ops": run.ops,
        "bytes_written": run.bytes_written,
        "elapsed": run.elapsed,
        "iops": run.iops,
        "kiops": run.iops / 1e3,
        "mb_per_sec": run.mb_per_sec,
        "initiator_busy_cores": run.initiator_busy_cores,
        "target_busy_cores": run.target_busy_cores,
        "initiator_efficiency": run.initiator_efficiency,
        "target_efficiency": run.target_efficiency,
        "commands_sent": run.commands_sent,
    }


def probe_fs_fsync(kind: str, threads: int, duration: float, warmup: float,
                   layout: str = "optane") -> Dict[str, float]:
    """One Figure 13 cell: per-thread 4 KB append+fsync to private files."""
    cluster = build_cluster(layout)
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))
    env = cluster.env
    measured = MeasurementWindow(env, warmup, duration)

    def worker(thread_id):
        core = cluster.initiator.cpus.pick(thread_id)
        file = yield from fs.create(core, f"f{thread_id}")
        while env.now < measured.end:
            yield from fs.append(core, file, nblocks=1)
            started = env.now
            yield from fs.fsync(core, file, thread_id=thread_id)
            measured.complete(started)

    for thread_id in range(threads):
        env.process(worker(thread_id))
    env.run(until=measured.end)
    return {
        "kops": measured.samples / duration / 1e3,
        "avg_latency_us": fs.fsync_latency.mean * 1e6,
        "p99_latency_us": fs.fsync_latency.p99 * 1e6,
    }


def probe_fsync_breakdown(kind: str, layout: str = "optane",
                          iterations: int = 50) -> Dict[str, float]:
    """One Figure 14 cell: D/JM/JC dispatch timeline of append+fsync."""
    cluster = build_cluster(layout)
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))
    env = cluster.env

    def worker():
        core = cluster.initiator.cpus.pick(0)
        file = yield from fs.create(core, "probe")
        for _ in range(iterations):
            yield from fs.append(core, file, nblocks=1)
            yield from fs.fsync(core, file, thread_id=0)

    env.run_until_event(env.process(worker()))
    breakdowns = [b for j in fs.journals for b in j.breakdowns]
    count = max(1, len(breakdowns))
    return {
        "d_dispatch_us": sum(b.data_dispatched - b.started
                             for b in breakdowns) / count * 1e6,
        "jm_dispatch_us": sum(b.jm_dispatched - b.started
                              for b in breakdowns) / count * 1e6,
        "jc_dispatch_us": sum(b.jc_dispatched - b.started
                              for b in breakdowns) / count * 1e6,
        "total_us": sum(b.total for b in breakdowns) / count * 1e6,
    }


def probe_varmail(kind: str, threads: int, duration: float,
                  layout: str = "optane") -> Dict[str, float]:
    """One Figure 15(a) cell: the Varmail personality on one file system."""
    cluster = build_cluster(layout)
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))
    run = run_varmail(cluster, fs, threads=threads, duration=duration,
                      warmup=duration / 10)
    return {"kops": run.ops_per_sec / 1e3}


def probe_fillsync(kind: str, threads: int, duration: float,
                   layout: str = "optane") -> Dict[str, float]:
    """One Figure 15(b) cell: RocksDB-style fillsync on one file system."""
    cluster = build_cluster(layout)
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))
    run = run_fillsync(cluster, fs, threads=threads, duration=duration,
                       warmup=duration / 10)
    return {
        "kops": run.ops_per_sec / 1e3,
        "initiator_cpu": run.initiator_busy_cores,
    }


def probe_recovery_trial(system: str, seed: int, threads: int, layout: str,
                         run_before_crash: float) -> Dict[str, float]:
    """One §6.5 cell: ordered-write load, crash, restart, timed recovery."""
    cluster = build_cluster(layout, seed=seed)
    stack = build_stack(system, cluster, num_streams=threads)
    env = cluster.env

    def writer(thread_id):
        core = cluster.initiator.cpus.pick(thread_id)
        lba = thread_id * 16_000_000
        window = IssueWindow(env, 32)
        while True:
            done = yield from stack.write_ordered(
                core, thread_id, lba=lba, nblocks=1,
            )
            lba += 2
            yield from window.issue([done])

    for thread_id in range(threads):
        env.process(writer(thread_id))
    env.run(until=run_before_crash)
    for target in cluster.targets:
        target.crash()
    env.run(until=env.now + 200e-6)
    for target in cluster.targets:
        target.restart()

    holder = {}

    def recover():
        core = cluster.initiator.cpus.pick(0)
        report = yield from stack.recovery().run_initiator_recovery(core)
        holder["report"] = report

    env.run_until_event(env.process(recover()))
    report = holder["report"]
    return {
        "rebuild_seconds": report.rebuild_seconds,
        "data_recovery_seconds": report.data_recovery_seconds,
        "records_scanned": report.records_scanned,
        "discarded_extents": report.discarded_extents,
    }


# ======================================================================
# Figure 2 — motivation: the cost of storage order (§3.1)
# ======================================================================


def fig02_motivation_sweep(
    ssd: str = "flash",
    threads: Sequence[int] = (1, 2, 4, 8, 12),
    duration: float = 4e-3,
) -> Sweep:
    systems = ("linux", "horae", "orderless")
    cells = [(system, count) for system in systems for count in threads]
    specs = [
        RunSpec.make(
            probe_fio, label=f"fig02/{system}/t{count}",
            system=system, layout=ssd, threads=count, duration=duration,
            journal_pattern=True, queue_depth=8,
        )
        for system, count in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name=f"Figure 2({'a' if ssd == 'flash' else 'b'})",
            description=f"motivation, {ssd} SSD: 2x4KB + 1x4KB ordered writes "
            "(metadata-journaling pattern), throughput in 4KB-block IOPS",
            headers=["system", "threads", "kiops", "mb_per_sec"],
        )
        for (system, count), run in zip(cells, results):
            blocks_per_sec = run["bytes_written"] / 4096 / run["elapsed"]
            result.add(
                system=system,
                threads=count,
                kiops=blocks_per_sec / 1e3,
                mb_per_sec=run["mb_per_sec"],
            )
        return result

    return Sweep(name=f"fig02-{ssd}", specs=specs, reduce=reduce)


def fig02_motivation(
    ssd: str = "flash",
    threads: Sequence[int] = (1, 2, 4, 8, 12),
    duration: float = 4e-3,
) -> FigureResult:
    """Ordered (Linux NVMe-oF, HORAE) vs orderless; journaling pattern."""
    return run_sweep(fig02_motivation_sweep(ssd, threads, duration))


# ======================================================================
# Figure 3 — merging reduces CPU overhead (§3.2, Lesson 3)
# ======================================================================


def fig03_merging_cpu_sweep(
    batches: Sequence[int] = (1, 2, 4, 8, 16),
    ssd: str = "optane",
    duration: float = 4e-3,
) -> Sweep:
    specs = [
        RunSpec.make(
            probe_fio, label=f"fig03/b{batch}",
            system="orderless", layout=ssd, threads=1, duration=duration,
            pattern="seq", batch=batch, queue_depth=64,
        )
        for batch in batches
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Figure 3",
            description=f"merging motivation on {ssd}: orderless sequential "
            "4KB, 1 thread; CPU cost per 100K IOPS vs mergeable batch size",
            headers=[
                "batch", "kiops", "initiator_cpu", "target_cpu",
                "init_cpu_per_100kiops", "tgt_cpu_per_100kiops", "commands",
            ],
        )
        for batch, run in zip(batches, results):
            result.add(
                batch=batch,
                kiops=run["iops"] / 1e3,
                initiator_cpu=run["initiator_busy_cores"],
                target_cpu=run["target_busy_cores"],
                init_cpu_per_100kiops=run["initiator_busy_cores"]
                / max(run["iops"] / 1e5, 1e-9),
                tgt_cpu_per_100kiops=run["target_busy_cores"]
                / max(run["iops"] / 1e5, 1e-9),
                commands=run["commands_sent"],
            )
        return result

    return Sweep(name="fig03", specs=specs, reduce=reduce)


def fig03_merging_cpu(
    batches: Sequence[int] = (1, 2, 4, 8, 16),
    ssd: str = "optane",
    duration: float = 4e-3,
) -> FigureResult:
    """Orderless, 1 thread, sequential 4 KB; CPU busy-cores vs plug depth."""
    return run_sweep(fig03_merging_cpu_sweep(batches, ssd, duration))


# ======================================================================
# Figure 10 — block device performance (§6.2)
# ======================================================================

_FIG10_LAYOUTS = {
    "a": ("flash", "flash SSD"),
    "b": ("optane", "Optane SSD"),
    "c": ("4ssd-1target", "4-SSD logical volume, one target"),
    "d": ("4ssd-2targets", "4 SSDs across two target servers"),
}


def fig10_block_device_sweep(
    panel: str = "b",
    threads: Sequence[int] = (1, 2, 4, 8, 12),
    duration: float = 4e-3,
    systems: Sequence[str] = ORDERED_SYSTEMS,
) -> Sweep:
    layout, label = _FIG10_LAYOUTS[panel]
    cells = [(system, count) for system in systems for count in threads]
    specs = [
        RunSpec.make(
            probe_fio, label=f"fig10{panel}/{system}/t{count}",
            system=system, layout=layout, threads=count, duration=duration,
            pattern="rand", write_blocks=1,
        )
        for system, count in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name=f"Figure 10({panel})",
            description=f"block device, {label}: 4KB random ordered writes; "
            "CPU efficiency normalized to orderless at the same thread count",
            headers=[
                "system", "threads", "kiops",
                "init_eff_norm", "tgt_eff_norm",
                "initiator_cpu", "target_cpu",
            ],
        )
        runs = dict(zip(cells, results))
        baseline: Dict[int, Tuple[float, float]] = {}
        for count in threads:
            run = runs.get(("orderless", count))
            if run is not None:
                baseline[count] = (run["initiator_efficiency"],
                                   run["target_efficiency"])
        for system in systems:
            for count in threads:
                run = runs[(system, count)]
                base = baseline.get(count, (0.0, 0.0))
                result.add(
                    system=system,
                    threads=count,
                    kiops=run["iops"] / 1e3,
                    init_eff_norm=(
                        run["initiator_efficiency"] / base[0]
                        if base[0] else None
                    ),
                    tgt_eff_norm=(
                        run["target_efficiency"] / base[1]
                        if base[1] else None
                    ),
                    initiator_cpu=run["initiator_busy_cores"],
                    target_cpu=run["target_busy_cores"],
                )
        return result

    return Sweep(name=f"fig10{panel}", specs=specs, reduce=reduce)


def fig10_block_device(
    panel: str = "b",
    threads: Sequence[int] = (1, 2, 4, 8, 12),
    duration: float = 4e-3,
    systems: Sequence[str] = ORDERED_SYSTEMS,
) -> FigureResult:
    """4 KB random ordered writes: throughput + normalized CPU efficiency."""
    return run_sweep(fig10_block_device_sweep(panel, threads, duration,
                                              systems))


# ======================================================================
# Figure 11 — varying write sizes (§6.2.2)
# ======================================================================


def fig11_write_sizes_sweep(
    sizes_blocks: Sequence[int] = (1, 2, 4, 8, 16),
    patterns: Sequence[str] = ("seq", "rand"),
    ssd: str = "optane",
    duration: float = 4e-3,
    systems: Sequence[str] = ORDERED_SYSTEMS,
) -> Sweep:
    cells = [
        (system, pattern, size)
        for system in systems
        for pattern in patterns
        for size in sizes_blocks
    ]
    specs = [
        RunSpec.make(
            probe_fio, label=f"fig11/{system}/{pattern}/{size * 4}kb",
            system=system, layout=ssd, threads=1, duration=duration,
            pattern=pattern, write_blocks=size,
        )
        for system, pattern, size in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Figure 11",
            description=f"write-size sweep on {ssd}, 1 thread: throughput "
            "and initiator CPU (busy cores)",
            headers=["system", "pattern", "kb", "mb_per_sec", "initiator_cpu"],
        )
        for (system, pattern, size), run in zip(cells, results):
            result.add(
                system=system,
                pattern=pattern,
                kb=size * 4,
                mb_per_sec=run["mb_per_sec"],
                initiator_cpu=run["initiator_busy_cores"],
            )
        return result

    return Sweep(name="fig11", specs=specs, reduce=reduce)


def fig11_write_sizes(
    sizes_blocks: Sequence[int] = (1, 2, 4, 8, 16),
    patterns: Sequence[str] = ("seq", "rand"),
    ssd: str = "optane",
    duration: float = 4e-3,
    systems: Sequence[str] = ORDERED_SYSTEMS,
) -> FigureResult:
    """One thread, ordered writes of 4–64 KB."""
    return run_sweep(fig11_write_sizes_sweep(sizes_blocks, patterns, ssd,
                                             duration, systems))


# ======================================================================
# Figure 12 — varying batch sizes / merging (§6.2.3)
# ======================================================================


def fig12_batch_sizes_sweep(
    panel: str = "a",
    batches: Sequence[int] = (1, 2, 4, 8, 16),
    ssd: str = "optane",
    duration: float = 4e-3,
    systems: Sequence[str] = ("rio", "rio-nomerge", "horae", "orderless"),
) -> Sweep:
    threads = 1 if panel == "a" else 12
    cells = [(system, batch) for system in systems for batch in batches]
    specs = [
        RunSpec.make(
            probe_fio, label=f"fig12{panel}/{system}/b{batch}",
            system=system, layout=ssd, threads=threads, duration=duration,
            pattern="seq", batch=batch, queue_depth=64,
        )
        for system, batch in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name=f"Figure 12({panel})",
            description=f"batch-size sweep on {ssd}, {threads} thread(s): "
            "throughput + CPU efficiency normalized to orderless",
            headers=[
                "system", "batch", "kiops", "init_eff_norm", "commands",
            ],
        )
        runs = dict(zip(cells, results))
        baseline: Dict[int, float] = {}
        for batch in batches:
            run = runs.get(("orderless", batch))
            if run is not None:
                baseline[batch] = run["initiator_efficiency"]
        for system in systems:
            for batch in batches:
                run = runs[(system, batch)]
                base = baseline.get(batch, 0.0)
                result.add(
                    system=system,
                    batch=batch,
                    kiops=run["iops"] / 1e3,
                    init_eff_norm=(run["initiator_efficiency"] / base)
                    if base else None,
                    commands=run["commands_sent"],
                )
        return result

    return Sweep(name=f"fig12{panel}", specs=specs, reduce=reduce)


def fig12_batch_sizes(
    panel: str = "a",
    batches: Sequence[int] = (1, 2, 4, 8, 16),
    ssd: str = "optane",
    duration: float = 4e-3,
    systems: Sequence[str] = ("rio", "rio-nomerge", "horae", "orderless"),
) -> FigureResult:
    """Mergeable sequential 4 KB batches; 1 thread (a) or 12 threads (b)."""
    return run_sweep(fig12_batch_sizes_sweep(panel, batches, ssd, duration,
                                             systems))


# ======================================================================
# Figure 13 — file system fsync performance (§6.3)
# ======================================================================


def fig13_filesystem_sweep(
    threads: Sequence[int] = (1, 4, 8, 16, 24),
    duration: float = 6e-3,
    warmup: float = 0.5e-3,
    layout: str = "optane",
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> Sweep:
    cells = [(kind, count) for kind in kinds for count in threads]
    specs = [
        RunSpec.make(
            probe_fs_fsync, label=f"fig13/{kind}/t{count}",
            kind=kind, threads=count, duration=duration, warmup=warmup,
            layout=layout,
        )
        for kind, count in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Figure 13",
            description="file systems on a remote Optane SSD: 4KB "
            "append+fsync; throughput, average and p99 fsync latency",
            headers=["fs", "threads", "kops", "avg_latency_us",
                     "p99_latency_us"],
        )
        for (kind, count), run in zip(cells, results):
            result.add(fs=kind, threads=count, **run)
        return result

    return Sweep(name="fig13", specs=specs, reduce=reduce)


def fig13_filesystem(
    threads: Sequence[int] = (1, 4, 8, 16, 24),
    duration: float = 6e-3,
    warmup: float = 0.5e-3,
    layout: str = "optane",
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> FigureResult:
    """Per-thread 4 KB append + fsync to private files on a remote 905P."""
    return run_sweep(fig13_filesystem_sweep(threads, duration, warmup,
                                            layout, kinds))


# ======================================================================
# Figure 14 — fsync latency breakdown (§6.3)
# ======================================================================


def fig14_latency_breakdown_sweep(
    layout: str = "optane",
    iterations: int = 50,
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> Sweep:
    specs = [
        RunSpec.make(
            probe_fsync_breakdown, label=f"fig14/{kind}",
            kind=kind, layout=layout, iterations=iterations,
        )
        for kind in kinds
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Figure 14",
            description="fsync internal latency breakdown (microseconds): "
            "time until D/JM/JC dispatched and total completion",
            headers=["fs", "d_dispatch_us", "jm_dispatch_us",
                     "jc_dispatch_us", "total_us"],
        )
        for kind, run in zip(kinds, results):
            result.add(fs=kind, **run)
        return result

    return Sweep(name="fig14", specs=specs, reduce=reduce)


def fig14_latency_breakdown(
    layout: str = "optane",
    iterations: int = 50,
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> FigureResult:
    """Dispatch timeline of one append+fsync: D, JM, JC phases."""
    return run_sweep(fig14_latency_breakdown_sweep(layout, iterations, kinds))


# ======================================================================
# Figure 15 — applications (§6.4)
# ======================================================================


def fig15a_varmail_sweep(
    threads: Sequence[int] = (1, 4, 8, 16, 24),
    duration: float = 6e-3,
    layout: str = "optane",
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> Sweep:
    cells = [(kind, count) for kind in kinds for count in threads]
    specs = [
        RunSpec.make(
            probe_varmail, label=f"fig15a/{kind}/t{count}",
            kind=kind, threads=count, duration=duration, layout=layout,
        )
        for kind, count in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Figure 15(a)",
            description="Varmail (Filebench personality) on a remote "
            "Optane SSD",
            headers=["fs", "threads", "kops"],
        )
        for (kind, count), run in zip(cells, results):
            result.add(fs=kind, threads=count, kops=run["kops"])
        return result

    return Sweep(name="fig15a", specs=specs, reduce=reduce)


def fig15a_varmail(
    threads: Sequence[int] = (1, 4, 8, 16, 24),
    duration: float = 6e-3,
    layout: str = "optane",
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> FigureResult:
    return run_sweep(fig15a_varmail_sweep(threads, duration, layout, kinds))


def fig15b_rocksdb_sweep(
    threads: Sequence[int] = (1, 6, 12, 24, 36),
    duration: float = 6e-3,
    layout: str = "optane",
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> Sweep:
    cells = [(kind, count) for kind in kinds for count in threads]
    specs = [
        RunSpec.make(
            probe_fillsync, label=f"fig15b/{kind}/t{count}",
            kind=kind, threads=count, duration=duration, layout=layout,
        )
        for kind, count in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Figure 15(b)",
            description="RocksDB-style fillsync (16B keys, 1KB values) on a "
            "remote Optane SSD",
            headers=["fs", "threads", "kops", "initiator_cpu"],
        )
        for (kind, count), run in zip(cells, results):
            result.add(fs=kind, threads=count, **run)
        return result

    return Sweep(name="fig15b", specs=specs, reduce=reduce)


def fig15b_rocksdb(
    threads: Sequence[int] = (1, 6, 12, 24, 36),
    duration: float = 6e-3,
    layout: str = "optane",
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> FigureResult:
    return run_sweep(fig15b_rocksdb_sweep(threads, duration, layout, kinds))


# ======================================================================
# §6.5 — recovery time
# ======================================================================


def recovery_table_sweep(
    trials: int = 5,
    threads: int = 36,
    layout: str = "2optane-2targets",
    run_before_crash: float = 2e-3,
    seed: int = 42,
) -> Sweep:
    systems = ("rio", "horae")
    cells = [(system, trial) for system in systems for trial in range(trials)]
    specs = [
        RunSpec.make(
            probe_recovery_trial, label=f"recovery/{system}/trial{trial}",
            system=system, seed=seed + trial, threads=threads, layout=layout,
            run_before_crash=run_before_crash,
        )
        for system, trial in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Recovery (§6.5)",
            description="crash recovery time, averaged over trials",
            headers=["system", "rebuild_ms", "data_recovery_ms", "records",
                     "discarded"],
        )
        by_system = dict(zip(cells, results))

        def avg(xs):
            return sum(xs) / len(xs) if xs else 0.0

        for system in systems:
            reports = [by_system[(system, trial)] for trial in range(trials)]
            result.add(
                system=system,
                rebuild_ms=avg([r["rebuild_seconds"] for r in reports]) * 1e3,
                data_recovery_ms=avg(
                    [r["data_recovery_seconds"] for r in reports]
                ) * 1e3,
                records=avg([r["records_scanned"] for r in reports]),
                discarded=avg([r["discarded_extents"] for r in reports]),
            )
        result.notes.append(
            "HORAE's reload moves 16 B metadata records (vs Rio's 32 B "
            "attributes); both data-recovery phases run discards "
            "concurrently per SSD/server, and HORAE additionally pays "
            "validation reads."
        )
        return result

    return Sweep(name="recovery", specs=specs, reduce=reduce)


def recovery_table(
    trials: int = 5,
    threads: int = 36,
    layout: str = "2optane-2targets",
    run_before_crash: float = 2e-3,
    seed: int = 42,
) -> FigureResult:
    """Worst-case recovery: continuous ordered writes, then a crash.

    Reproduces §6.5: Rio reconstructs the global order from PMR ordering
    attributes and discards out-of-order data.  The HORAE row models its
    smaller ordering-metadata reload.
    """
    return run_sweep(recovery_table_sweep(trials, threads, layout,
                                          run_before_crash, seed))


from repro.harness import extensions  # noqa: E402

#: Every figure ``repro run``/``sweep`` and the ``figure`` scenario know:
#: name -> (callable, description, accepts-duration).
FIGURES: Dict[str, tuple] = {
    "fig2a": (partial(fig02_motivation, ssd="flash"),
              "motivation, flash SSD (§3.1)", True),
    "fig2b": (partial(fig02_motivation, ssd="optane"),
              "motivation, Optane SSD (§3.1)", True),
    "fig3": (fig03_merging_cpu, "merging cuts CPU overhead (§3.2)", True),
    "fig10a": (partial(fig10_block_device, panel="a"),
               "block device, flash (§6.2)", True),
    "fig10b": (partial(fig10_block_device, panel="b"),
               "block device, Optane (§6.2)", True),
    "fig10c": (partial(fig10_block_device, panel="c"),
               "block device, 4-SSD volume (§6.2)", True),
    "fig10d": (partial(fig10_block_device, panel="d"),
               "block device, two targets (§6.2)", True),
    "fig11": (fig11_write_sizes, "write-size sweep (§6.2.2)", True),
    "fig12a": (partial(fig12_batch_sizes, panel="a"),
               "batch sizes, 1 thread (§6.2.3)", True),
    "fig12b": (partial(fig12_batch_sizes, panel="b"),
               "batch sizes, 12 threads (§6.2.3)", True),
    "fig13": (fig13_filesystem, "file system fsync (§6.3)", True),
    "fig14": (fig14_latency_breakdown,
              "fsync latency breakdown (§6.3)", False),
    "fig15a": (fig15a_varmail, "Varmail (§6.4)", True),
    "fig15b": (fig15b_rocksdb, "RocksDB fillsync (§6.4)", True),
    "recovery": (recovery_table, "recovery time (§6.5)", False),
    "ablation-affinity": (extensions.ablation_qp_affinity,
                          "Principle 2 ablation", True),
    "ablation-attrs": (extensions.ablation_attribute_persistence,
                       "attribute-persistence overhead", True),
    "sensitivity-ssd": (extensions.sensitivity_faster_ssd,
                        "faster-SSD sensitivity (§3.1)", True),
    "tcp": (extensions.transport_comparison,
            "NVMe/TCP extension (§4.5)", True),
    "multi-initiator": (extensions.multi_initiator_scaling,
                        "multi-initiator extension (§4.9)", True),
    "barrier": (extensions.barrier_comparison,
                "BarrierFS-style interface comparison (§2.2)", True),
    "oltp": (extensions.oltp_comparison,
             "MySQL-style OLTP on the three file systems", True),
}
