"""Run one repetition of one workload in a fresh process.

Usage: ``python3 bench/worker.py '<json config>'`` where the config holds
``workload``, ``seed``, ``quick``, ``trace`` and ``spawned_at`` (the
parent's ``time.perf_counter()`` just before it started this process;
on Linux that clock is system-wide CLOCK_MONOTONIC).

Prints one JSON line: ``raw_setup_s`` (process start, through the
``repro`` imports and the first testbed, to the first simulation call),
``peak_rss_mb``, and per cell ``raw_host_s``, the seconds of its
simulation call, and its canonical simulated output, or the error it
raised.  Untraced, ``setup_s`` and each cell's ``host_s`` give the same
intervals scaled to nominal host speed (see ``reference.py``).  With
``trace`` the cells run under ``cProfile`` and a per-layer breakdown is
added.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "repro"


def _us(seconds):
    return None if seconds is None else seconds * 1e6


def _latency(recorder):
    return {
        "samples": recorder.count,
        "p50_us": _us(recorder.p50),
        "p99_us": _us(recorder.p99),
        "p999_us": _us(recorder.p999),
    }


def _fio(api, seed, system, threads, queue_depth, warmup, duration):
    cluster = api.build_cluster("optane", seed=seed)
    stack = api.build_stack(system, cluster, num_streams=threads)

    def simulate():
        return api.run_block_workload(
            cluster, stack, threads=threads, queue_depth=queue_depth,
            warmup=warmup, duration=duration, seed=seed)

    def output(run):
        return {
            "ops": run.ops, **_latency(run.latency),
            "commands": run.commands_sent, "sheds": None, "fsyncs": None,
            "initiator_busy_cores": run.initiator_busy_cores,
            "target_busy_cores": run.target_busy_cores,
        }

    return simulate, output


def _varmail(api, seed, fs, journals, threads, warmup, duration):
    cluster = api.build_cluster("optane", seed=seed)
    filesystem = api.make_filesystem(fs, cluster, num_journals=journals)

    def simulate():
        return api.run_varmail(cluster, filesystem, threads=threads,
                               warmup=warmup, duration=duration, seed=seed)

    def output(run):
        # Latency is fsync latency, the operation Varmail waits on.
        return {
            "ops": run.ops, **_latency(filesystem.fsync_latency),
            "commands": cluster.driver.commands_sent, "sheds": None,
            "fsyncs": run.fsyncs,
            "initiator_busy_cores": None, "target_busy_cores": None,
        }

    return simulate, output


def _window_ops(row, duration):
    return round(row["achieved_kiops"] * 1e3 * duration)


def _saturate(api, seed, duration, **params):
    # The probe builds its own testbed, so construction is timed with it.
    def simulate():
        return api.probe_saturation(duration=duration, seed=seed, **params)

    def output(row):
        return {
            "ops": _window_ops(row, duration), "samples": int(row["samples"]),
            "p50_us": row["p50_us"], "p99_us": row["p99_us"],
            "p999_us": row["p999_us"],
            "commands": None, "sheds": None, "fsyncs": None,
            "initiator_busy_cores": row["initiator_busy_cores"],
            "target_busy_cores": row["target_busy_cores"],
        }

    return simulate, output


def _storm(api, seed, duration, **params):
    def simulate():
        return api.probe_noisy_neighbor(duration=duration, seed=seed, **params)

    def output(row):
        # Percentiles are the gold tenant's, whose SLO the storm gates.
        return {
            "ops": _window_ops(row, duration),
            "samples": int(row["gold_count"] + row["bronze_count"]),
            "p50_us": row["gold_p50_us"], "p99_us": row["gold_p99_us"],
            "p999_us": row["gold_p999_us"],
            "commands": None, "sheds": int(row["sheds"]), "fsyncs": None,
            "initiator_busy_cores": None, "target_busy_cores": None,
        }

    return simulate, output


KINDS = {"fio": _fio, "varmail": _varmail, "saturate": _saturate,
         "storm": _storm}


def _load_api():
    from types import SimpleNamespace

    sys.path.insert(0, str(PACKAGE_DIR.parent))
    import repro

    if Path(repro.__file__).resolve().parent != PACKAGE_DIR:
        raise ImportError(f"imported repro from {repro.__file__}, "
                          f"not from {PACKAGE_DIR}")
    from repro.apps.fio import run_block_workload
    from repro.apps.varmail import run_varmail
    from repro.fs.filesystem import make_filesystem
    from repro.harness.experiment import build_cluster, build_stack
    from repro.harness.saturate import probe_saturation
    from repro.harness.tenants import probe_noisy_neighbor

    return SimpleNamespace(
        build_cluster=build_cluster, build_stack=build_stack,
        run_block_workload=run_block_workload,
        make_filesystem=make_filesystem, run_varmail=run_varmail,
        probe_saturation=probe_saturation,
        probe_noisy_neighbor=probe_noisy_neighbor,
    )


def run(config):
    import resource
    import traceback

    from reference import HostSpeed
    from workloads import WORKLOADS

    # Untraced repetitions sample host speed; the profiler would both slow
    # and record the bursts, so traced ones report raw seconds only.
    speed = None
    if not config["trace"]:
        began = time.perf_counter()
        speed = HostSpeed()
        speed.start()
        sampler_setup_s = time.perf_counter() - began
    api = _load_api()
    profiler = None
    if config["trace"]:
        import cProfile

        profiler = cProfile.Profile()
    report = {"cells": []}
    for cell in WORKLOADS[config["workload"]]:
        entry = {"label": cell.label}
        try:
            if profiler:
                profiler.enable()
            simulate, output = KINDS[cell.kind](
                api, config["seed"], **cell.arguments(config["quick"]))
            started = time.perf_counter()
            result = simulate()
            ended = time.perf_counter()
            if profiler:
                profiler.disable()
            if "raw_setup_s" not in report:
                report["raw_setup_s"] = started - config["spawned_at"]
                if speed:
                    report["raw_setup_s"], report["setup_s"] = speed.measure(
                        config["spawned_at"], started, sampler_setup_s)
            entry["raw_host_s"] = ended - started
            if speed:
                entry["raw_host_s"], entry["host_s"] = speed.measure(
                    started, ended)
            entry["output"] = output(result)
        except Exception:  # reported per cell; the other cells still run
            if profiler:
                profiler.disable()
            entry["error"] = traceback.format_exc()
        report["cells"].append(entry)
    if speed:
        speed.stop()
        report["speed_samples"] = len(speed.samples)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if profiler:
        import pstats

        from layers import attribute

        report["profile"] = attribute(pstats.Stats(profiler).stats,
                                      PACKAGE_DIR)
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
