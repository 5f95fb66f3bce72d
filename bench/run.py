"""Host-cost benchmark of the simulator: end-to-end and per-layer metrics.

    python3 bench/run.py [--workload W]... [--seed N]
                         [--reps R | --seconds S] [--trace 0|1] [--quick]

Each (workload, repetition) runs ``bench/worker.py`` in a fresh
single-threaded process, one at a time.  Per workload: one untimed warm-up
repetition at ``--quick`` sizes, then timed repetitions round-robin across
the workloads (``--reps`` of them, default 5, or as many as fit in
``--seconds`` per workload), then, when per-layer metrics are wanted, one
extra repetition under ``cProfile``.

End-to-end metrics are medians over the timed, untraced repetitions:
``sim_ops_per_host_s``, ``setup_s`` and ``peak_rss_mb``, with host seconds
scaled to a nominal host speed (``reference.py``).  Per-layer metrics come
from the traced repetition only.  The last line reports the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``, and both
without ``--trace``.

Every cell-run is checked: it fails when it raises, completes no ops,
records no latency samples, or its simulated output differs from the
reference -- ``--expected``, else ``bench/expected/seed-<N>.json`` for a
full-size run that does not ``--write-expected``, else the first timed
repetition.  The exit status is nonzero on any failure.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result (every repetition, quartiles,
cell outputs) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "repro"
EXPECTED_DIR = BENCH_DIR / "expected"
DEFAULT_REPS = 5
WORKER_TIMEOUT_S = 150
#: Unit of each metric, by the last dotted part of its name.
UNITS = {
    "sim_ops_per_host_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB",
    "raw_sim_ops_per_host_s": "ops/s", "raw_setup_s": "s",
    "host_us_per_op": "us/op", "host_share": "ratio",
    "calls_per_op": "calls/op", "events_per_op": "events/op",
    "commands_per_op": "commands/op", "fsyncs_per_op": "fsyncs/op",
    "useful_ratio": "ratio", "trace_overhead": "x", "error_rate": "ratio",
}

sys.path.insert(0, str(BENCH_DIR))
from layers import LAYER_NAMES, check_mapping  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """A configuration problem that stops the run before any result."""


def run_worker(workload: str, seed: int, quick: bool, trace: bool) -> Dict:
    """One repetition in a fresh process; a crash fails every cell."""
    config = dict(workload=workload, seed=seed, quick=quick, trace=trace,
                  spawned_at=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = f"worker exited {proc.returncode}: {proc.stderr.strip()}"
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {WORKER_TIMEOUT_S} s"
    return {"cells": [{"label": cell.label, "error": error}
                      for cell in WORKLOADS[workload]]}


class Checker:
    """Counts cell-runs and failures per workload against the reference
    outputs, which default to the first timed repetition's."""

    def __init__(self, expected: Optional[Dict[str, List[Dict]]]):
        self.reference = dict(expected or {})
        self.attempted: Dict[str, int] = {}
        self.errors: Dict[str, List[str]] = {}

    def check(self, workload: str, rep: Dict, warmup: bool = False) -> bool:
        """Check every cell of one repetition; True when all passed.

        The warm-up runs at quick sizes, so only its sanity is checked."""
        cells = [{"label": c["label"], "output": c.get("output")}
                 for c in rep["cells"]]
        reference = None
        if not warmup:
            reference = self.reference.setdefault(workload, cells)
        errors = self.errors.setdefault(workload, [])
        before = len(errors)
        for index, cell in enumerate(rep["cells"]):
            self.attempted[workload] = self.attempted.get(workload, 0) + 1
            want = (reference[index]
                    if reference and index < len(reference) else None)
            problem = self._problem(cell, reference is not None, want)
            if problem:
                errors.append(f"{workload} {cell['label']}: {problem}")
        return len(errors) == before

    @staticmethod
    def _problem(cell: Dict, compare: bool, want) -> Optional[str]:
        if "error" in cell:
            return cell["error"]
        output = cell["output"]
        if not output["ops"]:
            return "no ops completed"
        if not output["samples"]:
            return f"{output['ops']} ops but no latency samples"
        if compare and want != {"label": cell["label"], "output": output}:
            return f"simulated output {output} differs from reference {want}"
        return None


def load_expected(path: Path, seed: int, quick: bool) -> Dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read expected outputs {path}: {exc}") \
            from exc
    if not isinstance(data, dict) or not isinstance(
            data.get("workloads"), dict):
        raise BenchError(f"{path}: expected an object with 'workloads'")
    if data.get("seed") != seed or data.get("quick") != quick:
        raise BenchError(
            f"{path} holds outputs for seed {data.get('seed')} "
            f"quick={data.get('quick')}, not seed {seed} quick={quick}")
    return data["workloads"]


def summary(values: List[float]) -> Dict:
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def host_s(rep: Dict, key: str = "host_s") -> float:
    return sum(cell[key] for cell in rep["cells"])


def end_to_end(reps: List[Dict]) -> Dict[str, Dict]:
    """The bounded metrics, on nominal-speed seconds, plus their raw
    counterparts for reference."""
    def rate(rep, key):
        return sum(c["output"]["ops"] for c in rep["cells"]) / host_s(rep, key)

    return {
        "sim_ops_per_host_s": summary([rate(rep, "host_s") for rep in reps]),
        "setup_s": summary([rep["setup_s"] for rep in reps]),
        "peak_rss_mb": summary([rep["peak_rss_mb"] for rep in reps]),
        "raw_sim_ops_per_host_s": summary([rate(rep, "raw_host_s")
                                           for rep in reps]),
        "raw_setup_s": summary([rep["raw_setup_s"] for rep in reps]),
    }


def per_layer(traced: Dict, untraced_host_s: float) -> Dict[str, float]:
    profile = traced["profile"]
    outputs = [cell["output"] for cell in traced["cells"]]
    ops = sum(out["ops"] for out in outputs)
    metrics: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        self_s = profile["self_s"][layer]
        metrics[f"{layer}.host_us_per_op"] = self_s * 1e6 / ops
        metrics[f"{layer}.host_share"] = self_s / profile["total_s"]
        metrics[f"{layer}.calls_per_op"] = profile["calls"][layer] / ops
    metrics["sim.events_per_op"] = profile["events"] / ops
    metrics["nvmeof.commands_per_op"] = profile["commands"] / ops
    metrics["fs.fsyncs_per_op"] = sum(out["fsyncs"] or 0
                                      for out in outputs) / ops
    # Admission is the one layer that throws work away: ops completed
    # against requests shed, over the cells that admit (1.0 without any).
    admitting = [out for out in outputs if out["sheds"] is not None]
    completed = sum(out["ops"] for out in admitting)
    shed = sum(out["sheds"] for out in admitting)
    metrics["robust.useful_ratio"] = (
        completed / (completed + shed) if completed + shed else 1.0)
    metrics["trace_overhead"] = host_s(traced, "raw_host_s") / untraced_host_s
    return metrics


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    timing = parser.add_mutually_exclusive_group()
    timing.add_argument("--reps", type=int, default=None,
                        help=f"timed repetitions per workload "
                             f"(default {DEFAULT_REPS})")
    timing.add_argument("--seconds", type=float,
                        help="measure each workload for this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics on the last line; default: both")
    parser.add_argument("--quick", action="store_true",
                        help="tiny simulated durations (self-test)")
    parser.add_argument("--expected", type=Path,
                        help="reference outputs (default for full-size "
                             "runs: bench/expected/seed-<seed>.json)")
    parser.add_argument("--write-expected", type=Path,
                        help="write the reference outputs of this run here")
    parser.add_argument("--out", type=Path,
                        default=BENCH_DIR / "out" / "result.json",
                        help="where to write the full JSON result")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def measure(args, workloads: List[str], checker: Checker) -> Dict[str, List]:
    """Warm up, then timed repetitions round-robin across workloads.

    Only repetitions whose every cell passed the check feed the metrics."""
    for workload in workloads:
        checker.check(workload, run_worker(workload, args.seed, True, False),
                      warmup=True)
    reps: Dict[str, List[Dict]] = {w: [] for w in workloads}
    budget = (args.seconds or 0) * len(workloads)
    started = time.perf_counter()
    rounds = 0
    while True:
        if args.seconds is None:
            if rounds == (args.reps or DEFAULT_REPS):
                break
        elif rounds and time.perf_counter() - started >= budget:
            break
        for workload in workloads:
            rep = run_worker(workload, args.seed, args.quick, False)
            if checker.check(workload, rep):
                reps[workload].append(rep)
        rounds += 1
    return reps


def unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def print_metric(name: str, value: float, extra: str = "") -> None:
    print(f"  {name:<34} {value!r:>24} {unit(name):<11} {extra}".rstrip())


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise BenchError(f"no simulator source at {PACKAGE_DIR}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    problems = check_mapping(PACKAGE_DIR)
    if problems:
        raise BenchError("layer map is not one-to-one:\n  "
                         + "\n  ".join(problems))
    workloads = args.workload or list(WORKLOADS)
    expected_path = args.expected
    # A full-size run checks against the committed outputs for its seed,
    # unless it is the run that rewrites them.
    if expected_path is None and not args.quick and not args.write_expected:
        default = EXPECTED_DIR / f"seed-{args.seed}.json"
        expected_path = default if default.is_file() else None
    checker = Checker(load_expected(expected_path, args.seed, args.quick)
                      if expected_path else None)
    reps = measure(args, workloads, checker)

    reported = ([m["name"] for m in spec["end_to_end"]]
                if args.trace in (None, 0) else []) + (
                [m["name"] for m in spec["per_layer"]]
                if args.trace in (None, 1) else [])
    metrics: Dict[str, Dict] = {}
    result = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    for workload in workloads:
        detail = {"reps": len(reps[workload])}
        values: Dict[str, float] = {}
        if reps[workload]:
            detail["end_to_end"] = end_to_end(reps[workload])
            values.update({name: stats["median"]
                           for name, stats in detail["end_to_end"].items()})
        if reps[workload] and args.trace in (None, 1):
            traced = run_worker(workload, args.seed, args.quick, True)
            if checker.check(workload, traced):
                detail["per_layer"] = per_layer(traced, statistics.median(
                    host_s(rep, "raw_host_s") for rep in reps[workload]))
                values.update(detail["per_layer"])
        attempted = checker.attempted.get(workload, 0)
        detail["errors"] = checker.errors.get(workload, [])
        detail["error_rate"] = len(detail["errors"]) / max(attempted, 1)
        result["workloads"][workload] = detail

        print(f"{workload}: {detail['reps']} timed repetitions, "
              f"seed {args.seed}")
        for name, stats in detail.get("end_to_end", {}).items():
            print_metric(name, stats["median"],
                         f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                         f"n {stats['n']}")
        print_metric("error_rate", detail["error_rate"],
                     f"{len(detail['errors'])} of {attempted} cell-runs")
        for name, value in detail.get("per_layer", {}).items():
            print_metric(name, value)
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name in reported:
            if name in values:
                metrics[prefix + name] = {"value": values[name],
                                          "unit": unit(name)}

    attempted = sum(checker.attempted.values())
    failed = sum(len(errors) for errors in checker.errors.values())
    for errors in checker.errors.values():
        for error in errors:
            print(f"FAILED {error}", file=sys.stderr)
    correct = failed == 0 and len(metrics) == len(reported) * len(workloads)
    result.update(correct=correct, attempted=attempted, failed=failed,
                  reference={w: checker.reference.get(w) for w in workloads})
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    if args.write_expected and correct:
        args.write_expected.parent.mkdir(parents=True, exist_ok=True)
        args.write_expected.write_text(json.dumps(
            {"seed": args.seed, "quick": args.quick,
             "workloads": result["reference"]}, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
