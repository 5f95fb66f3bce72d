"""Command-line interface: regenerate any reproduced figure or table.

Usage::

    python -m repro list
    python -m repro run fig10b
    python -m repro run fig13 --duration 0.01
    python -m repro run all
    python -m repro run examples/specs/combined_check.json --jobs 2
    python -m repro spec validate examples/specs/*.json
    python -m repro spec diff a.json b.json
    python -m repro sweep all --jobs 4
    python -m repro sweep fig10b --jobs 2 --no-cache
    python -m repro claims --jobs 4
    python -m repro qualify --profile smoke --jobs 4
    python -m repro qualify --profile full --out-dir results/qualify
    python -m repro trace --fs riofs --out rio.trace.json
    python -m repro metrics --fs riofs --format csv

``--duration`` is *virtual* seconds of measured window per configuration;
the simulation is deterministic, so longer windows change results by
little but take proportionally longer to run.

``sweep`` is ``run`` on the parallel sweep runner: the figure's
independent simulation cells fan out across ``--jobs`` worker processes,
and (unless ``--no-cache``) results are memoized in an on-disk
content-addressed cache (``results/.cache/`` by default, keyed by spec
digest + code version) so repeated invocations only pay for what changed.
See ``docs/running_experiments.md``.

``run`` also accepts a **ScenarioSpec** JSON path instead of a figure
name (any argument containing a path separator or ending in ``.json``):
the spec is validated, compiled onto the sweep runner and executed with
output bit-identical to the equivalent kwargs invocation — including
legacy ``WorkloadSpec``/fault-plan/reproducer JSON, which is upgraded to
spec v1 on load.  ``spec`` validates, canonicalizes, digests and diffs
spec files without running anything.  See ``docs/scenario_spec.md``.

``trace`` runs the instrumented fsync probe and exports the request
lifecycle spans as a Chrome ``chrome://tracing`` / Perfetto JSON file;
``metrics`` exports the metrics registry snapshot as CSV or JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, Optional

from repro.harness import figures
from repro.harness import extensions

__all__ = ["main", "FIGURES"]

#: name -> (callable, description, accepts-duration)
FIGURES: Dict[str, tuple] = {
    "fig2a": (lambda **kw: figures.fig02_motivation(ssd="flash", **kw),
              "motivation, flash SSD (§3.1)", True),
    "fig2b": (lambda **kw: figures.fig02_motivation(ssd="optane", **kw),
              "motivation, Optane SSD (§3.1)", True),
    "fig3": (figures.fig03_merging_cpu,
             "merging cuts CPU overhead (§3.2)", True),
    "fig10a": (lambda **kw: figures.fig10_block_device(panel="a", **kw),
               "block device, flash (§6.2)", True),
    "fig10b": (lambda **kw: figures.fig10_block_device(panel="b", **kw),
               "block device, Optane (§6.2)", True),
    "fig10c": (lambda **kw: figures.fig10_block_device(panel="c", **kw),
               "block device, 4-SSD volume (§6.2)", True),
    "fig10d": (lambda **kw: figures.fig10_block_device(panel="d", **kw),
               "block device, two targets (§6.2)", True),
    "fig11": (figures.fig11_write_sizes, "write-size sweep (§6.2.2)", True),
    "fig12a": (lambda **kw: figures.fig12_batch_sizes(panel="a", **kw),
               "batch sizes, 1 thread (§6.2.3)", True),
    "fig12b": (lambda **kw: figures.fig12_batch_sizes(panel="b", **kw),
               "batch sizes, 12 threads (§6.2.3)", True),
    "fig13": (figures.fig13_filesystem, "file system fsync (§6.3)", True),
    "fig14": (lambda **kw: figures.fig14_latency_breakdown(),
              "fsync latency breakdown (§6.3)", False),
    "fig15a": (figures.fig15a_varmail, "Varmail (§6.4)", True),
    "fig15b": (figures.fig15b_rocksdb, "RocksDB fillsync (§6.4)", True),
    "recovery": (lambda **kw: figures.recovery_table(),
                 "recovery time (§6.5)", False),
    "ablation-affinity": (lambda **kw: extensions.ablation_qp_affinity(**kw),
                          "Principle 2 ablation", True),
    "ablation-attrs": (
        lambda **kw: extensions.ablation_attribute_persistence(**kw),
        "attribute-persistence overhead", True),
    "sensitivity-ssd": (lambda **kw: extensions.sensitivity_faster_ssd(**kw),
                        "faster-SSD sensitivity (§3.1)", True),
    "tcp": (lambda **kw: extensions.transport_comparison(**kw),
            "NVMe/TCP extension (§4.5)", True),
    "multi-initiator": (lambda **kw: extensions.multi_initiator_scaling(**kw),
                        "multi-initiator extension (§4.9)", True),
    "barrier": (lambda **kw: extensions.barrier_comparison(**kw),
                "BarrierFS-style interface comparison (§2.2)", True),
    "oltp": (lambda **kw: extensions.oltp_comparison(**kw),
             "MySQL-style OLTP on the three file systems", True),
    "saturate": (lambda **kw: _saturation_curves(**kw),
                 "scale-out saturation: throughput-latency curves", True),
    "overload": (lambda **kw: _overload_curves(**kw),
                 "robustness plane: metastable-overload sweep", True),
    "overload-gray": (lambda **kw: _gray_result(**kw),
                      "robustness plane: gray (fail-slow) target scenario",
                      True),
}


def _saturation_curves(**kwargs):
    from repro.harness.saturate import saturation_curves

    return saturation_curves(**kwargs)


def _overload_curves(**kwargs):
    from repro.harness.overload import overload_curves

    return overload_curves(**kwargs)


def _gray_result(**kwargs):
    from repro.harness.overload import gray_result

    return gray_result(**kwargs)


def _is_spec_path(name: str) -> bool:
    """``repro run`` disambiguation: figure names never contain a path
    separator or a ``.json`` suffix, spec files always do."""
    import os

    return (os.sep in name or "/" in name or name.endswith(".json"))


def _cmd_run_spec(args) -> int:
    """``repro run <spec.json>``: validate, compile, execute, report."""
    from repro.harness.cache import ResultCache
    from repro.spec import SpecError, load_spec_file, run_scenario

    if args.duration is not None:
        print("--duration applies to figure names only; a ScenarioSpec "
              "carries its own durations (edit the spec instead)",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec_file(args.figure)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
    cache = ResultCache(root=args.cache_dir) if args.cache else None
    started = time.time()
    outcome = run_scenario(
        spec, jobs=args.jobs, cache=cache,
        reproducer_dir=(args.reproducers if spec.scenario == "check"
                        else None),
    )
    result = outcome.result
    if args.format == "markdown" and hasattr(result, "render_markdown"):
        print(result.render_markdown())
    else:
        print(outcome.render())
    if not outcome.ok:
        if args.reproducers and spec.scenario != "check":
            for path in outcome.dump_reproducers(args.reproducers):
                print(f"reproducer spec -> {path}")
        elif not args.reproducers:
            for repro_spec in outcome.reproducers:
                print(f"reproducer spec: {repro_spec.canonical_json()}")
    if spec.scenario == "check":
        for path in getattr(result, "dumped", []):
            print(f"reproducer -> {path}")
    line = f"[run {spec.scenario} {spec.digest()[:12]}: "
    if outcome.cached:
        line += "scenario cache hit"
    else:
        line += outcome.stats.summary()
    line += f"; {time.time() - started:.1f}s wall"
    if cache is not None:
        line += (f"; cache {cache.root}/{cache.version}: "
                 f"{cache.hits} hit(s)]")
    else:
        line += "; cache disabled]"
    print(line)
    return 0 if outcome.ok else 1


def _cmd_spec(args) -> int:
    """``repro spec validate|canon|digest|diff`` — no simulation runs."""
    from repro.spec import SpecError, diff_specs, load_spec_file

    if args.action == "diff":
        if len(args.files) != 2:
            print("spec diff takes exactly two files", file=sys.stderr)
            return 2
        try:
            a, b = (load_spec_file(path) for path in args.files)
        except SpecError as exc:
            print(f"invalid spec: {exc}", file=sys.stderr)
            return 2
        differences = diff_specs(a, b)
        if not differences:
            print("specs are canonically identical "
                  f"(digest {a.digest()[:12]})")
            return 0
        for path, left, right in differences:
            print(f"{path}: {left!r} != {right!r}")
        return 1
    status = 0
    for path in args.files:
        try:
            spec = load_spec_file(path)
        except SpecError as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            status = 1
            continue
        if args.action == "validate":
            print(f"{path}: OK scenario={spec.scenario} "
                  f"digest={spec.digest()[:12]}")
        elif args.action == "canon":
            print(spec.canonical_json())
        elif args.action == "digest":
            prefix = f"{path}: " if len(args.files) > 1 else ""
            print(f"{prefix}{spec.digest()}")
    return status


def _run_one(name: str, duration: Optional[float],
             fmt: str = "table") -> None:
    fn, _description, takes_duration = FIGURES[name]
    kwargs = {}
    if duration is not None and takes_duration:
        kwargs["duration"] = duration
    started = time.time()
    result = fn(**kwargs)
    if fmt == "markdown":
        print(result.render_markdown())
    else:
        print(result.render())
    print(f"[{name}: {time.time() - started:.1f}s wall]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the Rio (EuroSys '23) evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available figures")
    claims = sub.add_parser(
        "claims", help="grade every headline claim (reproduction scorecard)"
    )
    claims.add_argument("--duration", type=float, default=2.5e-3,
                        help="virtual seconds per configuration")
    claims.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the figure sweeps")
    claims.add_argument("--cache", action="store_true",
                        help="memoize sweep cells in the on-disk cache")
    claims.add_argument("--cache-dir", default=None,
                        help="cache root (default: results/.cache)")
    run = sub.add_parser(
        "run", help="run one figure (or 'all'), or a ScenarioSpec JSON file"
    )
    run.add_argument("figure",
                     help="figure name from 'list', 'all', or a path to a "
                     "ScenarioSpec JSON file (legacy WorkloadSpec/fault-plan"
                     "/reproducer JSON is upgraded on load)")
    run.add_argument("--duration", type=float, default=None,
                     help="virtual seconds per configuration (figure mode "
                     "only: a spec carries its own durations)")
    run.add_argument("--format", choices=("table", "markdown"),
                     default="table", help="output format")
    run.add_argument("--jobs", type=int, default=1,
                     help="spec mode: worker processes for the sweep cells")
    run_cache = run.add_mutually_exclusive_group()
    run_cache.add_argument("--cache", dest="cache", action="store_true",
                           default=False,
                           help="spec mode: memoize cells AND the reduced "
                           "scenario outcome in the on-disk cache")
    run_cache.add_argument("--no-cache", dest="cache", action="store_false",
                           help="always recompute (default)")
    run.add_argument("--cache-dir", default=None,
                     help="cache root (default: results/.cache, or "
                     "$REPRO_CACHE_DIR)")
    run.add_argument("--reproducers", default=None, metavar="DIR",
                     help="spec mode: dump a minimal replayable spec per "
                     "failure into DIR (otherwise failures print their "
                     "reproducer specs inline)")
    spc = sub.add_parser(
        "spec",
        help="validate / canonicalize / digest / diff ScenarioSpec files "
        "without running them",
    )
    spc.add_argument("action",
                     choices=("validate", "canon", "digest", "diff"),
                     help="validate: load+check each file; canon: print "
                     "the canonical JSON; digest: print the stable cache "
                     "digest; diff: field-level differences of two specs")
    spc.add_argument("files", nargs="+", metavar="FILE",
                     help="spec JSON file(s); legacy WorkloadSpec/"
                     "fault-plan/reproducer JSON is upgraded on load")
    swp = sub.add_parser(
        "sweep",
        help="run figures on the parallel sweep runner (workers + cache)",
    )
    swp.add_argument("figure", help="figure name from 'list', or 'all'")
    swp.add_argument("--jobs", type=int, default=1,
                     help="worker processes (runs are CPU-bound; match "
                     "host cores)")
    cache_group = swp.add_mutually_exclusive_group()
    cache_group.add_argument("--cache", dest="cache", action="store_true",
                             default=True,
                             help="memoize results on disk (default)")
    cache_group.add_argument("--no-cache", dest="cache",
                             action="store_false",
                             help="always recompute; touch no cache files")
    swp.add_argument("--cache-dir", default=None,
                     help="cache root (default: results/.cache, or "
                     "$REPRO_CACHE_DIR)")
    swp.add_argument("--clear-cache", action="store_true",
                     help="drop this code version's cached results first")
    swp.add_argument("--duration", type=float, default=None,
                     help="virtual seconds per configuration")
    swp.add_argument("--format", choices=("table", "markdown"),
                     default="table", help="output format")
    chk = sub.add_parser(
        "check",
        help="crash-consistency check: enumerate crash points, replay "
        "recovery, validate ordering invariants",
    )
    chk.add_argument("--systems", default=None,
                     help="comma-separated systems (default: all four)")
    chk.add_argument("--layouts", default=None,
                     help="comma-separated layouts (default: per-system "
                     "matrix; see repro.check.DEFAULT_MATRIX)")
    chk.add_argument("--seeds", default="0,1,2",
                     help="comma-separated workload seeds")
    chk.add_argument("--streams", type=int, default=2)
    chk.add_argument("--groups", type=int, default=4,
                     help="ordered groups per stream")
    chk.add_argument("--writes", type=int, default=2,
                     help="writes per group")
    chk.add_argument("--depth", type=int, default=2,
                     help="submission depth per stream")
    chk.add_argument("--flush-every", type=int, default=2,
                     help="fsync every Nth group (0: never)")
    chk.add_argument("--max-points", type=int, default=20,
                     help="crash points sampled per cell (0: all)")
    chk.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the cell sweep")
    chk_cache = chk.add_mutually_exclusive_group()
    chk_cache.add_argument("--cache", dest="cache", action="store_true",
                           default=False,
                           help="memoize green cells in the result cache")
    chk_cache.add_argument("--no-cache", dest="cache", action="store_false",
                           help="always recompute (default)")
    chk.add_argument("--cache-dir", default=None,
                     help="cache root (default: results/.cache)")
    chk.add_argument("--no-shrink", dest="shrink", action="store_false",
                     default=True,
                     help="skip shrinking failing specs")
    chk.add_argument("--reproducers", default=None, metavar="DIR",
                     help="dump a replayable JSON reproducer per failing "
                     "cell into DIR")
    chk.add_argument("--replay", default=None, metavar="FILE",
                     help="re-run a dumped reproducer instead of the matrix")
    sat = sub.add_parser(
        "saturate",
        help="offered-load saturation sweep over the sharded "
        "multi-initiator cluster (throughput-latency + busy-cores curves)",
    )
    sat.add_argument("--systems", default=None,
                     help="comma-separated systems (default: "
                     "linux,horae,rio,barrier)")
    sat.add_argument("--loads", default=None,
                     help="comma-separated offered loads in kIOPS, "
                     "ascending (default: 25,50,100,200,400,800)")
    sat.add_argument("--layout", default="optane",
                     help="hardware layout (see harness LAYOUTS; must be "
                     "single-SSD when sweeping barrier)")
    sat.add_argument("--initiators", type=int, default=2,
                     help="initiator hosts fanning into the targets")
    sat.add_argument("--tenants", type=int, default=4,
                     help="load-generator tenants (one stream each)")
    sat.add_argument("--duration", type=float, default=2e-3,
                     help="virtual seconds of measured window per cell")
    sat.add_argument("--steering", default="pin",
                     choices=("pin", "round-robin", "least-loaded",
                              "flow-hash"),
                     help="target/initiator IRQ+completion steering policy")
    sat.add_argument("--seed", type=int, default=42)
    sat.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the load-grid cells")
    sat_cache = sat.add_mutually_exclusive_group()
    sat_cache.add_argument("--cache", dest="cache", action="store_true",
                           default=True,
                           help="memoize results on disk (default)")
    sat_cache.add_argument("--no-cache", dest="cache", action="store_false",
                           help="always recompute; touch no cache files")
    sat.add_argument("--cache-dir", default=None,
                     help="cache root (default: results/.cache, or "
                     "$REPRO_CACHE_DIR)")
    sat.add_argument("--format", choices=("table", "markdown"),
                     default="table", help="output format")
    ovl = sub.add_parser(
        "overload",
        help="robustness-plane overload sweep (metastable scenario) or "
        "the gray fail-slow target scenario",
    )
    ovl.add_argument("--scenario", default="metastable",
                     choices=("metastable", "gray"),
                     help="metastable: offered-load grid past the knee, "
                     "protection off vs full; gray: degrade one target "
                     "mid-run and measure isolation")
    ovl.add_argument("--systems", default="rio",
                     help="comma-separated systems (metastable scenario)")
    ovl.add_argument("--protection", default=None,
                     help="comma-separated protection profiles "
                     "(default: off,full)")
    ovl.add_argument("--loads", default=None,
                     help="comma-separated offered loads in kIOPS "
                     "(default: 400,1100,2200)")
    ovl.add_argument("--layout", default=None,
                     help="hardware layout (default: optane for "
                     "metastable, 2optane-2targets for gray)")
    ovl.add_argument("--initiators", type=int, default=2,
                     help="initiator hosts (metastable scenario)")
    ovl.add_argument("--tenants", type=int, default=4,
                     help="load-generator tenants (one stream each)")
    ovl.add_argument("--duration", type=float, default=None,
                     help="virtual seconds of measured window per cell")
    ovl.add_argument("--degrade-factor", type=float, default=8.0,
                     help="gray scenario: mid-run service inflation of "
                     "target 0")
    ovl.add_argument("--seed", type=int, default=42)
    ovl.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the grid cells")
    ovl_cache = ovl.add_mutually_exclusive_group()
    ovl_cache.add_argument("--cache", dest="cache", action="store_true",
                           default=True,
                           help="memoize results on disk (default)")
    ovl_cache.add_argument("--no-cache", dest="cache", action="store_false",
                           help="always recompute; touch no cache files")
    ovl.add_argument("--cache-dir", default=None,
                     help="cache root (default: results/.cache, or "
                     "$REPRO_CACHE_DIR)")
    ovl.add_argument("--format", choices=("table", "markdown"),
                     default="table", help="output format")
    tnt = sub.add_parser(
        "tenants",
        help="multi-tenant traffic plane: per-class tail-latency knee "
        "curves over a Zipf/diurnal tenant mix with optional QoS "
        "admission, or the seeded noisy-neighbor storm (--storm)",
    )
    tnt.add_argument("--storm", action="store_true",
                     help="run the noisy-neighbor acceptance storm (QoS "
                     "on vs off per system: the aggressor is paced/shed "
                     "and the gold SLO must hold) instead of the curves")
    tnt.add_argument("--systems", default=None,
                     help="comma-separated systems (default: "
                     "linux,horae,rio)")
    tnt.add_argument("--loads", default=None,
                     help="comma-separated offered loads in kIOPS, "
                     "ascending (default: 25,50,100,200,400,800)")
    tnt.add_argument("--layout", default="optane",
                     help="hardware layout (see harness LAYOUTS)")
    tnt.add_argument("--initiators", type=int, default=2,
                     help="initiator hosts fanning into the targets")
    tnt.add_argument("--streams", type=int, default=4,
                     help="generator lanes (ordered streams)")
    tnt.add_argument("--tenants", dest="num_tenants", type=int, default=64,
                     help="tenant population mapped onto the streams")
    tnt.add_argument("--zipf-alpha", type=float, default=1.1,
                     help="Zipf skew of tenant selection (0: uniform)")
    tnt.add_argument("--diurnal-amplitude", type=float, default=0.0,
                     help="diurnal rate modulation depth in [0, 1)")
    tnt.add_argument("--diurnal-period", type=float, default=1e-3,
                     help="diurnal period in virtual seconds")
    tnt.add_argument("--qos", action="store_true",
                     help="arm per-tenant token buckets + weighted-fair "
                     "admission on every target")
    tnt.add_argument("--quantum", type=float, default=8.0,
                     help="weighted-fair deficit quantum (virtual work)")
    tnt.add_argument("--duration", type=float, default=None,
                     help="virtual seconds of measured window per cell "
                     "(default: 2e-3 curves, 3e-3 storm)")
    tnt.add_argument("--steering", default="pin",
                     choices=("pin", "round-robin", "least-loaded",
                              "flow-hash"),
                     help="target/initiator IRQ+completion steering policy")
    tnt.add_argument("--seed", type=int, default=42)
    tnt.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the grid cells")
    tnt_cache = tnt.add_mutually_exclusive_group()
    tnt_cache.add_argument("--cache", dest="cache", action="store_true",
                           default=True,
                           help="memoize results on disk (default)")
    tnt_cache.add_argument("--no-cache", dest="cache", action="store_false",
                           help="always recompute; touch no cache files")
    tnt.add_argument("--cache-dir", default=None,
                     help="cache root (default: results/.cache, or "
                     "$REPRO_CACHE_DIR)")
    tnt.add_argument("--format", choices=("table", "markdown"),
                     default="table", help="output format")
    qual = sub.add_parser(
        "qualify",
        help="SSD qualification matrix: block-size x queue-depth x pattern "
        "x system cells with per-cell pass/fail floors, sustained-write "
        "GC passes and ordering-oracle cells",
    )
    qual.add_argument("--profile", default="smoke",
                      choices=("smoke", "full"),
                      help="matrix shape: smoke (CI-sized) or full "
                      "(paper-scale, 4K-1MB x QD 1-256 x all systems)")
    qual.add_argument("--systems", default=None,
                      help="comma-separated systems (default: the "
                      "profile's list)")
    qual.add_argument("--layout", default=None,
                      help="hardware layout (default: flash-qual)")
    qual.add_argument("--seed", type=int, default=7)
    qual.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the matrix cells")
    qual_cache = qual.add_mutually_exclusive_group()
    qual_cache.add_argument("--cache", dest="cache", action="store_true",
                            default=True,
                            help="memoize results on disk (default)")
    qual_cache.add_argument("--no-cache", dest="cache",
                            action="store_false",
                            help="always recompute; touch no cache files")
    qual.add_argument("--cache-dir", default=None,
                      help="cache root (default: results/.cache, or "
                      "$REPRO_CACHE_DIR)")
    qual.add_argument("--out-dir", default=None, metavar="DIR",
                      help="write qualify.json + qualify.md under DIR")
    qual.add_argument("--bench-out", default=None, metavar="FILE",
                      help="write the trajectory artifact "
                      "(BENCH_qualify.json shape) to FILE")
    qual.add_argument("--floor", action="append", default=[],
                      metavar="CELL:NAME=VALUE",
                      help="override one floor of one cell (repeatable), "
                      "e.g. 'matrix/rio/4K/qd1/seq:min_kiops=100'")
    qual.add_argument("--format", choices=("table", "markdown"),
                      default="table", help="output format")
    trace = sub.add_parser(
        "trace", help="export request-lifecycle spans as a Chrome trace"
    )
    trace.add_argument("--fs", default="riofs",
                       choices=("ext4", "horaefs", "riofs"),
                       help="file system to run the fsync probe on")
    trace.add_argument("--layout", default="optane",
                       help="hardware layout (see harness LAYOUTS)")
    trace.add_argument("--iterations", type=int, default=20,
                       help="append+fsync iterations to trace")
    trace.add_argument("--out", default="repro.trace.json",
                       help="output path (chrome://tracing JSON)")
    trace.add_argument("--validate", action="store_true",
                       help="validate the export against the trace_event "
                       "schema before writing")
    metrics = sub.add_parser(
        "metrics", help="export the metrics registry of an instrumented run"
    )
    metrics.add_argument("--fs", default="riofs",
                         choices=("ext4", "horaefs", "riofs"))
    metrics.add_argument("--layout", default="optane")
    metrics.add_argument("--iterations", type=int, default=20)
    metrics.add_argument("--format", choices=("csv", "json"), default="csv")
    metrics.add_argument("--out", default=None,
                         help="output path (default: stdout)")
    args = parser.parse_args(argv)

    if args.command == "spec":
        return _cmd_spec(args)

    if args.command == "run" and _is_spec_path(args.figure):
        return _cmd_run_spec(args)

    if args.command == "check":
        from repro.check import (
            build_matrix_specs,
            replay_reproducer,
            run_check_matrix,
        )
        from repro.harness.cache import ResultCache
        from repro.harness.sweep import SweepRunner

        if args.replay:
            report = replay_reproducer(args.replay)
            print(f"replayed {args.replay}: spec {report.spec.to_json()}")
            print(f"{report.crash_points} crash point(s), "
                  f"{len(report.failures)} failing")
            for failure in report.failures:
                for violation in failure.violations:
                    print(f"  t={failure.crash_time:.6g}: {violation}")
            return 0 if report.ok else 1

        systems = args.systems.split(",") if args.systems else None
        layouts = args.layouts.split(",") if args.layouts else None
        seeds = [int(s) for s in args.seeds.split(",") if s != ""]
        specs = build_matrix_specs(
            systems=systems,
            layouts=layouts,
            seeds=seeds,
            streams=args.streams,
            groups_per_stream=args.groups,
            writes_per_group=args.writes,
            depth=args.depth,
            flush_every=args.flush_every,
            max_points=args.max_points,
        )
        cache = ResultCache(root=args.cache_dir) if args.cache else None
        runner = SweepRunner(jobs=args.jobs, cache=cache)
        result = run_check_matrix(
            specs, runner=runner, shrink=args.shrink,
            reproducer_dir=args.reproducers,
        )
        print(result.render())
        for path in result.dumped:
            print(f"reproducer -> {path}")
        print(f"[check: {runner.stats.summary()}]")
        return 0 if result.ok else 1

    if args.command == "saturate":
        from repro.harness import sweep as sweep_mod
        from repro.harness.cache import ResultCache
        from repro.harness.saturate import (
            DEFAULT_LOADS_KIOPS,
            SATURATE_SYSTEMS,
            saturation_curves,
        )

        systems = (args.systems.split(",") if args.systems
                   else list(SATURATE_SYSTEMS))
        loads = ([float(v) for v in args.loads.split(",") if v != ""]
                 if args.loads else list(DEFAULT_LOADS_KIOPS))
        cache = ResultCache(root=args.cache_dir) if args.cache else None
        runner = sweep_mod.configure(jobs=args.jobs, cache=cache)
        started = time.time()
        result = saturation_curves(
            systems=systems, loads_kiops=loads, layout=args.layout,
            initiators=args.initiators, tenants=args.tenants,
            duration=args.duration, steering=args.steering, seed=args.seed,
        )
        if args.format == "markdown":
            print(result.render_markdown())
        else:
            print(result.render())
        line = (f"[saturate: {runner.stats.summary()}; "
                f"{time.time() - started:.1f}s wall")
        if cache is not None:
            line += (f"; cache {cache.root}/{cache.version}: "
                     f"{cache.hits} hit(s)]")
        else:
            line += "; cache disabled]"
        print(line)
        return 0

    if args.command == "overload":
        from repro.harness import sweep as sweep_mod
        from repro.harness.cache import ResultCache
        from repro.harness.overload import (
            DEFAULT_OVERLOAD_KIOPS,
            PROTECTIONS,
            gray_result,
            overload_curves,
        )

        cache = ResultCache(root=args.cache_dir) if args.cache else None
        runner = sweep_mod.configure(jobs=args.jobs, cache=cache)
        started = time.time()
        if args.scenario == "gray":
            kwargs = {"seed": args.seed,
                      "degrade_factor": args.degrade_factor}
            if args.duration is not None:
                kwargs["duration"] = args.duration
            result = gray_result(**kwargs)
        else:
            systems = args.systems.split(",")
            protections = (args.protection.split(",") if args.protection
                           else list(PROTECTIONS))
            loads = ([float(v) for v in args.loads.split(",") if v != ""]
                     if args.loads else list(DEFAULT_OVERLOAD_KIOPS))
            result = overload_curves(
                systems=systems, protections=protections,
                loads_kiops=loads, layout=args.layout or "optane",
                initiators=args.initiators, tenants=args.tenants,
                duration=args.duration if args.duration is not None
                else 2e-3,
                seed=args.seed,
            )
        if args.format == "markdown":
            print(result.render_markdown())
        else:
            print(result.render())
        line = (f"[overload: {runner.stats.summary()}; "
                f"{time.time() - started:.1f}s wall")
        if cache is not None:
            line += (f"; cache {cache.root}/{cache.version}: "
                     f"{cache.hits} hit(s)]")
        else:
            line += "; cache disabled]"
        print(line)
        return 0

    if args.command == "tenants":
        from repro.harness import sweep as sweep_mod
        from repro.harness.cache import ResultCache
        from repro.harness.tenants import (
            DEFAULT_TENANT_LOADS_KIOPS,
            TENANT_SYSTEMS,
            noisy_neighbor_result,
            tenant_curves,
        )

        systems = (args.systems.split(",") if args.systems
                   else list(TENANT_SYSTEMS))
        cache = ResultCache(root=args.cache_dir) if args.cache else None
        runner = sweep_mod.configure(jobs=args.jobs, cache=cache)
        started = time.time()
        ok = True
        if args.storm:
            # Trim defaults so storm cells share digests with the spec
            # compiler and with kwargs callers that leave these unset.
            kwargs: Dict[str, object] = {}
            if args.quantum != 8.0:
                kwargs["quantum"] = args.quantum
            if args.duration is not None:
                kwargs["duration"] = args.duration
            if args.seed != 42:
                kwargs["seed"] = args.seed
            result = noisy_neighbor_result(systems=systems, **kwargs)
            ok = all(
                (row["within_slo"] == "yes") == (row["qos"] == "on")
                for row in result.rows
            )
        else:
            loads = ([float(v) for v in args.loads.split(",") if v != ""]
                     if args.loads else list(DEFAULT_TENANT_LOADS_KIOPS))
            result = tenant_curves(
                systems=systems, loads_kiops=loads, layout=args.layout,
                initiators=args.initiators, streams=args.streams,
                num_tenants=args.num_tenants,
                zipf_alpha=args.zipf_alpha or None,
                diurnal_amplitude=args.diurnal_amplitude,
                diurnal_period=args.diurnal_period,
                qos=args.qos, quantum=args.quantum,
                duration=(args.duration if args.duration is not None
                          else 2e-3),
                steering=args.steering, seed=args.seed,
            )
        if args.format == "markdown":
            print(result.render_markdown())
        else:
            print(result.render())
        line = (f"[tenants: {runner.stats.summary()}; "
                f"{time.time() - started:.1f}s wall")
        if cache is not None:
            line += (f"; cache {cache.root}/{cache.version}: "
                     f"{cache.hits} hit(s)]")
        else:
            line += "; cache disabled]"
        print(line)
        return 0 if ok else 1

    if args.command == "qualify":
        from repro.harness import sweep as sweep_mod
        from repro.harness.cache import ResultCache
        from repro.harness.qualify import (
            DEFAULT_LAYOUT,
            bench_artifact,
            qualify_report,
            write_report,
        )

        floors_override: Dict[str, Dict[str, float]] = {}
        for item in args.floor:
            try:
                cell_key, assignment = item.rsplit(":", 1)
                floor_name, floor_value = assignment.split("=", 1)
                floors_override.setdefault(cell_key, {})[floor_name] = (
                    float(floor_value)
                )
            except ValueError:
                print(f"bad --floor {item!r}; expected CELL:NAME=VALUE",
                      file=sys.stderr)
                return 2
        cache = ResultCache(root=args.cache_dir) if args.cache else None
        runner = sweep_mod.configure(jobs=args.jobs, cache=cache)
        started = time.time()
        kwargs = {"seed": args.seed,
                  "floors_override": floors_override or None}
        if args.systems:
            kwargs["systems"] = args.systems.split(",")
        kwargs["layout"] = args.layout or DEFAULT_LAYOUT
        report = qualify_report(profile=args.profile, **kwargs)
        if args.format == "markdown":
            print(report.render_markdown())
        else:
            print(report.render())
        if args.out_dir:
            for path in write_report(report, args.out_dir):
                print(f"report -> {path}")
        if args.bench_out:
            import json as json_mod

            with open(args.bench_out, "w") as fh:
                json_mod.dump(bench_artifact(report), fh, indent=2,
                              sort_keys=True)
                fh.write("\n")
            print(f"bench artifact -> {args.bench_out}")
        line = (f"[qualify: {runner.stats.summary()}; "
                f"{time.time() - started:.1f}s wall")
        if cache is not None:
            line += (f"; cache {cache.root}/{cache.version}: "
                     f"{cache.hits} hit(s)]")
        else:
            line += "; cache disabled]"
        print(line)
        return 0 if report.ok else 1

    if args.command == "trace":
        from repro.harness.obs import traced_fsync_run
        from repro.sim.obs.export import (
            validate_chrome_trace,
            write_chrome_trace,
        )

        probe = traced_fsync_run(args.fs, layout=args.layout,
                                 iterations=args.iterations,
                                 with_tracer=True)
        doc = write_chrome_trace(probe.obs, args.out,
                                 tracer=probe.env.tracer)
        if args.validate:
            validate_chrome_trace(doc)
            print("trace_event schema: OK")
        print(f"{len(probe.obs.spans)} spans "
              f"({len(doc['traceEvents'])} trace events) -> {args.out}")
        return 0

    if args.command == "metrics":
        from repro.harness.obs import traced_fsync_run
        from repro.sim.obs.export import metrics_csv, metrics_json

        probe = traced_fsync_run(args.fs, layout=args.layout,
                                 iterations=args.iterations)
        render = metrics_csv if args.format == "csv" else metrics_json
        text = render(probe.obs.metrics)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"metrics -> {args.out}")
        else:
            print(text, end="")
        return 0

    if args.command == "list":
        width = max(len(name) for name in FIGURES)
        for name, (_fn, description, _d) in FIGURES.items():
            print(f"{name.ljust(width)}  {description}")
        return 0

    if args.command == "claims":
        from repro.harness.claims import evaluate_claims
        from repro.harness.cache import ResultCache

        cache = (ResultCache(root=args.cache_dir)
                 if getattr(args, "cache", False) else None)
        report = evaluate_claims(duration=args.duration,
                                 jobs=args.jobs or None, cache=cache)
        print(report.render())
        return 0 if report.passed == report.total else 1

    if args.command == "sweep":
        from repro.harness import sweep as sweep_mod
        from repro.harness.cache import ResultCache

        cache = ResultCache(root=args.cache_dir) if args.cache else None
        if cache is not None and args.clear_cache:
            print(f"cleared {cache.clear()} cached result(s) "
                  f"[{cache.root}/{cache.version}]")
        runner = sweep_mod.configure(jobs=args.jobs, cache=cache)
        names = list(FIGURES) if args.figure == "all" else [args.figure]
        for name in names:
            if name not in FIGURES:
                print(f"unknown figure {name!r}; try 'python -m repro list'",
                      file=sys.stderr)
                return 2
        for name in names:
            _run_one(name, args.duration, args.format)
        line = f"[sweep: {runner.stats.summary()}"
        if cache is not None:
            line += (f"; cache {cache.root}/{cache.version}: "
                     f"{cache.hits} hit(s), {cache.corrupt_dropped} "
                     f"corrupt dropped]")
        else:
            line += "; cache disabled]"
        print(line)
        return 0

    if args.figure == "all":
        for name in FIGURES:
            _run_one(name, args.duration, args.format)
        return 0
    if args.figure not in FIGURES:
        print(f"unknown figure {args.figure!r}; try 'python -m repro list'",
              file=sys.stderr)
        return 2
    _run_one(args.figure, args.duration, args.format)
    return 0
