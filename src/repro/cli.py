"""Command-line interface: regenerate any reproduced figure or table.

Usage::

    python -m repro list
    python -m repro run fig10b
    python -m repro run all
    python -m repro run examples/specs/combined_check.json --jobs 2
    python -m repro spec validate examples/specs/*.json
    python -m repro sweep all --jobs 4
    python -m repro claims --jobs 4
    python -m repro saturate --loads 25,100 --jobs 2
    python -m repro qualify --profile smoke --jobs 4
    python -m repro qualify --profile full --out-dir results/qualify
    python -m repro trace --fs riofs --out rio.trace.json
    python -m repro metrics --fs riofs --format csv

Every verb that runs something — ``run``, ``sweep``, ``claims``,
``check``, ``saturate``, ``overload``, ``tenants``, ``qualify`` — is a flag
spelling of a :class:`~repro.spec.ScenarioSpec` run through
:func:`~repro.spec.run_scenario`, as ``repro run <spec.json>`` is.  A
flag's ``dest`` is the spec field it sets (``workload.loads_kiops``, ...);
a flag left out stays out of the spec, so the spec holds every default.
A verb and its spec file share one cache entry, a bad value gets ``invalid
spec: ...`` (exit 2), and every run ends in one status line: ``[<verb>:
...]``, ``[<verb> <figure>: ...]`` or ``[run <scenario> <digest12>: ...]``.

``run`` takes a figure name, ``all`` or a ScenarioSpec JSON path (one with
a path separator or a ``.json`` suffix; a dumped reproducer is one).
``sweep`` is ``run`` with the cache on by default, plus ``--clear-cache``.
``--duration`` is *virtual* seconds of measured window per configuration.
``spec`` validates, canonicalizes, digests and diffs spec files without
running anything; ``trace`` exports
the instrumented fsync probe's request lifecycle spans as a Chrome
``chrome://tracing`` / Perfetto JSON file and ``metrics`` its metrics
registry as CSV or JSON.  See ``docs/running_experiments.md`` and
``docs/scenario_spec.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.harness.cache import ResultCache
from repro.harness.figures import FIGURES
from repro.spec import (ScenarioSpec, SpecError, diff_specs, load_spec_file,
                        run_scenario)

__all__ = ["main", "build_parser", "FIGURES"]


def _csv(kind):
    """Argparse type: a comma-separated list of ``kind`` values."""
    def parse(text: str):
        items = [item for item in text.split(",") if item]
        if not items:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        try:
            return [kind(item) for item in items]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, "
                f"got {text!r}") from None
    return parse


def _zipf_alpha(text: str):
    """``--zipf-alpha``: 0 spells the spec's ``null`` (uniform)."""
    try:
        return float(text) or None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None


class _Floors(argparse.Action):
    """``--floor CELL:NAME=VALUE``, accumulated into ``policies.floors``."""

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            cell, assignment = text.rsplit(":", 1)
            name, value = assignment.split("=", 1)
            number = float(value)
        except ValueError:
            raise argparse.ArgumentError(
                self, f"bad --floor {text!r}; expected CELL:NAME=VALUE"
            ) from None
        floors = getattr(namespace, self.dest, None) or {}
        floors.setdefault(cell, {})[name] = number
        setattr(namespace, self.dest, floors)


class _Formatter(argparse.HelpFormatter):
    """Name a flag's value after the flag, not after its dotted dest."""

    def _get_default_metavar_for_optional(self, action):
        return action.option_strings[-1].lstrip("-").upper().replace("-", "_")


def _verb(sub, name: str, summary: str, cache: bool, handler):
    """A scenario verb's parser with the flags every verb shares.

    Flags added afterwards default to ``argparse.SUPPRESS``, so a flag the
    user left out stays out of the spec.  No ``parents=``: argparse would
    share one Action, and so one ``--cache`` default, across every verb.
    """
    parser = sub.add_parser(name, help=summary, formatter_class=_Formatter,
                            argument_default=argparse.SUPPRESS)
    parser.set_defaults(handler=handler)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep cells (runs "
                        "are CPU-bound; match host cores)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--cache", dest="cache", action="store_true",
                       default=cache,
                       help="memoize cells AND the reduced scenario "
                       "outcome on disk" + (" (default)" if cache else ""))
    if name != "claims":  # claims is uncached unless asked: no --no-cache
        group.add_argument("--no-cache", dest="cache", action="store_false",
                           help="always recompute; touch no cache files"
                           + ("" if cache else " (default)"))
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default: results/.cache, or "
                        "$REPRO_CACHE_DIR)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the Rio (EuroSys '23) evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available figures").set_defaults(
        handler=_cmd_list)

    run = _verb(sub, "run", "run one figure (or 'all'), or a ScenarioSpec "
                "JSON file", False, _cmd_figures)
    run.add_argument("figure",
                     help="figure name from 'list', 'all', or a path to a "
                     "ScenarioSpec JSON file (a dumped reproducer is one)")
    swp = _verb(sub, "sweep", "run figures on the parallel sweep runner "
                "(workers + cache)", True, _cmd_figures)
    swp.add_argument("figure", help="figure name from 'list', 'all', or a "
                     "ScenarioSpec JSON file")
    swp.add_argument("--clear-cache", action="store_true", default=False,
                     help="drop this code version's cached results first")
    for figures in (run, swp):
        figures.add_argument("--duration", type=float, default=None,
                             help="virtual seconds per configuration "
                             "(figure names only: a spec carries its own "
                             "durations)")

    spc = sub.add_parser(
        "spec",
        help="validate / canonicalize / digest / diff ScenarioSpec files "
        "without running them",
    )
    spc.set_defaults(handler=_cmd_spec)
    spc.add_argument("action",
                     choices=("validate", "canon", "digest", "diff"),
                     help="validate: load+check each file; canon: print "
                     "the canonical JSON; digest: print the stable cache "
                     "digest; diff: field-level differences of two specs")
    spc.add_argument("files", nargs="+", metavar="FILE",
                     help="ScenarioSpec JSON file(s)")

    clm = _verb(sub, "claims", "grade every headline claim (reproduction "
                "scorecard)", False, _cmd_verb)

    chk = _verb(sub, "check", "crash-consistency check: enumerate crash "
                "points, replay recovery, validate ordering invariants",
                False, _cmd_verb)
    chk.add_argument("--layouts", dest="workload.layouts", type=_csv(str),
                     help="comma-separated layouts (default: per-system "
                     "matrix; see repro.check.DEFAULT_MATRIX)")
    chk.add_argument("--seeds", dest="workload.seeds", type=_csv(int),
                     help="comma-separated workload seeds (default: 0,1,2)")
    chk.add_argument("--streams", dest="workload.streams", type=int,
                     help="ordered streams (default: 2)")
    chk.add_argument("--groups", dest="workload.groups_per_stream",
                     type=int, help="ordered groups per stream (default: 4)")
    chk.add_argument("--writes", dest="workload.writes_per_group", type=int,
                     help="writes per group (default: 2)")
    chk.add_argument("--depth", dest="workload.depth", type=int,
                     help="submission depth per stream (default: 2)")
    chk.add_argument("--flush-every", dest="workload.flush_every", type=int,
                     help="fsync every Nth group (0: never; default: 2)")
    chk.add_argument("--max-points", dest="oracle.max_points", type=int,
                     default=20,
                     help="crash points sampled per cell (0: all; "
                     "default: 20)")
    chk.add_argument("--no-shrink", dest="oracle.shrink",
                     action="store_false",
                     help="skip shrinking failing specs")

    sat = _verb(sub, "saturate", "offered-load saturation sweep over the "
                "sharded multi-initiator cluster (throughput-latency + "
                "busy-cores curves)", True, _cmd_verb)

    ovl = _verb(sub, "overload", "robustness-plane overload sweep "
                "(metastable scenario) or the gray fail-slow target "
                "scenario", True, _cmd_verb)
    ovl.add_argument("--scenario", dest="workload.mode",
                     choices=("metastable", "gray"),
                     help="metastable (default): offered-load grid past the "
                     "knee, protection off vs full; gray: degrade one "
                     "target mid-run and measure isolation")
    ovl.add_argument("--protection", dest="policies.protections",
                     type=_csv(str),
                     help="comma-separated protection profiles "
                     "(default: off,full)")
    ovl.add_argument("--degrade-factor", dest="workload.degrade_factor",
                     type=float,
                     help="gray scenario: mid-run service inflation of "
                     "target 0 (default: 8)")

    tnt = _verb(sub, "tenants", "multi-tenant traffic plane: per-class "
                "tail-latency knee curves over a Zipf/diurnal tenant mix "
                "with optional QoS admission, or the seeded noisy-neighbor "
                "storm (--storm)", True, _cmd_verb)
    tnt.add_argument("--storm", dest="workload.mode", action="store_const",
                     const="storm",
                     help="run the noisy-neighbor acceptance storm (QoS "
                     "on vs off per system: the aggressor is paced/shed "
                     "and the gold SLO must hold) instead of the curves")
    tnt.add_argument("--streams", dest="workload.streams", type=int,
                     help="generator lanes, ordered streams (default: 4)")
    tnt.add_argument("--tenants", dest="workload.num_tenants", type=int,
                     help="tenant population mapped onto the streams "
                     "(default: 64)")
    tnt.add_argument("--zipf-alpha", dest="workload.zipf_alpha",
                     type=_zipf_alpha,
                     help="Zipf skew of tenant selection (0: uniform; "
                     "default: 1.1)")
    tnt.add_argument("--diurnal-amplitude", dest="workload.diurnal_amplitude",
                     type=float,
                     help="diurnal rate modulation depth in [0, 1) "
                     "(default: 0)")
    tnt.add_argument("--diurnal-period", dest="workload.diurnal_period",
                     type=float,
                     help="diurnal period in virtual seconds (default: 1e-3)")
    tnt.add_argument("--qos", dest="workload.qos", action="store_const",
                     const=True,
                     help="arm per-tenant token buckets + weighted-fair "
                     "admission on every target")
    tnt.add_argument("--quantum", dest="workload.quantum", type=float,
                     help="weighted-fair deficit quantum, virtual work "
                     "(default: 8)")

    qual = _verb(sub, "qualify", "SSD qualification matrix: block-size x "
                 "queue-depth x system cells with per-cell "
                 "pass/fail floors, sustained-write GC passes and "
                 "ordering-oracle cells", True, _cmd_verb)
    qual.set_defaults(after=_qualify_artifacts)
    qual.add_argument("--profile", dest="workload.profile",
                      choices=("smoke", "full"),
                      help="matrix shape: smoke (CI-sized, default) or full "
                      "(paper-scale, 4K-1MB x QD 1-256 x all systems)")
    qual.add_argument("--out-dir", default=None, metavar="DIR",
                      help="write qualify.json + qualify.md under DIR")
    qual.add_argument("--bench-out", default=None, metavar="FILE",
                      help="write the trajectory artifact "
                      "(BENCH_qualify.json shape) to FILE")
    qual.add_argument("--floor", dest="policies.floors", action=_Floors,
                      metavar="CELL:NAME=VALUE",
                      help="override one floor of one cell (repeatable), "
                      "e.g. 'matrix/rio/4K/qd1:min_kiops=100'")

    # Flags several verbs share; the help names each verb's default.
    for verb in (run, swp, sat, ovl, tnt, qual):
        verb.add_argument("--format", choices=("table", "markdown"),
                          default="table", help="output format")
    for verb in (run, chk):
        verb.add_argument("--reproducers", default=None, metavar="DIR",
                          help="dump one replayable reproducer spec, "
                          "<scenario>-<digest12>.json, per failure into DIR "
                          "(otherwise failures print their reproducer specs "
                          "inline)")
    for verb, systems in ((chk, "all four"),
                          (sat, "linux,horae,rio,barrier"),
                          (ovl, "rio; metastable scenario only"),
                          (tnt, "linux,horae,rio"),
                          (qual, "the profile's list; matrix and "
                                 "sustained cells only, the oracle cells "
                                 "always check rio, horae and barrier")):
        verb.add_argument("--systems", dest="workload.systems",
                          type=_csv(str),
                          help=f"comma-separated systems (default: {systems})")
    for verb, layout in ((sat, "optane; must be single-SSD when sweeping "
                               "barrier"),
                         (ovl, "optane; gray runs on 2optane-2targets"),
                         (tnt, "optane"), (qual, "flash-qual")):
        verb.add_argument("--layout", dest="topology.layout",
                          help=f"hardware layout (see harness LAYOUTS; "
                          f"default: {layout})")
    for verb in (sat, ovl):
        verb.add_argument("--tenants", dest="workload.tenants", type=int,
                          help="load-generator tenants, one stream each "
                          "(default: 4)")
    for verb, loads in ((sat, "25,50,100,200,400,800"),
                        (ovl, "400,1100,2200"),
                        (tnt, "25,50,100,200,400,800")):
        verb.add_argument("--loads", dest="workload.loads_kiops",
                          type=_csv(float),
                          help=f"comma-separated offered loads in kIOPS, "
                          f"ascending (default: {loads})")
        verb.add_argument("--initiators", dest="topology.initiators",
                          type=int,
                          help="initiator hosts fanning into the targets "
                          "(default: 2)")
    for verb, duration in ((clm, "2.5e-3"),
                           (sat, "2e-3"), (ovl, "2e-3, gray 4e-3"),
                           (tnt, "2e-3, storm 3e-3")):
        verb.add_argument("--duration", dest="workload.duration",
                          type=float,
                          help=f"virtual seconds of measured window per "
                          f"cell (default: {duration})")
    for verb, seed in ((sat, 42), (ovl, 42), (tnt, 42), (qual, 7)):
        verb.add_argument("--seed", dest="workload.seed", type=int,
                          help=f"workload seed (default: {seed})")
    for verb in (sat, tnt):
        verb.add_argument("--steering", dest="topology.steering",
                          choices=("pin", "round-robin", "least-loaded",
                                   "flow-hash"),
                          help="target/initiator IRQ+completion "
                          "steering policy (default: pin)")

    trace = sub.add_parser(
        "trace", help="export request-lifecycle spans as a Chrome trace")
    trace.add_argument("--out", default="repro.trace.json",
                       help="output path (chrome://tracing JSON)")
    trace.add_argument("--validate", action="store_true",
                       help="validate the export against the trace_event "
                       "schema before writing")
    metrics = sub.add_parser(
        "metrics", help="export the metrics registry of an instrumented run")
    metrics.add_argument("--format", choices=("csv", "json"), default="csv")
    metrics.add_argument("--out", default=None,
                         help="output path (default: stdout)")
    for probe in (trace, metrics):
        probe.set_defaults(handler=_cmd_probe)
        probe.add_argument("--fs", default="riofs",
                           choices=("ext4", "horaefs", "riofs"),
                           help="file system to run the fsync probe on")
        probe.add_argument("--layout", default="optane",
                           help="hardware layout (see harness LAYOUTS)")
        probe.add_argument("--iterations", type=int, default=20,
                           help="append+fsync iterations to run")
    return parser


# ----------------------------------------------------------------------
# The one execution path
# ----------------------------------------------------------------------


def _execute(spec: ScenarioSpec, args, label: str) -> int:
    """Run one spec, print its report and one status line; exit code."""
    cache = ResultCache(root=args.cache_dir) if args.cache else None
    dump_dir = getattr(args, "reproducers", None)
    started = time.time()
    outcome = run_scenario(spec, jobs=args.jobs, cache=cache)
    result = outcome.result
    if getattr(args, "format", "table") == "markdown":
        print(result.render_markdown())
    else:
        print(outcome.render())
    if not outcome.ok:
        if dump_dir is None:
            for repro_spec in outcome.reproducers:
                print(f"reproducer spec: {repro_spec.canonical_json()}")
        else:
            for path in outcome.dump_reproducers(dump_dir):
                print(f"reproducer spec -> {path}")
    if getattr(args, "after", None) is not None:
        args.after(result, args)
    ran = "scenario cache hit" if outcome.cached else outcome.stats.summary()
    where = (f"cache {cache.root}/{cache.version}: {cache.hits} hit(s), "
             f"{cache.corrupt_dropped} corrupt dropped"
             if cache is not None else "cache disabled")
    print(f"[{label}: {ran}; {time.time() - started:.1f}s wall; {where}]")
    return 0 if outcome.ok else 1


def _cmd_verb(args) -> int:
    """A scenario verb: fold its dotted flag dests into a spec, run it."""
    doc = {"scenario": args.command}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot:
            doc.setdefault(section, {})[key] = value
    return _execute(ScenarioSpec.from_dict(doc), args, args.command)


def _cmd_figures(args) -> int:
    """``run``/``sweep``: a spec file, one figure, or every figure."""
    is_spec = os.path.dirname(args.figure) or args.figure.endswith(".json")
    if is_spec and args.duration is not None:
        print("--duration applies to figure names only; a ScenarioSpec "
              "carries its own durations (edit the spec instead)",
              file=sys.stderr)
        return 2
    if getattr(args, "clear_cache", False) and args.cache:
        cache = ResultCache(root=args.cache_dir)
        print(f"cleared {cache.clear()} cached result(s) "
              f"[{cache.root}/{cache.version}]")
    if is_spec:
        spec = load_spec_file(args.figure)
        return _execute(spec, args, f"{args.command} {spec.scenario} "
                        f"{spec.digest()[:12]}")
    names = list(FIGURES) if args.figure == "all" else [args.figure]
    status = 0
    for name in names:
        takes_duration = name in FIGURES and FIGURES[name][2]
        options = ({"duration": args.duration}
                   if args.duration is not None and takes_duration else None)
        spec = ScenarioSpec.from_dict({
            "scenario": "figure",
            "workload": {"figure": name, "options": options},
        })
        status = max(status, _execute(spec, args, f"{args.command} {name}"))
    return status


def _qualify_artifacts(report, args) -> None:
    """``qualify --out-dir/--bench-out``: files written from the report."""
    from repro.harness.qualify import bench_artifact, write_report

    if args.out_dir:
        for path in write_report(report, args.out_dir):
            print(f"report -> {path}")
    if args.bench_out:
        with open(args.bench_out, "w") as fh:
            json.dump(bench_artifact(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"bench artifact -> {args.bench_out}")


# ----------------------------------------------------------------------
# Verbs that run no scenario
# ----------------------------------------------------------------------


def _cmd_list(args) -> int:
    width = max(len(name) for name in FIGURES)
    for name, (_fn, description, _d) in FIGURES.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def _cmd_spec(args) -> int:
    """``repro spec validate|canon|digest|diff`` — no simulation runs."""
    if args.action == "diff":
        if len(args.files) != 2:
            print("spec diff takes exactly two files", file=sys.stderr)
            return 2
        a, b = (load_spec_file(path) for path in args.files)
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


def _cmd_probe(args) -> int:
    """``trace``/``metrics``: the instrumented fsync probe, exported."""
    from repro.harness.obs import traced_fsync_run
    from repro.sim.obs import export

    probe = traced_fsync_run(args.fs, layout=args.layout,
                             iterations=args.iterations)
    if args.command == "trace":
        doc = export.write_chrome_trace(probe.obs, args.out)
        if args.validate:
            export.validate_chrome_trace(doc)
            print("trace_event schema: OK")
        print(f"{len(probe.obs.spans)} spans "
              f"({len(doc['traceEvents'])} trace events) -> {args.out}")
        return 0
    text = getattr(export, f"metrics_{args.format}")(probe.obs.metrics)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"metrics -> {args.out}")
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
