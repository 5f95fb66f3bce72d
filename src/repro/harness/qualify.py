"""`repro qualify`: the SSD qualification matrix with per-cell floors.

Modeled on real NVMe qualification suites (block-size sweeps 4K–1MB,
queue depths 1–256, sequential/random/mixed patterns, sustained-write
preconditioning, SMART health checks), driven against the reproduced
stacks instead of a physical drive.  Three kinds of cells:

* **matrix** — one ``run_block_workload`` per (system, block size, queue
  depth, pattern) on the qualification layout, recording throughput,
  tail latency and the device's SMART health counters;
* **sustained** — a sustained sequential-write pass at QD 256 on a
  prefilled device, so the cell runs inside write-cache eviction
  pressure *and* steady-state GC (write amplification > 1);
* **oracle** — the crash-consistency checker (:mod:`repro.check`) at
  depth 256 on the same prefilled, GC-active device: enumerate crash
  points, replay recovery, count ordering violations.

Every cell is an independent seeded simulation: cells fan out across
``--jobs`` worker processes and memoize in the content-addressed result
cache, and because the reduce consumes results in spec order, a parallel
or cache-warm run is bit-identical to a serial cold one.

**Per-cell floors.**  Each cell carries a floor dict checked in the
reduce step (so floors can change without invalidating cached cells):

* ``min_kiops`` / ``min_mbps`` — throughput floors;
* ``max_p999_us`` — tail-latency ceiling (defaults to the measurement
  window: any recorded completion beats it, a stalled cell does not);
* ``min_write_amp`` / ``require_gc`` / ``min_cache_stalls`` — realism
  floors on sustained cells: the device must actually have entered
  steady-state GC and cache eviction pressure, otherwise the tentpole
  plumbing regressed;
* ``max_violations`` / ``min_crash_points`` — ordering-oracle floors on
  oracle cells: zero violations over at least one replayed crash point.

A failing floor marks the cell FAIL, is listed in the report, and makes
``repro qualify`` exit nonzero.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.harness.experiment import LAYOUTS, build_cluster, build_stack
from repro.harness.sweep import RunSpec, Sweep, run_sweep

__all__ = [
    "QUALIFY_SYSTEMS",
    "ORACLE_SYSTEMS",
    "FULL_BLOCKS_KIB",
    "FULL_QUEUE_DEPTHS",
    "FULL_PATTERNS",
    "PROFILES",
    "QualifyProfile",
    "QualifyCell",
    "QualifyReport",
    "probe_qualify_cell",
    "probe_qualify_oracle",
    "default_floors",
    "qualify_sweep",
    "qualify_report",
    "write_report",
    "bench_artifact",
]

#: Default qualification layout: the PM981 variant with a small namespace
#: and cache, so cells reach eviction pressure and steady-state GC.
DEFAULT_LAYOUT = "flash-qual"

#: The five compared systems (the full matrix covers all of them).
QUALIFY_SYSTEMS = ("orderless", "linux", "horae", "rio", "barrier")

#: Systems whose ordering contract the oracle cells check under GC.
ORACLE_SYSTEMS = ("rio", "horae", "barrier")

FULL_BLOCKS_KIB = (4, 16, 64, 256, 1024)
FULL_QUEUE_DEPTHS = (1, 8, 64, 256)
FULL_PATTERNS = ("seq", "rand", "mixed")


@dataclass(frozen=True)
class QualifyProfile:
    """Shape of one qualification run (which cells get generated)."""

    systems: Sequence[str]
    blocks_kib: Sequence[int]
    queue_depths: Sequence[int]
    patterns: Sequence[str]
    #: Measurement window / warmup of one matrix cell (virtual seconds).
    duration: float
    warmup: float
    #: Sustained-write pass: window and device prefill fraction.
    sustained_duration: float
    sustained_prefill: float
    #: Ordering-oracle cells: systems, in-flight depth, crash-point cap.
    oracle_systems: Sequence[str]
    oracle_depth: int
    oracle_max_points: int


PROFILES: Dict[str, QualifyProfile] = {
    # CI-sized: 2 systems x 2 blocks x 2 depths x 2 patterns, one
    # sustained pass per system, the full oracle trio.
    "smoke": QualifyProfile(
        systems=("rio", "linux"),
        blocks_kib=(4, 64),
        queue_depths=(1, 256),
        patterns=("seq", "rand"),
        duration=8e-4,
        warmup=2e-4,
        sustained_duration=1.2e-3,
        sustained_prefill=0.92,
        oracle_systems=ORACLE_SYSTEMS,
        oracle_depth=256,
        oracle_max_points=5,
    ),
    # The paper-scale matrix: 4K-1MB x QD 1/8/64/256 x seq/rand/mixed
    # x all five systems, plus sustained passes and the oracle trio.
    "full": QualifyProfile(
        systems=QUALIFY_SYSTEMS,
        blocks_kib=FULL_BLOCKS_KIB,
        queue_depths=FULL_QUEUE_DEPTHS,
        patterns=FULL_PATTERNS,
        duration=1.5e-3,
        warmup=3e-4,
        sustained_duration=2.5e-3,
        sustained_prefill=0.92,
        oracle_systems=ORACLE_SYSTEMS,
        oracle_depth=256,
        oracle_max_points=8,
    ),
}

#: Block size / queue depth of the sustained-write pass (64 KiB seq at
#: QD 256 -> 16 MiB in flight against a 2 MiB cache: guaranteed eviction
#: pressure on the qualification layout).
SUSTAINED_BLOCK_KIB = 64
SUSTAINED_QD = 256

#: Systems whose per-group synchronous FLUSH keeps the cache drained:
#: the ``min_cache_stalls`` realism floor does not apply to them.
SYNC_FLUSH_SYSTEMS = ("linux",)


# ----------------------------------------------------------------------
# Cells (top-level, JSON-kwargs functions for the sweep runner)
# ----------------------------------------------------------------------


def _cluster_health(cluster) -> Dict[str, float]:
    """Aggregate SMART health over every SSD in the cluster."""
    smarts = [
        ssd.smart() for target in cluster.targets for ssd in target.ssds
    ]
    out = {
        "cache_stalls": sum(s["cache_stalls"] for s in smarts),
        "cache_stall_ms": 1e3 * sum(s["cache_stall_time"] for s in smarts),
        "cache_evictions": sum(s["cache_evictions"] for s in smarts),
        "media_host_mb": sum(s["media_host_bytes"] for s in smarts) / 1e6,
        "media_gc_mb": sum(s["media_gc_bytes"] for s in smarts) / 1e6,
        "write_amp": max(s["write_amp"] for s in smarts),
        "utilization": max(s["utilization"] for s in smarts),
        "gc_active": max(s["gc_active"] for s in smarts),
        "wear_pct": max(s["wear_pct"] for s in smarts),
    }
    return out


def probe_qualify_cell(
    system: str,
    layout: str = DEFAULT_LAYOUT,
    block_kib: int = 4,
    queue_depth: int = 1,
    pattern: str = "rand",
    duration: float = 1.5e-3,
    warmup: float = 3e-4,
    prefill: float = 0.0,
    seed: int = 7,
) -> Dict[str, float]:
    """One qualification cell: fresh testbed, one block-workload run.

    Top-level and scalar-valued so the sweep runner can execute it in a
    worker process and key it in the content-addressed result cache.
    """
    from repro.apps.fio import run_block_workload
    from repro.hw.ssd import BLOCK_SIZE

    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (have {sorted(LAYOUTS)})")
    cluster = build_cluster(layout, seed=seed)
    if prefill:
        for target in cluster.targets:
            for ssd in target.ssds:
                ssd.prefill(prefill)
    stack = build_stack(system, cluster, num_streams=1)
    run = run_block_workload(
        cluster, stack, threads=1, duration=duration, warmup=warmup,
        write_blocks=max(1, block_kib * 1024 // BLOCK_SIZE),
        pattern=pattern, queue_depth=queue_depth, seed=seed,
    )
    metrics = {
        "kiops": run.iops / 1e3,
        "mbps": run.mb_per_sec,
        "p50_us": run.latency.p50 * 1e6,
        "p99_us": run.latency.p99 * 1e6,
        "p999_us": run.latency.p999 * 1e6,
        "samples": float(run.latency.count),
        "target_busy_cores": run.target_busy_cores,
    }
    metrics.update(_cluster_health(cluster))
    return metrics


def probe_qualify_oracle(
    system: str,
    layout: str = DEFAULT_LAYOUT,
    depth: int = 256,
    prefill: float = 0.92,
    max_points: int = 5,
    seed: int = 7,
) -> Dict[str, float]:
    """One ordering-oracle cell at the qualification extremes.

    Runs the crash-consistency checker with ``depth`` groups in flight on
    a prefilled (GC-active) device: every enumerated crash point is
    replayed through recovery and validated against the system's order
    contract.  GC is active for the whole run and the small cache forces
    eviction mid-epoch — exactly the regime the first-order device model
    never reached.
    """
    from repro.check import WorkloadSpec, check_workload

    spec = WorkloadSpec(
        system=system,
        layout=layout,
        seed=seed,
        streams=2,
        groups_per_stream=5,
        writes_per_group=2,
        depth=depth,
        flush_every=2,
        max_points=max_points,
        prefill=prefill,
    )
    report = check_workload(spec)
    env_probe = _oracle_probe(spec)
    return {
        "crash_points": float(report.crash_points),
        "groups_completed": float(report.groups_completed),
        "failing_points": float(len(report.failures)),
        "violations": float(
            sum(len(f.violations) for f in report.failures)
        ),
        **env_probe,
    }


def _oracle_probe(spec) -> Dict[str, float]:
    """Re-run the oracle workload once to report the device health the
    crash points were enumerated under (GC active, eviction pressure)."""
    from repro.check.workload import build_plan, build_testbed, start_workload

    env, cluster, stack = build_testbed(spec)
    plan = build_plan(spec)
    completions: List = []
    done = start_workload(env, cluster, stack, spec, plan, completions)
    env.run_until_event(done, limit=2.0)
    env.run(until=env.now + 2e-3)
    health = _cluster_health(cluster)
    return {
        "gc_active": health["gc_active"],
        "write_amp": health["write_amp"],
        "utilization": health["utilization"],
        "cache_evictions": health["cache_evictions"],
    }


# ----------------------------------------------------------------------
# Floors
# ----------------------------------------------------------------------


def default_floors(phase: str, duration: float) -> Dict[str, float]:
    """Conservative per-cell floors: loose enough to pass every healthy
    cell deterministically, tight enough that a stalled, wedged or
    contract-breaking cell fails loudly."""
    if phase == "matrix":
        return {
            "min_kiops": 0.05,
            "min_mbps": 0.1,
            "max_p999_us": duration * 1e6,
        }
    if phase == "sustained":
        return {
            "min_kiops": 0.05,
            "min_mbps": 0.1,
            "max_p999_us": duration * 1e6,
            # Realism floors: the pass must actually run inside GC and
            # cache eviction pressure, or the device model regressed.
            "require_gc": 1.0,
            "min_write_amp": 1.05,
            "min_cache_stalls": 1.0,
        }
    if phase == "oracle":
        return {
            "max_violations": 0.0,
            "min_crash_points": 1.0,
            # The checked run must have been GC-active, or the cell
            # silently stopped testing the interesting regime.
            "require_gc": 1.0,
        }
    raise ValueError(f"unknown qualification phase {phase!r}")


#: floor name -> (metric name, comparison): "ge" passes while
#: metric >= floor, "le" while metric <= floor.
_FLOOR_CHECKS = {
    "min_kiops": ("kiops", "ge"),
    "min_mbps": ("mbps", "ge"),
    "max_p999_us": ("p999_us", "le"),
    "min_write_amp": ("write_amp", "ge"),
    "min_cache_stalls": ("cache_stalls", "ge"),
    "require_gc": ("gc_active", "ge"),
    "max_violations": ("violations", "le"),
    "min_crash_points": ("crash_points", "ge"),
}


def check_floors(metrics: Dict[str, float],
                 floors: Dict[str, float]) -> List[str]:
    """Every floor the metrics break, as human-readable failure lines."""
    failures = []
    for floor_name, floor_value in sorted(floors.items()):
        metric_name, direction = _FLOOR_CHECKS[floor_name]
        value = metrics.get(metric_name)
        if value is None:
            failures.append(f"{floor_name}: metric {metric_name} missing")
            continue
        ok = value >= floor_value if direction == "ge" else value <= floor_value
        if not ok:
            op = ">=" if direction == "ge" else "<="
            failures.append(
                f"{floor_name}: {metric_name}={value:g} not {op} "
                f"{floor_value:g}"
            )
    return failures


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


@dataclass
class QualifyCell:
    """One qualified cell: identity, measured metrics, floors, verdict."""

    key: str
    phase: str  # "matrix" | "sustained" | "oracle"
    system: str
    block_kib: int
    queue_depth: int
    pattern: str
    metrics: Dict[str, float] = field(default_factory=dict)
    floors: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "phase": self.phase,
            "system": self.system,
            "block_kib": self.block_kib,
            "queue_depth": self.queue_depth,
            "pattern": self.pattern,
            "metrics": self.metrics,
            "floors": self.floors,
            "failures": list(self.failures),
            "ok": self.ok,
        }


@dataclass
class QualifyReport:
    """The full qualification outcome: every cell plus summary notes."""

    profile: str
    layout: str
    seed: int
    cells: List[QualifyCell] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def passed(self) -> int:
        return sum(1 for cell in self.cells if cell.ok)

    @property
    def failed(self) -> int:
        return len(self.cells) - self.passed

    def cell(self, key: str) -> QualifyCell:
        for cell in self.cells:
            if cell.key == key:
                return cell
        raise KeyError(key)

    def as_dict(self) -> dict:
        return {
            "kind": "repro-qualify-report",
            "profile": self.profile,
            "layout": self.layout,
            "seed": self.seed,
            "cells": [cell.as_dict() for cell in self.cells],
            "notes": list(self.notes),
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, fixed separators): the digest
        input, so two runs agree iff their reports are byte-identical."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -- rendering -----------------------------------------------------

    _HEADERS = ("cell", "kiops", "mbps", "p999_us", "wa", "gc",
                "stalls", "viol", "status")

    def _row(self, cell: QualifyCell) -> List[str]:
        m = cell.metrics

        def num(name, fmt="{:g}"):
            return fmt.format(m[name]) if name in m else "-"

        return [
            cell.key,
            num("kiops", "{:.2f}"),
            num("mbps", "{:.1f}"),
            num("p999_us", "{:.1f}"),
            num("write_amp", "{:.2f}"),
            num("gc_active"),
            num("cache_stalls"),
            num("violations"),
            "PASS" if cell.ok else "FAIL",
        ]

    def render(self) -> str:
        """ASCII table, one line per cell, plus failure detail lines."""
        rows = [self._row(cell) for cell in self.cells]
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(self._HEADERS)
        ]
        lines = [
            f"== qualify: profile={self.profile} layout={self.layout} "
            f"seed={self.seed} =="
        ]
        lines.append("  ".join(
            h.ljust(widths[i]) for i, h in enumerate(self._HEADERS)
        ))
        lines.append("  ".join("-" * w for w in widths))
        for cell, row in zip(self.cells, rows):
            lines.append("  ".join(
                col.ljust(widths[i]) for i, col in enumerate(row)
            ))
            for failure in cell.failures:
                lines.append(f"    FAIL {failure}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(
            f"result: {self.passed}/{len(self.cells)} cells pass"
            + ("" if self.ok else f" ({self.failed} FAILING)")
        )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [
            f"### Qualification report: profile `{self.profile}`, "
            f"layout `{self.layout}`, seed {self.seed}",
            "",
            "| " + " | ".join(self._HEADERS) + " |",
            "|" + "|".join("---" for _ in self._HEADERS) + "|",
        ]
        for cell in self.cells:
            lines.append("| " + " | ".join(self._row(cell)) + " |")
        for cell in self.cells:
            for failure in cell.failures:
                lines.append(f"\n* **FAIL** `{cell.key}`: {failure}")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        lines.append(
            f"\n**{self.passed}/{len(self.cells)} cells pass**"
            + ("" if self.ok else f" — {self.failed} failing")
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Sweep assembly
# ----------------------------------------------------------------------


def qualify_sweep(
    profile: str = "smoke",
    systems: Optional[Sequence[str]] = None,
    blocks_kib: Optional[Sequence[int]] = None,
    queue_depths: Optional[Sequence[int]] = None,
    patterns: Optional[Sequence[str]] = None,
    layout: str = DEFAULT_LAYOUT,
    duration: Optional[float] = None,
    seed: int = 7,
    floors_override: Optional[Dict[str, Dict[str, float]]] = None,
    oracle: bool = True,
    sustained: bool = True,
) -> Sweep:
    """The qualification matrix as independent cells + a reduce step.

    ``floors_override`` maps cell key -> floor dict merged over the
    defaults (tests inject regressions this way); floors live in the
    reduce, so changing them never invalidates cached cells.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r} (have {sorted(PROFILES)})")
    shape = PROFILES[profile]
    systems = tuple(systems if systems is not None else shape.systems)
    blocks_kib = tuple(
        blocks_kib if blocks_kib is not None else shape.blocks_kib
    )
    queue_depths = tuple(
        queue_depths if queue_depths is not None else shape.queue_depths
    )
    patterns = tuple(patterns if patterns is not None else shape.patterns)
    duration = duration if duration is not None else shape.duration

    cells: List[QualifyCell] = []
    specs: List[RunSpec] = []

    def add(cell: QualifyCell, spec: RunSpec) -> None:
        cells.append(cell)
        specs.append(spec)

    for system in systems:
        for block_kib in blocks_kib:
            for qd in queue_depths:
                for pattern in patterns:
                    key = f"matrix/{system}/{block_kib}K/qd{qd}/{pattern}"
                    add(
                        QualifyCell(
                            key=key, phase="matrix", system=system,
                            block_kib=block_kib, queue_depth=qd,
                            pattern=pattern,
                            floors=default_floors("matrix", duration),
                        ),
                        RunSpec.make(
                            probe_qualify_cell, label=f"qualify/{key}",
                            system=system, layout=layout,
                            block_kib=block_kib, queue_depth=qd,
                            pattern=pattern, duration=duration,
                            warmup=shape.warmup, prefill=0.0, seed=seed,
                        ),
                    )
    if sustained:
        for system in systems:
            key = (f"sustained/{system}/{SUSTAINED_BLOCK_KIB}K/"
                   f"qd{SUSTAINED_QD}/seq")
            floors = default_floors("sustained", shape.sustained_duration)
            if system in SYNC_FLUSH_SYSTEMS:
                # Linux's per-group synchronous FLUSH keeps the write
                # cache drained below its own throughput ceiling, so
                # eviction pressure is structurally unreachable for it —
                # demanding stalls would fail a physically correct model.
                # GC and write amplification still apply.
                floors.pop("min_cache_stalls")
            add(
                QualifyCell(
                    key=key, phase="sustained", system=system,
                    block_kib=SUSTAINED_BLOCK_KIB, queue_depth=SUSTAINED_QD,
                    pattern="seq", floors=floors,
                ),
                RunSpec.make(
                    probe_qualify_cell, label=f"qualify/{key}",
                    system=system, layout=layout,
                    block_kib=SUSTAINED_BLOCK_KIB,
                    queue_depth=SUSTAINED_QD, pattern="seq",
                    duration=shape.sustained_duration,
                    warmup=shape.warmup,
                    prefill=shape.sustained_prefill, seed=seed,
                ),
            )
    if oracle:
        for system in shape.oracle_systems:
            key = f"oracle/{system}/qd{shape.oracle_depth}"
            add(
                QualifyCell(
                    key=key, phase="oracle", system=system,
                    block_kib=0, queue_depth=shape.oracle_depth,
                    pattern="ordered",
                    floors=default_floors("oracle", duration),
                ),
                RunSpec.make(
                    probe_qualify_oracle, label=f"qualify/{key}",
                    system=system, layout=layout,
                    depth=shape.oracle_depth,
                    prefill=shape.sustained_prefill,
                    max_points=shape.oracle_max_points, seed=seed,
                ),
            )

    overrides = floors_override or {}
    for cell in cells:
        if cell.key in overrides:
            cell.floors = {**cell.floors, **overrides[cell.key]}
    unknown = set(overrides) - {cell.key for cell in cells}
    if unknown:
        raise ValueError(f"floor overrides for unknown cells: {sorted(unknown)}")

    def reduce(results: List[Dict]) -> QualifyReport:
        report = QualifyReport(profile=profile, layout=layout, seed=seed)
        for cell, metrics in zip(cells, results):
            cell.metrics = {
                name: round(value, 4) for name, value in sorted(metrics.items())
            }
            cell.failures = check_floors(cell.metrics, cell.floors)
            report.cells.append(cell)
        gc_cells = [
            c for c in report.cells
            if c.metrics.get("gc_active") and c.metrics.get("cache_stalls")
        ]
        if gc_cells:
            report.notes.append(
                f"{len(gc_cells)} cells ran under steady-state GC with "
                "cache eviction pressure"
            )
        oracle_cells = [c for c in report.cells if c.phase == "oracle"]
        if oracle_cells:
            points = int(sum(
                c.metrics.get("crash_points", 0) for c in oracle_cells
            ))
            clean = all(
                c.metrics.get("violations", 1) == 0 for c in oracle_cells
            )
            report.notes.append(
                f"oracle: {points} crash points replayed across "
                f"{len(oracle_cells)} systems, "
                + ("zero ordering violations" if clean
                   else "ORDERING VIOLATIONS FOUND")
            )
        return report

    return Sweep(name="qualify", specs=specs, reduce=reduce)


def qualify_report(
    profile: str = "smoke",
    **kwargs,
) -> QualifyReport:
    """Run the qualification matrix on the process-wide sweep runner."""
    return run_sweep(qualify_sweep(profile=profile, **kwargs))


def write_report(report: QualifyReport, out_dir) -> List[str]:
    """Write ``qualify.json`` + ``qualify.md`` under ``out_dir``."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "qualify.json")
    md_path = os.path.join(out_dir, "qualify.md")
    with open(json_path, "w") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(md_path, "w") as handle:
        handle.write(report.render_markdown())
        handle.write("\n")
    return [json_path, md_path]


# ----------------------------------------------------------------------
# Trajectory artifact (BENCH_qualify.json)
# ----------------------------------------------------------------------


def bench_artifact(report: QualifyReport) -> dict:
    """The committed trajectory record: qualification headline numbers
    (deterministic).  Host cost is measured by ``bench/run.py``."""
    def headline(cell: QualifyCell) -> dict:
        picked = {
            name: cell.metrics[name]
            for name in ("kiops", "mbps", "p999_us", "write_amp",
                         "gc_active", "cache_stalls", "violations",
                         "crash_points")
            if name in cell.metrics
        }
        picked["ok"] = cell.ok
        return picked

    return {
        "kind": "repro-bench-qualify",
        "profile": report.profile,
        "layout": report.layout,
        "seed": report.seed,
        "report_digest": report.digest(),
        "cells_pass": report.passed,
        "cells_total": len(report.cells),
        "cells": {cell.key: headline(cell) for cell in report.cells},
    }
