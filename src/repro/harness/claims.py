"""The paper's headline claims, checked programmatically.

:func:`evaluate_claims` runs a compact set of experiments once and grades
every headline claim of the paper against them, producing a reproduction
scorecard (``python -m repro claims``).  The benchmark suite asserts the
same relations figure-by-figure; this module is the one-page summary.

The underlying figure experiments are sweeps (see
:mod:`repro.harness.sweep`), so the scorecard parallelizes and memoizes
like any other sweep: ``evaluate_claims(jobs=4)`` fans the independent
simulation cells across four worker processes, and passing a
:class:`~repro.harness.cache.ResultCache` reuses any cell a previous
figure/claims run already computed (``python -m repro claims --jobs 4``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness import figures
from repro.harness import extensions
from repro.harness.cache import ResultCache
from repro.harness.sweep import configured

__all__ = ["Claim", "ClaimReport", "evaluate_claims"]


@dataclass
class Claim:
    section: str
    statement: str
    passed: bool
    measured: str


@dataclass
class ClaimReport:
    claims: List[Claim] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.claims if c.passed)

    @property
    def total(self) -> int:
        return len(self.claims)

    def render(self) -> str:
        lines = [f"== Reproduction scorecard: {self.passed}/{self.total} "
                 "headline claims hold =="]
        width = max(len(c.section) for c in self.claims)
        for claim in self.claims:
            mark = "PASS" if claim.passed else "FAIL"
            lines.append(f"[{mark}] {claim.section.ljust(width)}  "
                         f"{claim.statement}")
            lines.append(f"       measured: {claim.measured}")
        return "\n".join(lines)


def evaluate_claims(
    duration: float = 2.5e-3,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> ClaimReport:
    """Run the compact experiment set and grade every headline claim.

    With ``jobs``/``cache`` left at None the figure sweeps run on the
    process-wide default runner (so a caller inside
    :func:`repro.harness.sweep.configured`, such as
    :func:`repro.spec.run_scenario`, keeps its settings); passing either
    overrides the runner for the duration of this evaluation.
    """
    if jobs is not None or cache is not None:
        with configured(jobs=jobs or 1, cache=cache):
            return evaluate_claims(duration=duration)
    report = ClaimReport()

    def add(section, statement, passed, measured):
        report.claims.append(Claim(section, statement, bool(passed), measured))

    # ---- block-device experiments ----
    flash = figures.fig10_block_device(panel="a", threads=(1, 8),
                                       duration=duration)
    optane = figures.fig10_block_device(panel="b", threads=(1, 8),
                                        duration=duration)

    def k(result, system, threads):
        return result.column("kiops", system=system, threads=threads)[0]

    add("§6.2/Fig10a",
        "Rio ~two orders of magnitude over ordered Linux on flash",
        k(flash, "rio", 1) > 50 * k(flash, "linux", 1),
        f"{k(flash, 'rio', 1) / max(k(flash, 'linux', 1), 1e-9):.0f}x at 1 thread")
    add("§6.2/Fig10a",
        "Rio above HORAE on flash (paper: 2.8x average)",
        k(flash, "rio", 1) > 2 * k(flash, "horae", 1),
        f"{k(flash, 'rio', 1) / max(k(flash, 'horae', 1), 1e-9):.1f}x at 1 thread")
    add("§6.2/Fig10b",
        "Rio well above Linux on Optane (paper: 9.4x average)",
        k(optane, "rio", 1) > 5 * k(optane, "linux", 1),
        f"{k(optane, 'rio', 1) / max(k(optane, 'linux', 1), 1e-9):.1f}x at 1 thread")
    add("§6.2",
        "Rio's throughput comes close to the orderless",
        all(k(r, "rio", t) > 0.85 * k(r, "orderless", t)
            for r in (flash, optane) for t in (1, 8)),
        "within 15% of orderless on both SSDs at 1 and 8 threads")
    add("§6.2",
        "Rio's CPU efficiency comes close to the orderless",
        optane.column("init_eff_norm", system="rio", threads=1)[0] > 0.8,
        f"{optane.column('init_eff_norm', system='rio', threads=1)[0]:.2f} "
        "normalized initiator efficiency")
    add("§3.1/Fig2",
        "orderless writes saturate the SSD with a single thread",
        k(optane, "orderless", 8) < 1.3 * k(optane, "orderless", 1),
        f"{k(optane, 'orderless', 1):.0f}K at 1 thread vs "
        f"{k(optane, 'orderless', 8):.0f}K at 8")
    add("§3.2/L1",
        "the FLUSH barrier dominates ordered Linux on flash",
        k(flash, "linux", 1) < 0.2 * k(optane, "linux", 1),
        f"linux: {k(flash, 'linux', 1):.1f}K (flash) vs "
        f"{k(optane, 'linux', 1):.1f}K (Optane) at 1 thread")

    # ---- merging (Lesson 3 / Figures 3, 12) ----
    merging = figures.fig03_merging_cpu(batches=(1, 16), duration=duration)
    base = merging.column("init_cpu_per_100kiops", batch=1)[0]
    deep = merging.column("init_cpu_per_100kiops", batch=16)[0]
    add("§3.2/L3",
        "merging substantially reduces CPU per operation",
        deep < 0.5 * base,
        f"initiator CPU per 100K IOPS: {base:.3f} -> {deep:.3f} cores")

    # ---- file system (Figures 13, 14) ----
    fs = figures.fig13_filesystem(threads=(1, 16), duration=duration * 1.5)

    def fsk(name, col, t):
        return fs.column(col, fs=name, threads=t)[0]

    add("§6.3/Fig13",
        "RioFS raises fsync throughput well above Ext4 (paper: 3.0x @16t)",
        fsk("riofs", "kops", 16) > 1.8 * fsk("ext4", "kops", 16),
        f"{fsk('riofs', 'kops', 16) / fsk('ext4', 'kops', 16):.1f}x at 16 threads")
    add("§6.3/Fig13",
        "RioFS cuts average fsync latency (paper: -67% vs Ext4)",
        fsk("riofs", "avg_latency_us", 1) < 0.6 * fsk("ext4", "avg_latency_us", 1),
        f"-{100 * (1 - fsk('riofs', 'avg_latency_us', 1) / fsk('ext4', 'avg_latency_us', 1)):.0f}% at 1 thread")
    breakdown = figures.fig14_latency_breakdown(iterations=20)
    jc = {row["fs"]: row["jc_dispatch_us"] for row in breakdown.rows}
    add("§6.3/Fig14",
        "commit-record dispatch: RioFS < HoraeFS < Ext4",
        jc["riofs"] < jc["horaefs"] < jc["ext4"],
        f"JC dispatch: riofs {jc['riofs']:.1f}us, horaefs "
        f"{jc['horaefs']:.1f}us, ext4 {jc['ext4']:.1f}us")

    # ---- applications (Figure 15) ----
    rocksdb = figures.fig15b_rocksdb(threads=(1, 12), duration=duration * 1.5)

    def rk(name, t):
        return rocksdb.column("kops", fs=name, threads=t)[0]

    add("§6.4/Fig15b",
        "RioFS raises RocksDB fillsync throughput over Ext4 (paper: 1.9x)",
        rk("riofs", 12) > 1.5 * rk("ext4", 12),
        f"{rk('riofs', 12) / rk('ext4', 12):.1f}x at 12 threads")
    add("§6.4/Fig15b",
        "RioFS above HoraeFS on RocksDB (paper: 1.5x)",
        rk("riofs", 12) > rk("horaefs", 12),
        f"{rk('riofs', 12) / rk('horaefs', 12):.2f}x at 12 threads")

    # ---- recovery (§6.5) ----
    recovery = figures.recovery_table(trials=2, threads=12,
                                      run_before_crash=1e-3)
    rio_row = recovery.series(system="rio")[0]
    horae_row = recovery.series(system="horae")[0]
    add("§6.5",
        "HORAE reloads its smaller ordering metadata faster than Rio",
        horae_row["rebuild_ms"] < rio_row["rebuild_ms"],
        f"rebuild: horae {horae_row['rebuild_ms']:.2f}ms vs rio "
        f"{rio_row['rebuild_ms']:.2f}ms")
    add("§6.5",
        "data recovery dominates order reconstruction",
        rio_row["data_recovery_ms"] > rio_row["rebuild_ms"],
        f"rio: {rio_row['data_recovery_ms']:.2f}ms data vs "
        f"{rio_row['rebuild_ms']:.2f}ms rebuild")

    # ---- design principles ----
    affinity = extensions.ablation_qp_affinity(duration=duration)
    on = affinity.series(affinity=True)[0]
    off = affinity.series(affinity=False)[0]
    add("§4.5/P2",
        "stream->QP affinity minimizes out-of-order gate arrivals",
        on["ooo_arrivals"] <= off["ooo_arrivals"]
        and on["kiops"] > 0.95 * off["kiops"],
        f"OOO arrivals {on['ooo_arrivals']} (affinity) vs "
        f"{off['ooo_arrivals']} (spray)")
    barrier = extensions.barrier_comparison(threads=(1, 8),
                                            duration=duration)
    b1 = barrier.column("kiops", system="barrier", threads=1)[0]
    b8 = barrier.column("kiops", system="barrier", threads=8)[0]
    r8 = barrier.column("kiops", system="rio", threads=8)[0]
    add("§2.2",
        "intermediate storage order is not a necessity and can be relaxed",
        b8 < 1.3 * b1 and r8 > 2 * b8,
        f"barrier flat at {b8:.0f}K from 1-8 threads; rio {r8:.0f}K")
    return report
