"""The paper's headline claims, checked programmatically.

:func:`evaluate_claims` runs a compact set of experiments once and grades
every headline claim of the paper against them, producing a reproduction
scorecard (``python -m repro claims``).  Each claim is one or more
:class:`~repro.harness.report.Verdict` records (a ratio against its
bound, or one measurement against another); its "measured" line prints
them, and the :class:`ClaimReport` passes when every verdict does.  The
benchmark suite asserts the same relations figure-by-figure; this module
is the one-page summary.

The underlying figure experiments are sweeps (see
:mod:`repro.harness.sweep`), so the scorecard parallelizes and memoizes
like any other sweep: the ``claims`` scenario (``python -m repro claims
--jobs 4``, or :func:`repro.spec.run_scenario` on a ``claims`` spec)
fans the independent simulation cells across four worker processes and
reuses any cell a previous figure/claims run already left in the result
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.harness import figures
from repro.harness import extensions
from repro.harness.report import Report, Verdict

__all__ = ["Claim", "ClaimReport", "evaluate_claims"]


@dataclass
class Claim:
    section: str
    statement: str
    #: The relations the claim asserts; it holds when all of them do.
    verdicts: List[Verdict]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)


@dataclass
class ClaimReport(Report):
    claims: List[Claim] = field(default_factory=list)

    headers = ()

    @property
    def title(self) -> str:
        return (f"Reproduction scorecard: {self.passed}/{len(self.claims)} "
                "headline claims hold")

    def _graded(self):
        return [(claim, claim.verdicts) for claim in self.claims]

    def _table(self):
        width = max((len(c.section) for c in self.claims), default=0)
        return [
            ([f"[{'PASS' if claim.ok else 'FAIL'}] "
              f"{claim.section.ljust(width)}  {claim.statement}"],
             ["       measured: " + "; ".join(map(str, claim.verdicts))])
            for claim in self.claims
        ]


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    """``numerator / denominator``; missing (a failing verdict) when the
    denominator measured zero."""
    return numerator / denominator if denominator else None


def evaluate_claims(duration: float = 2.5e-3) -> ClaimReport:
    """Run the compact experiment set and grade every headline claim.

    The figure sweeps run on the process-wide default runner, so a
    caller inside :func:`repro.harness.sweep.configured`, such as
    :func:`repro.spec.run_scenario`, sets their workers and cache.
    """
    report = ClaimReport()

    def add(section, statement, *verdicts):
        report.claims.append(Claim(section, statement, list(verdicts)))

    # ---- block-device experiments ----
    flash = figures.fig10_block_device(panel="a", threads=(1, 8),
                                       duration=duration)
    optane = figures.fig10_block_device(panel="b", threads=(1, 8),
                                        duration=duration)
    devices = {"flash": flash, "optane": optane}

    def k(result, system, threads):
        return result.column("kiops", system=system, threads=threads)[0]

    def kiops_above(device, system, other, threads, bound):
        result = devices[device]
        return Verdict(
            f"{device} {threads}t {system}/{other} kiops", ">", bound,
            _ratio(k(result, system, threads), k(result, other, threads)))

    add("§6.2/Fig10a",
        "Rio ~two orders of magnitude over ordered Linux on flash",
        kiops_above("flash", "rio", "linux", 1, 50))
    add("§6.2/Fig10a",
        "Rio above HORAE on flash (paper: 2.8x average)",
        kiops_above("flash", "rio", "horae", 1, 2))
    add("§6.2/Fig10b",
        "Rio well above Linux on Optane (paper: 9.4x average)",
        kiops_above("optane", "rio", "linux", 1, 5))
    add("§6.2",
        "Rio's throughput comes close to the orderless",
        *(kiops_above(device, "rio", "orderless", t, 0.85)
          for device in devices for t in (1, 8)))
    add("§6.2",
        "Rio's CPU efficiency comes close to the orderless",
        Verdict("optane 1t rio init_eff_norm", ">", 0.8,
                optane.column("init_eff_norm", system="rio", threads=1)[0]))
    add("§3.1/Fig2",
        "orderless writes saturate the SSD with a single thread",
        Verdict("optane orderless 8t/1t kiops", "<", 1.3,
                _ratio(k(optane, "orderless", 8), k(optane, "orderless", 1))))
    add("§3.2/L1",
        "the FLUSH barrier dominates ordered Linux on flash",
        Verdict("1t linux flash/optane kiops", "<", 0.2,
                _ratio(k(flash, "linux", 1), k(optane, "linux", 1))))

    # ---- merging (Lesson 3 / Figures 3, 12) ----
    merging = figures.fig03_merging_cpu(batches=(1, 16), duration=duration)
    add("§3.2/L3",
        "merging substantially reduces CPU per operation",
        Verdict("batch16/batch1 init_cpu_per_100kiops", "<", 0.5,
                _ratio(merging.column("init_cpu_per_100kiops", batch=16)[0],
                       merging.column("init_cpu_per_100kiops", batch=1)[0])))

    # ---- file system (Figures 13, 14) ----
    fs = figures.fig13_filesystem(threads=(1, 16), duration=duration * 1.5)

    def fs_ratio(col, t):
        return _ratio(fs.column(col, fs="riofs", threads=t)[0],
                      fs.column(col, fs="ext4", threads=t)[0])

    add("§6.3/Fig13",
        "RioFS raises fsync throughput well above Ext4 (paper: 3.0x @16t)",
        Verdict("16t riofs/ext4 kops", ">", 1.8, fs_ratio("kops", 16)))
    add("§6.3/Fig13",
        "RioFS cuts average fsync latency (paper: -67% vs Ext4)",
        Verdict("1t riofs/ext4 avg_latency_us", "<", 0.6,
                fs_ratio("avg_latency_us", 1)))
    breakdown = figures.fig14_latency_breakdown(iterations=20)
    jc = {row["fs"]: row["jc_dispatch_us"] for row in breakdown.rows}
    add("§6.3/Fig14",
        "commit-record dispatch: RioFS < HoraeFS < Ext4",
        Verdict("riofs jc_dispatch_us", "<", jc["horaefs"], jc["riofs"]),
        Verdict("horaefs jc_dispatch_us", "<", jc["ext4"], jc["horaefs"]))

    # ---- applications (Figure 15) ----
    rocksdb = figures.fig15b_rocksdb(threads=(1, 12), duration=duration * 1.5)

    def rk(name, t):
        return rocksdb.column("kops", fs=name, threads=t)[0]

    add("§6.4/Fig15b",
        "RioFS raises RocksDB fillsync throughput over Ext4 (paper: 1.9x)",
        Verdict("12t riofs/ext4 kops", ">", 1.5,
                _ratio(rk("riofs", 12), rk("ext4", 12))))
    add("§6.4/Fig15b",
        "RioFS above HoraeFS on RocksDB (paper: 1.5x)",
        Verdict("12t riofs/horaefs kops", ">", 1.0,
                _ratio(rk("riofs", 12), rk("horaefs", 12))))

    # ---- recovery (§6.5) ----
    recovery = figures.recovery_table(trials=2, threads=12,
                                      run_before_crash=1e-3)
    rio_row = recovery.series(system="rio")[0]
    horae_row = recovery.series(system="horae")[0]
    add("§6.5",
        "HORAE reloads its smaller ordering metadata faster than Rio",
        Verdict("horae rebuild_ms", "<", rio_row["rebuild_ms"],
                horae_row["rebuild_ms"]))
    add("§6.5",
        "data recovery dominates order reconstruction",
        Verdict("rio data_recovery_ms", ">", rio_row["rebuild_ms"],
                rio_row["data_recovery_ms"]))

    # ---- design principles ----
    affinity = extensions.ablation_qp_affinity(duration=duration)
    on = affinity.series(affinity=True)[0]
    off = affinity.series(affinity=False)[0]
    add("§4.5/P2",
        "stream->QP affinity minimizes out-of-order gate arrivals",
        Verdict("affinity ooo_arrivals", "<=", off["ooo_arrivals"],
                on["ooo_arrivals"]),
        Verdict("affinity/spray kiops", ">", 0.95,
                _ratio(on["kiops"], off["kiops"])))
    barrier = extensions.barrier_comparison(threads=(1, 8),
                                            duration=duration)
    b1 = barrier.column("kiops", system="barrier", threads=1)[0]
    b8 = barrier.column("kiops", system="barrier", threads=8)[0]
    r8 = barrier.column("kiops", system="rio", threads=8)[0]
    add("§2.2",
        "intermediate storage order is not a necessity and can be relaxed",
        Verdict("barrier 8t/1t kiops", "<", 1.3, _ratio(b8, b1)),
        Verdict("8t rio/barrier kiops", ">", 2, _ratio(r8, b8)))
    return report
