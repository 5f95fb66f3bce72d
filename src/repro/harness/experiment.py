"""Shared experiment plumbing: testbeds, stacks, result tables.

``LAYOUTS`` encodes the paper's hardware configurations (§6.1):

* ``flash``          — one PM981 on one target (Figures 2(a), 10(a));
* ``optane``         — one 905P on one target (Figures 2(b), 10(b), 13–15);
* ``4ssd-1target``   — flash + Optane pairs as a 4-SSD volume on one target
  (Figure 10(c); we model four SSDs on target 1);
* ``4ssd-2targets``  — two SSDs per target across two targets
  (Figure 10(d), §6.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.fio import BlockWorkloadResult, run_block_workload
from repro.cluster import Cluster
from repro.harness.report import Report, Verdict
from repro.hw.ssd import (
    FLASH_PM981,
    FLASH_PM981_QUAL,
    OPTANE_905P,
    OPTANE_P4800X,
    OPTANE_P5800X,
    SsdProfile,
)
from repro.sim.engine import Environment
from repro.systems.base import OrderedStack, make_stack

__all__ = ["LAYOUTS", "FigureResult", "build_cluster", "build_stack", "fio_run"]

LAYOUTS: Dict[str, tuple] = {
    "flash": ((FLASH_PM981,),),
    "optane": ((OPTANE_905P,),),
    "p4800x": ((OPTANE_P4800X,),),
    "4ssd-1target": ((FLASH_PM981, OPTANE_905P, FLASH_PM981, OPTANE_P4800X),),
    "4ssd-2targets": (
        (FLASH_PM981, OPTANE_905P),
        (FLASH_PM981, OPTANE_P4800X),
    ),
    "2optane-2targets": ((OPTANE_905P,), (OPTANE_P4800X,)),
    "p5800x": ((OPTANE_P5800X,),),
    # Qualification layout: the PM981 variant with a small namespace and
    # write cache, so `repro qualify` cells reach cache eviction pressure
    # and steady-state GC within a short deterministic run.
    "flash-qual": ((FLASH_PM981_QUAL,),),
}


@dataclass
class FigureResult(Report):
    """One reproduced figure/table: headers plus one dict per row."""

    name: str
    description: str
    headers: List[str]
    rows: List[Dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Gate verdicts (the storm's SLO gate); a plain figure has none.
    gates: List[Verdict] = field(default_factory=list, init=False)

    @property
    def title(self) -> str:
        return f"{self.name}: {self.description}"

    def add(self, **row) -> None:
        self.rows.append(row)

    def series(self, **filters) -> List[Dict]:
        """Rows matching all the given column=value filters."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in filters.items())
        ]

    def column(self, name: str, **filters) -> List:
        return [row[name] for row in self.series(**filters)]

    def _graded(self):
        return [(gate, [gate]) for gate in self.gates]

    def _table(self):
        return [([_fmt(row.get(h)) for h in self.headers], [])
                for row in self.rows]


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6:
            return f"{value / 1e6:.2f}M"
        if abs(value) >= 1e3:
            return f"{value / 1e3:.1f}K"
        if abs(value) < 0.01:
            return f"{value * 1e6:.1f}u"
        return f"{value:.3f}"
    return str(value)


def build_cluster(layout: str, env: Optional[Environment] = None,
                  seed: int = 42) -> Cluster:
    """A fresh cluster for the named hardware layout."""
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (have {sorted(LAYOUTS)})")
    env = env or Environment()
    return Cluster(env, target_ssds=LAYOUTS[layout], seed=seed)


def build_stack(system: str, cluster: Cluster, num_streams: int) -> OrderedStack:
    return make_stack(system, cluster, num_streams=num_streams)


def fio_run(
    system: str,
    layout: str,
    threads: int,
    duration: float,
    seed: int = 42,
    **workload_kwargs,
) -> BlockWorkloadResult:
    """Fresh testbed + stack + one block workload run."""
    cluster = build_cluster(layout, seed=seed)
    stack = build_stack(system, cluster, num_streams=max(threads, 1))
    return run_block_workload(
        cluster, stack, threads=threads, duration=duration, **workload_kwargs
    )
