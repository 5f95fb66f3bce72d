"""The benchmark's workloads: which simulation cells each one runs.

Plain data, so the orchestrator can read it without importing the
simulator; ``worker.py`` maps each cell kind onto the public ``repro``
entry points.  Every parameter is fixed here except the seed, which the
run passes both to the testbed and to the workload generator.  Why each
workload exists is recorded in ``BENCHMARK.json`` and ``bench/README.md``.

``quick`` overrides shrink simulated durations for the self-test; they keep
every cell above zero ops and zero latency samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["Cell", "WORKLOADS"]


@dataclass(frozen=True)
class Cell:
    """One simulation call: a ``kind`` of entry point plus its arguments."""

    kind: str
    params: Dict[str, object]
    quick: Dict[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        name = self.params.get("system") or self.params.get("fs")
        return f"{self.kind}/{name}"

    def arguments(self, quick: bool) -> Dict[str, object]:
        return {**self.params, **self.quick} if quick else dict(self.params)


def _fio(system: str, threads: int, queue_depth: int, duration: float,
         quick_duration: float) -> Cell:
    # 4 KB random ordered writes on one Optane 905P (the Fig. 10(b) cell).
    return Cell(
        "fio",
        dict(system=system, threads=threads, queue_depth=queue_depth,
             warmup=0.5e-3, duration=duration),
        quick=dict(warmup=0.1e-3, duration=quick_duration),
    )


WORKLOADS: Dict[str, Tuple[Cell, ...]] = {
    # Closed loop, 4 threads x QD 32: ~10K ops at ~512 simulated kIOPS.
    "fio-qd32-rio": (_fio("rio", 4, 32, 20e-3, 0.5e-3),),
    # Closed loop, 1 thread x QD 1 on each system in turn: ~10K ops.
    "fio-qd1-sync": tuple(_fio(system, 1, 1, 100e-3, 2e-3)
                          for system in ("linux", "horae", "rio")),
    # Closed loop, Fig. 15(a) Varmail with 4 threads: ~9K filebench ops.
    "varmail-fs": tuple(
        Cell("varmail",
             dict(fs=fs, journals=journals, threads=4, warmup=1e-3,
                  duration=40e-3),
             quick=dict(warmup=0.2e-3, duration=2e-3))
        for fs, journals in (("riofs", 24), ("ext4", 1))
    ),
    # Open loop, Poisson arrivals scheduled in simulated time.
    "open-loop": (
        # The rio knee cell of `repro saturate` on the default layout.
        Cell("saturate",
             dict(system="rio", layout="optane", offered_kiops=400,
                  initiators=2, tenants=4, duration=10e-3),
             quick=dict(duration=0.5e-3)),
        # The `repro tenants --storm` cell: ~300 ops against ~19K sheds.
        Cell("storm", dict(system="rio", qos=True, duration=12e-3),
             quick=dict(duration=1e-3)),
    ),
}
