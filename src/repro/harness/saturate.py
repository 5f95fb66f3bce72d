"""Saturation experiment: offered-load sweeps over the scale-out plane.

For each compared system, drive a sharded multi-initiator cluster
(:mod:`repro.scale`) with an open-loop Poisson load generator at an
ascending grid of offered loads and record, per load point:

* achieved throughput (the throughput-latency curve's x-axis),
* completion latency percentiles p50/p99/p999 (the y-axis — measured
  from *intended arrival time*, so queueing delay past the knee counts),
* busy cores on the initiator hosts and the targets (the
  busy-cores-vs-IOPS curve), and
* IOPS per busy initiator core — the paper's §6.1 CPU-efficiency metric
  at that load point.

The sweep decomposes into one independent, seeded simulation cell per
(system, offered load): cells fan out across ``--jobs`` workers and
memoize in the on-disk result cache, and because the reduce consumes
results in spec order, a parallel or cache-warm run is bit-identical to
a serial cold one (asserted by ``tests/harness/test_sweep.py``).

Entry points: ``repro saturate`` (CLI), :func:`saturation_sweep` (the
sweep of a ``saturate`` :class:`~repro.spec.ScenarioSpec`, which
:func:`repro.spec.run_scenario` runs), :func:`knee_point` (locate where
a curve saturates).  The default grid lives in the spec's workload
table (:mod:`repro.spec.scenario`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.harness.experiment import LAYOUTS, FigureResult
from repro.harness.sweep import RunSpec, Sweep
from repro.systems.base import make_stack

__all__ = [
    "probe_saturation",
    "saturation_sweep",
    "knee_point",
]

#: A load point "keeps up" while achieved >= this fraction of offered;
#: the knee is the last such point.
KNEE_THRESHOLD = 0.9

#: Simulated seconds of open-loop traffic before each measured window
#: (saturation, tenant and overload cells alike).
WARMUP = 0.5e-3


def probe_saturation(
    system: str,
    layout: str,
    offered_kiops: float,
    initiators: int = 2,
    tenants: int = 4,
    duration: float = 2e-3,
    steering: str = "pin",
    seed: int = 42,
) -> Dict[str, float]:
    """One saturation cell: fresh scale-out testbed, one open-loop run
    of 1-block random writes, measured for ``duration`` after a
    :data:`WARMUP`.

    Top-level and scalar-valued so the sweep runner can execute it in a
    worker process and key it in the content-addressed result cache.
    """
    from repro.scale import (
        OpenLoopConfig,
        ScaleOutCluster,
        run_open_loop,
    )
    from repro.sim.engine import Environment

    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (have {sorted(LAYOUTS)})")
    env = Environment()
    cluster = ScaleOutCluster(
        env, LAYOUTS[layout], num_initiators=initiators, seed=seed,
        steering=steering,
    )
    stack = make_stack(system, cluster, num_streams=max(tenants, 1))
    run = run_open_loop(
        cluster, stack,
        OpenLoopConfig(
            offered_iops=offered_kiops * 1e3, tenants=tenants,
            duration=duration, warmup=WARMUP, seed=seed,
        ),
    )
    return {
        "offered_kiops": offered_kiops,
        "achieved_kiops": run.achieved_iops / 1e3,
        "p50_us": run.latency.p50 * 1e6,
        "p99_us": run.latency.p99 * 1e6,
        "p999_us": run.latency.p999 * 1e6,
        "initiator_busy_cores": run.initiator_busy_cores,
        "target_busy_cores": run.target_busy_cores,
        "kiops_per_core": run.iops_per_busy_core / 1e3,
        "samples": float(run.latency.count),
    }


def saturation_sweep(spec) -> Sweep:
    """The saturation experiment of a ``saturate``
    :class:`~repro.spec.ScenarioSpec` as independent cells + a reduce
    step."""
    workload, topology = spec.workload, spec.topology
    systems = workload["systems"]
    layout, initiators = topology["layout"], topology["initiators"]
    steering, tenants = topology["steering"], workload["tenants"]
    loads = sorted(workload["loads_kiops"])
    cells = [(system, load) for system in systems for load in loads]
    specs = [
        RunSpec.make(
            probe_saturation,
            label=f"saturate/{system}/{load:g}k",
            system=system, layout=layout, offered_kiops=load,
            initiators=initiators, tenants=tenants,
            duration=workload["duration"], steering=steering,
            seed=workload["seed"],
        )
        for system, load in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Saturation",
            description=(
                f"open-loop offered-load sweep, {layout}, "
                f"{initiators} initiator(s) x {tenants} tenant(s), "
                f"steering={steering}: throughput-latency and "
                "busy-cores-vs-IOPS curves"
            ),
            headers=[
                "system", "offered_kiops", "achieved_kiops",
                "p50_us", "p99_us", "p999_us",
                "initiator_cpu", "target_cpu", "kiops_per_core",
            ],
        )
        for (system, _load), run in zip(cells, results):
            result.add(
                system=system,
                offered_kiops=run["offered_kiops"],
                achieved_kiops=round(run["achieved_kiops"], 1),
                p50_us=round(run["p50_us"], 2),
                p99_us=round(run["p99_us"], 2),
                p999_us=round(run["p999_us"], 2),
                initiator_cpu=round(run["initiator_busy_cores"], 3),
                target_cpu=round(run["target_busy_cores"], 3),
                kiops_per_core=round(run["kiops_per_core"], 1),
            )
        for system in systems:
            knee = knee_point(result, system)
            if knee is not None:
                result.notes.append(
                    f"{system} knee: {knee['achieved_kiops']:g} kIOPS "
                    f"achieved at {knee['offered_kiops']:g} kIOPS offered, "
                    f"{knee['kiops_per_core']:g} kIOPS per busy "
                    "initiator core"
                )
        return result

    return Sweep(name="saturate", specs=specs, reduce=reduce)


def knee_point(result: FigureResult, system: str,
               threshold: float = KNEE_THRESHOLD) -> Optional[Dict]:
    """The last load point where ``system`` still keeps up with the
    offered rate (achieved >= threshold * offered); falls back to the
    highest-throughput row when it never does."""
    rows = result.series(system=system)
    if not rows:
        return None
    keeping_up = [
        row for row in rows
        if row["offered_kiops"] > 0
        and row["achieved_kiops"] >= threshold * row["offered_kiops"]
    ]
    if keeping_up:
        return max(keeping_up, key=lambda row: row["offered_kiops"])
    return max(rows, key=lambda row: row["achieved_kiops"])
