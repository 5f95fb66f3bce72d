"""Observability harness: traced runs and span-based figure reconstruction.

:func:`traced_fsync_run` is the fixed-seed workload behind ``repro trace``,
``repro metrics`` and the golden-trace regression suite: one thread doing
``iterations`` append+fsync pairs against a fresh cluster, with an
:class:`~repro.sim.obs.Observability` attached *before* the cluster is
built (so construction-time gauge registrations land in the registry).
It deliberately mirrors
:func:`repro.harness.figures.fig14_latency_breakdown`'s worker, which lets
:func:`fig14_breakdown_from_spans` reconstruct the same figure purely from
the span forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.fs.filesystem import make_filesystem
from repro.harness.experiment import FigureResult, build_cluster
from repro.sim.engine import Environment
from repro.sim.obs import Observability
from repro.sim.obs.analysis import fig14_averages

__all__ = ["TracedRun", "traced_fsync_run", "fig14_breakdown_from_spans"]


@dataclass
class TracedRun:
    """One finished instrumented workload run."""

    kind: str
    env: Environment
    cluster: Any
    fs: Any
    obs: Observability


def traced_fsync_run(
    kind: str,
    layout: str = "optane",
    iterations: int = 8,
    seed: int = 42,
) -> TracedRun:
    """Run the Fig. 14 append+fsync probe with observability attached."""
    env = Environment()
    obs = Observability(env)
    cluster = build_cluster(layout, env=env, seed=seed)
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))

    def worker():
        core = cluster.initiator.cpus.pick(0)
        file = yield from fs.create(core, "probe")
        for _ in range(iterations):
            yield from fs.append(core, file, nblocks=1)
            yield from fs.fsync(core, file, thread_id=0)

    # Mirror fig14_latency_breakdown exactly: run to worker completion (a
    # full drain would never terminate — Rio's release acker is a perpetual
    # periodic process).  run_until_event drains same-timestamp callbacks,
    # so every span of the workload is closed when this returns.
    env.run_until_event(env.process(worker()))
    return TracedRun(kind=kind, env=env, cluster=cluster, fs=fs, obs=obs)


def fig14_breakdown_from_spans(
    layout: str = "optane",
    iterations: int = 50,
    kinds: Sequence[str] = ("ext4", "horaefs", "riofs"),
) -> FigureResult:
    """Figure 14, reconstructed from lifecycle spans instead of the
    journal's hand-maintained :class:`~repro.fs.journal.CommitBreakdown`
    accumulators (the differential test holds the two within 1%)."""
    result = FigureResult(
        name="Figure 14 (from spans)",
        description="fsync internal latency breakdown reconstructed from "
        "lifecycle spans (microseconds)",
        headers=["fs", "d_dispatch_us", "jm_dispatch_us", "jc_dispatch_us",
                 "total_us"],
    )
    for kind in kinds:
        run = traced_fsync_run(kind, layout=layout, iterations=iterations)
        result.add(fs=kind, **fig14_averages(run.obs.spans))
    return result
