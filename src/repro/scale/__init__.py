"""Scale-out plane: sharded multi-initiator clusters + an open-loop
load generator.

The paper's headline claim is CPU-efficient ordering *at scale* (§3.2,
§6, Figs. 10-12); this package is the fan-in testbed that claim is
exercised on:

* :mod:`repro.scale.cluster` — the repo's one testbed assembly:
  :class:`ScaleOutCluster` (N initiator hosts, each a
  :class:`ScaleNode` with its own CPU set, NVMe-oF driver and
  connections, fanning into M shared targets over one fabric, with
  per-core connection sharding and IRQ/completion steering; the
  single-initiator :class:`repro.cluster.Cluster` is its N=1 subclass)
  and :class:`StreamDirectory` (§4.9's "distributed sequencer service":
  disjoint global stream-id ranges per initiator).  Stacks go on it
  through :func:`repro.systems.base.make_stack`, which routes global
  streams to their owning node when N > 1.
* :mod:`repro.scale.loadgen` — the open-loop (fixed-rate Poisson)
  per-tenant load generator that drives any ordered stack and records
  completion latencies.  Fixed-depth closed loops are
  :func:`repro.apps.fio.run_block_workload`.

The saturation experiment over this plane lives in
:mod:`repro.harness.saturate` (``repro saturate``).
"""

from repro.scale.cluster import (
    ScaleNode,
    ScaleOutCluster,
    StreamDirectory,
)
from repro.scale.loadgen import (
    LoadgenResult,
    OpenLoopConfig,
    run_open_loop,
)

__all__ = [
    "ScaleNode",
    "ScaleOutCluster",
    "StreamDirectory",
    "OpenLoopConfig",
    "LoadgenResult",
    "run_open_loop",
]
