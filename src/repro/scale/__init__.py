"""Scale-out plane: sharded multi-initiator clusters + load generators.

The paper's headline claim is CPU-efficient ordering *at scale* (§3.2,
§6, Figs. 10-12); this package is the fan-in testbed that claim is
exercised on:

* :mod:`repro.scale.cluster` — the repo's one testbed assembly:
  :class:`ScaleOutCluster` (N initiator hosts, each a
  :class:`ScaleNode` with its own CPU set, NVMe-oF driver and
  connections, fanning into M shared targets over one fabric, with
  per-core connection sharding and IRQ/completion steering; the
  single-initiator :class:`repro.cluster.Cluster` is its N=1 subclass),
  :class:`StreamDirectory` (§4.9's "distributed sequencer service":
  disjoint global stream-id ranges per initiator) and
  :class:`ShardedStack` (one ordered-stack facade over the per-node
  stacks, routing global streams to their owning node).
* :mod:`repro.scale.loadgen` — open-loop (fixed-rate Poisson) and
  closed-loop (think-time-bounded) per-tenant load generators that
  drive a :class:`ShardedStack` and record completion latencies.

The saturation experiment over this plane lives in
:mod:`repro.harness.saturate` (``repro saturate``).
"""

from repro.scale.cluster import (
    ScaleNode,
    ScaleOutCluster,
    ShardedStack,
    StreamDirectory,
)
from repro.scale.loadgen import (
    ClosedLoopConfig,
    LoadgenResult,
    OpenLoopConfig,
    run_closed_loop,
    run_open_loop,
)

__all__ = [
    "ScaleNode",
    "ScaleOutCluster",
    "ShardedStack",
    "StreamDirectory",
    "OpenLoopConfig",
    "ClosedLoopConfig",
    "LoadgenResult",
    "run_open_loop",
    "run_closed_loop",
]
