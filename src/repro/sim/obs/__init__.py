"""Request-lifecycle observability: spans, events, metrics, exporters.

Attach an :class:`Observability` to an environment **before** building the
cluster/stack and every bio/command grows a lifecycle span tree::

    fs.journal
    └── block.mq                (one per bio)
        ├── initiator.queue     (one per request fragment; ends at dispatch)
        └── fabric.transfer     (one per NVMe-oF command)
            ├── target.admit    (target-side processing incl. gate stalls)
            │   └── ssd.service (one per DiskIO actually submitted)
            └── completion      (initiator completion-interrupt path)

while components publish counters/gauges/histograms into the attached
:class:`~repro.sim.obs.metrics.MetricsRegistry`, and every
``env.trace(category, event, **fields)`` site (SSD service, driver
retries, fabric faults, the Rio gate, scheduler merges, sequencer
releases) appends a :class:`TraceEvent` to :attr:`Observability.events`.
Usage::

    env = Environment()
    obs = Observability(env)            # attaches as env.obs
    cluster = Cluster(env, ...)         # components register gauges
    ... run a workload ...
    obs.spans.by_name("ssd.service")    # query the span forest
    obs.metrics.snapshot()              # point-in-time metrics view
    [e for e in obs.events if e.category == "rio.gate"]

With no observability attached (``env.obs is None``, the default) every
instrumentation site is a single attribute check: no events, no RNG, no
allocation — simulation behavior is bit-identical to the uninstrumented
engine (the zero-overhead equivalence suite enforces this).

Exporters live in :mod:`repro.sim.obs.export` (Chrome ``trace_event``
JSON, CSV/JSON metrics) and are wired into ``python -m repro trace`` /
``python -m repro metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.obs.metrics import Histogram, MetricsRegistry
from repro.sim.obs.spans import Span, SpanRecorder

__all__ = ["Observability", "TraceEvent", "Span", "SpanRecorder",
           "Histogram", "MetricsRegistry"]


@dataclass(frozen=True)
class TraceEvent:
    """One instrumented occurrence."""

    time: float
    category: str
    event: str
    fields: tuple  # sorted (key, value) pairs

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"{self.time * 1e6:10.2f}us  {self.category:<12} {self.event:<18} {details}"


class Observability:
    """Span recorder, event log and metrics registry for one environment.

    The span forest and the event log each keep at most ``capacity``
    entries and count what they drop beyond it.
    """

    def __init__(self, env, capacity: int = 500_000, attach: bool = True):
        self.env = env
        self.capacity = capacity
        self.metrics = MetricsRegistry(env)
        self.spans = SpanRecorder(env, capacity=capacity, metrics=self.metrics)
        #: Categorized instant events, in emission order.
        self.events: List[TraceEvent] = []
        self.events_dropped = 0
        if attach:
            env.obs = self

    def record(self, time: float, category: str, event: str,
               fields: dict) -> None:
        """Append one :class:`TraceEvent` (dropped and counted when full);
        :meth:`Environment.trace` is the caller."""
        if len(self.events) >= self.capacity:
            self.events_dropped += 1
            return
        self.events.append(TraceEvent(time, category, event,
                                      tuple(sorted(fields.items()))))

    def detach(self) -> None:
        if getattr(self.env, "obs", None) is self:
            self.env.obs = None
