"""Lifecycle spans: open/close intervals forming per-request trees.

A :class:`Span` is one timed interval of a request's life in one layer
(``fs.journal``, ``block.mq``, ``initiator.queue``, ``fabric.transfer``,
``target.admit``, ``ssd.service``, ``completion``).  Instrumented
components open a span when a request enters the layer and close it when
the layer is done with it; the ``parent`` link makes the collection a
forest of per-request trees.

The recorder enforces interval nesting *by construction* so the span tree
is always well-formed, even under fault injection:

* opening a child after its parent already closed detaches the child into
  a root span tagged ``late=1`` (e.g. a retransmitted command arriving at
  the target after a duplicate ack already completed the original);
* closing a child after its (closed) parent's end detaches it and tags it
  ``escaped=1`` (e.g. a gate-stalled twin that outlives the fabric span).

On fault-free runs neither tag ever appears — the property suite asserts
exactly that, which is what actually tests instrumentation ordering.

Every close feeds a ``span.<name>.seconds`` histogram in the owning
:class:`~repro.sim.obs.metrics.MetricsRegistry`.  With no observability
attached, the instrumentation in the hot paths is a single attribute
check (``env.obs is None``), schedules no events and draws no RNG — sim
timing is bit-identical to an uninstrumented run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    """One open/close interval in a request's lifecycle tree."""

    sid: int
    name: str
    start: float
    parent: Optional["Span"] = None
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def parent_sid(self) -> int:
        return self.parent.sid if self.parent is not None else 0

    def __repr__(self) -> str:
        state = f"end={self.end!r}" if self.closed else "open"
        return f"<Span {self.sid} {self.name} start={self.start!r} {state}>"


class SpanRecorder:
    """Collects spans; capacity-bounded like the observability event log.

    Beyond ``capacity`` spans the recorder stops *storing* (counting drops)
    but keeps returning live :class:`Span` objects so open/close chains and
    parent links of in-flight requests still work.
    """

    def __init__(self, env, capacity: int = 500_000, metrics=None):
        self.env = env
        self.capacity = capacity
        self.metrics = metrics
        self.spans: List[Span] = []
        self.dropped = 0
        self._sids = count(1)

    # -- recording ---------------------------------------------------------

    def open(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        now = self.env.now
        if parent is not None and parent.closed and now > parent.end:
            # The parent interval is already over: a retransmission or
            # replay arriving late.  Root it so nesting stays invariant.
            attrs["late"] = 1
            parent = None
        span = Span(sid=next(self._sids), name=name, start=now,
                    parent=parent, attrs=attrs)
        if len(self.spans) < self.capacity:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def close(self, span: Optional[Span], **attrs) -> None:
        """Close ``span`` now (no-op for ``None`` or already-closed spans)."""
        if span is None or span.closed:
            return
        span.end = self.env.now
        if attrs:
            span.attrs.update(attrs)
        parent = span.parent
        if parent is not None and parent.closed and span.end > parent.end:
            # Outlived its parent (possible only under faults): detach so
            # child-nested-in-parent holds for every parented span.
            span.parent = None
            span.attrs["escaped"] = 1
        if self.metrics is not None:
            self.metrics.observe(f"span.{span.name}.seconds",
                                 span.end - span.start)

    # -- querying ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if not s.closed]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent is span]

    def walk(self, span: Span) -> Iterator[Span]:
        """Depth-first traversal of ``span``'s subtree (including itself)."""
        yield span
        for child in self.children_of(span):
            yield from self.walk(child)
