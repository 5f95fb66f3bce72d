"""Unit tests: span recorder, nesting enforcement, metrics registry."""

import pytest

from repro.sim.engine import Environment
from repro.sim.obs import Observability
from repro.sim.obs.metrics import Histogram, MetricsRegistry
from repro.sim.obs.spans import SpanRecorder


def drive(env, script):
    env.run_until_event(env.process(script()))


def test_observability_attaches_and_detaches():
    env = Environment()
    assert env.obs is None
    obs = Observability(env)
    assert env.obs is obs
    assert obs.spans.metrics is obs.metrics
    obs.detach()
    assert env.obs is None


def test_span_open_close_and_queries():
    env = Environment()
    obs = Observability(env)
    rec = obs.spans

    def script():
        a = rec.open("block.mq", host="initiator", bio=7)
        b = rec.open("initiator.queue", parent=a, stream=3)
        yield env.timeout(1e-6)
        rec.close(b, dispatched=1)
        yield env.timeout(1e-6)
        rec.close(a, status=0)

    drive(env, script)
    assert len(rec) == 2
    a, b = rec.spans
    assert a.closed and b.closed
    assert b.parent is a and b.parent_sid == a.sid
    assert a.parent_sid == 0
    assert b.duration == pytest.approx(1e-6)
    assert a.duration == pytest.approx(2e-6)
    assert a.attrs["status"] == 0 and b.attrs["dispatched"] == 1
    assert rec.by_name("block.mq") == [a]
    assert rec.roots() == [a]
    assert rec.children_of(a) == [b]
    assert list(rec.walk(a)) == [a, b]
    assert rec.open_spans() == []


def test_close_is_noop_for_none_and_closed():
    env = Environment()
    rec = SpanRecorder(env)
    rec.close(None)
    span = rec.open("x")
    rec.close(span, first=1)
    end = span.end
    rec.close(span, second=1)  # already closed: ignored
    assert span.end == end
    assert "second" not in span.attrs


def test_late_open_detaches_and_tags():
    env = Environment()
    rec = SpanRecorder(env)

    def script():
        parent = rec.open("fabric.transfer")
        yield env.timeout(1e-6)
        rec.close(parent)
        yield env.timeout(1e-6)
        child = rec.open("target.admit", parent=parent)
        assert child.parent is None
        assert child.attrs["late"] == 1
        rec.close(child)

    drive(env, script)


def test_escaped_close_detaches_and_tags():
    env = Environment()
    rec = SpanRecorder(env)

    def script():
        parent = rec.open("fabric.transfer")
        child = rec.open("target.admit", parent=parent)
        yield env.timeout(1e-6)
        rec.close(parent)
        yield env.timeout(1e-6)
        rec.close(child)
        assert child.parent is None
        assert child.attrs["escaped"] == 1
        # Nesting invariant holds for every *parented* span.
        for span in rec.spans:
            if span.parent is not None:
                assert span.start >= span.parent.start
                assert span.end <= span.parent.end

    drive(env, script)


def test_capacity_drops_but_keeps_live_spans():
    env = Environment()
    rec = SpanRecorder(env, capacity=2)
    spans = [rec.open(f"s{i}") for i in range(4)]
    assert len(rec) == 2
    assert rec.dropped == 2
    for span in spans:
        rec.close(span)
    assert all(span.closed for span in spans)


def test_span_close_feeds_histogram_not_events():
    env = Environment()
    obs = Observability(env)

    def script():
        span = obs.spans.open("ssd.service", dev="ssd0")
        yield env.timeout(2e-6)
        obs.spans.close(span)

    drive(env, script)
    histo = obs.metrics.histograms["span.ssd.service.seconds"]
    assert histo.count == 1
    assert histo.mean == pytest.approx(2e-6)
    # Spans live in the span forest only, not again in the event log.
    assert [e for e in obs.events if e.category == "span"] == []


def test_metrics_counters_gauges_snapshot():
    env = Environment()
    m = MetricsRegistry(env)
    m.inc("a")
    m.inc("a", 4)
    m.set_gauge("depth", 3)
    backing = {"v": 10}
    m.register_gauge("live", lambda: backing["v"])
    m.register_gauge("live", lambda: backing["v"] * 2)  # last wins
    m.observe("lat", 1e-6)
    m.observe("lat", 3e-6)
    snap = m.snapshot()
    assert snap["time"] == env.now
    assert snap["counters"]["a"] == 5
    assert snap["gauges"]["depth"] == 3
    assert snap["gauges"]["live"] == 20
    backing["v"] = 11
    assert m.snapshot()["gauges"]["live"] == 22
    lat = snap["histograms"]["lat"]
    assert lat["count"] == 2
    assert lat["mean"] == pytest.approx(2e-6)


def test_histogram_percentiles():
    h = Histogram()
    for i in range(1, 101):
        h.observe(i * 1e-6)
    assert h.count == 100
    assert h.min == pytest.approx(1e-6)
    assert h.max == pytest.approx(100e-6)
    # Bucketed percentile: right bucket edge, quarter-decade resolution.
    assert h.percentile(0.50) == pytest.approx(50e-6, rel=0.8)
    assert h.percentile(0.99) >= h.percentile(0.50)
    with pytest.raises(ValueError):
        h.percentile(50)
    summary = h.summary()
    assert set(summary) == {"count", "total", "mean", "min", "max",
                            "p50", "p99"}


def test_empty_histogram_summary():
    h = Histogram()
    assert h.count == 0
    assert h.percentile(0.5) == 0.0
    assert h.summary()["mean"] == 0.0
