"""Exporter tests: Chrome trace_event documents and flat metrics dumps."""

import builtins
import csv
import io
import json

import pytest

from repro.sim.engine import Environment
from repro.sim.obs import Observability
from repro.sim.obs.export import (
    chrome_trace,
    metrics_csv,
    metrics_json,
    metrics_rows,
    validate_chrome_trace,
    write_chrome_trace,
)


@pytest.fixture
def small_run():
    """A tiny hand-built span forest: two hosts, one open span."""
    env = Environment()
    obs = Observability(env)

    def script():
        a = obs.spans.open("block.mq", host="initiator", stream=2, bio=1)
        b = obs.spans.open("ssd.service", parent=a, host="target0",
                           dev="target0-ssd0")
        env.trace("ssd", "write", lba=8)
        yield env.timeout(1e-6)
        obs.spans.close(b)
        obs.spans.close(a, status=0)
        obs.spans.open("fabric.transfer", host="initiator")  # stays open

    env.run_until_event(env.process(script()))
    return env, obs


def test_chrome_trace_structure(small_run):
    env, obs = small_run
    doc = chrome_trace(obs)
    validate_chrome_trace(doc)
    events = doc["traceEvents"]
    x = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    inst = [e for e in events if e["ph"] == "i"]
    # One X event per *closed* span; the open fabric span is skipped.
    assert len(x) == 2
    assert {e["pid"] for e in x} == {"initiator", "target0"}
    # Timestamps/durations are microseconds.
    mq = next(e for e in x if e["name"] == "block.mq")
    assert mq["ts"] == 0.0
    assert mq["dur"] == pytest.approx(1.0)
    assert mq["tid"] == "stream2"
    assert mq["args"]["status"] == 0
    assert mq["args"]["parent"] == 0
    svc = next(e for e in x if e["name"] == "ssd.service")
    assert svc["tid"] == "target0-ssd0"
    assert svc["args"]["parent"] == mq["args"]["sid"]
    # process_name metadata for every host (incl. "sim" for logged events).
    assert {e["args"]["name"] for e in meta} == {"initiator", "target0",
                                                "sim"}
    # Logged instant events ride along, one per obs.events entry; spans
    # are X events only.
    assert [e["name"] for e in inst] == [
        f"{e.category}.{e.event}" for e in obs.events] == ["ssd.write"]
    assert doc["displayTimeUnit"] == "ms"


def test_write_chrome_trace_roundtrip(small_run, tmp_path):
    env, obs = small_run
    path = tmp_path / "trace.json"
    doc = write_chrome_trace(obs, str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(doc))
    validate_chrome_trace(on_disk)


@pytest.mark.parametrize("bad, message", [
    ([], "traceEvents"),
    ({"traceEvents": {}}, "list"),
    ({"traceEvents": [{"ph": "X", "ts": 0, "pid": 0, "tid": 0}]}, "name"),
    ({"traceEvents": [{"name": "x", "ph": "Z", "ts": 0, "pid": 0,
                       "tid": 0}]}, ""),
    ({"traceEvents": [{"name": "x", "ph": "X", "ts": -1, "pid": 0,
                       "tid": 0, "dur": 1}]}, ""),
    ({"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 0,
                       "tid": 0}]}, ""),
])
def test_validate_rejects_malformed(bad, message):
    with pytest.raises(ValueError, match="invalid Chrome trace"):
        validate_chrome_trace(bad)


def test_validate_manual_fallback(small_run, monkeypatch):
    """Same verdicts with jsonschema made unimportable."""
    env, obs = small_run
    real_import = builtins.__import__

    def no_jsonschema(name, *args, **kwargs):
        if name == "jsonschema":
            raise ImportError("blocked for test")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", no_jsonschema)
    validate_chrome_trace(chrome_trace(obs))
    with pytest.raises(ValueError, match="invalid Chrome trace"):
        validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X",
                                                "ts": 0, "pid": 0,
                                                "tid": 0}]})


def test_metrics_rows_and_csv():
    env = Environment()
    obs = Observability(env)
    obs.metrics.inc("fabric.messages_delivered", 3)
    obs.metrics.set_gauge("queue.depth", 2)
    obs.metrics.observe("span.ssd.service.seconds", 5e-6)
    rows = metrics_rows(obs.metrics)
    kinds = {row["name"]: row["kind"] for row in rows}
    assert kinds == {
        "fabric.messages_delivered": "counter",
        "queue.depth": "gauge",
        "span.ssd.service.seconds": "histogram",
    }
    text = metrics_csv(obs.metrics)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 3
    counter = next(r for r in parsed if r["kind"] == "counter")
    assert counter["value"] == "3"
    assert counter["count"] == ""  # histogram-only columns stay blank
    histo = next(r for r in parsed if r["kind"] == "histogram")
    assert histo["count"] == "1"
    assert float(histo["mean"]) == pytest.approx(5e-6)


def test_metrics_json_parses_and_snapshot_reuse():
    env = Environment()
    obs = Observability(env)
    obs.metrics.inc("journal.commits")
    snap = obs.metrics.snapshot()
    obs.metrics.inc("journal.commits")  # after the snapshot: not in dump
    doc = json.loads(metrics_json(obs.metrics, snapshot=snap))
    assert doc["counters"]["journal.commits"] == 1
    assert doc["time"] == 0.0
