"""Exporters: Chrome ``trace_event`` JSON and flat CSV/JSON metrics dumps.

The Chrome trace uses the JSON Object Format (``{"traceEvents": [...]}``)
with complete ("X") events — one per closed span, timestamps in
microseconds as the format requires — plus one instant ("i") event per
entry of the observability event log and process-name metadata so
``chrome://tracing`` / Perfetto group rows by host (initiator vs each
target).  ``pid`` is the host a span ran on; ``tid`` is the stream or
queue pair when known.

``validate_chrome_trace`` checks a document against
:data:`CHROME_TRACE_SCHEMA` — via ``jsonschema`` when available, with an
equivalent manual structural check otherwise (the container image may not
ship ``jsonschema``).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Optional

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "metrics_rows",
    "metrics_csv",
    "metrics_json",
]

_EVENT_PHASES = ("X", "B", "E", "i", "I", "M", "C")

CHROME_TRACE_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "ts", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"type": "string", "enum": list(_EVENT_PHASES)},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "pid": {"type": ["string", "integer"]},
                    "tid": {"type": ["string", "integer"]},
                    "cat": {"type": "string"},
                    "s": {"type": "string"},
                    "args": {"type": "object"},
                },
                "if": {"properties": {"ph": {"const": "X"}}},
                "then": {"required": ["dur"]},
            },
        },
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
    },
}


def _span_pid(span) -> str:
    return str(span.attrs.get("host", "sim"))


def _span_tid(span) -> Any:
    for key in ("stream", "qp", "core", "dev"):
        if key in span.attrs:
            return f"{key}{span.attrs[key]}" if key != "dev" else str(span.attrs[key])
    return 0


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def chrome_trace(obs) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from an
    :class:`~repro.sim.obs.Observability` (open spans are skipped —
    export after the workload has quiesced)."""
    events: List[Dict[str, Any]] = []
    hosts = set()
    for span in obs.spans.spans:
        if not span.closed:
            continue
        pid = _span_pid(span)
        hosts.add(pid)
        args = {k: _jsonable(v) for k, v in sorted(span.attrs.items())
                if k != "host"}
        args["sid"] = span.sid
        args["parent"] = span.parent_sid
        events.append({
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid,
            "tid": _span_tid(span),
            "args": args,
        })
    if obs.events:
        for event in obs.events:
            events.append({
                "name": f"{event.category}.{event.event}",
                "cat": event.category,
                "ph": "i",
                "s": "g",
                "ts": event.time * 1e6,
                "pid": "sim",
                "tid": 0,
                "args": {k: _jsonable(v) for k, v in event.fields},
            })
        hosts.add("sim")
    metadata = [
        {"name": "process_name", "ph": "M", "ts": 0, "pid": host, "tid": 0,
         "args": {"name": host}}
        for host in sorted(hosts)
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(obs, path: str) -> Dict[str, Any]:
    doc = chrome_trace(obs)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def validate_chrome_trace(doc: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid trace_event document."""
    try:
        import jsonschema
    except ImportError:
        jsonschema = None
    if jsonschema is not None:
        try:
            jsonschema.validate(doc, CHROME_TRACE_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise ValueError(f"invalid Chrome trace: {exc.message}") from exc
        return
    # Manual fallback mirroring CHROME_TRACE_SCHEMA.
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("invalid Chrome trace: missing traceEvents")
    if not isinstance(doc["traceEvents"], list):
        raise ValueError("invalid Chrome trace: traceEvents must be a list")
    for index, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"invalid Chrome trace: event {index} not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(
                    f"invalid Chrome trace: event {index} missing {key!r}"
                )
        if event["ph"] not in _EVENT_PHASES:
            raise ValueError(
                f"invalid Chrome trace: event {index} has bad phase "
                f"{event['ph']!r}"
            )
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            raise ValueError(f"invalid Chrome trace: event {index} bad ts")
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError(f"invalid Chrome trace: event {index} X needs dur")


# ----------------------------------------------------------------------
# Flat metrics dumps
# ----------------------------------------------------------------------

_ROW_FIELDS = ["name", "kind", "value", "count", "total", "mean", "min",
               "max", "p50", "p99"]


def metrics_rows(registry, snapshot: Optional[Dict[str, Any]] = None
                 ) -> List[Dict[str, Any]]:
    """One flat row per metric (counters, gauges, histogram summaries)."""
    snap = snapshot if snapshot is not None else registry.snapshot()
    rows: List[Dict[str, Any]] = []
    for name, value in snap["counters"].items():
        rows.append({"name": name, "kind": "counter", "value": value})
    for name, value in snap["gauges"].items():
        rows.append({"name": name, "kind": "gauge", "value": value})
    for name, summary in snap["histograms"].items():
        row = {"name": name, "kind": "histogram"}
        row.update(summary)
        rows.append(row)
    return rows


def metrics_csv(registry, snapshot: Optional[Dict[str, Any]] = None) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=_ROW_FIELDS, restval="")
    writer.writeheader()
    for row in metrics_rows(registry, snapshot):
        writer.writerow(row)
    return out.getvalue()


def metrics_json(registry, snapshot: Optional[Dict[str, Any]] = None) -> str:
    snap = snapshot if snapshot is not None else registry.snapshot()
    return json.dumps(snap, indent=1, sort_keys=True)
