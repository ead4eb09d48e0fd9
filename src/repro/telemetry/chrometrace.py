"""Chrome-trace-event / Perfetto JSON export of wall-clock spans.

Renders a list of :class:`~repro.telemetry.spans.SpanRecord` as the
Trace Event Format consumed by ``chrome://tracing``, Perfetto
(https://ui.perfetto.dev) and Speedscope: a JSON object with a
``traceEvents`` array of complete ("ph": "X") events, timestamps and
durations in *microseconds*, grouped by pid/tid lanes.  Process
metadata events name each lane, so spans from several processes read as
``parent`` plus one ``worker-<pid>`` row per other process, on one
shared time axis.

The exporter is pure data-in/data-out (no I/O beyond
:func:`write_chrome_trace`), so tests can validate the schema directly.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from .spans import SpanRecord

#: Schema constants of the Trace Event Format.
COMPLETE_EVENT = "X"
METADATA_EVENT = "M"
DISPLAY_UNIT = "ms"


def _as_record(span) -> SpanRecord:
    if isinstance(span, SpanRecord):
        return span
    return SpanRecord.from_dict(span)


def to_chrome_trace(spans: Iterable, *, parent_pid: Optional[int] = None,
                    metadata: Optional[dict] = None) -> dict:
    """Convert span records (objects or dicts) to a trace-event document.

    ``parent_pid`` names that process's lane "parent" (workers are named
    ``worker-<pid>``); extra ``metadata`` lands in the document's
    ``otherData`` block, which Perfetto shows in the trace info panel.
    """
    records = [_as_record(s) for s in spans]
    events: List[dict] = []
    seen_pids: Dict[int, bool] = {}
    origin = min((r.start for r in records), default=0.0)
    for r in records:
        events.append({
            "name": r.name,
            "cat": r.category or "span",
            "ph": COMPLETE_EVENT,
            "ts": round((r.start - origin) * 1e6, 3),
            "dur": round(r.duration * 1e6, 3),
            "pid": r.pid,
            "tid": r.tid,
            "args": dict(r.args, trace_id=r.trace_id, span_id=r.span_id,
                         parent_id=r.parent_id),
        })
        seen_pids.setdefault(r.pid, True)
    for pid in sorted(seen_pids):
        name = "parent" if pid == parent_pid else f"worker-{pid}"
        events.append({
            "name": "process_name",
            "ph": METADATA_EVENT,
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        })
    other = {"origin_epoch_s": origin}
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": events,
        "displayTimeUnit": DISPLAY_UNIT,
        "otherData": other,
    }


def write_chrome_trace(path: str, spans: Iterable, *,
                       parent_pid: Optional[int] = None,
                       metadata: Optional[dict] = None) -> dict:
    """Write the trace-event JSON to ``path``; returns the document."""
    doc = to_chrome_trace(spans, parent_pid=parent_pid, metadata=metadata)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return doc


def validate_chrome_trace(doc: dict) -> List[str]:
    """Schema problems in a trace-event document ([] when valid).

    Checks the subset of the Trace Event Format this exporter emits:
    every event needs ``name``/``ph``/``pid``/``tid``; complete events
    need non-negative microsecond ``ts`` and ``dur``; the document must
    be JSON-serializable.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in (COMPLETE_EVENT, METADATA_EVENT):
            problems.append(f"event {i}: unexpected ph {ph!r}")
        if ph == COMPLETE_EVENT:
            for key in ("ts", "dur"):
                value = ev.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"event {i}: bad {key}: {value!r}")
    try:
        json.dumps(doc)
    except (TypeError, ValueError) as exc:
        problems.append(f"not JSON-serializable: {exc}")
    return problems


def phase_totals(spans: Sequence, names: Sequence[str]) -> Dict[str, float]:
    """Total seconds per listed span name (0.0 for absent names)."""
    totals = {name: 0.0 for name in names}
    for span in spans:
        r = _as_record(span)
        if r.name in totals:
            totals[r.name] += r.duration
    return totals
