"""Wall-clock spans with trace propagation.

:mod:`repro.telemetry.trace` deliberately measures *simulated I/Os* and
nothing else — reproducible, but blind to where real time goes.  Time
spent pickling answers, waiting in a queue or loading snapshots never
shows up in an I/O count.  This module is the latency-domain twin of the
I/O tracer:

* a :class:`SpanRecord` is one timed interval — name, wall-clock start
  and duration, the process/thread that ran it, and the ``trace_id`` of
  the request it belongs to;
* a :class:`WallTracer` collects records in one process; the module-level
  :func:`timed_span` hook records into the installed tracer and is a
  no-op when none is installed (same zero-cost-off contract as the I/O
  tracer);
* a :class:`SpanContext` is the picklable capsule sent across a process
  or wire hop; the receiver opens its own tracer *continuing the
  sender's trace id*, and its records can be adopted back
  (:meth:`WallTracer.extend`) into one coherent multi-process timeline.

Timestamps are ``time.time()`` (shared epoch clock) so spans from
different processes on the same host line up on one axis; durations are
measured with ``time.perf_counter()`` so they do not suffer wall-clock
steps.  Export with :mod:`repro.telemetry.chrometrace`.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Dict, Iterator, List, Optional

from contextlib import contextmanager


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (unique per request/run)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class SpanRecord:
    """One completed timed span, plain-data and picklable."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "pid", "tid",
                 "start", "duration", "category", "args")

    def __init__(self, name: str, trace_id: str, start: float,
                 duration: float, *, span_id: Optional[str] = None,
                 parent_id: Optional[str] = None, pid: Optional[int] = None,
                 tid: Optional[int] = None, category: str = "",
                 args: Optional[dict] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id or new_span_id()
        self.parent_id = parent_id
        self.pid = os.getpid() if pid is None else pid
        self.tid = threading.get_ident() if tid is None else tid
        self.start = start          # epoch seconds
        self.duration = duration    # seconds
        self.category = category
        self.args = dict(args) if args else {}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "start": self.start,
            "duration": self.duration,
            "category": self.category,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(
            data["name"], data["trace_id"], data["start"], data["duration"],
            span_id=data.get("span_id"), parent_id=data.get("parent_id"),
            pid=data.get("pid"), tid=data.get("tid"),
            category=data.get("category", ""), args=data.get("args"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecord({self.name!r}, trace={self.trace_id}, "
                f"pid={self.pid}, {self.duration * 1e3:.3f}ms)")


class SpanContext:
    """The picklable trace coordinates handed across a process or wire
    hop."""

    __slots__ = ("trace_id", "parent_id")

    def __init__(self, trace_id: str, parent_id: Optional[str] = None):
        self.trace_id = trace_id
        self.parent_id = parent_id

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "parent_id": self.parent_id}

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> Optional["SpanContext"]:
        if data is None:
            return None
        return cls(data["trace_id"], data.get("parent_id"))


#: The installed tracer, or ``None`` (the zero-cost-off slot).
_ACTIVE: Optional["WallTracer"] = None


def active() -> Optional["WallTracer"]:
    return _ACTIVE


class WallTracer:
    """Collects :class:`SpanRecord` objects for one process.

    A tracer carries one ``trace_id``; spans opened through it nest via
    an explicit stack so each record knows its parent.  Records recorded
    in another process are adopted with :meth:`extend` — a span created
    there from this tracer's :meth:`context` carries the same trace id,
    which is what the propagation tests pin.
    """

    def __init__(self, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None):
        self.trace_id = trace_id or new_trace_id()
        self.records: List[SpanRecord] = []
        self._parent_stack: List[Optional[str]] = [parent_id]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "",
             **args) -> Iterator[SpanRecord]:
        """Time a scope; the record is appended when the scope exits."""
        record = SpanRecord(
            name, self.trace_id, time.time(), 0.0,
            parent_id=self._parent_stack[-1], category=category, args=args,
        )
        self._parent_stack.append(record.span_id)
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - t0
            self._parent_stack.pop()
            self.records.append(record)

    def add(self, name: str, start: float, duration: float,
            category: str = "", **args) -> SpanRecord:
        """Record an interval measured externally (e.g. a dispatch gap)."""
        record = SpanRecord(
            name, self.trace_id, start, duration,
            parent_id=self._parent_stack[-1], category=category, args=args,
        )
        self.records.append(record)
        return record

    def extend(self, records: List[dict]) -> None:
        """Adopt serialized span records recorded in another process."""
        for data in records:
            self.records.append(SpanRecord.from_dict(data))

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def context(self) -> SpanContext:
        """The capsule to send with work another process continues."""
        return SpanContext(self.trace_id, self._parent_stack[-1])

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def by_name(self) -> Dict[str, float]:
        """Total seconds per span name (the phase decomposition)."""
        out: Dict[str, float] = {}
        for r in self.records:
            out[r.name] = out.get(r.name, 0.0) + r.duration
        return out

    def to_dicts(self) -> List[dict]:
        return [r.to_dict() for r in self.records]


# ----------------------------------------------------------------------
# module-level surface
# ----------------------------------------------------------------------
@contextmanager
def wall_tracing(trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None) -> Iterator[WallTracer]:
    """Install a :class:`WallTracer` for the scope (nesting shadows)."""
    global _ACTIVE
    previous = _ACTIVE
    tracer = WallTracer(trace_id, parent_id)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP = _NoopSpan()


def timed_span(name: str, category: str = "", **args):
    """Open a wall-clock span in the installed tracer (no-op when off)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.span(name, category, **args)
