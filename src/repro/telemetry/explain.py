"""Cost-anatomy reports: ``EXPLAIN`` for simulated-I/O queries.

:func:`trace_call` runs one operation under a fresh
:class:`~repro.telemetry.trace.TraceContext` while diffing the device's
flat counters, and packages both views into an :class:`ExplainReport`.
Because the I/O layer charges every block transfer to the innermost open
span, the per-phase counts of the report sum *exactly* to the flat
:class:`~repro.iosim.stats.IOStats` diff — the report is an accounting
identity, not a sample.

The phase names map onto the paper's cost terms (see DESIGN.md §7):
first-level routing is the ``log_B n`` descent, the PST ``descent``
phase is the second-level search, ``report``/``leaf`` phases are the
output term ``t``, and the G-tree's ``search`` vs ``cascade-hop`` split
is the ``log_B n`` vs ``log2 B`` trade of fractional cascading.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from . import trace


class PhaseStats:
    """Events attributed to one phase path (exclusive of sub-phases)."""

    __slots__ = ("reads", "writes", "hits", "misses", "pins", "seconds")

    def __init__(self, reads: int = 0, writes: int = 0, hits: int = 0,
                 misses: int = 0, pins: int = 0, seconds: float = 0.0):
        self.reads = reads
        self.writes = writes
        self.hits = hits
        self.misses = misses
        self.pins = pins
        self.seconds = seconds  # wall-clock self time; 0.0 unless timed

    @property
    def io_total(self) -> int:
        return self.reads + self.writes

    @classmethod
    def from_span(cls, span: trace.Span) -> "PhaseStats":
        return cls(reads=span.reads, writes=span.writes, hits=span.hits,
                   misses=span.misses, pins=span.pins, seconds=span.seconds)

    def to_dict(self) -> dict:
        out = {
            "reads": self.reads,
            "writes": self.writes,
            "hits": self.hits,
            "misses": self.misses,
            "pins": self.pins,
            "total": self.io_total,
        }
        if self.seconds:
            out["seconds"] = self.seconds
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseStats(reads={self.reads}, writes={self.writes})"


class ExplainReport:
    """The structured cost anatomy of one traced operation.

    Attributes
    ----------
    engine:
        Which engine/structure answered the operation.
    description:
        Human-readable description of the operation (usually the query).
    results:
        Number of reported segments.
    io:
        The flat :class:`~repro.iosim.stats.IOStats` diff of the window.
    phases:
        Ordered ``path -> PhaseStats``; paths are ``/``-joined span names
        below the root, the root's own (otherwise-unattributed) I/O
        appearing under its plain name.  Phases sum exactly to ``io``.
    buffer:
        ``{"hits", "misses", "hit_rate"}`` for the traced window when a
        buffer pool sits under the engine, else ``None``.
    """

    def __init__(self, engine: str, description: str, results: int,
                 io, phases: "Dict[str, PhaseStats]",
                 buffer: Optional[dict] = None):
        self.engine = engine
        self.description = description
        self.results = results
        self.io = io
        self.phases = phases
        self.buffer = buffer

    # ------------------------------------------------------------------
    # the accounting identity
    # ------------------------------------------------------------------
    @property
    def phase_io_total(self) -> int:
        return sum(p.io_total for p in self.phases.values())

    @property
    def balanced(self) -> bool:
        """True when per-phase I/Os sum exactly to the flat diff."""
        return self.phase_io_total == self.io.total

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "description": self.description,
            "results": self.results,
            "io": self.io.to_dict(),
            "io_total": self.io.total,
            "phases": {path: p.to_dict() for path, p in self.phases.items()},
            "phase_io_total": self.phase_io_total,
            "balanced": self.balanced,
            "buffer": self.buffer,
        }

    def top_level(self) -> "Dict[str, int]":
        """Charged I/O per top-level phase (sub-phases rolled up).

        "Top level" means the first span below the root; the root's own
        unattributed I/O stays under the root's plain name.
        """
        out: Dict[str, int] = {}
        for path, stats in self.phases.items():
            parts = path.split("/")
            head = parts[1] if len(parts) > 1 else parts[0]
            out[head] = out.get(head, 0) + stats.io_total
        return out

    def to_markdown(self) -> str:
        lines = [
            f"## EXPLAIN — {self.description}",
            "",
            f"- engine: `{self.engine}`",
            f"- results: {self.results}",
            f"- I/O: {self.io} (total {self.io.total})",
        ]
        if self.buffer is not None:
            lines.append(
                f"- buffer: {self.buffer['hits']} hits / "
                f"{self.buffer['misses']} misses "
                f"(hit rate {self.buffer['hit_rate']:.1%})"
            )
        lines += [
            f"- phase sum: {self.phase_io_total} "
            f"({'balanced' if self.balanced else 'UNBALANCED'})",
            "",
            "| phase | reads | writes | I/O | share |",
            "|---|---|---|---|---|",
        ]
        total = self.io.total
        for path, stats in self.phases.items():
            if stats.io_total == 0 and stats.hits == 0 and stats.pins == 0:
                continue
            share = stats.io_total / total if total else 0.0
            lines.append(
                f"| {path} | {stats.reads} | {stats.writes} "
                f"| {stats.io_total} | {share:.0%} |"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_markdown()


def collect_phases(ctx: trace.TraceContext) -> "Dict[str, PhaseStats]":
    """Flatten a trace into ordered ``path -> PhaseStats``.

    Every span is included (even all-zero ones are dropped only by the
    renderers, not here) so the sum identity holds structurally.
    """
    phases: Dict[str, PhaseStats] = {}
    for path, span in ctx.root.walk():
        phases[path] = PhaseStats.from_span(span)
    return phases


def trace_call(device, fn: Callable[[], object], *, engine: str = "",
               description: str = "", buffer_pool=None,
               root_name: str = "query",
               timed: bool = False) -> Tuple[object, ExplainReport]:
    """Run ``fn`` traced and measured; return ``(result, report)``.

    ``device`` must be the :class:`~repro.iosim.disk.BlockDevice` whose
    counters the operation is charged to (pass the *device*, not the
    buffer pool, so the flat diff counts real block transfers).  When a
    ``buffer_pool`` is given, its hit/miss movement over the window is
    reported alongside.  ``timed=True`` also attributes wall-clock self
    time to every phase (used by the slow-query log; the default keeps
    reports exactly reproducible).
    """
    pool_hits = pool_misses = 0
    if buffer_pool is not None:
        pool_hits, pool_misses = buffer_pool.hits, buffer_pool.misses
    before = device.snapshot()
    with trace.tracing(root_name, timed=timed) as ctx:
        result = fn()
    stats = device.snapshot() - before
    buffer = None
    if buffer_pool is not None:
        hits = buffer_pool.hits - pool_hits
        misses = buffer_pool.misses - pool_misses
        touched = hits + misses
        buffer = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / touched if touched else 0.0,
        }
    try:
        results = len(result)  # type: ignore[arg-type]
    except TypeError:
        results = 0
    report = ExplainReport(
        engine=engine,
        description=description,
        results=results,
        io=stats,
        phases=collect_phases(ctx),
        buffer=buffer,
    )
    return result, report
