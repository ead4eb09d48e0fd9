"""A small metrics registry: counters, gauges and histograms.

Benchmarks and the :class:`~repro.core.api.SegmentDatabase` facade feed
operation-level measurements (I/Os per query, buffer hit rate, result
sizes, node fan-outs) into a :class:`MetricsRegistry`; the registry
renders them as JSON (machine-readable archives under
``benchmarks/results/``) or Markdown (human-readable report sections).

Everything here is driven by the simulated-I/O layer — observations are
integers or exact fractions of I/O counts, never wall-clock samples — so
registries are deterministic and comparable across runs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .latency import LatencyHistogram


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (e.g. buffer hit rate, height, blocks used)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value) -> None:
        self.value = value

    def to_dict(self) -> dict:
        value = self.value
        if value is not None and not isinstance(value, (int, float)):
            value = float(value)  # Fractions and other exact numerics
        return {"type": "gauge", "value": value}


class Histogram:
    """A distribution of observed values with exact summary statistics.

    Observations are kept (the workloads here are thousands of queries,
    not millions of requests), so percentiles are exact rather than
    bucket-approximated.
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str):
        self.name = name
        self._values: List = []

    def observe(self, value) -> None:
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self):
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self._values else 0.0

    @property
    def min(self):
        return min(self._values) if self._values else None

    @property
    def max(self):
        return max(self._values) if self._values else None

    def percentile(self, p: float):
        """Exact nearest-rank percentile, ``p`` in [0, 100]."""
        if not self._values:
            return None
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self._values)
        rank = max(0, -(-int(p * len(ordered)) // 100) - 1) if p else 0
        return ordered[min(rank, len(ordered) - 1)]

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": float(self.sum),
            "mean": self.mean,
            "min": None if self.min is None else float(self.min),
            "max": None if self.max is None else float(self.max),
            "p50": None if self.count == 0 else float(self.percentile(50)),
            "p90": None if self.count == 0 else float(self.percentile(90)),
            "p99": None if self.count == 0 else float(self.percentile(99)),
        }


class MetricsRegistry:
    """Named metrics with find-or-create accessors and exporters."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._latencies: Dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        got = self._counters.get(name)
        if got is None:
            got = self._counters[name] = Counter(name)
        return got

    def gauge(self, name: str) -> Gauge:
        got = self._gauges.get(name)
        if got is None:
            got = self._gauges[name] = Gauge(name)
        return got

    def histogram(self, name: str) -> Histogram:
        got = self._histograms.get(name)
        if got is None:
            got = self._histograms[name] = Histogram(name)
        return got

    def latency(self, name: str) -> LatencyHistogram:
        """A log-bucketed wall-clock histogram (seconds, bounded memory).

        Unlike :meth:`histogram` these hold non-deterministic wall-clock
        samples; keeping the kinds separate keeps the exact-I/O metrics
        reproducible run-to-run while latency still gets p50/p95/p99.
        """
        got = self._latencies.get(name)
        if got is None:
            got = self._latencies[name] = LatencyHistogram(name)
        return got

    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges)
            + list(self._histograms) + list(self._latencies)
        )

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {}
        for store in (self._counters, self._gauges, self._histograms,
                      self._latencies):
            for name, metric in store.items():
                out[name] = metric.to_dict()
        return {name: out[name] for name in sorted(out)}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_markdown(self) -> str:
        """One Markdown table per metric kind (omitting empty kinds)."""
        sections: List[str] = []
        if self._counters:
            rows = [
                f"| {name} | {c.value} |"
                for name, c in sorted(self._counters.items())
            ]
            sections.append(
                "| counter | value |\n|---|---|\n" + "\n".join(rows)
            )
        if self._gauges:
            rows = [
                f"| {name} | {_fmt(g.value)} |"
                for name, g in sorted(self._gauges.items())
            ]
            sections.append("| gauge | value |\n|---|---|\n" + "\n".join(rows))
        if self._histograms:
            rows = []
            for name, h in sorted(self._histograms.items()):
                rows.append(
                    f"| {name} | {h.count} | {_fmt(h.mean)} | {_fmt(h.min)} "
                    f"| {_fmt(h.percentile(50))} | {_fmt(h.percentile(90))} "
                    f"| {_fmt(h.max)} |"
                )
            sections.append(
                "| histogram | count | mean | min | p50 | p90 | max |\n"
                "|---|---|---|---|---|---|---|\n" + "\n".join(rows)
            )
        if self._latencies:
            rows = []
            for name, h in sorted(self._latencies.items()):
                s = h.summary()
                rows.append(
                    f"| {name} | {s['count']} | {_fmt(s['mean_ms'])} "
                    f"| {_fmt(s['p50_ms'])} | {_fmt(s['p95_ms'])} "
                    f"| {_fmt(s['p99_ms'])} | {_fmt(s['max_ms'])} |"
                )
            sections.append(
                "| latency (ms) | count | mean | p50 | p95 | p99 | max |\n"
                "|---|---|---|---|---|---|---|\n" + "\n".join(rows)
            )
        return "\n\n".join(sections) if sections else "(no metrics recorded)"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
