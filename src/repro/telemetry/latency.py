"""Mergeable log-bucketed latency histograms.

The exact :class:`~repro.telemetry.metrics.Histogram` keeps every
observation — fine for thousands of I/O counts, wrong for a serving
daemon observing millions of wall-clock samples.  This module adds the
serving-grade variant: a histogram over *log-spaced* buckets whose
memory is bounded by the bucket count regardless of how many samples it
absorbs, whose quantiles carry a guaranteed relative error bound, and
whose merge is associative and commutative — so histograms recorded in
different processes combine into exactly the histogram a single process
would have built.

Design (the HdrHistogram/DDSketch family, reduced to its core):

* bucket ``i`` covers ``[min_value * gamma**i, min_value * gamma**(i+1))``
  with ``gamma = 2 ** (1 / buckets_per_octave)``;
* a sample is counted in the bucket holding it, and a quantile is
  answered with the bucket's *geometric midpoint*, so any reported
  quantile is within a factor ``sqrt(gamma)`` of the true sample —
  a relative error of at most ``sqrt(gamma) - 1`` (~4.4% at the default
  8 buckets per octave);
* samples below ``min_value`` land in a single underflow bucket
  (reported as ``min_value``; latencies that small are noise here) and
  samples at or above ``max_value`` clamp into the top bucket;
* ``count`` / ``sum`` / ``min`` / ``max`` are tracked exactly, so means
  and totals carry no bucketing error at all.

The default range (1 microsecond to ~2 minutes) needs at most
``ceil(log2(2**27)) * 8 = 216`` buckets, stored sparsely.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

#: Quantiles every exporter reports, as (label, p) pairs.
REPORTED_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 50.0), ("p95", 95.0), ("p99", 99.0),
)


class LatencyHistogram:
    """Bounded-memory log-bucketed histogram of positive values (seconds).

    Two histograms with the same geometry merge bucket-by-bucket;
    :meth:`merge` is associative and commutative, and merging is exactly
    equivalent to having observed both sample streams in one histogram.
    """

    __slots__ = ("name", "min_value", "max_value", "buckets_per_octave",
                 "_gamma", "_log_gamma", "_bucket_limit", "_buckets",
                 "count", "sum", "min", "max")

    def __init__(self, name: str = "", *, min_value: float = 1e-6,
                 max_value: float = 128.0, buckets_per_octave: int = 8):
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("need 0 < min_value < max_value")
        if buckets_per_octave < 1:
            raise ValueError("buckets_per_octave must be >= 1")
        self.name = name
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.buckets_per_octave = int(buckets_per_octave)
        self._gamma = 2.0 ** (1.0 / buckets_per_octave)
        self._log_gamma = math.log(self._gamma)
        # Bucket index of max_value: everything at or above clamps here.
        self._bucket_limit = int(
            math.ceil(math.log(max_value / min_value) / self._log_gamma)
        )
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative quantile error (inside the bucket range)."""
        return math.sqrt(self._gamma) - 1.0

    @property
    def max_buckets(self) -> int:
        """The hard cap on distinct buckets (underflow included)."""
        return self._bucket_limit + 2

    @property
    def bucket_count(self) -> int:
        """Distinct buckets currently occupied."""
        return len(self._buckets)

    def _index_of(self, value: float) -> int:
        if value < self.min_value:
            return -1  # underflow bucket
        idx = int(math.log(value / self.min_value) / self._log_gamma)
        return min(idx, self._bucket_limit)

    def _bucket_value(self, index: int) -> float:
        """The representative (geometric midpoint) of a bucket."""
        if index < 0:
            return self.min_value
        mid = self.min_value * self._gamma ** (index + 0.5)
        return min(mid, self.max_value)

    def _same_geometry(self, other: "LatencyHistogram") -> bool:
        return (self.min_value == other.min_value
                and self.max_value == other.max_value
                and self.buckets_per_octave == other.buckets_per_octave)

    # ------------------------------------------------------------------
    # recording and merging
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency cannot be negative: {value}")
        value = float(value)
        idx = self._index_of(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into ``self`` (in place; returns ``self``).

        Requires identical bucket geometry.  ``a.merge(b)`` leaves ``a``
        equal to a histogram that observed both sample streams, which is
        what makes the operation associative and commutative.
        """
        if not self._same_geometry(other):
            raise ValueError(
                f"cannot merge histograms with different geometry: "
                f"({self.min_value}, {self.max_value}, "
                f"{self.buckets_per_octave}) vs ({other.min_value}, "
                f"{other.max_value}, {other.buckets_per_octave})"
            )
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        return self

    @classmethod
    def merged(cls, histograms: Iterable["LatencyHistogram"],
               name: str = "") -> "LatencyHistogram":
        """A fresh histogram equal to the merge of ``histograms``."""
        out: Optional[LatencyHistogram] = None
        for h in histograms:
            if out is None:
                out = cls(name or h.name, min_value=h.min_value,
                          max_value=h.max_value,
                          buckets_per_octave=h.buckets_per_octave)
            out.merge(h)
        return out if out is not None else cls(name)

    # ------------------------------------------------------------------
    # quantiles
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """The value at percentile ``p`` (nearest-rank over buckets).

        Within a factor ``sqrt(gamma)`` of the exact sample percentile
        for values inside ``[min_value, max_value)``; the extreme ranks
        are answered with the exactly-tracked ``min``/``max``.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return None
        if p == 0:
            return self.min
        if p == 100:
            return self.max
        rank = max(1, math.ceil(p * self.count / 100.0))
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                # Clamp to the exact extremes: a one-bucket histogram
                # must not report a midpoint outside [min, max].
                value = self._bucket_value(idx)
                return max(self.min, min(self.max, value))
        return self.max  # pragma: no cover - rank <= count by construction

    # ------------------------------------------------------------------
    # (de)serialization — for crossing process boundaries
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = {
            "type": "latency_histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {str(i): n for i, n in sorted(self._buckets.items())},
            "geometry": {
                "min_value": self.min_value,
                "max_value": self.max_value,
                "buckets_per_octave": self.buckets_per_octave,
            },
        }
        for label, p in REPORTED_QUANTILES:
            out[label] = self.percentile(p)
        return out

    @classmethod
    def from_dict(cls, data: dict, name: str = "") -> "LatencyHistogram":
        geo = data["geometry"]
        h = cls(name, min_value=geo["min_value"], max_value=geo["max_value"],
                buckets_per_octave=geo["buckets_per_octave"])
        h._buckets = {int(i): int(n) for i, n in data["buckets"].items()}
        h.count = int(data["count"])
        h.sum = float(data["sum"])
        h.min = data["min"]
        h.max = data["max"]
        return h

    def summary(self) -> dict:
        """The compact form benchmarks archive: count/mean/quantiles in ms."""
        out = {
            "count": self.count,
            "mean_ms": round(self.mean * 1e3, 3),
            "min_ms": None if self.min is None else round(self.min * 1e3, 3),
            "max_ms": None if self.max is None else round(self.max * 1e3, 3),
        }
        for label, p in REPORTED_QUANTILES:
            q = self.percentile(p)
            out[f"{label}_ms"] = None if q is None else round(q * 1e3, 3)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LatencyHistogram({self.name!r}, count={self.count}, "
                f"p50={self.percentile(50)}, p99={self.percentile(99)})")
