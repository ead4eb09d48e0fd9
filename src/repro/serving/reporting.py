"""Per-batch shard telemetry deltas, mergeable across batches.

The sharded database's ``io_report()`` must carry everything the
per-shard ``SegmentDatabase.io_report()`` knows — raw I/O, buffer
hits/misses, filtered-arithmetic counters, fault/retry counters,
degradation state — summed over the batches each shard served.
:func:`capture_batch` wraps one shard batch and produces a
:class:`ShardBatchStats` delta; deltas are picklable, add
associatively, and render back into the familiar report shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ..geometry import filtered
from ..iosim import IOStats


def _add_fault_deltas(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    """Merge two fault-counter deltas (numeric add; state strings latest)."""
    if a is None:
        return dict(b) if b is not None else None
    if b is None:
        return dict(a)
    out = dict(a)
    for key, value in b.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = out.get(key, 0) + value
        else:
            out[key] = value
    return out


def _diff_fault_report(before: Optional[dict],
                       after: Optional[dict]) -> Optional[dict]:
    if after is None:
        return None
    before = before or {}
    out = {}
    for key, value in after.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
        else:
            out[key] = value
    return out


@dataclass
class ShardBatchStats:
    """The telemetry delta of one shard batch, mergeable across batches.

    Everything here is a *difference* over the batch window (except the
    point-in-time fields ``buffer_capacity``/``quarantined``, where the
    latest observation wins), so per-batch capsules sum to the counts
    over the whole run.
    """

    io: IOStats = field(default_factory=IOStats)
    buffer_hits: int = 0
    buffer_misses: int = 0
    buffer_capacity: Optional[int] = None  # None: shard runs without a pool
    buffer_pinned: int = 0
    filter_fast: int = 0
    filter_exact: int = 0
    faults: Optional[dict] = None
    degraded_queries: int = 0
    quarantined: bool = False

    def __add__(self, other: "ShardBatchStats") -> "ShardBatchStats":
        return ShardBatchStats(
            io=self.io + other.io,
            buffer_hits=self.buffer_hits + other.buffer_hits,
            buffer_misses=self.buffer_misses + other.buffer_misses,
            buffer_capacity=(other.buffer_capacity
                             if other.buffer_capacity is not None
                             else self.buffer_capacity),
            buffer_pinned=other.buffer_pinned,
            filter_fast=self.filter_fast + other.filter_fast,
            filter_exact=self.filter_exact + other.filter_exact,
            faults=_add_fault_deltas(self.faults, other.faults),
            degraded_queries=self.degraded_queries + other.degraded_queries,
            quarantined=self.quarantined or other.quarantined,
        )

    def to_report(self) -> dict:
        """The per-shard ``io_report()`` entry this delta renders as."""
        out = self.io.to_dict()
        out["total"] = self.io.total
        if self.buffer_capacity is not None:
            touched = self.buffer_hits + self.buffer_misses
            out["buffer"] = {
                "capacity": self.buffer_capacity,
                "hits": self.buffer_hits,
                "misses": self.buffer_misses,
                "hit_rate": self.buffer_hits / touched if touched else 0.0,
                "pinned": self.buffer_pinned,
            }
        else:
            out["buffer"] = None
        filter_total = self.filter_fast + self.filter_exact
        out["filter"] = {
            "fast_hits": self.filter_fast,
            "exact_fallbacks": self.filter_exact,
            "hit_rate": (self.filter_fast / filter_total
                         if filter_total else None),
        }
        out["faults"] = dict(self.faults) if self.faults is not None else None
        out["degraded_queries"] = self.degraded_queries
        out["quarantined"] = self.quarantined
        return out


def capture_batch(db, fn: Callable[[], object]) -> Tuple[object, ShardBatchStats]:
    """Run one batch against ``db`` and capture its telemetry delta.

    ``db`` is a :class:`~repro.core.api.SegmentDatabase`; ``fn`` performs
    the batch (query or explain).
    """
    device = db.device
    before_io = device.snapshot()
    pool = db.buffer_pool
    before_hits, before_misses = (pool.hits, pool.misses) if pool else (0, 0)
    before_fast, before_exact = filtered.STATS.snapshot()
    fault_report = getattr(device, "fault_report", None)
    before_faults = fault_report() if fault_report is not None else None
    before_degraded = db._degraded_queries

    out = fn()

    after_fast, after_exact = filtered.STATS.snapshot()
    stats = ShardBatchStats(
        io=device.snapshot() - before_io,
        buffer_hits=(pool.hits - before_hits) if pool else 0,
        buffer_misses=(pool.misses - before_misses) if pool else 0,
        buffer_capacity=pool.capacity if pool else None,
        buffer_pinned=pool.pinned_count if pool else 0,
        filter_fast=after_fast - before_fast,
        filter_exact=after_exact - before_exact,
        faults=_diff_fault_report(
            before_faults,
            fault_report() if fault_report is not None else None,
        ),
        degraded_queries=db._degraded_queries - before_degraded,
        quarantined=db.quarantined,
    )
    return out, stats
