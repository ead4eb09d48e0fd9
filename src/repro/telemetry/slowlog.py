"""A threshold-triggered slow-query log.

Latency histograms say *that* a p99 exists; the slow-query log says
*which queries* live in it and *where their time went*.  When an
operation's wall-clock latency crosses the configured threshold, the log
captures the query, the latency, and a cost breakdown (the ``explain()``
anatomy when the caller can produce one), in a bounded ring buffer so a
long-running server cannot grow it without limit.

Entries are plain dicts, so logs merge: the sharded database runs one
log per shard and drains each into its merged log after every batch.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

DEFAULT_CAPACITY = 128


class SlowQueryLog:
    """Bounded ring of slow-operation records.

    ``threshold_s`` is the latency at or above which an operation is
    logged.  ``record`` is cheap for fast operations (one comparison);
    the explain callback only runs for operations that crossed the
    threshold, so the common path never pays for the diagnosis.
    """

    def __init__(self, threshold_s: float, capacity: int = DEFAULT_CAPACITY):
        if threshold_s < 0:
            raise ValueError("threshold_s must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_s = float(threshold_s)
        self.capacity = int(capacity)
        self._entries: Deque[dict] = deque(maxlen=capacity)
        self.dropped = 0       # evicted by the ring bound
        self.recorded = 0      # total entries ever logged

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, kind: str, description: str, latency_s: float, *,
               explain=None, **extra) -> Optional[dict]:
        """Log one operation if it was slow; returns the entry or ``None``.

        ``explain`` may be a ready dict or a zero-argument callable
        producing one (run only past the threshold; exceptions inside it
        are captured into the entry rather than failing the query path).
        """
        if latency_s < self.threshold_s:
            return None
        breakdown = None
        if explain is not None:
            if callable(explain):
                try:
                    breakdown = explain()
                except Exception as exc:  # diagnosis must not break serving
                    breakdown = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                breakdown = explain
        entry = {
            "kind": kind,
            "description": description,
            "latency_s": float(latency_s),
            "threshold_s": self.threshold_s,
            "explain": breakdown,
        }
        entry.update(extra)
        if len(self._entries) == self.capacity:
            self.dropped += 1
        self._entries.append(entry)
        self.recorded += 1
        return entry

    def absorb(self, entries: List[dict]) -> None:
        """Adopt entries drained from another log (a shard's)."""
        for entry in entries:
            if len(self._entries) == self.capacity:
                self.dropped += 1
            self._entries.append(entry)
            self.recorded += 1

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def entries(self) -> List[dict]:
        return list(self._entries)

    def drain(self) -> List[dict]:
        """Return and clear the buffered entries (what a merging log
        absorbs)."""
        out = list(self._entries)
        self._entries.clear()
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def to_dict(self) -> dict:
        return {
            "threshold_s": self.threshold_s,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "entries": self.entries(),
        }
