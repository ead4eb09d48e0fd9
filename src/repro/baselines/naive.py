"""The full-scan baseline: no index at all.

Stores the segments in a page chain and answers every query by scanning all
``n`` blocks.  This is both the correctness oracle for integration tests
and the lower anchor of the benchmark comparisons (it wins only when the
output is a large fraction of the database).
"""

from __future__ import annotations

from typing import Iterable, List

from ..geometry import Segment, VerticalQuery
from ..geometry.kernels import page_query_hits
from ..iosim import Pager, StorageError
from ..storage.chain import PageChain


class FullScanIndex:
    """O(n) blocks, O(n) I/Os per query, O(1) amortised insertion."""

    def __init__(self, pager: Pager, chain: PageChain):
        self.pager = pager
        self.chain = chain
        self.size = 0

    @classmethod
    def build(cls, pager: Pager, segments: Iterable[Segment]) -> "FullScanIndex":
        segments = list(segments)
        index = cls(pager, PageChain.create(pager, segments))
        index.size = len(segments)
        return index

    def query(self, q: VerticalQuery) -> List[Segment]:
        with self.pager.operation():
            with self.pager.device.tagged("scan"):
                out: List[Segment] = []
                for page in self.chain.iter_pages():
                    out.extend(page_query_hits(page.items, q))
                return out

    def query_batch(self, queries: Iterable[VerticalQuery]) -> List[List[Segment]]:
        """Sequential loop fallback: a full scan has no descent to share."""
        return [self.query(q) for q in queries]

    def insert(self, segment: Segment) -> None:
        with self.pager.operation():
            self.chain.append(segment)
            self.size += 1

    def delete(self, segment: Segment) -> bool:
        with self.pager.operation():
            kept = [s for s in self.chain if s != segment]
            removed = len(kept) < self.size
            if removed:
                self.chain.replace(kept)
                self.size = len(kept)
            return removed

    def all_segments(self) -> List[Segment]:
        return self.chain.to_list()

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # verification & recovery support
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """The chain's stored count and the index size must agree."""
        stored = self.chain.count()
        actual = sum(1 for _ in self.chain)
        assert stored == actual, f"chain count stale: {stored} != {actual}"
        assert actual == self.size, f"size mismatch: {actual} != {self.size}"

    def verify(self) -> List[str]:
        try:
            self.check_invariants()
        except AssertionError as exc:
            return [f"scan: invariant violated: {exc}"]
        except StorageError as exc:
            return [f"scan: {type(exc).__name__}: {exc}"]
        return []

    def snapshot_state(self) -> tuple:
        return (self.size,)

    def restore_state(self, state: tuple) -> None:
        (self.size,) = state

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        return {"head_pid": self.chain.head_pid, "size": self.size}

    @classmethod
    def attach(cls, pager: Pager, meta: dict) -> "FullScanIndex":
        index = cls(pager, PageChain(pager, meta["head_pid"]))
        index.size = meta["size"]
        return index
