"""The stab-and-filter baseline (Figure 1's motivation).

Prior to this paper, the indexed way to answer a vertical *segment* query
was a stabbing structure over x-projections: stab the vertical line at
``x0`` (reference [3]'s external interval tree, O(log_B n + t') I/Os), then
filter the ``T'`` stabbed segments by the query's y-window in memory.

The filter step is free in I/Os, but ``T'`` counts *every* segment crossing
the line — the y-window discards most of them when the query segment is
short.  The paper's structures avoid retrieving those discarded segments at
all; benchmark E10 measures exactly this gap.
"""

from __future__ import annotations

from typing import Iterable, List

from ..geometry import Segment, VerticalQuery
from ..geometry.kernels import page_query_hits
from ..iosim import Pager, StorageError
from ..storage.interval_tree import ExternalIntervalTree


class StabFilterIndex:
    """Interval tree over x-projections + in-memory y filtering."""

    def __init__(self, pager: Pager, tree: ExternalIntervalTree):
        self.pager = pager
        self.tree = tree

    @classmethod
    def build(cls, pager: Pager, segments: Iterable[Segment]) -> "StabFilterIndex":
        intervals = [(s.xmin, s.xmax, s) for s in segments]
        return cls(pager, ExternalIntervalTree.build(pager, intervals))

    def query(self, q: VerticalQuery) -> List[Segment]:
        with self.pager.operation():
            with self.pager.device.tagged("stab"):
                stabbed = self.tree.stab(q.x)
        # The y filter is free in I/Os (in-memory), exactly the point of
        # the baseline: it has already paid for every stabbed segment.
        return page_query_hits([s for _l, _r, s in stabbed], q)

    def query_batch(self, queries: Iterable[VerticalQuery]) -> List[List[Segment]]:
        """Sequential loop fallback (uniform batch API, no shared descent)."""
        return [self.query(q) for q in queries]

    def stabbed_count(self, q: VerticalQuery) -> int:
        """``T'``: how many segments the stab retrieves before filtering."""
        with self.pager.operation():
            return len(self.tree.stab(q.x))

    def insert(self, segment: Segment) -> None:
        with self.pager.operation():
            self.tree.insert(segment.xmin, segment.xmax, segment)

    def delete(self, segment: Segment) -> bool:
        raise NotImplementedError(
            "the stab-and-filter baseline is insert-only (like the "
            "semi-dynamic external interval tree it is built on)"
        )

    def all_segments(self) -> List[Segment]:
        return [s for _l, _r, s in self.tree.items()]

    def __len__(self) -> int:
        return len(self.tree)

    # ------------------------------------------------------------------
    # verification & recovery support
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Every stored interval is its segment's x-projection; counts agree."""
        count = 0
        for lo, hi, s in self.tree.items():
            assert lo <= hi, f"empty x-projection [{lo}, {hi}]"
            assert lo == s.xmin and hi == s.xmax, (
                f"interval [{lo}, {hi}] is not the x-projection of {s!r}"
            )
            count += 1
        assert count == len(self.tree), (
            f"size mismatch: {count} != {len(self.tree)}"
        )

    def verify(self) -> List[str]:
        try:
            self.check_invariants()
        except AssertionError as exc:
            return [f"stab-filter: invariant violated: {exc}"]
        except StorageError as exc:
            return [f"stab-filter: {type(exc).__name__}: {exc}"]
        return []

    def snapshot_state(self) -> tuple:
        return (self.tree.root_pid, self.tree._size)

    def restore_state(self, state: tuple) -> None:
        self.tree.root_pid, self.tree._size = state

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        return {"root_pid": self.tree.root_pid, "size": self.tree._size,
                "fanout": self.tree.fanout}

    @classmethod
    def attach(cls, pager: Pager, meta: dict) -> "StabFilterIndex":
        tree = ExternalIntervalTree(pager, fanout=meta["fanout"])
        tree.root_pid = meta["root_pid"]
        tree._size = meta["size"]
        return cls(pager, tree)
