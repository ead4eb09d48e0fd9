"""An external R-tree — the practical spatial-index comparator.

The reproduction notes observe that in practice "spatial indexes cover
practical needs"; the R-tree is the canonical one (and, unlike the grid,
handles long segments without replication).  This implementation is the
standard external-memory variant:

* **bulk load** with Sort-Tile-Recursive packing (near-100% page
  occupancy);
* **queries** by rectangle overlap against the vertical query segment's
  bounding box, with the exact predicate filtering at the leaves;
* **insertions** by least-area-enlargement descent with linear splits.

No worst-case query bound exists (that is the paper's opening argument for
purpose-built structures); on well-behaved data it is very competitive,
and benchmark E10 shows both sides.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from ..geometry import Segment, VerticalQuery
from ..geometry.kernels import page_query_hits
from ..iosim import Pager
from ..telemetry import trace

BBox = Tuple  # (xmin, ymin, xmax, ymax), exact coordinates


def segment_bbox(s: Segment) -> BBox:
    return (s.xmin, s.ymin, s.xmax, s.ymax)


def bbox_union(a: BBox, b: BBox) -> BBox:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def bbox_area(a: BBox):
    return (a[2] - a[0]) * (a[3] - a[1])


def query_overlaps(bbox: BBox, q: VerticalQuery) -> bool:
    """Does a rectangle meet the (possibly unbounded) vertical query?"""
    if not (bbox[0] <= q.x <= bbox[2]):
        return False
    if q.ylo is not None and bbox[3] < q.ylo:
        return False
    if q.yhi is not None and bbox[1] > q.yhi:
        return False
    return True


class RTreeIndex:
    """An R-tree over one pager; entries are ``(bbox, payload_or_child)``."""

    def __init__(self, pager: Pager, root_pid: Optional[int] = None):
        self.pager = pager
        self.root_pid = root_pid
        self.size = 0

    # ------------------------------------------------------------------
    # construction (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, pager: Pager, segments: Iterable[Segment]) -> "RTreeIndex":
        index = cls(pager)
        segments = list(segments)
        index.size = len(segments)
        if not segments:
            return index
        entries = [(segment_bbox(s), s) for s in segments]
        level = index._pack_leaves(entries)
        while len(level) > 1:
            level = index._pack_internal(level)
        index.root_pid = level[0][1]
        return index

    def _capacity(self) -> int:
        return self.pager.device.block_capacity

    def _str_order(self, entries: List[Tuple]) -> List[Tuple]:
        """Sort-Tile-Recursive ordering: x-slices, then y within a slice."""
        capacity = self._capacity()
        n_pages = math.ceil(len(entries) / capacity)
        n_slices = max(1, math.ceil(math.sqrt(n_pages)))
        per_slice = math.ceil(len(entries) / n_slices)
        by_x = sorted(entries, key=lambda e: (e[0][0] + e[0][2], e[0][0]))
        ordered: List[Tuple] = []
        for start in range(0, len(by_x), per_slice):
            chunk = by_x[start : start + per_slice]
            chunk.sort(key=lambda e: (e[0][1] + e[0][3], e[0][1]))
            ordered.extend(chunk)
        return ordered

    def _pack_leaves(self, entries: List[Tuple]) -> List[Tuple]:
        return self._pack(self._str_order(entries), leaf=True)

    def _pack_internal(self, child_entries: List[Tuple]) -> List[Tuple]:
        return self._pack(self._str_order(child_entries), leaf=False)

    def _pack(self, ordered: List[Tuple], leaf: bool) -> List[Tuple]:
        capacity = self._capacity()
        out: List[Tuple] = []
        for start in range(0, len(ordered), capacity):
            chunk = ordered[start : start + capacity]
            page = self.pager.alloc()
            page.set_header("leaf", leaf)
            page.put_items(chunk)
            self.pager.write(page)
            bbox = chunk[0][0]
            for entry_bbox, _x in chunk[1:]:
                bbox = bbox_union(bbox, entry_bbox)
            out.append((bbox, page.page_id))
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: VerticalQuery) -> List[Segment]:
        out: List[Segment] = []
        if self.root_pid is None:
            return out
        with self.pager.operation():
            stack = [self.root_pid]
            while stack:
                # Whether a page visit is routing or output is known only
                # after the fetch: move its I/O delta to the right phase.
                span = trace.current_span()
                reads_before = span.reads if span is not None else 0
                page = self.pager.fetch(stack.pop())
                if span is not None:
                    phase = "leaf" if page.get_header("leaf") else "descent"
                    span.move(phase, reads=span.reads - reads_before)
                if page.get_header("leaf"):
                    # The bbox prefilter is a plain float compare; only
                    # its survivors reach the (filtered) geometry test.
                    out.extend(page_query_hits(
                        [s for bbox, s in page.items
                         if query_overlaps(bbox, q)], q))
                    continue
                for bbox, child in page.items:
                    if query_overlaps(bbox, q):
                        stack.append(child)
        return out

    def query_batch(self, queries: Iterable[VerticalQuery]) -> List[List[Segment]]:
        """Sequential loop fallback (uniform batch API, no shared descent)."""
        return [self.query(q) for q in queries]

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, segment: Segment) -> None:
        self.size += 1
        entry = (segment_bbox(segment), segment)
        with self.pager.operation():
            if self.root_pid is None:
                page = self.pager.alloc()
                page.set_header("leaf", True)
                page.put_items([entry])
                self.pager.write(page)
                self.root_pid = page.page_id
                return
            split = self._insert_below(self.root_pid, entry)
            if split is not None:
                old_root = self.pager.fetch(self.root_pid)
                old_bbox = self._page_bbox(old_root)
                new_root = self.pager.alloc()
                new_root.set_header("leaf", False)
                new_root.put_items([(old_bbox, self.root_pid), split])
                self.pager.write(new_root)
                self.root_pid = new_root.page_id

    def _insert_below(self, pid: int, entry: Tuple) -> Optional[Tuple]:
        page = self.pager.fetch(pid)
        if page.get_header("leaf"):
            page.items.append(entry)
            if len(page.items) <= page.capacity:
                self.pager.write(page)
                return None
            return self._split(page)
        # Least-area-enlargement child.
        best_idx, best_cost, best_area = 0, None, None
        for idx, (bbox, _child) in enumerate(page.items):
            grown = bbox_union(bbox, entry[0])
            cost = bbox_area(grown) - bbox_area(bbox)
            area = bbox_area(bbox)
            if best_cost is None or (cost, area) < (best_cost, best_area):
                best_idx, best_cost, best_area = idx, cost, area
        child_bbox, child_pid = page.items[best_idx]
        split = self._insert_below(child_pid, entry)
        page.items[best_idx] = (bbox_union(child_bbox, entry[0]), child_pid)
        if split is not None:
            page.items.append(split)
        if len(page.items) <= page.capacity:
            self.pager.write(page)
            return None
        return self._split(page)

    def _split(self, page) -> Tuple:
        """Linear split along the longer spread axis; keeps both halves
        balanced.  The original page keeps the lower half."""
        items = page.items
        xs = [e[0][0] + e[0][2] for e in items]
        ys = [e[0][1] + e[0][3] for e in items]
        axis = 0 if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else 1
        items.sort(key=lambda e: e[0][axis] + e[0][axis + 2])
        mid = len(items) // 2
        right_items = items[mid:]
        page.put_items(items[:mid])
        self.pager.write(page)
        sibling = self.pager.alloc()
        sibling.set_header("leaf", page.get_header("leaf"))
        sibling.put_items(right_items)
        self.pager.write(sibling)
        return (self._page_bbox(sibling), sibling.page_id)

    def _page_bbox(self, page) -> BBox:
        bbox = page.items[0][0]
        for entry_bbox, _x in page.items[1:]:
            bbox = bbox_union(bbox, entry_bbox)
        return bbox

    # ------------------------------------------------------------------
    # maintenance / inspection
    # ------------------------------------------------------------------
    def delete(self, segment: Segment) -> bool:
        raise NotImplementedError(
            "the R-tree baseline is insert-only here; wrap it in "
            "TombstoneDeletions for logical deletes"
        )

    def all_segments(self) -> List[Segment]:
        out: List[Segment] = []
        if self.root_pid is None:
            return out
        stack = [self.root_pid]
        while stack:
            page = self.pager.fetch(stack.pop())
            if page.get_header("leaf"):
                out.extend(s for _bbox, s in page.items)
            else:
                stack.extend(child for _bbox, child in page.items)
        return out

    def __len__(self) -> int:
        return self.size

    def height(self) -> int:
        h = 0
        pid = self.root_pid
        while pid is not None:
            h += 1
            page = self.pager.fetch(pid)
            pid = None if page.get_header("leaf") else page.items[0][1]
        return h

    def check_invariants(self) -> None:
        """Every child bbox must be covered by its parent entry's bbox."""
        if self.root_pid is None:
            return
        count = self._check(self.root_pid, None)
        assert count == self.size, f"size mismatch: {count} != {self.size}"

    def verify(self) -> List[str]:
        from ..iosim import StorageError

        try:
            self.check_invariants()
        except AssertionError as exc:
            return [f"rtree: invariant violated: {exc}"]
        except StorageError as exc:
            return [f"rtree: {type(exc).__name__}: {exc}"]
        return []

    def snapshot_state(self) -> tuple:
        return (self.root_pid, self.size)

    def restore_state(self, state: tuple) -> None:
        self.root_pid, self.size = state

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        return {"root_pid": self.root_pid, "size": self.size}

    @classmethod
    def attach(cls, pager: Pager, meta: dict) -> "RTreeIndex":
        index = cls(pager, root_pid=meta["root_pid"])
        index.size = meta["size"]
        return index

    def _check(self, pid: int, outer: Optional[BBox]) -> int:
        page = self.pager.fetch(pid)
        bbox = self._page_bbox(page)
        if outer is not None:
            assert (
                outer[0] <= bbox[0] and outer[1] <= bbox[1]
                and bbox[2] <= outer[2] and bbox[3] <= outer[3]
            ), f"child bbox escapes parent at page {pid}"
        if page.get_header("leaf"):
            for entry_bbox, segment in page.items:
                assert entry_bbox == segment_bbox(segment)
            return len(page.items)
        return sum(self._check(child, entry_bbox)
                   for entry_bbox, child in page.items)
