"""Solution 1 (Section 3, Theorem 1): the binary two-level structure.

First level: a binary tree over vertical *base lines*.  The root's line is
the median of all segment-endpoint x-values; segments intersected by the
line stay at the root, the rest go left/right, recursively, until a leaf
holds at most ``B`` segments in one block.

Second level, per internal node ``v`` with base line ``x = c``:

* ``C(v)`` — segments lying *on* the line (vertical segments at ``x = c``),
  as interior-disjoint y-intervals in a
  :class:`~repro.storage.disjoint.DisjointIntervalIndex`;
* ``L(v)`` / ``R(v)`` — the left/right *parts* of segments crossing the
  line, as line-based segments in
  :class:`~repro.core.linebased.index.LineBasedIndex` (external PSTs).

Costs (Theorem 1): space ``O(n)``; VS query
``O(log2 n · (log_B n + IL*(B)) + t)``; updates ``O(log2 n + (log_B n)/B)``
amortised.  For updates the paper replaces the binary tree with a
``BB[α]``-tree; we maintain the same weight-balance invariant, restoring it
by amortised subtree rebuilds (each rebuild is charged to the insertions
that unbalanced it — the standard equivalent of rotation-with-secondary-
structure-rebuild).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ...geometry import (
    HQuery,
    Segment,
    VerticalBaseFrame,
    VerticalQuery,
)
from ...geometry.kernels import page_query_hits
from ...iosim import Pager, StorageError
from ...storage.disjoint import DisjointIntervalIndex
from ..linebased.index import LineBasedIndex, pst_reaches

#: BB[alpha] balance parameter: a child may hold at most (1 - ALPHA) of its
#: parent's weight, which counts every segment in the parent's subtree,
#: those stored at the parent included (paper: 0 < alpha < 1 - 1/sqrt(2)).
ALPHA = 0.25
#: Slack before tiny subtrees trigger rebuilds.
BALANCE_SLACK = 8


def bb_balanced(weight: int, wl: int, wr: int) -> bool:
    """The BB[α] predicate at a node of ``weight`` segments with children
    of weights ``wl`` and ``wr``.

    A fresh build splits at the endpoint median, so neither child holds
    more than half of the node's segments: every freshly built node
    passes with room to spare, and a rebuild needs Ω(weight) updates
    through the node.
    """
    return weight <= BALANCE_SLACK or max(wl, wr) <= (1 - ALPHA) * weight


def split_at_line(segment: Segment, c) -> Tuple[Optional[Tuple], Optional[object], Optional[object]]:
    """Split a segment intersected by the vertical line ``x = c``.

    Returns ``(on_line, left_part, right_part)``: the y-interval when the
    segment lies on the line, else the line-based left/right parts (either
    may be ``None`` when the segment only touches the line from one side).
    """
    if segment.is_vertical and segment.start.x == c:
        return ((segment.ymin, segment.ymax), None, None)
    if not segment.spans_x(c):
        raise ValueError(f"{segment!r} does not meet the line x={c}")
    y_c = segment.y_at_unchecked(c)  # non-vertical, spans c: checks redundant
    left = right = None
    if segment.xmin < c:
        left = VerticalBaseFrame(c, "left").to_line_based(
            _part(segment, segment.start, c, y_c), payload=segment
        )
    if segment.xmax > c:
        right = VerticalBaseFrame(c, "right").to_line_based(
            _part(segment, segment.end, c, y_c), payload=segment
        )
    return (None, left, right)


def _part(original: Segment, far_endpoint, c, y_c) -> Segment:
    return Segment.from_coords(
        far_endpoint.x, far_endpoint.y, c, y_c, label=original.label
    )


class TwoLevelBinaryIndex:
    """The paper's first solution for VS queries over NCT segments."""

    def __init__(self, pager: Pager, blocked: bool = True):
        self.pager = pager
        self.blocked = blocked
        self.root_pid: Optional[int] = None
        self.size = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, pager: Pager, segments: Iterable[Segment], blocked: bool = True
    ) -> "TwoLevelBinaryIndex":
        index = cls(pager, blocked=blocked)
        segments = list(segments)
        index.size = len(segments)
        if segments:
            index.root_pid = index._build_subtree(segments)
        return index

    def _build_subtree(self, segments: List[Segment]) -> int:
        capacity = self.pager.device.block_capacity
        if len(segments) <= capacity:
            return self._write_leaf(segments)
        c = self._median_x(segments)
        here, lefts, rights = self._partition(segments, c)
        if not lefts and not rights:
            # Every segment meets the median line; no recursion needed, but
            # the node must still exist to host C/L/R.
            pass
        left_pid = self._build_subtree(lefts) if lefts else self._write_leaf([])
        right_pid = self._build_subtree(rights) if rights else self._write_leaf([])
        return self._write_node(c, here, left_pid, right_pid, len(segments))

    @staticmethod
    def _median_x(segments: List[Segment]):
        xs = sorted(x for s in segments for x in (s.xmin, s.xmax))
        return xs[len(xs) // 2]

    @staticmethod
    def _partition(segments: List[Segment], c):
        here, lefts, rights = [], [], []
        for s in segments:
            if s.xmax < c:
                lefts.append(s)
            elif s.xmin > c:
                rights.append(s)
            else:
                here.append(s)
        return here, lefts, rights

    def _write_leaf(self, segments: List[Segment]) -> int:
        page = self.pager.alloc()
        page.set_header("kind", "leaf")
        page.set_header("weight", len(segments))
        page.put_items(segments)
        self.pager.write(page)
        return page.page_id

    def _write_node(
        self, c, here: List[Segment], left_pid: int, right_pid: int, weight: int
    ) -> int:
        on_line: List[Tuple] = []
        left_parts = []
        right_parts = []
        for s in here:
            interval, lpart, rpart = split_at_line(s, c)
            if interval is not None:
                on_line.append((interval[0], interval[1], s))
            if lpart is not None:
                left_parts.append(lpart)
            if rpart is not None:
                right_parts.append(rpart)
        c_index = DisjointIntervalIndex.build(self.pager, on_line)
        l_index = LineBasedIndex.build(self.pager, left_parts, blocked=self.blocked)
        r_index = LineBasedIndex.build(self.pager, right_parts, blocked=self.blocked)

        page = self.pager.alloc()
        page.set_header("kind", "node")
        page.set_header("x", c)
        page.set_header("left", left_pid)
        page.set_header("right", right_pid)
        page.set_header("weight", weight)
        page.set_header("here", len(here))
        page.set_header("c_root", c_index.root_pid)
        page.set_header("l_meta", l_index.metadata())
        page.set_header("r_meta", r_index.metadata())
        self.pager.write(page)
        return page.page_id

    # ------------------------------------------------------------------
    # node access helpers
    # ------------------------------------------------------------------
    def _c_index(self, page) -> DisjointIntervalIndex:
        return DisjointIntervalIndex.attach(self.pager, page.get_header("c_root"))

    def _lr_index(self, page, side: str) -> LineBasedIndex:
        return LineBasedIndex.attach(self.pager, page.get_header(f"{side}_meta"))

    # Read-only paths additionally memoise the attached views on the
    # page (``page.views``) — the decode is pure and header-driven, and
    # the cache is dropped on every header write, so a cached view can
    # never outlive the routing words it decodes.  Update paths must NOT
    # use these: they mutate the attached object in memory, and a
    # mid-operation crash rolls the pages back but could not un-mutate a
    # cached view.  Attached views also bind the pager they charge I/O
    # through, so the pager is part of the key (a re-attached engine
    # over the same device must not reuse a view whose operation scopes
    # live on the old pager).  Queries revisit hot nodes constantly;
    # re-attaching per visit was a measurable tax.

    def _c_index_cached(self, page) -> DisjointIntervalIndex:
        views = page.views
        if views is None:
            views = page.views = {}
        key = ("c", self.pager)
        index = views.get(key)
        if index is None:
            index = views[key] = self._c_index(page)
        return index

    def _lr_index_cached(self, page, side: str) -> LineBasedIndex:
        views = page.views
        if views is None:
            views = page.views = {}
        key = (side, self.pager)
        index = views.get(key)
        if index is None:
            index = views[key] = self._lr_index(page, side)
        return index

    def _frame(self, page, side: str) -> VerticalBaseFrame:
        views = page.views
        if views is None:
            views = page.views = {}
        frame = views.get(("frame", side))
        if frame is None:
            frame = VerticalBaseFrame(page.get_header("x"), side)
            views[("frame", side)] = frame
        return frame

    def _sync_node(self, page, c_index, l_index, r_index) -> None:
        page.set_header("c_root", c_index.root_pid)
        page.set_header("l_meta", l_index.metadata())
        page.set_header("r_meta", r_index.metadata())
        self.pager.write(page)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: VerticalQuery) -> List[Segment]:
        """All stored segments intersecting the generalized vertical query."""
        out: List[Segment] = []
        if self.root_pid is None:
            return out
        tagged = self.pager.device.tagged
        with self.pager.operation():
            pid = self.root_pid
            while True:
                with tagged("first-level"):
                    page = self.pager.fetch(pid)
                if page.get_header("kind") == "leaf":
                    with tagged("leaf"):
                        out.extend(page_query_hits(page, q))
                    return out
                c = page.get_header("x")
                if q.x == c:
                    self._report_on_line_node(page, q, out)
                    return out
                # h as the side's frame measures it: a PST whose tallest
                # segment stays below h is skipped before any read.
                if q.x < c:
                    if pst_reaches(page.get_header("l_meta"), c - q.x):
                        with tagged("PST"):
                            frame = self._frame(page, "left")
                            hits = self._lr_index_cached(page, "l").query(frame.to_hquery(q))
                            out.extend(h.payload for h in hits)
                    pid = page.get_header("left")
                else:
                    if pst_reaches(page.get_header("r_meta"), q.x - c):
                        with tagged("PST"):
                            frame = self._frame(page, "right")
                            hits = self._lr_index_cached(page, "r").query(frame.to_hquery(q))
                            out.extend(h.payload for h in hits)
                    pid = page.get_header("right")

    def query_batch(self, queries: Iterable[VerticalQuery]) -> List[List[Segment]]:
        """Answer many VS queries with one shared descent of the tree.

        The batch is sorted by query ``x`` and routed through the binary
        tree as *groups*: every first-level node on the union of search
        paths is fetched exactly once per batch, no matter how many
        queries pass through it — the ``log`` descent term is paid once
        per group.  The per-query second-level searches (C / L / R) and
        the ``+t`` output term are irreducible and stay per-query, each
        inside its own operation scope so the I/O accounting matches the
        sequential cost model (no batch-wide dedupe masquerading as
        amortization).  Results come back in input order and match
        ``[self.query(q) for q in queries]`` exactly.
        """
        queries = list(queries)
        out: List[List[Segment]] = [[] for _ in queries]
        if self.root_pid is None or not queries:
            return out
        group = sorted(range(len(queries)), key=lambda i: queries[i].x)
        self._query_group(self.root_pid, group, queries, out)
        return out

    def _query_group(
        self,
        pid: int,
        group: List[int],
        queries: List[VerticalQuery],
        out: List[List[Segment]],
    ) -> None:
        """Route one x-sorted group of queries through the subtree at ``pid``."""
        tagged = self.pager.device.tagged
        with tagged("first-level"):
            page = self.pager.fetch(pid)
        with self.pager.pinning(pid):
            if page.get_header("kind") == "leaf":
                items = page.items
                with tagged("leaf"):
                    for i in group:
                        out[i].extend(page_query_hits(page, queries[i], items))
                return
            c = page.get_header("x")
            on_line: List[int] = []
            lefts: List[int] = []
            rights: List[int] = []
            for i in group:
                x = queries[i].x
                if x == c:
                    on_line.append(i)
                elif x < c:
                    lefts.append(i)
                else:
                    rights.append(i)
            for i in on_line:
                with self.pager.operation():
                    self._report_on_line_node(page, queries[i], out[i])
            meta = page.get_header("l_meta")
            reach = [i for i in lefts if pst_reaches(meta, c - queries[i].x)]
            if reach:
                l_index = self._lr_index_cached(page, "l")
                frame = self._frame(page, "left")
                with tagged("PST"):
                    for i in reach:
                        with self.pager.operation():
                            hits = l_index.query(frame.to_hquery(queries[i]))
                        out[i].extend(h.payload for h in hits)
            meta = page.get_header("r_meta")
            reach = [i for i in rights if pst_reaches(meta, queries[i].x - c)]
            if reach:
                r_index = self._lr_index_cached(page, "r")
                frame = self._frame(page, "right")
                with tagged("PST"):
                    for i in reach:
                        with self.pager.operation():
                            hits = r_index.query(frame.to_hquery(queries[i]))
                        out[i].extend(h.payload for h in hits)
            if lefts:
                self._query_group(page.get_header("left"), lefts, queries, out)
            if rights:
                self._query_group(page.get_header("right"), rights, queries, out)

    def _report_on_line_node(self, page, q: VerticalQuery, out: List[Segment]) -> None:
        """The query lies exactly on this node's base line (search stops)."""
        tagged = self.pager.device.tagged
        seen: Dict = {}
        with tagged("C"):
            c_index = self._c_index_cached(page)
            for _lo, _hi, s in c_index.overlap(q.ylo, q.yhi):
                seen[s.label] = s
        h0 = HQuery(0, q.ylo, q.yhi)
        for side in ("l", "r"):
            if not pst_reaches(page.get_header(f"{side}_meta"), 0):
                continue  # an empty PST
            with tagged("PST"):
                for hit in self._lr_index_cached(page, side).query(h0):
                    seen[hit.payload.label] = hit.payload  # crossers occur twice
        out.extend(seen.values())

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, segment: Segment) -> None:
        """Insert an NCT-compatible segment (amortised ``O(log n)`` +
        second-level costs; BB[α]-style rebuilds restore balance)."""
        tagged = self.pager.device.tagged
        with self.pager.operation():
            self.size += 1
            if self.root_pid is None:
                self.root_pid = self._write_leaf([segment])
                return
            path: List[Tuple[int, Optional[str]]] = []
            pid = self.root_pid
            while True:
                with tagged("first-level"):
                    page = self.pager.fetch(pid)
                    page.set_header("weight", page.get_header("weight") + 1)
                    self.pager.write(page)
                self.pager.crash_point("solution1.insert.descent")
                if page.get_header("kind") == "leaf":
                    # Leaves are not on the rebalance path: an overflowing
                    # leaf is rebuilt (and freed) right here.
                    parent_pid, parent_side = path[-1] if path else (None, None)
                    with tagged("leaf"):
                        self._insert_into_leaf(page, segment, parent_pid, parent_side)
                    break
                c = page.get_header("x")
                if segment.spans_x(c):
                    path.append((pid, None))
                    with tagged("second-level"):
                        self._insert_at_node(page, segment, c)
                    break
                side = "left" if segment.xmax < c else "right"
                path.append((pid, side))
                pid = page.get_header(side)
            with tagged("rebuild"):
                self._rebalance_path(path)

    def _insert_at_node(self, page, segment: Segment, c) -> None:
        page.set_header("here", page.get_header("here") + 1)
        self.pager.write(page)
        interval, lpart, rpart = split_at_line(segment, c)
        c_index = self._c_index(page)
        l_index = self._lr_index(page, "l")
        r_index = self._lr_index(page, "r")
        if interval is not None:
            c_index.insert(interval[0], interval[1], segment)
        if lpart is not None:
            l_index.insert(lpart)
        self.pager.crash_point("solution1.insert.second-level")
        if rpart is not None:
            r_index.insert(rpart)
        self._sync_node(page, c_index, l_index, r_index)

    def _insert_into_leaf(
        self, page, segment: Segment, parent_pid: Optional[int], parent_side: Optional[str]
    ) -> None:
        capacity = self.pager.device.block_capacity
        items = list(page.items) + [segment]
        if len(items) <= capacity:
            page.put_items(items)
            self.pager.write(page)
            return
        # Leaf overflow: rebuild this leaf into a proper subtree.
        self.pager.free(page.page_id)
        self.pager.crash_point("solution1.insert.leaf-rebuild")
        new_pid = self._build_subtree(items)
        self._replace_child(parent_pid, parent_side, page.page_id, new_pid)

    def _replace_child(
        self, parent_pid: Optional[int], side: Optional[str], old_pid: int, new_pid: int
    ) -> None:
        if parent_pid is None:
            assert self.root_pid == old_pid
            self.root_pid = new_pid
            return
        parent = self.pager.fetch(parent_pid)
        assert parent.get_header(side) == old_pid
        parent.set_header(side, new_pid)
        self.pager.write(parent)

    def delete(self, segment: Segment) -> bool:
        """Delete a stored segment (located by its x-extent and label)."""
        if self.root_pid is None:
            return False
        tagged = self.pager.device.tagged
        with self.pager.operation():
            path: List[Tuple[int, Optional[str]]] = []
            pid = self.root_pid
            removed = False
            while True:
                with tagged("first-level"):
                    page = self.pager.fetch(pid)
                self.pager.crash_point("solution1.delete.descent")
                if page.get_header("kind") == "leaf":
                    with tagged("leaf"):
                        removed = self._delete_from_leaf(page, segment)
                        if removed:
                            page.set_header("weight", page.get_header("weight") - 1)
                            self.pager.write(page)
                    break
                c = page.get_header("x")
                if segment.spans_x(c):
                    path.append((pid, None))
                    with tagged("second-level"):
                        removed = self._delete_at_node(page, segment, c)
                    break
                side = "left" if segment.xmax < c else "right"
                path.append((pid, side))
                pid = page.get_header(side)
            if removed:
                self.size -= 1
                with tagged("first-level"):
                    for node_pid, _side in path:
                        node = self.pager.fetch(node_pid)
                        node.set_header("weight", node.get_header("weight") - 1)
                        self.pager.write(node)
                with tagged("rebuild"):
                    self._rebalance_path(path)
            return removed

    def _delete_from_leaf(self, page, segment: Segment) -> bool:
        items = list(page.items)
        for i, s in enumerate(items):
            if s == segment:
                del items[i]
                page.put_items(items)
                self.pager.write(page)
                return True
        return False

    def _delete_at_node(self, page, segment: Segment, c) -> bool:
        interval, lpart, rpart = split_at_line(segment, c)
        c_index = self._c_index(page)
        l_index = self._lr_index(page, "l")
        r_index = self._lr_index(page, "r")
        removed = False
        if interval is not None:
            removed = c_index.delete(interval[0], interval[1])
        else:
            if lpart is not None:
                removed = l_index.delete(lpart)
            if rpart is not None:
                removed = r_index.delete(rpart) or removed
        if removed:
            page.set_header("here", page.get_header("here") - 1)
            self.pager.crash_point("solution1.delete.second-level")
            self._sync_node(page, c_index, l_index, r_index)
        return removed

    # ------------------------------------------------------------------
    # balance maintenance
    # ------------------------------------------------------------------
    def _rebalance_path(self, path) -> None:
        """Rebuild the topmost BB[α]-violating subtree on the update path.

        ``path`` lists ``(pid, side)`` from the root down, ``side`` naming
        the child the update entered, ``None`` at the node where it
        stopped.  The weights come from pages the update already holds:
        the entered child's from its own page (pinned by the descent, or
        written by a leaf rebuild), the sibling's as ``weight − here −
        w_child``, the identity ``_check_subtree`` asserts.  At the
        stopping node neither child was entered, so the check reads the
        left one; it cannot skip that node even after an insert, because
        ``bb_balanced`` is not monotone in the weight (a node of weight
        ``BALANCE_SLACK`` is exempt, one more is not).
        """
        parent_pid = parent_side = None
        for pid, side in path:
            page = self.pager.fetch(pid)
            weight = page.get_header("weight")
            child = self.pager.fetch(page.get_header(side or "left"))
            w_child = child.get_header("weight")
            if bb_balanced(weight, w_child, weight - page.get_header("here") - w_child):
                parent_pid, parent_side = pid, side
                continue
            segments = self._collect(pid)
            self._destroy_subtree(pid)
            self.pager.crash_point("solution1.rebalance")
            new_pid = self._build_subtree(segments)
            self._replace_child(parent_pid, parent_side, pid, new_pid)
            return

    def _collect(self, pid: int) -> List[Segment]:
        page = self.pager.fetch(pid)
        if page.get_header("kind") == "leaf":
            return list(page.items)
        out: Dict = {}
        for _lo, _hi, s in self._c_index(page).items():
            out[s.label] = s
        for side in ("l", "r"):
            for lb in self._lr_index(page, side).all_segments():
                out[lb.payload.label] = lb.payload
        segments = list(out.values())
        segments.extend(self._collect(page.get_header("left")))
        segments.extend(self._collect(page.get_header("right")))
        return segments

    def _destroy_subtree(self, pid: int) -> None:
        page = self.pager.fetch(pid)
        if page.get_header("kind") == "node":
            self._c_index(page).destroy()
            self._lr_index(page, "l").destroy()
            self._lr_index(page, "r").destroy()
            self._destroy_subtree(page.get_header("left"))
            self._destroy_subtree(page.get_header("right"))
        self.pager.free(pid)

    def destroy(self) -> None:
        if self.root_pid is not None:
            self._destroy_subtree(self.root_pid)
            self.root_pid = None
            self.size = 0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def all_segments(self) -> List[Segment]:
        return self._collect(self.root_pid) if self.root_pid is not None else []

    def __len__(self) -> int:
        return self.size

    def height(self) -> int:
        """Levels from the root to the deepest leaf (0 when empty)."""
        def depth(pid: int) -> int:
            page = self.pager.fetch(pid)
            if page.get_header("kind") == "leaf":
                return 1
            return 1 + max(depth(page.get_header("left")),
                           depth(page.get_header("right")))

        return depth(self.root_pid) if self.root_pid is not None else 0

    def check_invariants(self, deep: bool = False) -> None:
        """Verify weights, BB[α] balance, segment placement and band
        separation.

        With ``deep=True`` every node's second-level structures are also
        checked (PST heap/x-order, B+-tree order of the on-line index) —
        the fsck walk.
        """
        if self.root_pid is None:
            assert self.size == 0
            return
        total = self._check_subtree(self.root_pid, None, None, deep)
        assert total == self.size, f"size mismatch: {total} != {self.size}"

    def verify(self) -> List[str]:
        """Deep structural check; returns problems instead of raising."""
        try:
            self.check_invariants(deep=True)
        except AssertionError as exc:
            return [f"solution1: invariant violated: {exc}"]
        except StorageError as exc:
            return [f"solution1: {type(exc).__name__}: {exc}"]
        return []

    def _check_subtree(self, pid: int, lo, hi, deep: bool = False) -> int:
        page = self.pager.fetch(pid)
        if page.get_header("kind") == "leaf":
            for s in page.items:
                assert lo is None or s.xmin > lo, f"leaf segment out of band: {s!r}"
                assert hi is None or s.xmax < hi, f"leaf segment out of band: {s!r}"
            assert page.get_header("weight") == len(page.items)
            return len(page.items)
        c = page.get_header("x")
        assert lo is None or c > lo
        assert hi is None or c < hi
        here = set()
        for _l, _h, s in self._c_index(page).items():
            assert s.is_vertical and s.start.x == c
            here.add(s.label)
        for side, frame_side in (("l", "left"), ("r", "right")):
            for lb in self._lr_index(page, side).all_segments():
                s = lb.payload
                assert s.spans_x(c), f"{s!r} misplaced at line x={c}"
                here.add(s.label)
        if deep:
            self._c_index(page).check_invariants()
            self._lr_index(page, "l").check_invariants()
            self._lr_index(page, "r").check_invariants()
        count = len(here)
        assert count == page.get_header("here"), f"here-count stale at {pid}"
        wl = self._check_subtree(page.get_header("left"), lo, c, deep)
        wr = self._check_subtree(page.get_header("right"), c, hi, deep)
        count += wl + wr
        assert count == page.get_header("weight"), f"weight stale at {pid}"
        assert bb_balanced(count, wl, wr), (
            f"BB[alpha] balance violated at {pid}: children {wl}/{wr} "
            f"of weight {count}")
        return count

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """In-memory state to restore alongside a journal rollback."""
        return (self.root_pid, self.size)

    def restore_state(self, state: tuple) -> None:
        self.root_pid, self.size = state

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        """Everything beyond the page store needed to re-attach the engine."""
        return {"root_pid": self.root_pid, "size": self.size,
                "blocked": self.blocked}

    @classmethod
    def attach(cls, pager: Pager, meta: dict) -> "TwoLevelBinaryIndex":
        """Re-attach to an already-populated page store (no build I/O)."""
        index = cls(pager, blocked=meta["blocked"])
        index.root_pid = meta["root_pid"]
        index.size = meta["size"]
        return index
