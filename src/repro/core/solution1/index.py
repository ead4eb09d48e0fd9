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

Layout.  The first level's internal nodes are *records* (plain tuples,
fields :data:`X` … :data:`R_META`) packed into supernode pages, each
holding the top :func:`levels_per_page` levels of a binary subtree, as
:class:`~repro.core.linebased.pst.BlockedPST` packs Lemma 3's routing.
A node at depth ``d`` lives in the page rooted at its ancestor of depth
``⌊d/k⌋·k``; its children are slots of the same page (stored as ``~slot``,
so negative) or page ids (a leaf page, or a supernode whose root is slot
0).  A descent therefore reads, and an update's weight changes write,
one page per ``k`` levels; the node set, every rebuild decision and the
answers do not depend on ``k``.  Records sit in each page in pre-order,
so replacing a subtree never moves its ancestors' slots.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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

#: Fields of a first-level node record: the base line ``x = X``, the two
#: children, the subtree's weight, the number of segments stored here,
#: the root of ``C(v)`` and the metadata of ``L(v)`` and ``R(v)``.
X, LEFT, RIGHT, WEIGHT, HERE, C_ROOT, L_META, R_META = range(8)


def levels_per_page(block_capacity: int) -> int:
    """``k``: the binary levels one first-level page holds.

    The largest ``k`` with ``2^k − 1 ≤ B//4`` records, at least 1.  A
    record carries about 20 words (two 7-field PST metadata tuples and six
    words), about four segments' worth, the budget ``BlockedPST`` gives
    its routing records.
    """
    return max(1, (block_capacity // 4 + 1).bit_length() - 1)


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
        self.levels = levels_per_page(pager.device.block_capacity)
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
            index.root_pid = index._place(index._build_subtree(segments))
        return index

    def _build_subtree(self, segments: List[Segment]):
        """The subtree over ``segments``: a written leaf's page id, or a
        *draft* of its root — a record as a list whose children are page
        ids or drafts, which :meth:`_pack` writes into pages."""
        capacity = self.pager.device.block_capacity
        if len(segments) <= capacity:
            return self._write_leaf(segments)
        c = self._median_x(segments)
        here, lefts, rights = self._partition(segments, c)
        # When every segment meets the median line the children are empty
        # leaves, but the node must still exist to host C/L/R.
        left = self._build_subtree(lefts) if lefts else self._write_leaf([])
        right = self._build_subtree(rights) if rights else self._write_leaf([])
        return self._draft(c, here, left, right, len(segments))

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

    def _draft(self, c, here: List[Segment], left, right, weight: int) -> list:
        """Build ``C``/``L``/``R`` for the node at line ``c``; returns its
        draft."""
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
        return [c, left, right, weight, len(here), c_index.root_pid,
                l_index.metadata(), r_index.metadata()]

    def _place(self, node) -> int:
        """The page id of ``node``: a leaf's own, or a draft packed into
        fresh pages."""
        return node if isinstance(node, int) else self._pack(node)

    def _pack(self, root: list, page=None) -> int:
        """Write draft ``root`` and its descendants down to ``k − 1``
        levels below it into ``page`` (a fresh one when ``None``), in
        pre-order from slot 0; deeper drafts get pages of their own.
        Returns the page id."""
        if page is None:
            page = self.pager.alloc()
            page.set_header("kind", "node")
        records: List[Optional[tuple]] = []

        def put(node: list, level: int) -> int:
            slot = len(records)
            records.append(None)
            refs = [child if isinstance(child, int)
                    else ~put(child, level + 1) if level + 1 < self.levels
                    else self._pack(child)
                    for child in (node[LEFT], node[RIGHT])]
            records[slot] = (node[X], refs[0], refs[1], *node[WEIGHT:])
            return slot

        put(root, 0)
        page.put_items(records)
        self.pager.write(page)
        return page.page_id

    # ------------------------------------------------------------------
    # node access helpers
    # ------------------------------------------------------------------
    def _child(self, page, ref: int):
        """``(page, slot)`` of the node ``ref`` names from ``page``: a slot
        of the same page, or slot 0 of the page it names (fetched)."""
        if ref < 0:
            return page, ~ref
        return self.pager.fetch(ref), 0

    def _child_weight(self, page, ref: int) -> int:
        child, slot = self._child(page, ref)
        if child.get_header("kind") == "leaf":
            return child.get_header("weight")
        return child.items[slot][WEIGHT]

    @staticmethod
    def _set(page, slot: int, field: int, *values) -> tuple:
        """Store ``values`` in the record at ``slot`` from ``field`` on,
        and return the new record (the page still needs writing).

        The tuple is replaced, never edited: a journal's pre-image copies
        ``page.items`` shallowly, so it keeps the old record."""
        record = page.items[slot]
        record = record[:field] + values + record[field + len(values):]
        page.items[slot] = record
        return record

    def _c_index(self, record) -> DisjointIntervalIndex:
        return DisjointIntervalIndex.attach(self.pager, record[C_ROOT])

    def _lr_index(self, record, side: str) -> LineBasedIndex:
        return LineBasedIndex.attach(
            self.pager, record[L_META if side == "l" else R_META])

    # Read-only paths additionally memoise the attached views on the
    # page (``page.views``), keyed by the record's slot — the decode is
    # pure and record-driven, and the cache is dropped on every write of
    # the page, so a cached view can never outlive the record it decodes.
    # Update paths must NOT use these: they mutate the attached object in
    # memory, and a mid-operation crash rolls the pages back but could
    # not un-mutate a cached view.  Attached views also bind the pager
    # they charge I/O through, so the pager is part of the key (a
    # re-attached engine over the same device must not reuse a view
    # whose operation scopes live on the old pager).  Queries revisit hot
    # nodes constantly; re-attaching per visit was a measurable tax.

    def _c_index_cached(self, page, slot: int) -> DisjointIntervalIndex:
        views = page.views
        if views is None:
            views = page.views = {}
        key = ("c", slot, self.pager)
        index = views.get(key)
        if index is None:
            index = views[key] = self._c_index(page.items[slot])
        return index

    def _lr_index_cached(self, page, slot: int, side: str) -> LineBasedIndex:
        views = page.views
        if views is None:
            views = page.views = {}
        key = (side, slot, self.pager)
        index = views.get(key)
        if index is None:
            index = views[key] = self._lr_index(page.items[slot], side)
        return index

    def _frame(self, page, slot: int, side: str) -> VerticalBaseFrame:
        views = page.views
        if views is None:
            views = page.views = {}
        key = ("frame", slot, side)
        frame = views.get(key)
        if frame is None:
            frame = views[key] = VerticalBaseFrame(page.items[slot][X], side)
        return frame

    def _sync_node(self, page, slot: int, c_index, l_index, r_index) -> None:
        self._set(page, slot, C_ROOT, c_index.root_pid, l_index.metadata(),
                  r_index.metadata())
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
            ref = self.root_pid
            while True:
                if ref < 0:
                    slot = ~ref
                else:
                    with tagged("first-level"):
                        page = self.pager.fetch(ref)
                    if page.get_header("kind") == "leaf":
                        with tagged("leaf"):
                            out.extend(page_query_hits(page.items, q))
                        return out
                    slot = 0
                record = page.items[slot]
                c = record[X]
                if q.x == c:
                    self._report_on_line_node(page, slot, q, out)
                    return out
                # h as the side's frame measures it: a PST whose tallest
                # segment stays below h is skipped before any read.
                if q.x < c:
                    if pst_reaches(record[L_META], c - q.x):
                        with tagged("PST"):
                            frame = self._frame(page, slot, "left")
                            hits = self._lr_index_cached(page, slot, "l").query(
                                frame.to_hquery(q))
                            out.extend(h.payload for h in hits)
                    ref = record[LEFT]
                else:
                    if pst_reaches(record[R_META], q.x - c):
                        with tagged("PST"):
                            frame = self._frame(page, slot, "right")
                            hits = self._lr_index_cached(page, slot, "r").query(
                                frame.to_hquery(q))
                            out.extend(h.payload for h in hits)
                    ref = record[RIGHT]

    def query_batch(self, queries: Iterable[VerticalQuery]) -> List[List[Segment]]:
        """Answer many VS queries with one shared descent of the tree.

        The batch is sorted by query ``x`` and routed through the binary
        tree as *groups*: every first-level page on the union of search
        paths is fetched (and pinned) exactly once per group, no matter
        how many queries pass through it — the ``log`` descent term is
        paid once per group.  The per-query second-level searches (C / L /
        R) and the ``+t`` output term are irreducible and stay per-query,
        each inside its own operation scope so the I/O accounting matches
        the sequential cost model (no batch-wide dedupe masquerading as
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
        """Route one x-sorted group of queries through the page ``pid``."""
        tagged = self.pager.device.tagged
        with tagged("first-level"):
            page = self.pager.fetch(pid)
        with self.pager.pinning(pid):
            if page.get_header("kind") == "leaf":
                items = page.items
                with tagged("leaf"):
                    for i in group:
                        out[i].extend(page_query_hits(items, queries[i]))
                return
            self._route_group(page, 0, group, queries, out)

    def _route_group(
        self,
        page,
        slot: int,
        group: List[int],
        queries: List[VerticalQuery],
        out: List[List[Segment]],
    ) -> None:
        """Route a group through the record at ``slot`` of the held
        ``page``, and on through its children."""
        tagged = self.pager.device.tagged
        record = page.items[slot]
        c = record[X]
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
                self._report_on_line_node(page, slot, queries[i], out[i])
        reach = [i for i in lefts if pst_reaches(record[L_META], c - queries[i].x)]
        if reach:
            l_index = self._lr_index_cached(page, slot, "l")
            frame = self._frame(page, slot, "left")
            with tagged("PST"):
                for i in reach:
                    with self.pager.operation():
                        hits = l_index.query(frame.to_hquery(queries[i]))
                    out[i].extend(h.payload for h in hits)
        reach = [i for i in rights if pst_reaches(record[R_META], queries[i].x - c)]
        if reach:
            r_index = self._lr_index_cached(page, slot, "r")
            frame = self._frame(page, slot, "right")
            with tagged("PST"):
                for i in reach:
                    with self.pager.operation():
                        hits = r_index.query(frame.to_hquery(queries[i]))
                    out[i].extend(h.payload for h in hits)
        for ref, sub in ((record[LEFT], lefts), (record[RIGHT], rights)):
            if not sub:
                continue
            if ref < 0:
                self._route_group(page, ~ref, sub, queries, out)
            else:
                self._query_group(ref, sub, queries, out)

    def _report_on_line_node(self, page, slot: int, q: VerticalQuery,
                             out: List[Segment]) -> None:
        """The query lies exactly on this node's base line (search stops)."""
        tagged = self.pager.device.tagged
        record = page.items[slot]
        seen: Dict = {}
        with tagged("C"):
            c_index = self._c_index_cached(page, slot)
            for _lo, _hi, s in c_index.overlap(q.ylo, q.yhi):
                seen[s.label] = s
        h0 = HQuery(0, q.ylo, q.yhi)
        for side, field in (("l", L_META), ("r", R_META)):
            if not pst_reaches(record[field], 0):
                continue  # an empty PST
            with tagged("PST"):
                for hit in self._lr_index_cached(page, slot, side).query(h0):
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
            # (pid, slot, level, field): each record on the path, how many
            # levels it sits below its page's root, and the child field the
            # update entered, None where it stopped.
            path: List[Tuple[int, int, int, Optional[int]]] = []
            ref = self.root_pid
            while True:
                if ref < 0:
                    slot, level = ~ref, level + 1
                else:
                    pid, slot, level = ref, 0, 0
                    with tagged("first-level"):
                        page = self.pager.fetch(pid)
                if page.get_header("kind") == "leaf":
                    with tagged("first-level"):
                        page.set_header("weight", page.get_header("weight") + 1)
                        self.pager.write(page)
                    self.pager.crash_point("solution1.insert.descent")
                    # Leaves are not on the rebalance path: an overflowing
                    # leaf is rebuilt (and freed) right here.
                    with tagged("leaf"):
                        self._insert_into_leaf(page, segment,
                                               path[-1] if path else None)
                    break
                record = self._set(page, slot, WEIGHT, page.items[slot][WEIGHT] + 1)
                c = record[X]
                field = (None if segment.spans_x(c)
                         else LEFT if segment.xmax < c else RIGHT)
                path.append((pid, slot, level, field))
                if field is None or record[field] >= 0:
                    # The walk stops in this page or leaves it: one write
                    # carries every weight it raised here.
                    with tagged("first-level"):
                        self.pager.write(page)
                self.pager.crash_point("solution1.insert.descent")
                if field is None:
                    with tagged("second-level"):
                        self._insert_at_node(page, slot, segment, c)
                    break
                ref = record[field]
            with tagged("rebuild"):
                self._rebalance_path(path)

    def _insert_at_node(self, page, slot: int, segment: Segment, c) -> None:
        # The descent has written the page; _sync_node writes it again.
        record = self._set(page, slot, HERE, page.items[slot][HERE] + 1)
        interval, lpart, rpart = split_at_line(segment, c)
        c_index = self._c_index(record)
        l_index = self._lr_index(record, "l")
        r_index = self._lr_index(record, "r")
        if interval is not None:
            c_index.insert(interval[0], interval[1], segment)
        if lpart is not None:
            l_index.insert(lpart)
        self.pager.crash_point("solution1.insert.second-level")
        if rpart is not None:
            r_index.insert(rpart)
        self._sync_node(page, slot, c_index, l_index, r_index)

    def _insert_into_leaf(self, page, segment: Segment, parent) -> None:
        capacity = self.pager.device.block_capacity
        items = list(page.items) + [segment]
        if len(items) <= capacity:
            page.put_items(items)
            self.pager.write(page)
            return
        # Leaf overflow: rebuild this leaf into a proper subtree.
        self.pager.free(page.page_id)
        self.pager.crash_point("solution1.insert.leaf-rebuild")
        self._replace_child(parent, self._build_subtree(items))

    def _replace_child(self, parent, node) -> None:
        """Hang ``node`` (a leaf's page id or a draft) where ``parent`` —
        a path entry ``(pid, slot, level, field)`` — points, or at the
        root when ``parent`` is None.

        When that position lies inside the parent's page, the page is
        re-laid out around ``node`` and the records of the subtree it
        replaces drop out; otherwise ``node`` gets pages of its own.
        Either way the parent's slot, and its ancestors', stay put: they
        precede ``node`` in pre-order.
        """
        if parent is None:
            self.root_pid = self._place(node)
            return
        pid, slot, level, field = parent
        page = self.pager.fetch(pid)
        if level + 1 < self.levels:
            self._repack(page, slot, field, node)
        else:
            self._set(page, slot, field, self._place(node))
            self.pager.write(page)

    def _repack(self, page, slot: int, field: int, node) -> None:
        """Re-lay out ``page`` with ``node`` as ``field`` child of the
        record at ``slot``."""
        items = page.items

        def draft(s: int) -> list:
            out = list(items[s])
            for f in (LEFT, RIGHT):
                if s == slot and f == field:
                    out[f] = node
                elif out[f] < 0:
                    out[f] = draft(~out[f])
            return out

        self._pack(draft(0), page)

    def delete(self, segment: Segment) -> bool:
        """Delete a stored segment (located by its x-extent and label)."""
        if self.root_pid is None:
            return False
        tagged = self.pager.device.tagged
        with self.pager.operation():
            path: List[Tuple[int, int, int, Optional[int]]] = []
            ref = self.root_pid
            removed = False
            while True:
                if ref < 0:
                    slot, level = ~ref, level + 1
                else:
                    pid, slot, level = ref, 0, 0
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
                record = page.items[slot]
                c = record[X]
                if segment.spans_x(c):
                    path.append((pid, slot, level, None))
                    with tagged("second-level"):
                        removed = self._delete_at_node(page, slot, segment, c)
                    break
                field = LEFT if segment.xmax < c else RIGHT
                path.append((pid, slot, level, field))
                ref = record[field]
            if removed:
                self.size -= 1
                with tagged("first-level"):
                    # One write per page, after all of its weights fell.
                    touched = {}
                    for pid, slot, _level, _field in path:
                        page = touched[pid] = self.pager.fetch(pid)
                        self._set(page, slot, WEIGHT, page.items[slot][WEIGHT] - 1)
                    for page in touched.values():
                        self.pager.write(page)
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

    def _delete_at_node(self, page, slot: int, segment: Segment, c) -> bool:
        record = page.items[slot]
        interval, lpart, rpart = split_at_line(segment, c)
        c_index = self._c_index(record)
        l_index = self._lr_index(record, "l")
        r_index = self._lr_index(record, "r")
        removed = False
        if interval is not None:
            removed = c_index.delete(interval[0], interval[1])
        else:
            if lpart is not None:
                removed = l_index.delete(lpart)
            if rpart is not None:
                removed = r_index.delete(rpart) or removed
        if removed:
            self._set(page, slot, HERE, record[HERE] - 1)
            self.pager.crash_point("solution1.delete.second-level")
            self._sync_node(page, slot, c_index, l_index, r_index)
        return removed

    # ------------------------------------------------------------------
    # balance maintenance
    # ------------------------------------------------------------------
    def _rebalance_path(self, path) -> None:
        """Rebuild the topmost BB[α]-violating subtree on the update path.

        ``path`` lists ``(pid, slot, level, field)`` from the root down,
        ``field`` naming the child the update entered, ``None`` at the node
        where it stopped.  The weights come from pages the update already
        holds: the entered child's from its record (in the same page, or
        the root of the next page, pinned by the descent or written by a
        leaf rebuild), the sibling's as ``weight − here − w_child``, the
        identity ``_check_subtree`` asserts.  At the stopping node neither
        child was entered, so the check takes the left one's, which costs
        a read when it heads another page; it cannot skip that node even
        after an insert, because ``bb_balanced`` is not monotone in the
        weight (a node of weight ``BALANCE_SLACK`` is exempt, one more is
        not).
        """
        parent = None
        for entry in path:
            pid, slot, _level, field = entry
            page = self.pager.fetch(pid)
            record = page.items[slot]
            weight = record[WEIGHT]
            w_child = self._child_weight(page, record[field or LEFT])
            if bb_balanced(weight, w_child, weight - record[HERE] - w_child):
                parent = entry
                continue
            segments = self._collect(page, slot)
            self._destroy_subtree(page, slot)
            self.pager.crash_point("solution1.rebalance")
            self._replace_child(parent, self._build_subtree(segments))
            return

    def _collect(self, page, slot: int = 0) -> List[Segment]:
        """Every segment below the node at ``slot`` of ``page``."""
        if page.get_header("kind") == "leaf":
            return list(page.items)
        record = page.items[slot]
        out: Dict = {}
        for _lo, _hi, s in self._c_index(record).items():
            out[s.label] = s
        for side in ("l", "r"):
            for lb in self._lr_index(record, side).all_segments():
                out[lb.payload.label] = lb.payload
        segments = list(out.values())
        segments.extend(self._collect(*self._child(page, record[LEFT])))
        segments.extend(self._collect(*self._child(page, record[RIGHT])))
        return segments

    def _destroy_subtree(self, page, slot: int = 0) -> None:
        """Free the subtree at ``slot`` of ``page``: its second-level
        structures, the pages below it, and ``page`` itself when the
        subtree owns it (its root is slot 0)."""
        if page.get_header("kind") == "node":
            record = page.items[slot]
            self._c_index(record).destroy()
            self._lr_index(record, "l").destroy()
            self._lr_index(record, "r").destroy()
            self._destroy_subtree(*self._child(page, record[LEFT]))
            self._destroy_subtree(*self._child(page, record[RIGHT]))
        if slot == 0:
            self.pager.free(page.page_id)

    def destroy(self) -> None:
        if self.root_pid is not None:
            self._destroy_subtree(self.pager.fetch(self.root_pid))
            self.root_pid = None
            self.size = 0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def all_segments(self) -> List[Segment]:
        if self.root_pid is None:
            return []
        return self._collect(self.pager.fetch(self.root_pid))

    def __len__(self) -> int:
        return self.size

    def walk(self, x=None, max_depth: Optional[int] = None
             ) -> Iterator[Tuple[int, object, Optional[int], Optional[tuple]]]:
        """The first level in pre-order, as ``(depth, page, slot, record)``
        with ``record`` the node at ``slot`` of ``page``; a leaf comes as
        ``(depth, page, None, None)``.  With ``x``, only the nodes a query
        at ``x`` visits; with ``max_depth``, nothing deeper is yielded or
        fetched.  Fetches are charged like any other."""
        if self.root_pid is None:
            return
        stack = [(0, self.pager.fetch(self.root_pid), 0)]
        while stack:
            depth, page, slot = stack.pop()
            if page.get_header("kind") == "leaf":
                yield depth, page, None, None
                continue
            record = page.items[slot]
            yield depth, page, slot, record
            if depth == max_depth:
                continue
            if x is None:
                refs = (record[RIGHT], record[LEFT])  # the left pops first
            elif x == record[X]:
                refs = ()
            else:
                refs = (record[LEFT if x < record[X] else RIGHT],)
            for ref in refs:
                stack.append((depth + 1, *self._child(page, ref)))

    def height(self) -> int:
        """Levels from the root to the deepest leaf (0 when empty)."""
        def depth(page, slot: int) -> int:
            if page.get_header("kind") == "leaf":
                return 1
            record = page.items[slot]
            return 1 + max(depth(*self._child(page, record[LEFT])),
                           depth(*self._child(page, record[RIGHT])))

        if self.root_pid is None:
            return 0
        return depth(self.pager.fetch(self.root_pid), 0)

    def check_invariants(self, deep: bool = False) -> None:
        """Verify weights, BB[α] balance, segment placement, band
        separation and the page layout.

        The layout: each page's records sit in pre-order from slot 0, none
        orphaned, at most ``2^k − 1`` of them, and a node lives in the
        page of its ancestor at depth ``⌊d/k⌋·k`` — an in-page child sits
        less than ``k`` levels below the page's root, a child page that is
        not a leaf exactly ``k``.  With ``deep=True`` every node's
        second-level structures are also checked (PST heap/x-order, B+-tree
        order of the on-line index) — the fsck walk.
        """
        if self.root_pid is None:
            assert self.size == 0
            return
        total = self._check_subtree(self.pager.fetch(self.root_pid), 0, 0,
                                    None, None, deep)
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

    def _check_layout(self, page) -> None:
        items = page.items
        order: List[int] = []

        def visit(slot: int) -> None:
            order.append(slot)
            record = items[slot]
            assert type(record) is tuple and len(record) == R_META + 1, (
                f"malformed record at slot {slot} of page {page.page_id}")
            for ref in record[LEFT:RIGHT + 1]:
                if ref < 0:
                    assert ~ref < len(items) and ~ref not in order, (
                        f"bad slot {~ref} in page {page.page_id}")
                    visit(~ref)

        visit(0)
        assert order == list(range(len(items))), (
            f"records of page {page.page_id} not in pre-order: {order}")
        assert len(items) <= 2 ** self.levels - 1, (
            f"page {page.page_id} holds {len(items)} records")

    def _check_subtree(self, page, slot: int, level: int, lo, hi,
                       deep: bool = False) -> int:
        pid = page.page_id
        if page.get_header("kind") == "leaf":
            for s in page.items:
                assert lo is None or s.xmin > lo, f"leaf segment out of band: {s!r}"
                assert hi is None or s.xmax < hi, f"leaf segment out of band: {s!r}"
            assert page.get_header("weight") == len(page.items)
            return len(page.items)
        if slot == 0:
            self._check_layout(page)
        record = page.items[slot]
        c = record[X]
        assert lo is None or c > lo
        assert hi is None or c < hi
        here = set()
        for _l, _h, s in self._c_index(record).items():
            assert s.is_vertical and s.start.x == c
            here.add(s.label)
        for side in ("l", "r"):
            for lb in self._lr_index(record, side).all_segments():
                s = lb.payload
                assert s.spans_x(c), f"{s!r} misplaced at line x={c}"
                here.add(s.label)
        if deep:
            self._c_index(record).check_invariants()
            self._lr_index(record, "l").check_invariants()
            self._lr_index(record, "r").check_invariants()
        count = len(here)
        assert count == record[HERE], f"here-count stale at {pid}:{slot}"
        weights = []
        for ref, band in ((record[LEFT], (lo, c)), (record[RIGHT], (c, hi))):
            child, child_slot = self._child(page, ref)
            if ref < 0:
                child_level = level + 1
                assert child_level < self.levels, (
                    f"record {pid}:{child_slot} is {child_level} levels "
                    f"below its page's root")
            else:
                child_level = 0
                assert (child.get_header("kind") == "leaf"
                        or level + 1 == self.levels), (
                    f"page {ref} starts {level + 1} levels below page {pid}'s "
                    f"root, not {self.levels}")
            weights.append(self._check_subtree(child, child_slot, child_level,
                                               *band, deep))
        wl, wr = weights
        count += wl + wr
        assert count == record[WEIGHT], f"weight stale at {pid}:{slot}"
        assert bb_balanced(count, wl, wr), (
            f"BB[alpha] balance violated at {pid}:{slot}: children {wl}/{wr} "
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
