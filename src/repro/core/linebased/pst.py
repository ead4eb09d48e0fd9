"""The external priority search tree for line-based segments (Section 2).

Construction (Figure 3): the node keeps the ``B`` tallest segments of its
set, ordered by their intersections with the base line; the rest are split
into equal-size parts by base order and built recursively, and a copy of
each part's tallest segment is kept in the node for routing (the paper's
``v.left`` / ``v.right``).  The resulting tree has the *heap property on
apex heights* and *contiguous base-order bands* per subtree; ``v.low``
separates the node's segments from everything below.

Two fan-outs matter:

* ``fanout=2`` — the paper's binary tree: height ``O(log2 n)``, one block
  per node, query ``O(log2 n + t)`` I/Os (Lemmas 1–2).
* ``fanout=Θ(B)`` — :class:`BlockedPST`, our stand-in for the P-range-tree
  acceleration: height ``O(log_B n)``, two blocks per node, query
  ``O(log_B n + t)`` I/Os (Lemma 3; see DESIGN.md §2 for why this
  substitution is faithful).

Only *proper* segments (``h1 > 0``) are stored; segments lying on the base
line belong in a :class:`~repro.storage.disjoint.DisjointIntervalIndex`
(that is where the two-level structures put them too).  The
:class:`~repro.core.linebased.index.LineBasedIndex` facade combines both.

Updates use the amortised scheme of DESIGN.md: single insertions sift
through the height heap along the base-order path (``O(height)`` I/Os);
leaf overflows rebuild the leaf locally; a whole-tree rebuild runs every
``max(B, size/2)`` updates to restore balance (``O(1/B)`` amortised I/Os).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Iterable, Iterator, List, Optional, Tuple

from ...geometry import HQuery, LineBasedSegment
from ...iosim import Pager
from .node import (
    ChildRef,
    NodeView,
    free_node,
    read_node,
    read_node_cached,
    write_node,
)
from .search import pst_find, pst_report


def _key(segment: LineBasedSegment) -> Tuple:
    return segment.base_order_key()


def _height_order(segment: LineBasedSegment) -> Tuple:
    """Deterministic total order on apex heights (tallest last)."""
    return (segment.h1, segment.base_order_key())


class ExternalPST:
    """External-memory priority search tree over proper line-based segments."""

    def __init__(self, pager: Pager, fanout: int = 2):
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.pager = pager
        self.fanout = fanout
        self.root_pid: Optional[int] = None
        self.size = 0
        #: Apex height of the tallest stored segment (``None`` when
        #: empty): the root's routing copy, kept beside the root pointer
        #: so a caller can rule the whole tree out without reading it.
        self.top_h = None
        self._updates_since_rebuild = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        pager: Pager,
        segments: Iterable[LineBasedSegment],
        fanout: int = 2,
    ) -> "ExternalPST":
        tree = cls(pager, fanout=fanout)
        tree._load(segments)
        return tree

    def _load(self, segments: Iterable[LineBasedSegment]) -> None:
        """Bulk-build this (empty) tree from ``segments``."""
        ordered = sorted(segments, key=_key)
        for s in ordered:
            if s.on_base_line:
                raise ValueError(
                    f"{s!r} lies on the base line; store it in a "
                    f"DisjointIntervalIndex (see LineBasedIndex)"
                )
        self.size = len(ordered)
        if ordered:
            self.root_pid = self._build_subtree(ordered)
            self.top_h = max(s.h1 for s in ordered)

    def _node_capacity(self) -> int:
        return self.pager.device.block_capacity

    def _parts_for(self, rest: int) -> int:
        """Fan-out for splitting ``rest`` remaining segments.

        Shrinks near the bottom of the tree (a child should be worth at
        least a couple of blocks) so leaf occupancy stays high instead of
        spawning ``fanout`` near-empty subtrees.
        """
        capacity = self._node_capacity()
        return max(2, min(self.fanout, rest, -(-rest // (2 * capacity))))

    def _build_subtree(self, ordered: List[LineBasedSegment]) -> int:
        """Build from base-key-sorted segments; returns the node pid."""
        capacity = self._node_capacity()
        if len(ordered) <= capacity:
            node = write_node(self.pager, ordered, [], low=0)
            return node.pid

        # The B tallest stay here; ties broken deterministically.
        by_height = sorted(ordered, key=_height_order, reverse=True)
        here = set(id(s) for s in by_height[:capacity])
        items = [s for s in ordered if id(s) in here]
        rest = [s for s in ordered if id(s) not in here]
        low = max(s.h1 for s in rest)

        n_parts = self._parts_for(len(rest))
        children: List[ChildRef] = []
        part_size = math.ceil(len(rest) / n_parts)
        for start in range(0, len(rest), part_size):
            part = rest[start : start + part_size]
            child_pid = self._build_subtree(part)
            top = max(part, key=_height_order)
            children.append(
                ChildRef(
                    pid=child_pid,
                    top=top,
                    min_base=_key(part[0]),
                    max_base=_key(part[-1]),
                    count=len(part),
                    split_key=_key(part[0]),
                )
            )
        node = write_node(self.pager, items, children, low=low)
        return node.pid

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def read_root(self) -> Optional[NodeView]:
        if self.root_pid is None:
            return None
        return read_node(self.pager, self.root_pid)

    def read(self, pid: int) -> NodeView:
        # Query-path reads (the search module) come through here and may
        # reuse the page-cached decode; update paths call ``read_node``
        # directly because they mutate the view's lists in place.
        return read_node_cached(self.pager, pid)

    def height(self) -> int:
        """Tree height in nodes (diagnostics; walks the leftmost path)."""
        h = 0
        pid = self.root_pid
        while pid is not None:
            h += 1
            node = read_node(self.pager, pid)
            pid = node.children[0].pid if node.children else None
        return h

    def all_segments(self) -> Iterator[LineBasedSegment]:
        """Every stored segment (pre-order; diagnostics and rebuilds)."""
        if self.root_pid is None:
            return
        stack = [self.root_pid]
        while stack:
            node = read_node(self.pager, stack.pop())
            yield from node.items
            stack.extend(c.pid for c in node.children)

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # queries — delegated to the search module
    # ------------------------------------------------------------------
    def query(self, query: HQuery) -> List[LineBasedSegment]:
        """All stored segments intersecting ``query`` (each exactly once)."""
        return pst_report(self, query)

    def find_leftmost(self, query: HQuery):
        """The paper's ``Find``: deepest-leftmost intersected segment."""
        return pst_find(self, query, side="left")

    def find_rightmost(self, query: HQuery):
        return pst_find(self, query, side="right")

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, segment: LineBasedSegment) -> None:
        """Insert one proper segment (amortised ``O(height)`` I/Os).

        The caller is responsible for the new segment being non-crossing
        with the stored set (the paper's update model); use
        :func:`repro.geometry.lb_cross` to validate externally when needed.
        """
        if segment.on_base_line:
            raise ValueError("on-base-line segments go to the on-line index")
        self.size += 1
        if self.top_h is None or segment.h1 > self.top_h:
            self.top_h = segment.h1
        if self.root_pid is None:
            self.root_pid = self._build_subtree([segment])
            self._updates_since_rebuild = 0
            return
        self._sift_insert(self.root_pid, segment)
        self._maybe_rebuild()

    def _sift_insert(self, pid: int, segment: LineBasedSegment) -> None:
        node = read_node(self.pager, pid)
        capacity = self._node_capacity()
        # Place the segment in this node; evict the shortest on overflow.
        items = node.items
        insort(items, segment, key=_key)
        if len(items) <= capacity:
            write_node(self.pager, items, node.children, node.low,
                       items_page=self.pager.fetch(pid))
            return
        evicted = items.pop(min(range(len(items)),
                                key=lambda i: _height_order(items[i])))

        if node.is_leaf:
            # Split the overflowing leaf into a node with children; the
            # evicted row goes back after its equal base keys, where the
            # rebuild has always found it.
            insort(items, evicted, key=_key)
            new_pid = self._rebuild_at(pid, items)
            assert new_pid == pid
            return

        # Route the evicted segment to a child by base key.
        slot = self._route_slot(node.children, _key(evicted))
        child = node.children[slot]
        child.count += 1
        if _height_order(evicted) > _height_order(child.top):
            child.top = evicted
        child.min_base = min(child.min_base, _key(evicted))
        child.max_base = max(child.max_base, _key(evicted))
        new_low = max(node.low, evicted.h1)
        write_node(self.pager, items, node.children, new_low,
                   items_page=self.pager.fetch(pid))
        # The parent now routes to a child that does not hold the evicted
        # segment yet — the classic torn-update window.
        self.pager.crash_point("pst.insert.sift")
        self._sift_insert(child.pid, evicted)

    @staticmethod
    def _route_slot(children: List[ChildRef], key: Tuple) -> int:
        slot = 0
        for i, child in enumerate(children):
            if key >= child.split_key:
                slot = i
            else:
                break
        return slot

    def _rebuild_at(self, pid: int, ordered: List[LineBasedSegment]) -> int:
        """Rebuild the subtree rooted at ``pid`` in place from ``ordered``."""
        node = read_node(self.pager, pid)
        for child in node.children:
            self._free_subtree(child.pid)
        capacity = self._node_capacity()
        page = self.pager.fetch(pid)
        if len(ordered) <= capacity:
            write_node(self.pager, ordered, [], low=0, items_page=page)
            return pid
        by_height = sorted(ordered, key=_height_order, reverse=True)
        here = set(id(s) for s in by_height[:capacity])
        items = [s for s in ordered if id(s) in here]
        rest = [s for s in ordered if id(s) not in here]
        low = max(s.h1 for s in rest)
        n_parts = self._parts_for(len(rest))
        part_size = math.ceil(len(rest) / n_parts)
        children = []
        for start in range(0, len(rest), part_size):
            part = rest[start : start + part_size]
            child_pid = self._build_subtree(part)
            children.append(
                ChildRef(
                    pid=child_pid,
                    top=max(part, key=_height_order),
                    min_base=_key(part[0]),
                    max_base=_key(part[-1]),
                    count=len(part),
                    split_key=_key(part[0]),
                )
            )
        write_node(self.pager, items, children, low, items_page=page)
        return pid

    def _free_subtree(self, pid: int) -> None:
        node = read_node(self.pager, pid)
        for child in node.children:
            self._free_subtree(child.pid)
        free_node(self.pager, node)

    def delete(self, segment: LineBasedSegment) -> bool:
        """Delete one segment by identity (label + geometry).

        Walks the base-order path; on removal, the tallest segment of the
        children is pulled up to keep the height heap intact.
        """
        if self.root_pid is None:
            return False
        removed = self._delete_below(self.root_pid, segment)
        if removed:
            self.pager.crash_point("pst.delete")
            self.size -= 1
            # The heap property keeps the tallest segment in the root,
            # which this operation has already read.
            root = read_node(self.pager, self.root_pid)
            self.top_h = max((s.h1 for s in root.items), default=None)
            if not root.items and root.is_leaf and self.size == 0:
                free_node(self.pager, root)
                self.root_pid = None
            self._maybe_rebuild()
        return removed

    def _delete_below(self, pid: int, segment: LineBasedSegment) -> bool:
        node = read_node(self.pager, pid)
        items = node.items
        key = _key(segment)
        # Equal segments have equal base keys: test equality on that run.
        for i in range(bisect_left(items, key, key=_key),
                       bisect_right(items, key, key=_key)):
            if items[i] == segment:
                del items[i]
                self._pull_up(node)
                return True
        if node.is_leaf:
            return False
        for child in node.children:
            if child.min_base <= key <= child.max_base:
                if self._delete_below(child.pid, segment):
                    child.count -= 1
                    if child.count == 0:
                        self._free_subtree(child.pid)
                        node.children.remove(child)
                    elif segment == child.top:
                        child.top = self._subtree_top(child.pid)
                    write_node(
                        self.pager, node.items, node.children, node.low,
                        items_page=self.pager.fetch(pid),
                    )
                    return True
        return False

    def _pull_up(self, node: NodeView) -> None:
        """Refill ``node`` with the tallest child-subtree segment."""
        while node.children:
            best = max(
                (c for c in node.children if c.count > 0),
                key=lambda c: _height_order(c.top),
                default=None,
            )
            if best is None:
                node.children = []
                break
            promoted = best.top
            insort(node.items, promoted, key=_key)
            removed = self._delete_below(best.pid, promoted)
            assert removed, "routing top desynchronised"
            best.count -= 1
            if best.count == 0:
                self._free_subtree(best.pid)
                node.children.remove(best)
            else:
                best.top = self._subtree_top(best.pid)
            break
        low = max((c.top.h1 for c in node.children if c.count > 0), default=0)
        write_node(
            self.pager, node.items, node.children, low,
            items_page=self.pager.fetch(node.pid),
        )

    def _subtree_top(self, pid: int) -> Optional[LineBasedSegment]:
        node = read_node(self.pager, pid)
        if not node.items:
            return None
        return max(node.items, key=_height_order)

    def _maybe_rebuild(self) -> None:
        self._updates_since_rebuild += 1
        threshold = max(self._node_capacity(), self.size // 2)
        if self._updates_since_rebuild >= threshold and self.root_pid is not None:
            everything = sorted(self.all_segments(), key=_key)
            self._free_subtree(self.root_pid)
            # Every page of the old tree is freed, the new one not built.
            self.pager.crash_point("pst.rebuild")
            self.root_pid = self._build_subtree(everything) if everything else None
            self._updates_since_rebuild = 0

    # ------------------------------------------------------------------
    # invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the heap property, band consistency and routing copies."""
        if self.root_pid is None:
            assert self.size == 0
            assert self.top_h is None, f"top_h {self.top_h} on an empty tree"
            return
        count = self._check_subtree(self.root_pid)
        assert count == self.size, f"size mismatch: {count} != {self.size}"
        tallest = max((s.h1 for s in self.all_segments()), default=None)
        assert self.top_h == tallest, f"top_h stale: {self.top_h} != {tallest}"

    def _check_subtree(self, pid: int) -> int:
        node = read_node(self.pager, pid)
        keys = [_key(s) for s in node.items]
        assert keys == sorted(keys), f"node {pid} items not in base order"
        count = len(node.items)
        min_here = min((s.h1 for s in node.items), default=None)
        for child in node.children:
            child_node = read_node(self.pager, pid=child.pid)
            actual_top = max(child_node.items, key=_height_order)
            # Heap property: everything below is no taller than this node's
            # shortest (ties allowed), and the routing copy is the true top.
            sub_count = self._check_subtree(child.pid)
            assert sub_count == child.count, f"child count stale at {pid}"
            assert child.top.h1 <= (min_here if min_here is not None else child.top.h1)
            assert child.top == actual_top, f"routing top stale at {pid}"
            subtree_keys = self._subtree_keys(child.pid)
            # Bands may be conservative (supersets) after deletions; they
            # must always *cover* the subtree.
            assert child.min_base <= min(subtree_keys), f"min_base broken at {pid}"
            assert child.max_base >= max(subtree_keys), f"max_base broken at {pid}"
            count += sub_count
        return count

    def _subtree_keys(self, pid: int) -> List[Tuple]:
        node = read_node(self.pager, pid)
        keys = [_key(s) for s in node.items]
        for child in node.children:
            keys.extend(self._subtree_keys(child.pid))
        return keys


class BlockedPST(ExternalPST):
    """The Lemma-3 variant: fan-out ``Θ(B)`` shortens the path to
    ``O(log_B n)`` I/Os, standing in for the P-range-tree acceleration."""

    def __init__(self, pager: Pager):
        super().__init__(pager, fanout=max(2, pager.device.block_capacity // 4))

    @classmethod
    def build_blocked(
        cls, pager: Pager, segments: Iterable[LineBasedSegment]
    ) -> "BlockedPST":
        tree = cls(pager)
        tree._load(segments)
        return tree
