"""An external-memory interval tree for stabbing queries.

This is the substrate the paper cites as reference [3] (Arge & Vitter's
external interval tree): ``O(n)``-block storage, stabbing queries in
``O(log_B n + t)`` I/Os, semi-dynamic insertions.  It is used directly by
the stab-and-filter baseline and, in spirit, as the first-level structure of
Solution 2 (which re-implements the slab decomposition with the paper's own
second-level structures).

Structure
---------
A fan-out-``b`` tree balanced over interval endpoints.  An internal node
covers an x-range split by boundaries ``s_1 < ... < s_b`` into ``b + 1``
slabs.  An interval whose endpoints fall in *different* slabs is stored at
the node:

* in the **left list** ``L_a`` of the slab ``a`` holding its left endpoint,
  keyed ascending by left endpoint;
* in the **right list** ``R_c`` of the slab ``c`` holding its right
  endpoint, keyed ascending by *negated* right endpoint; and
* when ``c >= a + 2``, in the **multislab list** ``[a+1 : c-1]`` it fully
  spans.

A stab at ``x`` in slab ``k`` reports the prefix of ``L_k`` with ``l <= x``,
the prefix of ``R_k`` with ``r >= x``, every multislab list whose range
contains ``k``, then recurses into child ``k``.  Each of the three cases is
mutually exclusive, so no interval is reported twice.

Deviations from [3] (documented in DESIGN.md §2): no corner/underflow
structure for sparse multislab lists and no weight-balancing of the fan-out
tree under insertion; leaves overflowing rebuild their subtree instead.
Lists use B+-trees whose *head-leaf page id is stable under insertion*, so
prefix scans start in O(1) I/Os.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..iosim import Pager
from .bplus import BPlusTree
from .chain import PageChain

Interval = Tuple[Any, Any, Any]  # (lo, hi, payload)

#: A leaf whose chain exceeds this many pages is rebuilt into a subtree.
LEAF_REBUILD_PAGES = 2


def default_fanout(block_capacity: int) -> int:
    """Largest fan-out with a one-page slab directory and routing page."""
    # Routing page holds b bounds + (b+1) children + 2(b+1) list records.
    by_routing = (block_capacity - 3) // 4
    by_directory = int(math.isqrt(2 * block_capacity))
    return max(2, min(by_routing, by_directory))


class ExternalIntervalTree:
    """Stabbing-query index over arbitrary (possibly overlapping) intervals."""

    def __init__(self, pager: Pager, fanout: Optional[int] = None):
        self.pager = pager
        self.fanout = fanout or default_fanout(pager.device.block_capacity)
        if self.fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {self.fanout}")
        records = 4 * self.fanout + 3
        if records > pager.device.block_capacity:
            raise ValueError(
                f"block capacity {pager.device.block_capacity} cannot hold a "
                f"fanout-{self.fanout} routing page ({records} records); "
                f"use B >= 11 or a smaller fanout"
            )
        self.root_pid: Optional[int] = None
        self._size = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        pager: Pager,
        intervals: Sequence[Interval],
        fanout: Optional[int] = None,
    ) -> "ExternalIntervalTree":
        tree = cls(pager, fanout=fanout)
        tree.root_pid = tree._build_subtree(list(intervals))
        tree._size = len(intervals)
        return tree

    def _build_subtree(self, intervals: List[Interval]) -> int:
        capacity = self.pager.device.block_capacity
        if len(intervals) <= capacity:
            return self._build_leaf(intervals)
        boundaries = self._choose_boundaries(intervals)
        if not boundaries:
            # All endpoints identical: nothing can separate the intervals.
            return self._build_leaf(intervals)

        here: List[Interval] = []
        per_slab: List[List[Interval]] = [[] for _ in range(len(boundaries) + 1)]
        for iv in intervals:
            a = bisect.bisect_right(boundaries, iv[0])
            c = bisect.bisect_right(boundaries, iv[1])
            if a != c:
                here.append(iv)
            else:
                per_slab[a].append(iv)
        if any(len(slab) == len(intervals) for slab in per_slab):
            # No progress (e.g. every interval is the same point, so every
            # endpoint collapses onto one boundary): fall back to a chain
            # leaf, whose scans stay output-sensitive.
            return self._build_leaf(intervals)

        children = [self._build_subtree(slab) for slab in per_slab]
        return self._write_node(boundaries, children, here)

    def _choose_boundaries(self, intervals: List[Interval]) -> List[Any]:
        endpoints = sorted(x for iv in intervals for x in (iv[0], iv[1]))
        boundaries: List[Any] = []
        for i in range(1, self.fanout + 1):
            value = endpoints[(len(endpoints) * i) // (self.fanout + 1)]
            if not boundaries or value > boundaries[-1]:
                boundaries.append(value)
        return boundaries

    def _build_leaf(self, intervals: List[Interval]) -> int:
        chain = PageChain.create(self.pager, intervals)
        head = self.pager.fetch(chain.head_pid)
        head.set_header("kind", "leaf")
        self.pager.write(head)
        return chain.head_pid

    def _write_node(
        self, boundaries: List[Any], children: List[int], here: List[Interval]
    ) -> int:
        n_slabs = len(boundaries) + 1
        left_lists: List[BPlusTree] = []
        right_lists: List[BPlusTree] = []
        per_left: List[List[Interval]] = [[] for _ in range(n_slabs)]
        per_right: List[List[Interval]] = [[] for _ in range(n_slabs)]
        multislab: Dict[Tuple[int, int], List[Interval]] = {}
        for iv in here:
            a = bisect.bisect_right(boundaries, iv[0])
            c = bisect.bisect_right(boundaries, iv[1])
            per_left[a].append(iv)
            per_right[c].append(iv)
            if c >= a + 2:
                multislab.setdefault((a + 1, c - 1), []).append(iv)

        for slab in range(n_slabs):
            left_lists.append(
                BPlusTree.build(
                    self.pager,
                    sorted(((iv[0], iv) for iv in per_left[slab]), key=lambda kv: kv[0]),
                )
            )
            right_lists.append(
                BPlusTree.build(
                    self.pager,
                    sorted(((-iv[1], iv) for iv in per_right[slab]), key=lambda kv: kv[0]),
                )
            )

        routing = self.pager.alloc()
        routing.set_header("kind", "node")
        records: List[Tuple] = []
        records.extend(("bound", i, s) for i, s in enumerate(boundaries))
        records.extend(("child", i, pid) for i, pid in enumerate(children))
        for i, tree in enumerate(left_lists):
            records.append(("left", i, self._list_record(tree)))
        for i, tree in enumerate(right_lists):
            records.append(("right", i, self._list_record(tree)))
        routing.put_items(records)
        self.pager.write(routing)

        directory = self.pager.alloc()
        directory.set_header("kind", "directory")
        dir_items = []
        for (i, j), ivs in sorted(multislab.items()):
            tree = BPlusTree.build(
                self.pager, sorted(((iv[0], iv) for iv in ivs), key=lambda kv: kv[0])
            )
            dir_items.append(((i, j), self._list_record(tree)))
        directory.put_items(dir_items)
        self.pager.write(directory)
        routing.set_header("directory", directory.page_id)
        self.pager.write(routing)
        return routing.page_id

    def _list_record(self, tree: BPlusTree) -> Tuple[int, int]:
        """(root_pid, head_leaf_pid): the head-leaf pid is insert-stable."""
        page = self.pager.fetch(tree.root_pid)
        while not page.get_header("leaf"):
            page = self.pager.fetch(page.items[0][1])
        return (tree.root_pid, page.page_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def stab(self, x: Any) -> List[Interval]:
        """All intervals ``[l, r]`` with ``l <= x <= r``."""
        return list(self.iter_stab(x))

    def iter_stab(self, x: Any) -> Iterator[Interval]:
        if self.root_pid is None:
            return
        pid = self.root_pid
        while True:
            page = self.pager.fetch(pid)
            if page.get_header("kind") == "leaf":
                chain = PageChain(self.pager, pid)
                for iv in chain:
                    if iv[0] <= x <= iv[1]:
                        yield iv
                return
            boundaries, children, lefts, rights = self._read_routing(page)
            k = bisect.bisect_right(boundaries, x)
            _root, head = lefts[k]
            for _key, iv in BPlusTree(self.pager, _root).scan_at(head, 0):
                if iv[0] > x:
                    break
                yield iv
            _root, head = rights[k]
            for _negr, iv in BPlusTree(self.pager, _root).scan_at(head, 0):
                if -_negr < x:
                    break
                yield iv
            directory = self.pager.fetch(page.get_header("directory"))
            for (i, j), (root, head) in directory.items:
                if i <= k <= j:
                    for _key, iv in BPlusTree(self.pager, root).scan_at(head, 0):
                        yield iv
            pid = children[k]

    def _read_routing(self, page) -> Tuple[List, List, List, List]:
        boundaries: List[Any] = []
        children: List[int] = []
        lefts: List[Tuple[int, int]] = []
        rights: List[Tuple[int, int]] = []
        for kind, i, value in page.items:
            if kind == "bound":
                boundaries.append(value)
            elif kind == "child":
                children.append(value)
            elif kind == "left":
                lefts.append(value)
            else:
                rights.append(value)
        return boundaries, children, lefts, rights

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[Interval]:
        """Every stored interval exactly once (via left lists and leaves)."""
        if self.root_pid is None:
            return
        stack = [self.root_pid]
        while stack:
            page = self.pager.fetch(stack.pop())
            if page.get_header("kind") == "leaf":
                yield from PageChain(self.pager, page.page_id)
                continue
            _bounds, children, lefts, _rights = self._read_routing(page)
            for root, head in lefts:
                for _key, iv in BPlusTree(self.pager, root).scan_at(head, 0):
                    yield iv
            stack.extend(children)

    # ------------------------------------------------------------------
    # insertion (semi-dynamic)
    # ------------------------------------------------------------------
    def insert(self, lo: Any, hi: Any, payload: Any) -> None:
        """Insert one interval in ``O(log_B n)`` amortised I/Os."""
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        iv = (lo, hi, payload)
        self._size += 1
        if self.root_pid is None:
            self.root_pid = self._build_leaf([iv])
            return
        self._insert_below(None, None, self.root_pid, iv)

    def _insert_below(
        self, parent_pid: Optional[int], child_slot: Optional[int], pid: int, iv: Interval
    ) -> None:
        page = self.pager.fetch(pid)
        if page.get_header("kind") == "leaf":
            chain = PageChain(self.pager, pid)
            chain.append(iv)
            if chain.count() > LEAF_REBUILD_PAGES * self.pager.device.block_capacity:
                self._rebuild_leaf(parent_pid, child_slot, chain)
            return
        boundaries, children, lefts, rights = self._read_routing(page)
        a = bisect.bisect_right(boundaries, iv[0])
        c = bisect.bisect_right(boundaries, iv[1])
        if a == c:
            self._insert_below(pid, a, children[a], iv)
            return
        self._insert_into_list(page, "left", a, lefts[a], iv[0], iv)
        self._insert_into_list(page, "right", c, rights[c], -iv[1], iv)
        if c >= a + 2:
            self._insert_multislab(page, (a + 1, c - 1), iv)

    def _insert_into_list(
        self, page, kind: str, slab: int, record: Tuple[int, int], key: Any, iv: Interval
    ) -> None:
        """Insert into a slab list, refreshing the routing record when the
        B+-tree root splits (the head-leaf pid never changes)."""
        tree = BPlusTree(self.pager, record[0])
        tree.insert(key, iv)
        if tree.root_pid != record[0]:
            for idx, (rkind, i, _value) in enumerate(page.items):
                if rkind == kind and i == slab:
                    page.items[idx] = (rkind, i, (tree.root_pid, record[1]))
                    break
            self.pager.write(page)

    def _insert_multislab(self, page, key: Tuple[int, int], iv: Interval) -> None:
        directory = self.pager.fetch(page.get_header("directory"))
        for idx, (span, record) in enumerate(directory.items):
            if span == key:
                tree = BPlusTree(self.pager, record[0])
                tree.insert(iv[0], iv)
                directory.items[idx] = (span, (tree.root_pid, record[1]))
                self.pager.write(directory)
                return
        tree = BPlusTree.build(self.pager, [(iv[0], iv)])
        directory.append_item((key, self._list_record(tree)))
        self.pager.write(directory)

    def _rebuild_leaf(
        self, parent_pid: Optional[int], child_slot: Optional[int], chain: PageChain
    ) -> None:
        intervals = chain.to_list()
        endpoints = {x for iv in intervals for x in (iv[0], iv[1])}
        if len(endpoints) < 2:
            return  # indistinguishable intervals stay in one chain
        chain.destroy()
        new_pid = self._build_subtree(intervals)
        if parent_pid is None:
            self.root_pid = new_pid
            return
        parent = self.pager.fetch(parent_pid)
        for idx, (kind, i, value) in enumerate(parent.items):
            if kind == "child" and i == child_slot:
                parent.items[idx] = (kind, i, new_pid)
                break
        self.pager.write(parent)
