"""The segment tree ``G`` for long fragments, with fractional cascading.

One ``G`` lives in each internal node of Solution 2's first level
(Section 4.2).  It is a balanced binary tree over the node's *inner slabs*
``1..b-1`` (Figure 5); each G-node ``v`` represents the multislab ``I(v)``
(a contiguous slab range) and owns the ordered *multislab list* of long
fragments allocated to ``v``, cut on the boundaries of ``I(v)`` and kept in
a B+-tree.  A fragment spanning slabs ``a..c`` has ``O(log2 B)`` allocation
nodes, so ``G`` accounts for the ``O(n log2 B)`` space of Theorem 2.

Ordering and keys.  Following the paper, the list of an internal G-node is
ordered by the points where fragments meet the node's *middle boundary*
``s_m`` (the line splitting its multislab between its sons) — that is the
line every bridge construction merges on.  The B+-tree key packs the exact
fragment geometry ``(y_at_sm, y_left, x_left, y_right, x_right)`` so that a
monotone predicate "y at the query line >= a" can be evaluated on keys
alone during ``locate_first`` descents.

Fractional cascading (Section 4.3, Figure 7).  Bridges are built per
parent/son pair over the merged order at their shared boundary: every
``(d+1)``-th merged element becomes a bridge; a parent-origin bridge is cut
and copied into the son's list, a son-origin bridge is copied into the
parent's list (*augmented* entries, never reported).  Every entry of the
parent list then stores, per son, the physical position ``(leaf_pid, idx)``
of the nearest bridge in that son's list.  A query walks one root-to-leaf
path: one ``O(log_B n)`` search at the root, then O(1) amortised hops along
bridges — the ``O(log_B n + log2 B)`` long-fragment search of Theorem 2.

Navigation is *hint-based and self-correcting*: a hop lands near the
boundary and refines locally (real fragments are monotone along the list at
every x the multislab spans), falling back to a fresh ``locate_first`` when
hints are missing or stale.  Insertions (Section 4.3's semi-dynamic case)
append fragments without bridge refs and schedule an amortised bridge
rebuild every ``Θ(size)`` updates — our stand-in for the paper's [10]-style
list operations, with the same amortised bound (DESIGN.md §2).
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...geometry import kernels as _kernels
from ...geometry.filtered import ball
from ...iosim import DanglingPageError, Pager
from ...storage.bplus import BPlusTree
from ...storage.chain import PageChain
from ...telemetry import trace
from .slabs import LongFragment

#: The paper's d-property constant (``d >= 2``).  Any constant satisfies
#: Theorem 2; the E13 ablation measures the trade-off (small d = tighter
#: hops but more augmented copies to store and scan past) and 4 wins on
#: both space and I/O at practical block sizes.
BRIDGE_D = 4
#: Hint refinement gives up after this many pages and falls back to a
#: B+-tree search (keeps worst cases bounded even with stale hints).
MAX_HINT_PAGES = 4

Position = Tuple[int, int]  # (leaf_pid, index)


class GEntry:
    """One element of a multislab list: a fragment plus bridge references."""

    __slots__ = ("frag", "bridges")

    def __init__(self, frag: LongFragment):
        self.frag = frag
        self.bridges: Dict[int, Position] = {}  # son slot (0=left, 1=right) -> pos

    def __repr__(self) -> str:  # pragma: no cover
        return f"GEntry({self.frag.payload.label}, aug={self.frag.augmented})"


def _entry_key(frag: LongFragment, s_mid) -> Tuple:
    """B+-tree key: order by y at the node's middle boundary, with the full
    geometry embedded for predicate evaluation."""
    y_mid = frag.y_at_unchecked(s_mid)  # cut to the multislab: always in span
    return (y_mid, frag.y_left, frag.x_left, frag.y_right, frag.x_right)


def _key_y_at(key: Tuple, x):
    """Evaluate a key's fragment at ``x``, clamped to the fragment's span.

    Used where a total-order *value* is needed (bridge merges, the
    d-property check); query-time comparisons use
    :func:`repro.geometry.kernels.gkey_sign_table`.
    """
    _y_mid, y_left, x_left, y_right, x_right = key
    if x <= x_left:
        return y_left
    if x >= x_right:
        return y_right
    return y_left + Fraction(y_right - y_left) * Fraction(x - x_left, x_right - x_left)


class _GNode:
    """Decoded record of one G-node."""

    __slots__ = ("idx", "lo", "hi", "left", "right", "root_pid", "count", "mid_x")

    def __init__(self, idx, lo, hi, left, right, root_pid, count, mid_x):
        self.idx = idx
        self.lo = lo  # inner-slab range (1-based, inclusive)
        self.hi = hi
        self.left = left  # son indices or None
        self.right = right
        self.root_pid = root_pid
        self.count = count  # real (non-augmented) fragments
        self.mid_x = mid_x  # the middle boundary the list is ordered on

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def as_tuple(self) -> Tuple:
        return (self.idx, self.lo, self.hi, self.left, self.right,
                self.root_pid, self.count, self.mid_x)


class GTree:
    """The long-fragment structure of one first-level node."""

    def __init__(self, pager: Pager, directory_pid: int, boundaries: Sequence):
        self.pager = pager
        self.directory_pid = directory_pid
        self.boundaries = list(boundaries)  # s_1..s_b of the owning node
        # Per-query scratch, reused across calls so the hot path does not
        # allocate a slab list and dedup set per query (results lists are
        # always fresh — callers own them).
        self._slab_scratch: List[int] = []
        self._seen_scratch: set = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, pager: Pager, boundaries: Sequence, fragments: List[Tuple[int, int, LongFragment]]
    ) -> Optional["GTree"]:
        """Build over inner slabs; ``fragments`` are ``(i, j, frag)`` from
        :func:`~repro.core.solution2.slabs.split_segment` (spanning inner
        slabs ``i..j-1``).  Returns ``None`` when there are no inner slabs.
        """
        n_inner = len(boundaries) - 1
        if n_inner < 1:
            if fragments:
                raise ValueError("long fragments exist but there are no inner slabs")
            return None
        nodes: List[List] = []
        cls._layout(boundaries, 1, n_inner, nodes)
        directory = PageChain.create(pager, [])
        directory_head = pager.fetch(directory.head_pid)
        directory_head.set_header("inserts", 0)
        directory_head.set_header("total", 0)
        pager.write(directory_head)
        tree = cls(pager, directory.head_pid, boundaries)

        per_node: List[List[LongFragment]] = [[] for _ in nodes]
        for i, j, frag in fragments:
            cls._allocate(nodes, boundaries, 0, i, j - 1, frag, per_node)

        for idx, raw in enumerate(nodes):
            if not per_node[idx]:
                continue  # lists are lazy: no pages until the first fragment
            s_mid = raw[7]
            entries = sorted(
                ((_entry_key(f, s_mid), GEntry(f)) for f in per_node[idx]),
                key=lambda kv: kv[0],
            )
            btree = BPlusTree.build(pager, entries)
            raw[5] = btree.root_pid
            raw[6] = len(per_node[idx])
        directory.replace([tuple(r) for r in nodes])
        head = pager.fetch(directory.head_pid)
        head.set_header("total", len(fragments))
        pager.write(head)
        tree.rebuild_bridges()
        return tree

    @classmethod
    def _layout(cls, boundaries, lo: int, hi: int, nodes: List[List]) -> int:
        """Allocate node records for slab range [lo, hi]; returns the index."""
        idx = len(nodes)
        # Middle boundary: for an internal node the split line between the
        # sons; for a leaf, the slab's left boundary.
        if lo == hi:
            nodes.append([idx, lo, hi, None, None, None, 0, boundaries[lo - 1]])
            return idx
        nodes.append([idx, lo, hi, None, None, None, 0, None])
        mid = (lo + hi) // 2
        left = cls._layout(boundaries, lo, mid, nodes)
        right = cls._layout(boundaries, mid + 1, hi, nodes)
        nodes[idx][3] = left
        nodes[idx][4] = right
        nodes[idx][7] = boundaries[mid]  # s_{mid+1}: line between the sons
        return idx

    @classmethod
    def _allocate(cls, nodes, boundaries, idx: int, a: int, c: int,
                  frag: LongFragment, per_node: List[List[LongFragment]]) -> None:
        """Standard segment-tree allocation of slab range [a, c]."""
        record = nodes[idx]
        lo, hi = record[1], record[2]
        if a <= lo and hi <= c:
            per_node[idx].append(frag.cut(boundaries[lo - 1], boundaries[hi]))
            return
        mid = (lo + hi) // 2
        if a <= mid:
            cls._allocate(nodes, boundaries, record[3], a, min(c, mid), frag, per_node)
        if c > mid:
            cls._allocate(nodes, boundaries, record[4], max(a, mid + 1), c, frag, per_node)

    # ------------------------------------------------------------------
    # node records
    # ------------------------------------------------------------------
    def _read_nodes(self) -> List[_GNode]:
        chain = PageChain(self.pager, self.directory_pid)
        return [_GNode(*t) for t in chain]

    def read_directory(self) -> List[_GNode]:
        """The directory for queries: :meth:`_read_nodes` with the decode
        memoised on the head page.  Batched execution reads it once per
        group and feeds it to :meth:`query_cached`.

        The directory chain is still fetched page by page (identical I/O
        charges); only the tuple->:class:`_GNode` decode is reused.  Any
        directory rewrite goes through ``chain.replace``/``append``,
        which invalidate ``head.views`` via ``put_items``/``set_header``.
        Update paths must use the uncached read — they mutate the
        returned nodes in place before writing them back.
        """
        head = self.pager.fetch(self.directory_pid)
        views = head.views
        if views is None:
            views = head.views = {}
        cached = views.get("gnodes")
        if cached is not None:
            pid = head.get_header("next")
            while pid is not None:  # same fetch walk as the uncached read
                pid = self.pager.fetch(pid).get_header("next")
            return cached
        nodes: List[_GNode] = []
        page = head
        while True:
            nodes.extend(_GNode(*t) for t in page.items)
            pid = page.get_header("next")
            if pid is None:
                break
            page = self.pager.fetch(pid)
        views["gnodes"] = nodes
        return nodes

    def _write_nodes(self, nodes: List[_GNode]) -> None:
        chain = PageChain(self.pager, self.directory_pid)
        head = self.pager.fetch(self.directory_pid)
        inserts = head.get_header("inserts")
        total = head.get_header("total")
        chain.replace([n.as_tuple() for n in nodes])
        head = self.pager.fetch(self.directory_pid)
        head.set_header("inserts", inserts)
        head.set_header("total", total)
        self.pager.write(head)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def query(self, x0, ylo, yhi, use_bridges: bool = True,
              qballs: Optional[Tuple] = None) -> List[LongFragment]:
        """Long fragments at ``x0`` with ordinate in ``[ylo, yhi]``.

        ``x0`` must lie within the inner-slab range ``[s_1, s_b]``.  When
        ``x0`` falls exactly on a boundary, fragments ending there live on
        the path to the slab on either side, so both paths are walked and
        duplicates removed.  ``use_bridges=False`` disables fractional
        cascading (every level pays a fresh B+-tree search) — the Lemma 4
        baseline for the E6 ablation.
        """
        nodes = self.read_directory()
        if not nodes:
            return []
        return self.query_cached(nodes, x0, ylo, yhi, use_bridges=use_bridges,
                                 qballs=qballs)

    def query_cached(
        self, nodes: List[_GNode], x0, ylo, yhi, use_bridges: bool = True,
        qballs: Optional[Tuple] = None,
    ) -> List[LongFragment]:
        """:meth:`query` against an already-decoded directory.

        ``qballs`` lets the caller hand in the query's cached
        ``(ball(x0), ball(ylo), ball(yhi))`` — one G-tree is consulted
        per node on the first-level search path, and the balls are
        identical at every level.
        """
        if not nodes:
            return []
        slabs = self._inner_slabs_of(x0)
        if not slabs:
            return []
        if qballs is None:
            # Query balls for the filtered comparisons, built once per query.
            qballs = (
                ball(x0),
                ball(ylo) if ylo is not None else None,
                ball(yhi) if yhi is not None else None,
            )
        results: List[LongFragment] = []
        seen = self._seen_scratch
        seen.clear()
        for k in slabs:
            self._query_path(nodes, k, x0, ylo, yhi, use_bridges, qballs,
                             results, seen)
        return results

    def _query_path(
        self, nodes, k: int, x0, ylo, yhi, use_bridges: bool, qballs: Tuple,
        results: List[LongFragment], seen: set,
    ) -> None:
        idx: Optional[int] = 0
        hint: Optional[Position] = None
        while idx is not None:
            node = nodes[idx]
            if node.is_leaf:
                son_slot = None
                next_idx = None
            elif k <= nodes[node.left].hi:
                son_slot, next_idx = 0, node.left
            else:
                son_slot, next_idx = 1, node.right
            if node.root_pid is None:
                hint = None  # empty list: nothing to report, no bridges
            else:
                tree = BPlusTree(self.pager, node.root_pid)
                hint = self._scan_node(
                    tree, x0, ylo, yhi, hint if use_bridges else None, son_slot,
                    results, seen, qballs,
                )
            idx = next_idx

    def _inner_slabs_of(self, x0) -> List[int]:
        """Inner slabs (1-based) whose closed x-range contains ``x0``.

        One slab in general position, two when ``x0`` sits on an interior
        boundary, none outside ``[s_1, s_b]``.  Returns a scratch list
        reused by the next call — consume before re-entering."""
        slabs = self._slab_scratch
        slabs.clear()
        b = len(self.boundaries)
        if b < 2 or x0 < self.boundaries[0] or x0 > self.boundaries[-1]:
            return slabs
        k = bisect.bisect_right(self.boundaries, x0)  # 0-based outer slab
        if 1 <= k <= b - 1:
            slabs.append(k)
        if k >= 1 and x0 == self.boundaries[k - 1] and k - 1 >= 1:
            slabs.append(k - 1)
        if k == b and x0 == self.boundaries[-1]:
            slabs.append(b - 1)
        return slabs

    def _scan_node(
        self, tree: BPlusTree, x0, ylo, yhi, hint: Optional[Position],
        son_slot: Optional[int], results: List[LongFragment], seen: set,
        qballs: Tuple,
    ) -> Optional[Position]:
        """Report this node's hits; return the bridge hint for the next son."""
        start = self._boundary_position(tree, x0, ylo, hint, qballs)
        # The reporting scan is the output-charged part of the G search:
        # every page it touches holds ~B reported fragments (phase
        # "scan", the ``t`` term of Theorem 2).
        with trace.span("scan"):
            return self._scan_entries(
                tree, start, x0, ylo, yhi, son_slot, results, seen, None,
                qballs,
            )

    def _scan_entries(
        self, tree: BPlusTree, start: Position, x0, ylo, yhi,
        son_slot: Optional[int], results: List[LongFragment], seen: set,
        last_entry_before: Optional[GEntry], qballs: Tuple,
    ) -> Optional[Position]:
        next_hint: Optional[Position] = None
        xb, lob, hib = qballs
        for _leaf_pid, _idx, key, entry in self._iter_positions_from(tree, start):
            real = not entry.frag.augmented
            if (ylo is not None
                    and _kernels.gkey_sign_table(key, x0, ylo, xb, lob) < 0):
                last_entry_before = entry
                continue  # only augmented stragglers can appear here
            if (yhi is not None and real
                    and _kernels.gkey_sign_table(key, x0, yhi, xb, hib) > 0):
                if next_hint is None and son_slot is not None:
                    next_hint = entry.bridges.get(son_slot)
                break
            if real:
                # Dedup at the report site (a fragment on a boundary query
                # is scanned once per walked path): same output order as
                # the old collect-then-filter, without the per-path list.
                label = entry.frag.payload.label
                if label not in seen:
                    seen.add(label)
                    results.append(entry.frag)
            if next_hint is None and son_slot is not None:
                got = entry.bridges.get(son_slot)
                if got is not None:
                    next_hint = got
        if next_hint is None and son_slot is not None and last_entry_before is not None:
            next_hint = last_entry_before.bridges.get(son_slot)
        return next_hint

    def _boundary_position(
        self, tree: BPlusTree, x0, ylo, hint: Optional[Position],
        qballs: Tuple,
    ) -> Position:
        """Position of the first *real* entry with ``y_at(x0) >= ylo``.

        Phase anatomy: landing via a bridge hint and refining locally is
        the fractional-cascading hop (phase "cascade-hop", O(1) amortised
        pages, the ``log2 B`` term); the fallback B+-tree descent is a
        fresh search (phase "search", ``O(log_B n)`` per level — what
        cascading exists to avoid, and all the E6 ablation ever pays).
        """
        if ylo is None:
            with trace.span("search"):
                head = self._head_leaf(tree)
            return (head, 0)
        xb, lob = qballs[0], qballs[1]
        # One predicate for B+-tree routing keys and leaf rows alike.
        pred = lambda key: _kernels.gkey_sign_table(key, x0, ylo, xb, lob) >= 0  # noqa: E731
        if hint is not None:
            with trace.span("cascade-hop"):
                refined = self._exact_boundary(tree, hint, pred,
                                               page_budget=MAX_HINT_PAGES)
            if refined is not None:
                return refined
        with trace.span("search"):
            boundary = self._exact_boundary(tree, tree.locate_first(pred), pred)
        assert boundary is not None  # no page budget: never gives up
        return boundary

    def _exact_boundary(
        self, tree, start: Position, pred,
        page_budget: Optional[int] = None
    ) -> Optional[Position]:
        """From ``start``, the position of the first real entry satisfying
        the monotone predicate (``pred(key)``).

        Real fragments are monotone in ``y_at(x0)`` along the list order, so:
        if the first real entry at/after ``start`` fails the predicate, walk
        forward to the first real entry that satisfies it; if it satisfies
        it, walk backward while earlier real entries still satisfy it.  With
        a ``page_budget`` the search gives up (returns None) instead of
        walking far on a stale bridge hint; the caller then falls back to a
        B+-tree search.
        """
        leaf_pid, _idx = start
        try:
            self.pager.fetch(leaf_pid)
        except DanglingPageError:
            return None

        pages = [0]
        last_leaf = [None]

        def charge(pid) -> bool:
            if pid != last_leaf[0]:
                last_leaf[0] = pid
                pages[0] += 1
                if page_budget is not None and pages[0] > page_budget:
                    return False
            return True

        first_real: Optional[Tuple[Position, bool]] = None
        for pid, i, key, entry in self._iter_positions_from(tree, start):
            if not charge(pid):
                return None
            if entry.frag.augmented:
                continue
            first_real = ((pid, i), pred(key))
            break

        if first_real is not None and not first_real[1]:
            # Walk forward to the first satisfying real entry.
            for pid, i, key, entry in self._iter_positions_from(
                    tree, first_real[0]):
                if not charge(pid):
                    return None
                if entry.frag.augmented:
                    continue
                if pred(key):
                    return (pid, i)
            return self._end_position(tree)

        # Either the first real at/after start satisfies the predicate, or
        # there is no real entry ahead at all: in both cases the boundary
        # may lie further back.
        best: Optional[Position] = first_real[0] if first_real else None
        back_start = self._position_before(start)
        pages[0] = 0
        last_leaf[0] = None
        for pid, i, key, entry in self._iter_positions_back(tree, back_start):
            if not charge(pid):
                return None
            if entry.frag.augmented:
                continue
            if pred(key):
                best = (pid, i)
            else:
                break
        if best is not None:
            return best
        # Nothing satisfies the predicate anywhere near: the boundary is at
        # the end of the list (scans report nothing from there).
        return self._end_position(tree) if first_real is None else first_real[0]

    def _position_before(self, pos: Position) -> Optional[Position]:
        leaf_pid, idx = pos
        if idx > 0:
            return (leaf_pid, idx - 1)
        try:
            leaf = self.pager.fetch(leaf_pid)
        except DanglingPageError:
            return None
        prev = leaf.get_header("prev")
        if prev is None:
            return None
        prev_leaf = self.pager.fetch(prev)
        return (prev, len(prev_leaf.items) - 1)

    def _end_position(self, tree: BPlusTree) -> Position:
        page = self.pager.fetch(tree.root_pid)
        while not page.get_header("leaf"):
            page = self.pager.fetch(page.items[-1][1])
        return (page.page_id, len(page.items))

    def _iter_positions_from(
        self, tree: BPlusTree, start: Optional[Position]
    ) -> Iterator[Tuple[int, int, Tuple, GEntry]]:
        """Yield ``(leaf_pid, index, key, entry)`` forward from ``start``."""
        if start is None:
            return
        pid, idx = start
        while pid is not None:
            try:
                leaf = self.pager.fetch(pid)
            except DanglingPageError:
                return
            for i in range(max(idx, 0), len(leaf.items)):
                key, entry = leaf.items[i]
                yield (pid, i, key, entry)
            pid = leaf.get_header("next")
            idx = 0

    def _iter_positions_back(
        self, tree: BPlusTree, start: Optional[Position]
    ) -> Iterator[Tuple[int, int, Tuple, GEntry]]:
        if start is None:
            return
        pid, idx = start
        while pid is not None:
            try:
                leaf = self.pager.fetch(pid)
            except DanglingPageError:
                return
            idx = min(idx, len(leaf.items) - 1)
            for i in range(idx, -1, -1):
                key, entry = leaf.items[i]
                yield (pid, i, key, entry)
            pid = leaf.get_header("prev")
            idx = 10**9

    # ------------------------------------------------------------------
    # insertion (semi-dynamic)
    # ------------------------------------------------------------------
    def insert(self, i: int, j: int, frag: LongFragment) -> None:
        """Insert one long fragment spanning inner slabs ``i..j-1``."""
        nodes = self._read_nodes()
        targets: List[Tuple[int, LongFragment]] = []
        self._collect_allocation(nodes, 0, i, j - 1, frag, targets)
        for idx, cut in targets:
            node = nodes[idx]
            if node.root_pid is None:
                tree = BPlusTree.build(
                    self.pager, [(_entry_key(cut, node.mid_x), GEntry(cut))]
                )
            else:
                tree = BPlusTree(self.pager, node.root_pid)
                tree.insert(_entry_key(cut, node.mid_x), GEntry(cut))
            node.root_pid = tree.root_pid
            node.count += 1
        self._write_nodes(nodes)
        head = self.pager.fetch(self.directory_pid)
        head.set_header("inserts", head.get_header("inserts") + 1)
        head.set_header("total", head.get_header("total") + 1)
        self.pager.write(head)
        capacity = self.pager.device.block_capacity
        if head.get_header("inserts") > max(capacity, head.get_header("total") // 4):
            self.rebuild_bridges()

    def _collect_allocation(self, nodes, idx, a, c, frag, out) -> None:
        node = nodes[idx]
        if a <= node.lo and node.hi <= c:
            out.append((idx, frag.cut(self.boundaries[node.lo - 1], self.boundaries[node.hi])))
            return
        mid = (node.lo + node.hi) // 2
        if a <= mid:
            self._collect_allocation(nodes, node.left, a, min(c, mid), frag, out)
        if c > mid:
            self._collect_allocation(nodes, node.right, max(a, mid + 1), c, frag, out)

    # ------------------------------------------------------------------
    # bridges
    # ------------------------------------------------------------------
    def rebuild_bridges(self) -> None:
        """(Re)build all augmented copies and bridge references.

        Runs post-order so that positions recorded in a son's list are never
        invalidated afterwards (all insertions into a list happen before or
        during the step that records references into it).
        """
        nodes = self._read_nodes()
        if not nodes:
            return
        # Strip previous augmented entries everywhere.
        for node in nodes:
            if node.root_pid is None:
                continue
            tree = BPlusTree(self.pager, node.root_pid)
            real = [(k, e) for k, e in tree.items() if not e.frag.augmented]
            for _k, e in real:
                e.bridges = {}
            tree.destroy()
            if real:
                node.root_pid = BPlusTree.build(self.pager, real).root_pid
            else:
                node.root_pid = None
        order = self._postorder(nodes, 0)
        for idx in order:
            node = nodes[idx]
            if node.is_leaf:
                continue
            for slot, son_idx in ((0, node.left), (1, node.right)):
                self._build_pair_bridges(nodes, node, slot, nodes[son_idx])
        self._write_nodes(nodes)
        head = self.pager.fetch(self.directory_pid)
        head.set_header("inserts", 0)
        self.pager.write(head)

    def _postorder(self, nodes, idx) -> List[int]:
        node = nodes[idx]
        if node.is_leaf:
            return [idx]
        return (
            self._postorder(nodes, node.left)
            + self._postorder(nodes, node.right)
            + [idx]
        )

    def _build_pair_bridges(self, nodes, parent: _GNode, slot: int, son: _GNode) -> None:
        """Bridges between one parent list and one son list (Figure 7)."""
        # The shared line: the left son's right boundary and the right son's
        # left boundary both equal the parent's split line.
        shared_x = parent.mid_x
        if parent.root_pid is None and son.root_pid is None:
            return
        ptree = (
            BPlusTree(self.pager, parent.root_pid)
            if parent.root_pid is not None
            else None
        )
        stree = (
            BPlusTree(self.pager, son.root_pid) if son.root_pid is not None else None
        )
        p_items = list(ptree.items()) if ptree is not None else []
        s_items = list(stree.items()) if stree is not None else []
        if not p_items and not s_items:
            return

        def at_shared(kv):
            return _key_y_at(kv[0], shared_x)

        merged: List[Tuple[object, int, Tuple]] = []  # (y, origin, item)
        merged.extend((at_shared(kv), 0, kv) for kv in p_items)
        merged.extend((at_shared(kv), 1, kv) for kv in s_items)
        merged.sort(key=lambda t: (t[0],))

        # Choose every (d+1)-th merged element as a bridge and create its
        # augmented copy on the other side.  Copies are tagged with a
        # bridge id so their final positions can be resolved afterwards.
        son_lo_x = self.boundaries[son.lo - 1]
        son_hi_x = self.boundaries[son.hi]

        def eligible(origin: int, frag: LongFragment) -> bool:
            # A bridge must be cuttable/evaluable on the other side.  A
            # parent entry works when it spans the son's multislab; a son
            # entry when it reaches the shared line.  Augmented entries
            # copied in from *other* pairs may do neither — skip those and
            # pick the next element (the gap grows by at most their run).
            if origin == 0:
                return frag.x_left <= son_lo_x and frag.x_right >= son_hi_x
            return frag.x_left <= shared_x <= frag.x_right

        bridge_ids: Dict[int, int] = {}  # id(entry object) -> bridge number
        copies_to_son: List[Tuple[Tuple, GEntry, int]] = []
        copies_to_parent: List[Tuple[Tuple, GEntry, int]] = []
        bridge_no = 0
        countdown = BRIDGE_D
        for _y, origin, (key, entry) in merged:
            if countdown > 0 or not eligible(origin, entry.frag):
                countdown = max(0, countdown - 1)
                continue
            countdown = BRIDGE_D
            if origin == 0:
                # Parent fragment: cut on the son's multislab and copy down.
                cut = entry.frag.cut(son_lo_x, son_hi_x).as_augmented()
                copy = GEntry(cut)
                copies_to_son.append((_entry_key(cut, son.mid_x), copy, bridge_no))
                bridge_ids[id(copy)] = bridge_no
                bridge_ids[id(entry)] = bridge_no  # the original is a bridge
            else:
                # Son fragment: copy up, positioned by its shared-line hit.
                up = entry.frag.as_augmented()
                copy = GEntry(up)
                copies_to_parent.append((_entry_key(up, parent.mid_x), copy, bridge_no))
                bridge_ids[id(copy)] = bridge_no
                bridge_ids[id(entry)] = bridge_no
            bridge_no += 1

        if copies_to_son and stree is None:
            stree = BPlusTree.create(self.pager)
        if copies_to_parent and ptree is None:
            ptree = BPlusTree.create(self.pager)
        for key, copy, _no in copies_to_son:
            stree.insert(key, copy)
        for key, copy, _no in copies_to_parent:
            ptree.insert(key, copy)
        if ptree is not None:
            parent.root_pid = ptree.root_pid
        if stree is not None:
            son.root_pid = stree.root_pid

        # Resolve bridge positions in the son's list.
        son_positions: Dict[int, Position] = {}
        pid = self._head_leaf(stree) if stree is not None else None
        while pid is not None:
            leaf = self.pager.fetch(pid)
            for i, (_key, entry) in enumerate(leaf.items):
                no = bridge_ids.get(id(entry))
                if no is not None:
                    son_positions[no] = (pid, i)
            pid = leaf.get_header("next")

        # Walk the parent's list assigning each entry the nearest bridge.
        pending: List[GEntry] = []  # entries before the first bridge
        current: Optional[Position] = None
        pid = self._head_leaf(ptree) if ptree is not None else None
        while pid is not None:
            leaf = self.pager.fetch(pid)
            for _key, entry in leaf.items:
                no = bridge_ids.get(id(entry))
                if no is not None and no in son_positions:
                    current = son_positions[no]
                    for waiting in pending:
                        waiting.bridges[slot] = current
                    pending = []
                if current is None:
                    pending.append(entry)
                else:
                    entry.bridges[slot] = current
            self.pager.write(leaf)
            pid = leaf.get_header("next")

    def _head_leaf(self, tree: BPlusTree) -> Optional[int]:
        page = self.pager.fetch(tree.root_pid)
        while not page.get_header("leaf"):
            page = self.pager.fetch(page.items[0][1])
        return page.page_id

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def real_fragments(self) -> List[LongFragment]:
        out = []
        for node in self._read_nodes():
            if node.root_pid is None:
                continue
            for _k, e in BPlusTree(self.pager, node.root_pid).items():
                if not e.frag.augmented:
                    out.append(e.frag)
        return out

    def total_count(self) -> int:
        return self.pager.fetch(self.directory_pid).get_header("total")

    def destroy(self) -> None:
        for node in self._read_nodes():
            if node.root_pid is not None:
                BPlusTree(self.pager, node.root_pid).destroy()
        PageChain(self.pager, self.directory_pid).destroy()

    def check_invariants(self) -> None:
        """Sorted lists, d-property over fresh bridges, allocation sanity."""
        nodes = self._read_nodes()
        for node in nodes:
            if node.root_pid is None:
                assert node.count == 0, f"count stale at empty G-node {node.idx}"
                continue
            tree = BPlusTree(self.pager, node.root_pid)
            tree.check_invariants()
            lo_x = self.boundaries[node.lo - 1]
            hi_x = self.boundaries[node.hi]
            reals = 0
            for key, entry in tree.items():
                assert entry.frag.x_left == lo_x and entry.frag.x_right == hi_x or \
                    entry.frag.augmented, (
                        f"fragment not cut to multislab at node {node.idx}"
                    )
                if not entry.frag.augmented:
                    reals += 1
            assert reals == node.count, f"count stale at G-node {node.idx}"

    def check_d_property(self) -> None:
        """After a fresh bridge build: between consecutive bridges of a
        parent/son pair there are at most ``2 * BRIDGE_D`` merged elements
        (counting both lists) — Figure 7's d-property."""
        nodes = self._read_nodes()
        for node in nodes:
            if node.is_leaf:
                continue
            for slot, son_idx in ((0, node.left), (1, node.right)):
                son = nodes[son_idx]
                shared_x = node.mid_x
                merged = []
                if node.root_pid is not None:
                    for _k, e in BPlusTree(self.pager, node.root_pid).items():
                        merged.append((_key_y_at(_k, shared_x), e))
                if son.root_pid is not None:
                    for _k, e in BPlusTree(self.pager, son.root_pid).items():
                        merged.append((_key_y_at(_k, shared_x), e))
                merged.sort(key=lambda t: t[0])
                gap = 0
                seen_any = False
                for _y, e in merged:
                    if e.frag.augmented:
                        gap = 0
                        seen_any = True
                    else:
                        gap += 1
                        assert gap <= 3 * (BRIDGE_D + 1) or not seen_any, (
                            f"d-property violated at G-node {node.idx}"
                        )
