"""Solution 2 (Section 4, Theorem 2): the improved two-level structure.

First level: an external interval tree with branching factor ``b = B/4``
balanced over segment-endpoint x-values; an internal node partitions its
range into ``b + 1`` slabs.  Segments meeting at least one boundary stay at
the node; the rest descend into their slab's child, until leaves of at most
``B`` segments.  The height is ``O(log_B n)``.

Second level, per internal node (Section 4.2):

* ``C_i`` — segments lying on boundary ``s_i`` (disjoint y-intervals);
* ``L_i`` / ``R_i`` — short fragments hanging left/right off ``s_i``
  (external PSTs via :class:`~repro.core.linebased.index.LineBasedIndex`);
* ``G`` — long fragments in a segment tree over the inner slabs with
  fractional cascading (:class:`~repro.core.solution2.gtree.GTree`).

Costs (Theorem 2): space ``O(n log2 B)``; VS query
``O(log_B n (log_B n + log2 B + IL*(B)) + t)``; insertion
``O(log_B n + log2 B + (log_B n)/B)`` amortised.  Deletions are out of the
paper's scope ("semi-dynamic") and raise :class:`NotImplementedError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ...geometry import Segment, VerticalBaseFrame, VerticalQuery
from ...geometry.kernels import page_query_hits
from ...iosim import Pager
from ...storage.chain import PageChain
from ...storage.disjoint import DisjointIntervalIndex
from ..linebased.index import LineBasedIndex, pst_reaches
from .gtree import GTree
from .slabs import boundary_index, choose_boundaries, slab_of, split_segment

#: Rebuild a subtree when one child holds this multiple of its fair share.
IMBALANCE_FACTOR = 4
#: Leaves are chains of up to this many blocks (scanning a leaf stays O(1)
#: I/Os while occupancy stays high near the bottom of the tree).
LEAF_PAGES = 2


def slab_fits(weight: int, children: int, child_weight: int, capacity: int) -> bool:
    """The balance predicate for one child of a node of ``weight``
    segments (those stored at the node included) and ``children``
    children: a child holding more than one block holds at most
    ``IMBALANCE_FACTOR`` times its fair share ``weight / children``.  A
    node is slab-balanced when its heaviest child fits.

    A fresh build cuts slabs at endpoint quantiles, so no child holds
    more than about ``weight / children`` segments: every freshly built
    node passes, and a rebuild needs Ω(weight / children) insertions
    into one slab.

    An insertion need only check the child it entered at each node of
    its path.  Every node passed before it: a fresh build as above, and
    an insertion rebuilds the topmost node on its path that fails and
    changes no node off its path.  The insertion adds one to the weight
    of each node on its path and of the child it entered there, and the
    limit ``max(IMBALANCE_FACTOR·weight/children, B)`` never falls as
    the weight grows.  So every other child still fits, and at the node
    where the insertion stopped, whose children did not change, so does
    every child.
    """
    return child_weight <= max(IMBALANCE_FACTOR * (weight / children), capacity)


class _NodeView:
    """Decoded record chain of one internal node."""

    __slots__ = ("pid", "head", "boundaries", "children", "c_roots",
                 "l_metas", "r_metas", "g_pid")

    def __init__(self, pid: int, records: List[Tuple]):
        self.pid = pid
        self.head = None
        self.boundaries: List = []
        self.children: List[int] = []
        self.c_roots: List[int] = []
        self.l_metas: List[Tuple] = []
        self.r_metas: List[Tuple] = []
        self.g_pid: Optional[int] = None
        for record in records:
            kind = record[0]
            if kind == "bound":
                self.boundaries.append(record[2])
            elif kind == "child":
                self.children.append(record[2])
            elif kind == "c":
                self.c_roots.append(record[2])
            elif kind == "lmeta":
                self.l_metas.append(record[2])
            elif kind == "rmeta":
                self.r_metas.append(record[2])
            elif kind == "g":
                self.g_pid = record[1]

    def records(self) -> List[Tuple]:
        out: List[Tuple] = []
        out.extend(("bound", i, s) for i, s in enumerate(self.boundaries))
        out.extend(("child", k, pid) for k, pid in enumerate(self.children))
        out.extend(("c", i, root) for i, root in enumerate(self.c_roots))
        out.extend(("lmeta", i, meta) for i, meta in enumerate(self.l_metas))
        out.extend(("rmeta", i, meta) for i, meta in enumerate(self.r_metas))
        out.append(("g", self.g_pid, None))
        return out


class TwoLevelIntervalIndex:
    """The paper's second (improved) solution for VS queries."""

    def __init__(self, pager: Pager, fanout: Optional[int] = None, blocked: bool = True):
        self.pager = pager
        capacity = pager.device.block_capacity
        self.fanout = fanout or max(2, capacity // 4)
        self.blocked = blocked
        self.root_pid: Optional[int] = None
        self.size = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        pager: Pager,
        segments: Iterable[Segment],
        fanout: Optional[int] = None,
        blocked: bool = True,
    ) -> "TwoLevelIntervalIndex":
        index = cls(pager, fanout=fanout, blocked=blocked)
        segments = list(segments)
        index.size = len(segments)
        if segments:
            index.root_pid = index._build_subtree(segments)
        return index

    def _build_subtree(self, segments: List[Segment]) -> int:
        capacity = self.pager.device.block_capacity
        if len(segments) <= LEAF_PAGES * capacity:
            return self._write_leaf(segments)
        # Shrink the fan-out near the bottom so children fill their leaves
        # instead of spawning a level of near-empty node structures.
        fanout = min(
            self.fanout,
            max(2, -(-len(segments) // (LEAF_PAGES * capacity))),
        )
        boundaries = choose_boundaries(segments, fanout)
        assigned: List[Segment] = []
        per_slab: List[List[Segment]] = [[] for _ in range(len(boundaries) + 1)]
        for s in segments:
            if split_segment(boundaries, s) is None:
                per_slab[slab_of(boundaries, s.xmin)].append(s)
            else:
                assigned.append(s)
        if any(len(slab) == len(segments) for slab in per_slab):
            return self._write_leaf(segments)  # defensive; quantiles split
        children = [self._build_subtree(slab) for slab in per_slab]
        return self._write_node(boundaries, children, assigned, len(segments))

    def _write_leaf(self, segments: List[Segment]) -> int:
        chain = PageChain.create(self.pager, segments)
        head = self.pager.fetch(chain.head_pid)
        head.set_header("kind", "leaf")
        head.set_header("weight", len(segments))
        self.pager.write(head)
        return chain.head_pid

    def _write_node(
        self, boundaries: List, children: List[int], assigned: List[Segment], weight: int
    ) -> int:
        n_bounds = len(boundaries)
        on_line: List[List[Tuple]] = [[] for _ in range(n_bounds)]
        left_parts: List[List] = [[] for _ in range(n_bounds)]
        right_parts: List[List] = [[] for _ in range(n_bounds)]
        longs: List[Tuple] = []
        for s in assigned:
            split = split_segment(boundaries, s)
            assert split is not None
            if split.on_line is not None:
                i, (ylo, yhi) = split.on_line
                on_line[i - 1].append((ylo, yhi, s))
            if split.left_short is not None:
                i, frag = split.left_short
                left_parts[i - 1].append(frag)
            if split.right_short is not None:
                j, frag = split.right_short
                right_parts[j - 1].append(frag)
            if split.long is not None:
                longs.append(split.long)

        c_roots = [
            DisjointIntervalIndex.build(self.pager, ivs).root_pid
            for ivs in on_line
        ]
        l_metas = [
            LineBasedIndex.build(self.pager, parts, blocked=self.blocked).metadata()
            for parts in left_parts
        ]
        r_metas = [
            LineBasedIndex.build(self.pager, parts, blocked=self.blocked).metadata()
            for parts in right_parts
        ]
        g = GTree.build(self.pager, boundaries, longs)

        chain = PageChain.create(self.pager, [])
        head = self.pager.fetch(chain.head_pid)
        head.set_header("kind", "node")
        head.set_header("weight", weight)
        self.pager.write(head)
        view = _NodeView(chain.head_pid, [])
        view.boundaries = boundaries
        view.children = children
        view.c_roots = c_roots
        view.l_metas = l_metas
        view.r_metas = r_metas
        view.g_pid = g.directory_pid if g is not None else None
        chain.replace(view.records())
        return chain.head_pid

    # ------------------------------------------------------------------
    # node access
    # ------------------------------------------------------------------
    def _read_view(self, pid: int) -> _NodeView:
        # Same fetch sequence as ``PageChain.to_list`` (head first, then
        # the tail pages), but keeps the head :class:`Page` so decoded
        # second-level attachments can be cached on it (``page.views``).
        records: List[Tuple] = []
        page = self.pager.fetch(pid)
        head = page
        while True:
            records.extend(page.items)
            nxt = page.get_header("next")
            if nxt is None:
                break
            page = self.pager.fetch(nxt)
        view = _NodeView(pid, records)
        view.head = head
        return view

    def _read_view_cached(self, pid: int) -> _NodeView:
        """:meth:`_read_view` with the decode memoised on the head page.

        The chain is still fetched page by page (identical I/O charges);
        only the record->view decode is reused.  Node rewrites go through
        ``chain.replace`` — ``put_items`` on the head — which drops
        ``head.views``.  Update paths must use the uncached read: they
        mutate the returned view's lists in place.
        """
        head = self.pager.fetch(pid)
        views = head.views
        if views is None:
            views = head.views = {}
        cached = views.get("nodeview")
        if cached is not None:
            nxt = head.get_header("next")
            while nxt is not None:  # same fetch walk as the uncached read
                nxt = self.pager.fetch(nxt).get_header("next")
            return cached
        records: List[Tuple] = []
        page = head
        while True:
            records.extend(page.items)
            nxt = page.get_header("next")
            if nxt is None:
                break
            page = self.pager.fetch(nxt)
        view = _NodeView(pid, records)
        view.head = head
        views["nodeview"] = view
        return view

    def _node_kind(self, pid: int) -> str:
        return self.pager.fetch(pid).get_header("kind")

    def _c_index(self, view: _NodeView, i: int) -> DisjointIntervalIndex:
        return DisjointIntervalIndex.attach(self.pager, view.c_roots[i - 1])

    def _l_index(self, view: _NodeView, i: int) -> LineBasedIndex:
        return LineBasedIndex.attach(self.pager, view.l_metas[i - 1])

    def _r_index(self, view: _NodeView, i: int) -> LineBasedIndex:
        return LineBasedIndex.attach(self.pager, view.r_metas[i - 1])

    # Read-only paths additionally memoise attached second-level
    # structures on the node's head page (``page.views``) with the
    # metadata in the key: attachment is a pure function of (pager,
    # metadata), and a node update rewrites the record chain through
    # ``put_items``, which drops ``head.views`` — a cached attachment
    # can never outlive the records it decodes.  Update paths must NOT
    # use these (they mutate the attached object in memory; a crash
    # rolls pages back but could not un-mutate a cached view).
    def _views(self, view: _NodeView) -> Dict:
        head = view.head
        views = head.views
        if views is None:
            views = head.views = {}
        return views

    def _c_index_cached(self, view: _NodeView, i: int) -> DisjointIntervalIndex:
        views = self._views(view)
        key = ("c", view.c_roots[i - 1], self.pager)
        index = views.get(key)
        if index is None:
            index = views[key] = self._c_index(view, i)
        return index

    def _lr_index_cached(self, view: _NodeView, meta: Tuple) -> LineBasedIndex:
        views = self._views(view)
        key = (meta, self.pager)
        index = views.get(key)
        if index is None:
            index = views[key] = LineBasedIndex.attach(self.pager, meta)
        return index

    def _frame(self, view: _NodeView, c, side: str) -> VerticalBaseFrame:
        views = self._views(view)
        key = ("frame", c, side)
        frame = views.get(key)
        if frame is None:
            frame = VerticalBaseFrame(c, side)
            views[key] = frame
        return frame

    def _g_tree(self, view: _NodeView) -> Optional[GTree]:
        if view.g_pid is None:
            return None
        return GTree(self.pager, view.g_pid, view.boundaries)

    def _sync_view(self, view: _NodeView) -> None:
        chain = PageChain(self.pager, view.pid)
        chain.replace(view.records())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: VerticalQuery, use_bridges: bool = True) -> List[Segment]:
        """All stored segments meeting the generalized vertical query.

        ``use_bridges=False`` runs the Lemma 4 variant (no fractional
        cascading) for the E6 ablation.
        """
        out: Dict = {}
        if self.root_pid is None:
            return []
        tagged = self.pager.device.tagged
        with self.pager.operation():
            pid = self.root_pid
            while True:
                with tagged("first-level"):
                    kind = self._node_kind(pid)
                if kind == "leaf":
                    with tagged("leaf"):
                        for page in PageChain(self.pager, pid).iter_pages():
                            for s in page_query_hits(page.items, q):
                                out[s.label] = s
                    break
                with tagged("first-level"):
                    view = self._read_view_cached(pid)
                g = self._g_tree(view)
                i = boundary_index(view.boundaries, q.x)
                if g is not None:
                    with tagged("G"):
                        for frag in g.query(q.x, q.ylo, q.yhi,
                                            use_bridges=use_bridges,
                                            qballs=q.balls()):
                            out[frag.payload.label] = frag.payload
                if i is not None:
                    self._report_on_boundary(view, i, q, out)
                    break
                k = slab_of(view.boundaries, q.x)
                self._report_short(view, k, q, out)
                pid = view.children[k]
        return list(out.values())

    def query_batch(
        self, queries: Iterable[VerticalQuery], use_bridges: bool = True
    ) -> List[List[Segment]]:
        """Answer many VS queries with one shared descent of the tree.

        The batch is sorted by query ``x`` and routed through the interval
        tree as *groups*: each first-level node on the union of paths is
        decoded exactly once per batch (head page, record chain and the
        G-tree's directory — the routing metadata every query through the
        node needs), so the ``log_B n`` descent term is paid once per
        group.  Per-query work — the G path search, C_i / L_i / R_i
        boundary structures and leaf filtering — stays individual, each
        query inside its own operation scope exactly as the sequential
        cost model charges it.  Results come back in input order and match
        ``[self.query(q) for q in queries]`` exactly.
        """
        queries = list(queries)
        outs: List[Dict] = [{} for _ in queries]
        if self.root_pid is not None and queries:
            group = sorted(range(len(queries)), key=lambda i: queries[i].x)
            self._query_group(self.root_pid, group, queries, outs, use_bridges)
        return [list(d.values()) for d in outs]

    def _query_group(
        self,
        pid: int,
        group: List[int],
        queries: List[VerticalQuery],
        outs: List[Dict],
        use_bridges: bool,
    ) -> None:
        """Route one x-sorted group of queries through the subtree at ``pid``."""
        tagged = self.pager.device.tagged
        with self.pager.pinning(pid):
            # One operation scope per node decode: the head fetch, the
            # record chain and the G directory are charged once for the
            # whole group, then the scope closes so per-query second-level
            # searches are accounted exactly like sequential queries.
            with self.pager.operation():
                with tagged("first-level"):
                    head = self.pager.fetch(pid)
                is_leaf = head.get_header("kind") == "leaf"
                if is_leaf:
                    with tagged("leaf"):
                        leaf_pages = list(PageChain(self.pager, pid).iter_pages())
                else:
                    with tagged("first-level"):
                        view = self._read_view_cached(pid)
                    g = self._g_tree(view)
                    gnodes: List = []
                    if g is not None:
                        with tagged("G"):
                            gnodes = g.read_directory()
            if is_leaf:
                for i in group:
                    q = queries[i]
                    out = outs[i]
                    for page in leaf_pages:
                        for s in page_query_hits(page.items, q):
                            out[s.label] = s
                return
            boundaries = view.boundaries
            per_slab: Dict[int, List[int]] = {}
            for i in group:
                q = queries[i]
                out = outs[i]
                with self.pager.operation():
                    if g is not None:
                        with tagged("G"):
                            for frag in g.query_cached(
                                gnodes, q.x, q.ylo, q.yhi,
                                use_bridges=use_bridges, qballs=q.balls()
                            ):
                                out[frag.payload.label] = frag.payload
                    bi = boundary_index(boundaries, q.x)
                    if bi is not None:
                        self._report_on_boundary(view, bi, q, out)
                        continue  # the search stops on a boundary line
                    k = slab_of(boundaries, q.x)
                    self._report_short(view, k, q, out)
                per_slab.setdefault(k, []).append(i)
            for k in sorted(per_slab):
                self._query_group(
                    view.children[k], per_slab[k], queries, outs, use_bridges
                )

    def _report_short(self, view: _NodeView, k: int, q: VerticalQuery, out: Dict) -> None:
        """Search the short fragments hanging into slab ``k``: ``R_k`` off
        its left boundary and ``L_{k+1}`` off its right one.  A PST whose
        tallest fragment stays below the query's distance from its line
        (``h`` as that side's frame measures it) is skipped before any
        read."""
        tagged = self.pager.device.tagged
        boundaries = view.boundaries
        if k >= 1:
            c = boundaries[k - 1]
            meta = view.r_metas[k - 1]
            if pst_reaches(meta, q.x - c):
                with tagged("short-PST"):
                    hq = self._frame(view, c, "right").to_hquery(q)
                    for hit in self._lr_index_cached(view, meta).query(hq):
                        out[hit.payload.label] = hit.payload
        if k < len(boundaries):
            c = boundaries[k]
            meta = view.l_metas[k]
            if pst_reaches(meta, c - q.x):
                with tagged("short-PST"):
                    hq = self._frame(view, c, "left").to_hquery(q)
                    for hit in self._lr_index_cached(view, meta).query(hq):
                        out[hit.payload.label] = hit.payload

    def _report_on_boundary(self, view: _NodeView, i: int, q: VerticalQuery, out: Dict) -> None:
        """The query lies exactly on boundary ``s_i``: search C_i, L_i, R_i
        (all fragments touching the line) and stop — nothing below the node
        can reach a boundary."""
        tagged = self.pager.device.tagged
        with tagged("C"):
            c_index = self._c_index_cached(view, i)
            for _lo, _hi, s in c_index.overlap(q.ylo, q.yhi):
                out[s.label] = s
        c = view.boundaries[i - 1]
        for meta in (view.l_metas[i - 1], view.r_metas[i - 1]):
            if not pst_reaches(meta, 0):
                continue  # an empty PST
            with tagged("short-PST"):
                h0 = self._frame(view, c, "left").to_hquery(q)
                for hit in self._lr_index_cached(view, meta).query(h0):
                    out[hit.payload.label] = hit.payload

    # ------------------------------------------------------------------
    # insertion (semi-dynamic)
    # ------------------------------------------------------------------
    def insert(self, segment: Segment) -> None:
        """Insert an NCT-compatible segment, amortised
        ``O(log_B n + log2 B + (log_B n)/B)`` I/Os (Theorem 2 iii)."""
        tagged = self.pager.device.tagged
        with self.pager.operation():
            self.size += 1
            if self.root_pid is None:
                self.root_pid = self._write_leaf([segment])
                return
            path: List[Tuple[int, int]] = []
            pid = self.root_pid
            while True:
                with tagged("first-level"):
                    head = self.pager.fetch(pid)
                    head.set_header("weight", head.get_header("weight") + 1)
                    self.pager.write(head)
                self.pager.crash_point("solution2.insert.descent")
                if head.get_header("kind") == "leaf":
                    parent_pid, parent_slot = path[-1] if path else (None, None)
                    with tagged("leaf"):
                        self._insert_into_leaf(pid, segment, parent_pid, parent_slot)
                    break
                with tagged("first-level"):
                    view = self._read_view(pid)
                split = split_segment(view.boundaries, segment)
                if split is not None:
                    with tagged("second-level"):
                        self._insert_at_node(view, split, segment)
                    break
                k = slab_of(view.boundaries, segment.xmin)
                path.append((pid, k))
                pid = view.children[k]
            with tagged("rebuild"):
                self._rebalance_path(path)

    def _insert_at_node(self, view: _NodeView, split, segment: Segment) -> None:
        changed = False
        if split.on_line is not None:
            i, (ylo, yhi) = split.on_line
            c_index = self._c_index(view, i)
            c_index.insert(ylo, yhi, segment)
            if c_index.root_pid != view.c_roots[i - 1]:
                view.c_roots[i - 1] = c_index.root_pid
                changed = True
        if split.left_short is not None:
            i, frag = split.left_short
            l_index = self._l_index(view, i)
            l_index.insert(frag)
            new_meta = l_index.metadata()
            if new_meta != view.l_metas[i - 1]:
                view.l_metas[i - 1] = new_meta
                changed = True
        if split.right_short is not None:
            j, frag = split.right_short
            r_index = self._r_index(view, j)
            r_index.insert(frag)
            new_meta = r_index.metadata()
            if new_meta != view.r_metas[j - 1]:
                view.r_metas[j - 1] = new_meta
                changed = True
        if split.long is not None:
            i, j, frag = split.long
            g = self._g_tree(view)
            g.insert(i, j, frag)  # the directory pid is stable
        self.pager.crash_point("solution2.insert.second-level")
        if changed:
            self._sync_view(view)

    def _insert_into_leaf(
        self, pid: int, segment: Segment, parent_pid: Optional[int], parent_slot: Optional[int]
    ) -> None:
        chain = PageChain(self.pager, pid)
        chain.append(segment)
        capacity = self.pager.device.block_capacity
        if chain.count() <= LEAF_PAGES * capacity:
            return
        segments = [s for s in chain if isinstance(s, Segment)]
        chain.destroy()
        self.pager.crash_point("solution2.insert.leaf-rebuild")
        new_pid = self._build_subtree(segments)
        self._replace_child(parent_pid, parent_slot, pid, new_pid)

    def _replace_child(
        self, parent_pid: Optional[int], slot: Optional[int], old_pid: int, new_pid: int
    ) -> None:
        if parent_pid is None:
            assert self.root_pid == old_pid
            self.root_pid = new_pid
            return
        view = self._read_view(parent_pid)
        assert view.children[slot] == old_pid
        view.children[slot] = new_pid
        self._sync_view(view)

    def delete(self, segment: Segment) -> bool:
        raise NotImplementedError(
            "Solution 2 is semi-dynamic: the paper (Section 4.3) only "
            "extends it with insertions; use TwoLevelBinaryIndex for "
            "deletions"
        )

    # ------------------------------------------------------------------
    # balance maintenance
    # ------------------------------------------------------------------
    def _rebalance_path(self, path) -> None:
        """Rebuild the topmost unbalanced subtree on the insertion path.

        ``path`` lists ``(pid, slot)`` from the root down for every node
        whose child ``slot`` the insertion entered.  Only that child is
        checked (:func:`slab_fits` says why that suffices), from its head
        page, which the descent pinned or a leaf rebuild wrote, so the
        check reads nothing.
        """
        capacity = self.pager.device.block_capacity
        parent_pid = parent_slot = None
        for pid, slot in path:
            view = self._read_view(pid)
            child = self.pager.fetch(view.children[slot])
            if slab_fits(view.head.get_header("weight"), len(view.children),
                         child.get_header("weight"), capacity):
                parent_pid, parent_slot = pid, slot
                continue
            segments = self._collect(pid)
            self._destroy_subtree(pid)
            self.pager.crash_point("solution2.rebalance")
            new_pid = self._build_subtree(segments)
            self._replace_child(parent_pid, parent_slot, pid, new_pid)
            return

    def _collect(self, pid: int) -> List[Segment]:
        if self._node_kind(pid) == "leaf":
            return list(PageChain(self.pager, pid))
        view = self._read_view(pid)
        out: Dict = {}
        for i in range(1, len(view.boundaries) + 1):
            for _lo, _hi, s in self._c_index(view, i).items():
                out[s.label] = s
            for lb in self._l_index(view, i).all_segments():
                out[lb.payload.label] = lb.payload
            for lb in self._r_index(view, i).all_segments():
                out[lb.payload.label] = lb.payload
        g = self._g_tree(view)
        if g is not None:
            for frag in g.real_fragments():
                out[frag.payload.label] = frag.payload
        segments = list(out.values())
        for child in view.children:
            segments.extend(self._collect(child))
        return segments

    def _destroy_subtree(self, pid: int) -> None:
        if self._node_kind(pid) == "leaf":
            PageChain(self.pager, pid).destroy()
            return
        view = self._read_view(pid)
        for i in range(1, len(view.boundaries) + 1):
            self._c_index(view, i).destroy()
            self._l_index(view, i).destroy()
            self._r_index(view, i).destroy()
        g = self._g_tree(view)
        if g is not None:
            g.destroy()
        for child in view.children:
            self._destroy_subtree(child)
        PageChain(self.pager, pid).destroy()

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
            if self._node_kind(pid) == "leaf":
                return 1
            return 1 + max(depth(c) for c in self._read_view(pid).children)

        return depth(self.root_pid) if self.root_pid is not None else 0

    def check_invariants(self, deep: bool = False) -> None:
        """Weights, slab balance, placement of every fragment kind, child
        band bounds.

        With ``deep=True`` the per-boundary second-level structures are
        structurally checked too (the fsck walk); the G-tree partition
        invariants are always checked.
        """
        if self.root_pid is None:
            assert self.size == 0
            return
        total = self._check_subtree(self.root_pid, None, None, deep)
        assert total == self.size, f"size mismatch: {total} != {self.size}"

    def verify(self) -> List[str]:
        """Deep structural check; returns problems instead of raising."""
        from ...iosim import StorageError

        try:
            self.check_invariants(deep=True)
        except AssertionError as exc:
            return [f"solution2: invariant violated: {exc}"]
        except StorageError as exc:
            return [f"solution2: {type(exc).__name__}: {exc}"]
        return []

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
                "fanout": self.fanout, "blocked": self.blocked}

    @classmethod
    def attach(cls, pager: Pager, meta: dict) -> "TwoLevelIntervalIndex":
        """Re-attach to an already-populated page store (no build I/O)."""
        index = cls(pager, fanout=meta["fanout"], blocked=meta["blocked"])
        index.root_pid = meta["root_pid"]
        index.size = meta["size"]
        return index

    def _check_subtree(self, pid: int, lo, hi, deep: bool = False) -> int:
        head = self.pager.fetch(pid)
        if head.get_header("kind") == "leaf":
            count = 0
            for s in PageChain(self.pager, pid):
                assert lo is None or s.xmin > lo
                assert hi is None or s.xmax < hi
                count += 1
            assert head.get_header("weight") == count
            return count
        view = self._read_view(pid)
        bounds = view.boundaries
        assert bounds == sorted(set(bounds))
        assert lo is None or bounds[0] > lo
        assert hi is None or bounds[-1] < hi
        here: Dict = {}
        for i in range(1, len(bounds) + 1):
            s_i = bounds[i - 1]
            for _l, _h, s in self._c_index(view, i).items():
                assert s.is_vertical and s.start.x == s_i
                here[s.label] = s
            for lb in self._l_index(view, i).all_segments():
                assert lb.payload.spans_x(s_i)
                here[lb.payload.label] = lb.payload
            for lb in self._r_index(view, i).all_segments():
                assert lb.payload.spans_x(s_i)
                here[lb.payload.label] = lb.payload
            if deep:
                self._c_index(view, i).check_invariants()
                self._l_index(view, i).check_invariants()
                self._r_index(view, i).check_invariants()
        g = self._g_tree(view)
        if g is not None:
            g.check_invariants()
            for frag in g.real_fragments():
                here[frag.payload.label] = frag.payload
        edges = [lo] + bounds + [hi]
        weights = [
            self._check_subtree(child, edges[k], edges[k + 1], deep)
            for k, child in enumerate(view.children)
        ]
        count = len(here) + sum(weights)
        assert count == head.get_header("weight"), f"weight stale at {pid}"
        assert slab_fits(count, len(weights), max(weights),
                         self.pager.device.block_capacity), (
            f"slab balance violated at {pid}: children {weights} of weight "
            f"{count}")
        return count
