"""Search over the external PST: the paper's ``Find`` and ``Report``.

The paper's Appendix A pseudocode (Figures 8–9) is partially corrupted in
the available text, so the algorithms are reconstructed here from the
invariant that makes them work — and that the paper states explicitly: the
search "is based on the comparison of the query with stored segments",
because no subtree bounds a rectangular region.

The invariant.  Non-crossing segments admit one global left-to-right order
(the base order): if ``base(s1) < base(s2)`` and both reach height ``h``,
then ``u_{s1}(h) <= u_{s2}(h)`` — otherwise they would cross between the
base line and ``h``.  Consequently every stored segment the search touches
is a *witness*:

* a touched segment reaching ``h`` with ``u(h) < ulo`` proves that **every**
  segment with a smaller-or-equal base key that reaches ``h`` also misses
  the query on the left;
* symmetrically on the right.

The search keeps the two tightest witnesses (``L*``, ``R*``) and prunes any
subtree whose base-key band falls entirely at-or-beyond one of them, plus
any subtree whose tallest segment (the routing copy ``v.left``/``v.right``)
does not reach ``h``.  This visits, per level, at most the two subtrees
straddling the answer's boundary — the paper's "Q refers at most two nodes
on each level" — plus subtrees that are guaranteed to report (charged to
the output): O(log n + t) I/Os in total, which benchmark E1 verifies.

The same invariant orders the rows inside one node: those reaching ``h``
run LEFT, then HIT, then RIGHT in the node's base order.  A node visit
therefore bisects for the HIT run and its two neighbouring witnesses
(:func:`repro.geometry.kernels.page_classify_summary`), O(log B)
compares instead of up to two per row.  Exact-only mode keeps the
per-row :func:`classify` loop as the reference.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...geometry import HQuery, LineBasedSegment
from ...geometry import kernels as _kernels
from ...geometry.filtered import compare_u_at
from ...telemetry import trace

#: Classification of a stored segment against a query.
BELOW = "below"  # does not reach the query height: no information
LEFT = "left"  # reaches the height, passes left of the query window
HIT = "hit"
RIGHT = "right"


def classify(segment: LineBasedSegment, query: HQuery) -> str:
    """Exact classification of one proper segment against the query.

    The two window tests run through the filtered comparison kernel
    (certified float fast path, rational fallback) with the query's
    cached float bounds — the hottest comparison in the PST search.
    """
    if segment.h1 < query.h:
        return BELOW
    hb, lob, hib = query.balls()
    if query.ulo is not None and compare_u_at(segment, query.h, query.ulo, hb, lob) < 0:
        return LEFT
    if query.uhi is not None and compare_u_at(segment, query.h, query.uhi, hb, hib) > 0:
        return RIGHT
    return HIT


class _Bounds:
    """The tightest left/right witnesses seen so far (base keys)."""

    __slots__ = ("left", "right")

    def __init__(self):
        self.left: Optional[Tuple] = None  # max base key proven left of window
        self.right: Optional[Tuple] = None  # min base key proven right of window

    def absorb(self, segment: LineBasedSegment, side: str) -> None:
        key = segment.base_order_key()
        if side == LEFT:
            if self.left is None or key > self.left:
                self.left = key
        elif side == RIGHT:
            if self.right is None or key < self.right:
                self.right = key

    def prunes_band(self, min_base: Tuple, max_base: Tuple) -> bool:
        """True when no segment with a base key in the band can be a hit."""
        if self.left is not None and max_base <= self.left:
            return True
        if self.right is not None and min_base >= self.right:
            return True
        return False


def pst_report(tree, query: HQuery) -> List[LineBasedSegment]:
    """The paper's ``Report``: every stored segment intersecting the query.

    Each reported segment appears exactly once; routing copies are never
    reported (they are re-found in their home nodes).
    """
    if tree.root_pid is None:
        return []
    hits: List[LineBasedSegment] = []
    bounds = _Bounds()
    _report_visit(tree, tree.root_pid, query, bounds, hits)
    return hits


def _report_visit(tree, pid: int, query: HQuery, bounds: _Bounds, hits: List) -> None:
    # Telemetry mirrors the paper's charging argument (Lemma 2): a node
    # visit that reports at least one segment is charged to the output
    # term ``t`` (phase "report"); the remaining visits are the search
    # path (phase "descent", the ``log n`` term).  The phase is only
    # known after classifying the node's items, so the visit's I/O delta
    # is recorded on the current span and *moved* — sum-preserving — once
    # the node's contribution is known.
    span = trace.current_span()
    reads_before = span.reads if span is not None else 0
    node = tree.read(pid)
    reported = False
    summary = _kernels.page_classify_summary(node, query)
    if summary is None:
        # Exact-only mode: the per-row reference.
        for segment in node.items:
            side = classify(segment, query)
            if side == HIT:
                hits.append(segment)
                reported = True
            else:
                bounds.absorb(segment, side)
    else:
        # The node's rows that reach ``h`` run LEFT, HIT, RIGHT in base
        # order, so the summary bisects for the HIT run.  The last LEFT
        # row carries the node's tightest left witness and the first
        # RIGHT row the tightest right witness — absorbing just those two
        # yields the same final bounds as absorbing every non-hit row.
        items = node.items
        hit_rows, last_left, first_right = summary
        if hit_rows:
            reported = True
            for i in hit_rows:
                hits.append(items[i])
        if last_left is not None:
            bounds.absorb(items[last_left], LEFT)
        if first_right is not None:
            bounds.absorb(items[first_right], RIGHT)
    if span is not None:
        span.move("report" if reported else "descent",
                  reads=span.reads - reads_before)
    # Routing copies are witnesses too — absorb them all before deciding
    # which children to enter, then re-check each child just before entry
    # (a left sibling's subtree may have tightened the bounds meanwhile).
    for child in node.children:
        side = classify(child.top, query)
        if side != HIT:
            bounds.absorb(child.top, side)
    for child in node.children:
        if child.top.h1 < query.h:
            continue  # nothing below reaches the query height
        if bounds.prunes_band(child.min_base, child.max_base):
            continue
        _report_visit(tree, child.pid, query, bounds, hits)


FindResult = Tuple[LineBasedSegment, int]  # (segment, node pid)


def pst_find(tree, query: HQuery, side: str = "left") -> Optional[FindResult]:
    """The paper's ``Find``: the extreme segment intersected by the query.

    ``side="left"`` returns the hit with the smallest base key (the
    deepest-leftmost in storage position) and the pid of the node storing
    it; ``side="right"`` is the mirror.  Returns ``None`` when nothing
    intersects.  O(log n) I/Os: on top of the witness pruning of
    :func:`pst_report`, subtrees that cannot improve on the best hit found
    so far are skipped, so no subtree charged to "output" is ever entered.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if tree.root_pid is None:
        return None
    bounds = _Bounds()
    best: List[Optional[FindResult]] = [None]
    _find_visit(tree, tree.root_pid, query, bounds, best, side)
    return best[0]


def _improves(candidate_key: Tuple, best: Optional[FindResult], side: str) -> bool:
    if best is None:
        return True
    best_key = best[0].base_order_key()
    return candidate_key < best_key if side == "left" else candidate_key > best_key


def _find_visit(tree, pid, query, bounds: _Bounds, best: List, side: str) -> None:
    # ``Find`` never reports: every visit belongs to the descent term.
    span = trace.current_span()
    reads_before = span.reads if span is not None else 0
    node = tree.read(pid)
    if span is not None:
        span.move("descent", reads=span.reads - reads_before)
    summary = _kernels.page_classify_summary(node, query)
    if summary is None:
        for segment in node.items:
            kind = classify(segment, query)
            if kind == HIT:
                if _improves(segment.base_order_key(), best[0], side):
                    best[0] = (segment, pid)
            else:
                bounds.absorb(segment, kind)
    else:
        items = node.items
        hit_rows, last_left, first_right = summary
        for i in hit_rows:
            segment = items[i]
            if _improves(segment.base_order_key(), best[0], side):
                best[0] = (segment, pid)
        if last_left is not None:
            bounds.absorb(items[last_left], LEFT)
        if first_right is not None:
            bounds.absorb(items[first_right], RIGHT)
    for child in node.children:
        kind = classify(child.top, query)
        if kind != HIT:
            bounds.absorb(child.top, kind)
    # Enter promising children, nearest-to-the-answer first.
    ordered = node.children if side == "left" else list(reversed(node.children))
    for child in ordered:
        if child.top.h1 < query.h:
            continue
        if bounds.prunes_band(child.min_base, child.max_base):
            continue
        if side == "left":
            if not _improves(child.min_base, best[0], side):
                continue
        else:
            if not _improves(child.max_base, best[0], side):
                continue
        _find_visit(tree, child.pid, query, bounds, best, side)
