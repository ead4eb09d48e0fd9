"""The complete Section-2 structure for one base line.

A line-based set may contain segments *lying on* the base line (both
endpoints on it).  Those are interior-disjoint 1-D intervals (NCT) and are
kept in a :class:`~repro.storage.disjoint.DisjointIntervalIndex`; proper
segments go to the external PST.  This mirrors exactly how the two-level
structures of Sections 3–4 treat them (``C(v)`` vs ``L(v)``/``R(v)``).

Costs (Lemmas 2–3): space ``O(n)``; query ``O(log2 n + t)`` with the binary
PST or ``O(log_B n + t)`` with the blocked PST; updates ``O(height)``
amortised.
"""

from __future__ import annotations

from typing import Iterable, List

from ...geometry import HQuery, LineBasedSegment
from ...iosim import Pager
from ...storage.disjoint import DisjointIntervalIndex
from .pst import BlockedPST, ExternalPST


def reaches(top_h, h) -> bool:
    """Whether a PST whose tallest stored apex height is ``top_h``
    (``None`` when it is empty) stores a segment reaching height ``h``.

    The PST's own rule for a subtree — enter it only when its routing
    copy ``v.left``/``v.right`` reaches ``h`` — applied at the root.
    Exact: a segment with ``h1 == h`` reaches, and at ``h == 0`` only an
    empty PST is ruled out.
    """
    return top_h is not None and top_h >= h


def pst_reaches(metadata: tuple, h) -> bool:
    """:func:`reaches` for the PST that :meth:`LineBasedIndex.metadata`
    describes, through the tallest apex height it records, so a caller
    that holds the metadata rules a PST out without reading it."""
    return reaches(metadata[5], h)  # the field metadata() puts there


class LineBasedIndex:
    """Query/update index over one line-based segment set."""

    def __init__(self, pager: Pager, blocked: bool = False):
        self.pager = pager
        self.blocked = blocked
        self.pst: ExternalPST = (
            BlockedPST(pager) if blocked else ExternalPST(pager, fanout=2)
        )
        self.on_line = DisjointIntervalIndex(pager)

    @classmethod
    def build(
        cls,
        pager: Pager,
        segments: Iterable[LineBasedSegment],
        blocked: bool = False,
    ) -> "LineBasedIndex":
        index = cls(pager, blocked=blocked)
        proper = []
        flat = []
        for s in segments:
            (flat if s.on_base_line else proper).append(s)
        if blocked:
            index.pst = BlockedPST.build_blocked(pager, proper)
        else:
            index.pst = ExternalPST.build(pager, proper, fanout=2)
        if flat:
            index.on_line = DisjointIntervalIndex.build(
                pager,
                [(min(s.u0, s.u1), max(s.u0, s.u1), s) for s in flat],
            )
        return index

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: HQuery) -> List[LineBasedSegment]:
        """All stored segments intersecting the parallel query ``q``."""
        with self.pager.operation():
            hits = self.pst.query(q) if reaches(self.pst.top_h, q.h) else []
            if q.h == 0:
                hits.extend(s for _lo, _hi, s in self.on_line.overlap(q.ulo, q.uhi))
        return hits

    def find_leftmost(self, q: HQuery):
        with self.pager.operation():
            return self.pst.find_leftmost(q)

    def find_rightmost(self, q: HQuery):
        with self.pager.operation():
            return self.pst.find_rightmost(q)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, segment: LineBasedSegment) -> None:
        """Insert one segment, which must not cross the stored set (the
        paper's update model; ``SegmentDatabase(validate=True)`` checks
        it)."""
        with self.pager.operation():
            if segment.on_base_line:
                lo, hi = min(segment.u0, segment.u1), max(segment.u0, segment.u1)
                self.on_line.insert(lo, hi, segment)
            else:
                self.pst.insert(segment)

    def delete(self, segment: LineBasedSegment) -> bool:
        with self.pager.operation():
            if segment.on_base_line:
                lo, hi = min(segment.u0, segment.u1), max(segment.u0, segment.u1)
                return self.on_line.delete(lo, hi)
            return self.pst.delete(segment)

    # ------------------------------------------------------------------
    # persistence (used by the two-level structures, whose first-level
    # nodes store second-level structures by reference)
    # ------------------------------------------------------------------
    def metadata(self) -> tuple:
        """O(1) words describing this index, storable in a page header."""
        return (
            self.blocked,
            self.pst.root_pid,
            self.pst.size,
            self.pst.fanout,
            self.pst._updates_since_rebuild,
            self.pst.top_h,
            self.on_line.root_pid,
        )

    @classmethod
    def attach(cls, pager: Pager, metadata: tuple) -> "LineBasedIndex":
        """Reconstruct a view from :meth:`metadata` (no I/O)."""
        blocked, pst_root, pst_size, fanout, pending, top_h, online_root = metadata
        index = cls.__new__(cls)
        index.pager = pager
        index.blocked = blocked
        index.pst = (
            BlockedPST(pager) if blocked else ExternalPST(pager, fanout=fanout)
        )
        index.pst.fanout = fanout
        index.pst.root_pid = pst_root
        index.pst.size = pst_size
        index.pst._updates_since_rebuild = pending
        index.pst.top_h = top_h
        index.on_line = DisjointIntervalIndex.attach(pager, online_root)
        return index

    def destroy(self) -> None:
        """Free every page of both component structures."""
        if self.pst.root_pid is not None:
            self.pst._free_subtree(self.pst.root_pid)
            self.pst.root_pid = None
            self.pst.size = 0
            self.pst.top_h = None
        self.on_line.destroy()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert both components: PST heap/x-order and on-line disjointness."""
        self.pst.check_invariants()
        self.on_line.check_invariants()

    def all_segments(self) -> List[LineBasedSegment]:
        out = list(self.pst.all_segments())
        out.extend(s for _lo, _hi, s in self.on_line.items())
        return out

    def __len__(self) -> int:
        return len(self.pst) + sum(1 for _ in self.on_line.items())
