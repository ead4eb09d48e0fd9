"""Plane segments.

A :class:`Segment` is a closed, possibly degenerate-free straight segment
with exact rational endpoints.  Segments are normalised so that the first
endpoint is lexicographically smaller; a ``label`` identifies the segment
through splitting and re-storage (the two-level structures store fragments
of a segment in several places but must report the original exactly once).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Optional

from .filtered import segment_fp
from .point import Coordinate, Point


class Segment:
    """A non-degenerate closed plane segment with exact endpoints.

    Parameters
    ----------
    p, q:
        The endpoints (order irrelevant; stored lexicographically).
    label:
        Stable identity used for duplicate-free reporting.  Defaults to the
        endpoint pair itself, which is adequate when all segments are
        distinct.
    """

    __slots__ = ("start", "end", "label", "_fp")

    def __init__(self, p: Point, q: Point, label: Optional[Hashable] = None):
        if p == q:
            raise ValueError(f"degenerate segment at {p!r}")
        if q < p:
            p, q = q, p
        self.start = p
        self.end = q
        self.label = label if label is not None else (p.as_tuple(), q.as_tuple())
        # Float coefficients (+ error radii) for the filtered-arithmetic
        # fast path; None disables it for this segment (exact still works).
        self._fp = segment_fp(p.x, p.y, q.x, q.y)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coords(
        cls,
        x1: Coordinate,
        y1: Coordinate,
        x2: Coordinate,
        y2: Coordinate,
        label: Optional[Hashable] = None,
    ) -> "Segment":
        return cls(Point(x1, y1), Point(x2, y2), label=label)

    # ------------------------------------------------------------------
    # extents
    # ------------------------------------------------------------------
    @property
    def xmin(self) -> Coordinate:
        return self.start.x

    @property
    def xmax(self) -> Coordinate:
        return self.end.x

    @property
    def ymin(self) -> Coordinate:
        return min(self.start.y, self.end.y)

    @property
    def ymax(self) -> Coordinate:
        return max(self.start.y, self.end.y)

    @property
    def is_vertical(self) -> bool:
        return self.start.x == self.end.x

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def y_at(self, x: Coordinate) -> Fraction:
        """The y-coordinate of the segment at vertical line ``x``.

        Requires ``xmin <= x <= xmax`` and a non-vertical segment.
        """
        if self.is_vertical:
            raise ValueError("y_at is undefined for a vertical segment")
        if not (self.xmin <= x <= self.xmax):
            raise ValueError(f"x={x} outside segment x-range [{self.xmin}, {self.xmax}]")
        return self.y_at_unchecked(x)

    def y_at_unchecked(self, x: Coordinate) -> Fraction:
        """:meth:`y_at` without the vertical/range validation.

        For index inner loops whose invariants already guarantee a
        non-vertical segment spanning ``x``.
        """
        dx = self.end.x - self.start.x
        return self.start.y + Fraction(self.end.y - self.start.y) * Fraction(
            x - self.start.x, dx
        )

    def spans_x(self, x: Coordinate) -> bool:
        """True when the vertical line at ``x`` meets the segment's x-extent."""
        return self.xmin <= x <= self.xmax

    def with_label(self, label: Hashable) -> "Segment":
        return Segment(self.start, self.end, label=label)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return (
            self.start == other.start
            and self.end == other.end
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash((self.start, self.end, self.label))

    def __repr__(self) -> str:
        return (
            f"Segment(({self.start.x!r}, {self.start.y!r}) -> "
            f"({self.end.x!r}, {self.end.y!r}), label={self.label!r})"
        )

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle as one flat tuple instead of three slot-state objects.

        Answers cross a process boundary at every serving hop, and the
        default slotted form (this object plus its two points, each with
        its own state dict) costs several times as much to encode (see
        DESIGN.md §13).  ``_fp`` rides along so decoding never
        recomputes it.
        """
        start, end = self.start, self.end
        return (_restore_segment,
                (start.x, start.y, end.x, end.y, self.label, self._fp))


_new = object.__new__


def _restore_segment(sx, sy, ex, ey, label, fp) -> Segment:
    """Inverse of :meth:`Segment.__reduce__`.

    Sets the slots directly, as the default slot-state unpickle does:
    the values were validated and normalised when the segment was first
    built, so neither ``check_coordinate`` nor ``segment_fp`` runs again.
    """
    start = _new(Point)
    start.x = sx
    start.y = sy
    end = _new(Point)
    end.x = ex
    end.y = ey
    seg = _new(Segment)
    seg.start = start
    seg.end = end
    seg.label = label
    seg._fp = fp
    return seg
