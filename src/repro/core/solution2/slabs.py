"""Slab arithmetic and fragment splitting (Section 4.2, Figure 6).

An internal node of Solution 2's first level partitions its x-range with
boundaries ``s_1 < ... < s_b`` into ``b + 1`` slabs (slab ``k`` is
``[s_k, s_{k+1})`` with ``s_0 = -inf``, ``s_{b+1} = +inf``).  A segment
*assigned* to the node (it meets at least one boundary) splits into:

* an **on-line interval** when it lies on a boundary (vertical at ``s_i``);
* a **left short fragment** — from its left endpoint to the first boundary
  it meets (line-based, hanging left off ``s_i``; goes to PST ``L_i``);
* a **right short fragment** — from the last boundary to its right
  endpoint (goes to PST ``R_j``);
* a **long fragment** — the central part between the first and last
  boundaries, spanning inner slabs ``i..j-1`` completely (goes to the
  segment tree ``G``).

Totals match the paper: at most 1 long + 2 short fragments per segment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ...geometry import Segment, VerticalBaseFrame
from ...geometry.linebased import LineBasedSegment


@dataclass
class SplitResult:
    """Outcome of splitting one segment at a node's boundaries."""

    on_line: Optional[Tuple[int, Tuple]] = None  # (boundary idx, (ylo, yhi))
    left_short: Optional[Tuple[int, LineBasedSegment]] = None  # (i, fragment)
    right_short: Optional[Tuple[int, LineBasedSegment]] = None  # (j, fragment)
    long: Optional[Tuple[int, int, "LongFragment"]] = None  # (i, j, fragment)


@dataclass(frozen=True)
class LongFragment:
    """The central part of a segment, cut on boundaries ``s_i`` and ``s_j``.

    ``y_left`` / ``y_right`` are the exact ordinates at the cut lines; the
    payload is the original database segment (reported to the user).
    ``augmented`` marks fractional-cascading copies, which are never
    reported.
    """

    x_left: object
    x_right: object
    y_left: object
    y_right: object
    payload: Segment
    augmented: bool = False

    def y_at(self, x):
        """Exact ordinate at ``x`` (requires ``x_left <= x <= x_right``)."""
        if not (self.x_left <= x <= self.x_right):
            raise ValueError(f"x={x} outside fragment [{self.x_left}, {self.x_right}]")
        return self.y_at_unchecked(x)

    def y_at_unchecked(self, x):
        """:meth:`y_at` without the span validation (callers on the build
        and query hot paths have already established ``x`` is in range)."""
        if self.x_left == self.x_right:
            return self.y_left
        return self.y_left + Fraction(self.y_right - self.y_left) * Fraction(
            x - self.x_left, self.x_right - self.x_left
        )

    def cut(self, x_left, x_right) -> "LongFragment":
        """The sub-fragment between two lines inside this fragment's span."""
        return LongFragment(
            x_left,
            x_right,
            self.y_at_unchecked(x_left),
            self.y_at_unchecked(x_right),
            self.payload,
            augmented=self.augmented,
        )

    def as_augmented(self) -> "LongFragment":
        return LongFragment(
            self.x_left, self.x_right, self.y_left, self.y_right,
            self.payload, augmented=True,
        )


def slab_of(boundaries: Sequence, x) -> int:
    """Index of the slab containing ``x`` (``k`` when ``s_k <= x < s_{k+1}``,
    0-based with slab 0 before ``s_1``).  Boundaries are 1-indexed, so the
    returned slab ``k`` means ``x`` lies at/after boundary ``k``."""
    return bisect.bisect_right(boundaries, x)


def boundary_index(boundaries: Sequence, x) -> Optional[int]:
    """1-based index ``i`` with ``s_i == x``, or ``None``."""
    pos = bisect.bisect_left(boundaries, x)
    if pos < len(boundaries) and boundaries[pos] == x:
        return pos + 1
    return None


def boundaries_met(boundaries: Sequence, segment: Segment) -> Tuple[int, int]:
    """1-based indices ``(i, j)`` of the first/last boundary the segment
    meets, or ``(0, -1)`` when it meets none."""
    first = bisect.bisect_left(boundaries, segment.xmin)
    last = bisect.bisect_right(boundaries, segment.xmax) - 1
    if first > last:
        return (0, -1)
    return (first + 1, last + 1)


def split_segment(boundaries: Sequence, segment: Segment) -> Optional[SplitResult]:
    """Split an assigned segment; returns ``None`` when it meets no boundary."""
    i, j = boundaries_met(boundaries, segment)
    if j < i:
        return None
    result = SplitResult()
    if segment.is_vertical:
        # Meeting a boundary while vertical means lying on it.
        assert i == j
        result.on_line = (i, (segment.ymin, segment.ymax))
        return result
    s_i = boundaries[i - 1]
    s_j = boundaries[j - 1]
    if segment.xmin < s_i:
        part = Segment.from_coords(
            segment.start.x, segment.start.y, s_i, segment.y_at_unchecked(s_i),
            label=segment.label,
        )
        result.left_short = (
            i, VerticalBaseFrame(s_i, "left").to_line_based(part, payload=segment)
        )
    if segment.xmax > s_j:
        part = Segment.from_coords(
            s_j, segment.y_at_unchecked(s_j), segment.end.x, segment.end.y,
            label=segment.label,
        )
        result.right_short = (
            j, VerticalBaseFrame(s_j, "right").to_line_based(part, payload=segment)
        )
    if j > i:
        result.long = (
            i,
            j,
            LongFragment(
                s_i, s_j,
                segment.y_at_unchecked(s_i), segment.y_at_unchecked(s_j),
                segment,
            ),
        )
    return result


def choose_boundaries(segments: List[Segment], fanout: int) -> List:
    """Quantile boundaries over the endpoint x-multiset (distinct values)."""
    xs = sorted(x for s in segments for x in (s.xmin, s.xmax))
    boundaries: List = []
    for i in range(1, fanout + 1):
        value = xs[(len(xs) * i) // (fanout + 1)]
        if not boundaries or value > boundaries[-1]:
            boundaries.append(value)
    return boundaries
