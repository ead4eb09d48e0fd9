"""Hypothesis properties of the page kernels (DESIGN.md §15).

The fused scan loop must agree with the scalar reference row for row,
*and* consume the same filtered-arithmetic telemetry (``fast_hits`` /
``exact_fallbacks``): the telemetry feeds E16/E20's hit-rate numbers,
so a kernel that certified more or fewer signs than the scalar
short-circuits would silently skew the published measurements even if
its answers were right.

The PST node summary bisects instead of scanning, so it makes fewer
compares than the per-row ``classify`` loop by design; it must return
the same hit rows and witnesses as that loop on every valid node (base
order, no crossings) and stay within its logarithmic compare budget.

The strategies deliberately reach the awkward pages: verticals, shared
endpoints and base points, duplicate geometry under distinct labels,
touching rows, empty pages, rows whose coordinates tie the query
bounds exactly (true sign-0 decisions — the forced exact fallbacks),
and huge coordinates whose float images lose precision or overflow.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    LineBasedSegment,
    Segment,
    VerticalQuery,
    filter_stats,
    reset_filter_stats,
    set_exact_only,
    vs_intersects,
)
from repro.geometry import kernels, lb_cross
from repro.geometry.filtered import STATS, exact_only_enabled
from repro.geometry.linebased import HQuery
from repro.core.linebased.node import NodeView
from repro.core.linebased.search import HIT, LEFT, RIGHT, classify

# Coordinate pool: small ints (exact floats), a handful of round-off
# magnets, and huge ints past the 2**53 exact-float range.
coords = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([0, 1, -1, 10**9, -(10**9), (1 << 60) + 1, -(1 << 60) - 3]),
    st.fractions(min_value=-40, max_value=40, max_denominator=7),
)


@st.composite
def lb_segment_st(draw, label=None):
    u0 = draw(coords)
    u1 = draw(coords)
    h1 = abs(draw(coords))
    if h1 == 0 and u0 == u1:
        u1 = u0 + 1
    return LineBasedSegment(u0, u1, h1, label=label)


@st.composite
def lb_page_st(draw):
    rows = draw(st.lists(lb_segment_st(), min_size=0, max_size=24))
    # Duplicate labels / duplicate rows: reuse a prefix of the page.
    if rows and draw(st.booleans()):
        rows = rows + rows[: draw(st.integers(1, len(rows)))]
    return [
        LineBasedSegment(s.u0, s.u1, s.h1, label=i % max(1, len(rows) - 2))
        for i, s in enumerate(rows)
    ]


@st.composite
def hquery_st(draw, anchors=()):
    # Anchor some bounds on page ordinates so exact ties (sign 0) occur.
    pool = coords if not anchors else st.one_of(coords, st.sampled_from(anchors))
    h = abs(draw(pool))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return HQuery.line(h)
    lo, hi = sorted((draw(pool), draw(pool)))
    if kind == 1:
        return HQuery._trusted(h, lo, None)
    if kind == 2:
        return HQuery._trusted(h, None, hi)
    return HQuery.segment(h, lo, hi)


def _scalar_classify_summary(items, query):
    """The scalar reference: per-row ``classify`` folded to the summary
    shape the PST search consumes."""
    hit_rows, last_left, first_right = [], None, None
    for i, s in enumerate(items):
        side = classify(s, query)
        if side == HIT:
            hit_rows.append(i)
        elif side == LEFT:
            last_left = i
        elif side == RIGHT and first_right is None:
            first_right = i
    return hit_rows, last_left, first_right


def _with_stats(fn):
    reset_filter_stats()
    result = fn()
    stats = filter_stats()
    return result, (stats["fast_hits"], stats["exact_fallbacks"])


#: The parity classes compare the float tiers against the scalar
#: reference; under ``REPRO_EXACT_ONLY=1`` those tiers are disabled by
#: design (TestExactOnlyMode proves the dispatchers refuse them), so
#: the comparisons skip rather than fabricate a float run.
needs_float = pytest.mark.skipif(
    exact_only_enabled(),
    reason="float kernel tiers disabled (exact-only mode)")


@st.composite
def touching_rows_st(draw):
    """Rows on a small lattice, so shared base points, shared apexes and
    T-junctions are common; a candidate crossing an accepted row is
    dropped."""
    rows = []
    for u0, u1, h1 in draw(st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                      st.integers(1, 6)), max_size=28)):
        s = LineBasedSegment(u0, u1, h1)
        if not any(lb_cross(s, r) for r in rows):
            rows.append(s)
    return rows


@st.composite
def rising_rows_st(draw):
    """Up to a full 64-row node whose base points and slopes both rise
    in base order, so no two rows cross: fans share a base point,
    parallel rows never meet, and a repeated (base, slope) pair repeats
    the height too (duplicate geometry)."""
    n = draw(st.integers(0, 64))
    bases = sorted(draw(st.lists(st.integers(-20, 20), min_size=n,
                                 max_size=n)))
    slopes = sorted(draw(st.lists(
        st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n)))
    rows = []
    for u0, slope in zip(bases, slopes):
        if rows and rows[-1].base_order_key() == (u0, slope):
            h1 = rows[-1].h1
        else:
            h1 = draw(st.integers(1, 8))
        rows.append(LineBasedSegment(u0, u0 + slope * h1, h1))
    return rows


@st.composite
def pst_node_st(draw):
    """The items of a valid PST node: non-crossing, in base order.

    Some rows are repeated under new labels (duplicate geometry), and the
    whole page may be scaled and shifted along ``u`` and scaled along
    ``h`` — an affine map, so the page stays valid — into fractions,
    lossy floats or magnitudes past the double range (``_fp`` is
    ``None`` there).
    """
    rows = draw(st.one_of(touching_rows_st(), rising_rows_st()))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
            rows.append(rows[i])
    uscale = draw(st.sampled_from([1, 1, Fraction(1, 3), 10**400]))
    ushift = draw(st.sampled_from([0, 0, Fraction(5, 7), (1 << 60) + 1]))
    hscale = draw(st.sampled_from([1, 1, Fraction(2, 3), 10**400]))
    items = [LineBasedSegment(s.u0 * uscale + ushift, s.u1 * uscale + ushift,
                              s.h1 * hscale, label=i)
             for i, s in enumerate(rows)]
    items.sort(key=LineBasedSegment.base_order_key)
    return items


@st.composite
def node_query_st(draw, items):
    """A line, a ray either way or a segment at a row's apex height or a
    drawn one, its bounds often tied exactly to a row's ordinate."""
    heights = [s.h1 for s in items]
    h = draw(st.one_of(st.integers(0, 9), st.sampled_from(heights))
             if heights else st.integers(0, 9))
    ordinates = [s.u_at_unchecked(h) for s in items if s.h1 >= h]
    pool = st.integers(-60, 60)
    if ordinates:
        pool = st.one_of(pool, st.sampled_from(ordinates))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return HQuery.line(h)
    lo, hi = sorted((draw(pool), draw(pool)))
    if kind == 1:
        return HQuery._trusted(h, lo, None)
    if kind == 2:
        return HQuery._trusted(h, None, hi)
    return HQuery.segment(h, lo, hi)


def _node(items):
    return NodeView(0, items, [], 0, None)


@needs_float
class TestNodeSummary:
    @given(pst_node_st(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bisection_matches_per_row_classify(self, items, data):
        query = data.draw(node_query_st(items))
        expected = _scalar_classify_summary(items, query)
        got, (fast, exact) = _with_stats(
            lambda: kernels.page_classify_summary(_node(items), query))
        assert tuple(got) == tuple(expected)
        reaching = sum(1 for s in items if s.h1 >= query.h)
        assert fast + exact <= 2 * math.ceil(math.log2(reaching + 1))

    def test_full_page_makes_logarithmic_compares(self):
        items = [LineBasedSegment(4 * i, 4 * i + 1, 10, label=i)
                 for i in range(64)]
        query = HQuery.segment(5, 101, 150)
        reset_filter_stats()
        summary = kernels.page_classify_summary(_node(items), query)
        assert STATS.total <= 14  # 2 * ceil(log2(65)), against 64+ per row
        assert summary == (list(range(26, 38)), 25, 38)
        assert summary == _scalar_classify_summary(items, query)

    def test_empty_node(self):
        query = HQuery.segment(3, -5, 5)
        assert kernels.page_classify_summary(_node([]), query) == (
            [], None, None)


@st.composite
def plane_segment_st(draw, label=None):
    x1, y1 = draw(coords), draw(coords)
    if draw(st.integers(0, 3)) == 0:
        x2 = x1  # vertical
    else:
        x2 = draw(coords)
    y2 = draw(coords)
    if (x1, y1) == (x2, y2):
        y2 = y2 + 1
    return Segment.from_coords(x1, y1, x2, y2, label=label)


@st.composite
def plane_page_st(draw):
    rows = draw(st.lists(plane_segment_st(), min_size=0, max_size=20))
    if len(rows) >= 2 and draw(st.booleans()):
        # Shared endpoint: second row reuses the first row's start.
        first, second = rows[0], rows[1]
        if first.start != second.end:
            rows[1] = Segment(first.start, second.end, label=second.label)
    return [Segment(s.start, s.end, label=i % max(1, len(rows) - 1))
            for i, s in enumerate(rows)]


@st.composite
def vquery_st(draw, anchors=()):
    pool = coords if not anchors else st.one_of(coords, st.sampled_from(anchors))
    x = draw(pool)
    kind = draw(st.integers(0, 1))
    if kind == 0:
        return VerticalQuery.line(x)
    lo, hi = sorted((draw(pool), draw(pool)))
    return VerticalQuery.segment(x, lo, hi)


@needs_float
class TestIntersectKernels:
    @given(plane_page_st(), st.data())
    @settings(max_examples=250, deadline=None)
    def test_fused_matches_scalar(self, items, data):
        anchors = tuple(s.start.x for s in items[:2]) + tuple(
            s.end.y for s in items[:2])
        query = data.draw(vquery_st(anchors=anchors))
        expected, scalar_stats = _with_stats(
            lambda: [s for s in items if vs_intersects(s, query)])
        got, fused_stats = _with_stats(
            lambda: kernels.intersect_hits_py(items, query))
        if got is None:
            return
        assert got == expected
        assert fused_stats == scalar_stats

    def test_empty_page(self):
        query = VerticalQuery.segment(0, -3, 3)
        assert kernels.intersect_hits_py([], query) == []


class TestExactOnlyMode:
    """Exact-only mode must bypass every float tier, kernels included."""

    @given(lb_page_st(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernels_disabled_and_results_agree(self, items, data):
        query = data.draw(hquery_st())
        baseline = _scalar_classify_summary(items, query)
        prior = exact_only_enabled()
        set_exact_only(True)
        try:
            assert not kernels.vectorized_enabled()
            # The page dispatcher must fall back to the scalar loop and
            # still produce identical answers with zero fast hits.
            reset_filter_stats()
            exact = _scalar_classify_summary(items, query)
            stats = filter_stats()
            assert stats["fast_hits"] == 0
        finally:
            set_exact_only(prior)
        assert exact == baseline

    def test_page_dispatchers_honour_exact_only(self):
        node = _node([LineBasedSegment(i, i + 2, 5, label=i)
                      for i in range(12)])
        query = HQuery.segment(3, 2, 9)
        if not exact_only_enabled():
            assert kernels.page_classify_summary(node, query) is not None
        prior = exact_only_enabled()
        set_exact_only(True)
        try:
            assert not kernels.vectorized_enabled()
            # The node summary must refuse the bisection entirely (None =
            # caller runs the per-row, exact-arithmetic reference loop).
            assert kernels.page_classify_summary(node, query) is None
        finally:
            set_exact_only(prior)
