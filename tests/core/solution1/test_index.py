"""Correctness of Solution 1 against the brute-force oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solution1 import TwoLevelBinaryIndex, split_at_line
from repro.core.solution1.index import X
from repro.geometry import Segment, VerticalQuery, vs_intersects
from repro.iosim import BlockDevice, Pager
from repro.workloads import (
    grid_segments,
    grid_segments_touching,
    mixed_queries,
    monotone_polylines,
    stabbing_queries,
    version_history,
)


def build(segments, capacity=8, blocked=True):
    dev = BlockDevice(block_capacity=capacity)
    pager = Pager(dev)
    index = TwoLevelBinaryIndex.build(pager, segments, blocked=blocked)
    return dev, pager, index


def oracle(segments, q):
    return sorted(s.label for s in segments if vs_intersects(s, q))


class TestSplitAtLine:
    def test_strict_crosser_gets_both_parts(self):
        s = Segment.from_coords(0, 0, 10, 10, label="s")
        interval, left, right = split_at_line(s, 4)
        assert interval is None
        assert left is not None and right is not None
        assert left.payload.label == "s"
        assert left.u0 == 4  # y at x=4
        assert left.h1 == 4 and right.h1 == 6

    def test_touching_from_left_only(self):
        s = Segment.from_coords(0, 0, 4, 2, label="s")
        interval, left, right = split_at_line(s, 4)
        assert interval is None and right is None
        assert left.h1 == 4

    def test_vertical_on_line(self):
        s = Segment.from_coords(4, 1, 4, 7, label="s")
        interval, left, right = split_at_line(s, 4)
        assert interval == (1, 7)
        assert left is None and right is None

    def test_vertical_off_line_crossing_impossible(self):
        s = Segment.from_coords(3, 1, 3, 7, label="s")
        with pytest.raises(ValueError):
            split_at_line(s, 4)

    def test_fractional_intersection(self):
        s = Segment.from_coords(0, 0, 3, 1, label="s")
        _i, left, _r = split_at_line(s, 1)
        assert left.u0 == Fraction(1, 3)


class TestQueries:
    def test_empty_index(self):
        _d, _p, index = build([])
        assert index.query(VerticalQuery.line(0)) == []

    def test_small_leaf_only(self):
        segments = grid_segments(5, seed=1)
        _d, _p, index = build(segments, capacity=8)
        for q in mixed_queries(segments, 9, seed=2):
            assert sorted(s.label for s in index.query(q)) == oracle(segments, q)

    def test_grid_workload(self):
        segments = grid_segments(300, seed=3)
        _d, _p, index = build(segments, capacity=8)
        for q in mixed_queries(segments, 30, selectivity=0.05, seed=4):
            assert sorted(s.label for s in index.query(q)) == oracle(segments, q), q

    def test_touching_workload(self):
        segments = grid_segments_touching(250, seed=5)
        _d, _p, index = build(segments, capacity=8)
        for q in mixed_queries(segments, 30, selectivity=0.05, seed=6):
            assert sorted(s.label for s in index.query(q)) == oracle(segments, q), q

    def test_polyline_workload(self):
        segments = monotone_polylines(6, points_per_line=40, seed=7)
        _d, _p, index = build(segments, capacity=8)
        for q in mixed_queries(segments, 30, selectivity=0.1, seed=8):
            assert sorted(s.label for s in index.query(q)) == oracle(segments, q), q

    def test_temporal_workload(self):
        segments = version_history(8, versions_per_key=25, seed=9)
        _d, _p, index = build(segments, capacity=8)
        for q in mixed_queries(segments, 30, selectivity=0.05, seed=10):
            assert sorted(s.label for s in index.query(q)) == oracle(segments, q), q

    def test_query_exactly_on_base_lines(self):
        segments = grid_segments(200, seed=11)
        _d, pager, index = build(segments, capacity=8)
        # Probe the root line and a few deeper lines explicitly.
        lines = [record[X] for _depth, _page, slot, record in index.walk()
                 if slot is not None]
        assert lines
        for c in lines[:10]:
            q = VerticalQuery.line(c)
            assert sorted(s.label for s in index.query(q)) == oracle(segments, q)
            q2 = VerticalQuery.segment(c, 0, 5000)
            assert sorted(s.label for s in index.query(q2)) == oracle(segments, q2)

    def test_no_duplicates_on_line_queries(self):
        segments = grid_segments_touching(150, seed=12)
        _d, _p, index = build(segments, capacity=8)
        for q in stabbing_queries(segments, 20, seed=13):
            got = [s.label for s in index.query(q)]
            assert len(got) == len(set(got))

    def test_vertical_segments_in_data(self):
        segments = [
            Segment.from_coords(5, 0, 5, 10, label="v1"),
            Segment.from_coords(5, 12, 5, 20, label="v2"),
            Segment.from_coords(0, 5, 10, 5, label="h"),
            Segment.from_coords(0, 15, 4, 18, label="d"),
        ]
        _d, _p, index = build(segments, capacity=2)
        for q in [
            VerticalQuery.line(5),
            VerticalQuery.segment(5, 11, 13),
            VerticalQuery.segment(5, 0, 4),
            VerticalQuery.ray_up(5, ylo=13),
        ]:
            assert sorted(s.label for s in index.query(q)) == oracle(segments, q), q

    def test_binary_second_level_matches_blocked(self):
        segments = grid_segments(200, seed=14)
        _d1, _p1, fast = build(segments, capacity=8, blocked=True)
        _d2, _p2, slow = build(segments, capacity=8, blocked=False)
        for q in mixed_queries(segments, 15, seed=15):
            assert sorted(s.label for s in fast.query(q)) == sorted(
                s.label for s in slow.query(q)
            )

    def test_invariants_after_build(self):
        segments = grid_segments_touching(180, seed=16)
        _d, _p, index = build(segments, capacity=8)
        index.check_invariants()

    def test_all_segments_roundtrip(self):
        segments = grid_segments(120, seed=17)
        _d, _p, index = build(segments, capacity=8)
        assert sorted(s.label for s in index.all_segments()) == sorted(
            s.label for s in segments
        )

    def test_height_is_the_deepest_leaf(self):
        # Here the deepest leaf is not on the leftmost path.
        _d, _p, index = build(grid_segments(200, seed=7), capacity=8)
        deepest = max(depth + 1 for depth, _page, slot, _record in index.walk()
                      if slot is None)
        assert index.height() == deepest == 6


@st.composite
def segments_and_query(draw):
    kind = draw(st.sampled_from(["grid", "touch", "poly"]))
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(3, 60))
    if kind == "grid":
        segments = grid_segments(n, cell_size=20, seed=seed)
    elif kind == "touch":
        segments = grid_segments_touching(n, cell_size=20, seed=seed)
    else:
        segments = monotone_polylines(max(1, n // 10), points_per_line=10, seed=seed)
    xmin = min(s.xmin for s in segments)
    xmax = max(s.xmax for s in segments)
    ymin = min(s.ymin for s in segments)
    ymax = max(s.ymax for s in segments)
    x0 = draw(st.integers(int(xmin) - 2, int(xmax) + 2))
    y1 = draw(st.integers(int(ymin) - 2, int(ymax) + 2))
    dy = draw(st.integers(0, int(ymax - ymin) + 4))
    return segments, VerticalQuery.segment(x0, y1, y1 + dy)


@given(segments_and_query())
@settings(max_examples=150, deadline=None)
def test_solution1_matches_oracle_property(case):
    segments, q = case
    _d, _p, index = build(segments, capacity=4)
    assert sorted(s.label for s in index.query(q)) == oracle(segments, q)
