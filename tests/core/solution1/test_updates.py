"""Insertions/deletions on Solution 1 (the BB[α]-maintained first level)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solution1 import TwoLevelBinaryIndex
from repro.geometry import Segment, VerticalQuery, vs_intersects
from repro.iosim import BlockDevice, Measurement, Pager
from repro.workloads import (grid_segments, grid_segments_touching,
                             mixed_queries, segment_queries)


def build(segments, capacity=8, blocked=True):
    dev = BlockDevice(block_capacity=capacity)
    pager = Pager(dev)
    index = TwoLevelBinaryIndex.build(pager, segments, blocked=blocked)
    return dev, pager, index


def oracle(segments, q):
    return sorted(s.label for s in segments if vs_intersects(s, q))


class TestInsert:
    def test_insert_into_empty(self):
        _d, _p, index = build([])
        s = Segment.from_coords(0, 0, 5, 5, label="s")
        index.insert(s)
        assert [x.label for x in index.query(VerticalQuery.line(2))] == ["s"]

    def test_incremental_build_matches_bulk(self):
        segments = grid_segments(150, seed=1)
        _d, _p, incremental = build([])
        for s in segments:
            incremental.insert(s)
        _d2, _p2, bulk = build(segments)
        incremental.check_invariants()
        for q in mixed_queries(segments, 20, seed=2):
            assert sorted(s.label for s in incremental.query(q)) == sorted(
                s.label for s in bulk.query(q)
            )

    def test_insert_crossing_existing_line(self):
        segments = grid_segments(100, seed=3)
        _d, _p, index = build(segments)
        # A long horizontal segment crossing many base lines lands at the
        # first node whose line it spans.
        xs = sorted(x for s in segments for x in (s.xmin, s.xmax))
        big = Segment.from_coords(xs[0] - 1, -50, xs[-1] + 1, -50, label="big")
        index.insert(big)
        index.check_invariants()
        q = VerticalQuery.segment(xs[len(xs) // 2], -60, -40)
        assert "big" in {s.label for s in index.query(q)}

    def test_insert_io_cost(self):
        capacity = 16
        segments = grid_segments(4096, seed=4)
        dev, pager, index = build(segments, capacity=capacity)
        n_blocks = 4096 / capacity
        budget = 14 * math.log2(n_blocks) + 40
        worst = 0
        rng = random.Random(5)
        for i in range(24):
            x = rng.randrange(0, 6000)
            y = -(10 + i)  # below all data: never crosses anything
            s = Segment.from_coords(x, y, x + 3, y, label=("ins", i))
            with Measurement(dev) as m:
                index.insert(s)
            worst = max(worst, m.stats.total)
        # Amortised: rebuilds may spike a single insertion; the bulk of
        # insertions must stay logarithmic.
        assert worst <= 60 * math.log2(n_blocks) + 200

    def test_weight_tracking(self):
        segments = grid_segments(64, seed=6)
        _d, _p, index = build(segments, capacity=4)
        for i in range(20):
            index.insert(Segment.from_coords(7 * i, -9, 7 * i + 3, -9, label=("w", i)))
        index.check_invariants()
        assert len(index) == 84


class TestDelete:
    def test_delete_missing(self):
        segments = grid_segments(30, seed=7)
        _d, _p, index = build(segments)
        ghost = Segment.from_coords(-100, -100, -90, -90, label="ghost")
        assert not index.delete(ghost)

    def test_delete_roundtrip(self):
        segments = grid_segments(120, seed=8)
        _d, _p, index = build(segments, capacity=8)
        rng = random.Random(9)
        victims = rng.sample(segments, 50)
        for s in victims:
            assert index.delete(s), s
        remaining = [s for s in segments if s not in victims]
        index.check_invariants()
        for q in mixed_queries(segments, 20, seed=10):
            assert sorted(s.label for s in index.query(q)) == oracle(remaining, q)

    def test_delete_everything(self):
        segments = grid_segments(60, seed=11)
        _d, _p, index = build(segments, capacity=4)
        for s in segments:
            assert index.delete(s)
        assert len(index) == 0
        assert index.query(VerticalQuery.line(50)) == []

    def test_delete_then_reinsert(self):
        segments = grid_segments(80, seed=12)
        _d, _p, index = build(segments, capacity=8)
        for s in segments[:40]:
            index.delete(s)
        for s in segments[:40]:
            index.insert(s)
        index.check_invariants()
        for q in segment_queries(segments, 10, seed=13):
            assert sorted(s.label for s in index.query(q)) == oracle(segments, q)


def replacement(old, version, rng, cell=100):
    """A segment for ``old``'s cell of ``grid_segments_touching`` that
    crosses nothing: endpoints shared with the neighbouring cells stay,
    an interior left endpoint moves to a new height in the cell's row."""
    left, right = old.start, old.end
    y = left.y
    if left.x % cell:
        row = (left.y // cell) * cell
        y = row + rng.randint(1, cell - 2)
        while (left.x, y) == (right.x, right.y):
            y = row + rng.randint(1, cell - 2)
    return Segment.from_coords(left.x, y, right.x, right.y,
                               label=("r", old.label[1], version))


def skewed(count, x0=10**6):
    """Disjoint horizontal segments marching right of all the data."""
    return [Segment.from_coords(x0 + 10 * i, 0, x0 + 10 * i + 5, 0,
                                label=("skew", i))
            for i in range(count)]


class TestBalance:
    """BB[α] balance is checked against the node's whole weight, so fresh
    builds pass and rebuilds are paid for by the updates that skew a
    subtree.  Shared endpoints keep many segments at the nodes: a test
    that left those out would fail fresh nodes and rebuild them on every
    update through them."""

    def test_fresh_build_of_shared_endpoints_is_balanced(self):
        for capacity in (4, 8, 64):
            _d, _p, index = build(grid_segments_touching(1024, seed=2),
                                  capacity=capacity)
            index.check_invariants()

    def test_replacement_churn_never_rebuilds(self):
        segments = grid_segments_touching(2048, seed=2)
        dev, _p, index = build(segments, capacity=64)
        rng = random.Random(3)
        current = {s.label[1]: s for s in segments}
        cells = sorted(current)
        for version in range(400):
            cell = cells[rng.randrange(len(cells))]
            new = replacement(current[cell], version, rng)
            assert index.delete(current[cell])
            index.insert(new)
            current[cell] = new
        assert dev.tag_writes.get("rebuild", 0) == 0
        index.check_invariants()
        for q in segment_queries(segments, 10, seed=4):
            assert sorted(s.label for s in index.query(q)) == oracle(
                current.values(), q)

    def test_skewed_inserts_still_rebuild(self):
        segments = grid_segments_touching(512, seed=3)
        dev, _p, index = build(segments, capacity=8)
        extra = skewed(300)
        for s in extra:
            index.insert(s)
        assert dev.tag_writes.get("rebuild", 0) > 0
        index.check_invariants()
        q = VerticalQuery.line(extra[150].xmin + 1)
        assert [s.label for s in index.query(q)] == [("skew", 150)]

    def test_check_invariants_asserts_balance(self, monkeypatch):
        _d, _p, index = build(grid_segments_touching(512, seed=3), capacity=8)
        monkeypatch.setattr(TwoLevelBinaryIndex, "_rebalance_path",
                            lambda self, path: None)
        for s in skewed(300):
            index.insert(s)
        with pytest.raises(AssertionError, match="balance"):
            index.check_invariants()
        assert "balance" in index.verify()[0]


@given(
    st.integers(0, 10**6),
    st.lists(st.tuples(st.integers(0, 59), st.booleans()), max_size=50),
)
@settings(max_examples=60, deadline=None)
def test_mixed_updates_match_oracle(seed, ops):
    pool = grid_segments(60, cell_size=20, seed=seed)
    _d, _p, index = build([], capacity=4)
    live = {}
    for idx, is_insert in ops:
        s = pool[idx]
        if is_insert and s.label not in live:
            index.insert(s)
            live[s.label] = s
        elif not is_insert and s.label in live:
            assert index.delete(s)
            del live[s.label]
    index.check_invariants()
    for q in (VerticalQuery.line(35), VerticalQuery.segment(50, 10, 90)):
        assert sorted(s.label for s in index.query(q)) == oracle(
            list(live.values()), q
        )
