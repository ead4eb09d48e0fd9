"""Semi-dynamic insertions on Solution 2 (Section 4.3, Theorem 2 iii)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solution2 import TwoLevelIntervalIndex
from repro.geometry import Segment, VerticalQuery, vs_intersects
from repro.iosim import BlockDevice, Measurement, Pager
from repro.workloads import grid_segments, grid_segments_touching, mixed_queries


def build(segments, capacity=16, fanout=None):
    dev = BlockDevice(block_capacity=capacity)
    pager = Pager(dev)
    index = TwoLevelIntervalIndex.build(pager, segments, fanout=fanout)
    return dev, pager, index


def oracle(segments, q):
    return sorted((s.label for s in segments if vs_intersects(s, q)), key=str)


class TestInsert:
    def test_insert_into_empty(self):
        _d, _p, index = build([])
        s = Segment.from_coords(0, 0, 5, 5, label="s")
        index.insert(s)
        assert [x.label for x in index.query(VerticalQuery.line(2))] == ["s"]

    def test_incremental_build_matches_bulk(self):
        segments = grid_segments(200, seed=1)
        _d, _p, incremental = build([])
        for s in segments:
            incremental.insert(s)
        incremental.check_invariants()
        _d2, _p2, bulk = build(segments)
        for q in mixed_queries(segments, 20, seed=2):
            assert sorted(
                (s.label for s in incremental.query(q)), key=str
            ) == sorted((s.label for s in bulk.query(q)), key=str)

    def test_insert_wide_segments_into_g(self):
        segments = grid_segments(300, seed=3)
        _d, _p, index = build(segments, capacity=16)
        wide = []
        for i in range(40):
            s = Segment.from_coords(0, -10 * (i + 1), 5000, -10 * (i + 1) + 5,
                                    label=("wide", i))
            index.insert(s)
            wide.append(s)
        index.check_invariants()
        everything = segments + wide
        for q in mixed_queries(everything, 20, selectivity=0.05, seed=4):
            assert sorted((s.label for s in index.query(q)), key=str) == oracle(
                everything, q
            ), q

    def test_insert_vertical_on_boundary(self):
        segments = grid_segments(300, seed=5)
        _d, _p, index = build(segments, capacity=16)
        view = index._read_view(index.root_pid)
        s_i = view.boundaries[0]
        v = Segment.from_coords(s_i, -500, s_i, -400, label="v")
        index.insert(v)
        q = VerticalQuery.segment(s_i, -450, -440)
        assert [s.label for s in index.query(q)] == ["v"]
        index.check_invariants()

    def test_insert_io_cost(self):
        capacity = 32
        segments = grid_segments(8192, seed=6)
        dev, pager, index = build(segments, capacity=capacity)
        rng = random.Random(7)
        costs = []
        for i in range(64):
            x = rng.randrange(0, 9000)
            y = -(10 + i)
            s = Segment.from_coords(x, y, x + rng.randrange(1, 2000), y,
                                    label=("ins", i))
            with Measurement(dev) as m:
                index.insert(s)
            costs.append(m.stats.total)
        costs.sort()
        median = costs[len(costs) // 2]
        n_blocks = 8192 / capacity
        # log_B n + log2 B plus constants; the median avoids rebuild spikes.
        budget = 10 * (math.log(n_blocks, capacity) + math.log2(capacity)) + 60
        assert median <= budget, (median, budget)

    def test_weight_tracking(self):
        segments = grid_segments(100, seed=8)
        _d, _p, index = build(segments, capacity=16)
        for i in range(30):
            index.insert(
                Segment.from_coords(9 * i, -7, 9 * i + 4, -7, label=("w", i))
            )
        index.check_invariants()
        assert len(index) == 130


def skewed(count, x0=10**6):
    """Disjoint horizontal segments marching right of all the data."""
    return [Segment.from_coords(x0 + 10 * i, 0, x0 + 10 * i + 5, 0,
                                label=("skew", i))
            for i in range(count)]


class TestBalance:
    """Slab balance is checked against the node's whole weight, so fresh
    builds pass and rebuilds are paid for by the insertions that skew a
    subtree.  Shared endpoints keep many segments at the nodes: a test
    that left those out would fail fresh nodes and rebuild them on every
    insertion through them."""

    def test_fresh_build_of_shared_endpoints_is_balanced(self):
        for capacity in (8, 32):
            _d, _p, index = build(grid_segments_touching(2048, seed=1),
                                  capacity=capacity)
            index.check_invariants()

    def test_random_short_inserts_never_rebuild(self):
        segments = grid_segments_touching(4096, seed=1)
        dev, _p, index = build(segments, capacity=32)
        width = max(s.xmax for s in segments)
        rng = random.Random(4)
        extra = []
        for i in range(200):
            x = rng.randrange(0, width)
            y = -(5 + i)  # below all data, one row each: crosses nothing
            s = Segment.from_coords(x, y, x + rng.randrange(1, 200), y,
                                    label=("ins", i))
            index.insert(s)
            extra.append(s)
        assert dev.tag_writes.get("rebuild", 0) == 0
        index.check_invariants()
        everything = segments + extra
        for q in mixed_queries(everything, 10, selectivity=0.05, seed=5):
            assert sorted((s.label for s in index.query(q)), key=str) == oracle(
                everything, q)

    def test_skewed_inserts_still_rebuild(self):
        # At B=8 the default fan-out B/4 = 2 gives a node three children,
        # none of which can outweigh 4·weight/3, so that run widens the
        # fan-out to let the balance check fail.
        for capacity, fanout in ((8, 4), (32, None)):
            dev, _p, index = build(grid_segments_touching(600, seed=3),
                                   capacity=capacity, fanout=fanout)
            extra = skewed(600)
            for s in extra:
                index.insert(s)
                index.check_invariants()
            assert dev.tag_writes.get("rebuild", 0) > 0
            q = VerticalQuery.line(extra[300].xmin + 1)
            assert [s.label for s in index.query(q)] == [("skew", 300)]

    def test_height_is_the_deepest_leaf(self):
        # At B=8 and the default fan-out this stream rebuilds nothing, so
        # it deepens the rightmost path only.
        _d, _p, index = build(grid_segments_touching(600, seed=3), capacity=8)
        fresh = index.height()
        for s in skewed(600):
            index.insert(s)
        deepest, stack = 0, [(index.root_pid, 1)]
        while stack:
            pid, depth = stack.pop()
            if index._node_kind(pid) == "leaf":
                deepest = max(deepest, depth)
            else:
                stack += [(c, depth + 1) for c in index._read_view(pid).children]
        assert index.height() == deepest > fresh

    def test_balance_check_reads_nothing(self):
        """An insertion checks only the child it entered at each node, on
        the head page its descent holds, so a stream that triggers no
        rebuild reads nothing for balance."""
        segments = grid_segments_touching(4096, seed=1)
        dev, _p, index = build(segments, capacity=64)
        width = max(s.xmax for s in segments)
        rng = random.Random(6)
        for i in range(100):
            x = rng.randrange(0, width)
            if i % 4 == 0:  # wide: stops at a node high up
                length = rng.randrange(width // 4, width // 2)
            else:
                length = rng.randrange(1, 200)
            index.insert(Segment.from_coords(x, -(5 + i), x + length, -(5 + i),
                                             label=("ins", i)))
        assert dev.tag_writes.get("rebuild", 0) == 0
        assert dev.tag_reads.get("rebuild", 0) == 0
        index.check_invariants()

    def test_check_invariants_asserts_balance(self, monkeypatch):
        _d, _p, index = build(grid_segments_touching(600, seed=3), capacity=32)
        monkeypatch.setattr(TwoLevelIntervalIndex, "_rebalance_path",
                            lambda self, path: None)
        for s in skewed(600):
            index.insert(s)
        with pytest.raises(AssertionError, match="balance"):
            index.check_invariants()
        assert "balance" in index.verify()[0]


@given(
    st.integers(0, 10**6),
    st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_incremental_always_matches_oracle(seed, n_insert):
    pool = grid_segments(60, cell_size=20, seed=seed)
    base, extra = pool[:20], pool[20 : 20 + n_insert]
    _d, _p, index = build(base, capacity=16, fanout=3)
    for s in extra:
        index.insert(s)
    live = base + extra
    index.check_invariants()
    for q in (VerticalQuery.line(35), VerticalQuery.segment(50, 10, 90)):
        assert sorted((s.label for s in index.query(q)), key=str) == oracle(live, q)
