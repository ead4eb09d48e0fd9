"""Workloads dominated by vertical segments: the C structures under load.

The cost-anatomy benchmark (E14) shows ordinary workloads barely touch the
on-line interval indexes, because a vertical segment only lands in ``C``
when it sits exactly on a base line / slab boundary.  These tests build
fence-like data where that happens constantly.
"""

import random

import pytest

from repro import SegmentDatabase, Segment, VerticalQuery, vs_intersects
from repro.workloads import mixed_queries


def fence_workload(columns=40, per_column=12, gap=50, seed=1):
    """Vertical "fence posts": many disjoint vertical segments stacked in
    shared x-columns (plus horizontal rails tying the scene together)."""
    rng = random.Random(seed)
    segments = []
    for c in range(columns):
        x = c * gap
        y = 0
        for j in range(per_column):
            height = rng.randint(2, 30)
            segments.append(
                Segment.from_coords(x, y, x, y + height, label=("post", c, j))
            )
            y += height + rng.randint(1, 10)
    # Rails between columns, touching nothing (strictly between posts' x).
    for c in range(columns - 1):
        x = c * gap + gap // 2
        segments.append(
            Segment.from_coords(x - 10, -20, x + 10, -15, label=("rail", c))
        )
    return segments


def oracle(segments, q):
    return sorted((s.label for s in segments if vs_intersects(s, q)), key=str)


@pytest.mark.parametrize("engine", ("solution1", "solution2", "stab-filter", "grid", "rtree"))
def test_fence_queries_match_oracle(engine):
    segments = fence_workload()
    db = SegmentDatabase.bulk_load(segments, engine=engine, block_capacity=16)
    for q in mixed_queries(segments, 20, selectivity=0.05, seed=2):
        assert sorted((s.label for s in db.query(q)), key=str) == oracle(
            segments, q
        ), (engine, q)


@pytest.mark.parametrize("engine", ("solution1", "solution2"))
def test_queries_on_post_columns(engine):
    """Queries exactly on the shared x of a column hit the C structures."""
    segments = fence_workload()
    db = SegmentDatabase.bulk_load(segments, engine=engine, block_capacity=16)
    for x in (0, 50, 1000, 1950):
        for q in (
            VerticalQuery.line(x),
            VerticalQuery.segment(x, 10, 60),
            VerticalQuery.ray_up(x, ylo=100),
        ):
            assert sorted((s.label for s in db.query(q)), key=str) == oracle(
                segments, q
            ), (engine, q)


def test_c_structures_actually_used():
    """At least some query I/O must be attributed to C on this workload."""
    from repro.core.solution1 import TwoLevelBinaryIndex
    from repro.core.solution1.index import X
    from repro.iosim import BlockDevice, Pager

    segments = fence_workload(columns=30, per_column=20)
    dev = BlockDevice(block_capacity=16)
    index = TwoLevelBinaryIndex.build(Pager(dev), segments)
    dev.reset_tags()
    # Probe the exact base lines the first level chose.
    lines = [record[X] for _depth, _page, slot, record in index.walk()
             if slot is not None]
    dev.reset_tags()
    for c in lines[:8]:
        index.query(VerticalQuery.segment(c, 0, 200))
    assert dev.tag_snapshot().get("C", 0) > 0


def test_fence_updates():
    segments = fence_workload(columns=20, per_column=8)
    db = SegmentDatabase.bulk_load(segments, engine="solution1",
                                   block_capacity=16)
    rng = random.Random(3)
    victims = rng.sample(segments, 40)
    for s in victims:
        assert db.delete(s)
    live = [s for s in segments if s not in victims]
    for q in mixed_queries(segments, 15, seed=4):
        assert sorted((s.label for s in db.query(q)), key=str) == oracle(live, q)
