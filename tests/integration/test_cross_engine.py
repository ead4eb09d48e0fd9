"""Integration: every engine answers every workload identically.

The full-scan engine is the oracle; the paper's two structures and the two
indexed baselines must agree with it on every query kind over every
workload family, including after interleaved insertions.
"""

import pytest

from repro import SegmentDatabase
from repro.workloads import (
    delaunay_edges,
    grid_segments,
    grid_segments_touching,
    mixed_queries,
    monotone_polylines,
    version_history,
)

ENGINES = ("solution1", "solution2", "stab-filter", "grid", "rtree")

WORKLOADS = {
    "grid": lambda: grid_segments(400, seed=101),
    "touching": lambda: grid_segments_touching(400, seed=102),
    "polylines": lambda: monotone_polylines(10, points_per_line=40, seed=103),
    "temporal": lambda: version_history(20, versions_per_key=20, seed=104),
    "delaunay": lambda: delaunay_edges(150, seed=105),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("engine", ENGINES)
def test_engine_matches_oracle(workload, engine):
    if workload == "delaunay":
        pytest.importorskip("scipy")  # the Delaunay workload's test extra
    segments = WORKLOADS[workload]()
    oracle = SegmentDatabase.bulk_load(segments, engine="scan", block_capacity=16)
    db = SegmentDatabase.bulk_load(segments, engine=engine, block_capacity=16)
    for q in mixed_queries(segments, 15, selectivity=0.05, seed=1):
        expected = sorted((s.label for s in oracle.query(q)), key=str)
        got = sorted((s.label for s in db.query(q)), key=str)
        assert got == expected, (workload, engine, q)


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_matches_oracle_after_inserts(engine):
    segments = grid_segments(300, seed=106)
    base, extra = segments[:200], segments[200:]
    oracle = SegmentDatabase.bulk_load(base, engine="scan", block_capacity=16)
    db = SegmentDatabase.bulk_load(base, engine=engine, block_capacity=16)
    queries = mixed_queries(segments, 4, selectivity=0.05, seed=2)
    for i, s in enumerate(extra):
        oracle.insert(s)
        db.insert(s)
        if i % 25 == 0:
            for q in queries:
                expected = sorted((x.label for x in oracle.query(q)), key=str)
                got = sorted((x.label for x in db.query(q)), key=str)
                assert got == expected, (engine, i, q)


@pytest.mark.parametrize("capacity", (4, 16, 64, 256))
def test_block_capacity_never_changes_answers(capacity):
    segments = grid_segments_touching(300, seed=107)
    reference = None
    db = SegmentDatabase.bulk_load(segments, engine="solution2",
                                   block_capacity=capacity)
    got = [
        sorted((s.label for s in db.query(q)), key=str)
        for q in mixed_queries(segments, 10, seed=3)
    ]
    oracle = SegmentDatabase.bulk_load(segments, engine="scan",
                                       block_capacity=capacity)
    expected = [
        sorted((s.label for s in oracle.query(q)), key=str)
        for q in mixed_queries(segments, 10, seed=3)
    ]
    assert got == expected


def test_buffer_pool_never_changes_answers():
    segments = grid_segments(500, seed=108)
    plain = SegmentDatabase.bulk_load(segments, engine="solution2",
                                      block_capacity=16)
    pooled = SegmentDatabase.bulk_load(segments, engine="solution2",
                                       block_capacity=16, buffer_pages=8)
    for q in mixed_queries(segments, 20, seed=4):
        assert sorted((s.label for s in plain.query(q)), key=str) == sorted(
            (s.label for s in pooled.query(q)), key=str
        )


def test_solution1_blocked_and_binary_second_levels_agree():
    from repro.core.solution1 import TwoLevelBinaryIndex
    from repro.iosim import BlockDevice, Pager

    segments = version_history(15, versions_per_key=20, seed=109)
    variants = []
    for blocked in (True, False):
        dev = BlockDevice(block_capacity=16)
        variants.append(TwoLevelBinaryIndex.build(Pager(dev), segments,
                                                  blocked=blocked))
    for q in mixed_queries(segments, 15, seed=5):
        a, b = (sorted((s.label for s in v.query(q)), key=str) for v in variants)
        assert a == b
