"""Tests for the LineBasedIndex facade (PST + on-line intervals)."""

from repro.core.linebased import LineBasedIndex
from repro.geometry import HQuery, LineBasedSegment, lb_intersects
from repro.iosim import BlockDevice, Pager
from repro.workloads import fan, hqueries, with_on_line_segments


def build(segments, capacity=8, blocked=False):
    dev = BlockDevice(block_capacity=capacity)
    pager = Pager(dev)
    index = LineBasedIndex.build(pager, segments, blocked=blocked)
    return dev, pager, index


def oracle(segments, q):
    return sorted(s.label for s in segments if lb_intersects(s, q))


class TestMixedSets:
    def test_on_line_segments_reported_at_h0(self):
        segments = with_on_line_segments(fan(30, seed=1), 10, seed=1)
        _d, _p, index = build(segments)
        q = HQuery.line(0)
        assert sorted(s.label for s in index.query(q)) == oracle(segments, q)

    def test_on_line_segments_invisible_above(self):
        segments = with_on_line_segments(fan(30, seed=2), 10, seed=2)
        _d, _p, index = build(segments)
        q = HQuery.line(1)
        got = {s.label for s in index.query(q)}
        assert not any(lbl[0] == "ol" for lbl in got)

    def test_window_at_h0_mixes_both(self):
        segments = with_on_line_segments(fan(50, seed=3), 20, seed=3)
        _d, _p, index = build(segments)
        for q in hqueries(segments, 10, selectivity=0.2, seed=4):
            q0 = HQuery(0, q.ulo, q.uhi)
            assert sorted(s.label for s in index.query(q0)) == oracle(segments, q0)

    def test_len_counts_both(self):
        segments = with_on_line_segments(fan(30, seed=5), 10, seed=5)
        _d, _p, index = build(segments)
        assert len(index) == 40

    def test_all_segments_roundtrip(self):
        segments = with_on_line_segments(fan(25, seed=6), 5, seed=6)
        _d, _p, index = build(segments)
        assert sorted(s.label for s in index.all_segments()) == sorted(
            s.label for s in segments
        )


class TestUpdates:
    def test_insert_dispatch(self):
        _d, _p, index = build([])
        index.insert(LineBasedSegment(0, 5, 0, label="flat"))
        index.insert(LineBasedSegment(10, 12, 7, label="tall"))
        assert len(index) == 2
        # Both are hit at h=0: "tall" plants its base point at u=10.
        got = sorted(s.label for s in index.query(HQuery.segment(0, 0, 20)))
        assert got == ["flat", "tall"]
        # Above the base line only "tall" remains.
        assert [s.label for s in index.query(HQuery.segment(5, 0, 20))] == ["tall"]

    def test_delete_dispatch(self):
        segments = [
            LineBasedSegment(0, 5, 0, label="flat"),
            LineBasedSegment(10, 12, 7, label="tall"),
        ]
        _d, _p, index = build(segments)
        assert index.delete(segments[0])
        assert index.delete(segments[1])
        assert len(index) == 0


class TestBlockedVariant:
    def test_blocked_same_answers(self):
        segments = with_on_line_segments(fan(200, seed=7), 30, seed=7)
        _d1, _p1, binary = build(segments, capacity=16)
        _d2, _p2, blocked = build(segments, capacity=16, blocked=True)
        queries = hqueries(segments, 10, selectivity=0.05, seed=8)
        queries.append(HQuery.line(0))
        for q in queries:
            assert sorted(s.label for s in binary.query(q)) == sorted(
                s.label for s in blocked.query(q)
            )

    def test_find_through_facade(self):
        segments = fan(100, seed=9)
        _d, _p, index = build(segments, blocked=True)
        q = hqueries(segments, 1, selectivity=0.3, seed=10)[0]
        hits = [s for s in segments if lb_intersects(s, q)]
        result = index.find_leftmost(q)
        if hits:
            assert result[0] == min(hits, key=lambda s: s.base_order_key())
        else:
            assert result is None
