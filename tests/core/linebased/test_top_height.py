"""The PST's tallest apex height, kept beside its root pointer.

``ExternalPST.top_h`` travels in :meth:`LineBasedIndex.metadata`, and
:func:`pst_reaches` rules a whole PST out from those words alone — the
PST's own routing-copy rule applied at its root.  A stale value would
silently drop answers, so ``check_invariants`` (and with it fsck)
asserts it, and every update path and crash recovery must keep it.
"""

import random
from fractions import Fraction

import pytest

from repro import SegmentDatabase, Segment, VerticalQuery
from repro.core.linebased import ExternalPST, LineBasedIndex
from repro.core.linebased.index import pst_reaches
from repro.core.solution1.index import L_META, R_META, TwoLevelBinaryIndex
from repro.geometry import HQuery, LineBasedSegment, lb_intersects, vs_intersects
from repro.iosim import BlockDevice, FaultSchedule, Pager, SimulatedCrash
from repro.workloads import fan, grid_segments, segment_queries


def tallest(tree):
    return max((s.h1 for s in tree.all_segments()), default=None)


def build_pst(segments, capacity=4):
    device = BlockDevice(block_capacity=capacity)
    pager = Pager(device)
    return device, pager, ExternalPST.build(pager, segments)


def build_index(segments, capacity=8):
    device = BlockDevice(block_capacity=capacity)
    pager = Pager(device)
    return device, pager, LineBasedIndex.build(pager, segments, blocked=True)


class TestMaintenance:
    def test_build_records_the_tallest(self):
        segments = fan(60, max_height=500, seed=1)
        _d, _p, tree = build_pst(segments)
        assert tree.top_h == max(s.h1 for s in segments)
        tree.check_invariants()

    def test_empty_tree_has_none(self):
        _d, _p, tree = build_pst([])
        assert tree.top_h is None
        tree.check_invariants()

    def test_insert_of_a_taller_segment_raises_it(self):
        _d, _p, tree = build_pst(fan(40, max_height=100, seed=2))
        before = tree.top_h
        tree.insert(LineBasedSegment(10**6, 10**6, before + 7, label="sky"))
        assert tree.top_h == before + 7
        tree.insert(LineBasedSegment(10**6 + 50, 10**6 + 50, 1, label="low"))
        assert tree.top_h == before + 7
        tree.check_invariants()

    def test_delete_of_the_tallest_lowers_it(self):
        segments = fan(40, max_height=100, seed=3)
        _d, _p, tree = build_pst(segments)
        ranked = sorted(segments, key=lambda s: s.h1)
        assert tree.delete(ranked[-1])
        assert tree.top_h == max(s.h1 for s in ranked[:-1])
        tree.check_invariants()

    def test_tied_tallest_lowers_only_with_the_last_of_them(self):
        segments = fan(30, max_height=50, seed=4)
        twins = [LineBasedSegment(10**5 + 20 * i, 10**5 + 20 * i, 99,
                                  label=("twin", i)) for i in range(2)]
        _d, _p, tree = build_pst(segments + twins)
        assert tree.top_h == 99
        assert tree.delete(twins[0])
        assert tree.top_h == 99
        tree.check_invariants()
        assert tree.delete(twins[1])
        assert tree.top_h == max(s.h1 for s in segments)
        tree.check_invariants()

    def test_last_delete_empties_it(self):
        segments = fan(12, seed=5)
        _d, _p, tree = build_pst(segments)
        for s in segments:
            assert tree.delete(s)
        assert tree.root_pid is None and tree.top_h is None
        tree.check_invariants()

    def test_churn_keeps_it_exact(self):
        rng = random.Random(6)
        stored = fan(80, max_height=300, seed=6)
        _d, _p, tree = build_pst(stored)
        spare = fan(160, max_height=600, seed=7)[80:]
        for step in range(300):
            if stored and rng.random() < 0.5:
                assert tree.delete(stored.pop(rng.randrange(len(stored))))
            elif spare:
                seg = spare.pop()
                tree.insert(seg)
                stored.append(seg)
            assert tree.top_h == tallest(tree), f"step {step}"
        tree.check_invariants()

    def test_stale_value_fails_check_invariants(self):
        _d, _p, tree = build_pst(fan(30, seed=8))
        tree.top_h -= 1
        with pytest.raises(AssertionError, match="top_h stale"):
            tree.check_invariants()

    def test_metadata_carries_it_and_keeps_on_line_root_last(self):
        segments = fan(30, seed=9)
        _d, pager, index = build_index(segments)
        again = LineBasedIndex.attach(pager, index.metadata())
        assert again.pst.top_h == index.pst.top_h == max(s.h1 for s in segments)
        assert index.metadata()[-1] is None  # the on-line root
        index.destroy()
        assert index.pst.top_h is None
        assert not pst_reaches(index.metadata(), 0)


class TestPredicate:
    def test_reaches_is_exact(self):
        segments = fan(50, max_height=200, seed=10)
        _d, _p, index = build_index(segments)
        top = index.pst.top_h
        meta = index.metadata()
        assert pst_reaches(meta, top)
        assert pst_reaches(meta, 0)
        assert not pst_reaches(meta, top + 1)

    def test_query_at_the_tallest_height_reports_it(self):
        segments = fan(50, max_height=200, seed=11)
        _d, _p, index = build_index(segments)
        top = index.pst.top_h
        q = HQuery(top)
        got = sorted(s.label for s in index.query(q))
        assert got == sorted(s.label for s in segments if s.h1 == top)
        assert got == sorted(s.label for s in segments if lb_intersects(s, q))

    def test_query_just_above_reads_nothing(self):
        segments = fan(50, max_height=200, seed=12)
        device, _p, index = build_index(segments)
        above = index.pst.top_h + 1
        device.reset_counters()
        assert index.query(HQuery(above)) == []
        assert device.snapshot().reads == 0


# ----------------------------------------------------------------------
# the two-level engines
# ----------------------------------------------------------------------
def short_segments(n=400):
    """Unit-length segments whose endpoints sit at multiples of ten: every
    base line is an endpoint, so every PST fragment is at most 1 tall."""
    return [Segment.from_coords(10 * i, (7 * i) % 50, 10 * i + 1,
                                (7 * i) % 50 + 1, label=("s", i))
            for i in range(n)]


@pytest.mark.parametrize("engine,phase", (("solution1", "PST"),
                                          ("solution2", "short-PST")))
def test_skipped_psts_charge_nothing_to_their_phase(engine, phase):
    segments = short_segments()
    db = SegmentDatabase.bulk_load(segments, engine=engine, block_capacity=8)
    far = VerticalQuery.line(10 * 123 + 5)  # at least 4 from every line
    report = db.explain(far)
    assert report.balanced
    assert report.top_level().get(phase, 0) == 0
    assert report.io.total > 0  # routing and the leaf are still paid
    assert sorted(s.label for s in db.query(far)) == []
    # One step from a segment's endpoint the fragments reach the query.
    near = VerticalQuery.line(10 * 123 + Fraction(1, 2))
    expected = sorted(s.label for s in segments if s.spans_x(near.x))
    assert sorted(s.label for s in db.query(near)) == expected


def test_batched_queries_skip_the_same_psts():
    segments = grid_segments(600, seed=13)
    queries = segment_queries(segments, 64, selectivity=0.02, seed=14)
    for engine in ("solution1", "solution2"):
        db = SegmentDatabase.bulk_load(segments, engine=engine, block_capacity=8)
        single = [sorted(map(str, (s.label for s in db.query(q)))) for q in queries]
        batched = [sorted(map(str, (s.label for s in r)))
                   for r in db.query_batch(queries)]
        assert batched == single, engine


def test_save_open_preserves_per_query_reads(tmp_path):
    segments = grid_segments(500, seed=15)
    queries = segment_queries(segments, 40, selectivity=0.02, seed=16)
    db = SegmentDatabase.bulk_load(segments, engine="solution1", block_capacity=8)
    # Updates move top_h in some first-level nodes before the save.
    rng = random.Random(17)
    for victim in rng.sample(segments, 60):
        assert db.delete(victim)
    path = str(tmp_path / "db.snap")
    db.save(path)
    reopened = SegmentDatabase.open(path)

    def profile(d):
        out = []
        for q in queries:
            before = d.io_stats()
            labels = sorted(map(str, (s.label for s in d.query(q))))
            out.append((labels, (d.io_stats() - before).reads))
        return out

    assert profile(reopened) == profile(db)
    assert reopened.fsck().ok


def _first_level_metas(db):
    """Every (page, slot, field) of a solution1 record holding a PST."""
    out = []
    for _depth, page, slot, record in db._index.walk():
        if slot is None:
            continue
        for field in (L_META, R_META):
            if record[field][2] > 0:  # a non-empty PST
                out.append((page, slot, field))
    return out


def test_fsck_flags_a_stale_first_level_value():
    db = SegmentDatabase.bulk_load(grid_segments(300, seed=18),
                                   engine="solution1", block_capacity=8)
    assert db.fsck().ok
    page, slot, field = _first_level_metas(db)[0]
    meta = list(page.items[slot][field])
    meta[5] = meta[5] - 1  # lower than the tallest stored fragment
    TwoLevelBinaryIndex._set(page, slot, field, tuple(meta))
    report = db.fsck()
    assert not report.ok
    assert any("top_h stale" in p for p in report.problems), report.problems


def _wide(i):
    """Crosses every base line of the grid data in its own high y band."""
    y = 5000 + 10 * i
    return Segment.from_coords(-100 - 7 * i, y, 2000 + 11 * i, y + 1,
                               label=("wide", i))


@pytest.mark.parametrize("point", ("pst.delete", "pst.insert.sift",
                                   "solution1.delete.second-level"))
def test_crash_then_recover_keeps_metadata_consistent(point):
    schedule = FaultSchedule(seed=19, crash_points={point: 1})
    base = grid_segments(150, seed=20)
    db = SegmentDatabase.bulk_load(base, engine="solution1", block_capacity=8,
                                   faults=schedule)
    stored = list(base)
    queries = segment_queries(base, 24, selectivity=0.05, seed=21)
    queries += [VerticalQuery.line(q.x) for q in queries]
    fired = False
    rng = random.Random(22)
    for i in range(200):
        before = sorted(map(str, (s.label for s in db.all_segments())))
        try:
            if "delete" in point and rng.random() < 0.6:
                victim = stored.pop(rng.randrange(len(stored)))
                assert db.delete(victim)
            else:
                seg = _wide(i)
                db.insert(seg)
                stored.append(seg)
        except SimulatedCrash:
            fired = True
            db.recover()
            assert sorted(map(str, (s.label for s in db.all_segments()))) == before
            break
    assert fired, f"{point} never fired"
    assert db.fsck(deep=True).ok
    live = [s for s in db.all_segments()]
    for q in queries:
        expected = sorted(str(s.label) for s in live
                          if s.xmin <= q.x <= s.xmax and vs_intersects(s, q))
        assert sorted(str(s.label) for s in db.query(q)) == expected
