"""Crash consistency: a crashed update is invisible after recovery.

Updates on a faulty device run inside the device's operation journal, so
a crash at *any* point of an insert or delete must leave the index —
pages and in-memory engine state both — exactly pre-op after
``recover()``, and retrying the operation must land it exactly post-op.
The oracle is the segment set itself: after every crash/recover cycle,
``all_segments()`` is compared against a shadow set maintained in plain
Python, and fsck must report a clean structure.

Covered here:

* every named crash point registered in the two paper engines,
* a ``crash_after_writes`` sweep (crash on the k-th journaled write),
* a long randomized update run (1000+ ops) with crashes injected
  throughout, and
* the external PST's crash points, driven directly through the journal.
"""

import random

import pytest

from repro import SegmentDatabase, Segment
from repro.iosim import FaultSchedule, FaultyBlockDevice, Pager, SimulatedCrash
from repro.workloads import grid_segments

SOLUTION1_POINTS = (
    "solution1.insert.descent",
    "solution1.insert.second-level",
    "solution1.insert.leaf-rebuild",
    "solution1.delete.descent",
    "solution1.delete.second-level",
    "solution1.rebalance",
)
SOLUTION2_POINTS = (
    "solution2.insert.descent",
    "solution2.insert.second-level",
    "solution2.insert.leaf-rebuild",
    "solution2.rebalance",
)


def _labels(db_or_index):
    return sorted((s.label for s in db_or_index.all_segments()), key=str)


def _fresh(i, seed=0):
    # Distinct cells far to the right of the base grid; the growing x
    # offset also skews the tree, which is what forces rebalances.
    # Every 5th segment is a wide one in a high, conflict-free y band:
    # it spans the x-range of everything inserted so far, so it lands in
    # the *second-level* structures of nodes built by earlier leaf
    # rebuilds (narrow segments alone never span an existing line).
    rng = random.Random(seed * 100003 + i)
    if i % 5 == 4:
        y = 5000 + 10 * i
        return Segment.from_coords(10**6 - 50, y, 10**6 + 100 * i + 190,
                                   y + 1, label=("c", seed, i))
    x = 10**6 + 100 * i
    y = rng.randint(0, 1000)
    return Segment.from_coords(x, y, x + rng.randint(1, 90),
                               y + rng.randint(0, 90),
                               label=("c", seed, i))


def _drive_to_crash(db, point, engine, seed):
    """Random updates until the armed crash point fires; returns the op.

    Each op is checked for atomicity on the spot: crash -> recover ->
    pre-op oracle, then redo -> post-op oracle.
    """
    rng = random.Random(seed)
    stored = list(db.all_segments())
    for i in range(600):
        do_delete = (engine == "solution1" and stored and rng.random() < 0.3
                     and "delete" in point)
        oracle = _labels(db)
        if do_delete:
            victim = stored[rng.randrange(len(stored))]
            try:
                assert db.delete(victim)
                stored.remove(victim)
            except SimulatedCrash:
                db.recover()
                assert _labels(db) == oracle, f"{point}: not pre-op"
                assert db.fsck().ok
                assert db.delete(victim)  # redo completes
                oracle.remove(victim.label)
                oracle.sort(key=str)
                assert _labels(db) == oracle, f"{point}: redo not post-op"
                return True
        else:
            seg = _fresh(i, seed)
            try:
                db.insert(seg)
                stored.append(seg)
            except SimulatedCrash:
                db.recover()
                assert _labels(db) == oracle, f"{point}: not pre-op"
                assert db.fsck().ok
                db.insert(seg)  # redo completes
                assert _labels(db) == sorted(oracle + [seg.label], key=str), (
                    f"{point}: redo not post-op")
                return True
    return False


@pytest.mark.parametrize(
    "point,capacity",
    [pytest.param(p, 8, id=p) for p in SOLUTION1_POINTS]
    # Three records a page: crashes land inside multi-record pages.
    + [pytest.param(p, 32, id=f"{p}-B32") for p in SOLUTION1_POINTS])
def test_solution1_crash_points(point, capacity):
    schedule = FaultSchedule(seed=1, crash_points={point: 1})
    db = SegmentDatabase.bulk_load(grid_segments(150, seed=500),
                                   engine="solution1",
                                   block_capacity=capacity, faults=schedule)
    assert _drive_to_crash(db, point, "solution1", seed=501), (
        f"crash point {point} never fired")
    assert db.fsck().ok


@pytest.mark.parametrize("point", SOLUTION2_POINTS)
def test_solution2_crash_points(point):
    schedule = FaultSchedule(seed=2, crash_points={point: 1})
    # Rebalance needs a node with > IMBALANCE_FACTOR children for one
    # slab to exceed its fair share; the fan-out is capacity//4, so only
    # a larger block makes that reachable.  A 600-segment base then
    # gives the root ~8 slabs, and the skewed inserts overload the
    # rightmost one past the 4x-fair trigger.
    if point == "solution2.rebalance":
        n, capacity = 600, 32
    else:
        n, capacity = 150, 8
    db = SegmentDatabase.bulk_load(grid_segments(n, seed=502),
                                   engine="solution2", block_capacity=capacity,
                                   faults=schedule)
    assert _drive_to_crash(db, point, "solution2", seed=503), (
        f"crash point {point} never fired")
    assert db.fsck().ok


@pytest.mark.parametrize("engine", ("solution1", "solution2"))
def test_crash_after_writes_sweep(engine):
    # Crash on the k-th journaled write of one insert, for every k the
    # insert performs; k beyond the write count means no crash.
    segments = grid_segments(120, seed=504)
    for k in range(1, 12):
        schedule = FaultSchedule(seed=3, crash_after_writes=k)
        db = SegmentDatabase.bulk_load(segments, engine=engine,
                                       block_capacity=8, faults=schedule)
        oracle = _labels(db)
        seg = _fresh(k, seed=505)
        try:
            db.insert(seg)
        except SimulatedCrash:
            db.recover()
            assert _labels(db) == oracle, f"k={k}: not pre-op"
            assert db.fsck().ok, f"k={k}"
            db.insert(seg)
        assert _labels(db) == sorted(oracle + [seg.label], key=str), f"k={k}"


def test_long_randomized_update_run_with_crashes():
    # 1000+ random updates on the dynamic engine; every ~7th op is armed
    # to crash partway through its journaled writes.  The shadow set is
    # the ground truth; any divergence after a recover() is a journal bug.
    schedule = FaultSchedule(seed=6)
    db = SegmentDatabase.bulk_load(grid_segments(200, seed=506),
                                   engine="solution1", block_capacity=8,
                                   faults=schedule)
    rng = random.Random(507)
    shadow = {s.label: s for s in db.all_segments()}
    crashes = 0
    for i in range(1000):
        if rng.random() < 0.15:
            schedule.crash_after_writes = rng.randint(1, 8)
        do_delete = shadow and rng.random() < 0.4
        if do_delete:
            victim = shadow[rng.choice(sorted(shadow, key=str))]
            try:
                assert db.delete(victim)
                del shadow[victim.label]
            except SimulatedCrash:
                crashes += 1
                db.recover()
        else:
            seg = _fresh(i, seed=508)
            try:
                db.insert(seg)
                shadow[seg.label] = seg
            except SimulatedCrash:
                crashes += 1
                db.recover()
        if i % 200 == 199:
            assert _labels(db) == sorted(shadow, key=str), f"diverged at op {i}"
            assert db.fsck(deep=False).ok
    schedule.crash_after_writes = None
    assert crashes >= 20, f"only {crashes} crashes exercised"
    assert _labels(db) == sorted(shadow, key=str)
    report = db.fsck(deep=True)
    assert report.ok, report


# ----------------------------------------------------------------------
# the external PST, journaled directly (it sits outside SegmentDatabase)
# ----------------------------------------------------------------------
def _pst_setup(point, k=1):
    from repro.core.linebased.pst import ExternalPST
    from repro.workloads.linebased import fan

    schedule = FaultSchedule(seed=9, crash_points={point: k})
    device = FaultyBlockDevice(8, schedule=schedule)
    pager = Pager(device)
    with schedule.disarmed():
        pst = ExternalPST.build(pager, fan(120, seed=509))
    return pst, device


def _pst_labels(pst):
    return sorted((s.label for s in pst.all_segments()), key=str)


@pytest.mark.parametrize("point", ("pst.insert.sift", "pst.rebuild"))
def test_pst_insert_crash_points(point):
    from repro.geometry import LineBasedSegment

    pst, device = _pst_setup(point)
    fired = False
    for i in range(400):
        seg = LineBasedSegment(3000 + 2 * i, 3000 + 2 * i, 50 + i,
                               label=("p", i))
        oracle = _pst_labels(pst)
        state = (pst.root_pid, pst.size, pst._updates_since_rebuild, pst.top_h)
        try:
            with device.journaled():
                with pst.pager.operation():
                    pst.insert(seg)
        except SimulatedCrash:
            fired = True
            device.rollback_journal()
            pst.root_pid, pst.size, pst._updates_since_rebuild, pst.top_h = state
            assert _pst_labels(pst) == oracle, f"{point}: not pre-op"
            pst.check_invariants()
            with device.journaled():
                with pst.pager.operation():
                    pst.insert(seg)  # redo
            assert _pst_labels(pst) == sorted(oracle + [seg.label], key=str)
            break
    assert fired, f"{point} never fired"
    pst.check_invariants()


def test_pst_delete_crash_point():
    pst, device = _pst_setup("pst.delete")
    victims = list(pst.all_segments())
    fired = False
    for victim in victims[:50]:
        oracle = _pst_labels(pst)
        state = (pst.root_pid, pst.size, pst._updates_since_rebuild, pst.top_h)
        try:
            with device.journaled():
                with pst.pager.operation():
                    assert pst.delete(victim)
        except SimulatedCrash:
            fired = True
            device.rollback_journal()
            pst.root_pid, pst.size, pst._updates_since_rebuild, pst.top_h = state
            assert _pst_labels(pst) == oracle, "pst.delete: not pre-op"
            pst.check_invariants()
            with device.journaled():
                with pst.pager.operation():
                    assert pst.delete(victim)  # redo
            oracle.remove(victim.label)
            assert _pst_labels(pst) == sorted(oracle, key=str)
            break
    assert fired, "pst.delete never fired"
    pst.check_invariants()
