"""Solution 1's first level packed into supernode pages.

Each page holds the top ``k = levels_per_page(B)`` levels of a binary
subtree as records; a node at depth ``d`` lives in the page rooted at its
ancestor of depth ``⌊d/k⌋·k``.  These tests hold the layout to that rule
under updates and rebuilds, check that a query reads one page per ``k``
levels of its path, and that crashes inside multi-record pages roll back
record by record.
"""

import copy
import math
import random
import struct
from fractions import Fraction

import pytest

from repro import SegmentDatabase, Segment, VerticalQuery
from repro.core.solution1 import TwoLevelBinaryIndex
from repro.core.solution1.index import LEFT, RIGHT, X, levels_per_page
from repro.iosim import (BlockDevice, FaultSchedule, Pager, SimulatedCrash,
                         SnapshotFormatError)
from repro.workloads import (grid_segments, grid_segments_touching,
                             mixed_queries, segment_queries)
from tests.core.solution1.test_updates import skewed

DATA = {"grid": grid_segments, "touching": grid_segments_touching}


def build(segments, capacity):
    dev = BlockDevice(block_capacity=capacity)
    return dev, TwoLevelBinaryIndex.build(Pager(dev), segments)


def labels(results):
    return sorted(map(str, (s.label for s in results)))


@pytest.fixture
def rebuild_roots(monkeypatch):
    """The slot of every subtree root a rebalance or leaf split frees."""
    roots = []
    real = TwoLevelBinaryIndex._destroy_subtree
    nesting = [0]

    def spy(self, page, slot=0):
        if nesting[0] == 0:
            roots.append(slot)
        nesting[0] += 1
        try:
            return real(self, page, slot)
        finally:
            nesting[0] -= 1

    monkeypatch.setattr(TwoLevelBinaryIndex, "_destroy_subtree", spy)
    return roots


def test_levels_per_page_fill_a_quarter_of_the_block():
    assert [levels_per_page(b) for b in (2, 4, 8, 16, 32, 64, 128)] == \
        [1, 1, 1, 2, 3, 4, 5]
    for b in (4, 8, 16, 32, 64, 128, 256):
        k = levels_per_page(b)
        assert 2 ** k - 1 <= b // 4 < 2 ** (k + 1) - 1


def test_pages_hold_k_levels():
    """A fresh build fills its pages: the root page holds ``2^k − 1``
    records, and the walker's depths match the page boundaries."""
    for capacity in (16, 32, 64):
        _dev, index = build(grid_segments(4096, seed=1), capacity)
        k = index.levels
        assert len(index.pager.fetch(index.root_pid).items) == 2 ** k - 1
        for depth, page, slot, _record in index.walk():
            if slot is not None:
                assert (slot == 0) == (depth % k == 0), (capacity, depth, slot)
        index.check_invariants()


@pytest.mark.parametrize("capacity", (16, 32, 64))
@pytest.mark.parametrize("data", sorted(DATA))
def test_e5_streams_keep_the_layout(capacity, data):
    segments = DATA[data](2048, seed=13)
    _dev, index = build(segments, capacity)
    rng = random.Random(5)
    for i in range(96):
        x = rng.randrange(0, 110 * int(2048 ** 0.5))
        y = -(5 + i)
        index.insert(Segment.from_coords(x, y, x + rng.randrange(2, 300), y,
                                         label=("ins", i)))
    index.check_invariants()
    for s in rng.sample(segments, 96):
        assert index.delete(s)
    index.check_invariants(deep=True)


@pytest.mark.parametrize("capacity", (16, 32, 64))
def test_skewed_stream_keeps_the_layout(capacity, rebuild_roots):
    dev, index = build(grid_segments_touching(600, seed=3), capacity)
    stream = skewed(600)
    for s in stream:
        index.insert(s)
    for s in random.Random(1).sample(stream, 300):
        assert index.delete(s)
    index.check_invariants(deep=True)
    assert rebuild_roots, "the skewed stream never rebuilt a subtree"
    index.destroy()  # re-laid-out pages orphaned nothing
    assert dev.pages_in_use == 0


def test_a_rebuild_rooted_mid_page_matches_the_oracle(rebuild_roots):
    """At B=32 (three levels a page) the skewed stream rebuilds subtrees
    whose roots sit below their page's root: the page is re-laid out
    around the new subtree, and answers stay those of a full scan."""
    base = grid_segments_touching(600, seed=3)
    db = SegmentDatabase.bulk_load(base, engine="solution1",
                                   block_capacity=32)
    oracle = SegmentDatabase.bulk_load(base, engine="scan", block_capacity=32)
    for s in skewed(400):
        db.insert(s)
        oracle.insert(s)
    assert any(slot != 0 for slot in rebuild_roots), rebuild_roots
    db._index.check_invariants(deep=True)
    stored = list(oracle.all_segments())
    queries = list(mixed_queries(stored, 60, seed=4))
    queries += [VerticalQuery.line(10**6 + 10 * i + 3) for i in range(0, 400, 37)]
    for q in queries:
        assert labels(db.query(q)) == labels(oracle.query(q)), q
    assert [labels(r) for r in db.query_batch(queries)] == \
        [labels(oracle.query(q)) for q in queries]


@pytest.mark.parametrize("capacity", (32, 64))
@pytest.mark.parametrize("data", sorted(DATA))
def test_a_query_reads_one_page_per_k_levels(capacity, data):
    segments = DATA[data](4096, seed=2)
    dev, index = build(segments, capacity)
    k = index.levels
    queries = list(segment_queries(segments, 40, seed=3))
    queries += [VerticalQuery.line(q.x) for q in queries[:10]]
    for q in queries:
        path = list(index.walk(q.x))
        internal = sum(1 for _d, _p, slot, _r in path if slot is not None)
        pages = {page.page_id for _d, page, _s, _r in path}
        before = dev.tag_reads.get("first-level", 0)
        index.query(q)
        reads = dev.tag_reads.get("first-level", 0) - before
        assert reads == len(pages), (q, reads, len(pages))
        assert reads <= math.ceil(internal / k) + 1, (q, reads, internal)


def test_a_batch_fetches_each_page_on_its_paths_once():
    segments = grid_segments_touching(4096, seed=9)
    dev, index = build(segments, 32)
    queries = list(segment_queries(segments, 64, seed=10))
    queries += [VerticalQuery.line(q.x) for q in queries[:8]]
    pages = {page.page_id for q in queries
             for _d, page, _s, _r in index.walk(q.x)}
    before = dev.tag_reads.get("first-level", 0)
    got = index.query_batch(queries)
    assert dev.tag_reads.get("first-level", 0) - before == len(pages)
    assert [labels(r) for r in got] == [labels(index.query(q)) for q in queries]


def test_the_insert_path_writes_one_page_per_k_levels():
    segments = grid_segments(4096, seed=4)
    dev, index = build(segments, 64)
    x = segments[100].xmin
    path = list(index.walk(x))
    pages = {page.page_id for _d, page, _s, _r in path}
    assert len(path) > len(pages) > 1
    before = dev.tag_writes.get("first-level", 0)
    index.insert(Segment.from_coords(x, -50, x, -40, label="probe"))
    assert dev.tag_writes.get("first-level", 0) - before == len(pages)


def test_an_update_hands_each_page_on_its_path_to_the_pager_once(monkeypatch):
    """The pager charges only a page's first write in an operation, but
    each repeat still re-fingerprints the whole page on a fault-checking
    device, so an insert or delete that ends in a leaf writes each
    supernode page on its path once."""
    _dev, index = build(grid_segments(2000, seed=6), 32)
    root = index.pager.fetch(index.root_pid)
    x = root.items[0][X] + Fraction(1, 2)  # between integer base lines
    walk = list(index.walk(x))
    path = sorted({page.page_id for _d, page, slot, _r in walk if slot is not None})
    assert len(path) > 1
    assert walk[-1][1].get_header("weight") < 32  # the insert splits no leaf
    written = []
    real = index.pager.write

    def counting(page):
        written.append(page.page_id)
        real(page)

    monkeypatch.setattr(index.pager, "write", counting)
    probe = Segment.from_coords(x, -30, x + Fraction(1, 4), -30, label="probe")
    for update in (index.insert, index.delete):
        written.clear()
        update(probe)
        assert sorted(pid for pid in written if pid in path) == path, update
    index.check_invariants()


def test_a_version_3_snapshot_is_refused(tmp_path):
    """Version 3 stored one first-level node per page header; the records
    read since version 4 would be misread from it, so it does not open."""
    path = tmp_path / "sol1.snap"
    db = SegmentDatabase.bulk_load(grid_segments(300, seed=5),
                                   engine="solution1", block_capacity=32)
    db.save(str(path))
    q = VerticalQuery.line(150)
    assert labels(SegmentDatabase.open(str(path)).query(q)) == \
        labels(db.query(q))
    blob = bytearray(path.read_bytes())
    struct.pack_into(">I", blob, 8, 3)
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError,
                       match="unsupported format version 3 "):
        SegmentDatabase.open(str(path))


@pytest.mark.parametrize("hit", (1, 2, 3))
def test_a_descent_crash_restores_every_record_of_the_root_page(hit):
    """The descent replaces one record of the root page per level before
    the crash point; recovery must bring back each of them."""
    schedule = FaultSchedule(seed=1, crash_points={
        "solution1.insert.descent": hit})
    db = SegmentDatabase.bulk_load(grid_segments(2000, seed=6),
                                   engine="solution1", block_capacity=32,
                                   faults=schedule)
    root = db._index.pager.fetch(db._index.root_pid)
    assert len(root.items) == 7
    before = copy.deepcopy(root.items)
    # Base lines sit on integer endpoints, so this one meets none and
    # descends through every level of the root page.
    x = root.items[0][X] + Fraction(1, 2)
    with pytest.raises(SimulatedCrash):
        db.insert(Segment.from_coords(x, -30, x + Fraction(1, 4), -30,
                                      label="crash"))
    assert root.items != before  # the crash left weights raised
    db.recover()
    assert root.items == before
    assert db.fsck().ok


def test_children_are_slots_leaves_or_page_roots():
    """Every child reference names a slot of the same page, a leaf page,
    or a supernode page (whose root is slot 0)."""
    _dev, index = build(grid_segments_touching(2048, seed=8), 32)
    pager = index.pager
    for _depth, page, slot, record in index.walk():
        if slot is None:
            continue
        for ref in (record[LEFT], record[RIGHT]):
            if ref < 0:
                assert 0 < ~ref < len(page.items)
            else:
                assert pager.fetch(ref).get_header("kind") in ("leaf", "node")
