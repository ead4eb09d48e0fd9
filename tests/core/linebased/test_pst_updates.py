"""Insertions and deletions on the external PST (Lemma 3 updates)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linebased import ExternalPST
from repro.geometry import HQuery, LineBasedSegment, lb_intersects
from repro.iosim import BlockDevice, Measurement, Pager
from repro.workloads import fan, hqueries, shared_base_fans


def build(segments, capacity=4, fanout=2):
    dev = BlockDevice(block_capacity=capacity)
    pager = Pager(dev)
    tree = ExternalPST.build(pager, segments, fanout=fanout)
    return dev, pager, tree


def oracle(segments, q):
    return sorted(s.label for s in segments if lb_intersects(s, q))


class TestInsert:
    def test_insert_into_empty(self):
        _d, _p, tree = build([])
        s = LineBasedSegment(0, 1, 5, label="x")
        tree.insert(s)
        assert [x.label for x in tree.query(HQuery.line(3))] == ["x"]
        tree.check_invariants()

    def test_insert_taller_than_root(self):
        segments = fan(50, max_height=100, seed=1)
        _d, _p, tree = build(segments)
        sky = LineBasedSegment(10**6, 10**6, 10**9, label="sky")
        tree.insert(sky)
        root = tree.read_root()
        assert any(s.label == "sky" for s in root.items)
        tree.check_invariants()

    def test_insert_batch_matches_oracle(self):
        base = fan(100, seed=2)
        _d, _p, tree = build(base, capacity=4)
        extra = [
            LineBasedSegment(2001 + 20 * i, 2001 + 20 * i + 5, 37 + i, label=("x", i))
            for i in range(60)
        ]
        for s in extra:
            tree.insert(s)
        everything = base + extra
        tree.check_invariants()
        for q in hqueries(everything, 15, selectivity=0.1, seed=3):
            assert sorted(s.label for s in tree.query(q)) == oracle(everything, q)

    def test_insert_io_logarithmic(self):
        capacity = 16
        segments = fan(8192, seed=4)
        dev, pager, tree = build(segments, capacity=capacity)
        worst = 0
        for i in range(32):
            s = LineBasedSegment(200000 + 3 * i, 200000 + 3 * i + 1, 17 + i,
                                 label=("ins", i))
            with pager.operation():
                with Measurement(dev) as m:
                    tree.insert(s)
            worst = max(worst, m.stats.total)
        # height ~ log2(8192/16) = 9; a sift touches O(height) nodes.
        assert worst <= 6 * 9 + 10, worst

    def test_rejects_on_line_insert(self):
        _d, _p, tree = build([])
        try:
            tree.insert(LineBasedSegment(0, 4, 0))
            assert False
        except ValueError:
            pass

    def test_amortised_rebuild_restores_balance(self):
        segments = fan(256, seed=5)
        _d, _p, tree = build(segments, capacity=4)
        for i in range(300):  # exceeds the size/2 rebuild threshold
            tree.insert(
                LineBasedSegment(10**5 + 3 * i, 10**5 + 3 * i + 1, 11, label=("r", i))
            )
        tree.check_invariants()
        assert len(tree) == 556


class TestDelete:
    def test_delete_missing(self):
        segments = fan(20, seed=6)
        _d, _p, tree = build(segments)
        assert not tree.delete(LineBasedSegment(1, 2, 3, label="ghost"))

    def test_delete_from_root(self):
        segments = fan(50, seed=7)
        _d, _p, tree = build(segments, capacity=4)
        root = tree.read_root()
        victim = root.items[0]
        assert tree.delete(victim)
        assert victim.label not in {s.label for s in tree.all_segments()}
        tree.check_invariants()

    def test_delete_everything(self):
        segments = fan(80, seed=8)
        _d, _p, tree = build(segments, capacity=4)
        for s in list(segments):
            assert tree.delete(s), s
        assert len(tree) == 0
        assert tree.query(HQuery.line(0)) == []

    def test_delete_releases_pages(self):
        segments = fan(120, seed=9)
        dev, _p, tree = build(segments, capacity=4)
        for s in list(segments):
            tree.delete(s)
        assert dev.pages_in_use <= 1

    def test_delete_then_query_matches_oracle(self):
        segments = fan(150, seed=10)
        _d, _p, tree = build(segments, capacity=8)
        rng = random.Random(11)
        removed = set()
        victims = rng.sample(segments, 60)
        for s in victims:
            assert tree.delete(s)
            removed.add(s.label)
        remaining = [s for s in segments if s.label not in removed]
        tree.check_invariants()
        for q in hqueries(segments, 15, selectivity=0.1, seed=12):
            assert sorted(s.label for s in tree.query(q)) == oracle(remaining, q)


@given(
    st.integers(0, 10**6),
    st.lists(st.tuples(st.integers(0, 79), st.booleans()), max_size=60),
)
@settings(max_examples=100, deadline=None)
def test_mixed_updates_match_model(seed, ops):
    """Random insert/delete interleavings keep queries oracle-correct."""
    pool = fan(80, max_height=60, seed=seed)
    _d, _p, tree = build([], capacity=4)
    live = {}
    for idx, is_insert in ops:
        s = pool[idx]
        if is_insert and s.label not in live:
            tree.insert(s)
            live[s.label] = s
        elif not is_insert and s.label in live:
            assert tree.delete(s)
            del live[s.label]
    tree.check_invariants()
    q = HQuery.line(30)
    assert sorted(s.label for s in tree.query(q)) == oracle(list(live.values()), q)


def _node_keys_in_order(tree):
    """Every node's items are in base order (equal keys side by side)."""
    stack = [tree.root_pid] if tree.root_pid is not None else []
    while stack:
        node = tree.read(stack.pop())
        keys = [s.base_order_key() for s in node.items]
        assert keys == sorted(keys)
        stack.extend(c.pid for c in node.children)


def _with_equal_keys(seed):
    """A non-crossing set where base keys repeat: clusters sharing a base
    point, and duplicate geometry under distinct labels."""
    segments = shared_base_fans(12, per_cluster=4, max_height=60, seed=seed)
    dups = [LineBasedSegment(s.u0, s.u1, s.h1, label=("dup", i, k))
            for i, s in enumerate(segments[::5]) for k in range(3)]
    return segments + dups


class TestEqualBaseKeys:
    def test_delete_removes_the_right_duplicate(self):
        twins = [LineBasedSegment(50, 52, 9, label=("twin", k))
                 for k in range(6)]
        segments = fan(30, max_height=20, seed=13) + twins
        _d, _p, tree = build(segments, capacity=4)
        for k in (3, 0, 5):
            assert tree.delete(twins[k])
            tree.check_invariants()
        left = {s.label for s in tree.all_segments()}
        assert left & {t.label for t in twins} == {
            ("twin", 1), ("twin", 2), ("twin", 4)}
        assert len(left) == len(segments) - 3
        assert not tree.delete(twins[3])

    def test_inserts_keep_base_order(self):
        segments = _with_equal_keys(seed=14)
        _d, _p, tree = build([], capacity=4)
        for s in random.Random(15).sample(segments, len(segments)):
            tree.insert(s)
            _node_keys_in_order(tree)
        tree.check_invariants()
        for q in hqueries(segments, 12, selectivity=0.1, seed=16):
            assert sorted(map(str, (s.label for s in tree.query(q)))) == \
                sorted(map(str, oracle(segments, q)))

    def test_churn_stream_keeps_invariants(self):
        pool = _with_equal_keys(seed=17)
        rng = random.Random(18)
        live = rng.sample(pool, len(pool) // 2)
        _d, _p, tree = build(live, capacity=8)
        live = {s.label: s for s in live}
        for step in range(400):
            s = rng.choice(pool)
            if s.label in live:
                assert tree.delete(s)
                del live[s.label]
            else:
                tree.insert(s)
                live[s.label] = s
            if step % 20 == 0:
                tree.check_invariants()
        tree.check_invariants()
        remaining = list(live.values())
        for q in hqueries(pool, 12, selectivity=0.1, seed=19):
            assert sorted(map(str, (s.label for s in tree.query(q)))) == \
                sorted(map(str, oracle(remaining, q)))
