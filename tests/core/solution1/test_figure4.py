"""Reproduction of the paper's Figure 4: a 7-segment NCT set and its 2LDS.

The figure shows seven NCT segments decomposed by the first-level binary
tree (B = 2): segments intersected by the root's median line live in the
root's C/L/R structures, the rest recurse.  The exact geometry of the
figure is not recoverable from the text, so we use a representative
7-segment instance and assert the structural facts the figure illustrates.
"""

from repro.core.solution1 import TwoLevelBinaryIndex
from repro.core.solution1.index import X
from repro.geometry import Segment, VerticalQuery, vs_intersects
from repro.iosim import BlockDevice, Pager

# Seven NCT segments: three crossing the median region, two on the left,
# two on the right; one vertical segment sits exactly on a splitting line.
SEGMENTS = [
    Segment.from_coords(0, 8, 3, 9, label=1),       # far left
    Segment.from_coords(1, 2, 2, 4, label=2),       # far left
    Segment.from_coords(4, 5, 9, 6, label=3),       # crosses the middle
    Segment.from_coords(5, 1, 8, 3, label=4),       # crosses the middle
    Segment.from_coords(6, 7, 6, 10, label=5),      # vertical
    Segment.from_coords(10, 2, 12, 8, label=6),     # far right
    Segment.from_coords(11, 9, 12, 10, label=7),    # far right
]


def build():
    dev = BlockDevice(block_capacity=2)
    pager = Pager(dev)
    index = TwoLevelBinaryIndex.build(pager, SEGMENTS, blocked=False)
    return dev, pager, index


def test_first_level_is_a_binary_tree_with_leaf_blocks():
    _dev, _pager, index = build()
    kinds = {"node": 0, "leaf": 0}
    for _depth, page, slot, _record in index.walk():
        if slot is None:
            kinds["leaf"] += 1
            assert len(page.items) <= 2  # leaves hold at most B segments
        else:
            kinds["node"] += 1
    assert kinds["node"] >= 1
    assert kinds["leaf"] >= 2


def test_root_stores_segments_meeting_its_line():
    _dev, _pager, index = build()
    _depth, _page, slot, root = next(index.walk())
    assert slot is not None  # the root is a node
    c = root[X]
    stored_here = set()
    for _lo, _hi, s in index._c_index(root).items():
        stored_here.add(s.label)
        assert s.is_vertical and s.start.x == c
    for side in ("l", "r"):
        for lb in index._lr_index(root, side).all_segments():
            stored_here.add(lb.payload.label)
            assert lb.payload.spans_x(c)
    # Every stored-at-root segment meets the line; nothing else does.
    for s in SEGMENTS:
        assert (s.label in stored_here) == s.spans_x(c)


def test_children_partition_by_side():
    _dev, _pager, index = build()
    c = next(index.walk())[3][X]
    index.check_invariants()  # bands are checked recursively there
    for s in SEGMENTS:
        if s.xmax < c:
            side = "left"
        elif s.xmin > c:
            side = "right"
        else:
            continue
        found = _subtree_labels(index, side)
        assert s.label in found


def _subtree_labels(index, side):
    """Labels stored in the root's ``side`` subtree: in pre-order, the
    left subtree runs from the first depth-1 node to the second."""
    nodes = list(index.walk())[1:]
    starts = [i for i, (depth, *_rest) in enumerate(nodes) if depth == 1]
    nodes = nodes[:starts[1]] if side == "left" else nodes[starts[1]:]
    labels = set()
    for _depth, page, slot, record in nodes:
        if slot is None:
            labels.update(s.label for s in page.items)
            continue
        for _lo, _hi, s in index._c_index(record).items():
            labels.add(s.label)
        for lr in ("l", "r"):
            for lb in index._lr_index(record, lr).all_segments():
                labels.add(lb.payload.label)
    return labels


def test_figure4_queries_are_correct():
    _dev, _pager, index = build()
    for x in range(-1, 14):
        for ylo, yhi in [(0, 11), (2, 5), (7, 10), (5, 5)]:
            q = VerticalQuery.segment(x, ylo, yhi)
            expected = sorted(s.label for s in SEGMENTS if vs_intersects(s, q))
            assert sorted(s.label for s in index.query(q)) == expected, q
