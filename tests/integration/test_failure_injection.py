"""Failure injection: the simulator must catch cheating and corruption.

The I/O model is only as honest as its enforcement — these tests corrupt
state on purpose and check the storage layer refuses to play along.
"""

import pytest

from repro import SegmentDatabase, Segment, VerticalQuery
from repro.geometry import CrossingError, validate_nct
from repro.iosim import (
    BlockDevice,
    DanglingPageError,
    DoubleFreeError,
    PageOverflowError,
    Pager,
)
from repro.storage.bplus import BPlusTree
from repro.storage.chain import PageChain
from repro.workloads import grid_segments


class TestStorageEnforcement:
    def test_node_cannot_exceed_block_capacity(self):
        dev = BlockDevice(block_capacity=4)
        page = dev.alloc()
        with pytest.raises(PageOverflowError):
            page.put_items(range(5))

    def test_sneaky_mutation_caught_at_write(self):
        dev = BlockDevice(block_capacity=4)
        page = dev.alloc()
        page.put_items([1, 2, 3, 4])
        page.items.append(5)  # bypassing the API
        with pytest.raises(PageOverflowError):
            dev.write(page)

    def test_header_cannot_hold_bulk_data(self):
        from repro.iosim import HEADER_SLOTS

        dev = BlockDevice(block_capacity=4)
        page = dev.alloc()
        with pytest.raises(PageOverflowError):
            for i in range(HEADER_SLOTS + 1):
                page.set_header(f"smuggle{i}", i)

    def test_use_after_free_detected(self):
        dev = BlockDevice(block_capacity=8)
        pager = Pager(dev)
        chain = PageChain.create(pager, [1, 2, 3])
        chain.destroy()
        with pytest.raises(DanglingPageError):
            list(chain)

    def test_double_destroy_detected(self):
        dev = BlockDevice(block_capacity=8)
        pager = Pager(dev)
        tree = BPlusTree.build(pager, [(i, i) for i in range(20)])
        tree.destroy()
        with pytest.raises((DanglingPageError, DoubleFreeError)):
            tree.destroy()

    def test_stale_root_after_destroy(self):
        dev = BlockDevice(block_capacity=8)
        pager = Pager(dev)
        tree = BPlusTree.build(pager, [(i, i) for i in range(50)])
        tree.destroy()
        with pytest.raises(DanglingPageError):
            tree.search(10)


class TestInvariantEnforcement:
    def test_crossing_bulk_load_rejected(self):
        crossing = [
            Segment.from_coords(0, 0, 10, 10, label="a"),
            Segment.from_coords(0, 10, 10, 0, label="b"),
        ]
        with pytest.raises(CrossingError):
            SegmentDatabase.bulk_load(crossing, validate=True)

    def test_collinear_overlap_rejected(self):
        overlapping = [
            Segment.from_coords(0, 0, 10, 0, label="a"),
            Segment.from_coords(5, 0, 15, 0, label="b"),
        ]
        with pytest.raises(CrossingError):
            validate_nct(overlapping)

    def test_validated_insert_rejects_t_cross(self):
        db = SegmentDatabase.bulk_load(
            [Segment.from_coords(0, 0, 10, 0, label="spine")],
            engine="solution1",
            validate=True,
        )
        with pytest.raises(ValueError):
            db.insert(Segment.from_coords(5, -1, 5, 1, label="crosses"))
        # A T-touch is legal:
        db.insert(Segment.from_coords(5, 0, 5, 1, label="touches"))
        assert len(db) == 2

    def test_pst_invariant_checker_catches_corruption(self):
        from repro.core.linebased import ExternalPST
        from repro.workloads import fan

        dev = BlockDevice(block_capacity=4)
        pager = Pager(dev)
        tree = ExternalPST.build(pager, fan(60, seed=1))
        # Corrupt a routing count behind the structure's back.
        root = tree.read_root()
        root.children[0].count += 5
        from repro.core.linebased.node import write_node

        write_node(pager, root.items, root.children, root.low,
                   items_page=pager.fetch(root.pid))
        with pytest.raises(AssertionError):
            tree.check_invariants()

    def test_solution1_weight_checker_catches_corruption(self):
        from repro.core.solution1 import TwoLevelBinaryIndex
        from repro.core.solution1.index import WEIGHT

        dev = BlockDevice(block_capacity=8)
        pager = Pager(dev)
        index = TwoLevelBinaryIndex.build(pager, grid_segments(100, seed=2))
        root = pager.fetch(index.root_pid)
        TwoLevelBinaryIndex._set(root, 0, WEIGHT, root.items[0][WEIGHT] + 1)
        pager.write(root)
        with pytest.raises(AssertionError):
            index.check_invariants()


class TestQueryInputValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            VerticalQuery.segment(0, 5, 4)

    def test_float_coordinates_rejected_everywhere(self):
        with pytest.raises(TypeError):
            Segment.from_coords(0.5, 0, 1, 1)
        with pytest.raises(TypeError):
            VerticalQuery.line(0.5)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            Segment.from_coords(3, 3, 3, 3)
