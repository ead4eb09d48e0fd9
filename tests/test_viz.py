"""Tests for the ASCII visualisation module."""

from repro import Segment, VerticalQuery
from repro.core.linebased import ExternalPST
from repro.core.solution1 import TwoLevelBinaryIndex
from repro.core.solution2 import TwoLevelIntervalIndex
from repro.iosim import BlockDevice, Measurement, Pager
from repro.viz import (
    Canvas,
    draw_linebased,
    draw_scene,
    dump_gtree,
    dump_pst,
    dump_two_level,
)
from repro.workloads import fan, grid_segments


class TestCanvas:
    def test_dimensions(self):
        canvas = Canvas(0, 0, 10, 10, width=20, height=5)
        art = canvas.render()
        lines = art.splitlines()
        assert len(lines) == 7  # 5 rows + 2 borders
        assert all(len(line) == 22 for line in lines)

    def test_plot_corners(self):
        canvas = Canvas(0, 0, 10, 10, width=10, height=5)
        canvas.plot(0, 0, "a")   # bottom-left
        canvas.plot(10, 10, "b")  # top-right
        assert canvas.cells[4][0] == "a"
        assert canvas.cells[0][9] == "b"

    def test_out_of_range_clamped(self):
        canvas = Canvas(0, 0, 10, 10, width=10, height=5)
        canvas.plot(-100, 500, "x")  # must not raise
        assert any("x" in "".join(row) for row in canvas.cells)

    def test_vertical_segment_column(self):
        canvas = Canvas(0, 0, 10, 10, width=11, height=11)
        canvas.draw_segment(Segment.from_coords(5, 2, 5, 8))
        col = canvas._col(5)
        stars = sum(1 for row in canvas.cells if row[col] == "*")
        assert stars >= 5

    def test_degenerate_extent_handled(self):
        canvas = Canvas(5, 5, 5, 5)  # zero-size box
        canvas.plot(5, 5, "x")
        assert "x" in canvas.render()


class TestScenes:
    def test_draw_scene_contains_marks_and_query(self):
        segments = [
            Segment.from_coords(0, 0, 10, 5, label="a"),
            Segment.from_coords(2, 8, 9, 9, label="b"),
        ]
        art = draw_scene(segments, [VerticalQuery.segment(5, 0, 9)], mark=["a"])
        assert "o" in art  # marked hit
        assert "*" in art  # unmarked segment
        assert "+" in art  # query endpoints

    def test_draw_linebased_has_base_line(self):
        art = draw_linebased(fan(10, seed=1))
        assert "=" in art


class TestStructureDumps:
    def test_dump_pst(self):
        dev = BlockDevice(block_capacity=2)
        tree = ExternalPST.build(Pager(dev), fan(12, seed=2))
        text = dump_pst(tree)
        assert "node[" in text
        assert "low=" in text
        assert "top=" in text

    def test_dump_empty_pst(self):
        dev = BlockDevice(block_capacity=2)
        tree = ExternalPST.build(Pager(dev), [])
        assert dump_pst(tree) == "(empty PST)"

    def test_dump_solution1(self):
        dev = BlockDevice(block_capacity=4)
        pager = Pager(dev)
        index = TwoLevelBinaryIndex.build(pager, grid_segments(40, seed=3))
        text = dump_two_level(index, pager)
        assert "line x=" in text
        assert "leaf[" in text

    def test_dump_solution1_depth_limited(self):
        dev = BlockDevice(block_capacity=8)
        index = TwoLevelBinaryIndex.build(Pager(dev), grid_segments(200, seed=3))
        pager = Pager(dev)
        with Measurement(dev) as m:
            shallow = dump_two_level(index, pager, max_depth=0)
        assert len(shallow.splitlines()) == 1
        assert m.stats.reads == 1  # the root page only
        assert len(dump_two_level(index, pager).splitlines()) > 1

    def test_dump_solution2(self):
        dev = BlockDevice(block_capacity=16)
        pager = Pager(dev)
        index = TwoLevelIntervalIndex.build(pager, grid_segments(200, seed=4))
        text = dump_two_level(index, pager)
        assert "boundaries=" in text

    def test_dump_solution2_depth_limited(self):
        dev = BlockDevice(block_capacity=16)
        pager = Pager(dev)
        index = TwoLevelIntervalIndex.build(pager, grid_segments(400, seed=5))
        shallow = dump_two_level(index, pager, max_depth=0)
        deep = dump_two_level(index, pager)
        assert len(shallow.splitlines()) < len(deep.splitlines())

    def test_dump_gtree(self):
        import random

        from repro.core.solution2.gtree import GTree
        from repro.core.solution2.slabs import LongFragment

        rng = random.Random(6)
        boundaries = [0, 10, 20, 30, 40]
        frags = []
        for i in range(10):
            a = rng.randint(1, 4)
            c = rng.randint(a + 1, 5)
            frags.append(
                (a, c,
                 LongFragment(boundaries[a - 1], boundaries[c - 1], i, i,
                              Segment.from_coords(-10, i, 100, i, label=i)))
            )
        dev = BlockDevice(block_capacity=8)
        g = GTree.build(Pager(dev), boundaries, frags)
        text = dump_gtree(g)
        assert "G[1:4]" in text
        assert "fragments=" in text
