"""A uniform-grid spatial index — the practical-GIS comparator.

The calibration notes for this reproduction observe that in practice
"spatial indexes cover practical needs"; the simplest such index is a
uniform grid: the bounding box is cut into ``cells x cells`` buckets, each
holding (references to) every segment whose bounding box meets the cell.
A VS query visits the column of cells its x hits, restricted to its
y-window, and filters exactly.

Costs are data-dependent: great on uniformly spread short segments, bad on
skew and on long segments (which are replicated into many cells).
Benchmarks E10/E11 place it against the paper's structures.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from ..geometry import Segment, VerticalQuery, vs_intersects
from ..geometry.kernels import page_query_hits
from ..iosim import Pager, StorageError
from ..storage.chain import PageChain


class GridIndex:
    """Uniform bucket grid with per-cell page chains."""

    def __init__(self, pager: Pager, cells: int = 32):
        if cells < 1:
            raise ValueError("cells must be >= 1")
        self.pager = pager
        self.cells = cells
        self.bounds: Optional[Tuple] = None  # (xmin, ymin, xmax, ymax)
        self._chains: Dict[Tuple[int, int], PageChain] = {}
        self.size = 0
        self.replication = 0  # stored (cell, segment) pairs

    @classmethod
    def build(
        cls, pager: Pager, segments: Iterable[Segment], cells: Optional[int] = None
    ) -> "GridIndex":
        segments = list(segments)
        if cells is None:
            cells = max(1, math.isqrt(max(1, len(segments))) // 2)
        index = cls(pager, cells=cells)
        if not segments:
            return index
        index.bounds = (
            min(s.xmin for s in segments),
            min(s.ymin for s in segments),
            max(s.xmax for s in segments),
            max(s.ymax for s in segments),
        )
        buckets: Dict[Tuple[int, int], List[Segment]] = {}
        for s in segments:
            for cell in index._cells_of(s.xmin, s.ymin, s.xmax, s.ymax):
                buckets.setdefault(cell, []).append(s)
        for cell, bucket in buckets.items():
            index._chains[cell] = PageChain.create(pager, bucket)
            index.replication += len(bucket)
        index.size = len(segments)
        return index

    # ------------------------------------------------------------------
    # geometry -> cells
    # ------------------------------------------------------------------
    def _span(self) -> Tuple:
        xmin, ymin, xmax, ymax = self.bounds
        return (max(1, xmax - xmin), max(1, ymax - ymin))

    def _cell_index(self, value, lo, extent) -> int:
        idx = int((value - lo) * self.cells / extent)
        return min(max(idx, 0), self.cells - 1)

    def _cells_of(self, xlo, ylo, xhi, yhi):
        xmin, ymin, _xmax, _ymax = self.bounds
        w, h = self._span()
        cx0 = self._cell_index(xlo, xmin, w)
        cx1 = self._cell_index(xhi, xmin, w)
        cy0 = self._cell_index(ylo, ymin, h)
        cy1 = self._cell_index(yhi, ymin, h)
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                yield (cx, cy)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: VerticalQuery) -> List[Segment]:
        if self.bounds is None:
            return []
        xmin, ymin, xmax, ymax = self.bounds
        ylo = q.ylo if q.ylo is not None else ymin
        yhi = q.yhi if q.yhi is not None else ymax
        if q.x < xmin or q.x > xmax:
            return []
        out: Dict = {}
        with self.pager.operation():
            with self.pager.device.tagged("cells"):
                for cell in self._cells_of(q.x, min(ylo, ymax), q.x, max(yhi, ymin)):
                    chain = self._chains.get(cell)
                    if chain is None:
                        continue
                    for page in chain.iter_pages():
                        # Rows already output are never compared (the
                        # label dedup short-circuits before the geometry
                        # test); the kernel runs on the surviving rows.
                        rows = [s for s in page.items if s.label not in out]
                        if len({s.label for s in rows}) == len(rows):
                            for s in page_query_hits(rows, q):
                                out[s.label] = s
                            continue
                        # Duplicate labels: a hit must shadow later rows
                        # with the same label mid-page.
                        for s in rows:
                            if s.label not in out and vs_intersects(s, q):
                                out[s.label] = s
        return list(out.values())

    def query_batch(self, queries: Iterable[VerticalQuery]) -> List[List[Segment]]:
        """Sequential loop fallback (uniform batch API, no shared descent)."""
        return [self.query(q) for q in queries]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, segment: Segment) -> None:
        """Insert; a segment outside the current bounds triggers a rebuild
        (grids are rigid — that is part of why the paper's structures win
        on dynamic data)."""
        with self.pager.operation():
            if self.bounds is None or not self._inside_bounds(segment):
                everything = self.all_segments() + [segment]
                self.destroy()
                rebuilt = GridIndex.build(self.pager, everything, cells=self.cells)
                self.bounds = rebuilt.bounds
                self._chains = rebuilt._chains
                self.size = rebuilt.size
                self.replication = rebuilt.replication
                return
            for cell in self._cells_of(segment.xmin, segment.ymin,
                                       segment.xmax, segment.ymax):
                chain = self._chains.get(cell)
                if chain is None:
                    chain = PageChain.create(self.pager, [])
                    self._chains[cell] = chain
                chain.append(segment)
                self.replication += 1
            self.size += 1

    def delete(self, segment: Segment) -> bool:
        raise NotImplementedError("the grid baseline is insert-only here")

    def _inside_bounds(self, s: Segment) -> bool:
        xmin, ymin, xmax, ymax = self.bounds
        return xmin <= s.xmin and s.xmax <= xmax and ymin <= s.ymin and s.ymax <= ymax

    def all_segments(self) -> List[Segment]:
        seen: Dict = {}
        for chain in self._chains.values():
            for s in chain:
                seen[s.label] = s
        return list(seen.values())

    def destroy(self) -> None:
        for chain in self._chains.values():
            chain.destroy()
        self._chains = {}
        self.bounds = None
        self.size = 0
        self.replication = 0

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # verification & recovery support
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Bounds cover every segment; replication and size are consistent."""
        if self.bounds is None:
            assert self.size == 0 and not self._chains
            return
        stored = 0
        seen: Dict = {}
        for cell, chain in self._chains.items():
            assert 0 <= cell[0] < self.cells and 0 <= cell[1] < self.cells
            for s in chain:
                assert self._inside_bounds(s), f"{s!r} escapes grid bounds"
                assert cell in set(
                    self._cells_of(s.xmin, s.ymin, s.xmax, s.ymax)
                ), f"{s!r} stored in wrong cell {cell}"
                seen[s.label] = s
                stored += 1
        assert stored == self.replication, (
            f"replication stale: {stored} != {self.replication}"
        )
        assert len(seen) == self.size, f"size mismatch: {len(seen)} != {self.size}"

    def verify(self) -> List[str]:
        try:
            self.check_invariants()
        except AssertionError as exc:
            return [f"grid: invariant violated: {exc}"]
        except StorageError as exc:
            return [f"grid: {type(exc).__name__}: {exc}"]
        return []

    def snapshot_state(self) -> tuple:
        return (self.bounds, dict(self._chains), self.size, self.replication)

    def restore_state(self, state: tuple) -> None:
        self.bounds, chains, self.size, self.replication = state
        self._chains = dict(chains)

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        return {
            "cells": self.cells,
            "bounds": self.bounds,
            "size": self.size,
            "replication": self.replication,
            "chains": {cell: chain.head_pid for cell, chain in self._chains.items()},
        }

    @classmethod
    def attach(cls, pager: Pager, meta: dict) -> "GridIndex":
        index = cls(pager, cells=meta["cells"])
        index.bounds = meta["bounds"]
        index.size = meta["size"]
        index.replication = meta["replication"]
        index._chains = {
            cell: PageChain(pager, head_pid)
            for cell, head_pid in meta["chains"].items()
        }
        return index

    @property
    def replication_factor(self) -> float:
        """Average number of cells each segment is stored in."""
        return self.replication / self.size if self.size else 0.0
