"""ASCII visualisation of segment sets, queries and index structures.

Terminal-grade reproductions of the paper's illustrative figures: render a
segment set with a query overlaid (Figures 1–2), dump the external PST's
decomposition (Figure 3), a two-level structure's node tree (Figures 4–5),
or a ``G`` segment tree with its multislab lists (Figure 7).

Everything returns plain strings; nothing here touches the I/O counters
(structure dumps read pages through the pager like any client would).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from .geometry import LineBasedSegment, Segment, VerticalQuery


class Canvas:
    """A character grid mapping exact coordinates to terminal cells."""

    def __init__(self, xmin, ymin, xmax, ymax, width: int = 72, height: int = 24):
        self.xmin, self.ymin = Fraction(xmin), Fraction(ymin)
        self.xmax = Fraction(xmax) if xmax > xmin else Fraction(xmin) + 1
        self.ymax = Fraction(ymax) if ymax > ymin else Fraction(ymin) + 1
        self.width = width
        self.height = height
        self.cells: List[List[str]] = [[" "] * width for _ in range(height)]

    def _col(self, x) -> int:
        frac = (Fraction(x) - self.xmin) / (self.xmax - self.xmin)
        return min(self.width - 1, max(0, int(frac * (self.width - 1))))

    def _row(self, y) -> int:
        frac = (Fraction(y) - self.ymin) / (self.ymax - self.ymin)
        # Row 0 is the top of the drawing.
        return min(self.height - 1, max(0, self.height - 1 - int(frac * (self.height - 1))))

    def plot(self, x, y, ch: str) -> None:
        self.cells[self._row(y)][self._col(x)] = ch

    def draw_segment(self, s: Segment, ch: str = "*") -> None:
        """Rasterise by sampling the segment at column resolution."""
        c1, c2 = self._col(s.start.x), self._col(s.end.x)
        if s.is_vertical or c1 == c2:
            r1, r2 = sorted((self._row(s.ymin), self._row(s.ymax)))
            for r in range(r1, r2 + 1):
                self.cells[r][c1] = ch
            return
        steps = max(2, 2 * abs(c2 - c1))
        for i in range(steps + 1):
            x = s.start.x + Fraction(i, steps) * (s.end.x - s.start.x)
            y = s.y_at(x)
            self.plot(x, y, ch)

    def draw_query(self, q: VerticalQuery, ch: str = "|") -> None:
        ylo = q.ylo if q.ylo is not None else self.ymin
        yhi = q.yhi if q.yhi is not None else self.ymax
        col = self._col(q.x)
        r1, r2 = sorted((self._row(ylo), self._row(yhi)))
        for r in range(r1, r2 + 1):
            if self.cells[r][col] == " ":
                self.cells[r][col] = ch
        if q.ylo is not None:
            self.cells[self._row(q.ylo)][col] = "+"
        if q.yhi is not None:
            self.cells[self._row(q.yhi)][col] = "+"

    def render(self) -> str:
        border = "+" + "-" * self.width + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in self.cells)
        return f"{border}\n{body}\n{border}"


def draw_scene(
    segments: Sequence[Segment],
    queries: Iterable[VerticalQuery] = (),
    width: int = 72,
    height: int = 24,
    mark=None,
) -> str:
    """Render segments (``*``; hits of ``mark`` as ``o``) with queries."""
    xmin = min(s.xmin for s in segments)
    xmax = max(s.xmax for s in segments)
    ymin = min(s.ymin for s in segments)
    ymax = max(s.ymax for s in segments)
    canvas = Canvas(xmin, ymin, xmax, ymax, width=width, height=height)
    marked = set(mark or ())
    for s in segments:
        canvas.draw_segment(s, "o" if s.label in marked else "*")
    for q in queries:
        canvas.draw_query(q)
    return canvas.render()


def draw_linebased(
    segments: Sequence[LineBasedSegment], width: int = 72, height: int = 18
) -> str:
    """Render a line-based set in its (u, h) frame; the base line is ``=``."""
    us = [s.u0 for s in segments] + [s.u1 for s in segments]
    hs = [s.h1 for s in segments]
    canvas = Canvas(min(us), 0, max(us), max(hs) if hs else 1,
                    width=width, height=height)
    for s in segments:
        plane = Segment.from_coords(s.u0, 0, s.u1, s.h1, label=s.label) \
            if (s.u0, 0) != (s.u1, s.h1) else None
        if plane is not None:
            canvas.draw_segment(plane)
    for col in range(canvas.width):
        if canvas.cells[canvas.height - 1][col] == " ":
            canvas.cells[canvas.height - 1][col] = "="
    return canvas.render()


def dump_pst(tree, max_items: int = 4) -> str:
    """Text dump of an external PST's decomposition (Figure 3)."""
    if tree.root_pid is None:
        return "(empty PST)"
    lines: List[str] = []

    def walk(pid: int, depth: int) -> None:
        node = tree.read(pid)
        labels = [str(s.label) for s in node.items[:max_items]]
        extra = f" +{len(node.items) - max_items} more" if len(node.items) > max_items else ""
        lines.append(
            "  " * depth
            + f"node[{pid}] low={node.low} items=[{', '.join(labels)}{extra}]"
        )
        for child in node.children:
            lines.append(
                "  " * (depth + 1)
                + f"(top={child.top.label} h={child.top.h1} count={child.count})"
            )
            walk(child.pid, depth + 1)

    walk(tree.root_pid, 0)
    return "\n".join(lines)


def dump_two_level(index, pager=None, max_depth: Optional[int] = None) -> str:
    """Text dump of a two-level structure's first level (Figures 4–5)."""
    from .core.solution1 import TwoLevelBinaryIndex
    from .core.solution1.index import HERE, WEIGHT, X

    pager = pager or index.pager
    if index.root_pid is None:
        return "(empty index)"
    lines: List[str] = []
    if isinstance(index, TwoLevelBinaryIndex):
        view = TwoLevelBinaryIndex.attach(pager, index.snapshot_meta())
        for depth, page, slot, record in view.walk(max_depth=max_depth):
            if slot is None:
                lines.append("  " * depth
                             + f"leaf[{page.page_id}] {len(page.items)} segments")
            else:
                lines.append(
                    "  " * depth
                    + f"node[{page.page_id}:{slot}] line x={record[X]} "
                    + f"here={record[HERE]} weight={record[WEIGHT]}"
                )
        return "\n".join(lines)

    def walk(pid: int, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        page = pager.fetch(pid)
        if page.get_header("kind") == "leaf":
            from .storage.chain import PageChain

            try:
                count = PageChain(pager, pid).count()
            except Exception:
                count = len(page.items)
            lines.append("  " * depth + f"leaf[{pid}] {count} segments")
            return
        view = index._read_view(pid)
        lines.append(
            "  " * depth
            + f"node[{pid}] boundaries={view.boundaries} "
            + f"weight={page.get_header('weight')}"
            + (" G=yes" if view.g_pid is not None else " G=no")
        )
        for child in view.children:
            walk(child, depth + 1)

    walk(index.root_pid, 0)
    return "\n".join(lines)


def dump_gtree(g) -> str:
    """Text dump of a G segment tree with its multislab lists (Figure 7)."""
    lines: List[str] = []
    nodes = g._read_nodes()
    if not nodes:
        return "(empty G)"

    def walk(idx: int, depth: int) -> None:
        node = nodes[idx]
        span = f"[{node.lo}:{node.hi}]"
        lines.append(
            "  " * depth
            + f"G{span} x-range [{g.boundaries[node.lo - 1]}, "
            + f"{g.boundaries[node.hi]}] fragments={node.count}"
        )
        if not node.is_leaf:
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(0, 0)
    return "\n".join(lines)
