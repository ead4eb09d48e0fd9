"""The simulated block device.

:class:`BlockDevice` is the single point where I/O cost accrues.  Every data
structure in this library stores its nodes in pages allocated from one
device and pays one *read* per block fetched and one *write* per block
flushed — the quantity the paper's complexity bounds count.

The device also tracks the number of live pages, which is the library's
measure of *space* (the paper's ``O(n)`` / ``O(n log2 B)`` storage bounds are
in blocks).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..telemetry import trace as _trace
from .errors import DanglingPageError, DoubleFreeError
from .page import Page
from .stats import IOStats


class _TagScope:
    """``with device.tagged(tag):`` — attribution scope as a slotted
    class (the generator-based form taxed every node visit on the hot
    query paths).  Opens a telemetry span of the same name when a trace
    is active, exactly like the old ``@contextmanager`` body."""

    __slots__ = ("_device", "_tag", "_span_cm")

    def __init__(self, device: "BlockDevice", tag: str):
        self._device = device
        self._tag = tag
        self._span_cm = None

    def __enter__(self) -> None:
        self._device._tags.append(self._tag)
        ctx = _trace._ACTIVE
        if ctx is not None:
            span_cm = ctx.span(self._tag)
            try:
                span_cm.__enter__()
            except BaseException:
                self._device._tags.pop()
                raise
            self._span_cm = span_cm

    def __exit__(self, exc_type, exc, tb) -> bool:
        span_cm = self._span_cm
        if span_cm is not None:
            self._span_cm = None
            try:
                span_cm.__exit__(exc_type, exc, tb)
            finally:
                self._device._tags.pop()
        else:
            self._device._tags.pop()
        return False


class BlockDevice:
    """An in-memory store of fixed-capacity pages with I/O counters.

    Parameters
    ----------
    block_capacity:
        The paper's ``B``: the number of data items one block holds.

    Beside the global counters, I/Os can be *attributed*: inside a
    ``with device.tagged("G"):`` scope every read/write also increments the
    named bucket (innermost tag wins), so a query's cost can be decomposed
    into the structures that incurred it (see benchmark E14).
    """

    def __init__(self, block_capacity: int):
        if block_capacity < 2:
            raise ValueError(f"block capacity must be >= 2, got {block_capacity}")
        self.block_capacity = block_capacity
        self._pages: Dict[int, Page] = {}
        self._next_id = 0
        self.reads = 0
        self.writes = 0
        self.allocs = 0
        self.frees = 0
        self._tags: List[str] = []
        self.tag_reads: Dict[str, int] = {}
        self.tag_writes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # attribution
    # ------------------------------------------------------------------
    def tagged(self, tag: str) -> _TagScope:
        """Attribute I/O inside the scope to ``tag`` (innermost tag wins).

        When a telemetry trace is active the scope also opens a span of
        the same name, so every tagged call-site doubles as a trace
        phase without further instrumentation.
        """
        return _TagScope(self, tag)

    def _charge_tag(self, bucket: Dict[str, int]) -> None:
        if self._tags:
            tag = self._tags[-1]
            bucket[tag] = bucket.get(tag, 0) + 1

    def tag_snapshot(self) -> Dict[str, int]:
        """Total attributed I/O per tag (reads + writes)."""
        out = dict(self.tag_reads)
        for tag, count in self.tag_writes.items():
            out[tag] = out.get(tag, 0) + count
        return out

    def reset_tags(self) -> None:
        self.tag_reads = {}
        self.tag_writes = {}

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self) -> Page:
        """Allocate a fresh, empty page.

        Allocation itself is free in the paper's model (the page must still
        be *written* before it holds data); we count allocations separately
        so space accounting and leak tests can use them.
        """
        page = Page(self._next_id, self.block_capacity)
        self._pages[self._next_id] = page
        self._next_id += 1
        self.allocs += 1
        return page

    def free(self, page_id: int) -> None:
        """Release a page.  Reading it afterwards raises."""
        if page_id not in self._pages:
            raise DoubleFreeError(page_id)
        del self._pages[page_id]
        self.frees += 1

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> Page:
        """Fetch one block from disk: costs one read I/O."""
        try:
            page = self._pages[page_id]
        except KeyError:
            raise DanglingPageError(page_id) from None
        self.reads += 1
        self._charge_tag(self.tag_reads)
        ctx = _trace._ACTIVE
        if ctx is not None:
            ctx.record_read()
        return page

    def write(self, page: Page) -> None:
        """Flush one block to disk: costs one write I/O."""
        if page.page_id not in self._pages:
            raise DanglingPageError(page.page_id)
        page.validate()
        self.writes += 1
        self._charge_tag(self.tag_writes)
        ctx = _trace._ACTIVE
        if ctx is not None:
            ctx.record_write()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def pages_in_use(self) -> int:
        """Number of live blocks — the library's measure of space."""
        return len(self._pages)

    def snapshot(self) -> IOStats:
        return IOStats(
            reads=self.reads, writes=self.writes, allocs=self.allocs, frees=self.frees
        )

    def reset_counters(self) -> None:
        """Zero the I/O counters (space accounting is unaffected).

        Per-tag attribution buckets are part of the I/O counters and are
        cleared too — otherwise attribution from one benchmark phase
        leaks into the next.  Use :meth:`reset_tags` to clear only the
        buckets.
        """
        self.reads = 0
        self.writes = 0
        self.allocs = 0
        self.frees = 0
        self.reset_tags()

    def iter_pages(self) -> Iterator[Page]:
        """Iterate live pages without charging I/O (for tests/diagnostics)."""
        return iter(self._pages.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockDevice(B={self.block_capacity}, pages={self.pages_in_use}, "
            f"reads={self.reads}, writes={self.writes})"
        )
