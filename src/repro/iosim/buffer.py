"""An optional LRU buffer pool with page pinning.

The paper's bounds assume no cache: every block touch is an I/O.  Real
systems keep an ``M``-page buffer pool, which mostly hides the top levels of
any tree.  :class:`LRUBufferPool` lets benchmarks quantify that effect (it is
*off* by default everywhere; engines take a :class:`Pager` and are agnostic
to whether a pool sits underneath).

Pinning.  Batched query execution (``query_batch``) holds the shared
root-side descent pages *pinned* while a batch drains, so the per-query
second-level searches — which can easily thrash an LRU of realistic size —
never evict the prefix every query in the batch is about to re-touch.
``pin``/``unpin`` are reference-counted; pinned pages are exempt from
eviction (the pool temporarily overflows its capacity rather than drop a
pinned page, mirroring how a real buffer manager treats fixed buffers).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from ..telemetry import trace as _trace
from .disk import BlockDevice
from .errors import PinnedPageError
from .page import Page


class LRUBufferPool:
    """A read cache of ``capacity`` pages over a :class:`BlockDevice`.

    The pool exposes the same ``read``/``write``/``alloc``/``free``/
    ``snapshot`` surface as :class:`BlockDevice`, so a :class:`Pager` can be
    constructed directly on top of it.

    Writes are write-through: the device is charged for every write (the
    paper's structures write only during construction and updates, and those
    bounds are about writes actually reaching disk).
    """

    def __init__(self, device: BlockDevice, capacity: int):
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self.device = device
        self.capacity = capacity
        self._lru: "OrderedDict[int, Page]" = OrderedDict()
        self._pins: Dict[int, int] = {}  # page_id -> reference count
        self.hits = 0
        self.misses = 0

    @property
    def block_capacity(self) -> int:
        return self.device.block_capacity

    def tagged(self, tag: str):
        return self.device.tagged(tag)

    def read(self, page_id: int) -> Page:
        cached = self._lru.get(page_id)
        if cached is not None:
            self._lru.move_to_end(page_id)
            self.hits += 1
            ctx = _trace._ACTIVE
            if ctx is not None:
                ctx.record_hit()
            note = getattr(self.device, "journal_note_read", None)
            if note is not None:
                note(cached)
            return cached
        page = self.device.read(page_id)
        self.misses += 1
        ctx = _trace._ACTIVE
        if ctx is not None:
            ctx.record_miss()
        self._cache(page)
        return page

    def write(self, page: Page) -> None:
        self.device.write(page)
        self._cache(page)

    def alloc(self) -> Page:
        return self.device.alloc()

    def free(self, page_id: int) -> None:
        pins = self._pins.get(page_id)
        if pins:
            # Dropping the pin here would turn a live reference into a
            # use-after-free; refuse loudly instead.
            raise PinnedPageError(page_id, pins)
        self._lru.pop(page_id, None)
        self.device.free(page_id)

    def note_write(self, page: Page) -> None:
        """Forward a Pager-deduplicated write to a fault-aware device."""
        note = getattr(self.device, "note_write", None)
        if note is not None:
            note(page)

    def crash_point(self, name: str) -> None:
        """Forward an engine crash point to a fault-aware device."""
        hook = getattr(self.device, "crash_point", None)
        if hook is not None:
            hook(name)

    def snapshot(self):
        return self.device.snapshot()

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (cache contents and pins persist)."""
        self.device.reset_counters()
        self.hits = 0
        self.misses = 0

    def drop_cache(self) -> None:
        """Evict every unpinned page, returning the pool to a cold state.

        Pinned pages cannot be dropped (their holders still reference
        them); a pool with outstanding pins raises
        :class:`~repro.iosim.errors.PinnedPageError` instead of silently
        keeping a warm subset.
        """
        if self._pins:
            pid = next(iter(self._pins))
            raise PinnedPageError(pid, self._pins[pid])
        self._lru.clear()

    @property
    def hit_rate(self) -> float:
        touched = self.hits + self.misses
        return self.hits / touched if touched else 0.0

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def pin(self, page_id: int) -> Page:
        """Make a page resident and exempt from eviction until unpinned.

        An uncached page is read first (charged as a miss).  Pins are
        reference-counted, so nested pins of the same page are safe.
        The pin is registered *before* the read so the page cannot be the
        eviction victim of its own caching when the pool is full of pins.
        """
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        try:
            return self.read(page_id)
        except Exception:
            self.unpin(page_id)
            raise

    def unpin(self, page_id: int) -> None:
        """Release one pin; the page becomes evictable at refcount zero."""
        count = self._pins.get(page_id)
        if count is None:
            raise KeyError(f"page {page_id} is not pinned")
        if count <= 1:
            del self._pins[page_id]
        else:
            self._pins[page_id] = count - 1
        self._evict_overflow()

    @property
    def pinned_count(self) -> int:
        """Number of distinct pages currently pinned."""
        return len(self._pins)

    def is_pinned(self, page_id: int) -> bool:
        return page_id in self._pins

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cache(self, page: Page) -> None:
        self._lru[page.page_id] = page
        self._lru.move_to_end(page.page_id)
        self._evict_overflow()

    def _evict_overflow(self) -> None:
        if len(self._lru) <= self.capacity:
            return
        # Evict in LRU order, skipping pinned pages.  When everything is
        # pinned the pool overflows rather than drop a fixed buffer.
        for page_id in list(self._lru):
            if page_id in self._pins:
                continue
            del self._lru[page_id]
            if len(self._lru) <= self.capacity:
                return
