"""Operation-scoped page access.

The paper counts one I/O per *node visit*.  Within a single logical operation
(one query, one insertion) a well-implemented algorithm keeps the handful of
blocks it is actively working on pinned in memory, so touching the same block
twice inside one operation costs one I/O, not two.  :class:`Pager` models
exactly that: inside a ``with pager.operation():`` scope, the first fetch of
each distinct page is charged to the device and later fetches are free;
writes to a page are likewise charged once per operation (flush-on-complete
semantics).

Outside an operation scope every fetch and write is charged — the
conservative default.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..telemetry import trace as _trace
from .disk import BlockDevice
from .page import Page


class _OperationScope:
    """Reusable ``with pager.operation():`` guard.

    A plain slotted class rather than ``@contextmanager``: the scope is
    entered once per logical operation on the hottest paths, and the
    generator machinery (one ``next`` per enter/exit plus a throwaway
    generator object) measurably taxes query throughput.  All state
    lives on the pager, so one shared instance serves nested scopes.
    """

    __slots__ = ("_pager",)

    def __init__(self, pager: "Pager"):
        self._pager = pager

    def __enter__(self) -> None:
        pager = self._pager
        pager._depth += 1
        if pager._depth == 1:
            pager._pinned = {}
            pager._dirty = set()

    def __exit__(self, exc_type, exc, tb) -> bool:
        pager = self._pager
        pager._depth -= 1
        if pager._depth == 0:
            pager._pinned = None
            pager._dirty = None
        return False


class _PinScope:
    """``with pager.pinning(pid):`` — holds one buffer-pool pin."""

    __slots__ = ("_pager", "_page_id", "_took")

    def __init__(self, pager: "Pager", page_id: int):
        self._pager = pager
        self._page_id = page_id
        self._took = False

    def __enter__(self) -> None:
        self._took = self._pager.pin(self._page_id)

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._took:
            self._pager.unpin(self._page_id)
        return False


class Pager:
    """Charged access to a :class:`BlockDevice` with per-operation pinning."""

    def __init__(self, device: BlockDevice):
        self.device = device
        self._pinned: Optional[Dict[int, Page]] = None
        self._dirty: Optional[Set[int]] = None
        self._depth = 0
        self._op_scope = _OperationScope(self)

    # ------------------------------------------------------------------
    # operation scope
    # ------------------------------------------------------------------
    def operation(self) -> _OperationScope:
        """Scope one logical operation; nested scopes join the outermost."""
        return self._op_scope

    @property
    def in_operation(self) -> bool:
        return self._depth > 0

    # ------------------------------------------------------------------
    # charged access
    # ------------------------------------------------------------------
    def fetch(self, page_id: int) -> Page:
        """Read a page; within an operation, re-reads of a pinned page are free."""
        if self._pinned is not None:
            cached = self._pinned.get(page_id)
            if cached is not None:
                ctx = _trace._ACTIVE
                if ctx is not None:
                    ctx.record_pin()
                return cached
            page = self.device.read(page_id)
            self._pinned[page_id] = page
            return page
        return self.device.read(page_id)

    def write(self, page: Page) -> None:
        """Write a page; within an operation each page is flushed once."""
        # Any write invalidates the page's decode cache — several
        # callers mutate ``page.items`` in place (B+-tree inserts, R-tree
        # entry updates) before flushing, so the cache can't be trusted
        # past this point.
        page.views = None
        if self._dirty is not None:
            if page.page_id in self._dirty:
                page.validate()
                # The charged flush already happened, but a fault-aware
                # device still needs its checksum refreshed to the final
                # content (pages are shared, mutated-in-place objects).
                note = getattr(self.device, "note_write", None)
                if note is not None:
                    note(page)
                return
            self._dirty.add(page.page_id)
            if self._pinned is not None:
                self._pinned[page.page_id] = page
        self.device.write(page)

    def alloc(self) -> Page:
        """Allocate a fresh page (free; it must still be written)."""
        page = self.device.alloc()
        if self._pinned is not None:
            self._pinned[page.page_id] = page
        return page

    def free(self, page_id: int) -> None:
        self.device.free(page_id)
        if self._pinned is not None:
            self._pinned.pop(page_id, None)
        if self._dirty is not None:
            self._dirty.discard(page_id)

    # ------------------------------------------------------------------
    # buffer-pool pinning (no-ops on a bare device)
    # ------------------------------------------------------------------
    def pin(self, page_id: int) -> bool:
        """Pin a page in the underlying buffer pool, if there is one.

        Returns ``True`` when a pool actually took the pin.  On a bare
        :class:`BlockDevice` this is a no-op — the Pager's own
        per-operation dedupe is the only "memory" the paper's model
        grants — so callers can pin unconditionally.
        """
        pin = getattr(self.device, "pin", None)
        if pin is None:
            return False
        pin(page_id)
        return True

    def unpin(self, page_id: int) -> None:
        unpin = getattr(self.device, "unpin", None)
        if unpin is not None:
            unpin(page_id)

    def pinning(self, page_id: int) -> _PinScope:
        """Hold a buffer-pool pin on ``page_id`` for the scope."""
        return _PinScope(self, page_id)

    def prefetch(self, page_ids) -> int:
        """Warm the buffer pool with ``page_ids``; 0 on a bare device."""
        prefetch = getattr(self.device, "prefetch", None)
        if prefetch is None:
            return 0
        return prefetch(page_ids)

    # ------------------------------------------------------------------
    # crash points (no-ops on a plain device)
    # ------------------------------------------------------------------
    def crash_point(self, name: str) -> None:
        """A named point where a fault schedule may abort the operation.

        Engines sprinkle these through their update paths; on a plain
        :class:`BlockDevice` the call is free, under a
        :class:`~repro.iosim.faults.FaultyBlockDevice` with a matching
        schedule entry it raises ``SimulatedCrash`` mid-operation.
        """
        hook = getattr(self.device, "crash_point", None)
        if hook is not None:
            hook(name)
