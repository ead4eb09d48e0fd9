"""A fixed-capacity disk page.

A :class:`Page` models one block of secondary storage in the paper's I/O
model.  It holds at most ``capacity`` *items* (the paper's parameter ``B``)
plus a small constant-size *header* of routing information (child pointers,
separator values, balance counters).  The header is not counted against the
item capacity, mirroring the usual convention that ``B`` measures data items
per block while a block also carries O(1) bookkeeping words.

Pages are plain containers; all I/O accounting happens in
:class:`repro.iosim.disk.BlockDevice`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from .errors import PageOverflowError

#: Maximum number of header entries a page may carry.  The paper allows O(1)
#: routing words per block; 64 is a generous constant that still catches a
#: structure trying to smuggle Θ(B) data through the header.
HEADER_SLOTS = 64


class Page:
    """One block of simulated secondary storage.

    Parameters
    ----------
    page_id:
        Identifier assigned by the owning :class:`BlockDevice`.
    capacity:
        Maximum number of payload items (the paper's ``B``).
    """

    __slots__ = ("page_id", "capacity", "items", "header", "views")

    def __init__(self, page_id: int, capacity: int):
        self.page_id = page_id
        self.capacity = capacity
        self.items: List[Any] = []
        self.header: Dict[str, Any] = {}
        #: Cache of decoded per-page structures (attached second-level
        #: indexes, node views, frames) keyed by the owner.  Pure cache:
        #: never serialized, never fingerprinted, dropped on any payload
        #: or header write — the cached objects decode routing words.
        self.views = None

    # ------------------------------------------------------------------
    # payload
    # ------------------------------------------------------------------
    def put_items(self, items: Iterable[Any]) -> None:
        """Replace the page payload, enforcing the capacity bound."""
        new_items = list(items)
        if len(new_items) > self.capacity:
            raise PageOverflowError(self.page_id, len(new_items), self.capacity)
        self.items = new_items
        self.views = None

    def append_item(self, item: Any) -> None:
        """Append one item, enforcing the capacity bound."""
        if len(self.items) + 1 > self.capacity:
            raise PageOverflowError(self.page_id, len(self.items) + 1, self.capacity)
        self.items.append(item)
        self.views = None

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.items)

    def __len__(self) -> int:
        return len(self.items)

    # ------------------------------------------------------------------
    # header
    # ------------------------------------------------------------------
    def set_header(self, key: str, value: Any) -> None:
        """Store an O(1) routing word in the page header."""
        self.header[key] = value
        self.views = None
        if len(self.header) > HEADER_SLOTS:
            raise PageOverflowError(self.page_id, len(self.header), HEADER_SLOTS)

    def get_header(self, key: str, default: Any = None) -> Any:
        return self.header.get(key, default)

    def validate(self) -> None:
        """Re-check the capacity invariants (used by failure-injection tests)."""
        if len(self.items) > self.capacity:
            raise PageOverflowError(self.page_id, len(self.items), self.capacity)
        if len(self.header) > HEADER_SLOTS:
            raise PageOverflowError(self.page_id, len(self.header), HEADER_SLOTS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page(id={self.page_id}, items={len(self.items)}/{self.capacity}, "
            f"header_keys={sorted(self.header)})"
        )
