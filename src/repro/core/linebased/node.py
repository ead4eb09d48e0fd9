"""On-disk layout of external-PST nodes.

A PST node stores up to ``B`` line-based segments (the tallest of its
subtree) in one *items page*, plus routing information about its children:
for each child, a copy of the child subtree's tallest segment (the paper's
``v.left`` / ``v.right``), the child's base-key band, and its subtree size.

For the binary tree of Section 2 the routing fits in the page header, so a
node occupies exactly one block, as the paper requires.  For the blocked
variant (fan-out Θ(B), our stand-in for the P-range acceleration of
Lemma 3) the routing records go to a second page; a node then occupies two
blocks — still O(1).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ...geometry import LineBasedSegment
from ...iosim import Page, Pager

#: Routing fits in the header up to this many children (each child
#: contributes one record; the header allows 64 entries total).
HEADER_ROUTING_LIMIT = 2


class ChildRef:
    """Routing record for one child subtree."""

    __slots__ = ("pid", "top", "min_base", "max_base", "count", "split_key")

    def __init__(
        self,
        pid: int,
        top: LineBasedSegment,
        min_base: Tuple,
        max_base: Tuple,
        count: int,
        split_key: Tuple,
    ):
        self.pid = pid
        self.top = top  # copy of the tallest segment in the child's subtree
        self.min_base = min_base
        self.max_base = max_base
        self.count = count
        self.split_key = split_key  # lower base-key boundary of the child's band

    def as_tuple(self) -> Tuple:
        return (
            self.pid,
            self.top,
            self.min_base,
            self.max_base,
            self.count,
            self.split_key,
        )

    @classmethod
    def from_tuple(cls, data: Tuple) -> "ChildRef":
        return cls(*data)


class NodeView:
    """An in-memory view of one PST node (items + routing)."""

    __slots__ = ("pid", "items", "children", "low", "routing_pid")

    def __init__(
        self,
        pid: int,
        items: List[LineBasedSegment],
        children: List[ChildRef],
        low: Any,
        routing_pid: Optional[int],
    ):
        self.pid = pid
        self.items = items  # sorted by base_order_key
        self.children = children
        self.low = low  # separator height: max apex height below this node
        self.routing_pid = routing_pid

    @property
    def is_leaf(self) -> bool:
        return not self.children


def write_node(
    pager: Pager,
    items: List[LineBasedSegment],
    children: List[ChildRef],
    low: Any,
    items_page: Optional[Page] = None,
) -> NodeView:
    """Persist a node; returns its view.  Reuses ``items_page`` if given."""
    page = items_page if items_page is not None else pager.alloc()
    page.put_items(items)
    page.set_header("kind", "pst")
    page.set_header("low", low)
    old_routing = page.get_header("routing")
    if len(children) <= HEADER_ROUTING_LIMIT:
        page.set_header("children", [c.as_tuple() for c in children])
        page.set_header("routing", None)
        if old_routing is not None:
            pager.free(old_routing)
        routing_pid = None
    else:
        if old_routing is not None:
            routing = pager.fetch(old_routing)
        else:
            routing = pager.alloc()
        routing.put_items([c.as_tuple() for c in children])
        pager.write(routing)
        page.set_header("children", None)
        page.set_header("routing", routing.page_id)
        routing_pid = routing.page_id
    pager.write(page)
    return NodeView(page.page_id, list(items), children, low, routing_pid)


def read_node(pager: Pager, pid: int) -> NodeView:
    """Fetch a node (1 block, or 2 for wide fan-outs)."""
    page = pager.fetch(pid)
    low = page.get_header("low")
    routing_pid = page.get_header("routing")
    if routing_pid is None:
        raw = page.get_header("children") or []
    else:
        raw = pager.fetch(routing_pid).items
    children = [ChildRef.from_tuple(t) for t in raw]
    return NodeView(pid, list(page.items), children, low, routing_pid)


def read_node_cached(pager: Pager, pid: int) -> NodeView:
    """:func:`read_node` with the decode memoised on the page.

    Query paths re-read hot nodes constantly; the block fetches (and
    their I/O charges) still happen on every call — only the routing
    decode and the items copy are reused.  The decode is a pure function
    of page content, and ``write_node`` always goes through
    ``put_items``/``set_header``, which drop ``page.views`` — so a
    cached view can never outlive the bytes it decodes.  Update paths
    must keep using :func:`read_node`: they mutate the returned view's
    lists in place, which must never alias a cached copy.
    """
    page = pager.fetch(pid)
    views = page.views
    if views is None:
        views = page.views = {}
    node = views.get("pst")
    if node is not None:
        if node.routing_pid is not None:
            pager.fetch(node.routing_pid)  # same I/O as the uncached read
        return node
    low = page.get_header("low")
    routing_pid = page.get_header("routing")
    if routing_pid is None:
        raw = page.get_header("children") or []
    else:
        raw = pager.fetch(routing_pid).items
    children = [ChildRef.from_tuple(t) for t in raw]
    node = NodeView(pid, list(page.items), children, low, routing_pid)
    views["pst"] = node
    return node


def free_node(pager: Pager, node: NodeView) -> None:
    if node.routing_pid is not None:
        pager.free(node.routing_pid)
    pager.free(node.pid)
