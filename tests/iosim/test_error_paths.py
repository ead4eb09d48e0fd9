"""Error-path coverage for the iosim layer.

The happy paths are exercised by every other test in the repo; these
tests pin down what happens when callers misuse the storage API —
use-after-free through each access layer, bad pin bookkeeping, and
overflow enforcement under a buffer pool.
"""

import pytest

from repro.iosim import (
    BlockDevice,
    DanglingPageError,
    LRUBufferPool,
    PageOverflowError,
    Pager,
)


def _written(dev_or_pool, items):
    page = dev_or_pool.alloc()
    page.put_items(list(items))
    dev_or_pool.write(page)
    return page


class TestReadAfterFree:
    def test_via_buffer_pool(self):
        dev = BlockDevice(block_capacity=8)
        pool = LRUBufferPool(dev, 4)
        page = _written(pool, [1])
        pool.read(page.page_id)  # cached
        pool.free(page.page_id)
        # The freed page must not be served from the cache.
        with pytest.raises(DanglingPageError):
            pool.read(page.page_id)

    def test_via_pager_outside_operation(self):
        dev = BlockDevice(block_capacity=8)
        pager = Pager(dev)
        page = _written(pager, [1])
        pager.free(page.page_id)
        with pytest.raises(DanglingPageError):
            pager.fetch(page.page_id)

    def test_via_pager_inside_operation(self):
        # The per-operation pin cache must not outlive a free either.
        dev = BlockDevice(block_capacity=8)
        pager = Pager(dev)
        page = _written(pager, [1])
        with pager.operation():
            pager.fetch(page.page_id)  # now in the operation pin cache
            pager.free(page.page_id)
            with pytest.raises(DanglingPageError):
                pager.fetch(page.page_id)

    def test_write_after_free_via_pager(self):
        dev = BlockDevice(block_capacity=8)
        pager = Pager(dev)
        page = _written(pager, [1])
        with pager.operation():
            pager.free(page.page_id)
            with pytest.raises(DanglingPageError):
                pager.write(page)


class TestPinBookkeeping:
    def test_unpin_never_pinned_page_raises_keyerror(self):
        dev = BlockDevice(block_capacity=8)
        pool = LRUBufferPool(dev, 4)
        page = _written(pool, [1])
        with pytest.raises(KeyError):
            pool.unpin(page.page_id)

    def test_unpin_after_last_unpin_raises(self):
        dev = BlockDevice(block_capacity=8)
        pool = LRUBufferPool(dev, 4)
        page = _written(pool, [1])
        pool.pin(page.page_id)
        pool.unpin(page.page_id)
        with pytest.raises(KeyError):
            pool.unpin(page.page_id)

    def test_pin_of_dangling_page_raises_and_leaves_no_pin(self):
        dev = BlockDevice(block_capacity=8)
        pool = LRUBufferPool(dev, 4)
        with pytest.raises(DanglingPageError):
            pool.pin(999)
        assert not pool.is_pinned(999)


class TestOverflowUnderPool:
    def test_overflow_caught_on_pooled_write(self):
        dev = BlockDevice(block_capacity=4)
        pool = LRUBufferPool(dev, 4)
        page = pool.alloc()
        page.put_items([1, 2, 3, 4])
        page.items.append(5)  # bypass the API
        with pytest.raises(PageOverflowError):
            pool.write(page)
        # The failed write must not have been charged.
        assert dev.writes == 0

    def test_overflow_caught_on_pooled_pager_write(self):
        dev = BlockDevice(block_capacity=4)
        pager = Pager(LRUBufferPool(dev, 4))
        page = pager.alloc()
        with pytest.raises(PageOverflowError):
            page.put_items(range(5))
