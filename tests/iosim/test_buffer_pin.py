"""Unit tests for buffer-pool page pinning."""

import pytest

from repro.iosim import BlockDevice, LRUBufferPool, Pager, PinnedPageError


def make_pool(pool_pages=4, capacity=8):
    dev = BlockDevice(block_capacity=capacity)
    pool = LRUBufferPool(dev, capacity=pool_pages)
    return dev, pool


def alloc_pages(pool, n):
    pages = [pool.alloc() for _ in range(n)]
    for p in pages:
        pool.write(p)
    return pages


def test_pinned_page_survives_cache_thrashing_scan():
    dev, pool = make_pool(pool_pages=4)
    hot = alloc_pages(pool, 1)[0]
    cold = alloc_pages(pool, 3)
    scan = alloc_pages(pool, 32)

    pool.pin(hot.page_id)
    for p in cold:
        pool.read(p.page_id)
    for p in scan:  # thrash: 8x the pool's capacity
        pool.read(p.page_id)

    dev.reset_counters()
    pool.read(hot.page_id)
    assert dev.reads == 0, "pinned page was evicted by the scan"
    # The unpinned pages went through the LRU as usual.
    dev.reset_counters()
    pool.read(cold[0].page_id)
    assert dev.reads == 1, "unpinned page unexpectedly survived the scan"


def test_unpin_makes_page_evictable_again():
    dev, pool = make_pool(pool_pages=2)
    a = alloc_pages(pool, 1)[0]
    pool.pin(a.page_id)
    alloc_pages(pool, 8)
    pool.unpin(a.page_id)
    alloc_pages(pool, 8)
    dev.reset_counters()
    pool.read(a.page_id)
    assert dev.reads == 1


def test_pins_are_reference_counted():
    dev, pool = make_pool(pool_pages=1)
    a = alloc_pages(pool, 1)[0]
    pool.pin(a.page_id)
    pool.pin(a.page_id)
    assert pool.pinned_count == 1
    pool.unpin(a.page_id)
    assert pool.is_pinned(a.page_id)  # one reference remains
    pool.unpin(a.page_id)
    assert not pool.is_pinned(a.page_id)
    assert pool.pinned_count == 0


def test_unpin_unknown_page_raises():
    _dev, pool = make_pool()
    with pytest.raises(KeyError):
        pool.unpin(12345)


def test_pool_overflows_rather_than_evicting_pins():
    dev, pool = make_pool(pool_pages=2)
    pinned = alloc_pages(pool, 3)
    for p in pinned:
        pool.pin(p.page_id)  # re-reads anything the writes already evicted
    assert pool.pinned_count == 3
    dev.reset_counters()
    for p in pinned:  # all three resident despite capacity 2
        pool.read(p.page_id)
    assert dev.reads == 0
    for p in pinned:
        pool.unpin(p.page_id)
    assert len(pool._lru) <= pool.capacity  # overflow drained on release


def test_free_of_pinned_page_raises():
    # Freeing a pinned page used to silently drop the pin, masking a
    # use-after-free; it must refuse until the pin is released.
    _dev, pool = make_pool()
    a = alloc_pages(pool, 1)[0]
    pool.pin(a.page_id)
    with pytest.raises(PinnedPageError) as exc:
        pool.free(a.page_id)
    assert exc.value.page_id == a.page_id
    assert exc.value.pins == 1
    assert pool.is_pinned(a.page_id)  # the refusal left the pin intact
    pool.read(a.page_id)  # ...and the page alive
    pool.unpin(a.page_id)
    pool.free(a.page_id)  # unpinned, the free goes through
    assert pool.pinned_count == 0


def test_pager_pin_passthrough_and_noop_on_bare_device():
    dev, pool = make_pool(pool_pages=2)
    pager = Pager(pool)
    a = alloc_pages(pool, 1)[0]
    assert pager.pin(a.page_id) is True
    assert pool.is_pinned(a.page_id)
    pager.unpin(a.page_id)
    assert not pool.is_pinned(a.page_id)
    with pager.pinning(a.page_id):
        assert pool.is_pinned(a.page_id)
    assert not pool.is_pinned(a.page_id)

    bare = Pager(BlockDevice(block_capacity=8))
    page = bare.alloc()
    bare.write(page)
    reads_before = bare.device.reads
    assert bare.pin(page.page_id) is False  # no pool: no-op, no I/O
    bare.unpin(page.page_id)
    with bare.pinning(page.page_id):
        pass
    assert bare.device.reads == reads_before


def test_io_report_counts_pinned_pages():
    from repro import SegmentDatabase
    from repro.workloads import grid_segments

    db = SegmentDatabase.bulk_load(
        grid_segments(100, seed=9), engine="solution2",
        block_capacity=16, buffer_pages=4,
    )
    report = db.io_report()
    assert report["buffer"]["pinned"] == 0
    db.buffer_pool.pin(db._index.root_pid)
    assert db.io_report()["buffer"]["pinned"] == 1
    db.buffer_pool.unpin(db._index.root_pid)
    assert db.io_report()["buffer"]["pinned"] == 0


def test_unpin_of_never_pinned_cached_page_raises_and_keeps_cache():
    dev, pool = make_pool(pool_pages=4)
    a = alloc_pages(pool, 1)[0]
    pool.read(a.page_id)  # cached, never pinned
    with pytest.raises(KeyError):
        pool.unpin(a.page_id)
    dev.reset_counters()
    pool.read(a.page_id)
    assert dev.reads == 0, "failed unpin disturbed the cache"


def test_drop_cache_goes_cold_and_refuses_under_pins():
    dev, pool = make_pool(pool_pages=4)
    pages = alloc_pages(pool, 3)
    for p in pages:
        pool.read(p.page_id)
    pool.pin(pages[0].page_id)
    with pytest.raises(PinnedPageError):
        pool.drop_cache()
    dev.reset_counters()
    pool.read(pages[0].page_id)
    assert dev.reads == 0  # refusal left the cache warm
    pool.unpin(pages[0].page_id)
    pool.drop_cache()
    dev.reset_counters()
    for p in pages:
        pool.read(p.page_id)
    assert dev.reads == len(pages), "drop_cache left warm pages behind"
