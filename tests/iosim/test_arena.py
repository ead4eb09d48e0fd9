"""Tests for the flat page arena: layout, typed failure modes, and the
lazy ArenaBlockDevice consumer.

These exercise :class:`ArenaView` directly on raw bytes — the situation
a shared-memory worker is in, where no file CRC stands between the
buffer and the parser, so every malformed input must raise a typed
:class:`SnapshotFormatError` rather than a bare struct/pickle error.
"""

import importlib
import re
import struct

import pytest

from repro.iosim import (
    ARENA_VERSION,
    ArenaBlockDevice,
    ArenaView,
    BlockDevice,
    DanglingPageError,
    SnapshotFormatError,
    build_arena,
)
from repro.iosim.arena import _ARENA_HEADER, _TABLE_ENTRY, ALLOWED_GLOBALS
from tests.hostile import hostile_payloads


def make_device(pages=6, capacity=8):
    device = BlockDevice(capacity)
    for i in range(pages):
        page = device.alloc()
        page.items = [("item", i, j) for j in range(i + 1)]
        page.set_header("kind", f"p{i}")
        device.write(page)
    device.free(0)
    return device


def make_arena(**kwargs):
    device = make_device(**kwargs)
    return device, build_arena(device, {"engine": "demo", "root": 3})


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
def test_build_and_materialize_round_trip():
    device, arena = make_arena()
    view = ArenaView(arena)
    assert view.meta == {"engine": "demo", "root": 3}
    assert view.page_ids == sorted(device._pages)
    restored = view.materialize()
    assert restored.block_capacity == device.block_capacity
    for pid, page in device._pages.items():
        assert restored._pages[pid].items == page.items
        assert restored._pages[pid].header == page.header
    # The allocator cursor survives: no id reuse after restore.
    assert restored.alloc().page_id not in device._pages


def test_arena_bytes_are_deterministic():
    """Same device → same bytes: the arena is a pure function of content,
    so shard fingerprints and shm segment reuse are stable."""
    d1, a1 = make_arena()
    d2, a2 = make_arena()
    assert a1 == a2


def test_view_over_memoryview_slices_zero_copy():
    _device, arena = make_arena()
    buf = memoryview(bytearray(arena))  # as in a shared-memory segment
    view = ArenaView(buf, source="shm://test")
    page = view.decode_page(view.page_ids[0])
    assert page.items
    view.release()
    buf.release()  # raises BufferError if the view leaked a slice


def test_attach_is_lazy_about_meta():
    """Constructing a view never touches the meta blob (workers that only
    decode pages must not pay for — or trip over — metadata)."""
    _device, arena = make_arena()
    view = ArenaView(arena)
    assert view._meta is None
    view.decode_page(view.page_ids[0])
    assert view._meta is None


# ----------------------------------------------------------------------
# failure modes (S3): every one a typed SnapshotFormatError
# ----------------------------------------------------------------------
def test_truncated_header():
    with pytest.raises(SnapshotFormatError, match="shorter than the"):
        ArenaView(b"RPRARENA\x00")


def test_truncated_table():
    _device, arena = make_arena()
    with pytest.raises(SnapshotFormatError, match="arena truncated"):
        ArenaView(arena[:_ARENA_HEADER.size + 4])


def test_bad_magic():
    _device, arena = make_arena()
    blob = b"XXXXXXXX" + arena[8:]
    with pytest.raises(SnapshotFormatError, match="bad arena magic"):
        ArenaView(blob)


def test_future_arena_version():
    """One arena version reads.  Older ones (1: bare blobs; 2: blobs
    behind column sidecars) fail as loudly as a future one, by name."""
    _device, arena = make_arena()
    for version in (1, 2, ARENA_VERSION + 1):
        blob = bytearray(arena)
        struct.pack_into(">I", blob, 8, version)
        with pytest.raises(SnapshotFormatError,
                           match=f"unsupported arena version {version} "):
            ArenaView(bytes(blob))


def _table_start(arena):
    meta_len = _ARENA_HEADER.unpack_from(arena, 0)[5]
    return _ARENA_HEADER.size + meta_len


def test_table_entry_past_payload():
    _device, arena = make_arena()
    blob = bytearray(arena)
    pos = _table_start(arena)
    pid, _offset, _length, crc = _TABLE_ENTRY.unpack_from(blob, pos)
    _TABLE_ENTRY.pack_into(blob, pos, pid, len(arena) - 4, 1 << 20, crc)
    with pytest.raises(SnapshotFormatError, match="points past the payload"):
        ArenaView(bytes(blob))


def test_table_entry_before_data_region():
    """An offset into the header/table itself is as invalid as one past
    the end — a blob may only live in the data region."""
    _device, arena = make_arena()
    blob = bytearray(arena)
    pos = _table_start(arena)
    pid, _offset, length, crc = _TABLE_ENTRY.unpack_from(blob, pos)
    _TABLE_ENTRY.pack_into(blob, pos, pid, 0, length, crc)
    with pytest.raises(SnapshotFormatError, match="points past the payload"):
        ArenaView(bytes(blob))


def test_duplicate_table_entry():
    _device, arena = make_arena()
    blob = bytearray(arena)
    pos = _table_start(arena)
    # Overwrite the second entry's id with the first entry's id.
    first_pid = _TABLE_ENTRY.unpack_from(blob, pos)[0]
    second = list(_TABLE_ENTRY.unpack_from(blob, pos + _TABLE_ENTRY.size))
    second[0] = first_pid
    _TABLE_ENTRY.pack_into(blob, pos + _TABLE_ENTRY.size, *second)
    with pytest.raises(SnapshotFormatError, match="duplicate table entry"):
        ArenaView(bytes(blob))


def test_fingerprint_mismatch_on_decode():
    _device, arena = make_arena()
    blob = bytearray(arena)
    pos = _table_start(arena)
    pid, offset, length, crc = _TABLE_ENTRY.unpack_from(blob, pos)
    _TABLE_ENTRY.pack_into(blob, pos, pid, offset, length, crc ^ 0xFFFF)
    view = ArenaView(bytes(blob))  # attach succeeds: blobs untouched
    with pytest.raises(SnapshotFormatError, match="checksum mismatch"):
        view.decode_page(pid)


def test_undecodable_blob():
    _device, arena = make_arena()
    view = ArenaView(arena)
    pid = view.page_ids[0]
    offset, length, _crc = view._entries[pid]
    blob = bytearray(arena)
    blob[offset:offset + length] = b"\xff" * length
    view = ArenaView(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="undecodable blob"):
        view.decode_page(pid)


def test_unknown_page_id():
    _device, arena = make_arena()
    view = ArenaView(arena)
    with pytest.raises(SnapshotFormatError, match="not in the arena table"):
        view.decode_page(10_000)


def test_hostile_blob_rejected(tmp_path):
    """A page blob resolving globals outside the allowlist must not
    execute — and allowed modules (``builtins``, ``repro``) are no
    excuse."""
    device = BlockDevice(8)
    page = device.alloc()
    page.items = ["x" * 1024]  # room for every hostile blob below
    device.write(page)
    arena = build_arena(device, {})
    offset, length, _crc = ArenaView(arena)._entries[page.page_id]
    marker = tmp_path / "pwned"
    for case, (name, evil) in hostile_payloads(str(marker)).items():
        assert len(evil) <= length, "shrink the hostile payload for this test"
        blob = bytearray(arena)
        blob[offset:offset + len(evil)] = evil
        pos = _table_start(arena)
        entry = list(_TABLE_ENTRY.unpack_from(blob, pos))
        entry[2] = len(evil)
        _TABLE_ENTRY.pack_into(blob, pos, *entry)
        view = ArenaView(bytes(blob))
        with pytest.raises(SnapshotFormatError,
                           match=f"undecodable blob: payload references "
                                 f"forbidden global {re.escape(name)}$"):
            view.decode_page(page.page_id)
        assert not marker.exists(), f"{case} payload ran"


def test_allowed_globals_name_what_pickle_writes():
    """Each allowlisted pair is the ``(__module__, __qualname__)`` that
    pickle writes for its object, so a rename or move fails here rather
    than as a "forbidden global" on live data."""
    for module, name in ALLOWED_GLOBALS:
        obj = getattr(importlib.import_module(module), name)
        assert (obj.__module__, obj.__qualname__) == (module, name)


def test_undecodable_meta():
    _device, arena = make_arena()
    blob = bytearray(arena)
    meta_len = _ARENA_HEADER.unpack_from(arena, 0)[5]
    blob[_ARENA_HEADER.size:_ARENA_HEADER.size + meta_len] = b"\xff" * meta_len
    view = ArenaView(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="undecodable arena metadata"):
        view.meta


# ----------------------------------------------------------------------
# lazy device
# ----------------------------------------------------------------------
def test_lazy_device_matches_eager_io_accounting():
    device, arena = make_arena()
    lazy = ArenaBlockDevice(ArenaView(arena))
    eager = ArenaView(arena).materialize()
    assert lazy.pages_in_use == eager.pages_in_use
    for pid in sorted(eager._pages):
        a, b = lazy.read(pid), eager.read(pid)
        assert a.items == b.items and a.header == b.header
    assert lazy.snapshot() == eager.snapshot()
    # Re-reads hit the decoded cache: decode count stays put.
    decodes = lazy.decodes
    lazy.read(sorted(eager._pages)[0])
    assert lazy.decodes == decodes


def test_lazy_device_decodes_on_demand_only():
    _device, arena = make_arena(pages=6)
    lazy = ArenaBlockDevice(ArenaView(arena))
    assert lazy.resident_pages == 0
    lazy.read(lazy._view.page_ids[0])
    assert lazy.resident_pages == 1
    assert lazy.decodes == 1


def test_lru_eviction_bounded_and_redecodable():
    _device, arena = make_arena(pages=6)
    lazy = ArenaBlockDevice(ArenaView(arena), cache_pages=2)
    ids = lazy._view.page_ids
    for pid in ids:
        lazy.read(pid)
    assert lazy.resident_pages <= 2
    assert lazy.evictions == len(ids) - 2
    # An evicted page transparently re-decodes with identical content.
    first = lazy.read(ids[0])
    assert first.items == ArenaView(arena).decode_page(ids[0]).items


def test_dirty_pages_are_pinned():
    _device, arena = make_arena(pages=6)
    lazy = ArenaBlockDevice(ArenaView(arena), cache_pages=1)
    ids = lazy._view.page_ids
    victim = lazy.read(ids[0])
    victim.items = [("mutated",)]
    lazy.write(victim)
    for pid in ids[1:]:  # pressure the LRU hard
        lazy.read(pid)
    assert lazy.read(ids[0]).items == [("mutated",)], "dirty page was evicted"


def test_alloc_and_free_on_lazy_device():
    _device, arena = make_arena()
    lazy = ArenaBlockDevice(ArenaView(arena))
    before = lazy.pages_in_use
    page = lazy.alloc()
    assert page.page_id not in lazy._view._entries
    assert lazy.pages_in_use == before + 1
    # Freeing a never-decoded page skips the decode entirely.
    cold = lazy._view.page_ids[0]
    decodes = lazy.decodes
    lazy.free(cold)
    assert lazy.decodes == decodes
    assert lazy.pages_in_use == before
    with pytest.raises(DanglingPageError):
        lazy.read(cold)


def test_iter_pages_covers_lazy_without_caching():
    device, arena = make_arena()
    lazy = ArenaBlockDevice(ArenaView(arena))
    seen = {p.page_id: p.items for p in lazy.iter_pages()}
    assert seen == {pid: p.items for pid, p in device._pages.items()}
    assert lazy.resident_pages == 0


def test_cache_pages_validation():
    _device, arena = make_arena()
    with pytest.raises(ValueError, match="cache_pages"):
        ArenaBlockDevice(ArenaView(arena), cache_pages=0)
