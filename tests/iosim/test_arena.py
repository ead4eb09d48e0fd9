"""Tests for the flat page arena: layout and typed failure modes.

These exercise :class:`ArenaView` directly on raw bytes, with no file
CRC between the buffer and the parser, so every malformed input must
raise a typed :class:`SnapshotFormatError` rather than a bare
struct/pickle error.
"""

import importlib
import re
import struct

import pytest

from repro.iosim import (
    ARENA_VERSION,
    ArenaView,
    BlockDevice,
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
    so shard fingerprints are stable."""
    d1, a1 = make_arena()
    d2, a2 = make_arena()
    assert a1 == a2


def test_view_over_memoryview_slices_zero_copy():
    _device, arena = make_arena()
    buf = memoryview(bytearray(arena))
    view = ArenaView(buf, source="memory://test")
    page = view.decode_page(view.page_ids[0])
    assert page.items
    view.release()
    buf.release()  # raises BufferError if the view leaked a slice


def test_attach_is_lazy_about_meta():
    """Constructing a view never touches the meta blob (a reader that
    only decodes pages must not pay for — or trip over — metadata)."""
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
