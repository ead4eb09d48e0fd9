"""Unit tests for the binary snapshot container (save_device/load_device).

The container (format version 4) carries a flat page arena; no other
version reads.  The arena-specific failure modes live in
``test_arena.py``.
"""

import re
import struct
import zlib

import pytest

from repro.iosim import (
    BlockDevice,
    SNAPSHOT_FORMAT_VERSION,
    SnapshotFormatError,
    load_device,
    save_device,
)
from repro.iosim.arena import _ARENA_HEADER
from repro.iosim.snapshot import _HEADER, MAGIC
from tests.hostile import hostile_payloads


def make_device(pages=5, capacity=8):
    device = BlockDevice(capacity)
    for i in range(pages):
        page = device.alloc()
        page.items = [("item", i, j) for j in range(i + 1)]
        page.set_header("kind", f"p{i}")
        device.write(page)
    # A hole in the id space: freed pages must not resurrect on load.
    device.free(0)
    return device


def test_round_trip_preserves_pages_and_meta(tmp_path):
    device = make_device()
    path = str(tmp_path / "dev.snap")
    nbytes = save_device(path, device, {"engine": "x", "root": 3})
    assert nbytes == (tmp_path / "dev.snap").stat().st_size

    restored, meta = load_device(path)
    assert meta == {"engine": "x", "root": 3}
    assert restored.block_capacity == device.block_capacity
    assert sorted(restored._pages) == sorted(device._pages)
    for pid, page in device._pages.items():
        twin = restored._pages[pid]
        assert twin.items == page.items
        assert twin.header == page.header
    # The allocator does not reuse ids that were live at save time.
    fresh = restored.alloc()
    assert fresh.page_id not in device._pages
    # Counters start at zero: opening a snapshot is free in the model.
    assert restored.snapshot().total == 0


def test_default_format_is_arena(tmp_path):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    _magic, version, _length, _crc = _HEADER.unpack(
        path.read_bytes()[:_HEADER.size])
    assert version == SNAPSHOT_FORMAT_VERSION == 4


def test_v2_duplicates_cross_page_items_but_preserves_content(tmp_path):
    device = BlockDevice(8)
    shared = ["payload"]
    a, b = device.alloc(), device.alloc()
    a.items = [shared]
    b.items = [shared]
    device.write(a)
    device.write(b)
    path = str(tmp_path / "dev.snap")
    save_device(path, device, {})
    restored, _meta = load_device(path)
    ra, rb = restored._pages[a.page_id], restored._pages[b.page_id]
    assert ra.items == rb.items == [["payload"]]


def test_missing_file_and_short_file(tmp_path):
    with pytest.raises(SnapshotFormatError, match="unreadable"):
        load_device(str(tmp_path / "nope.snap"))
    short = tmp_path / "short.snap"
    short.write_bytes(b"REPROSN")  # shorter than the header
    with pytest.raises(SnapshotFormatError, match="shorter than the header"):
        load_device(str(short))


def test_bad_magic(tmp_path):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="bad magic"):
        load_device(str(path))


def test_future_version_rejected(tmp_path):
    """One container version reads: a file saved before the PST metadata
    gained its tallest height (2), or before Solution 1 packed its first
    level into supernode pages (3), fails as loudly as a future one, by
    name."""
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    saved = path.read_bytes()
    for version in (2, 3, SNAPSHOT_FORMAT_VERSION + 1):
        blob = bytearray(saved)
        struct.pack_into(">I", blob, 8, version)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError,
                           match=f"unsupported format version {version} "):
            load_device(str(path))


def test_truncated_payload(tmp_path):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_device(str(path))


def test_flipped_payload_byte_fails_crc(tmp_path):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="CRC mismatch"):
        load_device(str(path))


def test_hostile_globals_rejected(tmp_path):
    """A pickle resolving globals outside the allowlist must not execute:
    not another module's callable, and not a ``builtins`` or ``repro``
    one either — allowed modules are no excuse.  The payload sits where a
    file carries engine metadata, behind a valid container CRC."""
    marker = tmp_path / "pwned"
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {"pad": "x" * 1024})
    saved = path.read_bytes()
    meta_start = _HEADER.size + _ARENA_HEADER.size
    meta_len = _ARENA_HEADER.unpack_from(saved, _HEADER.size)[5]
    for case, (name, evil) in hostile_payloads(str(marker)).items():
        assert len(evil) <= meta_len, "shrink the hostile payload for this test"
        # Unpickling stops at the payload's STOP opcode, so padding to
        # the original length keeps every page table offset valid.
        blob = bytearray(saved)
        blob[meta_start:meta_start + meta_len] = evil.ljust(meta_len, b"\0")
        payload = bytes(blob[_HEADER.size:])
        path.write_bytes(
            _HEADER.pack(MAGIC, SNAPSHOT_FORMAT_VERSION, len(payload),
                         zlib.crc32(payload)) + payload
        )
        with pytest.raises(SnapshotFormatError,
                           match=f"undecodable arena metadata: payload "
                                 f"references forbidden global "
                                 f"{re.escape(name)}$"):
            load_device(str(path))
        assert not marker.exists(), f"{case} payload ran"
