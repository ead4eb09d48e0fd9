"""Unit tests for the binary snapshot container (save_device/load_device).

Format version 2 (current) carries a flat page arena; version 1 (legacy)
one object-graph pickle.  Both must round-trip through ``load_device``;
the arena-specific failure modes live in ``test_arena.py``.
"""

import pickle
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
from repro.iosim.snapshot import _HEADER, MAGIC, SUPPORTED_VERSIONS
from tests.hostile import hostile_payloads

VERSIONS = SUPPORTED_VERSIONS


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


@pytest.mark.parametrize("version", VERSIONS)
def test_round_trip_preserves_pages_and_meta(tmp_path, version):
    device = make_device()
    path = str(tmp_path / "dev.snap")
    nbytes = save_device(path, device, {"engine": "x", "root": 3},
                         format_version=version)
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
    assert version == SNAPSHOT_FORMAT_VERSION == 2


def test_v1_files_still_load(tmp_path):
    """Old-format files written before the arena stay readable."""
    device = make_device()
    path = str(tmp_path / "legacy.snap")
    save_device(path, device, {"engine": "x"}, format_version=1)
    restored, meta = load_device(path)
    assert meta == {"engine": "x"}
    assert sorted(restored._pages) == sorted(device._pages)


def test_shared_items_stay_shared_after_v1_round_trip(tmp_path):
    """The legacy object-graph payload preserves cross-page identity
    (the arena trades that for independently decodable pages — see
    test_arena.py for the v2 contract)."""
    device = BlockDevice(8)
    shared = ["payload"]
    a, b = device.alloc(), device.alloc()
    a.items = [shared]
    b.items = [shared]
    device.write(a)
    device.write(b)
    path = str(tmp_path / "dev.snap")
    save_device(path, device, {}, format_version=1)
    restored, _meta = load_device(path)
    ra, rb = restored._pages[a.page_id], restored._pages[b.page_id]
    assert ra.items[0] is rb.items[0], "object identity lost in snapshot"


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


def test_unknown_write_version_rejected(tmp_path):
    with pytest.raises(ValueError, match="cannot write snapshot format"):
        save_device(str(tmp_path / "dev.snap"), make_device(), {},
                    format_version=7)


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
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    blob = bytearray(path.read_bytes())
    struct.pack_into(">I", blob, 8, SNAPSHOT_FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="unsupported format version"):
        load_device(str(path))


@pytest.mark.parametrize("version", VERSIONS)
def test_truncated_payload(tmp_path, version):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {}, format_version=version)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_device(str(path))


@pytest.mark.parametrize("version", VERSIONS)
def test_flipped_payload_byte_fails_crc(tmp_path, version):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {}, format_version=version)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="CRC mismatch"):
        load_device(str(path))


def _repack_v1(path, payload_obj):
    """Write a v1 snapshot with a valid header around an arbitrary payload."""
    payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    path.write_bytes(
        _HEADER.pack(MAGIC, 1, len(payload), zlib.crc32(payload)) + payload
    )


def test_v1_page_fingerprint_mismatch_detected(tmp_path):
    """Content tampering behind a recomputed file CRC still fails: the
    per-page fingerprints are the second, independent verification layer."""
    device = make_device()
    path = tmp_path / "dev.snap"
    save_device(str(path), device, {}, format_version=1)
    payload_obj = pickle.loads(path.read_bytes()[_HEADER.size:])
    pid, items, header = payload_obj["pages"][0]
    payload_obj["pages"][0] = (pid, items + [("smuggled",)], header)
    _repack_v1(path, payload_obj)
    with pytest.raises(SnapshotFormatError, match="checksum mismatch"):
        load_device(str(path))


def test_missing_payload_field(tmp_path):
    path = tmp_path / "dev.snap"
    _repack_v1(path, {"meta": {}, "block_capacity": 8})
    with pytest.raises(SnapshotFormatError, match="missing field"):
        load_device(str(path))


def test_hostile_globals_rejected(tmp_path):
    """A pickle resolving globals outside the allowlist must not execute:
    not another module's callable, and not a ``builtins`` or ``repro``
    one either — allowed modules are no excuse."""
    marker = tmp_path / "pwned"
    path = tmp_path / "dev.snap"
    for case, (name, payload) in hostile_payloads(str(marker)).items():
        path.write_bytes(
            _HEADER.pack(MAGIC, 1, len(payload), zlib.crc32(payload))
            + payload
        )
        with pytest.raises(SnapshotFormatError,
                           match=f"undecodable payload: payload references "
                                 f"forbidden global {re.escape(name)}$"):
            load_device(str(path))
        assert not marker.exists(), f"{case} payload ran"
