"""Unit tests for the binary snapshot file (save_device/load_device).

The container (format version 5) carries one pickle of the metadata,
the allocator state and a list of ``(page_id, fingerprint, blob)``
entries; no other version reads.  Every damaged input sits behind a
valid container CRC and must raise a typed :class:`SnapshotFormatError`,
never a bare struct or pickle error.
"""

import builtins
import errno
import importlib
import os
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
from repro.iosim import snapshot
from repro.iosim.snapshot import _HEADER, ALLOWED_GLOBALS, MAGIC
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


def write_payload(path, payload: bytes) -> None:
    """A snapshot file around ``payload`` with a valid header and CRC."""
    path.write_bytes(_HEADER.pack(MAGIC, SNAPSHOT_FORMAT_VERSION,
                                  len(payload), zlib.crc32(payload)) + payload)


def saved_outer(path) -> list:
    """The outer tuple of a saved snapshot, as a list to damage."""
    return list(pickle.loads(path.read_bytes()[_HEADER.size:]))


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


def test_reloaded_device_saves_identical_bytes(tmp_path):
    """A loaded device is the saved one exactly: saving it again gives
    the same bytes, so pages, headers, meta, block capacity and the
    allocator cursor all survive a second generation unchanged."""
    first, second = tmp_path / "first.snap", tmp_path / "second.snap"
    save_device(str(first), make_device(), {"engine": "demo", "root": 3})
    restored, meta = load_device(str(first))
    save_device(str(second), restored, meta)
    assert second.read_bytes() == first.read_bytes()


def test_default_format_is_version_5(tmp_path):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {"root": 3})
    _magic, version, _length, _crc = _HEADER.unpack(
        path.read_bytes()[:_HEADER.size])
    assert version == SNAPSHOT_FORMAT_VERSION == 5
    meta, capacity, next_id, entries = saved_outer(path)
    assert (meta, capacity, next_id) == ({"root": 3}, 8, 5)
    assert [pid for pid, _crc, _blob in entries] == [1, 2, 3, 4]


def test_snapshot_bytes_are_deterministic(tmp_path):
    """Same device → same bytes: a snapshot is a pure function of the
    content, so shard fingerprints are stable."""
    a, b = tmp_path / "a.snap", tmp_path / "b.snap"
    save_device(str(a), make_device(), {"engine": "demo"})
    save_device(str(b), make_device(), {"engine": "demo"})
    assert a.read_bytes() == b.read_bytes()


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


class _DiesAfterHeader:
    """A file that takes the header, writes part of the next chunk and
    then fails, as a full disk would."""

    def __init__(self, fh):
        self._fh = fh
        self._written = 0

    def write(self, data):
        if self._written + len(data) > _HEADER.size:
            self._fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        self._written += len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_a_save_that_dies_midway_keeps_the_old_snapshot(tmp_path,
                                                         monkeypatch):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {"generation": 1})
    before = path.read_bytes()

    def dying_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _DiesAfterHeader(fh) if "r" not in mode else fh

    monkeypatch.setattr(snapshot, "open", dying_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_device(str(path), make_device(pages=7), {"generation": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_device(str(path))[1] == {"generation": 1}
    assert os.listdir(tmp_path) == ["dev.snap"]


def test_a_successful_save_leaves_only_the_snapshot(tmp_path):
    path = tmp_path / "dev.snap"
    for generation in (1, 2):
        save_device(str(path), make_device(), {"generation": generation})
    assert os.listdir(tmp_path) == ["dev.snap"]
    assert load_device(str(path))[1] == {"generation": 2}


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
    gained its tallest height (2), before Solution 1 packed its first
    level into supernode pages (3), or before the payload became a list
    of page blobs (4) fails as loudly as a future one, by name."""
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    saved = path.read_bytes()
    for version in (2, 3, 4, SNAPSHOT_FORMAT_VERSION + 1):
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


def test_undecodable_payload(tmp_path):
    path = tmp_path / "dev.snap"
    write_payload(path, b"\xff" * 64)
    with pytest.raises(SnapshotFormatError, match="undecodable payload"):
        load_device(str(path))


@pytest.mark.parametrize("outer", [
    [{}, 8, 1],
    [{}, 8, 1, [], "extra"],
    [["not", "a", "dict"], 8, 1, []],
    [{}, "8", 1, []],
    [{}, 8, 1, ()],
], ids=["three-fields", "five-fields", "list-meta", "str-capacity",
        "tuple-pages"])
def test_malformed_outer_shape(tmp_path, outer):
    path = tmp_path / "dev.snap"
    write_payload(path, pickle.dumps(tuple(outer)))
    with pytest.raises(SnapshotFormatError, match="payload is not"):
        load_device(str(path))
    write_payload(path, pickle.dumps(outer))  # a list, not a tuple
    with pytest.raises(SnapshotFormatError, match="payload is not"):
        load_device(str(path))


@pytest.mark.parametrize("entry", [
    [1, 0, b""],
    (1, 0),
    ("1", 0, b""),
    (1, 0, "blob"),
    (1, None, b""),
], ids=["list", "two-fields", "str-id", "str-blob", "none-fingerprint"])
def test_malformed_page_entry(tmp_path, entry):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    outer = saved_outer(path)
    outer[3].insert(1, entry)
    write_payload(path, pickle.dumps(tuple(outer)))
    with pytest.raises(SnapshotFormatError,
                       match=r"page entry 1 is not \(page id, fingerprint, "
                             r"blob\)"):
        load_device(str(path))


def test_duplicate_page_id(tmp_path):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    outer = saved_outer(path)
    first_pid = outer[3][0][0]
    outer[3][1] = (first_pid,) + outer[3][1][1:]
    write_payload(path, pickle.dumps(tuple(outer)))
    with pytest.raises(SnapshotFormatError,
                       match=f"page {first_pid}: duplicate entry"):
        load_device(str(path))


def test_fingerprint_mismatch(tmp_path):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    outer = saved_outer(path)
    pid, crc, blob = outer[3][2]
    outer[3][2] = (pid, crc ^ 0xFFFF, blob)
    write_payload(path, pickle.dumps(tuple(outer)))
    with pytest.raises(SnapshotFormatError,
                       match=f"page {pid}: checksum mismatch"):
        load_device(str(path))


@pytest.mark.parametrize("blob", [b"\xff" * 16, pickle.dumps(7),
                                  pickle.dumps(([], 5))],
                         ids=["garbage", "not-a-pair", "int-header"])
def test_undecodable_page_blob(tmp_path, blob):
    path = tmp_path / "dev.snap"
    save_device(str(path), make_device(), {})
    outer = saved_outer(path)
    pid, crc, _blob = outer[3][0]
    outer[3][0] = (pid, crc, blob)
    write_payload(path, pickle.dumps(tuple(outer)))
    with pytest.raises(SnapshotFormatError,
                       match=f"page {pid}: undecodable blob"):
        load_device(str(path))


def test_hostile_payload_rejected(tmp_path):
    """A pickle resolving globals outside the allowlist must not execute:
    not another module's callable, and not a ``builtins`` or ``repro``
    one either — allowed modules are no excuse.  Each payload sits where
    a file carries its outer tuple, behind a valid container CRC."""
    marker = tmp_path / "pwned"
    path = tmp_path / "dev.snap"
    for case, (name, evil) in hostile_payloads(str(marker)).items():
        write_payload(path, evil)
        with pytest.raises(SnapshotFormatError,
                           match=f"undecodable payload: payload references "
                                 f"forbidden global {re.escape(name)}$"):
            load_device(str(path))
        assert not marker.exists(), f"{case} payload ran"


def test_hostile_page_blob_rejected(tmp_path):
    """The same payloads as one page's blob, inside a well-formed outer
    tuple: each page decodes through the same allowlist."""
    marker = tmp_path / "pwned"
    path = tmp_path / "dev.snap"
    for case, (name, evil) in hostile_payloads(str(marker)).items():
        write_payload(path, pickle.dumps(({}, 8, 1, [(0, 0, evil)])))
        with pytest.raises(SnapshotFormatError,
                           match=f"page 0: undecodable blob: payload "
                                 f"references forbidden global "
                                 f"{re.escape(name)}$"):
            load_device(str(path))
        assert not marker.exists(), f"{case} payload ran"


def test_allowed_globals_name_what_pickle_writes():
    """Each allowlisted pair is the ``(__module__, __qualname__)`` that
    pickle writes for its object, so a rename or move fails here rather
    than as a "forbidden global" on live data."""
    for module, name in ALLOWED_GLOBALS:
        obj = getattr(importlib.import_module(module), name)
        assert (obj.__module__, obj.__qualname__) == (module, name)
