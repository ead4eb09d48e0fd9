"""Versioned, checksummed binary snapshots of a built page store.

The paper's engines are expensive to build (``O(N log N)`` with large
constants) and cheap to serve — exactly the profile that makes
build-once/open-many persistence worthwhile (cf. the persistent
external-memory search trees of Brodal et al.).  A snapshot captures one
:class:`~repro.iosim.disk.BlockDevice` — every live page plus the
allocator cursor — together with a small engine-metadata dict, in a
single file that ``SegmentDatabase.open()`` can restore without ever
touching the builder.

File layout (all integers big-endian)::

    offset  size  field
    0       8     magic  b"REPROSNP"
    8       4     format version (5; no other version reads)
    12      8     payload length in bytes
    20      4     CRC32 of the payload bytes
    24      ...   payload: pickle((meta, B, next_id, pages))

``pages`` lists ``(page_id, fingerprint, blob)`` in ascending page id
order, each ``blob`` the pickle of one page's ``(items, header)``.  Each
page is pickled on its own, so an item shared between pages is stored
once per page that holds it and decodes as equal copies.  Content
equality, and with it every answer and per-query I/O count, is
unaffected.

Verification has two independent layers: the file CRC catches
truncation and bit rot in the container; per-page fingerprints
(:func:`~repro.iosim.faults.page_fingerprint`, the same checksum the
fault layer maintains at rest) catch anything that slipped through, or
a blob that decoded into different content.  Every pickle is read by
:func:`restricted_loads`, and every failure mode — an unknown version
included — raises a typed
:class:`~repro.iosim.errors.SnapshotFormatError`.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import struct
import zlib
from typing import Any, Dict, Tuple, Union

from .disk import BlockDevice
from .errors import SnapshotFormatError
from .faults import page_fingerprint
from .page import Page

MAGIC = b"REPROSNP"
FORMAT_VERSION = 5
_HEADER = struct.Struct(">8sIQI")  # magic, version, payload length, CRC32

#: The only globals snapshot payloads and serving frames may resolve:
#: this library's value types, the flat-segment reconstructor and
#: ``Fraction``.  Payloads never need anything else, so any other
#: global in a stream is damage or an attack, not data.  Never admit a
#: whole module: ``builtins`` holds ``eval`` and ``repro`` holds
#: functions that write files, and unpickling calls what it resolves.
ALLOWED_GLOBALS = frozenset({
    ("fractions", "Fraction"),
    ("repro.geometry.point", "Point"),
    ("repro.geometry.segment", "Segment"),
    ("repro.geometry.segment", "_restore_segment"),
    ("repro.geometry.query", "VerticalQuery"),
    ("repro.geometry.linebased", "LineBasedSegment"),
    ("repro.core.solution2.gtree", "GEntry"),
    ("repro.core.solution2.slabs", "LongFragment"),
})


class RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) in ALLOWED_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"payload references forbidden global {module}.{name}"
        )


def restricted_loads(payload: Union[bytes, memoryview]):
    """Unpickle ``payload``, resolving only :data:`ALLOWED_GLOBALS`."""
    return RestrictedUnpickler(io.BytesIO(payload)).load()


def write_atomically(path: str, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` so that ``path`` holds either its old
    content or all of the new, whatever stops the write.

    The chunks go to a temporary file beside ``path``, which is flushed,
    fsynced and renamed over ``path``; on any exception it is removed.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_device(path: str, device: BlockDevice, meta: Dict[str, Any]) -> int:
    """Serialize ``device``'s live pages plus ``meta`` to ``path``.

    ``meta`` is the caller's engine metadata (engine name, root page ids,
    segment count, ...); it must be picklable and is returned verbatim by
    :func:`load_device`.  Returns the number of bytes written.
    """
    pages = sorted(device.iter_pages(), key=lambda p: p.page_id)
    entries = [(p.page_id, page_fingerprint(p),
                pickle.dumps((p.items, p.header), pickle.HIGHEST_PROTOCOL))
               for p in pages]
    payload = pickle.dumps(
        (meta, device.block_capacity, device._next_id, entries),
        pickle.HIGHEST_PROTOCOL)
    write_atomically(path, _HEADER.pack(MAGIC, FORMAT_VERSION, len(payload),
                                        zlib.crc32(payload)), payload)
    return _HEADER.size + len(payload)


def _read_payload(path: str) -> bytes:
    """Read and container-verify a snapshot file; returns its payload.

    Verification order: magic → version → payload length → file CRC.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise SnapshotFormatError(path, "file shorter than the header")
            magic, version, length, crc = _HEADER.unpack(header)
            if magic != MAGIC:
                raise SnapshotFormatError(
                    path, f"bad magic {magic!r} (not a repro snapshot)"
                )
            if version != FORMAT_VERSION:
                raise SnapshotFormatError(
                    path,
                    f"unsupported format version {version} "
                    f"(this build reads version {FORMAT_VERSION} only)",
                )
            payload = fh.read(length + 1)
    except OSError as exc:
        raise SnapshotFormatError(path, f"unreadable: {exc}") from exc
    if len(payload) != length:
        raise SnapshotFormatError(
            path,
            f"payload truncated or padded: expected {length} bytes, "
            f"found {len(payload)}",
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotFormatError(path, "payload CRC mismatch (corrupt file)")
    return payload


def load_device(path: str) -> Tuple[BlockDevice, Dict[str, Any]]:
    """Restore ``(device, meta)`` from a snapshot written by
    :func:`save_device`.

    Any damage raises :class:`SnapshotFormatError`, naming the page where
    there is one; a clean load returns a fresh :class:`BlockDevice` with
    zeroed I/O counters (restoring a snapshot is free in the cost model,
    like ``bulk_load``'s post-build reset).
    """
    payload = _read_payload(path)
    try:
        outer = restricted_loads(payload)
    except Exception as exc:
        raise SnapshotFormatError(path, f"undecodable payload: {exc}") from exc
    del payload  # the file bytes are not needed to decode the pages
    if not (type(outer) is tuple and len(outer) == 4
            and all(map(isinstance, outer, (dict, int, int, list)))):
        raise SnapshotFormatError(
            path, "payload is not (meta, block capacity, next page id, pages)")
    meta, capacity, next_id, entries = outer
    device = BlockDevice(capacity)
    pages = device._pages
    # Pop the entries in id order, so each blob is freed once its page
    # is decoded: peak memory stays near one copy of the store.
    entries.reverse()
    while entries:
        entry = entries.pop()
        if not (type(entry) is tuple and len(entry) == 3
                and all(map(isinstance, entry, (int, int, bytes)))):
            raise SnapshotFormatError(
                path, f"page entry {len(pages)} is not "
                      f"(page id, fingerprint, blob)")
        pid, fingerprint, blob = entry
        if pid in pages:
            raise SnapshotFormatError(path, f"page {pid}: duplicate entry")
        page = Page(pid, capacity)
        try:
            page.items, page.header = restricted_loads(blob)
            intact = page_fingerprint(page) == fingerprint
        except Exception as exc:
            raise SnapshotFormatError(
                path, f"page {pid}: undecodable blob: {exc}") from exc
        if not intact:
            raise SnapshotFormatError(path, f"page {pid}: checksum mismatch")
        pages[pid] = page
    device._next_id = max(next_id, max(pages, default=-1) + 1)
    return device, meta
