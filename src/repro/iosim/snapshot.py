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
    8       4     format version (4; no other version reads)
    12      8     payload length in bytes
    20      4     CRC32 of the payload bytes
    24      ...   payload: a flat page arena

The payload is a *flat page arena* (:mod:`repro.iosim.arena`): one
contiguous region with a fixed-width offset/length/fingerprint table,
each page an independent blob; ``load_device`` decodes it eagerly.

Verification has two independent layers: the file CRC catches
truncation and bit rot in the container; per-page fingerprints
(:func:`~repro.iosim.faults.page_fingerprint`, the same checksum the
fault layer maintains at rest) catch anything that slipped through, or
a blob that decoded into different content.  Every failure mode — an
unknown container or arena version included — raises a typed
:class:`~repro.iosim.errors.SnapshotFormatError`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, Tuple

from .arena import ArenaView, build_arena
from .disk import BlockDevice
from .errors import SnapshotFormatError

MAGIC = b"REPROSNP"
FORMAT_VERSION = 4
_HEADER = struct.Struct(">8sIQI")  # magic, version, payload length, CRC32


def save_device(path: str, device: BlockDevice, meta: Dict[str, Any]) -> int:
    """Serialize ``device``'s live pages plus ``meta`` to ``path``.

    ``meta`` is the caller's engine metadata (engine name, root page ids,
    segment count, ...); it must be picklable and is returned verbatim by
    :func:`load_device`.  Returns the number of bytes written.
    """
    payload = build_arena(device, meta)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(payload),
                              zlib.crc32(payload)))
        fh.write(payload)
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

    Any damage raises :class:`SnapshotFormatError`; a clean load returns
    a fresh :class:`BlockDevice` with zeroed I/O counters (restoring a
    snapshot is free in the cost model, like ``bulk_load``'s post-build
    reset).
    """
    view = ArenaView(_read_payload(path), source=path)
    device = view.materialize()
    return device, view.meta
