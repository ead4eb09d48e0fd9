"""Flat page arenas: a whole page store as one contiguous byte region.

The arena format applies the external-memory discipline of the related
DAM-structure work (Iacono–Karsin–Koumoutsos) to the snapshot itself:
all pages are serialized into one contiguous region fronted by a
fixed-width offset/length/fingerprint table, so a reader can

* parse the table in O(1) — a 40-byte header and a table slice, no
  per-page work;
* decode any single page independently — each page is its own pickle,
  addressed by ``(offset, length)`` and verified against the same
  :func:`~repro.iosim.faults.page_fingerprint` the fault layer keeps at
  rest.

Layout (all integers big-endian, offsets relative to arena start)::

    offset  size  field
    0       8     magic  b"RPRARENA"
    8       4     arena version (3; no other version reads)
    12      4     block capacity (the paper's B)
    16      8     allocator cursor (next page id)
    24      8     page count P
    32      8     meta length M
    40      M     pickled metadata dict
    40+M    28*P  page table, ascending page id:
                    id (8) | offset (8) | length (8) | fingerprint (4)
    ...           page blobs, back to back: each is
                  ``pickle((items, header))`` and nothing else

Every malformed-input path raises a typed
:class:`~repro.iosim.errors.SnapshotFormatError` — truncation, a table
entry pointing past the payload, a fingerprint mismatch — never a bare
``struct`` or ``pickle`` error.  :meth:`ArenaView.materialize` decodes
every page into a :class:`~repro.iosim.disk.BlockDevice`; that is how
``SegmentDatabase.open`` reads a snapshot.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Any, Dict, List, Optional, Tuple, Union

from .disk import BlockDevice
from .errors import SnapshotFormatError
from .faults import page_fingerprint
from .page import Page

ARENA_MAGIC = b"RPRARENA"
#: the one arena version this build writes and reads
ARENA_VERSION = 3

#: magic, version, block capacity, next page id, page count, meta length
_ARENA_HEADER = struct.Struct(">8sIIQQQ")
#: page id, offset, length, fingerprint
_TABLE_ENTRY = struct.Struct(">QQQI")


# ----------------------------------------------------------------------
# restricted unpickling (shared with the snapshot container)
# ----------------------------------------------------------------------
#: The only globals arena/snapshot payloads and serving frames may
#: resolve: this library's value types, the flat-segment reconstructor
#: and ``Fraction``.  Payloads never need anything else, so any other
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


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def build_arena(device: BlockDevice, meta: Dict[str, Any]) -> bytes:
    """Serialize ``device``'s live pages plus ``meta`` into one arena.

    Pages are laid out in ascending id order; the table is fixed-width so
    a reader can binary-search it without decoding anything.  Each page
    is encoded independently: items shared *between* pages are
    duplicated on decode (identity within a page is preserved).  Content
    equality — and therefore results and per-query I/O — is unaffected.
    """
    pages = sorted(device.iter_pages(), key=lambda p: p.page_id)
    meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    blobs = [pickle.dumps((p.items, p.header), protocol=pickle.HIGHEST_PROTOCOL)
             for p in pages]
    table_size = _TABLE_ENTRY.size * len(pages)
    out = bytearray()
    out += _ARENA_HEADER.pack(ARENA_MAGIC, ARENA_VERSION,
                              device.block_capacity, device._next_id,
                              len(pages), len(meta_blob))
    out += meta_blob
    offset = _ARENA_HEADER.size + len(meta_blob) + table_size
    for page, blob in zip(pages, blobs):
        out += _TABLE_ENTRY.pack(page.page_id, offset, len(blob),
                                 page_fingerprint(page))
        offset += len(blob)
    for blob in blobs:
        out += blob
    return bytes(out)


# ----------------------------------------------------------------------
# zero-copy view
# ----------------------------------------------------------------------
class ArenaView:
    """A parsed arena over a buffer the caller owns (bytes or memoryview).

    Construction is O(1) in the number of pages: it validates the header
    and the table *bounds*, never touching a page blob.  Page content is
    decoded on demand by :meth:`decode_page`, which verifies the entry's
    fingerprint — so even a lazy consumer never trusts a damaged page.

    Slicing a ``memoryview`` buffer is zero-copy; call :meth:`release`
    before the owner of the buffer frees it (exported views keep it
    alive).
    """

    __slots__ = ("source", "_buf", "block_capacity", "next_id",
                 "page_count", "_meta_blob", "_table", "_entries", "_meta")

    def __init__(self, buf: Union[bytes, memoryview], source: str = "<arena>"):
        self.source = source
        self._buf = memoryview(buf)
        n = len(self._buf)
        if n < _ARENA_HEADER.size:
            raise SnapshotFormatError(
                source, f"arena truncated: {n} bytes is shorter than the "
                        f"{_ARENA_HEADER.size}-byte header")
        magic, version, capacity, next_id, count, meta_len = (
            _ARENA_HEADER.unpack_from(self._buf, 0))
        if magic != ARENA_MAGIC:
            raise SnapshotFormatError(
                source, f"bad arena magic {bytes(magic)!r}")
        if version != ARENA_VERSION:
            raise SnapshotFormatError(
                source, f"unsupported arena version {version} (this build "
                        f"reads version {ARENA_VERSION} only)")
        table_start = _ARENA_HEADER.size + meta_len
        data_start = table_start + _TABLE_ENTRY.size * count
        if data_start > n:
            raise SnapshotFormatError(
                source, f"arena truncated: header promises {count} table "
                        f"entries and {meta_len} meta bytes but only "
                        f"{n} bytes exist")
        self.block_capacity = capacity
        self.next_id = next_id
        self.page_count = count
        self._meta_blob = self._buf[_ARENA_HEADER.size:table_start]
        self._table = self._buf[table_start:data_start]
        # {page_id: (offset, length, fingerprint)} — bounds-checked once
        # here so decode_page never has to re-validate.
        self._entries: Dict[int, Tuple[int, int, int]] = {}
        for i in range(count):
            pid, offset, length, crc = _TABLE_ENTRY.unpack_from(
                self._table, i * _TABLE_ENTRY.size)
            if offset < data_start or offset + length > n:
                raise SnapshotFormatError(
                    source, f"page {pid}: table entry points past the "
                            f"payload (offset {offset}, length {length}, "
                            f"arena {n} bytes)")
            if pid in self._entries:
                raise SnapshotFormatError(
                    source, f"page {pid}: duplicate table entry")
            self._entries[pid] = (offset, length, crc)
        self._meta: Optional[Dict[str, Any]] = None

    @property
    def meta(self) -> Dict[str, Any]:
        """The engine metadata dict (decoded once, cached)."""
        if self._meta is None:
            try:
                self._meta = restricted_loads(self._meta_blob)
            except Exception as exc:
                raise SnapshotFormatError(
                    self.source, f"undecodable arena metadata: {exc}"
                ) from exc
            if not isinstance(self._meta, dict):
                raise SnapshotFormatError(
                    self.source,
                    f"arena metadata is {type(self._meta).__name__}, "
                    f"not a dict")
        return self._meta

    @property
    def page_ids(self) -> List[int]:
        return sorted(self._entries)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._entries

    def decode_page(self, page_id: int) -> Page:
        """Decode one page, verifying its table fingerprint.

        Raises :class:`SnapshotFormatError` on an unknown id, an
        undecodable blob, or content that no longer matches the
        fingerprint recorded at build time.
        """
        try:
            offset, length, expected = self._entries[page_id]
        except KeyError:
            raise SnapshotFormatError(
                self.source, f"page {page_id}: not in the arena table"
            ) from None
        try:
            items, header = restricted_loads(self._buf[offset:offset + length])
        except Exception as exc:
            raise SnapshotFormatError(
                self.source, f"page {page_id}: undecodable blob: {exc}"
            ) from exc
        page = Page(page_id, self.block_capacity)
        page.items = items
        page.header = header
        if page_fingerprint(page) != expected:
            raise SnapshotFormatError(
                self.source, f"page {page_id}: checksum mismatch")
        return page

    def materialize(self) -> BlockDevice:
        """Eagerly decode every page into a fresh :class:`BlockDevice`.

        This is the single-process open path (``load_device``), every
        fingerprint verified up front.
        """
        device = BlockDevice(self.block_capacity)
        for page_id in self.page_ids:
            device._pages[page_id] = self.decode_page(page_id)
        device._next_id = max(self.next_id,
                              max(device._pages, default=-1) + 1)
        return device

    def release(self) -> None:
        """Drop every buffer slice this view holds.

        Decoded pages are unpickled copies and hold no view into the
        buffer; a slice still referenced elsewhere (an exception's
        traceback, say) makes a release refuse with ``BufferError``,
        which is swallowed rather than crashing teardown — the mapping
        stays until that reference goes.
        """
        for view in (self._meta_blob, self._table, self._buf):
            try:
                view.release()
            except BufferError:
                pass
