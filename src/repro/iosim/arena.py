"""Flat page arenas: a whole page store as one contiguous byte region.

The PR 5 snapshot pickles every page into a single object graph, which
makes *opening* a snapshot an O(n) deserialization — fine for one
process, fatal for a worker pool where every process pays it again (the
E17 serving cliff).  The arena format applies the external-memory
discipline of the related DAM-structure work (Iacono–Karsin–Koumoutsos)
to the transfer path itself: the layout on the wire *is* the layout in
memory.  All pages are serialized into one contiguous region fronted by
a fixed-width offset/length/fingerprint table, so a consumer can

* attach in O(1) — parse a 40-byte header and slice a table, no
  per-page work;
* decode any single page independently — each page is its own pickle,
  addressed by ``(offset, length)`` and verified against the same
  :func:`~repro.iosim.faults.page_fingerprint` the fault layer keeps at
  rest;
* share the region across processes — the arena is plain bytes, so one
  copy in :mod:`multiprocessing.shared_memory` serves any number of
  workers through zero-copy ``memoryview`` slices.

Layout (all integers big-endian, offsets relative to arena start)::

    offset  size  field
    0       8     magic  b"RPRARENA"
    8       4     arena version (currently 2; 1 still reads)
    12      4     block capacity (the paper's B)
    16      8     allocator cursor (next page id)
    24      8     page count P
    32      8     meta length M
    40      M     pickled metadata dict
    40+M    28*P  page table, ascending page id:
                    id (8) | offset (8) | length (8) | fingerprint (4)
    ...           page blobs (8-aligned in version 2)

A version-1 page blob is ``pickle((items, header))`` and nothing else.
A version-2 blob prefixes that pickle with a *columnar sidecar* so a
shm worker can attach the page's scan columns (see
:mod:`repro.geometry.kernels`) zero-copy, without rebuilding them from
the decoded Python objects::

    offset  size       field
    0       16         sidecar header: kind (1) | reserved (1) |
                       rows (2) | ncols (4) | pickle length (8)
    16      8*R*C      float64 column matrix, row-major, little-endian
    16+F    R..2R      per-row flag bytes (valid; + vertical for kind 1)
    ...                pickle of (items, header)

``kind`` is 0 (no sidecar: rows and ncols are then 0), 1 (plane
segments: the 8 ``segment_fp`` columns + valid/vertical flags), 2
(line-based PST rows: the 6 ``lb_fp`` columns + valid) or 3 (G-tree
key rows: 8 endpoint-ball columns + valid).  The table fingerprint
still covers the decoded ``(items, header)`` content only — the
sidecar is derived data, and a decoder is always free to ignore it.

Every malformed-input path raises a typed
:class:`~repro.iosim.errors.SnapshotFormatError` — truncation, a table
entry pointing past the payload, a fingerprint mismatch — never a bare
``struct`` or ``pickle`` error.

:class:`ArenaBlockDevice` is the lazy consumer: a
:class:`~repro.iosim.disk.BlockDevice` whose pages materialize from the
arena on first read, held in a bounded decoded-page LRU so a warm
worker's repeated batches hit live objects while cold pages cost one
decode each.  Pages mutated after decode (writes, allocations) are
pinned resident — the arena is immutable, so evicting a dirty page
would silently lose the write.
"""

from __future__ import annotations

import io
import pickle
import struct
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from .disk import BlockDevice
from .errors import SnapshotFormatError
from .faults import page_fingerprint
from .page import Page

ARENA_MAGIC = b"RPRARENA"
ARENA_VERSION = 2
#: versions this build can read (writes are always ARENA_VERSION)
SUPPORTED_ARENA_VERSIONS = (1, 2)

#: magic, version, block capacity, next page id, page count, meta length
_ARENA_HEADER = struct.Struct(">8sIIQQQ")
#: page id, offset, length, fingerprint
_TABLE_ENTRY = struct.Struct(">QQQI")
#: v2 per-blob sidecar header: kind, reserved, rows, ncols, pickle length
_BLOB_HEADER = struct.Struct(">BBHIQ")

#: sidecar kinds (see the module docstring)
KIND_NONE, KIND_SEG, KIND_LB, KIND_GKEY = 0, 1, 2, 3
#: kind -> (page-cache tag, float columns, flag columns)
_KIND_SPECS = {
    KIND_SEG: ("seg", 8, 2),     # valid + vertical
    KIND_LB: ("lb", 6, 1),       # valid
    KIND_GKEY: ("gkey", 8, 1),   # valid
}


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
    ("repro.core.recovery", "DegradedResult"),
    ("repro.core.recovery", "DegradedBatch"),
    ("repro.iosim.stats", "IOStats"),
    ("repro.telemetry.explain", "ExplainReport"),
    ("repro.telemetry.explain", "PhaseStats"),
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
def _sidecar_columns(page: Page):
    """``(kind, columns)`` for a page whose payload has a columnar mirror.

    Kind detection happens at *encode* time by item type, so the arena
    builder needs no cooperation from the engines.  Imports are lazy:
    ``iosim`` must not import ``core`` at module level (``gtree`` imports
    from ``iosim``).
    """
    from ..geometry import kernels

    items = page.items
    if (not kernels.HAVE_NUMPY or len(items) < kernels.SIDECAR_MIN_ROWS
            or len(items) > 0xFFFF):
        return KIND_NONE, None
    from ..geometry.linebased import LineBasedSegment
    from ..geometry.segment import Segment

    first = items[0]
    try:
        if isinstance(first, Segment):
            if all(isinstance(s, Segment) for s in items):
                return KIND_SEG, kernels.segment_columns(page, items)
        elif isinstance(first, LineBasedSegment):
            if all(isinstance(s, LineBasedSegment) for s in items):
                return KIND_LB, kernels.lb_columns(page, items)
        elif (isinstance(first, tuple) and len(first) == 2
              and isinstance(first[0], tuple) and len(first[0]) == 5):
            from ..core.solution2.gtree import GEntry

            if all(isinstance(e, tuple) and len(e) == 2
                   and isinstance(e[1], GEntry) for e in items):
                return KIND_GKEY, kernels.gkey_columns(page, items)
    except Exception:
        # A sidecar is an optimization, never a correctness requirement:
        # any build hiccup just means this page ships without one.
        return KIND_NONE, None
    return KIND_NONE, None


def encode_page(page: Page) -> bytes:
    """One page's independent v2 blob: sidecar header [+ columns] + pickle."""
    payload = pickle.dumps((page.items, page.header),
                           protocol=pickle.HIGHEST_PROTOCOL)
    kind, cols = _sidecar_columns(page)
    if kind == KIND_NONE:
        return _BLOB_HEADER.pack(KIND_NONE, 0, 0, 0, len(payload)) + payload
    import numpy as np

    _tag, ncols, nflags = _KIND_SPECS[kind]
    mat = np.ascontiguousarray(cols.fp_matrix(), dtype="<f8")
    flags = [np.ascontiguousarray(cols.valid, dtype=np.bool_)]
    if kind == KIND_SEG:
        flags.append(np.ascontiguousarray(cols.vertical, dtype=np.bool_))
    assert len(flags) == nflags and mat.shape == (cols.n, ncols)
    out = bytearray()
    out += _BLOB_HEADER.pack(kind, 0, cols.n, ncols, len(payload))
    out += mat.tobytes()
    for flag in flags:
        out += flag.tobytes()
    out += payload
    return bytes(out)


def build_arena(device: BlockDevice, meta: Dict[str, Any]) -> bytes:
    """Serialize ``device``'s live pages plus ``meta`` into one arena.

    Pages are laid out in ascending id order; the table is fixed-width so
    a reader can binary-search it without decoding anything.  Unlike the
    v1 object-graph pickle, each page is encoded independently: items
    shared *between* pages are duplicated on decode (identity within a
    page is preserved).  Content equality — and therefore results and
    per-query I/O — is unaffected.
    """
    pages = sorted(device.iter_pages(), key=lambda p: p.page_id)
    meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    blobs = [encode_page(p) for p in pages]
    table_size = _TABLE_ENTRY.size * len(pages)
    data_start = _ARENA_HEADER.size + len(meta_blob) + table_size
    out = bytearray()
    out += _ARENA_HEADER.pack(ARENA_MAGIC, ARENA_VERSION,
                              device.block_capacity, device._next_id,
                              len(pages), len(meta_blob))
    out += meta_blob
    # Each blob starts 8-aligned so a sidecar's float64 matrix (16 bytes
    # into the blob) can be attached as an aligned zero-copy array.
    offset = data_start
    pads = []
    for page, blob in zip(pages, blobs):
        pad = (-offset) % 8
        offset += pad
        pads.append(pad)
        out += _TABLE_ENTRY.pack(page.page_id, offset, len(blob),
                                 page_fingerprint(page))
        offset += len(blob)
    for pad, blob in zip(pads, blobs):
        out += b"\x00" * pad
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

    When the buffer is a ``memoryview`` over shared memory, slicing is
    zero-copy; call :meth:`release` before closing the segment (exported
    views keep a POSIX shm mapping alive).
    """

    __slots__ = ("source", "_buf", "version", "block_capacity", "next_id",
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
        if version not in SUPPORTED_ARENA_VERSIONS:
            raise SnapshotFormatError(
                source, f"unsupported arena version {version} (this build "
                        f"reads versions "
                        f"{', '.join(map(str, SUPPORTED_ARENA_VERSIONS))})")
        self.version = version
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
        sidecar = None
        if self.version == 1:
            pickle_view = self._buf[offset:offset + length]
        else:
            pickle_view, sidecar = self._parse_sidecar(page_id, offset, length)
        try:
            items, header = restricted_loads(pickle_view)
        except SnapshotFormatError:
            raise
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
        if sidecar is not None:
            self._attach_columns(page, sidecar)
        return page

    def _parse_sidecar(self, page_id: int, offset: int, length: int):
        """Split a v2 blob into its pickle view and (optional) sidecar.

        The sidecar header is parsed and bounds-checked *before* anything
        is unpickled, so a damaged or hostile blob dies here with an
        "undecodable blob" error and never reaches the unpickler.
        """

        def bad(reason: str) -> SnapshotFormatError:
            return SnapshotFormatError(
                self.source, f"page {page_id}: undecodable blob: {reason}")

        if length < _BLOB_HEADER.size:
            raise bad(f"{length} bytes is shorter than the "
                      f"{_BLOB_HEADER.size}-byte sidecar header")
        kind, _reserved, rows, ncols, pickle_len = _BLOB_HEADER.unpack_from(
            self._buf, offset)
        if kind == KIND_NONE:
            if rows or ncols:
                raise bad(f"sidecar kind 0 with rows={rows} ncols={ncols}")
            mat_bytes = flag_bytes = 0
        elif kind in _KIND_SPECS:
            want_ncols, nflags = _KIND_SPECS[kind][1:]
            if ncols != want_ncols:
                raise bad(f"sidecar kind {kind} with {ncols} columns "
                          f"(expected {want_ncols})")
            mat_bytes = 8 * rows * ncols
            flag_bytes = nflags * rows
        else:
            raise bad(f"unknown sidecar kind {kind}")
        pickle_start = offset + _BLOB_HEADER.size + mat_bytes + flag_bytes
        if pickle_start + pickle_len != offset + length:
            raise bad(f"sidecar geometry (rows={rows}, ncols={ncols}, "
                      f"pickle {pickle_len} bytes) does not add up to the "
                      f"{length}-byte blob")
        pickle_view = self._buf[pickle_start:pickle_start + pickle_len]
        if kind == KIND_NONE:
            return pickle_view, None
        return pickle_view, (kind, rows, ncols, offset + _BLOB_HEADER.size)

    def _attach_columns(self, page: Page, sidecar) -> None:
        """Mirror the sidecar into ``page.cols`` as zero-copy views.

        Purely best-effort: without numpy, or if the decoded payload does
        not line up with the recorded row count, the page simply starts
        with a cold column cache (rebuilt lazily by the kernels).
        """
        from ..geometry import kernels

        if not kernels.HAVE_NUMPY:
            return
        kind, rows, ncols, mat_off = sidecar
        if rows != len(page.items):
            return
        import numpy as np

        mat = np.frombuffer(self._buf, dtype="<f8", count=rows * ncols,
                            offset=mat_off).reshape(rows, ncols)
        flags_off = mat_off + 8 * rows * ncols
        valid = np.frombuffer(self._buf, dtype=np.bool_, count=rows,
                              offset=flags_off)
        tag = _KIND_SPECS[kind][0]
        if kind == KIND_SEG:
            vertical = np.frombuffer(self._buf, dtype=np.bool_, count=rows,
                                     offset=flags_off + rows)
            cols = kernels.SegColumns.from_arrays(mat, valid, vertical)
        elif kind == KIND_LB:
            cols = kernels.LBColumns.from_arrays(mat, valid)
        else:
            cols = kernels.GKeyColumns.from_arrays(mat, valid)
        page.cols = (tag, cols)

    def materialize(self) -> BlockDevice:
        """Eagerly decode every page into a fresh :class:`BlockDevice`.

        This is the compatibility path (``load_device`` on a v2
        snapshot): same result as the v1 loader, every fingerprint
        verified up front.
        """
        device = BlockDevice(self.block_capacity)
        for page_id in self.page_ids:
            device._pages[page_id] = self.decode_page(page_id)
        device._next_id = max(self.next_id,
                              max(device._pages, default=-1) + 1)
        return device

    def release(self) -> None:
        """Drop every exported buffer slice (required before shm close).

        Pages decoded from a v2 arena hold zero-copy numpy views over the
        buffer; while any such page is alive the underlying buffer cannot
        be released — that is fine (the mapping stays until they go), so
        ``BufferError`` is swallowed rather than crashing teardown.
        """
        for view in (self._meta_blob, self._table, self._buf):
            try:
                view.release()
            except BufferError:
                pass


# ----------------------------------------------------------------------
# lazy device
# ----------------------------------------------------------------------
class ArenaBlockDevice(BlockDevice):
    """A block device decoding pages lazily out of an :class:`ArenaView`.

    The warm-worker serving device: attach is O(1), and each page is
    decoded from its arena slice on first read, then kept in a decoded-
    page LRU of ``cache_pages`` entries (``None`` = unbounded) so
    repeated batches against the same shard hit warm Python objects.
    Clean pages can always be re-decoded, so eviction is safe; pages
    that were written to (or freshly allocated) are pinned resident.

    I/O accounting is inherited unchanged from :class:`BlockDevice` —
    a lazily-decoded read charges exactly one read, like any other, so
    per-query I/O counts match an eagerly restored device exactly.
    """

    def __init__(self, view: ArenaView,
                 cache_pages: Optional[int] = None):
        if cache_pages is not None and cache_pages < 1:
            raise ValueError("cache_pages must be >= 1 (or None)")
        super().__init__(view.block_capacity)
        self._view = view
        self._next_id = view.next_id
        self._cache_pages = cache_pages
        #: ids present in the arena and not currently materialized
        self._lazy: Set[int] = set(view._entries)
        #: clean decoded ids in recency order (eviction candidates)
        self._clean_lru: "OrderedDict[int, None]" = OrderedDict()
        #: ids whose in-memory page diverged from the arena (never evict)
        self._dirty: Set[int] = set()
        self.decodes = 0   # arena blob decodes (cold + re-decode)
        self.evictions = 0

    # -- materialization ------------------------------------------------
    def _materialize(self, page_id: int) -> Page:
        page = self._view.decode_page(page_id)
        self.decodes += 1
        self._pages[page_id] = page
        self._lazy.discard(page_id)
        self._clean_lru[page_id] = None
        self._evict_over_budget()
        return page

    def _evict_over_budget(self) -> None:
        if self._cache_pages is None:
            return
        while len(self._clean_lru) > self._cache_pages:
            victim, _ = self._clean_lru.popitem(last=False)
            del self._pages[victim]
            self._lazy.add(victim)
            self.evictions += 1

    def _touch(self, page_id: int) -> None:
        if page_id in self._clean_lru:
            self._clean_lru.move_to_end(page_id)

    # -- BlockDevice surface --------------------------------------------
    def read(self, page_id: int) -> Page:
        if page_id not in self._pages and page_id in self._lazy:
            self._materialize(page_id)
        self._touch(page_id)
        return super().read(page_id)

    def write(self, page: Page) -> None:
        super().write(page)
        self._dirty.add(page.page_id)
        self._clean_lru.pop(page.page_id, None)

    def alloc(self) -> Page:
        page = super().alloc()
        self._dirty.add(page.page_id)
        return page

    def free(self, page_id: int) -> None:
        if page_id not in self._pages and page_id in self._lazy:
            # Freeing a page nobody ever decoded: no reason to decode it
            # just to throw it away.
            self._lazy.discard(page_id)
            self.frees += 1
            return
        super().free(page_id)
        self._clean_lru.pop(page_id, None)
        self._dirty.discard(page_id)

    @property
    def pages_in_use(self) -> int:
        return len(self._pages) + len(self._lazy)

    def iter_pages(self) -> Iterator[Page]:
        """Iterate live pages (decoding lazy ones without caching them)."""
        for page in list(self._pages.values()):
            yield page
        for page_id in sorted(self._lazy):
            yield self._view.decode_page(page_id)

    @property
    def resident_pages(self) -> int:
        """Pages currently decoded (the LRU working set + dirty pins)."""
        return len(self._pages)
