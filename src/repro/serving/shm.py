"""POSIX shared-memory transport for shard arenas.

The pickle transport re-serializes nothing per batch, but every worker
still pays a full ``SegmentDatabase.open()`` — an O(shard) unpickle —
on first touch of each shard, and one process's decode work helps no
other process.  The arena format removes that tax: the parent maps each
shard's container-verified arena (:func:`~repro.iosim.read_arena`) into
one :mod:`multiprocessing.shared_memory` segment, and every worker
attaches in O(1), slicing pages zero-copy through an
:class:`~repro.iosim.ArenaView` over the segment's buffer.

Ownership protocol:

* the **parent** creates the segments (one per shard, sized exactly to
  the arena) and is the only process that ever ``unlink``s them —
  on pool shutdown or parent exit (the stdlib resource tracker backstops
  a parent that dies without cleanup);
* **workers** attach by name, *untracked* — Python's resource tracker
  would otherwise unlink a segment when the first worker exits,
  destroying it for the parent and every sibling (bpo-39959); on 3.13+
  we pass ``track=False``, earlier versions unregister after attach;
* a worker that crashes mid-batch leaks nothing: the OS drops its
  mapping, and the parent's unlink removes the name.

Segment names are deterministic — a digest of the snapshot's absolute
path plus the shard index — so a segment leaked by a crashed *parent*
(SIGKILL, no atexit) is found and reclaimed by the next pool serving
the same snapshot, instead of accumulating in ``/dev/shm``.

Reclaim is guarded by a per-snapshot **owner lock** (an ``flock`` on a
deterministic lock file): only the pool holding the lock may use the
deterministic names and reclaim colliding segments.  Without the guard,
two pools starting concurrently over the same snapshot raced — the
second's "stale" reclaim unlinked segments the first had just created
and was actively serving from.  A pool that finds the lock held falls
back to unique (pid-suffixed) segment names and never reclaims
anything.  ``flock`` rather than an ``O_EXCL`` probe file because the
kernel releases the lock when the owner dies — including SIGKILL — so a
crashed owner cannot leave a stale lock that blocks every future pool,
which is exactly the failure mode O_EXCL lock files have.  The empty
lock files themselves are never unlinked (removing one while a peer
holds its flock would let a third pool lock a fresh inode at the same
path and reintroduce the two-owners race); they are zero bytes,
deterministic, and bounded by the number of distinct snapshots.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import List, Optional, Sequence, Tuple

from ..iosim import ArenaView
from ..iosim.snapshot import read_arena

try:  # absent on platforms without POSIX shm (then transport="pickle")
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exercised only on exotic builds
    resource_tracker = None
    shared_memory = None

try:  # POSIX-only; on other platforms pools never reclaim (safe default)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None


def shm_available() -> bool:
    """Whether this platform can serve through shared memory."""
    return shared_memory is not None


def segment_name(snapshot_path: str, shard_index: int) -> str:
    """Deterministic shm segment name for one shard of one snapshot.

    Deterministic on purpose: a stale segment left by a crashed parent
    collides with the next pool's create, which reclaims it (see
    :func:`create_segment`).  Kept short — POSIX caps shm names well
    below filesystem limits on some platforms.
    """
    digest = hashlib.sha256(
        os.path.abspath(snapshot_path).encode()
    ).hexdigest()[:12]
    return f"rpr-{digest}-{shard_index}"


def owner_lock_path(snapshot_path: str) -> str:
    """The lock file whose ``flock`` holder owns this snapshot's
    deterministic segment names."""
    digest = hashlib.sha256(
        os.path.abspath(snapshot_path).encode()
    ).hexdigest()[:12]
    return os.path.join(tempfile.gettempdir(), f"rpr-{digest}.lock")


def acquire_owner_lock(snapshot_path: str) -> Optional[int]:
    """Try to become the owning pool for one snapshot's segments.

    Returns an open fd holding an exclusive non-blocking ``flock`` —
    kept for the pool's lifetime, auto-released by the kernel on any
    exit including SIGKILL — or ``None`` when a live owner exists (or
    the platform has no ``flock``), in which case the caller must use
    unique segment names and must not reclaim.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        return None
    fd = os.open(owner_lock_path(snapshot_path),
                 os.O_CREAT | os.O_RDWR, 0o600)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        os.close(fd)
        return None
    return fd


def release_owner_lock(fd: Optional[int]) -> None:
    """Release a lock from :func:`acquire_owner_lock` (idempotent-safe
    for ``None``).  Closing the fd drops the flock; the lock file stays
    (see the module docstring for why unlinking it would be a bug)."""
    if fd is None:
        return
    try:
        os.close(fd)
    except OSError:  # pragma: no cover - already closed
        pass


def attach_segment(name: str):
    """Attach to an existing segment without resource-tracker ownership.

    Attaching must never make this process responsible for the segment's
    lifetime: before 3.13 (``track=False``), plain attach *registers*
    the name with the session's resource tracker (bpo-39959), and the
    tracker's cache is shared — an unregister from a worker silently
    cancels the parent's registration for the same name, and an exiting
    worker's tracker would unlink the segment under every sibling.  So
    on older Pythons the registration is suppressed at the source.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def create_segment(name: str, size: int, allow_reclaim: bool = True):
    """Create a segment, reclaiming a stale one left by a dead parent.

    ``allow_reclaim=True`` requires the caller to hold the snapshot's
    owner lock: a colliding name then provably belongs to a dead pool
    (a live one would hold the lock) and is destroyed and recreated.
    Callers without the lock pass ``allow_reclaim=False`` — their names
    are unique by construction, so a collision is a real error, not
    staleness.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        if not allow_reclaim:
            raise
        stale = attach_segment(name)
        stale.close()
        try:
            # Balance the unlink's tracker unregister (the stale name
            # belongs to a dead process, so nobody has it registered).
            resource_tracker.register(stale._name, "shared_memory")
            stale.unlink()
        except FileNotFoundError:  # lost a race with another reclaimer
            pass
        return shared_memory.SharedMemory(name=name, create=True, size=size)


class SharedShardArenas:
    """Parent-owned shm segments holding one arena per shard.

    ``descriptors`` — ``[(segment_name, arena_size), ...]`` by shard
    index — is the only thing workers need (the segment may be page-
    rounded, so the exact arena size travels with the name).  The parent
    must call :meth:`unlink` exactly once when serving ends.
    """

    def __init__(self, segments: List, descriptors: List[Tuple[str, int]],
                 lock_fds: Optional[List[int]] = None):
        self._segments = segments
        self.descriptors = descriptors
        self._lock_fds = list(lock_fds or [])

    @classmethod
    def create(cls, shard_paths: Sequence[str]) -> "SharedShardArenas":
        """Map every shard snapshot's arena into its own segment.

        Each path is read through :func:`~repro.iosim.read_arena`, so a
        damaged or unsupported file fails *here*, in the process that
        owns it — workers only ever see container-verified bytes.

        Per shard path, the owner lock decides the naming scheme: lock
        acquired → deterministic name, stale collisions reclaimed; lock
        held elsewhere (a live pool is serving the same snapshot) →
        pid-suffixed unique name, no reclaim.  Workers are indifferent —
        they attach by whatever name the descriptor carries.
        """
        if not shm_available():  # pragma: no cover - platform-dependent
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; use transport='pickle'"
            )
        segments: List = []
        descriptors: List[Tuple[str, int]] = []
        lock_fds: List[int] = []
        try:
            for index, path in enumerate(shard_paths):
                arena = read_arena(path)
                lock_fd = acquire_owner_lock(path)
                if lock_fd is not None:
                    lock_fds.append(lock_fd)
                    name = segment_name(path, index)
                else:
                    name = f"{segment_name(path, index)}-{os.getpid()}"
                shm = create_segment(name, len(arena),
                                     allow_reclaim=lock_fd is not None)
                shm.buf[: len(arena)] = arena
                segments.append(shm)
                descriptors.append((shm.name, len(arena)))
        except BaseException:
            for shm in segments:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
            for fd in lock_fds:
                release_owner_lock(fd)
            raise
        return cls(segments, descriptors, lock_fds)

    @property
    def total_bytes(self) -> int:
        return sum(size for _name, size in self.descriptors)

    def unlink(self) -> None:
        """Close and destroy every segment (idempotent), then release
        the owner locks so the next pool over this snapshot can claim
        the deterministic names."""
        segments, self._segments = self._segments, []
        for shm in segments:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        lock_fds, self._lock_fds = self._lock_fds, []
        for fd in lock_fds:
            release_owner_lock(fd)


class AttachedArena:
    """One worker's zero-copy view of a shard arena.

    Owns the attach-side resources in release order: the
    :class:`~repro.iosim.ArenaView`'s exported slices, the sized
    buffer slice, then the segment handle — a segment cannot close while
    any memoryview over it is alive.
    """

    def __init__(self, name: str, size: int, source: str):
        self._shm = attach_segment(name)
        self._buf = self._shm.buf[:size]
        try:
            self.view = ArenaView(self._buf, source=source)
        except BaseException:
            self._buf.release()
            self._shm.close()
            raise

    def close(self) -> None:
        """Detach (idempotent-ish).  Decoded pages are unpickled copies,
        so no page holds a view into the buffer; a slice still referenced
        elsewhere (an exception's traceback, say) keeps the mapping
        pinned, so a refusing ``release`` is tolerated — the mapping
        falls away when that reference dies."""
        self.view.release()
        try:
            self._buf.release()
            self._shm.close()
        except BufferError:
            pass
