"""Fault injection for the simulated block device.

The paper analyses an idealized disk; real disks fail transiently, tear
writes, and rot at rest.  This module makes :class:`BlockDevice` lie in
all the ways a production disk does — reproducibly:

:class:`FaultSchedule`
    A seeded, deterministic source of faults.  Two identical schedules
    replayed over the same workload inject the same faults at the same
    I/Os, so every chaos failure ships with a reproduction recipe
    (``to_dict()`` → CI artifact → ``from_dict()``).

:class:`RetryPolicy`
    Bounded retries with deterministic backoff.  Each retry is a real
    read I/O (it is charged to ``reads`` like any other attempt), and the
    backoff is additionally charged to ``retry_penalty_ios`` so the cost
    of surviving a flaky disk is visible in ``io_report()``.

:class:`FaultyBlockDevice`
    A drop-in :class:`BlockDevice` that checksums every written page,
    verifies the checksum on every read, retries transient faults, and
    exposes an undo journal giving update operations all-or-nothing
    semantics (DESIGN.md §10).

Fault-free equivalence is a hard contract: with a schedule attached but
no faults firing, the device charges *bit-identical* I/O counts to the
plain :class:`BlockDevice` and returns identical results.  Everything in
this module that is not an injected fault must therefore be free in the
cost model (checksum verification models a CRC the disk computes inline;
journal bookkeeping models a change-log kept in NVRAM).
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from random import Random
from typing import Dict, List, Optional, Tuple

from ..telemetry import trace as _trace
from .disk import BlockDevice
from .errors import (
    ChecksumError,
    DanglingPageError,
    DoubleFreeError,
    SimulatedCrash,
    StorageError,
    TransientIOError,
)
from .page import Page


def page_fingerprint(page: Page) -> int:
    """A CRC32 over the page's logical content.

    Items and header values are fingerprinted via ``repr``; the header is
    sorted so dict order cannot change the checksum.
    """
    payload = repr((page.items, sorted(page.header.items())))
    return zlib.crc32(payload.encode("utf-8", "backslashreplace"))


class RetryPolicy:
    """How hard the device tries before surfacing a read fault.

    Parameters
    ----------
    max_retries:
        Retries after the first failed attempt (so a read costs at most
        ``1 + max_retries`` read I/Os).
    backoff_ios:
        Deterministic backoff charged per retry, in I/O-equivalents:
        retry *k* adds ``backoff_ios * k`` to ``retry_penalty_ios``.
        The paper's counters (``reads``/``writes``) are unaffected.
    """

    def __init__(self, max_retries: int = 3, backoff_ios: int = 0):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_ios < 0:
            raise ValueError("backoff_ios must be >= 0")
        self.max_retries = max_retries
        self.backoff_ios = backoff_ios

    def penalty(self, attempt: int) -> int:
        """Backoff charged for retry number ``attempt`` (1-based)."""
        return self.backoff_ios * attempt

    def to_dict(self) -> dict:
        return {"max_retries": self.max_retries, "backoff_ios": self.backoff_ios}

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(max_retries={self.max_retries}, "
            f"backoff_ios={self.backoff_ios})"
        )


class ReplayableSchedule:
    """Seed, history, and arming plumbing shared by every chaos schedule.

    A schedule is a deterministic source of fault decisions: identical
    seeds replay identical decisions over identical workloads, and every
    injected fault is appended to :attr:`history` so a failing run ships
    with its own reproduction recipe.  :class:`FaultSchedule` applies
    this to the storage layer; the serving layer's
    :class:`~repro.serving.resilience.RpcChaosSchedule` applies it to
    worker processes and RPC frames.
    """

    def __init__(self, seed: int = 0, enabled: bool = True):
        self.seed = seed
        self.enabled = enabled
        self.history: List[dict] = []
        self._rng = Random(seed)

    def _log(self, kind: str, **details) -> None:
        event = {"seq": len(self.history), "kind": kind}
        event.update(details)
        self.history.append(event)

    @contextmanager
    def disarmed(self):
        """Suspend fault injection for the scope (used during bulk_load)."""
        prev = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = prev


class FaultSchedule(ReplayableSchedule):
    """A seeded, replayable schedule of storage faults.

    Parameters
    ----------
    seed:
        Seeds the internal PRNG; identical seeds replay identical faults.
    read_error_rate:
        Probability that a read attempt fails transiently (a retry may
        succeed).
    corrupt_read_rate:
        Probability that a read attempt returns corrupted data in flight
        (detected by the checksum; a retry re-reads the good copy).
    torn_write_rate:
        Probability that a write is torn: the write I/O is charged but
        the stored page is left corrupt at rest until rewritten.
    crash_after_writes:
        Crash (``SimulatedCrash``) on the N-th journaled write of the
        next update operation, tearing that page.  One-shot; ``None``
        disarms.  Only fires while a journal is open — crashing a
        read-only query would have nothing to recover.
    crash_points:
        ``{name: k}`` — crash on the k-th time the named crash point in
        the engine code is passed (1-based).  One-shot per name.
    enabled:
        Master switch.  ``SegmentDatabase`` disarms the schedule during
        ``bulk_load`` so faults target the workload, not the build.

    Every injected fault is appended to :attr:`history`, so a failing
    chaos run can dump exactly what was injected and when.
    """

    def __init__(
        self,
        seed: int = 0,
        read_error_rate: float = 0.0,
        corrupt_read_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        crash_after_writes: Optional[int] = None,
        crash_points: Optional[Dict[str, int]] = None,
        enabled: bool = True,
    ):
        for name, rate in (
            ("read_error_rate", read_error_rate),
            ("corrupt_read_rate", corrupt_read_rate),
            ("torn_write_rate", torn_write_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        super().__init__(seed=seed, enabled=enabled)
        self.read_error_rate = read_error_rate
        self.corrupt_read_rate = corrupt_read_rate
        self.torn_write_rate = torn_write_rate
        self.crash_after_writes = crash_after_writes
        self.crash_points: Dict[str, int] = dict(crash_points or {})
        self._point_hits: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # fault decisions (called by FaultyBlockDevice)
    # ------------------------------------------------------------------
    def next_read_fault(self, page_id: int, attempt: int) -> Optional[str]:
        """``"transient"``, ``"corrupt"``, or ``None`` for this attempt."""
        if self.read_error_rate and self._rng.random() < self.read_error_rate:
            self._log("transient-read", page_id=page_id, attempt=attempt)
            return "transient"
        if self.corrupt_read_rate and self._rng.random() < self.corrupt_read_rate:
            self._log("corrupt-read", page_id=page_id, attempt=attempt)
            return "corrupt"
        return None

    def next_write_fault(self, page_id: int) -> Optional[str]:
        """``"torn"`` or ``None`` for this write."""
        if self.torn_write_rate and self._rng.random() < self.torn_write_rate:
            self._log("torn-write", page_id=page_id)
            return "torn"
        return None

    def should_crash_on_write(self, page_id: int) -> bool:
        """Count down ``crash_after_writes`` (journaled writes only)."""
        if self.crash_after_writes is None:
            return False
        self.crash_after_writes -= 1
        if self.crash_after_writes > 0:
            return False
        self.crash_after_writes = None
        self._log("crash-on-write", page_id=page_id)
        return True

    def hit_crash_point(self, name: str) -> bool:
        """Count a pass through the named crash point; True when it fires."""
        target = self.crash_points.get(name)
        if target is None:
            return False
        hits = self._point_hits.get(name, 0) + 1
        self._point_hits[name] = hits
        if hits < target:
            return False
        del self.crash_points[name]
        self._log("crash-point", name=name, hit=hits)
        return True

    # ------------------------------------------------------------------
    # reproduction
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The schedule's configuration plus everything it injected.

        ``from_dict`` of the configuration part rebuilds a schedule that
        replays the same faults over the same workload.
        """
        return {
            "seed": self.seed,
            "read_error_rate": self.read_error_rate,
            "corrupt_read_rate": self.corrupt_read_rate,
            "torn_write_rate": self.torn_write_rate,
            "crash_after_writes": self.crash_after_writes,
            "crash_points": dict(self.crash_points),
            "enabled": self.enabled,
            "history": list(self.history),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls(
            seed=data.get("seed", 0),
            read_error_rate=data.get("read_error_rate", 0.0),
            corrupt_read_rate=data.get("corrupt_read_rate", 0.0),
            torn_write_rate=data.get("torn_write_rate", 0.0),
            crash_after_writes=data.get("crash_after_writes"),
            crash_points=data.get("crash_points"),
            enabled=data.get("enabled", True),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultSchedule(seed={self.seed}, read_err={self.read_error_rate}, "
            f"corrupt={self.corrupt_read_rate}, torn={self.torn_write_rate}, "
            f"injected={len(self.history)})"
        )


# Pre-image of a page at the start of a journaled operation: enough to put
# content, checksum, and at-rest corruption marker back exactly.
_PreImage = Tuple[list, dict, Optional[int], Optional[str]]


class FaultyBlockDevice(BlockDevice):
    """A :class:`BlockDevice` with checksums, retries, faults and a journal.

    Checksums.  Every committed write stores a CRC32 of the page content;
    every read verifies it.  Corruption — injected in flight, at rest via
    :meth:`corrupt_page`, or left behind by a torn write — surfaces as
    :class:`ChecksumError` instead of a silently wrong answer.

    Retries.  Transient and in-flight faults are retried per the
    :class:`RetryPolicy`; every attempt is a charged read I/O.

    Journal.  ``with device.journaled():`` captures the pre-image of each
    page the operation touches (on first read/write/free) and defers
    frees.  A clean exit commits; an exception rolls back; a
    :class:`SimulatedCrash` leaves the journal dirty for an explicit
    ``rollback_journal()`` — exactly the recovery protocol
    ``SegmentDatabase.recover()`` drives (DESIGN.md §10).

    The journal's contract is the Pager's discipline: an operation
    *fetches* a page (through the device or buffer pool) before mutating
    it, so the pre-image is captured while the shared page object still
    holds pre-operation content.  A page mutated *before* the journaled
    scope opened cannot be restored — no engine does this (every
    ``Pager.operation()`` re-fetches what it touches).
    """

    def __init__(
        self,
        block_capacity: int,
        schedule: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(block_capacity)
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.retry = retry if retry is not None else RetryPolicy()
        self._fingerprints: Dict[int, int] = {}
        self._corrupt: Dict[int, str] = {}
        self.faults_injected = 0
        self.retries = 0
        self.retry_penalty_ios = 0
        self.checksum_failures = 0
        self.transient_failures = 0
        self.torn_writes = 0
        self.crashes = 0
        self._journal: Optional[Dict[int, Optional[_PreImage]]] = None
        self._journal_frees: Dict[int, Page] = {}
        self._needs_recovery = False

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self) -> Page:
        page = super().alloc()
        self._fingerprints[page.page_id] = page_fingerprint(page)
        if self._journal is not None and page.page_id not in self._journal:
            self._journal[page.page_id] = None  # born inside this operation
        return page

    def free(self, page_id: int) -> None:
        if self._journal is None:
            super().free(page_id)
            self._fingerprints.pop(page_id, None)
            self._corrupt.pop(page_id, None)
            return
        # Journaled free: defer the destruction so rollback can resurrect
        # the page, but make it unreachable immediately (reads must fail).
        page = self._pages.get(page_id)
        if page is None:
            raise DoubleFreeError(page_id)
        if page_id not in self._journal:
            self._journal[page_id] = self._pre_image(page_id, page)
        del self._pages[page_id]
        self.frees += 1
        self._journal_frees[page_id] = page

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> Page:
        page = self._pages.get(page_id)
        if page is None:
            raise DanglingPageError(page_id)
        schedule = self.schedule
        retry = self.retry
        attempt = 0
        while True:
            # Charge one read I/O per attempt — same accounting as the
            # base class, so a fault-free read is bit-identical in cost.
            self.reads += 1
            self._charge_tag(self.tag_reads)
            ctx = _trace._ACTIVE
            if ctx is not None:
                ctx.record_read()
            fault = (
                schedule.next_read_fault(page_id, attempt)
                if schedule.enabled
                else None
            )
            if fault is None:
                break
            self.faults_injected += 1
            if attempt < retry.max_retries:
                attempt += 1
                self.retries += 1
                self.retry_penalty_ios += retry.penalty(attempt)
                continue
            if fault == "transient":
                self.transient_failures += 1
                raise TransientIOError(page_id, attempts=attempt + 1)
            self.checksum_failures += 1
            raise ChecksumError(
                page_id, reason="in-flight corruption persisted across retries"
            )
        reason = self._corrupt.get(page_id)
        if reason is not None:
            self.checksum_failures += 1
            raise ChecksumError(page_id, reason=reason)
        expected = self._fingerprints.get(page_id)
        if expected is not None and page_fingerprint(page) != expected:
            self.checksum_failures += 1
            raise ChecksumError(page_id)
        if self._journal is not None and page_id not in self._journal:
            self._journal[page_id] = self._pre_image(page_id, page)
        return page

    def write(self, page: Page) -> None:
        if page.page_id not in self._pages:
            raise DanglingPageError(page.page_id)
        page.validate()
        self.writes += 1
        self._charge_tag(self.tag_writes)
        ctx = _trace._ACTIVE
        if ctx is not None:
            ctx.record_write()
        schedule = self.schedule
        if self._journal is not None:
            if page.page_id not in self._journal:
                self._journal[page.page_id] = self._pre_image(
                    page.page_id, page
                )
            if schedule.enabled and schedule.should_crash_on_write(page.page_id):
                # The power fails mid-write: the I/O was issued, the page
                # is torn, and the operation never completes.
                self.torn_writes += 1
                self._corrupt[page.page_id] = "torn write (crash mid-flush)"
                self.crashes += 1
                raise SimulatedCrash(f"write of page {page.page_id}")
        if schedule.enabled and schedule.next_write_fault(page.page_id) == "torn":
            self.faults_injected += 1
            self.torn_writes += 1
            self._corrupt[page.page_id] = "torn write"
            return
        self._corrupt.pop(page.page_id, None)
        self._fingerprints[page.page_id] = page_fingerprint(page)

    def journal_note_read(self, page: Page) -> None:
        """Capture a pre-image for a read served from the buffer pool.

        A pool cache hit never reaches :meth:`read`, but a journaled
        operation still has to snapshot the page before mutating it.
        """
        if self._journal is not None and page.page_id not in self._journal:
            self._journal[page.page_id] = self._pre_image(page.page_id, page)

    def note_write(self, page: Page) -> None:
        """Refresh the checksum for a write the Pager deduplicated.

        Inside ``Pager.operation()`` only the first write of a page is
        charged; later writes of the same (mutated, shared) object are
        suppressed.  The suppressed flush still has to refresh the
        checksum or the next read would see a stale fingerprint.
        """
        if page.page_id not in self._pages:
            return
        self._corrupt.pop(page.page_id, None)
        self._fingerprints[page.page_id] = page_fingerprint(page)

    # ------------------------------------------------------------------
    # crash points
    # ------------------------------------------------------------------
    def crash_point(self, name: str) -> None:
        """Crash here if the schedule says so (engines call this via Pager)."""
        if self.schedule.enabled and self.schedule.hit_crash_point(name):
            self.crashes += 1
            raise SimulatedCrash(name)

    # ------------------------------------------------------------------
    # explicit corruption (tests, fsck drills)
    # ------------------------------------------------------------------
    def corrupt_page(self, page_id: int, reason: str = "injected bit rot") -> None:
        """Mark a live page corrupt at rest; the next read raises."""
        if page_id not in self._pages:
            raise DanglingPageError(page_id)
        self._corrupt[page_id] = reason
        self.faults_injected += 1
        self.schedule._log("bit-rot", page_id=page_id)

    def verify_pages(self) -> List[Tuple[int, str]]:
        """Offline checksum scan of every live page (charges no I/O).

        Returns ``(page_id, problem)`` pairs; the fsck entry point.
        """
        problems: List[Tuple[int, str]] = []
        for page_id in sorted(self._pages):
            page = self._pages[page_id]
            reason = self._corrupt.get(page_id)
            if reason is not None:
                problems.append((page_id, reason))
                continue
            try:
                page.validate()
            except StorageError as exc:
                problems.append((page_id, str(exc)))
                continue
            expected = self._fingerprints.get(page_id)
            if expected is not None and page_fingerprint(page) != expected:
                problems.append((page_id, "checksum mismatch"))
        return problems

    # ------------------------------------------------------------------
    # operation journal
    # ------------------------------------------------------------------
    @property
    def journal_active(self) -> bool:
        return self._journal is not None

    @property
    def needs_recovery(self) -> bool:
        """True after a crash left the journal dirty."""
        return self._needs_recovery

    def begin_journal(self) -> None:
        if self._journal is not None:
            raise StorageError("operation journal is already open")
        if self._needs_recovery:
            raise StorageError(
                "cannot start an operation over an unrecovered crash"
            )
        self._journal = {}
        self._journal_frees = {}

    def commit_journal(self) -> None:
        """Discard pre-images; deferred frees become permanent."""
        if self._journal is None:
            raise StorageError("no operation journal to commit")
        for page_id in self._journal_frees:
            self._fingerprints.pop(page_id, None)
            self._corrupt.pop(page_id, None)
        self._journal = None
        self._journal_frees = {}
        self._needs_recovery = False

    def rollback_journal(self) -> None:
        """Restore every touched page to its pre-operation image."""
        if self._journal is None:
            raise StorageError("no operation journal to roll back")
        # Resurrect deferred frees first so their pre-images apply.
        for page_id, page in self._journal_frees.items():
            page.views = None
            self._pages[page_id] = page
        for page_id, pre in self._journal.items():
            if pre is None:
                # Allocated inside the aborted operation: unwind it.
                self._pages.pop(page_id, None)
                self._fingerprints.pop(page_id, None)
                self._corrupt.pop(page_id, None)
                continue
            page = self._pages.get(page_id)
            if page is None:  # pragma: no cover - defensive
                continue
            items, header, fingerprint, corrupt = pre
            page.items = list(items)
            page.header = dict(header)
            # Direct restore bypasses put_items/set_header; drop the
            # derived cache or it would describe the aborted state.
            page.views = None
            if fingerprint is None:
                self._fingerprints.pop(page_id, None)
            else:
                self._fingerprints[page_id] = fingerprint
            if corrupt is None:
                self._corrupt.pop(page_id, None)
            else:
                self._corrupt[page_id] = corrupt
        self._journal = None
        self._journal_frees = {}
        self._needs_recovery = False

    @contextmanager
    def journaled(self):
        """All-or-nothing scope for one update operation.

        Clean exit commits.  A :class:`SimulatedCrash` leaves the journal
        dirty (the "disk" holds a half-applied operation) and re-raises;
        ``rollback_journal()`` — via ``SegmentDatabase.recover()`` — puts
        every page back.  Any other exception rolls back immediately.
        """
        self.begin_journal()
        try:
            yield
        except SimulatedCrash:
            self._needs_recovery = True
            raise
        except BaseException:
            self.rollback_journal()
            raise
        else:
            self.commit_journal()

    def _pre_image(self, page_id: int, page: Page) -> _PreImage:
        return (
            list(page.items),
            dict(page.header),
            self._fingerprints.get(page_id),
            self._corrupt.get(page_id),
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the I/O counters and the fault/retry counters with them."""
        super().reset_counters()
        self.faults_injected = 0
        self.retries = 0
        self.retry_penalty_ios = 0
        self.checksum_failures = 0
        self.transient_failures = 0
        self.torn_writes = 0
        self.crashes = 0

    def fault_report(self) -> dict:
        """Fault/retry counters for ``io_report()`` and the chaos CLI."""
        if self._needs_recovery:
            journal = "needs-recovery"
        elif self._journal is not None:
            journal = "open"
        else:
            journal = "clean"
        return {
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "retry_penalty_ios": self.retry_penalty_ios,
            "checksum_failures": self.checksum_failures,
            "transient_failures": self.transient_failures,
            "torn_writes": self.torn_writes,
            "crashes": self.crashes,
            "corrupt_pages": len(self._corrupt),
            "journal": journal,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyBlockDevice(B={self.block_capacity}, "
            f"pages={self.pages_in_use}, faults={self.faults_injected}, "
            f"retries={self.retries})"
        )
