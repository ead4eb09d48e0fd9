"""The public facade: :class:`SegmentDatabase`.

One object, one choice of engine, the paper's whole query surface::

    from repro import SegmentDatabase, Segment, VerticalQuery

    db = SegmentDatabase.bulk_load(segments, engine="solution2", block_capacity=64)
    hits = db.query(VerticalQuery.segment(x, ylo, yhi))
    db.insert(Segment.from_coords(0, 0, 5, 5, label="road-17"))
    print(db.io_stats(), db.space_in_blocks())

Engines
-------
``solution1``   Theorem 1 — binary 2LDS; O(n) space, supports deletions.
``solution2``   Theorem 2 — interval-tree 2LDS with fractional cascading;
                O(n log2 B) space, fastest queries, insert-only (the
                paper's semi-dynamic case).
``scan``        full-scan baseline.
``stab-filter`` stabbing structure over x-projections + y filter.
``grid``        uniform-grid spatial index.
``rtree``       STR-packed R-tree (the practical GIS workhorse).

Non-vertical fixed query directions reduce to the vertical case with
:meth:`SegmentDatabase.with_direction` (footnote 1 of the paper).
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import Iterable, List, Optional, Sequence

from ..baselines.grid import GridIndex
from ..baselines.naive import FullScanIndex
from ..baselines.rtree import RTreeIndex
from ..baselines.stab_filter import StabFilterIndex
from ..geometry import (
    Coordinate,
    FixedDirectionFrame,
    Point,
    Segment,
    VerticalQuery,
    validate_nct,
    vs_intersects,
)
from ..geometry import filtered
from ..iosim import (
    BlockDevice,
    ChecksumError,
    FaultSchedule,
    FaultyBlockDevice,
    IOStats,
    LRUBufferPool,
    Pager,
    RecoveryPendingError,
    RetryPolicy,
    SimulatedCrash,
    SnapshotFormatError,
    StorageError,
    TransientIOError,
    load_device,
    save_device,
)
from ..telemetry import ExplainReport, MetricsRegistry, SlowQueryLog, trace_call
from .recovery import DegradedResult, FsckReport
from .solution1.index import TwoLevelBinaryIndex
from .solution2.index import TwoLevelIntervalIndex

ENGINES = ("solution1", "solution2", "scan", "stab-filter", "grid", "rtree")


class SegmentDatabase:
    """A segment database over a simulated block device."""

    def __init__(
        self,
        engine: str = "solution2",
        block_capacity: int = 64,
        buffer_pages: Optional[int] = None,
        validate: bool = False,
        faults: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
        degrade: bool = True,
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
        self.engine_name = engine
        self.device = (
            FaultyBlockDevice(block_capacity, schedule=faults, retry=retry)
            if faults is not None or retry is not None
            else BlockDevice(block_capacity)
        )
        self.buffer_pool: Optional[LRUBufferPool] = (
            LRUBufferPool(self.device, buffer_pages)
            if buffer_pages is not None
            else None
        )
        self.pager = Pager(self.buffer_pool or self.device)
        self.validate = validate
        self.degrade = degrade
        self.metrics: Optional[MetricsRegistry] = None
        self.slow_log: Optional[SlowQueryLog] = None
        self._filter_snapshot = filtered.STATS.snapshot()
        # Under a faulty device (with degradation on) the database keeps an
        # authoritative in-memory copy of the segment set — standing in for
        # the base data a production system holds outside the index — so it
        # can serve exact answers after quarantining a corrupt index.
        self._fallback: Optional[List[Segment]] = (
            [] if isinstance(self.device, FaultyBlockDevice) and degrade else None
        )
        self._quarantined = False
        self._quarantine_reason: Optional[str] = None
        self._degraded_queries = 0
        self._pre_op_state: Optional[tuple] = None
        self._index = self._build_engine([])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        segments: Iterable[Segment],
        engine: str = "solution2",
        block_capacity: int = 64,
        buffer_pages: Optional[int] = None,
        validate: bool = False,
        faults: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
        degrade: bool = True,
    ) -> "SegmentDatabase":
        """Build a database from a full NCT segment set.

        With ``validate=True`` the set is checked for crossings first
        (O(N log N) via the plane sweep; raises
        :class:`~repro.geometry.nct.CrossingError`).

        A ``faults`` schedule (and optional ``retry`` policy) puts a
        :class:`~repro.iosim.faults.FaultyBlockDevice` under the engine;
        the schedule is disarmed during the build itself so faults
        target the workload, not the loader.
        """
        db = cls(
            engine=engine,
            block_capacity=block_capacity,
            buffer_pages=buffer_pages,
            validate=validate,
            faults=faults,
            retry=retry,
            degrade=degrade,
        )
        segments = list(segments)
        if validate:
            validate_nct(segments)
        disarm = faults.disarmed() if faults is not None else nullcontext()
        with disarm:
            db._index = db._build_engine(segments)
        if db._fallback is not None:
            db._fallback = list(segments)
        db.device.reset_counters()
        return db

    def _build_engine(self, segments: List[Segment]):
        return self._engine_class().build(self.pager, segments)

    def _engine_class(self):
        return {
            "solution1": TwoLevelBinaryIndex,
            "solution2": TwoLevelIntervalIndex,
            "scan": FullScanIndex,
            "stab-filter": StabFilterIndex,
            "rtree": RTreeIndex,
            "grid": GridIndex,
        }[self.engine_name]

    # ------------------------------------------------------------------
    # persistence: build once, open many
    # ------------------------------------------------------------------
    def save(self, path: str) -> int:
        """Serialize the built database to a snapshot file.

        The snapshot holds the whole page store plus the engine metadata
        (engine name, block capacity, root page ids, segment count), CRC-
        protected at two levels (see :mod:`repro.iosim.snapshot`);
        :meth:`open` restores a queryable database without rebuilding.
        Only a healthy database can be saved — a dirty journal or a
        quarantined index would persist exactly the damage snapshots
        exist to avoid.  Returns the number of bytes written.
        """
        self._check_recovered()
        self._check_not_quarantined("save")
        meta = {
            "engine": self.engine_name,
            "segment_count": len(self),
            "engine_meta": self._index.snapshot_meta(),
        }
        return save_device(path, self.device, meta)

    @classmethod
    def open(
        cls,
        path: str,
        buffer_pages: Optional[int] = None,
        validate: bool = False,
    ) -> "SegmentDatabase":
        """Restore a queryable database from a :meth:`save` snapshot.

        The builder never runs: the page store is restored verbatim and
        the engine re-attached over it, so ``open`` costs O(pages) of
        deserialization instead of the O(N log N) build.  Verification
        (magic, version, file CRC, per-page checksums) happens before
        any page is trusted; damage raises
        :class:`~repro.iosim.SnapshotFormatError`.  The buffer pool (if
        requested) starts cold, and I/O counters start at zero — the
        same accounting state ``bulk_load`` leaves behind.
        """
        device, meta = load_device(path)
        try:
            engine = meta["engine"]
            engine_meta = meta["engine_meta"]
        except KeyError as exc:
            raise SnapshotFormatError(path, f"missing field: {exc}") from exc
        db = cls(
            engine=engine,
            block_capacity=device.block_capacity,
            buffer_pages=buffer_pages,
            validate=validate,
        )
        # __init__ built an empty engine over a scratch device (some
        # engines allocate a page or two for it); swap in the restored
        # store wholesale and re-point the buffer pool and pager at it.
        db.device = device
        db.buffer_pool = (
            LRUBufferPool(device, buffer_pages)
            if buffer_pages is not None
            else None
        )
        db.pager = Pager(db.buffer_pool or device)
        db._index = db._engine_class().attach(db.pager, engine_meta)
        db.device.reset_counters()
        return db

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: VerticalQuery) -> List[Segment]:
        """All stored segments intersecting a generalized vertical segment.

        Under a fault schedule the answer is *never silently wrong*: the
        index either answers exactly (retries absorb transient faults),
        or the error surfaces, or — with ``degrade=True`` — the query is
        served exactly from the fallback copy as a typed
        :class:`~repro.core.recovery.DegradedResult`.
        """
        self._check_recovered()
        if self._quarantined:
            return self._fallback_query(q, self._quarantine_reason)
        try:
            if self.metrics is None and self.slow_log is None:
                return self._index.query(q)
            before = self.device.snapshot()
            t0 = perf_counter()
            out = self._index.query(q)
            elapsed = perf_counter() - t0
            if self.metrics is not None:
                self._record_op("query", self.device.snapshot() - before,
                                len(out))
                self.metrics.latency("query.latency_s").observe(elapsed)
            if self.slow_log is not None:
                self.slow_log.record(
                    "query", str(q), elapsed,
                    explain=lambda: self._explain_dict(q), results=len(out),
                )
            return out
        except (ChecksumError, TransientIOError) as exc:
            reason = self._note_query_fault(exc)
            return self._fallback_query(q, reason)

    def query_batch(self, queries: Sequence[VerticalQuery]) -> List[List[Segment]]:
        """Answer many queries at once, amortizing the shared descent.

        The two paper engines sort the batch by query ``x`` and route it
        through the first level as groups, fetching each node on the
        union of search paths once per batch instead of once per query
        (DESIGN.md §8); the baselines fall back to a sequential loop.
        Results are returned in input order, and each entry equals what
        ``self.query(q)`` would have returned for that query.
        """
        queries = list(queries)
        self._check_recovered()
        if not queries:
            # An empty batch has no work: answer without charging the
            # device or entering a pager operation (dedupe scopes and
            # journals are per-operation state that would otherwise tick).
            return []
        if self._quarantined:
            reason = self._quarantine_reason
            return [self._fallback_query(q, reason) for q in queries]
        try:
            return self._query_batch_healthy(queries)
        except (ChecksumError, TransientIOError) as exc:
            reason = self._note_query_fault(exc)
            return [self._fallback_query(q, reason) for q in queries]

    def _query_batch_healthy(
        self, queries: List[VerticalQuery]
    ) -> List[List[Segment]]:
        if self.metrics is None and self.slow_log is None:
            return self._index.query_batch(queries)
        before = self.device.snapshot()
        t0 = perf_counter()
        out = self._index.query_batch(queries)
        elapsed = perf_counter() - t0
        diff = self.device.snapshot() - before
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("query_batch.count").inc()
            metrics.histogram("query_batch.size").observe(len(queries))
            metrics.histogram("query_batch.ios").observe(diff.total)
            metrics.latency("query_batch.latency_s").observe(elapsed)
            if queries:
                metrics.histogram("query_batch.ios_per_query").observe(
                    diff.total / len(queries)
                )
                metrics.latency("query_batch.latency_per_query_s").observe(
                    elapsed / len(queries)
                )
            metrics.histogram("query_batch.results").observe(
                sum(len(r) for r in out)
            )
            if self.buffer_pool is not None:
                metrics.gauge("buffer.hit_rate").set(self.buffer_pool.hit_rate)
                metrics.gauge("buffer.pinned").set(self.buffer_pool.pinned_count)
            self._sync_filter_metrics(metrics)
        if self.slow_log is not None:
            self.slow_log.record(
                "query_batch", f"batch of {len(queries)} queries", elapsed,
                explain=lambda: self._explain_batch_dict(queries),
                queries=len(queries),
            )
        return out

    def stab(self, x: Coordinate) -> List[Segment]:
        """Stabbing query: everything crossing the vertical line at ``x``."""
        return self.query(VerticalQuery.line(x))

    def explain(self, q: VerticalQuery, timed: bool = False) -> ExplainReport:
        """Run ``q`` traced and return its cost anatomy.

        The report's per-phase I/O counts sum exactly to the flat
        :class:`~repro.iosim.stats.IOStats` diff of the query (it is an
        accounting identity over the same simulated I/Os — see
        DESIGN.md §7), and include buffer hit/miss movement when the
        database was built with ``buffer_pages``.

        With ``timed=True`` each phase additionally records its
        wall-clock self time (``seconds``), so the same anatomy reads in
        both cost domains: simulated block transfers *and* latency.
        """
        self._check_recovered()
        out, report = trace_call(
            self.device,
            lambda: self._index.query(q),
            engine=self.engine_name,
            description=str(q),
            buffer_pool=self.buffer_pool,
            timed=timed,
        )
        if self.metrics is not None:
            self._record_op("query", report.io, len(out))
        return report

    def explain_batch(self, queries: Sequence[VerticalQuery],
                      timed: bool = False) -> ExplainReport:
        """Run a whole batch traced and return its cost anatomy.

        The same accounting identity as :meth:`explain` holds over the
        batch window: per-phase I/Os sum exactly to the flat counter
        diff, so the amortized first-level share is directly readable
        against the per-query second-level phases.  ``results`` counts
        reported segments across the whole batch.  ``timed=True`` adds
        wall-clock self time per phase, as in :meth:`explain`.
        """
        queries = list(queries)
        self._check_recovered()
        # Mirror query_batch: an empty batch never reaches the engine, so
        # its anatomy is an all-zero report rather than a pager operation.
        runner = (lambda: []) if not queries else (
            lambda: self._index.query_batch(queries)
        )
        out, report = trace_call(
            self.device,
            runner,
            engine=self.engine_name,
            description=f"batch of {len(queries)} queries",
            buffer_pool=self.buffer_pool,
            root_name="query-batch",
            timed=timed,
        )
        report.results = sum(len(r) for r in out)
        return report

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, segment: Segment) -> None:
        """Insert a segment (must be NCT with the stored set).

        With ``validate=True`` the invariant is checked against every
        stored segment (O(N) — meant for tests and small data).

        Under a faulty device the insert runs inside the device's
        operation journal: a crash mid-insert leaves the index fully
        pre-op after :meth:`recover` (all-or-nothing; DESIGN.md §10).
        """
        self._check_recovered()
        self._check_not_quarantined("insert")
        if self.validate:
            from ..geometry import segments_cross

            for other in self.all_segments():
                if segments_cross(segment, other):
                    raise ValueError(f"{segment!r} crosses stored {other!r}")
        if self.metrics is None:
            self._run_update(lambda: self._index.insert(segment))
        else:
            before = self.device.snapshot()
            self._run_update(lambda: self._index.insert(segment))
            self._record_op("insert", self.device.snapshot() - before, None)
        if self._fallback is not None:
            self._fallback.append(segment)

    def delete(self, segment: Segment) -> bool:
        """Delete a stored segment (``solution1`` and baselines only).

        Journaled like :meth:`insert`: a crash mid-delete rolls back to
        the pre-op index on :meth:`recover`.
        """
        self._check_recovered()
        self._check_not_quarantined("delete")
        removed = self._run_update(lambda: self._index.delete(segment))
        if removed and self._fallback is not None:
            try:
                self._fallback.remove(segment)
            except ValueError:  # pragma: no cover - fallback drift guard
                pass
        return removed

    def _run_update(self, fn):
        """Run one update operation with all-or-nothing crash semantics."""
        device = self.device
        if not isinstance(device, FaultyBlockDevice):
            return fn()
        state = self._index.snapshot_state()
        try:
            with device.journaled():
                return fn()
        except SimulatedCrash:
            # The journal stays dirty; remember the pre-op in-memory state
            # so recover() can put the engine back alongside the pages.
            self._pre_op_state = state
            raise

    # ------------------------------------------------------------------
    # robustness: degradation, recovery, fsck
    # ------------------------------------------------------------------
    @property
    def quarantined(self) -> bool:
        """True when the index is considered corrupt and bypassed."""
        return self._quarantined

    def _check_recovered(self) -> None:
        if getattr(self.device, "needs_recovery", False):
            raise RecoveryPendingError()

    def _check_not_quarantined(self, op: str) -> None:
        if self._quarantined:
            raise StorageError(
                f"cannot {op}: index is quarantined "
                f"({self._quarantine_reason}); rebuild() first"
            )

    def _note_query_fault(self, exc: StorageError) -> str:
        """Classify a query-time storage fault; returns the degradation
        reason.  Unrecoverable corruption quarantines the index; a
        persistent transient fault degrades only this query (the device
        may heal).  Without a fallback the error propagates."""
        if self._fallback is None or not self.degrade:
            raise exc
        reason = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, ChecksumError):
            self._quarantine(reason)
        return reason

    def _quarantine(self, reason: str) -> None:
        self._quarantined = True
        self._quarantine_reason = reason
        if self.metrics is not None:
            self.metrics.counter("faults.quarantines").inc()

    def _fallback_query(self, q: VerticalQuery, reason: str) -> DegradedResult:
        """Serve one query exactly from the authoritative fallback copy.

        The fallback list models base data held outside the simulated
        device, so the scan charges no simulated I/O — the point is exact
        (if slow) answers, loudly marked as degraded.
        """
        if self._fallback is None:
            raise StorageError("no fallback copy available")
        self._degraded_queries += 1
        if self.metrics is not None:
            self.metrics.counter("query.degraded").inc()
        return DegradedResult(
            (s for s in self._fallback if vs_intersects(s, q)),
            reason=reason or "index quarantined",
        )

    def recover(self) -> dict:
        """Roll back a crashed update; the index returns to its pre-op state.

        No-op on a healthy database.  Returns a JSON-ready summary.
        """
        device = self.device
        if not getattr(device, "needs_recovery", False):
            return {"action": "clean", "rolled_back": False}
        device.rollback_journal()
        if self._pre_op_state is not None:
            self._index.restore_state(self._pre_op_state)
            self._pre_op_state = None
        return {"action": "rolled-back", "rolled_back": True}

    def fsck(self, deep: bool = True) -> FsckReport:
        """Check storage and index integrity; quarantine on damage.

        Phase 1 scans every live page offline (capacity bounds plus
        checksums on a faulty device).  Phase 2 (``deep=True``) runs the
        engine's ``verify()`` walk — the per-engine invariants listed in
        DESIGN.md §10.  Any problem quarantines the index when a
        fallback copy exists, so subsequent queries degrade loudly
        instead of trusting a damaged structure.
        """
        device = self.device
        problems: List[str] = []
        checksum_failures = 0
        dirty_journal = getattr(device, "needs_recovery", False)
        if dirty_journal:
            problems.append("journal: unrecovered crash — run recover() first")
        verify_pages = getattr(device, "verify_pages", None)
        if verify_pages is not None:
            for page_id, reason in verify_pages():
                checksum_failures += 1
                problems.append(f"page {page_id}: {reason}")
        else:
            for page in device.iter_pages():
                try:
                    page.validate()
                except StorageError as exc:
                    problems.append(f"page {page.page_id}: {exc}")
        if deep and not dirty_journal:
            verify = getattr(self._index, "verify", None)
            if verify is not None:
                schedule = getattr(device, "schedule", None)
                disarm = (
                    schedule.disarmed() if schedule is not None else nullcontext()
                )
                with disarm:  # fsck is offline: no injected faults mid-walk
                    problems.extend(verify())
        if problems and self.degrade and self._fallback is not None:
            self._quarantine(f"fsck found {len(problems)} problem(s)")
        return FsckReport(
            ok=not problems,
            engine=self.engine_name,
            pages_scanned=device.pages_in_use,
            checksum_failures=checksum_failures,
            problems=problems,
            quarantined=self._quarantined,
        )

    def rebuild(self) -> None:
        """Reformat the device and rebuild the index from the fallback copy.

        The way out of quarantine: corrupt structures may not even be
        safely traversable, so the old pages are dropped wholesale and
        the engine is bulk-rebuilt from the authoritative segment list.
        """
        if self._fallback is None:
            raise StorageError("no fallback copy to rebuild from")
        device = self.device
        segments = list(self._fallback)
        schedule = getattr(device, "schedule", None)
        disarm = schedule.disarmed() if schedule is not None else nullcontext()
        device._pages.clear()
        if isinstance(device, FaultyBlockDevice):
            device._fingerprints.clear()
            device._corrupt.clear()
        if self.buffer_pool is not None:
            self.buffer_pool._lru.clear()
        with disarm:
            self._index = self._build_engine(segments)
        self._quarantined = False
        self._quarantine_reason = None

    # ------------------------------------------------------------------
    # accounting & observability
    # ------------------------------------------------------------------
    def io_stats(self) -> IOStats:
        return self.device.snapshot()

    def io_report(self) -> dict:
        """Counters plus cache effectiveness, JSON-ready.

        Extends :meth:`io_stats` with the buffer pool's hit/miss counts
        and :attr:`~repro.iosim.buffer.LRUBufferPool.hit_rate` (``None``
        entries when the database runs without a pool).
        """
        out = self.io_stats().to_dict()
        out["space_in_blocks"] = self.space_in_blocks()
        pool = self.buffer_pool
        out["buffer"] = (
            {
                "capacity": pool.capacity,
                "hits": pool.hits,
                "misses": pool.misses,
                "hit_rate": pool.hit_rate,
                "pinned": pool.pinned_count,
            }
            if pool is not None
            else None
        )
        out["filter"] = filtered.filter_stats()
        fault_report = getattr(self.device, "fault_report", None)
        out["faults"] = fault_report() if fault_report is not None else None
        out["degraded_queries"] = self._degraded_queries
        out["quarantined"] = self._quarantined
        if self._quarantined:
            out["quarantine_reason"] = self._quarantine_reason
        return out

    @property
    def buffer_hit_rate(self) -> Optional[float]:
        """The pool's hit rate, or ``None`` without ``buffer_pages``."""
        return self.buffer_pool.hit_rate if self.buffer_pool is not None else None

    def reset_io_stats(self) -> None:
        self.device.reset_counters()

    def space_in_blocks(self) -> int:
        return self.device.pages_in_use

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def enable_metrics(self) -> MetricsRegistry:
        """Start recording per-operation metrics; returns the registry.

        Each query/insert feeds I/O-per-operation and result-size
        histograms; the buffer hit rate (when pooled) is kept as a
        gauge.  Idempotent: re-enabling returns the same registry.
        """
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        return self.metrics

    def enable_slow_query_log(self, threshold_s: float,
                              capacity: int = 128) -> SlowQueryLog:
        """Start capturing queries slower than ``threshold_s`` seconds.

        Each captured entry records the query text, its latency, and a
        lazily computed ``explain()`` cost anatomy (the diagnosis runs
        only for queries already past the threshold, so fast traffic
        pays nothing beyond one clock read).  Idempotent for a given
        threshold: re-enabling replaces the threshold but keeps the log.
        """
        if self.slow_log is None:
            self.slow_log = SlowQueryLog(threshold_s, capacity=capacity)
        else:
            self.slow_log.threshold_s = threshold_s
        return self.slow_log

    def _explain_dict(self, q: VerticalQuery) -> dict:
        """A slow-log diagnosis: re-run ``q`` traced, without touching
        the metrics registry (the original run already counted)."""
        out, report = trace_call(
            self.device,
            lambda: self._index.query(q),
            engine=self.engine_name,
            description=str(q),
            buffer_pool=self.buffer_pool,
            timed=True,
        )
        return report.to_dict()

    def _explain_batch_dict(self, queries: List[VerticalQuery]) -> dict:
        """Slow-log diagnosis for a batch; see :meth:`_explain_dict`."""
        if not queries:
            return {}
        out, report = trace_call(
            self.device,
            lambda: self._index.query_batch(queries),
            engine=self.engine_name,
            description=f"batch of {len(queries)} queries",
            buffer_pool=self.buffer_pool,
            root_name="query-batch",
            timed=True,
        )
        report.results = sum(len(r) for r in out)
        return report.to_dict()

    def _record_op(self, op: str, diff: IOStats, results: Optional[int]) -> None:
        metrics = self.metrics
        metrics.counter(f"{op}.count").inc()
        metrics.histogram(f"{op}.ios").observe(diff.total)
        metrics.histogram(f"{op}.reads").observe(diff.reads)
        if results is not None:
            metrics.histogram(f"{op}.results").observe(results)
        if self.buffer_pool is not None:
            metrics.gauge("buffer.hit_rate").set(self.buffer_pool.hit_rate)
        self._sync_filter_metrics(metrics)

    def _sync_filter_metrics(self, metrics: MetricsRegistry) -> None:
        """Fold the filtered-arithmetic kernel's global counters into the
        registry as deltas (the kernel counters are process-wide; counters
        here stay monotone per database)."""
        fast, exact = filtered.STATS.snapshot()
        prev_fast, prev_exact = self._filter_snapshot
        self._filter_snapshot = (fast, exact)
        if fast > prev_fast:
            metrics.counter("filter.fast_hits").inc(fast - prev_fast)
        if exact > prev_exact:
            metrics.counter("filter.exact_fallbacks").inc(exact - prev_exact)
        total = (
            metrics.counter("filter.fast_hits").value
            + metrics.counter("filter.exact_fallbacks").value
        )
        if total:
            metrics.gauge("filter.hit_rate").set(
                metrics.counter("filter.fast_hits").value / total
            )

    def all_segments(self) -> List[Segment]:
        return self._index.all_segments()

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------
    # non-vertical directions (footnote 1)
    # ------------------------------------------------------------------
    @classmethod
    def with_direction(
        cls,
        segments: Iterable[Segment],
        slope: Coordinate,
        **kwargs,
    ) -> "DirectedSegmentDatabase":
        """A database answering queries of a fixed non-vertical direction.

        Data is stored in the sheared frame where the direction becomes
        vertical; :meth:`DirectedSegmentDatabase.query_through` takes query
        endpoints in the *original* frame.
        """
        frame = FixedDirectionFrame(slope)
        mapped = [frame.forward_segment(s) for s in segments]
        inner = cls.bulk_load(mapped, **kwargs)
        return DirectedSegmentDatabase(inner, frame)


class DirectedSegmentDatabase:
    """Wrapper translating fixed-direction queries to the vertical frame."""

    def __init__(self, inner: SegmentDatabase, frame: FixedDirectionFrame):
        self.inner = inner
        self.frame = frame

    def query_through(self, p1: Point, p2: Optional[Point] = None) -> List[Segment]:
        """Segments met by the query segment/line through the given points
        (which must realise the database's fixed slope)."""
        q = self.frame.forward_query(p1, p2)
        hits = self.inner.query(q)
        return [self.frame.inverse_segment(s) for s in hits]

    def insert(self, segment: Segment) -> None:
        self.inner.insert(self.frame.forward_segment(segment))

    def io_stats(self) -> IOStats:
        return self.inner.io_stats()

    def __len__(self) -> int:
        return len(self.inner)
