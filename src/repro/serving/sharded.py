"""X-range sharding of a segment database.

A vertical query touches one x; partitioning the plane into K vertical
slabs therefore routes each query to exactly one shard (two when its x
lands on a slab boundary).  Boundary-crossing segments are **replicated**
into every slab they intersect — the alternative, clipping, would
manufacture segment fragments with new identities and break the NCT
invariant at the cut — and the merge step deduplicates by segment label,
so replication is invisible in results.  The cost is storage: the
``replicated`` counter reports how many extra copies sharding created
(long segments are the worst case, exactly as for the grid baseline's
cell replication).

Each shard is an ordinary :class:`~repro.core.api.SegmentDatabase`, so
every engine, the buffer pool, and the snapshot format all work per shard
unchanged.  Interior boundaries are population quantiles of the segment
x-midpoints, which balances shard sizes under skew better than an even
split of the x-extent.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.api import ENGINES, SegmentDatabase
from ..core.recovery import DegradedResult
from ..geometry import Segment, VerticalQuery
from ..iosim import SnapshotFormatError
from ..iosim.snapshot import write_atomically
from ..telemetry import (
    ExplainReport,
    LatencyHistogram,
    SlowQueryLog,
    timed_span,
)
from .reporting import ShardBatchStats, capture_batch

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def _boundary_to_str(value) -> str:
    return str(Fraction(value))


def _boundary_from_str(text: str):
    value = Fraction(text)
    return int(value) if value.denominator == 1 else value


class ShardedSegmentDatabase:
    """K x-range shards behind one query surface.

    Build with :meth:`bulk_load`, persist with :meth:`save`, and serve
    with :meth:`open`.  Every shard lives in this process; to answer from
    several processes, run ``repro serve --workers N``, which opens one
    copy of the whole database per process (DESIGN.md §13).
    """

    def __init__(
        self,
        engine: str,
        boundaries: Sequence,
        shards: List[SegmentDatabase],
        segment_count: int = 0,
        replicated: int = 0,
    ):
        self.engine_name = engine
        self.boundaries = list(boundaries)  # interior cuts, ascending
        self.shard_count = len(shards)
        if len(self.boundaries) != self.shard_count - 1:
            raise ValueError(
                f"{self.shard_count} shards need {self.shard_count - 1} "
                f"interior boundaries, got {len(self.boundaries)}"
            )
        self._shards = shards
        self.segment_count = segment_count
        self.replicated = replicated
        # Per-shard telemetry deltas, captured around every sub-batch.
        self._shard_stats = [ShardBatchStats() for _ in range(self.shard_count)]
        # Wall-clock observability: per-batch latency histogram, and the
        # count and wall time of the shard sub-batches.
        self.batch_latency = LatencyHistogram("serve.batch_s")
        self._task_wall_s = 0.0
        self._tasks = 0
        self.slow_log: Optional[SlowQueryLog] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        segments,
        shards: int = 4,
        engine: str = "solution2",
        block_capacity: int = 64,
        buffer_pages: Optional[int] = None,
        validate: bool = False,
    ) -> "ShardedSegmentDatabase":
        """Partition ``segments`` into x-range slabs and build each shard."""
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
        segments = list(segments)
        boundaries = cls._choose_boundaries(segments, shards)
        slabs: List[List[Segment]] = [[] for _ in range(len(boundaries) + 1)]
        replicated = 0
        for s in segments:
            hit = cls._slabs_of_range(boundaries, s.xmin, s.xmax)
            replicated += len(hit) - 1
            for i in hit:
                slabs[i].append(s)
        built = [
            SegmentDatabase.bulk_load(
                slab, engine=engine, block_capacity=block_capacity,
                buffer_pages=buffer_pages, validate=validate,
            )
            for slab in slabs
        ]
        return cls(engine, boundaries, shards=built,
                   segment_count=len(segments), replicated=replicated)

    @staticmethod
    def _choose_boundaries(segments: List[Segment], shards: int) -> List:
        """Interior cuts at x-midpoint quantiles (deduplicated, so heavy
        skew may yield fewer effective shards than requested)."""
        if shards == 1 or not segments:
            return []
        mids = sorted(Fraction(s.xmin + s.xmax) / 2 for s in segments)
        cuts = []
        for k in range(1, shards):
            cut = mids[(k * len(mids)) // shards]
            cut = int(cut) if cut.denominator == 1 else cut
            if not cuts or cut > cuts[-1]:
                cuts.append(cut)
        return cuts

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def _slabs_of_range(boundaries: List, xlo, xhi) -> List[int]:
        """Indices of every slab the closed x-range intersects.

        Slab ``i`` covers the closed interval [b_{i-1}, b_i] (unbounded at
        the ends); adjacent slabs share their boundary point, which is what
        makes boundary routing find the replica on either side.
        """
        out = []
        for i in range(len(boundaries) + 1):
            lo = boundaries[i - 1] if i > 0 else None
            hi = boundaries[i] if i < len(boundaries) else None
            if (lo is None or xhi >= lo) and (hi is None or xlo <= hi):
                out.append(i)
        return out

    def shards_for(self, x) -> List[int]:
        """Which shards answer a query at ``x`` (two iff x is a boundary)."""
        return self._slabs_of_range(self.boundaries, x, x)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: VerticalQuery) -> List[Segment]:
        return self.query_batch([q])[0]

    def query_batch(
        self, queries: Sequence[VerticalQuery]
    ) -> List[List[Segment]]:
        """Route, execute per shard, and merge back into input order.

        Replicated boundary-crossers are deduplicated by label during the
        merge (ascending shard order, first occurrence wins), so results
        match an unsharded database up to ordering within a query.  A
        merged answer stays a :class:`~repro.core.recovery.DegradedResult`
        when any shard served its part degraded.
        """
        queries = list(queries)
        if not queries:
            return []
        t0 = perf_counter()
        batches, routes = self._route(queries)
        executed = self._execute(batches, explain=False)
        out: List[List[Segment]] = []
        for hit in routes:
            if len(hit) == 1:
                index, offset = hit[0]
                out.append(executed[index][offset])
                continue
            seen = set()
            merged: List[Segment] = []
            reasons = []
            for index, offset in hit:
                part = executed[index][offset]
                if getattr(part, "degraded", False):
                    reasons.append(f"shard {index}: {part.reason}")
                for s in part:
                    if s.label not in seen:
                        seen.add(s.label)
                        merged.append(s)
            out.append(DegradedResult(merged, reason="; ".join(reasons))
                       if reasons else merged)
        self.batch_latency.observe(perf_counter() - t0)
        return out

    def explain_batch(
        self, queries: Sequence[VerticalQuery]
    ) -> List[ExplainReport]:
        """Per-shard cost anatomies of the routed batch (ascending shard
        index, shards that received no queries omitted).  Each report is
        exactly what the shard's own ``explain_batch`` produced; summing
        their ``io`` fields gives the whole batch's cost."""
        queries = list(queries)
        if not queries:
            return []
        batches, _routes = self._route(queries)
        reports = self._execute(batches, explain=True)
        out = []
        for index in sorted(reports):
            report = reports[index]
            report.description = f"shard {index}: {report.description}"
            out.append(report)
        return out

    def _route(
        self, queries: List[VerticalQuery]
    ) -> Tuple[Dict[int, List[VerticalQuery]], List[List[Tuple[int, int]]]]:
        """Split a batch into per-shard sub-batches.

        Returns the sub-batches plus, per input query, its ``(shard,
        offset-within-sub-batch)`` coordinates for the scatter-back.
        """
        batches: Dict[int, List[VerticalQuery]] = {}
        routes: List[List[Tuple[int, int]]] = []
        for q in queries:
            hit = []
            for index in self.shards_for(q.x):
                sub = batches.setdefault(index, [])
                hit.append((index, len(sub)))
                sub.append(q)
            routes.append(hit)
        return batches, routes

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, batches: Dict[int, List[VerticalQuery]],
                 explain: bool) -> Dict[int, list]:
        """Run each shard's sub-batch, capturing its telemetry delta and
        its wall time as the shard's ``query`` phase."""
        out = {}
        for index, queries in batches.items():
            db = self._shards[index]
            runner = db.explain_batch if explain else db.query_batch
            t0 = perf_counter()
            with timed_span("query", category="engine", shard=index,
                            queries=len(queries)):
                result, stats = capture_batch(db, lambda: runner(queries))
            self._task_wall_s += perf_counter() - t0
            self._tasks += 1
            self._shard_stats[index] = self._shard_stats[index] + stats
            if db.slow_log is not None and self.slow_log is not None:
                self.slow_log.absorb(db.slow_log.drain())
            out[index] = result
        return out

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def io_report(self) -> dict:
        """Per-shard and combined telemetry, JSON-ready.

        Each shard entry carries the full counter family the flat
        :meth:`~repro.core.api.SegmentDatabase.io_report` knows — raw
        I/O, buffer hits/misses, filtered-arithmetic counters, fault
        deltas, degradation state — accumulated batch by batch through
        :func:`~repro.serving.reporting.capture_batch`, and the combined
        block equals the sum of the shard blocks.
        """
        per_shard = list(self._shard_stats)
        combined = ShardBatchStats()
        for stats in per_shard:
            combined = combined + stats
        return {
            "shards": [stats.to_report() for stats in per_shard],
            "combined": combined.to_report(),
        }

    def latency_report(self) -> dict:
        """Wall-clock anatomy of the serving work done so far.

        ``tasks`` counts shard sub-batches and ``task_wall_s`` the wall
        time they took.  In one process a task is all engine ``query``
        work, so ``phases_s`` holds that one phase and ``phase_coverage``
        is 1; the keys keep the shape readers of the daemon's ``stats``
        frame expect.  ``batches`` summarizes the per-call latency
        histogram (p50/p95/p99).
        """
        wall = round(self._task_wall_s, 6)
        return {
            "tasks": self._tasks,
            "phases_s": {"query": wall} if self._tasks else {},
            "phase_sum_s": wall,
            "task_wall_s": wall,
            "phase_coverage": 1.0 if self._task_wall_s else None,
            "batches": self.batch_latency.summary(),
        }

    def health_report(self) -> dict:
        """Serving health, the payload behind the daemon's ``health``
        frame: the shard count and which shards are quarantined (their
        answers come from the scan fallback, as ``DegradedResult``)."""
        return {
            "shards": self.shard_count,
            "quarantined": [index for index, db in enumerate(self._shards)
                            if db.quarantined],
        }

    def enable_slow_query_log(self, threshold_s: float,
                              capacity: int = 128) -> SlowQueryLog:
        """Start logging slow shard batches; returns the merged log.

        Enables a log on every shard database and drains them into the
        merged log after each batch.
        """
        self.slow_log = SlowQueryLog(threshold_s, capacity)
        for db in self._shards:
            db.enable_slow_query_log(threshold_s, capacity)
        return self.slow_log

    def __len__(self) -> int:
        return self.segment_count

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> dict:
        """Write one snapshot per shard plus a manifest into ``directory``.

        Returns the manifest dict (paths relative to the directory).
        """
        os.makedirs(directory, exist_ok=True)
        shard_files = []
        for index, db in enumerate(self._shards):
            name = f"shard-{index:03d}.snap"
            db.save(os.path.join(directory, name))
            shard_files.append(name)
        manifest = {
            "format_version": MANIFEST_VERSION,
            "engine": self.engine_name,
            "shards": self.shard_count,
            "boundaries": [_boundary_to_str(b) for b in self.boundaries],
            "segment_count": self.segment_count,
            "replicated": self.replicated,
            "shard_files": shard_files,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        write_atomically(os.path.join(directory, MANIFEST_NAME),
                         text.encode("utf-8"))
        return manifest

    @classmethod
    def open(
        cls,
        directory: str,
        workers: int = 0,
        buffer_pages: Optional[int] = None,
        slow_query_s: Optional[float] = None,
    ) -> "ShardedSegmentDatabase":
        """Restore a sharded database saved by :meth:`save`, every shard
        opened in this process.

        ``workers`` must be 0: to answer from several processes, run
        ``repro serve DIR --workers N``, which forks N processes that
        each open the directory this way.  ``slow_query_s`` arms a
        slow-query log at that threshold on every shard, merged into
        ``self.slow_log``.
        """
        if workers:
            raise ValueError(
                f"workers={workers}: a sharded database answers in the "
                f"process that opens it; serve from several processes "
                f"with `repro serve DIR --workers N`")
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise SnapshotFormatError(manifest_path, "manifest not found")
        except OSError as exc:
            raise SnapshotFormatError(manifest_path,
                                      f"unreadable: {exc}") from exc
        except ValueError as exc:  # a JSON or UTF-8 decoding error
            raise SnapshotFormatError(manifest_path,
                                      f"manifest is not JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise SnapshotFormatError(manifest_path,
                                      "manifest is not a JSON object")
        version = manifest.get("format_version")
        if version != MANIFEST_VERSION:
            raise SnapshotFormatError(
                manifest_path,
                f"unsupported manifest version {version!r} "
                f"(expected {MANIFEST_VERSION})",
            )
        try:
            boundaries = [_boundary_from_str(b)
                          for b in manifest["boundaries"]]
            names = manifest["shard_files"]
            engine = manifest["engine"]
            segment_count = manifest["segment_count"]
            replicated = manifest["replicated"]
        except KeyError as exc:
            raise SnapshotFormatError(
                manifest_path, f"manifest has no {exc} field") from exc
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise SnapshotFormatError(
                manifest_path, f"boundaries are not rationals: {exc}") from exc
        if type(names) is not list or len(names) != len(boundaries) + 1:
            raise SnapshotFormatError(
                manifest_path, f"{len(boundaries)} boundaries need "
                               f"{len(boundaries) + 1} shard files, got "
                               f"{names!r}")
        for name in names:
            if not isinstance(name, str) or os.path.basename(name) != name:
                raise SnapshotFormatError(
                    manifest_path,
                    f"shard file {name!r} is not a plain file name")
        shards = [SegmentDatabase.open(os.path.join(directory, name),
                                       buffer_pages=buffer_pages)
                  for name in names]
        db = cls(engine, boundaries, shards, segment_count=segment_count,
                 replicated=replicated)
        if slow_query_s is not None:
            db.enable_slow_query_log(slow_query_s)
        return db
