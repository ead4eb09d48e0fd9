"""Multi-process batch execution over shard snapshots.

Each worker process is *warm*: it holds a module-level cache of attached
shards, so the first task touching shard ``i`` pays the attach cost once
and every later task reuses the live instance — buffer pool contents,
decoded pages and all.  Workers ship back the query results *and* a
:class:`~repro.serving.reporting.ShardBatchStats` telemetry delta, so the
parent's aggregated report sums to exactly what a single-process run
would have charged — buffer, filter and fault sub-counters included.

Two transports share the task protocol:

* ``"shm"`` (default) — the parent maps each shard's flat arena into a
  POSIX shared-memory segment once (:mod:`repro.serving.shm`); a worker
  attaches in O(1) via :class:`~repro.iosim.ArenaView` and serves
  through an :class:`~repro.iosim.ArenaBlockDevice`, decoding pages
  lazily out of the shared bytes into a bounded per-worker LRU.  No
  per-process snapshot unpickle, no per-batch state transfer.
* ``"pickle"`` — the PR 5 behavior, kept for comparison (benchmark E18)
  and platforms without shared memory: each worker cold-opens the
  snapshot file, paying a full O(shard) deserialization per process.

Latency observability (the E17 cliff, made visible).  The worker protocol
serializes the batch payload *explicitly*: the parent times ``dumps`` on
the way out, the worker times ``loads``/``dumps`` around its work, and
the parent times the final ``loads`` — so the serialization tax that the
``ProcessPoolExecutor`` machinery normally hides becomes four measured
phases.  Worker responses are *encoded* exactly once: the serialize
phase pickles the results into one payload, and the executor hop then
carries opaque bytes it can only memcpy — the old double encoding
(results pickled inside a response that gets pickled again) is gone.
Answers hold no buffer-protocol objects, so there are no out-of-band
buffers; each :class:`~repro.geometry.Segment` in them encodes as one
flat tuple (see :meth:`Segment.__reduce__`).  Every task carries a
:class:`~repro.telemetry.SpanContext`; the
worker opens a :class:`~repro.telemetry.WallTracer` that *continues the
parent's trace id* and records timed spans for

* ``deserialize`` — unpickling the query batch,
* ``attach``      — first touch of the shard (shm: O(1) arena attach;
  pickle: the full snapshot open),
* ``query``       — the engine work proper,
* ``serialize``   — pickling the results,

and the parent derives the boundary-crossing phases from the shared
epoch clock: ``dispatch`` (submit → worker start, argument pickling
included) and ``collect`` (worker end → result in hand).  The six phases
sum to the parent-observed task wall-clock by construction, which is the
identity the E17/E18 decompositions assert.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from random import Random
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..iosim import ArenaBlockDevice, IOStats, restricted_loads
from ..telemetry import SpanContext, WallTracer, spans as wallspans
from .reporting import ShardBatchStats, capture_batch
from .resilience import (CircuitBreaker, RpcChaosSchedule, SupervisorPolicy,
                         chaos_kill_point)
from .shm import AttachedArena, SharedShardArenas, shm_available

#: Phase names of one pooled task, in timeline order.
TASK_PHASES = ("dispatch", "deserialize", "attach", "query", "serialize",
               "collect")

#: Transports a pool can run on.
TRANSPORTS = ("shm", "pickle")

#: Sentinel: "no supervisor argument given" — distinct from an explicit
#: ``supervisor=None``, which opts back into the legacy raise-through
#: failure surface.  Exposed so wrappers (sharded open, the daemon CLI)
#: can forward "use the default" without constructing a policy.
_DEFAULT_SUPERVISOR = SupervisorPolicy()

# Per-process state, set by the pool initializer and filled lazily.
_TRANSPORT: str = "pickle"
_SHARD_PATHS: Optional[List[str]] = None
_SEGMENTS: Optional[List[Tuple[str, int]]] = None
_BUFFER_PAGES: Optional[int] = None
_SLOW_QUERY_S: Optional[float] = None
_CACHE_PAGES: Optional[int] = None
_OPENED: Dict[int, object] = {}
_ATTACHED: Dict[int, AttachedArena] = {}


def _detach_all() -> None:
    """Worker exit hook: drop every shm attachment cleanly.

    Releasing the memoryviews before closing the segments is mandatory —
    a segment with exported buffers cannot unmap — and closing them at
    all keeps worker exit silent under the resource tracker.
    """
    _OPENED.clear()
    for arena in list(_ATTACHED.values()):
        try:
            arena.close()
        except BufferError:  # a live db still holds pages; OS cleans up
            pass
    _ATTACHED.clear()


def _init_worker(transport: str, shard_paths: List[str],
                 segments: Optional[List[Tuple[str, int]]],
                 buffer_pages: Optional[int],
                 slow_query_s: Optional[float],
                 cache_pages: Optional[int]) -> None:
    global _TRANSPORT, _SHARD_PATHS, _SEGMENTS, _BUFFER_PAGES
    global _SLOW_QUERY_S, _CACHE_PAGES
    _TRANSPORT = transport
    _SHARD_PATHS = list(shard_paths)
    _SEGMENTS = list(segments) if segments is not None else None
    _BUFFER_PAGES = buffer_pages
    _SLOW_QUERY_S = slow_query_s
    _CACHE_PAGES = cache_pages
    _OPENED.clear()
    _ATTACHED.clear()
    atexit.register(_detach_all)


def _open_shard(index: int):
    from ..core.api import SegmentDatabase

    if _TRANSPORT == "shm":
        name, size = _SEGMENTS[index]
        arena = AttachedArena(name, size, source=f"shm://{name}")
        _ATTACHED[index] = arena
        device = ArenaBlockDevice(arena.view, cache_pages=_CACHE_PAGES)
        db = SegmentDatabase.attach_device(
            device, arena.view.meta, buffer_pages=_BUFFER_PAGES,
            source=f"shm://{name}",
        )
    else:
        db = SegmentDatabase.open(_SHARD_PATHS[index],
                                  buffer_pages=_BUFFER_PAGES)
    if _SLOW_QUERY_S is not None:
        db.enable_slow_query_log(_SLOW_QUERY_S)
    return db


def _run_task(kind: str, index: int, payload: bytes,
              span_ctx: Optional[dict],
              chaos_kill: Optional[str] = None) -> dict:
    """Execute one shard batch in a worker; returns the wire response.

    ``kind`` is ``"query"`` or ``"explain"``; ``payload`` is the pickled
    query list.  The response dict is plain picklable data: the result
    payload (pre-pickled bytes, which the executor's pickling pass
    copies rather than re-encodes), the telemetry delta, the worker's
    span records (carrying the parent's trace id), slow-query-log
    entries, and the epoch timestamps the parent needs to derive
    dispatch/collect.

    ``chaos_kill`` is a named kill point from
    :data:`~repro.serving.resilience.WORKER_KILL_POINTS` (or ``None``):
    the parent tags the task per its :class:`RpcChaosSchedule` and the
    worker SIGKILLs itself at that point — an abrupt death the executor
    sees exactly as a real OOM-kill or segfault.
    """
    started = time.time()
    chaos_kill_point("worker.start", chaos_kill)
    ctx = SpanContext.from_dict(span_ctx)
    tracer = (WallTracer(ctx.trace_id, ctx.parent_id) if ctx is not None
              else WallTracer())

    with tracer.span("deserialize", category="ipc", shard=index,
                     bytes=len(payload)):
        queries = pickle.loads(payload)

    db = _OPENED.get(index)
    if db is None:
        with tracer.span("attach", category="snapshot", shard=index,
                         transport=_TRANSPORT,
                         path=os.path.basename(_SHARD_PATHS[index])):
            db = _open_shard(index)
        _OPENED[index] = db
    chaos_kill_point("worker.after-attach", chaos_kill)

    runner = (db.query_batch if kind == "query" else db.explain_batch)
    with tracer.span("query", category="engine", shard=index,
                     queries=len(queries)):
        chaos_kill_point("worker.mid-query", chaos_kill)
        result, stats = capture_batch(db, lambda: runner(queries))

    with tracer.span("serialize", category="ipc", shard=index):
        result_payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)

    slow_entries = db.slow_log.drain() if db.slow_log is not None else []
    chaos_kill_point("worker.before-reply", chaos_kill)
    return {
        "payload": result_payload,
        "stats": stats,
        "spans": tracer.to_dicts(),
        "phases": tracer.by_name(),
        "slow_log": slow_entries,
        "pid": os.getpid(),
        "started": started,
        "ended": time.time(),
    }


@dataclass
class WorkerTaskResult:
    """One shard batch's results plus its full latency/telemetry record.

    A shard that could not serve (supervision exhausted its retries or
    the circuit is open) still yields a result — with ``payload=None``,
    ``failure`` naming the kind (``"worker-died"`` / ``"timeout"`` /
    ``"circuit-open"``), and ``error`` carrying the detail — so the
    caller can degrade per shard instead of losing the whole batch.
    ``ok`` is the uniform health check.
    """

    payload: object                 # query results or an ExplainReport
    stats: ShardBatchStats          # telemetry delta (io, buffer, filter, …)
    phases: Dict[str, float] = field(default_factory=dict)  # seconds by phase
    wall_s: float = 0.0             # parent-observed task wall-clock
    worker_pid: Optional[int] = None
    slow_log: List[dict] = field(default_factory=list)
    failure: Optional[str] = None   # None when served; else the failure kind
    error: Optional[str] = None     # human-readable failure detail
    attempts: int = 1               # submissions consumed (retries included)

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def io(self) -> IOStats:
        return self.stats.io


class ShardWorkerPool:
    """A process pool executing per-shard sub-batches.

    The pool is engine-agnostic: it only knows shard snapshot paths.  Its
    two entry points mirror the private execution hooks of
    :class:`~repro.serving.sharded.ShardedSegmentDatabase`, taking a
    ``{shard_index: queries}`` mapping and returning
    ``{shard_index: WorkerTaskResult}``.  Shards whose sub-batch is
    empty never cross the process boundary at all — no pickling, no
    executor submit, an immediately-empty result.

    ``transport="shm"`` (the default where available) maps every shard
    arena into shared memory up front and workers attach zero-copy;
    ``transport="pickle"`` is the legacy per-process snapshot open.  The
    parent owns the segments: :meth:`shutdown` (or the context manager)
    unlinks them after the workers drain, including when a worker
    crashed mid-batch.

    When a :func:`~repro.telemetry.wall_tracing` tracer is installed in
    the parent, every task inherits its trace id; worker spans are
    adopted back into the parent tracer together with synthetic
    ``dispatch``/``collect`` spans for the boundary crossings, so one
    Chrome-trace export shows the whole multi-process timeline.

    **Supervision** (default-on).  A worker that dies or hangs breaks
    every pending future in the executor — unsupervised, that surfaced
    as a raw ``BrokenProcessPool`` to the caller.  With a
    :class:`~repro.serving.resilience.SupervisorPolicy` the pool instead
    respawns a fresh executor (the parent-owned shm segments survive, so
    workers re-attach zero-copy in O(1)) and resubmits only the failed
    sub-batches, with exponential backoff plus seeded jitter, up to
    ``max_retries`` rounds.  Retries exhausted — or a per-shard
    :class:`~repro.serving.resilience.CircuitBreaker` open — yield a
    *failure-shaped* :class:`WorkerTaskResult` (``ok == False``) rather
    than an exception, so the caller degrades shard-by-shard.  Pass
    ``supervisor=None`` for the legacy raise-through behavior.  A fault-
    free batch takes exactly the legacy code path — same submission
    order, same collection math — so results and telemetry stay
    bit-identical with supervision enabled.

    ``chaos`` accepts an
    :class:`~repro.serving.resilience.RpcChaosSchedule`; each submission
    consults it in the parent (deterministic, replayable) and tags the
    task with a kill point the worker honors via SIGKILL.
    """

    def __init__(self, shard_paths: Sequence[str], workers: int,
                 buffer_pages: Optional[int] = None,
                 slow_query_s: Optional[float] = None,
                 transport: str = "shm",
                 cache_pages: Optional[int] = None,
                 supervisor: Optional[SupervisorPolicy] = _DEFAULT_SUPERVISOR,
                 chaos: Optional[RpcChaosSchedule] = None):
        if workers < 1:
            raise ValueError("ShardWorkerPool needs workers >= 1 "
                             "(use the synchronous path for workers=0)")
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"pick one of {TRANSPORTS}")
        if transport == "shm" and not shm_available():  # pragma: no cover
            transport = "pickle"
        if supervisor is _DEFAULT_SUPERVISOR:
            supervisor = SupervisorPolicy()
        self._paths = list(shard_paths)
        self.workers = workers
        self.transport = transport
        self.supervisor = supervisor
        self.chaos = chaos
        self._retry_rng = Random(supervisor.seed) if supervisor else Random(0)
        self._breakers: Dict[int, CircuitBreaker] = {}
        self.respawns = 0
        self.retried_tasks = 0
        self.failed_tasks = 0
        self.shed_tasks = 0
        self._arenas: Optional[SharedShardArenas] = None
        segments = None
        if transport == "shm":
            self._arenas = SharedShardArenas.create(self._paths)
            segments = self._arenas.descriptors
        self._initargs = (transport, self._paths, segments, buffer_pages,
                          slow_query_s, cache_pages)
        try:
            self._executor = self._spawn_executor()
        except BaseException:
            if self._arenas is not None:
                self._arenas.unlink()
            raise

    def _spawn_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=self._initargs,
        )

    def _respawn(self) -> None:
        """Replace a broken/hung executor with a fresh one.

        The shm segments are parent-owned and untouched, so the new
        workers re-attach in O(1) — recovery cost is process spawn, not
        shard-sized state transfer.  Leftover processes (a hung worker
        after a task timeout) are terminated explicitly; ``shutdown``
        on a broken executor does not reap them.
        """
        old = self._executor
        procs = list((getattr(old, "_processes", None) or {}).values())
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - already torn down
            pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - terminate ignored
                proc.kill()
                proc.join(timeout=5)
        self._executor = self._spawn_executor()
        self.respawns += 1

    def _breaker(self, index: int) -> CircuitBreaker:
        breaker = self._breakers.get(index)
        if breaker is None:
            policy = self.supervisor or SupervisorPolicy()
            breaker = CircuitBreaker(threshold=policy.breaker_threshold,
                                     cooldown_s=policy.breaker_cooldown_s)
            self._breakers[index] = breaker
        return breaker

    @property
    def shared_bytes(self) -> int:
        """Total shm bytes this pool mapped (0 on the pickle transport)."""
        return self._arenas.total_bytes if self._arenas is not None else 0

    def query_batches(self, batches: Dict[int, List]) -> Dict[int, WorkerTaskResult]:
        return self._gather("query", batches)

    def explain_batches(self, batches: Dict[int, List]) -> Dict[int, WorkerTaskResult]:
        return self._gather("explain", batches)

    def _gather(self, kind: str, batches: Dict[int, List]) -> Dict[int, WorkerTaskResult]:
        tracer = wallspans.active()
        out: Dict[int, WorkerTaskResult] = {}
        todo: Dict[int, List] = {}
        for index, queries in batches.items():
            if not queries:
                # An empty sub-batch answers itself: an empty result and
                # a zero telemetry delta, no worker round-trip.  Explain
                # omits the shard entirely (its report enumerates only
                # shards that did work).
                if kind == "query":
                    out[index] = WorkerTaskResult(payload=[],
                                                  stats=ShardBatchStats())
                continue
            if self.supervisor is not None:
                breaker = self._breakers.get(index)
                if breaker is not None and not breaker.allow():
                    # Open circuit: fail fast instead of feeding a retry
                    # storm to a shard that just exhausted its retries.
                    self.shed_tasks += 1
                    out[index] = WorkerTaskResult(
                        payload=None, stats=ShardBatchStats(),
                        failure="circuit-open",
                        error=breaker.last_error or "circuit open",
                        attempts=0)
                    continue
            todo[index] = list(queries)

        attempt = 1
        while todo:
            pending: Dict[int, Tuple] = {}
            failures: Dict[int, Tuple[str, str]] = {}
            for index, queries in todo.items():
                try:
                    pending[index] = self._submit_one(kind, index, queries,
                                                      tracer)
                except BrokenProcessPool as exc:
                    if self.supervisor is None:
                        raise
                    failures[index] = ("worker-died",
                                       str(exc) or "executor broken at submit")
            broken = bool(failures)
            timeout_s = (self.supervisor.task_timeout_s
                         if self.supervisor is not None else None)
            for index, (future, submitted, pickle_s) in pending.items():
                try:
                    raw = future.result(timeout=timeout_s)
                except FutureTimeoutError:
                    future.cancel()
                    failures[index] = (
                        "timeout", f"task exceeded {timeout_s:g}s deadline")
                    broken = True  # the worker is hung; replace the pool
                except BrokenProcessPool as exc:
                    if self.supervisor is None:
                        raise
                    failures[index] = ("worker-died",
                                       str(exc) or "worker died abruptly")
                    broken = True
                else:
                    out[index] = self._collect_one(index, raw, submitted,
                                                   pickle_s, tracer)
                    if index in self._breakers:
                        self._breakers[index].record_success()
            if not failures:
                break
            # Only reachable supervised: unsupervised failures raise above.
            if broken:
                self._respawn()
            if attempt > self.supervisor.max_retries:
                for index, (failkind, reason) in sorted(failures.items()):
                    self.failed_tasks += 1
                    self._breaker(index).record_failure(reason)
                    out[index] = WorkerTaskResult(
                        payload=None, stats=ShardBatchStats(),
                        failure=failkind, error=reason, attempts=attempt)
                break
            self.retried_tasks += len(failures)
            time.sleep(self.supervisor.delay_s(attempt, self._retry_rng))
            todo = {index: todo[index] for index in failures}
            attempt += 1
        return out

    def _submit_one(self, kind: str, index: int, queries: List,
                    tracer) -> Tuple:
        ctx = tracer.context().to_dict() if tracer is not None else None
        chaos_kill = (self.chaos.next_worker_kill(index)
                      if self.chaos is not None else None)
        t0 = perf_counter()
        payload = pickle.dumps(list(queries), pickle.HIGHEST_PROTOCOL)
        pickle_s = perf_counter() - t0
        submitted = time.time()
        future = self._executor.submit(_run_task, kind, index, payload, ctx,
                                       chaos_kill)
        return future, submitted, pickle_s

    def _collect_one(self, index: int, raw: dict, submitted: float,
                     pickle_s: float, tracer) -> WorkerTaskResult:
        t0 = perf_counter()
        payload = restricted_loads(raw["payload"])
        unpickle_s = perf_counter() - t0
        done = time.time()
        # Boundary-crossing phases from the shared epoch clock
        # (same-host processes; negative residues are clock noise).
        dispatch_s = max(0.0, raw["started"] - submitted) + pickle_s
        collect_s = max(0.0, done - raw["ended"]) + unpickle_s
        phases = {"dispatch": dispatch_s, "collect": collect_s}
        phases.update(raw["phases"])
        wall_s = pickle_s + max(0.0, done - submitted) + unpickle_s
        if tracer is not None:
            tracer.add("dispatch", submitted - pickle_s, dispatch_s,
                       category="ipc", shard=index)
            tracer.extend(raw["spans"])
            tracer.add("collect", raw["ended"], collect_s,
                       category="ipc", shard=index)
        return WorkerTaskResult(
            payload=payload,
            stats=raw["stats"],
            phases=phases,
            wall_s=wall_s,
            worker_pid=raw["pid"],
            slow_log=raw["slow_log"],
        )

    def health(self) -> dict:
        """Liveness and supervision counters for the health frame."""
        procs = (getattr(self._executor, "_processes", None) or {})
        return {
            "workers": self.workers,
            "alive_workers": sum(1 for p in procs.values()
                                 if p is not None and p.is_alive()),
            "transport": self.transport,
            "supervised": self.supervisor is not None,
            "respawns": self.respawns,
            "retried_tasks": self.retried_tasks,
            "failed_tasks": self.failed_tasks,
            "shed_tasks": self.shed_tasks,
            "breakers": {index: breaker.to_dict()
                         for index, breaker in sorted(self._breakers.items())},
        }

    def shutdown(self) -> None:
        """Drain the workers, then destroy the shared segments.

        Order matters: segments unlink only after every worker had its
        chance to detach.  A worker that already crashed holds no
        mapping (the OS dropped it), so the unlink is safe — and
        unconditional, so a broken pool never leaks ``/dev/shm``.
        """
        try:
            self._executor.shutdown(wait=True)
        finally:
            if self._arenas is not None:
                self._arenas.unlink()
                self._arenas = None

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
