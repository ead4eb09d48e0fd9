"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo``            run a small end-to-end demonstration
``engines``         list available engines with their cost profiles
``query FILE X [YLO YHI]``
                    load segments from a TSV file (see
                    ``repro.workloads.files``) and run one vertical query
``explain FILE X [YLO YHI]``
                    run one vertical query traced and print its cost
                    anatomy (per-phase I/O breakdown; ``--json`` for the
                    structured report)
``query-batch FILE``
                    generate a query workload against FILE and run it
                    through ``query_batch``, comparing batched I/Os per
                    query with the sequential loop (``--count N`` queries,
                    ``--batch-size K``, ``--seed S``; ``--json`` for the
                    structured summary)
``validate FILE``   check a segment file for NCT violations
``chaos [FILE]``    run a fault-injection suite: for each seed, replay a
                    query/insert workload on a faulty device next to a
                    clean twin and fail on any silently wrong answer
                    (``--seeds N``, ``--seed S``, ``--count N`` queries,
                    ``--updates N`` inserts, ``--read-err R``,
                    ``--corrupt-rate R``, ``--torn R``, ``--retries K``,
                    ``--dump-schedule PATH`` to save the injected-fault
                    log, ``--json``); without FILE a generated workload
                    is used
``fsck [FILE]``     build an index, optionally apply ``--updates N``
                    random inserts and corrupt ``--corrupt-pages K``
                    pages, then run the integrity checker (checksum scan
                    + deep structural verify); exits nonzero on damage
``serve-bench [FILE]``
                    build an x-sharded database, snapshot it to disk,
                    re-open it and replay a query workload through the
                    serving layer in this process, reporting snapshot
                    save/open times, queries/sec, latency percentiles
                    and per-shard I/O (``--shards K``,
                    ``--segments N`` to size the generated workload,
                    ``--count N`` queries, ``--batch-size K``,
                    ``--seed S``, ``--dir PATH`` to keep the snapshot
                    directory, ``--trace PATH`` to export the run as
                    Chrome-trace-event/Perfetto JSON, ``--slow-ms T`` to
                    arm the slow-query log at T milliseconds, ``--json``)
``serve [DIR|FILE]``
                    long-lived serving daemon: open a sharded snapshot
                    directory (or build one from FILE / ``--segments N``
                    generated segments) and serve ``query_batch`` over
                    TCP with request batching and admission control;
                    prints a JSON ready line with the bound port, then
                    serves until SIGTERM/SIGINT and exits 0 with a JSON
                    drain report (``--workers N`` — N forked processes
                    behind the one port, each answering whole requests
                    over its own copy of the shards; 0, the default,
                    answers in this process; ``--host H``, ``--port P``
                    — 0 picks a free port, ``--max-pending`` (per
                    serving process) / ``--max-batch`` for the batcher,
                    ``--dir PATH`` to keep a generated snapshot)
``serve-client --port P [FILE]``
                    batched client for ``serve``: replay a generated (or
                    FILE-loaded) query workload against a running daemon
                    and report throughput (``--count N``,
                    ``--batch-size K``, ``--seed S``,
                    ``--connect-timeout S`` / ``--request-timeout S``
                    socket deadlines, ``--retries K`` jittered reconnect
                    attempts, ``--deadline-ms T`` server-side per-request
                    deadline, ``--json``); connection failures exit 1
                    with a one-line typed error, never a traceback
``chaos-serve [FILE]``
                    run the serving chaos suite: for each seed, serve a
                    snapshot from an in-process daemon behind a
                    fault-injecting TCP proxy (delayed/truncated/
                    corrupted frames, resets), and check every response
                    against a fault-free oracle — exact or a typed
                    error; exits nonzero on any silently wrong answer
                    (``--seeds N``, ``--seed S``,
                    ``--frame-corrupt R``, ``--frame-truncate R``,
                    ``--frame-delay R``, ``--conn-reset R``,
                    ``--deadline-ms T``, ``--dump-schedule PATH``,
                    ``--json``; with no rates given a default fault mix
                    is applied)
``health --port P`` probe a running ``serve`` daemon: the answering
                    process, admission-queue depth, drain state,
                    reject/deadline counters and quarantined shards
                    (``--json`` for the full structure)
``trace [FILE]``    run a small serving workload wall-traced and write a
                    Chrome-trace-event/Perfetto JSON timeline (open it at
                    https://ui.perfetto.dev or ``chrome://tracing``);
                    same flags as ``serve-bench``, output defaults to
                    ``trace.json`` (``--out PATH`` to change it)
``version``         print the library version

``query``, ``query-batch`` and ``explain`` accept ``--engine NAME``
(default solution2), ``--buffer N`` (put an N-page LRU buffer pool under
the engine and report its hit rate) and ``--block B`` (block capacity,
default 64).

Every command accepts ``--exact-only``: disable the floating-point
fast path of the filtered arithmetic kernel and run every geometric
comparison on exact rationals (equivalent to ``REPRO_EXACT_ONLY=1``;
results are identical either way — the fast path only takes certified
decisions).
"""

from __future__ import annotations

import sys
from fractions import Fraction

ENGINE_NOTES = {
    "solution1": "Theorem 1 — O(n) space, O(log2 n·log_B n + t) query, dynamic",
    "solution2": "Theorem 2 — O(n log2 B) space, O(log_B n·(log_B n+log2 B) + t) query, insert-only",
    "scan": "baseline — O(n) per query",
    "stab-filter": "baseline — stabbing index over x-projections + y filter",
    "grid": "baseline — uniform bucket grid",
    "rtree": "baseline — STR-packed R-tree (no worst-case query bound)",
}


def _coord(token: str):
    if "/" in token:
        num, den = token.split("/", 1)
        return Fraction(int(num), int(den))
    return int(token)


_INT_FLAGS = ("--buffer", "--block", "--batch-size", "--count", "--seed",
              "--seeds", "--updates", "--corrupt-pages", "--retries",
              "--shards", "--workers", "--segments", "--port",
              "--max-pending", "--max-batch")
_FLOAT_FLAGS = ("--read-err", "--corrupt-rate", "--torn", "--slow-ms",
                "--connect-timeout", "--request-timeout", "--deadline-ms",
                "--frame-corrupt", "--frame-truncate", "--frame-delay",
                "--conn-reset")
_STR_FLAGS = ("--engine", "--dump-schedule", "--dir", "--trace", "--out",
              "--host")


def _pop_flags(args):
    """Split ``args`` into positional tokens and recognised ``--`` flags."""
    positional = []
    flags = {"engine": "solution2", "buffer": None, "block": 64, "json": False,
             "batch-size": None, "count": 64, "seed": 0,
             "seeds": 5, "updates": 0, "corrupt-pages": 0, "retries": 3,
             "read-err": 0.0, "corrupt-rate": 0.0, "torn": 0.0,
             "dump-schedule": None, "shards": 2, "workers": 0,
             "segments": 0, "dir": None, "trace": None, "out": None,
             "slow-ms": None, "host": "127.0.0.1", "port": 0,
             "max-pending": 64, "max-batch": 64,
             "connect-timeout": 5.0, "request-timeout": 30.0,
             "deadline-ms": None, "frame-corrupt": 0.0, "frame-truncate": 0.0,
             "frame-delay": 0.0, "conn-reset": 0.0}
    i = 0
    while i < len(args):
        token = args[i]
        if token == "--json":
            flags["json"] = True
        elif token in _INT_FLAGS + _FLOAT_FLAGS + _STR_FLAGS:
            if i + 1 >= len(args):
                raise ValueError(f"{token} needs a value")
            value = args[i + 1]
            if token in _STR_FLAGS:
                flags[token[2:]] = value
            elif token in _FLOAT_FLAGS:
                flags[token[2:]] = float(value)
            else:
                flags[token[2:]] = int(value)
            i += 1
        elif token.startswith("--"):
            raise ValueError(f"unknown flag {token!r}")
        else:
            positional.append(token)
        i += 1
    return positional, flags


def _load_db(path: str, flags):
    from repro import SegmentDatabase
    from repro.workloads.files import load

    segments = load(path)
    return SegmentDatabase.bulk_load(
        segments,
        engine=flags["engine"],
        block_capacity=flags["block"],
        buffer_pages=flags["buffer"],
    )


def _parse_query(positional):
    from repro import VerticalQuery

    x = _coord(positional[1])
    if len(positional) == 4:
        return VerticalQuery.segment(x, _coord(positional[2]), _coord(positional[3]))
    return VerticalQuery.line(x)


def cmd_demo() -> int:
    from repro import Segment, SegmentDatabase, VerticalQuery

    segments = [
        Segment.from_coords(0, 8, 3, 9, label="ridge"),
        Segment.from_coords(4, 5, 9, 6, label="river"),
        Segment.from_coords(5, 1, 8, 3, label="road"),
        Segment.from_coords(6, 7, 6, 10, label="wall"),
    ]
    db = SegmentDatabase.bulk_load(segments, block_capacity=16, validate=True)
    q = VerticalQuery.segment(6, 1, 8)
    hits = sorted(s.label for s in db.query(q))
    print(f"{len(db)} segments indexed in {db.space_in_blocks()} blocks")
    print(f"VS query x=6, y in [1, 8] -> {hits}")
    print(f"I/O: {db.io_stats()}")
    return 0


def cmd_engines() -> int:
    from repro import ENGINES

    for engine in ENGINES:
        print(f"{engine:>12}  {ENGINE_NOTES[engine]}")
    return 0


def cmd_query(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) not in (2, 4):
        print("usage: python -m repro query FILE X [YLO YHI] "
              "[--engine NAME] [--buffer N] [--block B]", file=sys.stderr)
        return 2
    db = _load_db(positional[0], flags)
    hits = db.query(_parse_query(positional))
    for s in sorted(hits, key=lambda s: str(s.label)):
        print(s.label)
    summary = (f"# {len(hits)} of {len(db)} segments; "
               f"{db.io_stats().reads} block reads")
    if db.buffer_hit_rate is not None:
        summary += f"; buffer hit rate {db.buffer_hit_rate:.2%}"
    print(summary, file=sys.stderr)
    return 0


def cmd_query_batch(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) != 1:
        print("usage: python -m repro query-batch FILE [--count N] "
              "[--batch-size K] [--seed S] [--engine NAME] [--buffer N] "
              "[--block B] [--json]", file=sys.stderr)
        return 2
    from repro import SegmentDatabase
    from repro.workloads.files import load
    from repro.workloads.queries import segment_queries

    segments = load(positional[0])
    db = SegmentDatabase.bulk_load(
        segments,
        engine=flags["engine"],
        block_capacity=flags["block"],
        buffer_pages=flags["buffer"],
    )
    queries = segment_queries(segments, flags["count"], seed=flags["seed"])
    batch_size = flags["batch-size"] or len(queries)

    db.reset_io_stats()
    sequential = [db.query(q) for q in queries]
    seq_io = db.io_stats().total
    db.reset_io_stats()
    batched: list = []
    for start in range(0, len(queries), batch_size):
        batched.extend(db.query_batch(queries[start:start + batch_size]))
    bat_io = db.io_stats().total
    assert len(batched) == len(sequential)

    n = len(queries)
    results = sum(len(r) for r in batched)
    summary = {
        "engine": flags["engine"],
        "queries": n,
        "batch_size": batch_size,
        "results": results,
        "sequential_ios": seq_io,
        "batched_ios": bat_io,
        "sequential_ios_per_query": seq_io / n if n else 0.0,
        "batched_ios_per_query": bat_io / n if n else 0.0,
        "io_speedup": (seq_io / bat_io) if bat_io else None,
        "buffer_hit_rate": db.buffer_hit_rate,
    }
    if flags["json"]:
        import json

        print(json.dumps(summary, indent=2))
        return 0
    print(f"# {n} queries, batch size {batch_size}, engine {flags['engine']}")
    print(f"# sequential: {seq_io} I/Os "
          f"({summary['sequential_ios_per_query']:.2f}/query)")
    speedup = (f", amortization {summary['io_speedup']:.2f}x"
               if summary["io_speedup"] else "")
    print(f"# batched:    {bat_io} I/Os "
          f"({summary['batched_ios_per_query']:.2f}/query){speedup}")
    print(f"# results: {results} segments reported")
    if db.buffer_hit_rate is not None:
        print(f"# buffer hit rate {db.buffer_hit_rate:.2%}")
    return 0


def cmd_explain(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) not in (2, 4):
        print("usage: python -m repro explain FILE X [YLO YHI] "
              "[--engine NAME] [--buffer N] [--block B] [--json]",
              file=sys.stderr)
        return 2
    db = _load_db(positional[0], flags)
    report = db.explain(_parse_query(positional))
    if flags["json"]:
        import json

        print(json.dumps(report.to_dict(), indent=2, default=str))
    else:
        print(report.to_markdown())
    return 0


def _workload_segments(positional, flags):
    """Segments for the robustness commands: FILE if given, else generated."""
    if positional:
        from repro.workloads.files import load

        return load(positional[0])
    from repro.workloads.nct_random import grid_segments

    return grid_segments(300, seed=flags["seed"])


def _fresh_segments(n: int, seed: int):
    """Disjoint insert fodder placed away from the generated base grid."""
    from repro.workloads.nct_random import grid_segments
    from repro import Segment

    out = []
    for i, s in enumerate(grid_segments(n, seed=seed)):
        out.append(Segment.from_coords(
            s.start.x + 1_000_000, s.start.y,
            s.end.x + 1_000_000, s.end.y,
            label=("chaos", seed, i),
        ))
    return out


def _run_chaos_seed(segments, seed, flags):
    """One chaos round: faulty device vs clean twin, same workload."""
    from repro import SegmentDatabase, SimulatedCrash
    from repro.iosim import FaultSchedule, RetryPolicy, StorageError
    from repro.workloads.queries import segment_queries

    schedule = FaultSchedule(
        seed=seed,
        read_error_rate=flags["read-err"],
        corrupt_read_rate=flags["corrupt-rate"],
        torn_write_rate=flags["torn"],
    )
    db = SegmentDatabase.bulk_load(
        segments, engine=flags["engine"], block_capacity=flags["block"],
        faults=schedule, retry=RetryPolicy(max_retries=flags["retries"]),
    )
    twin = SegmentDatabase.bulk_load(
        segments, engine=flags["engine"], block_capacity=flags["block"],
    )
    queries = segment_queries(segments, flags["count"],
                              selectivity=0.05, seed=seed)
    inserts = list(_fresh_segments(flags["updates"], seed))
    every = max(1, len(queries) // max(1, len(inserts))) if inserts else None

    stats = {"seed": seed, "queries": len(queries), "exact": 0, "degraded": 0,
             "typed_errors": 0, "wrong": 0, "updates_applied": 0,
             "updates_failed": 0, "crashes_recovered": 0}
    wrong_queries = []
    for i, q in enumerate(queries):
        if every and inserts and i % every == 0:
            seg = inserts.pop()
            try:
                db.insert(seg)
                twin.insert(seg)
                stats["updates_applied"] += 1
            except SimulatedCrash:
                db.recover()  # index rolls back; the twin never inserted
                stats["crashes_recovered"] += 1
            except StorageError:
                stats["updates_failed"] += 1
        expected = sorted(str(s.label) for s in twin.query(q))
        try:
            result = db.query(q)
        except StorageError:
            stats["typed_errors"] += 1  # loud failure: acceptable
            continue
        got = sorted(str(s.label) for s in result)
        if got != expected:
            stats["wrong"] += 1
            wrong_queries.append(str(q))
        elif getattr(result, "degraded", False):
            stats["degraded"] += 1
        else:
            stats["exact"] += 1
    fsck = db.fsck()
    stats["fsck_ok"] = fsck.ok
    stats["fsck_problems"] = len(fsck.problems)
    stats["faults"] = db.io_report()["faults"]
    return stats, schedule, wrong_queries


def cmd_chaos(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) > 1:
        print("usage: python -m repro chaos [FILE] [--seeds N] [--seed S] "
              "[--count N] [--updates N] [--engine NAME] [--block B] "
              "[--read-err R] [--corrupt-rate R] [--torn R] [--retries K] "
              "[--dump-schedule PATH] [--json]", file=sys.stderr)
        return 2
    if not (flags["read-err"] or flags["corrupt-rate"] or flags["torn"]):
        flags["read-err"], flags["corrupt-rate"], flags["torn"] = 0.02, 0.01, 0.02
    if flags["updates"] == 0:
        flags["updates"] = 8
    segments = _workload_segments(positional, flags)

    rounds = []
    schedules = {}
    silent_wrong = 0
    for seed in range(flags["seed"], flags["seed"] + flags["seeds"]):
        stats, schedule, wrong_queries = _run_chaos_seed(segments, seed, flags)
        rounds.append(stats)
        silent_wrong += stats["wrong"]
        schedules[seed] = {
            "schedule": schedule.to_dict(),
            "wrong_queries": wrong_queries,
            "verdict": "FAIL" if stats["wrong"] else "ok",
        }
    if flags["dump-schedule"]:
        import json

        with open(flags["dump-schedule"], "w") as fh:
            json.dump({"engine": flags["engine"], "rounds": schedules}, fh,
                      indent=2, default=str)
    if flags["json"]:
        import json

        print(json.dumps({"rounds": rounds, "silent_wrong": silent_wrong},
                         indent=2))
    else:
        for r in rounds:
            verdict = "FAIL" if r["wrong"] else "ok"
            print(f"seed {r['seed']:>4}: {verdict}  "
                  f"{r['exact']} exact, {r['degraded']} degraded, "
                  f"{r['typed_errors']} typed errors, {r['wrong']} wrong; "
                  f"{r['updates_applied']} inserts, "
                  f"{r['crashes_recovered']} crashes recovered, "
                  f"{r['faults']['faults_injected']} faults injected"
                  + ("" if r["fsck_ok"]
                     else f"; fsck: {r['fsck_problems']} problem(s)"))
        print(f"# never-silently-wrong: "
              f"{'FAIL' if silent_wrong else 'PASS'} over {len(rounds)} seeds")
    return 1 if silent_wrong else 0


def cmd_fsck(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) > 1:
        print("usage: python -m repro fsck [FILE] [--engine NAME] [--block B] "
              "[--updates N] [--corrupt-pages K] [--seed S] [--json]",
              file=sys.stderr)
        return 2
    import random as _random

    from repro import SegmentDatabase
    from repro.iosim import FaultSchedule

    segments = _workload_segments(positional, flags)
    db = SegmentDatabase.bulk_load(
        segments, engine=flags["engine"], block_capacity=flags["block"],
        faults=FaultSchedule(seed=flags["seed"]),
    )
    for seg in _fresh_segments(flags["updates"], flags["seed"]):
        db.insert(seg)
    rng = _random.Random(flags["seed"])
    live = sorted(p.page_id for p in db.device.iter_pages())
    for page_id in rng.sample(live, min(flags["corrupt-pages"], len(live))):
        db.device.corrupt_page(page_id)
    report = db.fsck()
    if flags["json"]:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report)
    return 0 if report.ok else 1


def _run_serve_bench(positional, flags) -> int:
    """Shared body of ``serve-bench`` and ``trace``."""
    import contextlib
    import os
    import tempfile
    import time

    from repro.serving import ShardedSegmentDatabase
    from repro.telemetry import wall_tracing, write_chrome_trace
    from repro.workloads.queries import segment_queries

    if positional:
        from repro.workloads.files import load

        segments = load(positional[0])
    else:
        from repro.workloads.nct_random import grid_segments

        segments = grid_segments(flags["segments"] or 2000,
                                 seed=flags["seed"])
    queries = segment_queries(segments, flags["count"], seed=flags["seed"])
    batch_size = flags["batch-size"] or len(queries)
    slow_s = (flags["slow-ms"] / 1000.0
              if flags["slow-ms"] is not None else None)

    t0 = time.perf_counter()
    built = ShardedSegmentDatabase.bulk_load(
        segments, shards=flags["shards"], engine=flags["engine"],
        block_capacity=flags["block"], buffer_pages=flags["buffer"],
    )
    build_s = time.perf_counter() - t0

    trace_info = None
    with contextlib.ExitStack() as stack:
        directory = flags["dir"] or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-serve-"))
        t0 = time.perf_counter()
        built.save(directory)
        save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        served = ShardedSegmentDatabase.open(
            directory, buffer_pages=flags["buffer"], slow_query_s=slow_s)
        open_s = time.perf_counter() - t0

        tracer_cm = (wall_tracing() if flags["trace"]
                     else contextlib.nullcontext())
        with tracer_cm as tracer:
            t0 = time.perf_counter()
            answered = 0
            results = 0
            for number, start in enumerate(range(0, len(queries), batch_size)):
                batch = queries[start:start + batch_size]
                batch_cm = (tracer.span("serve-batch", category="serving",
                                        batch=number, queries=len(batch))
                            if tracer is not None else contextlib.nullcontext())
                with batch_cm:
                    for r in served.query_batch(batch):
                        results += len(r)
                answered += len(batch)
            serve_s = time.perf_counter() - t0
        io = served.io_report()
        latency = served.latency_report()
        slow = (served.slow_log.to_dict()
                if served.slow_log is not None else None)
        if tracer is not None:
            doc = write_chrome_trace(
                flags["trace"], tracer.records, parent_pid=os.getpid(),
                metadata={
                    "command": "serve-bench",
                    "engine": flags["engine"],
                    "shards": built.shard_count,
                    "queries": answered,
                },
            )
            trace_info = {
                "path": flags["trace"],
                "trace_id": tracer.trace_id,
                "events": len(doc["traceEvents"]),
            }

    summary = {
        "engine": flags["engine"],
        "segments": len(segments),
        "shards": built.shard_count,
        "replicated": built.replicated,
        "queries": answered,
        "batch_size": batch_size,
        "results": results,
        "build_s": build_s,
        "snapshot_save_s": save_s,
        "snapshot_open_s": open_s,
        "serve_s": serve_s,
        "queries_per_s": answered / serve_s if serve_s else None,
        "io": io,
        "latency": latency,
    }
    if trace_info is not None:
        summary["trace"] = trace_info
    if slow is not None:
        summary["slow_queries"] = slow
    if flags["json"]:
        import json

        print(json.dumps(summary, indent=2))
        return 0
    print(f"# {len(segments)} segments, {built.shard_count} shards "
          f"(+{built.replicated} replicas), engine {flags['engine']}")
    print(f"# build {build_s:.3f}s; snapshot save {save_s:.3f}s, "
          f"open {open_s:.3f}s")
    print(f"# {answered} queries in {serve_s:.3f}s "
          f"({summary['queries_per_s']:.0f} q/s), {results} results")
    per_shard = ", ".join(str(s["total"]) for s in io["shards"])
    print(f"# I/O: {io['combined']['total']} total ({per_shard} per shard)")
    batches = latency["batches"]
    print(f"# batch latency ms: p50 {batches['p50_ms']}, "
          f"p95 {batches['p95_ms']}, p99 {batches['p99_ms']} "
          f"over {batches['count']} batches")
    print(f"# shard tasks: {latency['tasks']} in "
          f"{latency['task_wall_s']:.3f}s")
    if slow is not None:
        print(f"# slow queries: {slow['recorded']} at "
              f">= {flags['slow-ms']:.1f}ms")
    if trace_info is not None:
        print(f"# trace: {trace_info['path']} ({trace_info['events']} events, "
              f"trace id {trace_info['trace_id']})")
    return 0


def _serve_workload_dir(positional, flags, stack):
    """The snapshot directory ``serve`` runs against.

    A positional that is a directory is used as-is (a snapshot saved by
    ``ShardedSegmentDatabase.save`` or ``serve-bench --dir``); a file is
    loaded as segments; nothing generates ``--segments`` (default 2000)
    NCT segments.  Generated/loaded data is sharded and snapshotted into
    ``--dir`` (or a temp dir owned by ``stack``).
    """
    import os
    import tempfile

    from repro.serving import ShardedSegmentDatabase

    if positional and os.path.isdir(positional[0]):
        return positional[0]
    if positional:
        from repro.workloads.files import load

        segments = load(positional[0])
    else:
        from repro.workloads.nct_random import grid_segments

        segments = grid_segments(flags["segments"] or 2000,
                                 seed=flags["seed"])
    built = ShardedSegmentDatabase.bulk_load(
        segments, shards=flags["shards"], engine=flags["engine"],
        block_capacity=flags["block"], buffer_pages=flags["buffer"],
    )
    directory = flags["dir"] or stack.enter_context(
        tempfile.TemporaryDirectory(prefix="repro-serve-"))
    built.save(directory)
    return directory


def cmd_serve(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) > 1 or flags["workers"] < 0:
        print("usage: python -m repro serve [DIR|FILE] [--workers N] "
              "[--shards K] [--segments N] [--engine NAME] [--buffer N] "
              "[--block B] [--host H] [--port P] [--max-pending N] "
              "[--max-batch N] [--slow-ms T] [--dir PATH] [--seed S]",
              file=sys.stderr)
        return 2
    import contextlib
    import json
    import os

    from repro.serving import (PreforkServer, ServeDaemon,
                               ShardedSegmentDatabase)

    slow_s = (flags["slow-ms"] / 1000.0
              if flags["slow-ms"] is not None else None)
    open_kwargs = {"buffer_pages": flags["buffer"], "slow_query_s": slow_s}
    daemon_kwargs = {"max_pending": flags["max-pending"],
                     "max_batch": flags["max-batch"]}
    with contextlib.ExitStack() as stack:
        directory = _serve_workload_dir(positional, flags, stack)

        def announce(port, shards, pids):
            print(json.dumps({
                "ready": True,
                "host": flags["host"],
                "port": port,
                "pid": os.getpid(),
                "snapshot": directory,
                "shards": shards,
                "workers": flags["workers"],
                "children": pids,
            }), flush=True)

        if flags["workers"] > 0:
            # N forked daemons, each answering whole requests; this
            # process only hands them connections.
            server = PreforkServer(directory, flags["workers"],
                                   host=flags["host"], port=flags["port"],
                                   open_kwargs=open_kwargs,
                                   daemon_kwargs=daemon_kwargs)
            try:
                server.listen()
            except OSError as exc:
                print(f"serve: cannot listen on {flags['host']} port "
                      f"{flags['port']}: {exc}", file=sys.stderr)
                return 2
            report = server.run(announce)
            if "error" in report:
                print(f"serve: {report['error']}", file=sys.stderr)
                if not server.announced:
                    return 1
        else:
            served = ShardedSegmentDatabase.open(directory, **open_kwargs)
            daemon = ServeDaemon(served, host=flags["host"],
                                 port=flags["port"], **daemon_kwargs)
            # Serves until SIGTERM/SIGINT, then drains.
            report = daemon.run(on_ready=lambda: announce(
                daemon.port, served.shard_count, []))
    print(json.dumps(report), flush=True)
    return 0 if report["drained"] else 1


def cmd_serve_client(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) > 1 or not flags["port"]:
        print("usage: python -m repro serve-client --port P [FILE] "
              "[--host H] [--count N] [--batch-size K] [--segments N] "
              "[--seed S] [--connect-timeout S] [--request-timeout S] "
              "[--retries K] [--deadline-ms T] [--json]", file=sys.stderr)
        return 2
    import json
    import time

    from repro.serving import (ServeClient, ServeConnectionError,
                               ServeRejected)
    from repro.workloads.queries import segment_queries

    if positional:
        from repro.workloads.files import load

        segments = load(positional[0])
    else:
        from repro.workloads.nct_random import grid_segments

        # Mirrors the daemon's generated workload (same flags, same
        # seed) so the queries land on populated shards.
        segments = grid_segments(flags["segments"] or 2000,
                                 seed=flags["seed"])
    queries = segment_queries(segments, flags["count"], seed=flags["seed"])
    batch_size = flags["batch-size"] or 8

    degraded = 0
    rejected = 0
    try:
        with ServeClient(host=flags["host"], port=flags["port"],
                         connect_timeout=flags["connect-timeout"],
                         request_timeout=flags["request-timeout"],
                         retries=flags["retries"],
                         seed=flags["seed"]) as client:
            ping = client.ping()
            t0 = time.perf_counter()
            results = 0
            for start in range(0, len(queries), batch_size):
                try:
                    batch = client.query_batch(
                        queries[start:start + batch_size],
                        timeout_ms=flags["deadline-ms"])
                except ServeRejected as exc:
                    rejected += 1
                    print(f"# rejected ({exc.error_type}): {exc}",
                          file=sys.stderr)
                    continue
                if any(getattr(r, "degraded", False) for r in batch):
                    degraded += 1
                for r in batch:
                    results += len(r)
            elapsed = time.perf_counter() - t0
            stats = client.stats()
    except ServeConnectionError as exc:
        # The typed failure surface: one line naming host, port, and
        # what broke — never a traceback.
        print(f"serve-client: connection failed: {exc}", file=sys.stderr)
        return 1
    summary = {
        "ok": bool(ping.get("ok")),
        "queries": len(queries),
        "batch_size": batch_size,
        "results": results,
        "elapsed_s": elapsed,
        "queries_per_s": len(queries) / elapsed if elapsed else None,
        "degraded_batches": degraded,
        "rejected_batches": rejected,
        "server_batches": stats["metrics"]
        .get("serve.batches", {}).get("value"),
    }
    if flags["json"]:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"# {summary['queries']} queries in {elapsed:.3f}s "
          f"({summary['queries_per_s']:.0f} q/s), "
          f"{results} results, "
          f"server batches {summary['server_batches']}"
          + (f", {degraded} degraded" if degraded else "")
          + (f", {rejected} rejected" if rejected else ""))
    return 0


def _run_chaos_serve_seed(directory, queries, expected, seed, flags):
    """One serving-chaos round: daemon + chaos proxy vs the oracle.

    Mirrors ``_run_chaos_seed``'s contract at the RPC layer: every
    response must be exactly right or a typed error — a silently wrong
    answer fails the round.
    """
    import threading

    from repro.serving import (ChaosProxy, RpcChaosSchedule, ServeClient,
                               ServeConnectionError, ServeDaemon,
                               ServeRejected, ShardedSegmentDatabase)

    schedule = RpcChaosSchedule(
        seed=seed,
        frame_corrupt_rate=flags["frame-corrupt"],
        frame_truncate_rate=flags["frame-truncate"],
        frame_delay_rate=flags["frame-delay"],
        conn_reset_rate=flags["conn-reset"],
    )
    stats = {"seed": seed, "batches": 0, "exact": 0, "typed_errors": 0,
             "wrong": 0}
    wrong_queries = []
    batch_size = flags["batch-size"] or 8
    daemon = ServeDaemon(ShardedSegmentDatabase.open(directory), port=0)
    thread = threading.Thread(
        target=daemon.run, kwargs={"install_signal_handlers": False},
        daemon=True)
    thread.start()
    if not daemon.ready.wait(30):
        raise RuntimeError("daemon did not come up")
    with ChaosProxy("127.0.0.1", daemon.port, schedule) as proxy:
        with ServeClient(port=proxy.port,
                         connect_timeout=flags["connect-timeout"],
                         request_timeout=min(flags["request-timeout"], 10.0),
                         retries=4, retry_backoff_s=0.02,
                         seed=seed) as client:
            for start in range(0, len(queries), batch_size):
                stats["batches"] += 1
                want = expected[start:start + batch_size]
                try:
                    got = client.query_batch(
                        queries[start:start + batch_size],
                        timeout_ms=flags["deadline-ms"])
                except (ServeRejected, ServeConnectionError):
                    stats["typed_errors"] += 1  # loud: acceptable
                    continue
                answers = [sorted(str(s.label) for s in r) for r in got]
                if answers == want:
                    stats["exact"] += 1
                    continue
                stats["wrong"] += 1
                for offset, (answer, labels) in enumerate(zip(answers, want)):
                    if answer != labels:
                        wrong_queries.append(str(queries[start + offset]))
                        break
                else:
                    wrong_queries.append(f"batch at {start}: {len(answers)} "
                                         f"answers to {len(want)} queries")
    daemon.request_stop()
    thread.join(30)
    stats["frame_faults"] = schedule.frame_faults_injected
    return stats, schedule.to_dict(), wrong_queries


def cmd_chaos_serve(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) > 1:
        print("usage: python -m repro chaos-serve [FILE] [--seeds N] "
              "[--seed S] [--count N] [--batch-size K] [--shards K] "
              "[--segments N] [--engine NAME] [--block B] "
              "[--frame-corrupt R] [--frame-truncate R] [--frame-delay R] "
              "[--conn-reset R] [--deadline-ms T] [--dump-schedule PATH] "
              "[--json]", file=sys.stderr)
        return 2
    import contextlib
    import tempfile

    from repro.serving import ShardedSegmentDatabase
    from repro.workloads.queries import segment_queries

    if not (flags["frame-corrupt"] or flags["frame-truncate"]
            or flags["frame-delay"] or flags["conn-reset"]):
        flags["frame-corrupt"] = 0.05
        flags["frame-truncate"] = 0.03
        flags["conn-reset"] = 0.05
    segments = _workload_segments(positional, flags)
    queries = segment_queries(segments, flags["count"], seed=flags["seed"])

    built = ShardedSegmentDatabase.bulk_load(
        segments, shards=flags["shards"], engine=flags["engine"],
        block_capacity=flags["block"])
    # The oracle: the same batch answered directly, no faults anywhere.
    expected = [sorted(str(s.label) for s in r)
                for r in built.query_batch(queries)]
    rounds = []
    schedules = {}
    failures = 0
    with contextlib.ExitStack() as stack:
        directory = flags["dir"] or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-chaos-serve-"))
        built.save(directory)
        for seed in range(flags["seed"], flags["seed"] + flags["seeds"]):
            stats, schedule, wrong_queries = _run_chaos_serve_seed(
                directory, queries, expected, seed, flags)
            rounds.append(stats)
            failures += stats["wrong"]
            schedules[seed] = {
                "schedule": schedule,
                "wrong_queries": wrong_queries,
                "verdict": "FAIL" if stats["wrong"] else "ok",
            }
    if flags["dump-schedule"]:
        import json

        with open(flags["dump-schedule"], "w") as fh:
            json.dump({"engine": flags["engine"], "rounds": schedules}, fh,
                      indent=2, default=str)
    if flags["json"]:
        import json

        print(json.dumps({"rounds": rounds, "failures": failures}, indent=2))
    else:
        for r in rounds:
            print(f"seed {r['seed']:>4}: {'FAIL' if r['wrong'] else 'ok'}  "
                  f"{r['exact']} exact, {r['typed_errors']} typed errors, "
                  f"{r['wrong']} wrong of {r['batches']} batches; "
                  f"{r['frame_faults']} frame faults")
        print(f"# never-silently-wrong: "
              f"{'FAIL' if failures else 'PASS'} over {len(rounds)} seeds")
    return 1 if failures else 0


def cmd_health(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if positional or not flags["port"]:
        print("usage: python -m repro health --port P [--host H] "
              "[--connect-timeout S] [--request-timeout S] [--json]",
              file=sys.stderr)
        return 2
    import json

    from repro.serving import ServeClient, ServeConnectionError

    try:
        with ServeClient(host=flags["host"], port=flags["port"],
                         connect_timeout=flags["connect-timeout"],
                         request_timeout=flags["request-timeout"]) as client:
            health = client.health()
    except ServeConnectionError as exc:
        print(f"health: daemon unreachable: {exc}", file=sys.stderr)
        return 1
    if flags["json"]:
        print(json.dumps(health, indent=2))
        return 0
    print(f"# pid={health['pid']} draining={health['draining']} "
          f"inflight={health['inflight']} "
          f"pending={health['pending']}/{health['max_pending']} "
          f"rejected={health['rejected']} "
          f"deadline_expired={health['deadline_expired']}")
    db = health.get("db")
    if db:
        print(f"# db: shards={db['shards']} "
              f"quarantined={db['quarantined']}")
    return 0


def cmd_serve_bench(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) > 1 or flags["workers"]:
        print("usage: python -m repro serve-bench [FILE] [--shards K] "
              "[--segments N] [--count N] [--batch-size K] "
              "[--seed S] [--engine NAME] [--buffer N] [--block B] "
              "[--dir PATH] [--trace PATH] [--slow-ms T] [--json]",
              file=sys.stderr)
        return 2
    return _run_serve_bench(positional, flags)


def cmd_trace(args) -> int:
    try:
        positional, flags = _pop_flags(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(positional) > 1 or flags["workers"]:
        print("usage: python -m repro trace [FILE] [--out PATH] [--shards K] "
              "[--segments N] [--count N] [--batch-size K] "
              "[--seed S] [--engine NAME] [--buffer N] [--block B] "
              "[--slow-ms T] [--json]", file=sys.stderr)
        return 2
    flags["trace"] = flags["trace"] or flags["out"] or "trace.json"
    return _run_serve_bench(positional, flags)


def cmd_validate(args) -> int:
    if len(args) != 1:
        print("usage: python -m repro validate FILE", file=sys.stderr)
        return 2
    from repro.geometry import CrossingError
    from repro.workloads.files import load

    try:
        segments = load(args[0], validate=True)
    except CrossingError as exc:
        print(f"NOT NCT: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {len(segments)} segments, non-crossing (touching allowed)")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--exact-only" in argv:
        from repro.geometry import set_exact_only

        set_exact_only(True)
        argv = [a for a in argv if a != "--exact-only"]
    if not argv:
        print(__doc__)
        return 2
    command, args = argv[0], argv[1:]
    if command == "demo":
        return cmd_demo()
    if command == "engines":
        return cmd_engines()
    if command == "query":
        return cmd_query(args)
    if command == "query-batch":
        return cmd_query_batch(args)
    if command == "explain":
        return cmd_explain(args)
    if command == "validate":
        return cmd_validate(args)
    if command == "chaos":
        return cmd_chaos(args)
    if command == "fsck":
        return cmd_fsck(args)
    if command == "serve-bench":
        return cmd_serve_bench(args)
    if command == "serve":
        return cmd_serve(args)
    if command == "serve-client":
        return cmd_serve_client(args)
    if command == "chaos-serve":
        return cmd_chaos_serve(args)
    if command == "health":
        return cmd_health(args)
    if command == "trace":
        return cmd_trace(args)
    if command == "version":
        from repro import __version__

        print(__version__)
        return 0
    print(f"unknown command {command!r}\n{__doc__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
