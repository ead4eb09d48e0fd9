"""Command-line entry point: ``python -m repro <command>``.

``python -m repro --help`` lists the commands; ``python -m repro
<command> --help`` lists the flags that command takes.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from repro import ENGINES
from repro.geometry import exact_only_enabled, set_exact_only

ENGINE_NOTES = {
    "solution1": "Theorem 1 — O(n) space, O(log2 n·log_B n + t) query, dynamic",
    "solution2": "Theorem 2 — O(n log2 B) space, O(log_B n·(log_B n+log2 B) + t) query, insert-only",
    "scan": "baseline — O(n) per query",
    "stab-filter": "baseline — stabbing index over x-projections + y filter",
    "grid": "baseline — uniform bucket grid",
    "rtree": "baseline — STR-packed R-tree (no worst-case query bound)",
}


def rational(token: str):
    """A coordinate: an integer or ``p/q`` with ``q != 0``."""
    if "/" in token:
        num, den = token.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(
                f"zero denominator in {token!r}") from None
    return int(token)


def _load_db(args):
    """The segments of ``FILE`` and a database built over them."""
    from repro import SegmentDatabase
    from repro.workloads.files import load

    segments = load(args.file)
    return segments, SegmentDatabase.bulk_load(
        segments,
        engine=args.engine,
        block_capacity=args.block,
        buffer_pages=args.buffer,
    )


def _parse_query(args):
    from repro import VerticalQuery

    if args.yhi is not None:
        return VerticalQuery.segment(args.x, args.ylo, args.yhi)
    return VerticalQuery.line(args.x)


def cmd_demo(_args) -> int:
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


def cmd_engines(_args) -> int:
    for engine in ENGINES:
        print(f"{engine:>12}  {ENGINE_NOTES[engine]}")
    return 0


def cmd_version(_args) -> int:
    from repro import __version__

    print(__version__)
    return 0


def cmd_query(args) -> int:
    _segments, db = _load_db(args)
    hits = db.query(_parse_query(args))
    for s in sorted(hits, key=lambda s: str(s.label)):
        print(s.label)
    summary = (f"# {len(hits)} of {len(db)} segments; "
               f"{db.io_stats().reads} block reads")
    if db.buffer_hit_rate is not None:
        summary += f"; buffer hit rate {db.buffer_hit_rate:.2%}"
    print(summary, file=sys.stderr)
    return 0


def cmd_query_batch(args) -> int:
    from repro.workloads.queries import segment_queries

    segments, db = _load_db(args)
    queries = segment_queries(segments, args.count, seed=args.seed)
    batch_size = args.batch_size or len(queries)

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
        "engine": args.engine,
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
    if args.json:
        import json

        print(json.dumps(summary, indent=2))
        return 0
    print(f"# {n} queries, batch size {batch_size}, engine {args.engine}")
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
    _segments, db = _load_db(args)
    report = db.explain(_parse_query(args))
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, default=str))
    else:
        print(report.to_markdown())
    return 0


def _workload_segments(path, count: int, seed: int):
    """Segments from the file at ``path``, or ``count`` generated NCT
    segments when no path is given."""
    if path:
        from repro.workloads.files import load

        return load(path)
    from repro.workloads.nct_random import grid_segments

    return grid_segments(count, seed=seed)


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


def _run_chaos_seed(segments, seed, args):
    """One chaos round: faulty device vs clean twin, same workload."""
    from repro import SegmentDatabase, SimulatedCrash
    from repro.iosim import FaultSchedule, RetryPolicy, StorageError
    from repro.workloads.queries import segment_queries

    schedule = FaultSchedule(
        seed=seed,
        read_error_rate=args.read_err,
        corrupt_read_rate=args.corrupt_rate,
        torn_write_rate=args.torn,
    )
    db = SegmentDatabase.bulk_load(
        segments, engine=args.engine, block_capacity=args.block,
        faults=schedule, retry=RetryPolicy(max_retries=args.retries),
    )
    twin = SegmentDatabase.bulk_load(
        segments, engine=args.engine, block_capacity=args.block,
    )
    queries = segment_queries(segments, args.count,
                              selectivity=0.05, seed=seed)
    inserts = list(_fresh_segments(args.updates, seed))
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
    if not (args.read_err or args.corrupt_rate or args.torn):
        args.read_err, args.corrupt_rate, args.torn = 0.02, 0.01, 0.02
    segments = _workload_segments(args.file, 300, args.seed)

    rounds = []
    schedules = {}
    silent_wrong = 0
    for seed in range(args.seed, args.seed + args.seeds):
        stats, schedule, wrong_queries = _run_chaos_seed(segments, seed, args)
        rounds.append(stats)
        silent_wrong += stats["wrong"]
        schedules[seed] = {
            "schedule": schedule.to_dict(),
            "wrong_queries": wrong_queries,
            "verdict": "FAIL" if stats["wrong"] else "ok",
        }
    if args.dump_schedule:
        import json

        with open(args.dump_schedule, "w") as fh:
            json.dump({"engine": args.engine, "rounds": schedules}, fh,
                      indent=2, default=str)
    if args.json:
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
    import random as _random

    from repro import SegmentDatabase
    from repro.iosim import FaultSchedule

    segments = _workload_segments(args.file, 300, args.seed)
    db = SegmentDatabase.bulk_load(
        segments, engine=args.engine, block_capacity=args.block,
        faults=FaultSchedule(seed=args.seed),
    )
    for seg in _fresh_segments(args.updates, args.seed):
        db.insert(seg)
    rng = _random.Random(args.seed)
    live = sorted(p.page_id for p in db.device.iter_pages())
    for page_id in rng.sample(live, min(args.corrupt_pages, len(live))):
        db.device.corrupt_page(page_id)
    report = db.fsck()
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report)
    return 0 if report.ok else 1


def cmd_serve_bench(args) -> int:
    """``serve-bench``, and ``trace``, which names its output ``--out``."""
    import contextlib
    import os
    import tempfile
    import time

    from repro.serving import ShardedSegmentDatabase
    from repro.telemetry import wall_tracing, write_chrome_trace
    from repro.workloads.queries import segment_queries

    segments = _workload_segments(args.file, args.segments or 2000, args.seed)
    queries = segment_queries(segments, args.count, seed=args.seed)
    batch_size = args.batch_size or len(queries)
    slow_s = args.slow_ms / 1000.0 if args.slow_ms is not None else None

    t0 = time.perf_counter()
    built = ShardedSegmentDatabase.bulk_load(
        segments, shards=args.shards, engine=args.engine,
        block_capacity=args.block, buffer_pages=args.buffer,
    )
    build_s = time.perf_counter() - t0

    trace_info = None
    with contextlib.ExitStack() as stack:
        directory = args.dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-serve-"))
        t0 = time.perf_counter()
        built.save(directory)
        save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        served = ShardedSegmentDatabase.open(
            directory, buffer_pages=args.buffer, slow_query_s=slow_s)
        open_s = time.perf_counter() - t0

        tracer_cm = (wall_tracing() if args.trace
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
                args.trace, tracer.records, parent_pid=os.getpid(),
                metadata={
                    "command": "serve-bench",
                    "engine": args.engine,
                    "shards": built.shard_count,
                    "queries": answered,
                },
            )
            trace_info = {
                "path": args.trace,
                "trace_id": tracer.trace_id,
                "events": len(doc["traceEvents"]),
            }

    summary = {
        "engine": args.engine,
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
    if args.json:
        import json

        print(json.dumps(summary, indent=2))
        return 0
    print(f"# {len(segments)} segments, {built.shard_count} shards "
          f"(+{built.replicated} replicas), engine {args.engine}")
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
              f">= {args.slow_ms:.1f}ms")
    if trace_info is not None:
        print(f"# trace: {trace_info['path']} ({trace_info['events']} events, "
              f"trace id {trace_info['trace_id']})")
    return 0


def _serve_workload_dir(args, stack):
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

    if args.file and os.path.isdir(args.file):
        return args.file
    segments = _workload_segments(args.file, args.segments or 2000, args.seed)
    built = ShardedSegmentDatabase.bulk_load(
        segments, shards=args.shards, engine=args.engine,
        block_capacity=args.block, buffer_pages=args.buffer,
    )
    directory = args.dir or stack.enter_context(
        tempfile.TemporaryDirectory(prefix="repro-serve-"))
    built.save(directory)
    return directory


def cmd_serve(args) -> int:
    import contextlib
    import json
    import os

    from repro.iosim import SnapshotFormatError
    from repro.serving import (PreforkServer, ServeDaemon,
                               ShardedSegmentDatabase)

    slow_s = args.slow_ms / 1000.0 if args.slow_ms is not None else None
    open_kwargs = {"buffer_pages": args.buffer, "slow_query_s": slow_s}
    daemon_kwargs = {"max_pending": args.max_pending,
                     "max_batch": args.max_batch}
    with contextlib.ExitStack() as stack:
        directory = _serve_workload_dir(args, stack)

        def announce(port, shards, pids):
            print(json.dumps({
                "ready": True,
                "host": args.host,
                "port": port,
                "pid": os.getpid(),
                "snapshot": directory,
                "shards": shards,
                "workers": args.workers,
                "children": pids,
            }), flush=True)

        if args.workers > 0:
            # N forked daemons, each answering whole requests; this
            # process only hands them connections.
            server = PreforkServer(directory, args.workers,
                                   host=args.host, port=args.port,
                                   open_kwargs=open_kwargs,
                                   daemon_kwargs=daemon_kwargs)
            try:
                server.listen()
            except OSError as exc:
                print(f"serve: cannot listen on {args.host} port "
                      f"{args.port}: {exc}", file=sys.stderr)
                return 2
            report = server.run(announce)
            if "error" in report:
                print(f"serve: {report['error']}", file=sys.stderr)
                if not server.announced:
                    return 1
        else:
            try:
                served = ShardedSegmentDatabase.open(directory, **open_kwargs)
            except SnapshotFormatError as exc:
                print(f"serve: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 1
            daemon = ServeDaemon(served, host=args.host,
                                 port=args.port, **daemon_kwargs)
            # Serves until SIGTERM/SIGINT, then drains.
            report = daemon.run(on_ready=lambda: announce(
                daemon.port, served.shard_count, []))
    print(json.dumps(report), flush=True)
    return 0 if report["drained"] else 1


def cmd_serve_client(args) -> int:
    import json
    import time

    from repro.serving import (ServeClient, ServeConnectionError,
                               ServeRejected)
    from repro.workloads.queries import segment_queries

    # Mirrors the daemon's generated workload (same flags, same seed) so
    # the queries land on populated shards.
    segments = _workload_segments(args.file, args.segments or 2000, args.seed)
    queries = segment_queries(segments, args.count, seed=args.seed)
    batch_size = args.batch_size or 8

    degraded = 0
    rejected = 0
    try:
        with ServeClient(host=args.host, port=args.port,
                         connect_timeout=args.connect_timeout,
                         request_timeout=args.request_timeout,
                         retries=args.retries,
                         seed=args.seed) as client:
            ping = client.ping()
            t0 = time.perf_counter()
            results = 0
            for start in range(0, len(queries), batch_size):
                try:
                    batch = client.query_batch(
                        queries[start:start + batch_size],
                        timeout_ms=args.deadline_ms)
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
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"# {summary['queries']} queries in {elapsed:.3f}s "
          f"({summary['queries_per_s']:.0f} q/s), "
          f"{results} results, "
          f"server batches {summary['server_batches']}"
          + (f", {degraded} degraded" if degraded else "")
          + (f", {rejected} rejected" if rejected else ""))
    return 0


def _run_chaos_serve_seed(directory, queries, expected, seed, args):
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
        frame_corrupt_rate=args.frame_corrupt,
        frame_truncate_rate=args.frame_truncate,
        frame_delay_rate=args.frame_delay,
        conn_reset_rate=args.conn_reset,
    )
    stats = {"seed": seed, "batches": 0, "exact": 0, "typed_errors": 0,
             "wrong": 0}
    wrong_queries = []
    batch_size = args.batch_size or 8
    daemon = ServeDaemon(ShardedSegmentDatabase.open(directory), port=0)
    thread = threading.Thread(
        target=daemon.run, kwargs={"install_signal_handlers": False},
        daemon=True)
    thread.start()
    if not daemon.ready.wait(30):
        raise RuntimeError("daemon did not come up")
    with ChaosProxy("127.0.0.1", daemon.port, schedule) as proxy:
        with ServeClient(port=proxy.port,
                         connect_timeout=args.connect_timeout,
                         request_timeout=min(args.request_timeout, 10.0),
                         retries=4, retry_backoff_s=0.02,
                         seed=seed) as client:
            for start in range(0, len(queries), batch_size):
                stats["batches"] += 1
                want = expected[start:start + batch_size]
                try:
                    got = client.query_batch(
                        queries[start:start + batch_size],
                        timeout_ms=args.deadline_ms)
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
    import contextlib
    import tempfile

    from repro.serving import ShardedSegmentDatabase
    from repro.workloads.queries import segment_queries

    if not (args.frame_corrupt or args.frame_truncate
            or args.frame_delay or args.conn_reset):
        args.frame_corrupt = 0.05
        args.frame_truncate = 0.03
        args.conn_reset = 0.05
    segments = _workload_segments(args.file, args.segments or 300, args.seed)
    queries = segment_queries(segments, args.count, seed=args.seed)

    built = ShardedSegmentDatabase.bulk_load(
        segments, shards=args.shards, engine=args.engine,
        block_capacity=args.block)
    # The oracle: the same batch answered directly, no faults anywhere.
    expected = [sorted(str(s.label) for s in r)
                for r in built.query_batch(queries)]
    rounds = []
    schedules = {}
    failures = 0
    with contextlib.ExitStack() as stack:
        directory = args.dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-chaos-serve-"))
        built.save(directory)
        for seed in range(args.seed, args.seed + args.seeds):
            stats, schedule, wrong_queries = _run_chaos_serve_seed(
                directory, queries, expected, seed, args)
            rounds.append(stats)
            failures += stats["wrong"]
            schedules[seed] = {
                "schedule": schedule,
                "wrong_queries": wrong_queries,
                "verdict": "FAIL" if stats["wrong"] else "ok",
            }
    if args.dump_schedule:
        import json

        with open(args.dump_schedule, "w") as fh:
            json.dump({"engine": args.engine, "rounds": schedules}, fh,
                      indent=2, default=str)
    if args.json:
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
    import json

    from repro.serving import ServeClient, ServeConnectionError

    try:
        with ServeClient(host=args.host, port=args.port,
                         connect_timeout=args.connect_timeout,
                         request_timeout=args.request_timeout) as client:
            health = client.health()
    except ServeConnectionError as exc:
        print(f"health: daemon unreachable: {exc}", file=sys.stderr)
        return 1
    if args.json:
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


def cmd_validate(args) -> int:
    from repro.geometry import CrossingError
    from repro.workloads.files import load

    try:
        segments = load(args.file, validate=True)
    except CrossingError as exc:
        print(f"NOT NCT: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {len(segments)} segments, non-crossing (touching allowed)")
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _group(*flags) -> argparse.ArgumentParser:
    """A parent parser holding ``flags``, each ``(name, add_argument
    keywords)``, for the subcommands that read them."""
    group = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    for name, kwargs in flags:
        group.add_argument(name, **kwargs)
    return group


_EXACT_HELP = ("decide every geometric comparison on exact rationals, as "
               "REPRO_EXACT_ONLY=1 does; answers are identical either way")


def build_parser():
    """The root parser, and the subcommand parsers by name."""
    root = argparse.ArgumentParser(
        prog="python -m repro", allow_abbrev=False,
        description="Vertical segment queries over non-crossing segments in "
                    "external memory; each command's --help lists its flags.")
    root.add_argument("--exact-only", action="store_true", help=_EXACT_HELP)
    commands = root.add_subparsers(dest="command", metavar="COMMAND",
                                   title="commands")
    # Given after the command name it sets what the root's flag sets;
    # SUPPRESS keeps the subcommand from resetting it when absent.
    exact = _group(("--exact-only", dict(action="store_true",
                                         default=argparse.SUPPRESS,
                                         help=_EXACT_HELP)))
    json_out = _group(("--json", dict(action="store_true",
                                      help="print the result as JSON")))
    engine = _group(
        ("--engine", dict(choices=ENGINES, default="solution2",
                          metavar="NAME", help="one of %(choices)s "
                                               "(default %(default)s)")),
        ("--block", dict(type=int, default=64, metavar="B",
                         help="block capacity (default %(default)s)")))
    buffer = _group(("--buffer", dict(type=int, metavar="N", help=(
        "put an N-page LRU buffer pool under the engine and report its "
        "hit rate"))))
    workload = _group(
        ("--count", dict(type=int, default=64, metavar="N",
                         help="queries (default %(default)s)")),
        ("--seed", dict(type=int, default=0, metavar="S",
                        help="workload seed (default %(default)s)")))
    seed = _group(("--seed", dict(type=int, default=0, metavar="S",
                                  help="seed (default %(default)s)")))
    batches = _group(("--batch-size", dict(
        type=int, metavar="K", help="queries per batch (default: all)")))
    requests = _group(("--batch-size", dict(
        type=int, metavar="K", help="queries per request (default 8)")))
    sharded = _group(
        ("--shards", dict(type=int, default=2, metavar="K",
                          help="x-shards (default %(default)s)")),
        ("--dir", dict(metavar="PATH", help=(
            "keep the snapshot in PATH, not in a temporary directory"))))
    generated = _group(("--segments", dict(type=int, metavar="N", help=(
        "segments to generate without FILE (default 2000)"))))
    slow = _group(("--slow-ms", dict(type=float, metavar="T", help=(
        "log queries slower than T milliseconds"))))
    host = _group(("--host", dict(default="127.0.0.1",
                                  help="address (default %(default)s)")))
    timeouts = _group(
        ("--connect-timeout", dict(type=float, default=5.0, metavar="S",
                                   help="seconds (default %(default)s)")),
        ("--request-timeout", dict(type=float, default=30.0, metavar="S",
                                   help="seconds (default %(default)s)")))
    client = _group(("--port", dict(type=_at_least(1), required=True,
                                    metavar="P", help="the daemon's port")))
    deadline = _group(("--deadline-ms", dict(type=float, metavar="T", help=(
        "server-side deadline per request"))))
    rounds = _group(
        ("--seeds", dict(type=int, default=5, metavar="N",
                         help="rounds, seeded S, S+1, ... (default "
                              "%(default)s)")),
        ("--dump-schedule", dict(metavar="PATH", help=(
            "save each round's injected faults to PATH"))))
    segment_file = _group(("file", dict(metavar="FILE", help=(
        "segment file: TSV lines x1 y1 x2 y2 [label], see "
        "repro.workloads.files"))))
    optional_file = _group(("file", dict(nargs="?", metavar="FILE", help=(
        "segment file; segments are generated without one"))))
    vertical = _group(
        ("x", dict(type=rational, metavar="X")),
        ("ylo", dict(type=rational, nargs="?", metavar="YLO")),
        ("yhi", dict(type=rational, nargs="?", metavar="YHI")))

    def command(name, handler, text, *parents):
        parser = commands.add_parser(
            name, help=text, description=text, allow_abbrev=False,
            parents=[exact, *parents])
        # No flag looks like a number, so -7/2 or -3 is always a value.
        parser._negative_number_matcher = re.compile(r"^-\d")
        parser.set_defaults(handler=handler)
        return parser

    command("demo", cmd_demo, "run a small end-to-end demonstration")
    command("engines", cmd_engines, "list the engines and their costs")
    command("version", cmd_version, "print the library version")
    command("validate", cmd_validate,
            "check a segment file for NCT violations", segment_file)
    command("query", cmd_query,
            "run one vertical query: the line at X, or the segment from "
            "(X, YLO) to (X, YHI)", segment_file, vertical, engine, buffer)
    command("explain", cmd_explain,
            "run one vertical query traced and print its per-phase I/O "
            "cost anatomy", segment_file, vertical, engine, buffer, json_out)
    command("query-batch", cmd_query_batch,
            "run generated queries through query_batch and compare its "
            "I/Os per query with the sequential loop's",
            segment_file, engine, buffer, workload, batches, json_out)
    sub = command("chaos", cmd_chaos,
                  "per seed, replay queries and inserts on a faulty device "
                  "next to a clean twin; exit 1 on any silently wrong "
                  "answer. With no rate given, reads fail at 0.02, rot at "
                  "0.01 and writes tear at 0.02",
                  optional_file, engine, workload, rounds, json_out)
    sub.add_argument("--updates", type=int, default=8, metavar="N",
                     help="inserts per round (default %(default)s)")
    for flag, what in (("--read-err", "transient read errors"),
                       ("--corrupt-rate", "bit rot on reads"),
                       ("--torn", "torn writes")):
        sub.add_argument(flag, type=float, default=0.0, metavar="R",
                         help=f"rate of {what}")
    sub.add_argument("--retries", type=int, default=3, metavar="K",
                     help="read retries (default %(default)s)")
    sub = command("fsck", cmd_fsck,
                  "build an index, insert, corrupt pages, then run the "
                  "checksum scan and deep verify; exit 1 on damage",
                  optional_file, engine, seed, json_out)
    sub.add_argument("--updates", type=int, default=0, metavar="N",
                     help="random inserts before the check")
    sub.add_argument("--corrupt-pages", type=int, default=0, metavar="K",
                     help="pages to corrupt before the check")
    bench = (optional_file, engine, buffer, workload, batches, sharded,
             generated, slow, json_out)
    command("serve-bench", cmd_serve_bench,
            "shard, snapshot and re-open a database, then replay queries "
            "through it in this process: snapshot times, queries/sec, "
            "latency percentiles, per-shard I/O", *bench
            ).add_argument("--trace", metavar="PATH", help=(
                "write the run as Chrome-trace-event JSON to PATH"))
    command("trace", cmd_serve_bench,
            "serve-bench, written as a Chrome-trace-event/Perfetto "
            "timeline (open it at https://ui.perfetto.dev)", *bench
            ).add_argument("--out", dest="trace", default="trace.json",
                           metavar="PATH", help="write the timeline to PATH "
                                                "(default %(default)s)")
    sub = command("serve", cmd_serve,
                  "serve query_batch over TCP from a snapshot directory, "
                  "or from one built from FILE or generated segments; "
                  "print a JSON ready line, and a JSON drain report after "
                  "SIGTERM/SIGINT", engine, buffer, seed, sharded,
                  generated, slow, host)
    sub.add_argument("file", nargs="?", metavar="DIR|FILE")
    sub.add_argument("--workers", type=_at_least(0), default=0, metavar="N",
                     help="forked serving processes; 0 serves in this one")
    sub.add_argument("--port", type=int, default=0, metavar="P",
                     help="0 picks a free port")
    sub.add_argument("--max-pending", type=int, default=64, metavar="N",
                     help="admission queue per serving process "
                          "(default %(default)s)")
    sub.add_argument("--max-batch", type=int, default=64, metavar="N",
                     help="requests per batch (default %(default)s)")
    command("serve-client", cmd_serve_client,
            "replay queries against a running serve daemon and report "
            "throughput; a connection failure exits 1 with one line",
            optional_file, client, host, timeouts, workload, generated,
            requests, deadline, json_out
            ).add_argument("--retries", type=int, default=3, metavar="K",
                           help="reconnect attempts (default %(default)s)")
    sub = command("chaos-serve", cmd_chaos_serve,
                  "per seed, serve a snapshot behind a proxy that delays, "
                  "truncates and corrupts frames and resets connections; "
                  "exit 1 on any silently wrong answer. With no rate given, "
                  "frames are corrupted at 0.05 and truncated at 0.03, and "
                  "connections reset at 0.05",
                  optional_file, engine, workload, requests, sharded,
                  timeouts, deadline, rounds, json_out)
    sub.add_argument("--segments", type=int, metavar="N", help=(
        "segments to generate without FILE (default 300)"))
    for flag, what in (("--frame-corrupt", "corrupted frames"),
                       ("--frame-truncate", "truncated frames"),
                       ("--frame-delay", "delayed frames"),
                       ("--conn-reset", "connection resets")):
        sub.add_argument(flag, type=float, default=0.0, metavar="R",
                         help=f"rate of {what}")
    command("health", cmd_health,
            "probe a running serve daemon: answering process, queue, "
            "drain state, counters, quarantined shards",
            client, host, timeouts, json_out)
    return root, commands.choices


def main(argv=None) -> int:
    root, commands = build_parser()
    exact_before = exact_only_enabled()
    try:
        try:
            args, extra = root.parse_known_args(argv)
            if args.command is None:
                root.print_help()
                return 2
            # Left to the root parser, these would be reported under a
            # usage line that names no command.
            if extra:
                commands[args.command].error(
                    f"unrecognized arguments: {' '.join(extra)}")
            if getattr(args, "ylo", None) is not None and args.yhi is None:
                commands[args.command].error("YLO needs YHI")
        except SystemExit as exc:  # --help, or a usage error printed
            return exc.code
        if args.exact_only:
            set_exact_only(True)
        return args.handler(args)
    finally:
        set_exact_only(exact_before)


if __name__ == "__main__":
    raise SystemExit(main())
