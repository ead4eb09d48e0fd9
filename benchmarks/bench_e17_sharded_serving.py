"""E17 — sharded serving: snapshots and x-partitioning.

Not a paper claim but the deployment corollary of its cost model: the
paper prices one query against one index; a serving system answers a
stream of queries against data partitioned into shards.  Two effects
are measured over a shard-count sweep, every shard opened in-process:

* **snapshot leverage** — ``save()`` once, then ``open()`` restores a
  queryable database in O(pages) deserialization instead of the
  O(N log N) rebuild (recorded as save/open/rebuild seconds);
* **routing leverage** — a vertical query has one x, so it touches one
  shard of K; per-shard I/O counters show the combined work staying flat
  while per-shard work shrinks.

Every sharded answer must equal the unsharded one.  Serving from
several processes is ``repro serve --workers N``, priced end to end by
perfbench's serve-bulk workload, not here.  The open-vs-rebuild ratio
assertion is gated on ``N >= 100_000``; all numbers are recorded
regardless in ``BENCH_perf.json``.  ``E17_N`` / ``E17_QUERIES`` /
``E17_SHARDS`` shrink the sweep for CI smoke runs.
"""

import os
import time

from harness import archive, table_section, write_perf_json
from repro import SegmentDatabase
from repro.serving import ShardedSegmentDatabase
from repro.workloads import grid_segments, segment_queries

B = 32
N = int(os.environ.get("E17_N", "20000"))
QUERIES = int(os.environ.get("E17_QUERIES", "256"))
SHARD_COUNTS = tuple(
    int(s) for s in os.environ.get("E17_SHARDS", "1,2,4").split(","))
BATCH_SIZE = int(os.environ.get("E17_BATCH", "64"))
ENGINE = "solution2"


def _workload():
    segments = grid_segments(N, seed=71)
    queries = segment_queries(segments, QUERIES, selectivity=0.02, seed=72)
    return segments, queries


def _labels(results):
    return [sorted(str(s.label) for s in r) for r in results]


def _serve(db, queries):
    """(seconds, results) pushing the workload through in batches."""
    t0 = time.perf_counter()
    results = []
    for start in range(0, len(queries), BATCH_SIZE):
        results.extend(db.query_batch(queries[start:start + BATCH_SIZE]))
    return time.perf_counter() - t0, results


def test_e17_sharded_serving(tmp_path):
    segments, queries = _workload()

    t0 = time.perf_counter()
    flat = SegmentDatabase.bulk_load(segments, engine=ENGINE,
                                     block_capacity=B)
    rebuild_s = time.perf_counter() - t0
    expected = _labels([flat.query(q) for q in queries])

    # Flat snapshot: the open-vs-rebuild leverage in its purest form.
    flat_snap = str(tmp_path / "flat.snap")
    t0 = time.perf_counter()
    flat_bytes = flat.save(flat_snap)
    flat_save_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    reopened = SegmentDatabase.open(flat_snap)
    flat_open_s = time.perf_counter() - t0
    assert _labels([reopened.query(q) for q in queries]) == expected, (
        "snapshot round-trip changed query results"
    )
    if N >= 100_000:
        assert rebuild_s >= 10 * flat_open_s, (
            f"open() leverage too small: rebuild {rebuild_s:.2f}s vs "
            f"open {flat_open_s:.2f}s"
        )

    snapshot_rows = []
    throughput = {}
    latency = {}
    per_shard_io = {}
    for shards in SHARD_COUNTS:
        sharded = ShardedSegmentDatabase.bulk_load(
            segments, shards=shards, engine=ENGINE, block_capacity=B)
        directory = str(tmp_path / f"shards-{shards}")
        t0 = time.perf_counter()
        sharded.save(directory)
        save_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        served = ShardedSegmentDatabase.open(directory)
        open_s = time.perf_counter() - t0
        serve_s, results = _serve(served, queries)
        assert _labels(results) == expected, f"sharded(K={shards}) != unsharded"
        report = served.latency_report()
        throughput[shards] = {
            "open_s": round(open_s, 4),
            "serve_s": round(serve_s, 4),
            "queries_per_s": round(len(queries) / serve_s, 1)
                             if serve_s else 0.0,
            "batch_p50_ms": report["batches"]["p50_ms"],
            "batch_p99_ms": report["batches"]["p99_ms"],
        }
        latency[shards] = report
        io = served.io_report()
        per_shard_io[shards] = {
            "combined": io["combined"]["total"],
            "per_shard": [s["total"] for s in io["shards"]],
        }
        snapshot_rows.append([shards, sharded.replicated, round(save_s, 4),
                              round(open_s, 4)])

    cores = os.cpu_count() or 1
    payload = {
        "n": N,
        "block_capacity": B,
        "engine": ENGINE,
        "queries": len(queries),
        "batch_size": BATCH_SIZE,
        "cores": cores,
        "rebuild_s": round(rebuild_s, 4),
        "flat_snapshot": {
            "bytes": flat_bytes,
            "save_s": round(flat_save_s, 4),
            "open_s": round(flat_open_s, 4),
            "open_vs_rebuild": round(rebuild_s / flat_open_s, 1)
                               if flat_open_s else None,
        },
        "shard_counts": list(SHARD_COUNTS),
        "throughput": {str(k): row for k, row in throughput.items()},
        "per_shard_io": {str(k): io for k, io in per_shard_io.items()},
        "latency": {str(k): report for k, report in latency.items()},
    }
    path = write_perf_json("E17", payload)

    qps_rows = [[shards, throughput[shards]["queries_per_s"],
                 throughput[shards]["batch_p50_ms"],
                 throughput[shards]["batch_p99_ms"]]
                for shards in SHARD_COUNTS]
    io_rows = [
        [shards, per_shard_io[shards]["combined"],
         " ".join(str(v) for v in per_shard_io[shards]["per_shard"])]
        for shards in SHARD_COUNTS
    ]
    archive(
        "e17_sharded_serving",
        "E17 — Sharded serving (snapshots, x-partitions)",
        [
            f"N={N}, B={B}, engine {ENGINE}, {len(queries)} segment queries "
            f"(2% selectivity) in batches of {BATCH_SIZE}, on {cores} "
            f"core(s).  Rebuild {rebuild_s:.3f}s vs flat snapshot open "
            f"{flat_open_s:.3f}s "
            f"(×{rebuild_s / flat_open_s if flat_open_s else 0:.0f} "
            f"leverage, {flat_bytes} bytes).",
            table_section(
                "Snapshot save/open time and replication by shard count:",
                ["shards", "replicated segments", "save (s)", "open (s)"],
                snapshot_rows,
            ),
            table_section(
                "Wall-clock queries/second by shard count, every shard "
                "in this process:",
                ["shards", "queries/s", "batch p50 (ms)", "batch p99 (ms)"],
                qps_rows,
            ),
            table_section(
                "Per-shard I/O (routing sends each query to one shard; "
                "the combined total stays flat as K grows):",
                ["shards", "combined I/Os", "per-shard I/Os"],
                io_rows,
            ),
            "Reading: sharding does not reduce total I/O (the same paths "
            "are walked, just in smaller indexes); it lets each query "
            "walk a smaller index.  Serving from several processes forks "
            "whole copies (`repro serve --workers N`, DESIGN.md §13).  "
            "Machine-readable copy: `" + os.path.basename(path) + "`.",
        ],
    )
