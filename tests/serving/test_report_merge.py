"""Sharded telemetry merge: per-shard batch deltas add up to the report,
and a serving process reports what the synchronous database does.

Every shard sub-batch is captured through
:func:`~repro.serving.capture_batch` into a
:class:`~repro.serving.ShardBatchStats` delta, so the sharded
``io_report()`` carries the full counter family of a flat
``SegmentDatabase.io_report()`` — buffer, filter and fault sub-dicts
included — and its combined block is the sum of the shard blocks.  A
process of ``repro serve --workers N`` keeps that report for the
batches it answered and returns it in its ``stats`` frame: serving adds
no I/O, so it must equal the in-process report field for field.
"""

import pytest

from repro import ShardedSegmentDatabase
from repro.serving import ServeClient, ShardBatchStats
from repro.workloads import grid_segments, segment_queries


def in_process(directory, queries, buffer_pages=None, batches=2):
    served = ShardedSegmentDatabase.open(directory, buffer_pages=buffer_pages)
    for _ in range(batches):
        served.query_batch(queries)
    return served.io_report()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    segments = grid_segments(400, seed=81)
    queries = list(segment_queries(segments, 32, seed=82))
    directory = str(tmp_path_factory.mktemp("merge") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=3, block_capacity=16).save(directory)
    return directory, queries


def pooled(serve, directory, queries, *flags, batches=2):
    """The ``io`` report of each process of ``repro serve DIR --workers
    2 *flags`` after it answered ``batches`` batches of ``queries``."""
    daemon = serve(directory, *flags)
    reports = []
    with ServeClient(port=daemon.port) as a, \
            ServeClient(port=daemon.port) as b:
        assert {a.health()["pid"], b.health()["pid"]} == set(daemon.children)
        for client in (a, b):
            for _ in range(batches):
                client.query_batch(queries)
            reports.append(client.stats()["io"])
    assert daemon.stop()["drained"] is True
    return reports


def test_pooled_report_equals_sync_report(serve, snapshot):
    """No buffer: io and filter counters must match exactly."""
    directory, queries = snapshot
    sync = in_process(directory, queries)
    for report in pooled(serve, directory, queries):
        assert report == sync


def test_pooled_report_equals_sync_report_with_buffer(serve, snapshot):
    """``--buffer 8``: every sub-dict must match too, buffer hits and
    misses included — each process runs its own pool over the same
    batches as the single-process run."""
    directory, queries = snapshot
    sync = in_process(directory, queries, buffer_pages=8)
    for report in pooled(serve, directory, queries, "--buffer", "8"):
        assert report == sync
        for shard in report["shards"]:
            assert shard["buffer"] is not None
            assert shard["buffer"]["capacity"] == 8
            assert shard["buffer"]["hits"] + shard["buffer"]["misses"] > 0


def test_report_carries_full_counter_family(snapshot):
    directory, queries = snapshot
    report = in_process(directory, queries)
    for block in report["shards"] + [report["combined"]]:
        assert {"reads", "writes", "allocs", "frees", "total", "buffer",
                "filter", "faults", "degraded_queries",
                "quarantined"} <= set(block)
    combined = report["combined"]
    assert combined["total"] == sum(s["total"] for s in report["shards"])
    assert combined["filter"]["fast_hits"] == sum(
        s["filter"]["fast_hits"] for s in report["shards"])
    # The generated workload exercises the float fast path.
    assert combined["filter"]["fast_hits"] > 0
    # With a buffer pool, every shard reports its hits and misses.
    buffered = in_process(directory, queries, buffer_pages=8)
    for shard in buffered["shards"]:
        assert shard["buffer"] is not None
        assert shard["buffer"]["capacity"] == 8
        assert shard["buffer"]["hits"] + shard["buffer"]["misses"] > 0


def test_shard_batch_stats_add_is_fieldwise():
    a = ShardBatchStats(buffer_hits=3, buffer_misses=1, buffer_capacity=8,
                        filter_fast=10, filter_exact=2,
                        faults={"faults_injected": 1, "state": "armed"},
                        degraded_queries=1)
    b = ShardBatchStats(buffer_hits=2, buffer_misses=2, buffer_capacity=8,
                        buffer_pinned=1, filter_fast=5,
                        faults={"faults_injected": 2, "state": "armed"},
                        quarantined=True)
    c = a + b
    assert c.buffer_hits == 5 and c.buffer_misses == 3
    assert c.buffer_pinned == 1          # point-in-time: latest wins
    assert c.filter_fast == 15 and c.filter_exact == 2
    assert c.faults == {"faults_injected": 3, "state": "armed"}
    assert c.degraded_queries == 1
    assert c.quarantined is True
    report = c.to_report()
    assert report["buffer"]["hit_rate"] == pytest.approx(5 / 8)
    assert report["filter"]["hit_rate"] == pytest.approx(15 / 17)


def test_stats_without_buffer_report_none():
    stats = ShardBatchStats(filter_fast=1)
    report = stats.to_report()
    assert report["buffer"] is None
    assert report["faults"] is None
    assert report["quarantined"] is False
