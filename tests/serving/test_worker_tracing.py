"""Wall tracing across processes and the phase decomposition of serving.

The contract under test: every shard sub-batch records one timed
``query`` span in the tracer of the process that runs it; a worker
process handed a :class:`~repro.telemetry.SpanContext` continues the
sender's trace, and its records, adopted back as data, export as one
multi-process Chrome trace; each serving process of ``repro serve
--workers N`` accounts for its own task wall-clock; and the slow-query
log, with each shard's diagnoses merged into it, reaches a client
through the ``stats`` frame of the process that answered.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import ShardedSegmentDatabase
from repro.serving import ServeClient
from repro.telemetry import (
    to_chrome_trace,
    validate_chrome_trace,
    wall_tracing,
)
from repro.workloads import grid_segments, segment_queries

from .forked import EXIT_TIMEOUT_S, serve_env


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    segments = grid_segments(300, seed=51)
    queries = list(segment_queries(segments, 24, seed=52))
    directory = str(tmp_path_factory.mktemp("serving") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    return directory, queries


def test_phases_cover_task_wall_clock(snapshot):
    directory, queries = snapshot
    served = ShardedSegmentDatabase.open(directory)
    for _ in range(3):
        served.query_batch(queries)
    report = served.latency_report()
    assert report["tasks"] == 6  # 3 batches x 2 shards
    assert set(report["phases_s"]) == {"query"}
    assert report["phase_coverage"] == 1.0  # the query IS the task wall


def test_sync_mode_records_spans_in_parent_process(snapshot):
    directory, queries = snapshot
    served = ShardedSegmentDatabase.open(directory)
    with wall_tracing() as tracer:
        served.query_batch(queries)
    assert {r.pid for r in tracer.records} == {os.getpid()}
    assert {r.name for r in tracer.records} == {"query"}
    assert {r.trace_id for r in tracer.records} == {tracer.trace_id}


def test_slow_query_log_merges_shard_entries(snapshot):
    directory, queries = snapshot
    served = ShardedSegmentDatabase.open(directory, slow_query_s=0.0)
    served.query_batch(queries)
    log = served.slow_log
    assert log is not None and len(log) > 0
    entry = log.entries()[0]
    assert entry["kind"] == "query_batch"
    assert entry["latency_s"] >= 0.0
    assert entry["explain"] is not None


def test_no_tracer_means_no_span_overhead(snapshot):
    directory, queries = snapshot
    served = ShardedSegmentDatabase.open(directory)
    out = served.query_batch(queries)  # no wall_tracing installed
    assert len(out) == len(queries)
    # Phase accounting still works without a tracer.
    assert served.latency_report()["tasks"] == 2


#: A worker process: continues the trace it is handed, answers the
#: snapshot's queries under it, and prints its span records as JSON.
WORKER = """
import json, sys
from repro import ShardedSegmentDatabase
from repro.telemetry import SpanContext, wall_tracing
from repro.workloads import grid_segments, segment_queries

job = json.load(sys.stdin)
context = SpanContext.from_dict(job["context"])
queries = list(segment_queries(grid_segments(300, seed=51), 24, seed=52))
served = ShardedSegmentDatabase.open(job["directory"])
with wall_tracing(context.trace_id, context.parent_id) as tracer:
    served.query_batch(queries)
json.dump(tracer.to_dicts(), sys.stdout)
"""


def _trace_through_worker(directory):
    """One trace over two processes: the parent's ``dispatch`` span
    hands its context to a worker, whose records come back as data."""
    with wall_tracing() as tracer:
        with tracer.span("dispatch") as dispatch:
            job = {"context": tracer.context().to_dict(),
                   "directory": directory}
            worker = subprocess.run(
                [sys.executable, "-c", WORKER], input=json.dumps(job),
                capture_output=True, text=True, env=serve_env(),
                timeout=EXIT_TIMEOUT_S, check=True)
        tracer.extend(json.loads(worker.stdout))
    return tracer, dispatch


def test_worker_spans_share_parent_trace_id(snapshot):
    directory, _queries = snapshot
    tracer, dispatch = _trace_through_worker(directory)
    assert {r.trace_id for r in tracer.records} == {tracer.trace_id}
    worker = [r for r in tracer.records if r.pid != os.getpid()]
    assert worker, "no spans came back from the worker process"
    assert [r.name for r in worker] == ["query", "query"]  # one per shard
    # The worker's spans hang under the parent span that sent the work.
    assert {r.parent_id for r in worker} == {dispatch.span_id}


def test_multiprocess_trace_exports_valid_chrome_json(snapshot):
    directory, _queries = snapshot
    tracer, _dispatch = _trace_through_worker(directory)
    doc = to_chrome_trace(tracer.records, parent_pid=os.getpid())
    assert validate_chrome_trace(doc) == []
    lanes = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M"}
    assert "parent" in lanes
    assert any(name.startswith("worker-") for name in lanes)


def test_pooled_timeline_has_all_phases(serve, snapshot):
    """Each process of ``repro serve --workers 2`` accounts for its own
    serving time: its ``stats`` frame has every phase of a task (the
    engine's ``query``) covering the whole task wall-clock, for exactly
    the batches it ran."""
    directory, queries = snapshot
    daemon = serve(directory)
    with ServeClient(port=daemon.port) as a, \
            ServeClient(port=daemon.port) as b:
        assert {a.health()["pid"], b.health()["pid"]} == set(daemon.children)
        a.query_batch(queries)
        a.query_batch(queries)
        b.query_batch(queries)
        timelines = [a.stats()["latency"], b.stats()["latency"]]
    assert [t["tasks"] for t in timelines] == [4, 2]  # batches x 2 shards
    assert [t["batches"]["count"] for t in timelines] == [2, 1]
    for t in timelines:
        assert set(t["phases_s"]) == {"query"}
        assert t["phases_s"]["query"] == t["task_wall_s"] > 0
        assert t["phase_coverage"] == 1.0
    assert daemon.stop()["drained"] is True


@pytest.mark.parametrize("workers", (0, 1))
def test_slow_query_log_crosses_the_process_boundary(serve, snapshot,
                                                     workers):
    """``repro serve --slow-ms 0`` logs every batch where it ran, and
    the ``stats`` frame carries the log, diagnoses included, to the
    client: from the daemon itself, or from its one forked child."""
    directory, queries = snapshot
    daemon = serve(directory, "--slow-ms", "0", workers=workers)
    with ServeClient(port=daemon.port) as client:
        served_by = client.health()["pid"]
        client.query_batch(queries)
        log = client.stats()["slow_queries"]
    assert served_by == (daemon.children[0] if workers else daemon.proc.pid)
    assert log["threshold_s"] == 0.0
    assert log["recorded"] == len(log["entries"]) > 0
    entry = log["entries"][0]
    assert entry["kind"] == "query_batch"
    assert entry["latency_s"] >= 0.0
    # The diagnosis ran where the query ran and shipped back as data.
    assert entry["explain"] is not None
    assert daemon.stop()["drained"] is True
