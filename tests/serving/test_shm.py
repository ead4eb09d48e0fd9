"""Serving without shared memory.

The shm transport, its owner lock and its stale-segment reclaim went
with the per-shard worker pool.  What they guaranteed still holds, and
is pinned here: a pre-forked ``repro serve`` creates no ``/dev/shm``
segment and leaves nothing behind when it stops, a damaged snapshot
fails in the process that opens it without leaking, the pool's
``transport`` parameter is gone, and a shard that receives no queries
does no work.
"""

import os
import shutil
import socket

import pytest

from repro import ShardedSegmentDatabase
from repro.iosim import SnapshotFormatError
from repro.serving import ServeClient
from repro.workloads import grid_segments, segment_queries

from .forked import alive, dev_shm_segments, labels, live_children, maps_shm


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    segments = grid_segments(240, seed=31)
    queries = list(segment_queries(segments, 16, seed=32))
    directory = str(tmp_path_factory.mktemp("shm") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    return directory, queries


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


def test_create_and_unlink_leaves_nothing(serve, snapshot):
    directory, queries = snapshot
    expected = labels(
        ShardedSegmentDatabase.open(directory).query_batch(queries))
    before = dev_shm_segments()
    daemon = serve(directory)
    with ServeClient(port=daemon.port) as a, \
            ServeClient(port=daemon.port) as b:
        assert {a.health()["pid"], b.health()["pid"]} == set(daemon.children)
        assert labels(a.query_batch(queries)) == expected
        assert labels(b.query_batch(queries)) == expected
        # Serving creates no segment: none appears, none is mapped.
        assert dev_shm_segments() == before
        for pid in [daemon.proc.pid, *daemon.children]:
            assert maps_shm(pid) == [], pid
    assert daemon.stop()["drained"] is True
    assert dev_shm_segments() == before


def test_pool_shutdown_unlinks_segments(serve, snapshot):
    """Stopping the pool releases everything it held: every serving
    process is reaped, the port can be bound again, and ``/dev/shm`` is
    as it was."""
    directory, queries = snapshot
    before = dev_shm_segments()
    daemon = serve(directory)
    with ServeClient(port=daemon.port) as client:
        client.query_batch(queries)
    report = daemon.stop()
    assert report["drained"] is True
    assert sorted(w["pid"] for w in report["workers"]) == \
        sorted(daemon.children)
    for pid in daemon.children:
        assert not alive(pid), pid
    assert live_children(daemon.proc.pid) == set()
    socket.create_server(("127.0.0.1", daemon.port)).close()
    assert dev_shm_segments() == before


def test_damaged_snapshot_fails_in_parent_without_leaking(snapshot,
                                                          tmp_path):
    """Corruption surfaces as a typed error in the process that opens
    the snapshot, and the shard files already opened are closed."""
    directory, _queries = snapshot
    damaged = str(tmp_path / "damaged")
    shutil.copytree(directory, damaged)
    bad = os.path.join(damaged, "shard-001.snap")
    with open(bad, "rb") as fh:
        payload = fh.read()
    with open(bad, "wb") as fh:
        fh.write(payload[: len(payload) // 2])
    fds, segments = _open_fds(), dev_shm_segments()
    with pytest.raises(SnapshotFormatError):
        ShardedSegmentDatabase.open(damaged)
    assert _open_fds() == fds
    assert dev_shm_segments() == segments


def test_unknown_transport_rejected(snapshot):
    directory, _queries = snapshot
    for name, value in (("transport", "shm"), ("cache_pages", 8),
                        ("supervisor", None), ("chaos", None)):
        with pytest.raises(TypeError, match=name):
            ShardedSegmentDatabase.open(directory, **{name: value})


def _only_shard(served, queries, index):
    return [q for q in queries if served.shards_for(q.x) == [index]]


def test_empty_groups_skip_the_executor(snapshot):
    """A shard routed zero queries runs no sub-batch: it is not called,
    charges no I/O, counts no task and has no explain report."""
    directory, queries = snapshot
    served = ShardedSegmentDatabase.open(directory)
    routed = _only_shard(served, queries, 1)
    assert routed, "the workload must route some queries to shard 1 only"
    calls = []
    silent = served._shards[0]
    silent.query_batch = lambda qs: calls.append(qs) or []
    silent.explain_batch = lambda qs: calls.append(qs)
    served.query_batch(routed)
    assert calls == []
    assert served.latency_report()["tasks"] == 1
    report = served.io_report()
    assert report["shards"][0]["total"] == 0
    assert report["shards"][1]["total"] > 0
    explained = served.explain_batch(routed)
    assert [r.description.split(":")[0] for r in explained] == ["shard 1"]
    assert calls == []


def test_all_empty_batch_never_touches_workers(snapshot):
    directory, _queries = snapshot
    served = ShardedSegmentDatabase.open(directory)

    def refuse(queries):
        raise AssertionError("an empty batch reached a shard")

    for shard in served._shards:
        shard.query_batch = shard.explain_batch = refuse
    assert served.query_batch([]) == []
    assert served.explain_batch([]) == []
    assert served.latency_report()["tasks"] == 0
    assert served.io_report()["combined"]["total"] == 0
