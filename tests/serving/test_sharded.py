"""ShardedSegmentDatabase: routing, replication policy, persistence and
per-shard explain.

The replication policy under test: a boundary-crossing segment is stored
in *every* slab it intersects, and the merge step deduplicates by label —
so sharded answers must equal unsharded answers as sets, and contain no
duplicate labels even for queries exactly on a slab boundary.
"""

import json
import os
import re

import pytest

from repro import (
    Segment,
    SegmentDatabase,
    ShardedSegmentDatabase,
    SnapshotFormatError,
    VerticalQuery,
)
from repro.serving import ServeClient
from repro.workloads import grid_segments, segment_queries


def workload(seed=31, n=400, queries=48):
    segments = grid_segments(n, seed=seed)
    return segments, list(segment_queries(segments, queries, seed=seed + 1))


def labels(results):
    return [sorted(str(s.label) for s in r) for r in results]


@pytest.mark.parametrize("engine", ("solution1", "solution2"))
@pytest.mark.parametrize("shards", (1, 3))
def test_sharded_equals_unsharded(engine, shards):
    segments, queries = workload()
    flat = SegmentDatabase.bulk_load(segments, engine=engine,
                                     block_capacity=16)
    sharded = ShardedSegmentDatabase.bulk_load(
        segments, shards=shards, engine=engine, block_capacity=16)
    assert len(sharded) == len(flat)
    assert labels(sharded.query_batch(queries)) == labels(
        [flat.query(q) for q in queries])


def test_routing_hits_one_shard_in_general_position():
    segments, queries = workload()
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=4,
                                               block_capacity=16)
    assert sharded.shard_count == 4
    boundaries = set(sharded.boundaries)
    for q in queries:
        hit = sharded.shards_for(q.x)
        assert len(hit) == (2 if q.x in boundaries else 1), q


def test_boundary_query_dedups_replicated_segments():
    # Segments straddling x=10 replicated into both slabs; a query at the
    # boundary walks both shards and must still report each label once.
    segments = [
        Segment.from_coords(0, y, 20, y + 1, label=f"cross{y}")
        for y in range(0, 40, 4)
    ] + [
        Segment.from_coords(0, y, 9, y + 1, label=f"left{y}")
        for y in range(1, 40, 4)
    ] + [
        Segment.from_coords(11, y, 20, y + 1, label=f"right{y}")
        for y in range(2, 40, 4)
    ]
    flat = SegmentDatabase.bulk_load(segments, block_capacity=8)
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=2,
                                               block_capacity=8)
    assert sharded.replicated > 0  # the crossers really were replicated
    probes = [VerticalQuery.line(x) for x in (5, 15)]
    probes += [VerticalQuery.line(b) for b in sharded.boundaries]
    for q in probes:
        got = [str(s.label) for s in sharded.query(q)]
        assert len(got) == len(set(got)), f"duplicate labels at {q}"
        assert sorted(got) == sorted(str(s.label) for s in flat.query(q))


def test_empty_batch_and_empty_database():
    segments, _ = workload(n=60, queries=4)
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=2,
                                               block_capacity=16)
    assert sharded.query_batch([]) == []
    assert sharded.explain_batch([]) == []
    empty = ShardedSegmentDatabase.bulk_load([], shards=3)
    assert len(empty) == 0
    assert empty.query(VerticalQuery.line(5)) == []


def test_io_report_sums_over_shards():
    segments, queries = workload()
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=3,
                                               block_capacity=16)
    sharded.query_batch(queries)
    report = sharded.io_report()
    assert len(report["shards"]) == 3
    for field in ("reads", "writes", "total"):
        assert report["combined"][field] == sum(
            s[field] for s in report["shards"])
    assert report["combined"]["reads"] > 0


def test_save_open_round_trip_synchronous(tmp_path):
    segments, queries = workload()
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=3,
                                               block_capacity=16)
    expected = labels(sharded.query_batch(queries))
    directory = str(tmp_path / "sharded")
    manifest = sharded.save(directory)
    assert manifest["shards"] == 3
    assert len(manifest["shard_files"]) == 3

    reopened = ShardedSegmentDatabase.open(directory, workers=0)
    assert reopened.boundaries == sharded.boundaries
    assert len(reopened) == len(sharded)
    assert reopened.replicated == sharded.replicated
    assert labels(reopened.query_batch(queries)) == expected


def test_explain_batch_reports_per_shard(tmp_path):
    segments, queries = workload()
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=2,
                                               block_capacity=16)
    directory = str(tmp_path / "sharded")
    sharded.save(directory)
    served = ShardedSegmentDatabase.open(directory)
    results = served.query_batch(queries[:8])
    reports = served.explain_batch(queries[:8])
    assert reports and all(r.description.startswith("shard ")
                           for r in reports)
    # Per-shard reports count pre-merge results, so they can only
    # exceed the merged answer (by the replicated duplicates).
    assert sum(r.results for r in reports) >= sum(len(r) for r in results)


def test_worker_pool_bit_identical_to_synchronous(serve, tmp_path):
    """Both processes of ``repro serve --workers 2`` answer what the
    synchronous database answers — same labels in the same order, for
    queries on the slab boundaries too — and charge the same I/O."""
    segments, queries = workload()
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=3,
                                               block_capacity=16)
    directory = str(tmp_path / "sharded")
    sharded.save(directory)
    queries += [VerticalQuery(b) for b in sharded.boundaries]
    sync = ShardedSegmentDatabase.open(directory)
    want = [[str(s.label) for s in r] for r in sync.query_batch(queries)]
    daemon = serve(directory)
    with ServeClient(port=daemon.port) as a, \
            ServeClient(port=daemon.port) as b:
        assert {a.health()["pid"], b.health()["pid"]} == set(daemon.children)
        for client in (a, b):
            got = client.query_batch(queries)
            assert [[str(s.label) for s in r] for r in got] == want
            assert (client.stats()["io"]["combined"]
                    == sync.io_report()["combined"])
    assert daemon.stop()["drained"] is True


def test_open_rejects_damaged_manifest(tmp_path):
    segments, _ = workload(n=60, queries=4)
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=2,
                                               block_capacity=16)
    directory = tmp_path / "sharded"
    sharded.save(str(directory))

    with pytest.raises(SnapshotFormatError, match="manifest not found"):
        ShardedSegmentDatabase.open(str(tmp_path / "missing"))

    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest, "format_version": 99}))
    with pytest.raises(SnapshotFormatError, match="unsupported manifest"):
        ShardedSegmentDatabase.open(str(directory))

    for raw in (b"{not json", b"\xff\xfe{"):
        manifest_path.write_bytes(raw)
        with pytest.raises(SnapshotFormatError, match="not JSON"):
            ShardedSegmentDatabase.open(str(directory))

    # JSON, but not the shape save writes: each raises a typed error
    # naming manifest.json (never a KeyError, ValueError or
    # AttributeError) before any shard file is opened.
    def without(key):
        return json.dumps({k: v for k, v in manifest.items() if k != key})

    def replacing(**fields):
        return json.dumps({**manifest, **fields})

    first, second = manifest["shard_files"]
    for text, reason in [
        ("[1, 2]", "manifest is not a JSON object"),
        ("null", "manifest is not a JSON object"),
        (without("boundaries"), "manifest has no 'boundaries' field"),
        (without("shard_files"), "manifest has no 'shard_files' field"),
        (replacing(boundaries=["1/0"]), "boundaries are not rationals"),
        (replacing(boundaries=["abc"]), "boundaries are not rationals"),
        (replacing(boundaries=7), "boundaries are not rationals"),
        (replacing(boundaries=[]), "0 boundaries need 1 shard files"),
        (replacing(shard_files=first), "1 boundaries need 2 shard files"),
        (replacing(shard_files=[first, "../" + second]),
         f"shard file '../{second}' is not a plain file name"),
        (replacing(shard_files=["/etc/passwd", second]),
         "shard file '/etc/passwd' is not a plain file name"),
        (replacing(shard_files=[3, second]),
         "shard file 3 is not a plain file name"),
    ]:
        manifest_path.write_text(text)
        with pytest.raises(SnapshotFormatError,
                           match=rf"manifest\.json': {re.escape(reason)}"):
            ShardedSegmentDatabase.open(str(directory))

    manifest_path.unlink()
    manifest_path.mkdir()
    with pytest.raises(SnapshotFormatError,
                       match=r"manifest\.json': unreadable"):
        ShardedSegmentDatabase.open(str(directory))


def test_save_leaves_only_the_manifest_and_shard_files(tmp_path):
    segments, _ = workload(n=60, queries=4)
    directory = tmp_path / "sharded"
    sharded = ShardedSegmentDatabase.bulk_load(segments, shards=2,
                                               block_capacity=16)
    for _ in range(2):  # a re-save replaces every file in place
        sharded.save(str(directory))
    assert sorted(os.listdir(directory)) == [
        "manifest.json", "shard-000.snap", "shard-001.snap"]


def test_open_with_workers_points_at_serve(tmp_path):
    segments, _ = workload(n=60, queries=4)
    directory = str(tmp_path / "sharded")
    ShardedSegmentDatabase.bulk_load(segments, shards=2,
                                     block_capacity=16).save(directory)
    with pytest.raises(ValueError, match="repro serve DIR --workers N"):
        ShardedSegmentDatabase.open(directory, workers=2)
