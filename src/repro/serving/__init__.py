"""Sharded serving over index snapshots.

The paper's cost model prices one machine answering one query; a serving
deployment answers many queries against data partitioned into shards.
This package adds that layer without touching the engines:

* :class:`ShardedSegmentDatabase` partitions an NCT segment set into K
  x-range slabs, each an ordinary :class:`~repro.core.api.SegmentDatabase`,
  routes vertical queries to the (usually one) intersecting shard, and
  merges results duplicate-free;
* shard snapshots (:meth:`ShardedSegmentDatabase.save` /
  :meth:`ShardedSegmentDatabase.open`) make a built sharded database a
  directory of files that serving processes ``open()`` in O(pages) instead
  of rebuilding in O(N log N);
* a :class:`ServeDaemon` answers whole requests over TCP in its own
  process — request batching, bounded-queue admission control,
  per-request deadlines, structured typed error frames, a health frame,
  graceful drain — driven by ``python -m repro serve``; a
  :class:`PreforkServer` runs N of them in forked processes behind one
  port (``serve --workers N``), each over its own copy of the shards;
* :mod:`repro.serving.resilience` holds the client's typed
  :class:`ServeConnectionError` and a seeded, replayable
  :class:`RpcChaosSchedule` of wire faults, which :class:`ChaosProxy`
  injects between client and daemon for the ``chaos-serve``
  never-silently-wrong oracle in tests and CI.

See DESIGN.md §11 for how shard count interacts with the paper's
per-query I/O bounds, §13 for the pre-forked topology, and §14 for the
failure model.
"""

from .daemon import ServeClient, ServeDaemon, ServeRejected
from .prefork import PreforkServer
from .reporting import ShardBatchStats, capture_batch
from .resilience import ChaosProxy, RpcChaosSchedule, ServeConnectionError
from .sharded import ShardedSegmentDatabase

__all__ = [
    "ChaosProxy",
    "PreforkServer",
    "RpcChaosSchedule",
    "ServeClient",
    "ServeConnectionError",
    "ServeDaemon",
    "ServeRejected",
    "ShardBatchStats",
    "ShardedSegmentDatabase",
    "capture_batch",
]
