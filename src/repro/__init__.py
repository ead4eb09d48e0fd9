"""Reproduction of "Towards Optimal Indexing for Segment Databases".

Bertino, Catania, Shidlovsky (EDBT 1998): external-memory index structures
answering *vertical segment queries* — report every stored segment met by a
generalized vertical segment (line, ray, segment) — over N non-crossing,
possibly touching (NCT) plane segments.

Quick start::

    from repro import SegmentDatabase, Segment, VerticalQuery

    roads = [Segment.from_coords(0, 0, 10, 4, label="r1"), ...]
    db = SegmentDatabase.bulk_load(roads, engine="solution2")
    hits = db.query(VerticalQuery.segment(x=5, ylo=0, yhi=10))
    print(db.io_stats())  # the paper's cost model: block reads/writes

See DESIGN.md for the system map and EXPERIMENTS.md for the measured
reproduction of every complexity claim.
"""

from .core.api import DirectedSegmentDatabase, ENGINES, SegmentDatabase
from .core.extensions import ArbitraryQueryIndex, TombstoneDeletions
from .core.linebased import BlockedPST, ExternalPST, LineBasedIndex
from .core.recovery import DegradedResult, FsckReport
from .core.solution1 import TwoLevelBinaryIndex
from .core.solution2 import TwoLevelIntervalIndex
from .geometry import (
    CrossingError,
    HQuery,
    LineBasedSegment,
    Point,
    Segment,
    VerticalQuery,
    validate_nct,
    vs_intersects,
)
from .iosim import (
    BlockDevice,
    ChecksumError,
    FaultSchedule,
    FaultyBlockDevice,
    IOStats,
    LRUBufferPool,
    Measurement,
    Pager,
    RecoveryPendingError,
    RetryPolicy,
    SimulatedCrash,
    SnapshotFormatError,
    TransientIOError,
)
from .serving import ShardedSegmentDatabase
from .telemetry import ExplainReport, MetricsRegistry, TraceContext

__version__ = "1.0.0"

__all__ = [
    "ArbitraryQueryIndex",
    "BlockDevice",
    "BlockedPST",
    "ChecksumError",
    "CrossingError",
    "DegradedResult",
    "DirectedSegmentDatabase",
    "ENGINES",
    "ExplainReport",
    "ExternalPST",
    "FaultSchedule",
    "FaultyBlockDevice",
    "FsckReport",
    "HQuery",
    "IOStats",
    "LRUBufferPool",
    "LineBasedIndex",
    "LineBasedSegment",
    "Measurement",
    "MetricsRegistry",
    "Pager",
    "RecoveryPendingError",
    "RetryPolicy",
    "ShardedSegmentDatabase",
    "SimulatedCrash",
    "SnapshotFormatError",
    "TraceContext",
    "TransientIOError",
    "Point",
    "Segment",
    "SegmentDatabase",
    "TombstoneDeletions",
    "TwoLevelBinaryIndex",
    "TwoLevelIntervalIndex",
    "VerticalQuery",
    "validate_nct",
    "vs_intersects",
    "__version__",
]
