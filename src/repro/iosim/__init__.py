"""Simulated block storage with I/O accounting.

This package implements the paper's cost model: data lives in blocks of
``B`` items; the cost of an algorithm is the number of blocks read and
written.  See DESIGN.md §5 for the accounting conventions and §10 for
the fault model and crash-consistency protocol.
"""

from .buffer import LRUBufferPool
from .disk import BlockDevice
from .errors import (
    ChecksumError,
    DanglingPageError,
    DoubleFreeError,
    PageOverflowError,
    PinnedPageError,
    RecoveryPendingError,
    SimulatedCrash,
    SnapshotFormatError,
    StorageError,
    TransientIOError,
)
from .faults import FaultSchedule, FaultyBlockDevice, RetryPolicy, page_fingerprint
from .page import HEADER_SLOTS, Page
from .pager import Pager
from .snapshot import FORMAT_VERSION as SNAPSHOT_FORMAT_VERSION
from .snapshot import load_device, restricted_loads, save_device
from .stats import IOStats, Measurement

__all__ = [
    "BlockDevice",
    "ChecksumError",
    "DanglingPageError",
    "DoubleFreeError",
    "FaultSchedule",
    "FaultyBlockDevice",
    "HEADER_SLOTS",
    "IOStats",
    "LRUBufferPool",
    "Measurement",
    "Page",
    "PageOverflowError",
    "Pager",
    "PinnedPageError",
    "RecoveryPendingError",
    "RetryPolicy",
    "SNAPSHOT_FORMAT_VERSION",
    "SimulatedCrash",
    "SnapshotFormatError",
    "StorageError",
    "TransientIOError",
    "load_device",
    "page_fingerprint",
    "restricted_loads",
    "save_device",
]
