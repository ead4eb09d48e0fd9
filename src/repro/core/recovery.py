"""Typed results for degraded service and index verification.

When the storage layer surfaces unrecoverable corruption
(:class:`~repro.iosim.errors.ChecksumError`) the database must never
return a silently wrong answer.  Instead it quarantines the damaged
index and serves queries from an authoritative in-memory segment list
(standing in for the base data a production system would keep outside
the index), wrapping each answer in a :class:`DegradedResult` so callers
can tell a degraded answer from a healthy one — the answer itself is
still exact.

:class:`FsckReport` is the output of ``SegmentDatabase.fsck()``: the
offline checksum scan of every page plus each engine's deep
``verify()`` walk (DESIGN.md §10 lists the invariants per engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


class DegradedResult(list):
    """A query answer served by the fallback path of a quarantined index.

    Behaves exactly like the ``List[Segment]`` a healthy query returns
    (it *is* one), with provenance attached:

    ``degraded``
        Always ``True`` — ``getattr(result, "degraded", False)`` is the
        uniform health check.
    ``reason``
        Why the index could not serve this query (e.g. the checksum
        failure that triggered quarantine).
    ``source``
        Which fallback produced the answer (``"scan-fallback"``).
    """

    degraded = True

    def __init__(self, results, reason: str, source: str = "scan-fallback"):
        super().__init__(results)
        self.reason = reason
        self.source = source

    def __repr__(self) -> str:
        return (
            f"DegradedResult({list.__repr__(self)}, reason={self.reason!r}, "
            f"source={self.source!r})"
        )


@dataclass
class FsckReport:
    """The result of an index fsck (``SegmentDatabase.fsck()``)."""

    ok: bool
    engine: str
    pages_scanned: int
    checksum_failures: int
    problems: List[str] = field(default_factory=list)
    quarantined: bool = False

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "engine": self.engine,
            "pages_scanned": self.pages_scanned,
            "checksum_failures": self.checksum_failures,
            "problems": list(self.problems),
            "quarantined": self.quarantined,
        }

    def __str__(self) -> str:
        status = "clean" if self.ok else f"{len(self.problems)} problem(s)"
        lines = [
            f"fsck({self.engine}): {status}; "
            f"{self.pages_scanned} pages scanned, "
            f"{self.checksum_failures} checksum failure(s)"
            + (", index quarantined" if self.quarantined else "")
        ]
        lines.extend(f"  - {p}" for p in self.problems)
        return "\n".join(lines)
