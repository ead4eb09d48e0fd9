"""Inputs, statistics, process probes and the brute-force oracle shared by
every perfbench workload.

Everything here runs outside the benchmark's clocks: inputs are generated
before a timed phase starts, and the oracle checks answers after it ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from random import Random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: snapshots, daemon logs, traces.
WORK = os.path.join(ROOT, ".bench_work")

CELL = 100  # grid_segments_touching's default cell size
#: Seed of the one data set every run uses; ``--seed`` drives the query
#: mix, the update stream and the oracle samples.  Data drawn per seed
#: made embedded-churn's cost depend on the data set: solution1 keeps
#: rebuilding BB[alpha] subtrees that sit on the balance boundary, and how
#: often depends on the data set.  At N = 8192 every data set of seeds
#: 1-10 rebuilds a subtree of 135-147 segments on 12-19% of the updates
#: (seed 1: 14%), and the same update stream took 6.1-11.0 s between
#: them.  Seed 1 is the first seed, not one picked to avoid the rebuilds;
#: a fixed data set keeps their rate out of the spread.
DATA_SEED = 1
#: Distinct query specs a run cycles through (the working set).
DISTINCT_QUERIES = 1024
#: Requests a timed phase needs at least, so that ten samples lie beyond
#: the windows' p99s.
MIN_TAIL_REQUESTS = 1000
#: Fixed-op windows a timed phase is split into for the median rate and p99.
WINDOWS = 8
#: Seconds a measured thread stays on one CPU (see :class:`CpuRotation`).
ROTATION_S = 0.02
#: Set-ups in an untraced run; ``setup_s`` is their median, so one set-up
#: that a slow spell of the VM covers does not move it.
SETUPS = 3


class BenchError(RuntimeError):
    """The run cannot produce a result (broken checkout, refused env)."""


def import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``
    from there, refusing an installed copy or a checkout without one."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def program_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a program subprocess: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def grid_extent(n: int) -> Tuple[int, int]:
    """Width and height of ``grid_segments_touching(n)``'s cell grid."""
    cols = max(1, math.isqrt(n))
    rows = -(-n // cols)
    return cols * CELL, rows * CELL


def query_specs(n: int, seed: int, count: int = DISTINCT_QUERIES) -> List[tuple]:
    """``count`` distinct ``(x, ylo, yhi)`` specs (``None`` = unbounded).

    Mostly vertical segment queries spanning 30-50 grid rows, so each
    reports a few dozen segments; one in ten is a full line and one in
    ten a ray.  Integer x values land on cell borders often enough that
    the touching chains keep the exact-arithmetic fallback busy.
    """
    width, height = grid_extent(n)
    span_lo, span_hi = 30 * CELL, min(50 * CELL, height)
    rng = Random(f"perfbench-queries-{seed}")
    specs, seen = [], set()
    while len(specs) < count:
        x = rng.randint(1, width - 1)
        kind = rng.random()
        if kind < 0.1:
            spec = (x, None, None)
        elif kind < 0.2:
            y = rng.randint(0, height)
            spec = (x, y, None) if rng.random() < 0.5 else (x, None, y)
        else:
            span = rng.randint(min(span_lo, span_hi), span_hi)
            ylo = rng.randint(0, max(0, height - span))
            spec = (x, ylo, ylo + span)
        if spec not in seen:
            seen.add(spec)
            specs.append(spec)
    return specs


def fresh_queries(specs: Sequence[tuple]) -> list:
    """New ``VerticalQuery`` objects: the program caches per-instance
    float balls, so a reused object would cost it less than a new one."""
    from repro.geometry import VerticalQuery

    return [VerticalQuery(x, ylo, yhi) for x, ylo, yhi in specs]


def request_specs(specs: Sequence[tuple], requests: int,
                  size: int) -> List[List[tuple]]:
    """``requests`` requests of ``size`` specs each, cycling ``specs``."""
    n = len(specs)
    return [[specs[(r * size + i) % n] for i in range(size)]
            for r in range(requests)]


def op_count(seconds: float, per_second: float) -> int:
    """Requests in a timed phase: a fixed count for a given ``--seconds``,
    never fewer than :data:`MIN_TAIL_REQUESTS`."""
    return max(MIN_TAIL_REQUESTS, int(round(seconds * per_second)))


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def answer_key(result) -> List:
    """Order-free comparable form of one query answer."""
    return sorted(s.label for s in result)


def brute_force(segments: Iterable, query) -> List:
    """The reference answer: ``vs_intersects`` over every live segment."""
    from repro.geometry import vs_intersects

    x = query.x
    return sorted(s.label for s in segments
                  if s.xmin <= x <= s.xmax and vs_intersects(s, query))


def sample_indices(total: int, k: int, seed: int, salt: str) -> List[int]:
    """A seeded sample of ``min(k, total)`` indices in ``range(total)``."""
    rng = Random(f"perfbench-sample-{salt}-{seed}")
    return sorted(rng.sample(range(total), min(k, total)))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(latencies_s: Sequence[float]) -> dict:
    """p50 of the phase and p99 as the median over :data:`WINDOWS`
    fixed-request windows of each window's p99, both in ms, plus how
    many samples lie beyond their window's p99.

    ``latencies_s`` are in completion order.  A slow spell of the VM
    sets the tail of the whole phase even when it covers one window of
    eight, but the median window's tail only when it covers half.
    """
    per = max(1, len(latencies_s) // WINDOWS)
    windows = [latencies_s[w:w + per]
               for w in range(0, len(latencies_s) - per + 1, per)]
    p99s = [percentile(w, 99) for w in windows]
    return {
        "p50_ms": percentile(latencies_s, 50) * 1e3,
        "p99_ms": statistics.median(p99s) * 1e3,
        "samples": len(latencies_s),
        "beyond_p99": sum(1 for w, p99 in zip(windows, p99s)
                          for v in w if v > p99),
    }


def windowed_rate(events: Sequence[Tuple[float, int]], start: float) -> float:
    """Median over :data:`WINDOWS` fixed-op windows of ops per second.

    ``events`` are ``(completion time, ops)`` per request; windows hold
    equal request counts in completion order, so a burst of VM slowness
    moves one window rather than the whole estimate.
    """
    ordered = sorted(events)
    per = max(1, len(ordered) // WINDOWS)
    rates, prev = [], start
    for w in range(0, len(ordered) - per + 1, per):
        chunk = ordered[w:w + per]
        end = chunk[-1][0]
        if end > prev:
            rates.append(sum(ops for _, ops in chunk) / (end - prev))
        prev = end
    return statistics.median(rates) if rates else 0.0


class CpuRotation:
    """Moves the thread that enters it to the next allowed CPU every
    :data:`ROTATION_S` seconds, until it exits.

    A single-threaded phase otherwise stays on one vCPU, and on a shared
    host one vCPU can run 30-50% slower than the other for tens of
    seconds.  Moving the thread this often makes every set-up and every
    timed window, however short, sample each vCPU alike.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._tid = threading.get_native_id()
        self._stop = threading.Event()
        # Started before the first pin, so the mover itself may run on
        # any CPU.
        self._mover = threading.Thread(target=self._move, daemon=True)

    def _move(self) -> None:
        turn = 0
        while not self._stop.wait(ROTATION_S):
            turn += 1
            os.sched_setaffinity(self._tid, {self.cpus[turn % len(self.cpus)]})

    def __enter__(self) -> "CpuRotation":
        self._mover.start()
        os.sched_setaffinity(self._tid, {self.cpus[0]})
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._mover.join()
        os.sched_setaffinity(self._tid, set(self.cpus))


# ----------------------------------------------------------------------
# process probes (Linux /proc)
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def self_cpu_s() -> float:
    """User plus system CPU of this process, in seconds."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU of ``pid`` from ``/proc``, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_tree(root: int) -> List[int]:
    """``root`` and every live descendant."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(parents.get(pid, []))
    return out


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_segments() -> set:
    """Names of the program's shared-memory segments now in ``/dev/shm``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("rpr-")}
    except OSError:
        return set()


def dir_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Time of a fixed pure-Python loop: a diagnostic of machine speed
    recorded beside each run, never a metric and never a scale factor."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, workload: str, trace: bool) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def emit(line_prefix: str, payload: dict) -> None:
    print(f"{line_prefix} {json.dumps(payload, sort_keys=True)}", flush=True)
