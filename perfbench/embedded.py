"""The in-process workload, ``embedded-churn``.

solution1, then a seeded mix of single ``query`` calls and updates.  An
update deletes one stored segment and inserts its replacement in the
same grid cell, so N and the layout stay constant.

Set-up is bulk load, ``save`` and a warm-up pass over every distinct
query; an untraced run sets up :data:`common.SETUPS` times and reports
the median.
"""

from __future__ import annotations

import gc
import os
import statistics
from random import Random
from time import perf_counter
from typing import List

from common import (CELL, DATA_SEED, SETUPS, CpuRotation,
                    answer_key, brute_force, dir_bytes, fresh_queries,
                    latency_summary, query_specs, sample_indices,
                    self_cpu_s, vm_hwm_mb, windowed_rate)
from layers import SERVING, engine_layer_metrics, explain_phase_metrics
from tracing import SpanRecorder, patch_layers

#: Ops per second of ``--seconds`` on a 2-core VM.
RATE = {"embedded-churn": 2000.0}
#: Share of churn steps that are updates (a delete plus an insert).  At a
#: fifth, updates are a third of the ops and about one in eight of them
#: rebuilds a BB[alpha] subtree, so p99 lands inside those rebuilds
#: rather than on the edge between them and ordinary ops.  A larger
#: share made the run's speed swing more with the host's load.
UPDATE_SHARE = 0.2
#: Queries whose answers the oracle checks against brute force.
ORACLE_SAMPLE = 64


def _replacement(old, version: int, rng: Random):
    """A segment for ``old``'s grid cell that crosses nothing.

    The right endpoint, which the next cell's chain may share, is kept.
    A left endpoint on the cell's left border is shared with the previous
    cell and kept too; an interior one moves to a new height in the
    cell's row band.  Rows never meet, and neighbours in a row meet only
    on the shared borders, so the set stays non-crossing.
    """
    from repro.geometry import Segment

    left, right = old.start, old.end
    y = left.y
    if left.x % CELL:
        row = (left.y // CELL) * CELL
        y = row + rng.randint(1, CELL - 2)
        while (left.x, y) == (right.x, right.y):
            y = row + rng.randint(1, CELL - 2)
    return Segment.from_coords(left.x, y, right.x, right.y,
                               label=("t", old.label[1], version))


def _churn_groups(segments, specs, ops: int, seed: int):
    """Seeded steps until ``ops`` ops: each a ``[("q", query)]`` or an
    update ``[("d", old), ("i", new)]``.  Returns the groups and the
    cell -> segment map they leave behind."""
    rng = Random(f"perfbench-churn-{seed}")
    current = {s.label[1]: s for s in segments}
    cells = sorted(current)
    groups, count, qi, version = [], 0, 0, 0
    while count < ops:
        if rng.random() < UPDATE_SHARE:
            version += 1
            cell = cells[rng.randrange(len(cells))]
            old = current[cell]
            new = _replacement(old, version, rng)
            current[cell] = new
            groups.append([("d", old), ("i", new)])
            count += 2
        else:
            groups.append([("q", specs[qi % len(specs)])])
            qi += 1
            count += 1
    return groups, current


def _setup(segments, specs, path: str):
    from repro import SegmentDatabase

    queries = fresh_queries(specs)
    gc.collect()
    t0 = perf_counter()
    db = SegmentDatabase.bulk_load(segments, engine="solution1")
    t1 = perf_counter()
    db.save(path)
    t2 = perf_counter()
    for q in queries:
        db.query(q)
    t3 = perf_counter()
    return db, {"setup_s": t3 - t0, "build_s": t1 - t0, "save_s": t2 - t1}


def _timed(db, ops_list, keep: set):
    """Run one timed phase; returns measurements and kept answers."""
    from repro.geometry import filtered

    failed, errors, kept = 0, [], {}
    latencies: List[float] = []
    events = []
    io0, tags0 = db.io_stats(), db.device.tag_snapshot()
    filter0 = filtered.STATS.snapshot()
    degraded0 = db.io_report()["degraded_queries"]
    cpu0 = self_cpu_s()
    start = perf_counter()
    for j, (kind, arg) in enumerate(ops_list):
        t0 = perf_counter()
        try:
            if kind == "q":
                out = db.query(arg)
            elif kind == "d":
                out = db.delete(arg)
                if not out:
                    failed += 1
                    errors.append(f"delete missed {arg.label}")
            else:
                out = db.insert(arg)
        except Exception as exc:  # a failed op, counted, not fatal
            out = None
            failed += 1
            errors.append(repr(exc))
        t1 = perf_counter()
        latencies.append(t1 - t0)
        events.append((t1, 1))
        if j in keep:
            kept[j] = out
    wall = perf_counter() - start
    cpu = self_cpu_s() - cpu0
    ops = sum(n for _, n in events)
    io = db.io_stats() - io0
    tags1 = db.device.tag_snapshot()
    fast1, exact1 = filtered.STATS.snapshot()
    failed += db.io_report()["degraded_queries"] - degraded0
    return {
        "ops": ops,
        "failed": failed,
        "errors": errors[:5],
        "wall_s": wall,
        "qps": windowed_rate(events, start),
        "cpu_s": cpu,
        "latencies": latencies,
        "reads": io.reads,
        "writes": io.writes,
        "rebuild_ios": tags1.get("rebuild", 0) - tags0.get("rebuild", 0),
        "fast": fast1 - filter0[0],
        "exact": exact1 - filter0[1],
    }, kept


def run(workload: str, seed: int, requests: int, trace: bool, n: int,
        work: str) -> dict:
    from repro import SegmentDatabase
    from repro.workloads import grid_segments_touching

    segments = grid_segments_touching(n, seed=DATA_SEED)
    specs = query_specs(n, seed)
    # A traced run splits the same op count between an untraced phase
    # and a traced one, so its cost stays that of a plain run.
    phases = 2 if trace else 1
    requests = max(1, requests // phases)

    # Inputs for every timed phase, made before any clock starts.
    groups, final = _churn_groups(segments, specs, requests * phases, seed)
    split = len(groups) // phases
    phase_ops = []
    for p in range(phases):
        part = groups[p * split:(p + 1) * split if p < phases - 1 else None]
        flat = [op for g in part for op in g]
        phase_ops.append([(k, fresh_queries([a])[0] if k == "q" else a)
                          for k, a in flat])

    snapshot = os.path.join(work, "db.snap")
    keeps = [set(sample_indices(len(ops), ORACLE_SAMPLE, seed,
                                f"{workload}{p}"))
             for p, ops in enumerate(phase_ops)]
    setup = []
    with CpuRotation():
        for _ in range(1 if trace else SETUPS):
            db = None
            db, times = _setup(segments, specs, snapshot)
            setup.append(times)
        plain, kept0 = _timed(db, phase_ops[0], keeps[0])
        kept = [kept0]
        measured = plain
        recorder = None
        if trace:
            with SpanRecorder() as recorder:
                patch_layers(recorder)
                traced, kept1 = _timed(db, phase_ops[1], keeps[1])
            kept.append(kept1)
            measured = traced
    disk = dir_bytes(snapshot)

    # ---- oracle, outside the clocks -----------------------------------
    wrong, checked = 0, 0
    live = {s.label[1]: s for s in segments}
    for p, ops in enumerate(phase_ops):
        for j, (kind, arg) in enumerate(ops):
            if kind == "d":
                live.pop(arg.label[1], None)
            elif kind == "i":
                live[arg.label[1]] = arg
            elif j in kept[p] and kept[p][j] is not None:
                checked += 1
                if answer_key(kept[p][j]) != brute_force(live.values(), arg):
                    wrong += 1
    stored = sorted((s.label, s.start.x, s.start.y, s.end.x, s.end.y)
                    for s in db.all_segments())
    expected = sorted((s.label, s.start.x, s.start.y, s.end.x, s.end.y)
                      for s in final.values())
    if stored != expected:
        wrong += 1

    lat = latency_summary(plain["latencies"])
    attempted = plain["ops"] + (measured["ops"] if trace else 0)
    failed = plain["failed"] + (measured["failed"] if trace else 0)
    result = {
        "attempted": attempted,
        "failed": failed + wrong,
        "correct": wrong == 0,
        "checked_answers": checked,
        "wrong_answers": wrong,
        "errors": plain["errors"] + (measured["errors"] if trace else []),
        "latency": {k: v for k, v in lat.items() if k in ("samples", "beyond_p99")},
        "timed_wall_s": plain["wall_s"],
        "setups": setup,
        "end_to_end": {
            "setup_s": statistics.median(t["setup_s"] for t in setup),
            "qps": plain["qps"],
            "p50_ms": lat["p50_ms"],
            "p99_ms": lat["p99_ms"],
            "cpu_ms_per_op": plain["cpu_s"] * 1e3 / plain["ops"],
            "mem_mb": vm_hwm_mb(),
            "disk_mb": disk / 1e6,
            "ios_per_op": (plain["reads"] + plain["writes"]) / plain["ops"],
            "ok_frac": 1.0 - (plain["failed"] + wrong) / plain["ops"],
        },
    }
    if not trace:
        return result

    # ---- per-layer metrics from the traced phase ----------------------
    counts = {"q": 0, "d": 0, "i": 0}
    for kind, _ in phase_ops[1]:
        counts[kind] += 1
    t0 = perf_counter()
    SegmentDatabase.open(snapshot)
    open_s = perf_counter() - t0
    layer = engine_layer_metrics(
        recorder, measured, queries=counts["q"], inserts=counts["i"],
        deletes=counts["d"])
    sample = fresh_queries(specs[:64])
    reports = [db.explain(q, timed=True) for q in sample]
    layer.update(explain_phase_metrics(reports, len(sample)))
    layer.update({
        "engine.build_s": setup[0]["build_s"],
        "iosim.space_blocks": db.space_in_blocks(),
        "snapshot.save_s": setup[0]["save_s"],
        "snapshot.open_s": open_s,
        "snapshot.bytes_per_segment": disk / n,
        "trace.overhead_frac": 1.0 - measured["qps"] / plain["qps"],
        "trace.span_coverage": recorder.top_s() / measured["wall_s"],
    })
    # No serving code runs in-process: those layers did no work.
    layer.update({name: 0.0 for name in SERVING})
    result["per_layer"] = layer
    result["recorder"] = recorder
    return result
