"""Per-layer metrics, computed from the span recorder, the program's
counters and its telemetry frames.  Names follow the program's modules;
BENCHMARK.json lists each with its unit."""

from __future__ import annotations

from typing import Dict, Iterable

#: ``explain_batch(timed=True)`` phases, below the root span.  Every phase
#: reports I/Os; only spans that are timed themselves report seconds.
PHASES = ("first-level", "G", "G/search", "G/scan", "short-PST",
          "short-PST/descent", "short-PST/report", "leaf", "PST",
          "PST/descent", "PST/report", "C")
TIMED_PHASES = ("first-level", "G", "G/search", "G/scan", "short-PST",
                "leaf", "PST", "C")
POOL_PHASES = ("dispatch", "deserialize", "attach", "query", "serialize",
               "collect")

#: Metrics of the serving layers, which do no work in-process.
SERVING = (
    "daemon.request_ms", "daemon.batch_ms", "daemon.wait_ms",
    "daemon.requests_per_batch", "wire.ms", "client.cpu_ms_per_op",
    "daemon.rejected", "daemon.deadline_expired",
    "sharded.tasks_per_request", "sharded.merge_ms",
    *(f"pool.{p}_ms" for p in POOL_PHASES),
    "pool.phase_coverage", "pool.respawns", "pool.retried_tasks",
    "pool.failed_tasks",
)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_layer_metrics(recorder, measured: dict, queries: int,
                         inserts: int, deletes: int) -> Dict[str, float]:
    """Facade, engine, geometry and iosim metrics of one traced phase.

    ``measured`` holds the phase's op count and counter deltas (reads,
    writes, rebuild I/Os, filter fast hits and exact fallbacks).
    """
    ops = measured["ops"]
    outer = recorder.layer_outer
    fast, exact = measured["fast"], measured["exact"]
    return {
        "facade.ms_per_op": _per(outer.get("facade", 0.0)
                                 - outer.get("engine", 0.0), ops) * 1e3,
        "engine.query_ms": _per(recorder.outer_s("engine.query",
                                                 "engine.query_batch"),
                                queries) * 1e3,
        "engine.insert_ms": _per(recorder.outer_s("engine.insert"),
                                 inserts) * 1e3,
        "engine.delete_ms": _per(recorder.outer_s("engine.delete"),
                                 deletes) * 1e3,
        "engine.rebuild_ios_per_op": _per(measured["rebuild_ios"], ops),
        "geometry.kernel_ms_per_op": _per(outer.get("kernel", 0.0), ops) * 1e3,
        "geometry.fast_hit_frac": _per(fast, fast + exact),
        "geometry.exact_per_op": _per(exact, ops),
        "iosim.reads_per_op": _per(measured["reads"], ops),
        "iosim.writes_per_op": _per(measured["writes"], ops),
        "iosim.fetch_ms_per_op": _per(outer.get("fetch", 0.0), ops) * 1e3,
    }


def explain_phase_metrics(reports: Iterable, queries: int) -> Dict[str, float]:
    """Per-query I/Os and self milliseconds of each engine phase, summed
    over timed ``explain``/``explain_batch`` reports covering ``queries``."""
    ios = {p: 0 for p in PHASES}
    secs = {p: 0.0 for p in TIMED_PHASES}
    for report in reports:
        for path, stats in report.phases.items():
            phase = path.split("/", 1)[1] if "/" in path else None
            if phase in ios:
                ios[phase] += stats.io_total
            if phase in secs:
                secs[phase] += stats.seconds
    out = {}
    for p in PHASES:
        name = p.replace("/", ".")
        out[f"engine.phase.{name}.ios_per_op"] = _per(ios[p], queries)
        if p in secs:
            out[f"engine.phase.{name}.ms_per_op"] = _per(secs[p], queries) * 1e3
    return out


def _hist(stats: dict, name: str):
    entry = stats["metrics"].get(name) or {}
    return entry.get("count", 0), entry.get("sum", 0.0)


def _counter(stats: dict, name: str) -> float:
    return (stats["metrics"].get(name) or {}).get("value", 0) or 0


def serving_layer_metrics(before: dict, after: dict, health: dict,
                          client_mean_s: float, client_cpu_s: float,
                          ops: int) -> Dict[str, float]:
    """Daemon, sharded and pool metrics from two ``stats`` frames taken
    around the traced phase, plus the ``health`` frame after it."""
    n0, s0 = _hist(before, "serve.request_s")
    n1, s1 = _hist(after, "serve.request_s")
    b0, bs0 = _hist(before, "serve.batch_s")
    b1, bs1 = _hist(after, "serve.batch_s")
    request_ms = _per(s1 - s0, n1 - n0) * 1e3
    batch_ms = _per(bs1 - bs0, b1 - b0) * 1e3
    requests = _counter(after, "serve.requests") - _counter(before, "serve.requests")
    lat0, lat1 = before["latency"], after["latency"]
    tasks = lat1["tasks"] - lat0["tasks"]
    task_wall = lat1["task_wall_s"] - lat0["task_wall_s"]
    sb0, sb1 = lat0["batches"], lat1["batches"]
    sharded_batches = sb1["count"] - sb0["count"]
    sharded_ms = _per(sb1["count"] * sb1["mean_ms"] - sb0["count"] * sb0["mean_ms"],
                      sharded_batches)
    # Pool tasks of one batch run side by side, so a batch waits about
    # one task.
    task_ms = _per(task_wall, tasks) * 1e3
    phases0, phases1 = lat0["phases_s"], lat1["phases_s"]
    phase_sum = sum(phases1.get(p, 0.0) - phases0.get(p, 0.0)
                    for p in POOL_PHASES)
    pool = (health.get("db") or {}).get("pool") or {}
    out = {
        "daemon.request_ms": request_ms,
        "daemon.batch_ms": batch_ms,
        "daemon.wait_ms": request_ms - batch_ms,
        "daemon.requests_per_batch": _per(requests, b1 - b0),
        "wire.ms": client_mean_s * 1e3 - request_ms,
        "client.cpu_ms_per_op": _per(client_cpu_s, ops) * 1e3,
        "daemon.rejected": _counter(after, "serve.rejected")
        - _counter(before, "serve.rejected"),
        "daemon.deadline_expired": _counter(after, "serve.deadline")
        - _counter(before, "serve.deadline"),
        "sharded.tasks_per_request": _per(tasks, requests),
        "sharded.merge_ms": sharded_ms - task_ms,
        "pool.phase_coverage": _per(phase_sum, task_wall),
        "pool.respawns": pool.get("respawns", 0),
        "pool.retried_tasks": pool.get("retried_tasks", 0),
        "pool.failed_tasks": pool.get("failed_tasks", 0),
    }
    for p in POOL_PHASES:
        delta = phases1.get(p, 0.0) - phases0.get(p, 0.0)
        out[f"pool.{p}_ms"] = _per(delta, tasks) * 1e3
    return out
