"""The daemon workload, ``serve-bulk``.

A 2-shard snapshot behind ``python -m repro serve DIR --workers 2``: the
shm pool, one worker per shard, the daemon's default 2 ms coalescing
window.  Two closed-loop connections from this process, 16 queries per
request.

Set-up is the sharded bulk load, ``save``, the daemon's spawn through its
ready banner and warm-up passes over every distinct query until both
workers have attached both shards.  Every daemon is stopped with SIGTERM
and must print its ``{"drained": true}`` report, exit 0 and leave no
``rpr-*`` segment in ``/dev/shm``.
"""

from __future__ import annotations

import glob
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Dict, List

from common import (DATA_SEED, SETUPS, BenchError, answer_key,
                    brute_force, dir_bytes, fresh_queries, latency_summary, proc_cpu_s,
                    proc_tree, program_env, query_specs, request_specs,
                    sample_indices, self_cpu_s, shm_segments, vm_hwm_mb,
                    windowed_rate)
from layers import (engine_layer_metrics, explain_phase_metrics,
                    serving_layer_metrics)
from tracing import SpanRecorder, patch_layers

SHARDS = 2
WORKERS = 2
CONNECTIONS = 2
REQUEST_SIZE = 16
#: Requests per second of ``--seconds`` on a 2-core VM.
RATE = {"serve-bulk": 35.0}
BANNER_TIMEOUT_S = 120.0
WARM_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
#: How long an error path lets the daemon drain before SIGKILL.
KILL_GRACE_S = 10.0
#: Daemon answers compared with the in-process sync answers, and
#: replayed queries checked against brute force.
ORACLE_REQUESTS = 48
ORACLE_QUERIES = 128


class Daemon:
    """One ``repro serve`` process, started and checked from outside."""

    def __init__(self, directory: str, workers: int, work: str, tag: str):
        tmp = os.path.join(work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.log_path = os.path.join(work, f"daemon-{tag}.err")
        cmd = [sys.executable, "-m", "repro", "serve", directory,
               "--workers", str(workers)]
        self.shm_before = shm_segments()
        with open(self.log_path, "w") as log:
            # The lock files of the shm owner protocol go to TMPDIR.
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                env=program_env({"TMPDIR": tmp}))
        self.pid = self.proc.pid
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BANNER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        try:
            self.banner = json.loads(line)
        except ValueError:
            self.kill()
            raise BenchError(f"no ready banner: {line!r} {self._log_tail()}")
        self.port = self.banner["port"]

    def _log_tail(self) -> str:
        try:
            with open(self.log_path) as fh:
                return fh.read()[-2000:]
        except OSError:
            return ""

    def tree(self) -> List[int]:
        return proc_tree(self.pid)

    def stop(self) -> dict:
        """SIGTERM, then the drain report; raises unless the daemon and
        every process it started ended cleanly."""
        tree = self.tree()
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("daemon did not exit after SIGTERM")
        if _reap(tree[1:]):
            raise BenchError("processes of the daemon outlived it")
        lines = out.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            report = {}
        if self.proc.returncode != 0 or report.get("drained") is not True:
            raise BenchError(f"unclean drain: exit {self.proc.returncode}, "
                             f"report {lines[-1:]} {self._log_tail()}")
        return report

    def kill(self) -> None:
        """Stop the daemon on an error path: SIGTERM first so it can drain
        and unlink its shared memory, then SIGKILL what is left of its
        tree and unlink the segments it created."""
        tree = self.tree()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=KILL_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        _reap(tree, timeout=0.0)
        self.proc.communicate()
        for name in shm_segments() - self.shm_before:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _reap(pids: List[int], timeout: float = KILL_GRACE_S) -> List[int]:
    """Wait up to ``timeout`` seconds for ``pids`` to end, then SIGKILL
    and wait for the rest; returns the ones that had to be killed."""
    deadline = perf_counter() + timeout
    while any(_alive(p) for p in pids) and perf_counter() < deadline:
        time.sleep(0.05)
    killed = [p for p in pids if _alive(p)]
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while any(_alive(p) for p in killed):
        time.sleep(0.05)
    return killed


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().decode(errors="replace")
    except OSError:
        return ""


def _shm_maps(pid: int) -> Dict[str, int]:
    """How many mappings of each ``rpr-*`` segment ``pid`` holds."""
    counts: Dict[str, int] = {}
    try:
        with open(f"/proc/{pid}/maps") as fh:
            for line in fh:
                path = line.rsplit(None, 1)[-1]
                if path.startswith("/dev/shm/rpr-"):
                    name = path[len("/dev/shm/"):]
                    counts[name] = counts.get(name, 0) + 1
    except OSError:
        pass
    return counts


def _workers_attached(daemon: Daemon, segments: set, workers: int) -> bool:
    """True once ``workers`` pool workers each hold their own mapping of
    every shard segment.  A forked worker inherits the daemon's mappings,
    so it has attached a segment once it maps it more often than that."""
    parent = _shm_maps(daemon.pid)
    parent_cmd = _cmdline(daemon.pid)
    pool = [pid for pid in daemon.tree()[1:]
            if "resource_tracker" not in _cmdline(pid)
            and "forkserver" not in _cmdline(pid)]
    if len(pool) < workers:
        return False
    for pid in pool:
        inherited = parent if _cmdline(pid) == parent_cmd else {}
        maps = _shm_maps(pid)
        if any(maps.get(s, 0) <= inherited.get(s, 0) for s in segments):
            return False
    return True


def _drive(port: int, per_conn: List[List[list]], keep: set) -> dict:
    """Closed loop: one thread and one connection per request list."""
    from repro.serving import ServeClient

    records = [[] for _ in per_conn]
    kept: Dict[tuple, object] = {}
    errors: List[str] = []
    clients = [ServeClient(port=port, request_timeout=60.0) for _ in per_conn]

    def loop(c: int) -> None:
        client, out = clients[c], records[c]
        for i, queries in enumerate(per_conn[c]):
            t0 = perf_counter()
            ok = True
            try:
                res = client.query_batch(queries)
                if getattr(res, "degraded", False):
                    ok = False
            except Exception as exc:  # rejected, expired, broken wire
                res, ok = None, False
                errors.append(repr(exc))
            t1 = perf_counter()
            out.append((t0, t1, len(queries), ok))
            if (c, i) in keep:
                kept[(c, i)] = res

    # Daemon threads, so an error path in the main thread can exit.
    threads = [threading.Thread(target=loop, args=(c,), daemon=True)
               for c in range(len(per_conn))]
    cpu0 = self_cpu_s()
    start = perf_counter()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        for client in clients:
            client.close()
    wall = perf_counter() - start
    flat = [r for rs in records for r in rs]
    return {
        "start": start,
        "wall_s": wall,
        "client_cpu_s": self_cpu_s() - cpu0,
        "records": flat,
        "kept": kept,
        "errors": errors[:5],
        "ops": sum(r[2] for r in flat),
        "failed": sum(r[2] for r in flat if not r[3]),
    }


def _split(requests: List[list]) -> List[List[list]]:
    return [requests[c::CONNECTIONS] for c in range(CONNECTIONS)]


def _setup(segments, specs, work: str, tag: str):
    """Bulk load, save, spawn and warm one daemon; returns it, the
    snapshot directory and the stage times."""
    from repro.serving import ShardedSegmentDatabase

    directory = os.path.join(work, f"snap-{tag}")
    shm_before = shm_segments()
    # The client never evaluates a query, so the passes can share objects.
    warm = _split([fresh_queries(r) for r in request_specs(
        specs, -(-len(specs) // REQUEST_SIZE), REQUEST_SIZE)])
    t0 = perf_counter()
    built = ShardedSegmentDatabase.bulk_load(segments, shards=SHARDS)
    t1 = perf_counter()
    built.save(directory)
    t2 = perf_counter()
    del built
    daemon = Daemon(directory, WORKERS, work, tag)
    try:
        deadline = perf_counter() + WARM_TIMEOUT_S
        while True:
            run = _drive(daemon.port, warm, set())
            if run["failed"]:
                raise BenchError(f"warm-up failed: {run['errors']}")
            ours = shm_segments() - shm_before
            if _workers_attached(daemon, ours, WORKERS):
                break
            if perf_counter() > deadline:
                raise BenchError("pool workers never attached every shard")
        t3 = perf_counter()
    except BaseException:
        daemon.kill()
        raise
    return daemon, directory, {"setup_s": t3 - t0, "build_s": t1 - t0,
                               "save_s": t2 - t1}


def _teardown(daemon: Daemon, shm_before: set) -> dict:
    report = daemon.stop()
    leaked = shm_segments() - shm_before
    if leaked:
        raise BenchError(f"leaked shared memory: {sorted(leaked)}")
    return report


def _tree_cpu(daemon: Daemon) -> float:
    return sum(proc_cpu_s(pid) for pid in daemon.tree())


def _replay(db, requests: List[list], counts: List[int]):
    """Sync in-process replay of the distinct requests, weighted by how
    often the stream sent each; returns I/Os per query and answers."""
    from repro.geometry import filtered

    def total(report):
        combined = report["combined"]
        return combined["reads"], combined["writes"]

    r0, w0 = total(db.io_report())
    f0 = filtered.STATS.snapshot()
    reads = writes = ops = 0
    answers = []
    for queries, count in zip(requests, counts):
        before = total(db.io_report())
        answers.append(db.query_batch(queries))
        after = total(db.io_report())
        reads += (after[0] - before[0]) * count
        writes += (after[1] - before[1]) * count
        ops += len(queries) * count
    f1 = filtered.STATS.snapshot()
    r1, w1 = total(db.io_report())
    replayed = sum(len(q) for q in requests)
    return {
        "ios_per_op": (reads + writes) / ops if ops else 0.0,
        "answers": answers,
        "ops": replayed,
        "reads": r1 - r0,
        "writes": w1 - w0,
        "rebuild_ios": 0,
        "fast": f1[0] - f0[0],
        "exact": f1[1] - f0[1],
    }


def run(workload: str, seed: int, requests: int, trace: bool, n: int,
        work: str) -> dict:
    from repro import SegmentDatabase
    from repro.serving import ServeClient, ShardedSegmentDatabase
    from repro.workloads import grid_segments_touching

    segments = grid_segments_touching(n, seed=DATA_SEED)
    specs = query_specs(n, seed)
    # A traced run splits the same op count between an untraced phase
    # and a traced one, so its cost stays that of a plain run.
    phases = 2 if trace else 1
    requests = max(1, requests // phases)
    distinct = -(-len(specs) // REQUEST_SIZE)
    stream = request_specs(specs, requests, REQUEST_SIZE)
    phase_reqs = [_split([fresh_queries(r) for r in stream])
                  for _ in range(phases)]
    keep = {(j % CONNECTIONS, j // CONNECTIONS)
            for j in sample_indices(requests, ORACLE_REQUESTS, seed, workload)}

    shm_before = shm_segments()
    setup, daemon, directory = [], None, None
    for s in range(1 if trace else SETUPS):
        if daemon is not None:
            _teardown(daemon, shm_before)
        daemon, directory, times = _setup(segments, specs, work, str(s))
        setup.append(times)
    try:
        cpu0 = _tree_cpu(daemon)
        plain = _drive(daemon.port, phase_reqs[0], keep)
        cpu = _tree_cpu(daemon) - cpu0
        traced = None
        if trace:
            with ServeClient(port=daemon.port) as probe:
                before = probe.stats()
                traced = _drive(daemon.port, phase_reqs[1], set())
                after = probe.stats()
                health = probe.health()
        mem = sum(vm_hwm_mb(pid) for pid in daemon.tree())
    except BaseException:
        daemon.kill()
        raise
    drain = _teardown(daemon, shm_before)

    # ---- oracle and I/O replay, outside the clocks --------------------
    sync = ShardedSegmentDatabase.open(directory, workers=0)
    occurrences = [0] * distinct
    for r in range(requests):
        occurrences[r % distinct] += 1
    replay_reqs = [fresh_queries(r) for r in stream[:distinct]]
    replay = _replay(sync, replay_reqs, occurrences)
    recorder = traced_replay = None
    if trace:
        # The per-layer times come from a second pass, warm like the
        # daemon's workers; without a buffer pool its I/O counts equal
        # the first pass's.
        with SpanRecorder() as recorder:
            patch_layers(recorder)
            t0 = perf_counter()
            traced_replay = _replay(
                sync, [fresh_queries(r) for r in stream[:distinct]],
                occurrences)
            replay_wall = perf_counter() - t0
    wrong = checked = 0
    for (c, i), got in plain["kept"].items():
        if got is None:
            continue
        j = i * CONNECTIONS + c
        expected = replay["answers"][j % distinct]
        for g, e in zip(got, expected):
            checked += 1
            if answer_key(g) != answer_key(e):
                wrong += 1
    flat = [(q, got) for qs, answers in zip(replay_reqs, replay["answers"])
            for q, got in zip(qs, answers)]
    for j in sample_indices(len(flat), ORACLE_QUERIES, seed, "brute"):
        q, got = flat[j]
        checked += 1
        if answer_key(got) != brute_force(segments, q):
            wrong += 1

    lat = latency_summary([t1 - t0 for t0, t1, _, _ in
                           sorted(plain["records"], key=lambda r: r[1])])
    events = [(t1, ops) for _, t1, ops, _ in plain["records"]]
    failed = plain["failed"] + (traced["failed"] if traced else 0)
    result = {
        "attempted": plain["ops"] + (traced["ops"] if traced else 0),
        "failed": failed + wrong,
        "correct": wrong == 0,
        "checked_answers": checked,
        "wrong_answers": wrong,
        "errors": plain["errors"] + (traced["errors"] if traced else []),
        "latency": {k: v for k, v in lat.items() if k in ("samples", "beyond_p99")},
        "timed_wall_s": plain["wall_s"],
        "setups": setup,
        "drain": {k: drain.get(k) for k in ("drained", "requests", "batches",
                                            "rejected", "deadline_expired")},
        "end_to_end": {
            "setup_s": statistics.median(t["setup_s"] for t in setup),
            "qps": windowed_rate(events, plain["start"]),
            "p50_ms": lat["p50_ms"],
            "p99_ms": lat["p99_ms"],
            "cpu_ms_per_op": cpu * 1e3 / plain["ops"],
            "mem_mb": mem,
            "disk_mb": dir_bytes(directory) / 1e6,
            "ios_per_op": replay["ios_per_op"],
            "ok_frac": 1.0 - (plain["failed"] + wrong) / plain["ops"],
        },
    }
    if not trace:
        return result

    # ---- per-layer metrics --------------------------------------------
    client_lat = [t1 - t0 for t0, t1, _, _ in traced["records"]]
    layer = serving_layer_metrics(
        before, after, health, statistics.fmean(client_lat),
        traced["client_cpu_s"], traced["ops"])
    layer.update(engine_layer_metrics(recorder, traced_replay,
                                      queries=traced_replay["ops"],
                                      inserts=0, deletes=0))
    disk = dir_bytes(directory)
    shard_files = sorted(glob.glob(os.path.join(directory, "*.snap")))
    t0 = perf_counter()
    shards = [SegmentDatabase.open(path) for path in shard_files]
    open_s = perf_counter() - t0
    # The engine phase split, per shard as the daemon routes it.
    sample = fresh_queries(specs[:256])
    routed: Dict[int, list] = {}
    for q in sample:
        for index in sync.shards_for(q.x):
            routed.setdefault(index, []).append(q)
    reports = [shards[index].explain_batch(qs, timed=True)
               for index, qs in sorted(routed.items())]
    layer.update(explain_phase_metrics(reports, len(sample)))
    for t0, t1, _, _ in traced["records"]:
        recorder.add("client.query_batch", "client", t0, t1 - t0)
    traced_events = [(t1, ops) for _, t1, ops, _ in traced["records"]]
    traced_qps = windowed_rate(traced_events, traced["start"])
    layer.update({
        "engine.build_s": setup[0]["build_s"],
        "iosim.space_blocks": sum(db.space_in_blocks() for db in shards),
        "snapshot.save_s": setup[0]["save_s"],
        "snapshot.open_s": open_s,
        "snapshot.bytes_per_segment": disk / n,
        "trace.overhead_frac": 1.0 - traced_qps / result["end_to_end"]["qps"],
        "trace.span_coverage": sum(client_lat)
        / (CONNECTIONS * traced["wall_s"]),
    })
    result["replay_wall_s"] = replay_wall
    result["per_layer"] = layer
    result["recorder"] = recorder
    return result
