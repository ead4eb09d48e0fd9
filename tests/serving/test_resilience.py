"""Fault-tolerant serving: retries, degraded shards, the supervised
pool, and wire chaos.

Four layers under test, bottom up:

* the client's retry policy — validation, and a jittered exponential
  backoff that a seed replays — and the replayability contract of
  :class:`RpcChaosSchedule`;
* a shard whose storage fails underneath the sharded database: retry
  exhaustion and corruption degrade to exact, typed
  :class:`~repro.core.recovery.DegradedResult` answers marked query by
  query, ``degrade=False`` raises the typed storage error, and
  ``explain_batch`` refuses an anatomy that would leave a shard out;
* the pre-forked pool behind ``repro serve --workers 2`` against real
  SIGKILLs — the parent replaces a dead process and a retrying client
  gets exact answers, wherever in a process's life the kill lands —
  next to ``--workers 0``, which nothing supervises;
* the full RPC stack under seeded chaos — daemon behind a fault-
  injecting :class:`ChaosProxy` (a reset or a close takes effect at
  once, not after a timeout) — held to the never-silently-wrong oracle:
  every answer is exact or a typed error.  Never a hang, never a lie.
"""

import math
import os
import signal
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro import (
    FaultSchedule,
    RetryPolicy,
    SegmentDatabase,
    ShardedSegmentDatabase,
    VerticalQuery,
)
from repro.iosim import ChecksumError, StorageError, TransientIOError
from repro.serving import (
    ChaosProxy,
    RpcChaosSchedule,
    ServeClient,
    ServeConnectionError,
    ServeDaemon,
    ServeRejected,
)
from repro.serving import daemon as daemon_module
from repro.workloads import grid_segments, segment_queries

from .forked import BANNER_TIMEOUT_S, EXIT_TIMEOUT_S


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    segments = grid_segments(240, seed=71)
    queries = list(segment_queries(segments, 16, seed=72))
    directory = str(tmp_path_factory.mktemp("resilience") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    expected = [sorted(str(s.label) for s in r) for r in
                ShardedSegmentDatabase.open(directory).query_batch(queries)]
    return directory, queries, expected


def _labels(results):
    return [sorted(str(s.label) for s in r) for r in results]


# ----------------------------------------------------------------------
# The client's retry policy
# ----------------------------------------------------------------------

def test_policy_validation():
    """Values the retry loop cannot follow are refused before the
    client opens a connection."""
    with pytest.raises(ValueError, match="retries"):
        ServeClient(port=1, retries=-1)
    with pytest.raises(ValueError, match="retry_backoff_s"):
        ServeClient(port=1, retry_backoff_s=-0.1)


def test_policy_jitter_is_bounded_and_seeded(snapshot, monkeypatch):
    """Retry k waits ``retry_backoff_s * 2**(k-1)`` stretched by a
    jitter in [1, 1.5) from the client's seeded generator: bounded, and
    replayed exactly by the same seed."""
    directory, _queries, _expected = snapshot
    slept = []
    monkeypatch.setattr(daemon_module, "time",
                        SimpleNamespace(sleep=slept.append))
    daemon, thread = _daemon(ShardedSegmentDatabase.open(directory))
    frames = RpcChaosSchedule(seed=0, conn_reset_rate=1.0)

    def delays(port, seed):
        slept.clear()
        with ServeClient(port=port, retries=4, retry_backoff_s=0.01,
                         seed=seed) as client:
            with pytest.raises(ServeConnectionError):
                client.ping()
        return list(slept)

    try:
        with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
            first, again, other = (delays(proxy.port, 3),
                                   delays(proxy.port, 3),
                                   delays(proxy.port, 4))
    finally:
        daemon.request_stop()
        thread.join(timeout=10)
    assert len(first) == 4
    assert first == again, "the same seed must replay the same delays"
    assert first != other
    for k, delay in enumerate(first):
        assert 0.01 * 2 ** k <= delay < 1.5 * 0.01 * 2 ** k


# ----------------------------------------------------------------------
# RpcChaosSchedule
# ----------------------------------------------------------------------

def _mixed(seed):
    return RpcChaosSchedule(seed=seed, frame_corrupt_rate=0.2,
                            frame_truncate_rate=0.2, conn_reset_rate=0.2,
                            frame_delay_rate=0.2)


def test_chaos_schedule_is_replayable():
    a, b = _mixed(5), _mixed(5)
    decisions_a = [a.next_frame_fault() for _ in range(40)]
    decisions_b = [b.next_frame_fault() for _ in range(40)]
    assert decisions_a == decisions_b
    assert any(decisions_a), "rates of 0.2 over 40 draws must fault"
    assert a.history == b.history
    assert all(e["kind"].startswith("frame-") for e in a.history)


def test_chaos_disarmed_suspends_injection():
    schedule = RpcChaosSchedule(seed=2, frame_corrupt_rate=1.0)
    with schedule.disarmed():
        assert schedule.next_frame_fault() is None
    assert schedule.next_frame_fault() == "corrupt"


def test_chaos_frame_fault_kinds():
    assert RpcChaosSchedule(seed=0, conn_reset_rate=1.0).next_frame_fault() \
        == "reset"
    assert RpcChaosSchedule(
        seed=0, frame_truncate_rate=1.0).next_frame_fault() == "truncate"
    assert RpcChaosSchedule(
        seed=0, frame_corrupt_rate=1.0).next_frame_fault() == "corrupt"
    assert RpcChaosSchedule(
        seed=0, frame_delay_rate=1.0,
        frame_delay_s=0.01).next_frame_fault() == "delay"
    assert RpcChaosSchedule(seed=0).next_frame_fault() is None


def test_chaos_schedule_round_trips_through_dict():
    schedule = _mixed(11)
    twin = RpcChaosSchedule.from_dict(schedule.to_dict())
    assert [schedule.next_frame_fault() for _ in range(20)] == \
           [twin.next_frame_fault() for _ in range(20)]


# ----------------------------------------------------------------------
# A shard whose storage fails: degraded, exact, never silently wrong
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    """Segments, the boundary two shards split them at, queries (one of
    them on the boundary, so that it reads both shards) and the answers
    of one unsharded database."""
    segments = grid_segments(240, seed=71)
    (cut,) = ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).boundaries
    queries = list(segment_queries(segments, 16, seed=72))
    queries.append(VerticalQuery(cut))
    flat = SegmentDatabase.bulk_load(segments, block_capacity=16)
    return segments, cut, queries, _labels(flat.query_batch(queries))


def _two_shards(segments, cut, **faulty):
    """A two-shard database split at ``cut`` whose shard 0 is built with
    the ``faulty`` keywords (fault schedule, retry policy, degrade)."""
    left = [s for s in segments if s.xmin <= cut]
    right = [s for s in segments if s.xmax >= cut]
    shards = [SegmentDatabase.bulk_load(left, block_capacity=16, **faulty),
              SegmentDatabase.bulk_load(right, block_capacity=16)]
    return ShardedSegmentDatabase("solution2", [cut], shards,
                                  segment_count=len(segments))


def _corrupt_every_page(db):
    device = db.device
    for page_id in [page.page_id for page in device.iter_pages()]:
        device.corrupt_page(page_id)


def _degraded(result):
    return getattr(result, "degraded", False)


def test_retry_exhaustion_degrades_instead_of_raising(workload):
    segments, cut, queries, expected = workload
    db = _two_shards(segments, cut,
                     faults=FaultSchedule(seed=0, read_error_rate=1.0),
                     retry=RetryPolicy(max_retries=2))
    results = db.query_batch(queries)
    assert _labels(results) == expected, "degraded answers must be exact"
    for q, result in zip(queries, results):
        assert _degraded(result) == (0 in db.shards_for(q.x)), q
        if _degraded(result):
            assert "TransientIOError" in result.reason
            assert "3 attempt(s)" in result.reason
    # A transient fault degrades the query, not the index.
    assert db.health_report()["quarantined"] == []
    faults = db.io_report()["shards"][0]["faults"]
    assert faults["transient_failures"] > 0
    assert faults["retries"] == 2 * faults["transient_failures"]


def test_degraded_coverage_map_is_accurate_per_query(workload):
    """Shard 0's index is corrupt at rest: the first read quarantines
    it, health names it, and each answer is marked by its own routing —
    degraded exactly when it read shard 0 (the boundary query included),
    exact either way."""
    segments, cut, queries, expected = workload
    db = _two_shards(segments, cut, faults=FaultSchedule(seed=0))
    _corrupt_every_page(db._shards[0])
    assert db.health_report()["quarantined"] == []
    for attempt in ("quarantines", "quarantined"):
        results = db.query_batch(queries)
        assert db.health_report()["quarantined"] == [0], attempt
        assert _labels(results) == expected, attempt
        for q, result in zip(queries, results):
            routed = db.shards_for(q.x)
            assert _degraded(result) == (0 in routed), (attempt, q)
            if _degraded(result):
                assert "ChecksumError" in result.reason
            if len(routed) == 2:
                assert result.reason.startswith("shard 0: ")
    touching = sum(1 for q in queries if 0 in db.shards_for(q.x))
    report = db.io_report()["shards"]
    assert report[0]["quarantined"] is True
    assert report[0]["degraded_queries"] == 2 * touching
    assert report[1]["quarantined"] is False
    assert report[1]["degraded_queries"] == 0


def test_degrade_false_raises_typed_shard_down(workload):
    segments, cut, queries, expected = workload
    db = _two_shards(segments, cut,
                     faults=FaultSchedule(seed=0, read_error_rate=1.0),
                     retry=RetryPolicy(max_retries=1), degrade=False)
    with pytest.raises(TransientIOError) as excinfo:
        db.query_batch(queries)
    assert isinstance(excinfo.value, StorageError)
    assert excinfo.value.attempts == 2
    # The healthy shard alone still answers, exactly and undegraded.
    healthy = [i for i, q in enumerate(queries) if db.shards_for(q.x) == [1]]
    results = db.query_batch([queries[i] for i in healthy])
    assert _labels(results) == [expected[i] for i in healthy]
    assert not any(_degraded(r) for r in results)


def test_explain_batch_refuses_partial_anatomy(workload):
    """A corrupt shard cannot be explained: ``explain_batch`` raises the
    typed checksum error rather than return the healthy shard's anatomy
    as if it were the batch's, before and after quarantine."""
    segments, cut, queries, expected = workload
    db = _two_shards(segments, cut, faults=FaultSchedule(seed=0))
    _corrupt_every_page(db._shards[0])
    with pytest.raises(ChecksumError):
        db.explain_batch(queries)
    assert _labels(db.query_batch(queries)) == expected
    assert db.health_report()["quarantined"] == [0]
    with pytest.raises(ChecksumError):
        db.explain_batch(queries)
    healthy = [q for q in queries if db.shards_for(q.x) == [1]]
    reports = db.explain_batch(healthy)
    assert [r.description.split(":")[0] for r in reports] == ["shard 1"]


# ----------------------------------------------------------------------
# The pre-forked pool: the parent replaces a serving process that dies
# ----------------------------------------------------------------------

def _sized(client, queries, seconds):
    """``queries`` repeated so that one request of them takes about
    ``seconds`` where the test runs."""
    t0 = time.monotonic()
    client.query_batch(queries * 20)
    per_copy = (time.monotonic() - t0) / 20
    return queries * max(20, math.ceil(seconds / per_copy))


def _serving(daemon, *victims):
    """Wait until the pool is back at full strength without ``victims``
    and every member has answered a connection; returns their pids."""
    pids = daemon.replaced(*victims)
    for pid in pids:
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        while True:
            with ServeClient(port=daemon.port) as client:
                if client.health()["pid"] == pid:
                    break
            assert time.monotonic() < deadline, f"{pid} never served"
            time.sleep(0.05)
    return pids


def test_supervised_pool_recovers_exactly_from_a_mid_query_kill(serve,
                                                                snapshot):
    directory, queries, expected = snapshot
    daemon = serve(directory)
    with ServeClient(port=daemon.port, retries=2,
                     request_timeout=EXIT_TIMEOUT_S) as client:
        big = _sized(client, queries, 2.0)
        victim = client.health()["pid"]
        answer = {}

        def ask():
            answer["results"] = client.query_batch(big)
            answer["at"] = time.monotonic()

        asker = threading.Thread(target=ask)
        asker.start()
        time.sleep(0.5)  # a quarter of the way into the request
        os.kill(victim, signal.SIGKILL)
        killed_at = time.monotonic()
        asker.join(timeout=EXIT_TIMEOUT_S)
        assert not asker.is_alive()
    assert answer["at"] > killed_at, "the request was not in flight"
    assert _labels(answer["results"]) == expected * (len(big) // len(queries))
    now = _serving(daemon, victim)
    report = daemon.stop()
    assert report["drained"] is True
    assert sorted(w["pid"] for w in report["workers"]) == sorted(now)
    assert report["queries"] >= len(big)


def test_every_kill_point_recovers(serve, snapshot):
    """Kill serving processes at each point of their life — idle behind
    an open connection, freshly forked as a replacement, and all of them
    at once — and retrying clients keep getting exact answers from a
    pool that returns to full strength."""
    directory, queries, expected = snapshot
    daemon = serve(directory)
    with ServeClient(port=daemon.port, retries=3,
                     request_timeout=EXIT_TIMEOUT_S) as client:
        idle = client.health()["pid"]
        os.kill(idle, signal.SIGKILL)
        assert _labels(client.query_batch(queries)) == expected, "idle"

        (fresh,) = _serving(daemon, idle) - set(daemon.children)
        os.kill(fresh, signal.SIGKILL)
        with ServeClient(port=daemon.port, retries=3) as other:
            assert _labels(other.query_batch(queries)) == expected, "fresh"

        everyone = _serving(daemon, idle, fresh)
        for pid in everyone:
            os.kill(pid, signal.SIGKILL)
        assert _labels(client.query_batch(queries)) == expected, "all"
    now = _serving(daemon, idle, fresh, *everyone)
    assert len(now) == 2
    report = daemon.stop()
    assert report["drained"] is True
    assert sorted(w["pid"] for w in report["workers"]) == sorted(now)


def test_unsupervised_pool_keeps_the_legacy_failure_surface(serve,
                                                            snapshot):
    """``--workers 0`` is one serving process that nothing supervises:
    killed, it stays dead, and a retrying client gets a typed connection
    error instead of an answer."""
    directory, queries, expected = snapshot
    daemon = serve(directory, workers=0)
    assert daemon.children == []
    with ServeClient(port=daemon.port, retries=2,
                     retry_backoff_s=0.01) as client:
        assert client.health()["pid"] == daemon.proc.pid
        assert _labels(client.query_batch(queries)) == expected
        daemon.proc.kill()
        daemon.proc.wait(timeout=EXIT_TIMEOUT_S)
        with pytest.raises(ServeConnectionError):
            client.query_batch(queries)
    assert daemon.proc.returncode == -signal.SIGKILL


def _exact(results):
    return [[(s.label, s.start.x, s.start.y, s.end.x, s.end.y) for s in r]
            for r in results]


def test_fault_free_supervised_results_are_bit_identical(serve, snapshot):
    """Without faults the pool is invisible: both processes answer every
    batch with the in-process answer, segment for segment and in order,
    and nothing is replaced."""
    directory, queries, _expected = snapshot
    want = _exact(ShardedSegmentDatabase.open(directory).query_batch(queries))
    daemon = serve(directory)
    with ServeClient(port=daemon.port) as a, \
            ServeClient(port=daemon.port) as b:
        assert {a.health()["pid"], b.health()["pid"]} == set(daemon.children)
        for client in (a, b):
            for _ in range(3):
                got = client.query_batch(queries)
                assert not any(_degraded(r) for r in got)
                assert _exact(got) == want
    report = daemon.stop()
    assert report["drained"] is True
    assert sorted(w["pid"] for w in report["workers"]) == \
        sorted(daemon.children)
    assert [w["queries"] for w in report["workers"]] == [3 * len(queries)] * 2


def test_pool_health_report_shape(serve, snapshot):
    directory, queries, _expected = snapshot
    daemon = serve(directory)
    with ServeClient(port=daemon.port) as client:
        client.query_batch(queries)
        health = client.health()
    assert set(health) == {"pid", "draining", "inflight", "pending",
                           "max_pending", "requests", "rejected",
                           "deadline_expired", "db"}
    assert health["pid"] in daemon.children
    assert health["requests"] == 1 and health["draining"] is False
    # The database reports its shards; the pool it no longer has, never.
    assert health["db"] == {"shards": 2, "quarantined": []}
    assert daemon.stop()["drained"] is True


# ----------------------------------------------------------------------
# RPC chaos: daemon behind a fault-injecting proxy
# ----------------------------------------------------------------------

def _daemon(db, **kwargs):
    daemon = ServeDaemon(db, **kwargs)
    thread = threading.Thread(
        target=daemon.run, kwargs={"install_signal_handlers": False},
        daemon=True)
    thread.start()
    assert daemon.ready.wait(timeout=10)
    return daemon, thread


def test_rpc_chaos_oracle_never_silently_wrong(snapshot):
    """The crash-point oracle at the RPC layer, over several seeds:
    response frames corrupted/truncated/reset by the proxy, client armed
    with timeouts and retries — and every answer that comes back is
    exact, or the failure is typed."""
    directory, queries, expected = snapshot
    for seed in range(3):
        frames = RpcChaosSchedule(seed=seed + 100, frame_corrupt_rate=0.2,
                                  frame_truncate_rate=0.1,
                                  conn_reset_rate=0.1)
        daemon, thread = _daemon(ShardedSegmentDatabase.open(directory))
        try:
            with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
                with ServeClient(port=proxy.port, connect_timeout=5,
                                 request_timeout=30, retries=5,
                                 retry_backoff_s=0.01,
                                 seed=seed) as client:
                    for start in range(0, len(queries), 4):
                        try:
                            got = client.query_batch(queries[start:start + 4])
                        except (ServeRejected, ServeConnectionError):
                            continue  # loud typed failure: acceptable
                        assert _labels(got) == expected[start:start + 4], (
                            f"seed {seed}: silent wrong answer; "
                            f"frames={frames.history}")
        finally:
            daemon.request_stop()
            thread.join(timeout=10)
        assert not thread.is_alive(), f"seed {seed}: daemon hung in drain"


def test_corrupted_frame_is_a_typed_error_without_retries(snapshot):
    directory, queries, _expected = snapshot
    daemon, thread = _daemon(ShardedSegmentDatabase.open(directory))
    frames = RpcChaosSchedule(seed=0, frame_corrupt_rate=1.0)
    try:
        with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
            with ServeClient(port=proxy.port, retries=0) as client:
                with pytest.raises(ServeConnectionError, match="undecodable"):
                    client.query_batch(queries[:2])
    finally:
        daemon.request_stop()
        thread.join(timeout=10)


def test_client_retries_ride_out_connection_resets(snapshot):
    directory, queries, expected = snapshot
    daemon, thread = _daemon(ShardedSegmentDatabase.open(directory))
    frames = RpcChaosSchedule(seed=4, conn_reset_rate=0.5)
    try:
        with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
            with ServeClient(port=proxy.port, retries=6,
                             retry_backoff_s=0.01) as client:
                for start in range(0, len(queries), 4):
                    got = client.query_batch(queries[start:start + 4])
                    assert _labels(got) == expected[start:start + 4]
    finally:
        daemon.request_stop()
        thread.join(timeout=10)
    assert frames.frame_faults_injected > 0, "the reset schedule never fired"


def test_chaos_proxy_delay_passes_frames_through_intact(snapshot):
    directory, queries, expected = snapshot
    daemon, thread = _daemon(ShardedSegmentDatabase.open(directory))
    frames = RpcChaosSchedule(seed=0, frame_delay_rate=1.0,
                              frame_delay_s=0.05)
    try:
        with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
            with ServeClient(port=proxy.port, retries=0) as client:
                t0 = time.perf_counter()
                got = client.query_batch(queries[:4])
                elapsed = time.perf_counter() - t0
        assert _labels(got) == expected[:4]
        assert elapsed >= 0.05, "the delay fault never applied"
    finally:
        daemon.request_stop()
        thread.join(timeout=10)


def test_reset_fault_reaches_the_client_at_once(snapshot):
    """A reset hangs up on the client there and then: a typed connection
    error within a second, not a read that waits out its timeout."""
    directory, queries, _expected = snapshot
    daemon, thread = _daemon(ShardedSegmentDatabase.open(directory))
    frames = RpcChaosSchedule(seed=0, conn_reset_rate=1.0)
    try:
        with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
            with ServeClient(port=proxy.port, request_timeout=5,
                             retries=0) as client:
                t0 = time.monotonic()
                with pytest.raises(ServeConnectionError) as excinfo:
                    client.query_batch(queries[:2])
                elapsed = time.monotonic() - t0
        assert "read timed out" not in str(excinfo.value)
        assert elapsed < 1.0, f"the reset took {elapsed:.2f}s to arrive"
    finally:
        daemon.request_stop()
        thread.join(timeout=10)


def test_idle_proxy_closes_at_once():
    """close() wakes the thread blocked in accept instead of waiting out
    its join, and the port stops taking connections."""
    with socket.create_server(("127.0.0.1", 0)) as upstream:
        proxy = ChaosProxy("127.0.0.1", upstream.getsockname()[1],
                           RpcChaosSchedule(seed=0))
        t0 = time.monotonic()
        proxy.close()
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"close() took {elapsed:.2f}s"
    assert not proxy._accept_thread.is_alive()
