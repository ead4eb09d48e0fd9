"""ServeDaemon: batching, admission control, graceful drain.

Most tests run the daemon against a stub database in a background
thread — the contract under test is the service layer (framing,
coalescing, backpressure, drain), not the engines.  One integration
test serves a real pool-backed sharded database end-to-end.
"""

import threading
import time

import pytest

from repro import ShardedSegmentDatabase
from repro.geometry.filtered import segment_fp
from repro.serving import ServeClient, ServeDaemon, ServeRejected
from repro.workloads import grid_segments, segment_queries
from tests.hostile import hostile_payloads


class EchoDB:
    """query_batch returns each query doubled; records batch sizes."""

    def __init__(self, delay_s=0.0, gate=None):
        self.batches = []
        self.delay_s = delay_s
        self.gate = gate

    def query_batch(self, queries):
        if self.gate is not None:
            self.gate.wait(timeout=10)
        if self.delay_s:
            time.sleep(self.delay_s)
        self.batches.append(len(queries))
        return [q * 2 for q in queries]


class FailingDB:
    def query_batch(self, queries):
        raise RuntimeError("engine exploded")


def _start(daemon):
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    assert daemon.ready.wait(timeout=10), "daemon never bound its port"
    return thread


def _stop(daemon, thread):
    daemon.request_stop()
    thread.join(timeout=10)
    assert not thread.is_alive(), "daemon failed to drain"
    return daemon.drain_report


def test_query_round_trip_and_drain_report():
    db = EchoDB()
    daemon = ServeDaemon(db)
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            assert client.ping()["ok"]
            assert client.query_batch([1, 2, 3]) == [2, 4, 6]
            assert client.query_batch([]) == []
            stats = client.stats()
            assert stats["metrics"]["serve.requests"]["value"] == 2
    finally:
        report = _stop(daemon, thread)
    assert report["drained"] is True
    assert report["requests"] == 2
    assert report["queries"] == 3
    assert report["batches"] == 1
    assert report["rejected"] == 0
    assert report["request_s"]["count"] == 1


def test_concurrent_requests_coalesce_into_batches():
    db = EchoDB(delay_s=0.01)
    daemon = ServeDaemon(db, max_batch=8, batch_window_s=0.05)
    thread = _start(daemon)
    results = {}

    def one(i):
        with ServeClient(port=daemon.port) as client:
            results[i] = client.query_batch([i, i + 100])

    try:
        clients = [threading.Thread(target=one, args=(i,)) for i in range(6)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=10)
    finally:
        report = _stop(daemon, thread)
    # Every client got exactly its own slice back, in order.
    for i in range(6):
        assert results[i] == [2 * i, 2 * (i + 100)], i
    # Coalescing happened: fewer engine batches than requests.
    assert report["batches"] < report["requests"] == 6
    assert sum(db.batches) == 12


def test_admission_control_rejects_past_max_pending():
    gate = threading.Event()
    db = EchoDB(gate=gate)
    daemon = ServeDaemon(db, max_pending=1, max_batch=1, batch_window_s=0.0)
    thread = _start(daemon)
    admitted = []

    def admitted_request(i):
        with ServeClient(port=daemon.port) as client:
            admitted.append(client.query_batch([i]))

    try:
        # First request: pulled by the batcher, blocked on the gate.
        # Second: sits in the queue (fills max_pending=1).
        blocked = [threading.Thread(target=admitted_request, args=(i,))
                   for i in range(2)]
        for t in blocked:
            t.start()
            time.sleep(0.15)
        # Third: the queue is full — immediate typed rejection.
        with ServeClient(port=daemon.port) as client:
            with pytest.raises(ServeRejected, match="overloaded"):
                client.query_batch([99])
        gate.set()
        for t in blocked:
            t.join(timeout=10)
    finally:
        gate.set()
        report = _stop(daemon, thread)
    assert sorted(admitted) == [[0], [2]]
    assert report["rejected"] == 1


def test_engine_failure_answers_instead_of_hanging():
    daemon = ServeDaemon(FailingDB())
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            with pytest.raises(ServeRejected, match="engine exploded"):
                client.query_batch([1])
            # The daemon survives the failure.
            assert client.ping()["ok"]
    finally:
        _stop(daemon, thread)


def test_malformed_frame_is_answered_not_fatal():
    daemon = ServeDaemon(EchoDB())
    thread = _start(daemon)
    try:
        import socket
        import struct
        with socket.create_connection(("127.0.0.1", daemon.port),
                                      timeout=10) as sock:
            junk = b"this is not a pickle"
            sock.sendall(struct.pack(">I", len(junk)) + junk)
            header = sock.recv(4)
            assert len(header) == 4
        # Daemon still serves afterwards.
        with ServeClient(port=daemon.port) as client:
            assert client.query_batch([5]) == [10]
    finally:
        _stop(daemon, thread)


def test_hostile_frame_is_a_bad_frame_and_never_runs(tmp_path):
    """A frame whose pickle reduces to ``builtins.eval`` is refused as a
    bad frame before anything runs, and the daemon keeps serving."""
    import socket
    import struct

    from repro.iosim import restricted_loads

    marker = tmp_path / "pwned"
    _name, evil = hostile_payloads(str(marker))["eval"]
    daemon = ServeDaemon(EchoDB())
    thread = _start(daemon)
    try:
        with socket.create_connection(("127.0.0.1", daemon.port),
                                      timeout=10) as sock, \
                sock.makefile("rb") as reply:
            sock.sendall(struct.pack(">I", len(evil)) + evil)
            (length,) = struct.unpack(">I", reply.read(4))
            response = restricted_loads(reply.read(length))
        assert response["error_type"] == "bad-frame"
        assert "forbidden global builtins.eval" in response["error"]
        assert not marker.exists(), "the hostile frame ran"
        with ServeClient(port=daemon.port) as client:
            assert client.ping()["ok"]
    finally:
        _stop(daemon, thread)


def test_drain_finishes_inflight_work():
    db = EchoDB(delay_s=0.2)
    daemon = ServeDaemon(db, batch_window_s=0.0)
    thread = _start(daemon)
    result = {}

    def slow_request():
        with ServeClient(port=daemon.port) as client:
            result["got"] = client.query_batch([7])

    t = threading.Thread(target=slow_request)
    t.start()
    time.sleep(0.05)           # request admitted, engine mid-flight
    report = _stop(daemon, thread)
    t.join(timeout=10)
    assert result["got"] == [14], "drain dropped an in-flight request"
    assert report["drained"] is True


def test_validation():
    with pytest.raises(ValueError):
        ServeDaemon(EchoDB(), max_pending=0)
    with pytest.raises(ValueError):
        ServeDaemon(EchoDB(), max_batch=0)
    with pytest.raises(ValueError):
        ServeDaemon(EchoDB(), batch_window_s=-1)


def test_serves_a_real_sharded_database(tmp_path):
    segments = grid_segments(240, seed=61)
    queries = list(segment_queries(segments, 12, seed=62))
    directory = str(tmp_path / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    with ShardedSegmentDatabase.open(directory, workers=0) as sync:
        expected = sync.query_batch(queries)
    served = ShardedSegmentDatabase.open(directory, workers=1,
                                         transport="shm")
    daemon = ServeDaemon(served)
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            got = client.query_batch(queries)
            stats = client.stats()
    finally:
        _stop(daemon, thread)
        served.close()
    assert [sorted(s.label for s in r) for r in got] == \
           [sorted(s.label for s in r) for r in expected]
    assert "latency" in stats  # the pool's phase decomposition rode along
    # Answers crossed two pickle hops (worker -> daemon -> client); the
    # float filter's coefficients must arrive intact, not recomputed or
    # dropped, so the client's fast path still works on them.
    answers = [s for r in got for s in r]
    assert answers
    for s in answers:
        assert s._fp == segment_fp(s.start.x, s.start.y, s.end.x, s.end.y)


class SlowDB:
    """query_batch stalls long enough to blow any small deadline."""

    def __init__(self, delay_s=0.5):
        self.delay_s = delay_s

    def query_batch(self, queries):
        time.sleep(self.delay_s)
        return [q for q in queries]


def test_deadline_expiry_is_a_typed_error_and_daemon_survives():
    daemon = ServeDaemon(SlowDB(delay_s=0.4), batch_window_s=0.0)
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            with pytest.raises(ServeRejected, match="deadline") as excinfo:
                client.query_batch([1, 2], timeout_ms=50)
            assert excinfo.value.error_type == "deadline"
            assert excinfo.value.retryable is False
            # The daemon is not poisoned by the expired request.
            assert client.ping()["ok"]
            assert client.query_batch([3], timeout_ms=5000) == [3]
    finally:
        report = _stop(daemon, thread)
    assert report["deadline_expired"] == 1


def test_bad_timeout_values_are_typed_bad_requests():
    daemon = ServeDaemon(EchoDB())
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            for bad in (-1, 0, "soon", True):
                response = client.request(
                    {"kind": "query", "queries": [1], "timeout_ms": bad})
                assert response["ok"] is False, bad
                assert response["error_type"] == "bad-request", bad
                assert response["retryable"] is False, bad
    finally:
        _stop(daemon, thread)


def test_error_frames_carry_type_and_retryability():
    daemon = ServeDaemon(EchoDB())
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            response = client.request({"kind": "no-such-kind"})
            assert response["error_type"] == "bad-request"
            assert response["retryable"] is False
            response = client.request(["not", "a", "dict"])
            assert response["error_type"] == "bad-request"
    finally:
        _stop(daemon, thread)


def test_overload_rejection_is_marked_retryable():
    gate = threading.Event()
    db = EchoDB(gate=gate)
    daemon = ServeDaemon(db, max_pending=1, max_batch=1, batch_window_s=0.0)
    thread = _start(daemon)
    try:
        def blocked_request(i):
            with ServeClient(port=daemon.port) as client:
                client.query_batch([i])

        blocked = [threading.Thread(target=blocked_request, args=(i,))
                   for i in range(2)]
        for t in blocked:
            t.start()
            time.sleep(0.15)
        with ServeClient(port=daemon.port) as client:
            with pytest.raises(ServeRejected) as excinfo:
                client.query_batch([99])
            assert excinfo.value.error_type == "overloaded"
            assert excinfo.value.retryable is True
        gate.set()
        for t in blocked:
            t.join(timeout=10)
    finally:
        gate.set()
        _stop(daemon, thread)


def test_health_frame_reports_daemon_and_db_state():
    daemon = ServeDaemon(EchoDB())
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            client.query_batch([1])
            health = client.health()
        for key in ("draining", "inflight", "pending", "max_pending",
                    "requests", "rejected", "deadline_expired",
                    "degraded_requests"):
            assert key in health, key
        assert health["draining"] is False
        assert health["requests"] >= 1
        assert "db" not in health  # EchoDB has no health_report
    finally:
        _stop(daemon, thread)


def test_drain_answers_every_request_of_a_coalesced_inflight_batch():
    """SIGTERM-style stop while several clients sit coalesced in ONE
    engine batch: every one of them still gets its exact slice back."""
    db = EchoDB(delay_s=0.3)
    daemon = ServeDaemon(db, max_batch=8, batch_window_s=0.15)
    thread = _start(daemon)
    results = {}

    def one(i):
        with ServeClient(port=daemon.port) as client:
            results[i] = client.query_batch([i, i + 10])

    clients = [threading.Thread(target=one, args=(i,)) for i in range(4)]
    for t in clients:
        t.start()
    time.sleep(0.05)            # all admitted, window still open
    report = _stop(daemon, thread)   # drain while the batch is in flight
    for t in clients:
        t.join(timeout=10)
    for i in range(4):
        assert results.get(i) == [2 * i, 2 * (i + 10)], i
    assert report["drained"] is True
    assert report["batches"] < report["requests"] == 4, \
        "the drain scenario must actually have coalesced"


def test_worker_death_mid_batch_serves_degraded_over_the_wire(tmp_path):
    """A worker SIGKILLed under the daemon: the client receives a typed
    DegradedBatch whose coverage map crossed the wire intact."""
    from repro.serving import RpcChaosSchedule, SupervisorPolicy

    segments = grid_segments(240, seed=63)
    queries = list(segment_queries(segments, 8, seed=64))
    directory = str(tmp_path / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    policy = SupervisorPolicy(max_retries=0, backoff_s=0.01)
    chaos = RpcChaosSchedule(seed=0, worker_kill_rate=1.0)
    with ShardedSegmentDatabase.open(directory, workers=2,
                                     supervisor=policy,
                                     chaos=chaos) as served:
        daemon = ServeDaemon(served)
        thread = _start(daemon)
        try:
            with ServeClient(port=daemon.port) as client:
                got = client.query_batch(queries)
                health = client.health()
        finally:
            report = _stop(daemon, thread)
    assert getattr(got, "degraded", False), "loss must be typed, not hidden"
    assert any(str(v).startswith("down") for v in got.shard_coverage.values())
    assert health["db"]["pool"]["failed_tasks"] > 0
    assert report["degraded_requests"] >= 1


def test_client_rejects_oversized_response_frames():
    import socket
    import struct

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def bogus_server():
        conn, _addr = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(struct.pack(">I", 1 << 31))  # absurd announcement

    server = threading.Thread(target=bogus_server, daemon=True)
    server.start()
    from repro.serving import ServeConnectionError
    try:
        with ServeClient(port=port, retries=0) as client:
            with pytest.raises(ServeConnectionError, match="wire damage"):
                client.ping()
    finally:
        listener.close()
        server.join(timeout=5)
