"""ServeDaemon: batching, admission control, graceful drain.

Most tests run the daemon against a stub database in a background
thread — the contract under test is the service layer (framing,
coalescing, backpressure, drain), not the engines.  One integration
test serves a real sharded database end-to-end.
"""

import os
import threading
import time

import pytest

from repro import ShardedSegmentDatabase
from repro.geometry.filtered import segment_fp
from repro.serving import ServeClient, ServeDaemon, ServeRejected
from repro.workloads import grid_segments, segment_queries
from tests.hostile import hostile_payloads


class EchoDB:
    """query_batch answers each query with a one-item list of it doubled;
    records batch sizes.

    With ``gate``, every batch waits for it: requests sent while the
    first batch is held queue up, and coalesce into the next batch.
    ``entered`` is set once a batch has started.
    """

    def __init__(self, delay_s=0.0, gate=None):
        self.batches = []
        self.delay_s = delay_s
        self.gate = gate
        self.entered = threading.Event()

    def query_batch(self, queries):
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=10)
        if self.delay_s:
            time.sleep(self.delay_s)
        self.batches.append(len(queries))
        return [[q * 2] for q in queries]


class FailingDB:
    def query_batch(self, queries):
        raise RuntimeError("engine exploded")


class IntsOnlyDB(EchoDB):
    """An EchoDB whose batch fails whole on any query that is not an int,
    as a real engine fails on a query that is not a VerticalQuery."""

    def query_batch(self, queries):
        bad = [q for q in queries if not isinstance(q, int)]
        if bad:
            raise TypeError(f"not a query: {bad[0]!r}")
        return super().query_batch(queries)


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


def _hold_first_batch(daemon, db, send, behind):
    """Start ``send(0)``, wait until its batch holds on ``db.gate``, then
    start ``send(i)`` for each ``i`` in ``behind`` and wait until all of
    them queue behind it.  Returns the started threads."""
    threads = [threading.Thread(target=send, args=(0,))]
    threads[0].start()
    assert db.entered.wait(timeout=10), "the first batch never started"
    for i in behind:
        threads.append(threading.Thread(target=send, args=(i,)))
        threads[-1].start()
    with ServeClient(port=daemon.port) as probe:
        deadline = time.monotonic() + 10
        while probe.health()["pending"] < len(behind):
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.01)
    return threads


def test_query_round_trip_and_drain_report():
    db = EchoDB()
    daemon = ServeDaemon(db)
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            assert client.ping()["ok"]
            assert client.query_batch([1, 2, 3]) == [[2], [4], [6]]
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
    """Requests that arrive while a batch runs coalesce into the next."""
    gate = threading.Event()
    db = EchoDB(gate=gate)
    daemon = ServeDaemon(db, max_batch=8)
    thread = _start(daemon)
    results = {}

    def one(i):
        with ServeClient(port=daemon.port) as client:
            results[i] = client.query_batch([i, i + 100])

    try:
        clients = _hold_first_batch(daemon, db, one, range(1, 6))
        gate.set()
        for t in clients:
            t.join(timeout=10)
    finally:
        gate.set()
        report = _stop(daemon, thread)
    # Every client got exactly its own slice back, in order.
    for i in range(6):
        assert results[i] == [[2 * i], [2 * (i + 100)]], i
    # Coalescing happened: fewer engine batches than requests.
    assert report["batches"] < report["requests"] == 6
    assert db.batches == [2, 10]


def test_lone_request_is_not_held_back():
    """Nothing waits for stragglers: a lone request spends about its
    batch's time in the daemon, not that plus a coalescing window."""
    daemon = ServeDaemon(EchoDB())
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            for i in range(50):
                assert client.query_batch([i]) == [[2 * i]]
            metrics = client.stats()["metrics"]
    finally:
        _stop(daemon, thread)
    request, batch = metrics["serve.request_s"], metrics["serve.batch_s"]
    assert request["count"] == batch["count"] == 50
    wait_ms = (request["mean"] - batch["mean"]) * 1e3
    assert wait_ms < 1.0, f"a lone request waited {wait_ms:.2f} ms"


def test_admission_control_rejects_past_max_pending():
    gate = threading.Event()
    db = EchoDB(gate=gate)
    daemon = ServeDaemon(db, max_pending=1, max_batch=1)
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
    assert sorted(admitted) == [[[0]], [[2]]]
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
            assert client.query_batch([5]) == [[10]]
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
    daemon = ServeDaemon(db)
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
    assert result["got"] == [[14]], "drain dropped an in-flight request"
    assert report["drained"] is True


def test_validation():
    with pytest.raises(ValueError):
        ServeDaemon(EchoDB(), max_pending=0)
    with pytest.raises(ValueError):
        ServeDaemon(EchoDB(), max_batch=0)


def test_serves_a_real_sharded_database(tmp_path):
    segments = grid_segments(240, seed=61)
    queries = list(segment_queries(segments, 12, seed=62))
    directory = str(tmp_path / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    expected = ShardedSegmentDatabase.open(directory).query_batch(queries)
    daemon = ServeDaemon(ShardedSegmentDatabase.open(directory))
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            got = client.query_batch(queries)
            stats = client.stats()
    finally:
        _stop(daemon, thread)
    assert [sorted(s.label for s in r) for r in got] == \
           [sorted(s.label for s in r) for r in expected]
    assert stats["latency"]["tasks"] >= 1  # the shard timing rode along
    # Answers crossed a pickle hop (daemon -> client); the float
    # filter's coefficients must arrive intact, not recomputed or
    # dropped, so the client's fast path still works on them.
    answers = [s for r in got for s in r]
    assert answers
    for s in answers:
        assert s._fp == segment_fp(s.start.x, s.start.y, s.end.x, s.end.y)


def test_degraded_answer_of_a_quarantined_index_crosses_the_wire():
    """A quarantined index answers from its scan fallback; the typed
    DegradedResult reaches the client intact, exact and marked, on the
    first pass and on the passes that send its segments by reference."""
    from repro import FaultSchedule, SegmentDatabase

    segments = grid_segments(240, seed=65)
    queries = list(segment_queries(segments, 8, seed=66))
    db = SegmentDatabase.bulk_load(segments, block_capacity=16,
                                   faults=FaultSchedule(seed=0))
    expected = [sorted(s.label for s in r) for r in db.query_batch(queries)]
    db._quarantine("damaged for the test")
    daemon = ServeDaemon(db)
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            passes = [client.query_batch(queries) for _ in range(3)]
    finally:
        _stop(daemon, thread)
    for got in passes:
        assert [sorted(s.label for s in r) for r in got] == expected
        assert all(getattr(r, "degraded", False) for r in got)
        assert all(r.reason == "damaged for the test" for r in got)
        assert all(r.source == "scan-fallback" for r in got)


class SlowDB:
    """query_batch stalls long enough to blow any small deadline."""

    def __init__(self, delay_s=0.5):
        self.delay_s = delay_s

    def query_batch(self, queries):
        time.sleep(self.delay_s)
        return [[q] for q in queries]


def test_deadline_expiry_is_a_typed_error_and_daemon_survives():
    daemon = ServeDaemon(SlowDB(delay_s=0.4))
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            with pytest.raises(ServeRejected, match="deadline") as excinfo:
                client.query_batch([1, 2], timeout_ms=50)
            assert excinfo.value.error_type == "deadline"
            assert excinfo.value.retryable is False
            # The daemon is not poisoned by the expired request.
            assert client.ping()["ok"]
            assert client.query_batch([3], timeout_ms=5000) == [[3]]
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
    daemon = ServeDaemon(db, max_pending=1, max_batch=1)
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
        for key in ("pid", "draining", "inflight", "pending", "max_pending",
                    "requests", "rejected", "deadline_expired"):
            assert key in health, key
        assert health["pid"] == os.getpid()
        assert health["draining"] is False
        assert health["requests"] >= 1
        assert "db" not in health  # EchoDB has no health_report
    finally:
        _stop(daemon, thread)


def test_drain_answers_every_request_of_a_coalesced_inflight_batch():
    """A stop while one batch runs and several requests sit queued behind
    it: the drain runs them as one coalesced batch, and every client
    still gets its exact slice back."""
    gate = threading.Event()
    db = EchoDB(gate=gate)
    daemon = ServeDaemon(db, max_batch=8)
    thread = _start(daemon)
    results = {}

    def one(i):
        with ServeClient(port=daemon.port) as client:
            results[i] = client.query_batch([i, i + 10])

    try:
        clients = _hold_first_batch(daemon, db, one, range(1, 4))
        daemon.request_stop()
        deadline = time.monotonic() + 10
        while not daemon._draining:
            assert time.monotonic() < deadline, "the stop never arrived"
            time.sleep(0.01)
    finally:
        gate.set()
    report = _stop(daemon, thread)
    for t in clients:
        t.join(timeout=10)
    for i in range(4):
        assert results.get(i) == [[2 * i], [2 * (i + 10)]], i
    assert report["drained"] is True
    assert report["batches"] < report["requests"] == 4, \
        "the drain scenario must actually have coalesced"


def test_queries_that_are_not_a_list_are_a_bad_request():
    daemon = ServeDaemon(EchoDB())
    thread = _start(daemon)
    try:
        with ServeClient(port=daemon.port) as client:
            response = client.request({"kind": "query", "queries": 5})
            assert response["ok"] is False
            assert response["error_type"] == "bad-request"
            assert "queries must be a list" in response["error"]
            assert client.query_batch([4]) == [[8]]
    finally:
        _stop(daemon, thread)


def test_a_malformed_request_fails_alone_in_a_coalesced_batch():
    """A request the engine cannot run, coalesced with well-formed ones:
    only it gets the ``internal`` error; the others get their answers."""
    gate = threading.Event()
    db = IntsOnlyDB(gate=gate)
    daemon = ServeDaemon(db, max_batch=8)
    thread = _start(daemon)
    requests = {0: [0], 1: list(range(1, 9)), 2: ["bad", "worse"]}
    results = {}

    def one(i):
        with ServeClient(port=daemon.port) as client:
            try:
                results[i] = client.query_batch(requests[i])
            except ServeRejected as exc:
                results[i] = exc

    try:
        clients = _hold_first_batch(daemon, db, one, (1, 2))
        gate.set()
        for t in clients:
            t.join(timeout=10)
    finally:
        gate.set()
        report = _stop(daemon, thread)
    assert results[0] == [[0]]
    assert results[1] == [[2 * q] for q in range(1, 9)]
    assert isinstance(results[2], ServeRejected)
    assert results[2].error_type == "internal"
    assert "not a query: 'bad'" in str(results[2])
    assert report["batches"] == 2, "the two requests must have coalesced"


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
