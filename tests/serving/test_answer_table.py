"""The by-reference answer frame: each item crosses a connection once.

A daemon sends an answer item in full the first time a connection needs
it and by index into the connection's answer table after that
(``serving/daemon.py``'s module docstring has the frame).  These tests
hold the table to the serving layer's contract: every answer equals the
in-process one — labels, endpoints and the float filter's ``_fp`` — on
a long-lived connection, across table resets, degraded answers and wire
faults; a frame that names an item the client does not hold is a typed
:class:`ServeConnectionError`, never an ``IndexError`` or a wrong
answer; and the next call starts both tables afresh.
"""

import logging
import pickle
import socket
import struct
import threading

import pytest

from repro import DegradedResult, ShardedSegmentDatabase
from repro.iosim import restricted_loads
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

#: A table cap small enough that the passes below reset it mid-stream.
SMALL_CAP = 24


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    segments = grid_segments(240, seed=81)
    queries = list(segment_queries(segments, 24, seed=82))
    directory = str(tmp_path_factory.mktemp("answer-table") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    expected = _exact(
        ShardedSegmentDatabase.open(directory).query_batch(queries))
    return directory, queries, expected


def _exact(results):
    """Every field an answer item carries, in answer order."""
    return [[(s.label, s.start.x, s.start.y, s.end.x, s.end.y, s._fp)
             for s in r] for r in results]


def _start(db):
    daemon = ServeDaemon(db)
    thread = threading.Thread(
        target=daemon.run, kwargs={"install_signal_handlers": False},
        daemon=True)
    thread.start()
    assert daemon.ready.wait(timeout=10), "daemon never bound its port"
    return daemon, thread


def _stop(daemon, thread):
    daemon.request_stop()
    thread.join(timeout=10)
    assert not thread.is_alive(), "daemon failed to drain"


@pytest.fixture
def frames(monkeypatch):
    """The answer frames clients decode, as the daemon sent them."""
    seen = []

    def recording_loads(payload):
        obj = restricted_loads(payload)
        if isinstance(obj, dict) and "answers" in obj:
            seen.append(obj)
        return obj

    monkeypatch.setattr(daemon_module, "restricted_loads", recording_loads)
    return seen


def _forge_first_answer(monkeypatch, forge):
    """Make the daemon's first answer frame pass through ``forge``."""
    encode = daemon_module._encode_frame
    pending = [forge]

    def forging_encode(obj):
        if pending and isinstance(obj, dict) and "answers" in obj:
            obj = pending.pop()(dict(obj))
        return encode(obj)

    monkeypatch.setattr(daemon_module, "_encode_frame", forging_encode)


def test_long_lived_connection_answers_exactly_across_table_resets(
        snapshot, frames, monkeypatch):
    directory, queries, expected = snapshot
    monkeypatch.setattr(daemon_module, "MAX_TABLE_ENTRIES", SMALL_CAP)
    daemon, thread = _start(ShardedSegmentDatabase.open(directory))
    try:
        with ServeClient(port=daemon.port) as client:
            for _ in range(3):
                for start in range(0, len(queries), 4):
                    got = client.query_batch(queries[start:start + 4])
                    assert _exact(got) == expected[start:start + 4]
                    # Under the cap before a frame, plus that frame's items.
                    assert len(client._received) < \
                        SMALL_CAP + len(frames[-1]["new"])
    finally:
        _stop(daemon, thread)
    assert sum(1 for f in frames if f.get("reset")) >= 1, \
        "the cap never reset the table"
    sent = sum(len(f["new"]) for f in frames)
    named = sum(len(refs) for f in frames for refs in f["answers"])
    assert sent < named, "no item was ever sent by reference"


def test_warmed_connection_sends_no_item_again(snapshot, frames):
    """A request repeated on one connection names only items it was sent
    before: its frame carries no new item, and the counters say so."""
    directory, queries, expected = snapshot
    daemon, thread = _start(ShardedSegmentDatabase.open(directory))
    try:
        with ServeClient(port=daemon.port) as client:
            assert _exact(client.query_batch(queries)) == expected
            before = client.stats()["metrics"]
            assert _exact(client.query_batch(queries)) == expected
            after = client.stats()["metrics"]
    finally:
        _stop(daemon, thread)
    first, again = frames
    assert first["new"] and again["new"] == []
    assert again["answers"] == first["answers"]
    items = sum(len(r) for r in expected)
    assert after["serve.items"]["value"] - before["serve.items"]["value"] \
        == items
    assert after["serve.items_sent"]["value"] \
        == before["serve.items_sent"]["value"] == len(first["new"])


class BulkyDB:
    """Answers query ``q`` with the first ``q`` of a fixed list of
    distinct 40-byte items, so one query can outgrow a small frame cap."""

    def __init__(self):
        self.items = [("item", f"{i:040d}") for i in range(200)]

    def query_batch(self, queries):
        return [self.items[:q] for q in queries]


def test_an_oversized_answer_is_a_bad_request_and_the_next_call_is_exact(
        monkeypatch, caplog):
    """An answer over ``MAX_FRAME_BYTES`` comes back as a non-retryable
    ``bad-request`` frame on a live connection, and the daemon forgets
    the items that answer would have sent: had it kept them, the next
    answer would name items the client never received."""
    monkeypatch.setattr(daemon_module, "MAX_FRAME_BYTES", 2048)
    items = BulkyDB().items
    daemon, thread = _start(BulkyDB())
    try:
        with caplog.at_level(logging.WARNING), \
                ServeClient(port=daemon.port, retries=0) as client:
            assert client.query_batch([5]) == [items[:5]]
            with pytest.raises(ServeRejected,
                               match="response too large") as info:
                client.query_batch([200])
            assert info.value.error_type == "bad-request"
            assert not info.value.retryable
            assert client.query_batch([10, 3]) == [items[:10], items[:3]]
            assert len(client._received) == 10
    finally:
        _stop(daemon, thread)
    assert not caplog.records, [r.getMessage() for r in caplog.records]


def test_rollback_forgets_new_items_and_undoes_a_reset(monkeypatch):
    monkeypatch.setattr(daemon_module, "MAX_TABLE_ENTRIES", 3)
    table = daemon_module._SentItems()
    a, b, c, d = ("a",), ("b",), ("c",), ("d",)
    table.encode([[a, b]])
    mark = table.mark()
    assert table.encode([[b, c]])["new"] == [c]
    table.rollback(mark)
    assert table.items == [a, b] and table.index == {id(a): 0, id(b): 1}
    table.encode([[c]])
    mark = table.mark()
    assert table.encode([[d]]).get("reset")  # the table was full
    table.rollback(mark)
    assert table.items == [a, b, c]
    assert table.index == {id(a): 0, id(b): 1, id(c): 2}


def _unsent(frame):
    frame["new"] = []
    return frame


def _negative(frame):
    frame["answers"] = [[-1]] + frame["answers"][1:]
    return frame


def _not_an_index(frame):
    frame["answers"] = [[0.0]] + frame["answers"][1:]
    return frame


def _not_a_list(frame):
    frame["new"] = "abc"
    return frame


def _short_degraded(frame):
    frame["answers"] = [([0], "reason")] + frame["answers"][1:]
    return frame


@pytest.mark.parametrize("forge", [_unsent, _negative, _not_an_index,
                                   _not_a_list, _short_degraded])
def test_a_bad_reference_is_a_connection_error_and_the_next_call_is_exact(
        snapshot, monkeypatch, forge):
    directory, queries, expected = snapshot
    _forge_first_answer(monkeypatch, forge)
    daemon, thread = _start(ShardedSegmentDatabase.open(directory))
    try:
        with ServeClient(port=daemon.port, retries=0) as client:
            with pytest.raises(ServeConnectionError,
                               match="malformed answer frame"):
                client.query_batch(queries)
            assert _exact(client.query_batch(queries)) == expected
    finally:
        _stop(daemon, thread)


def test_a_full_table_that_grows_without_a_reset_is_refused(
        snapshot, monkeypatch):
    """If a reset frame lost its mark, the client would resolve the
    daemon's fresh indices to the items it held before: it refuses the
    frame instead."""
    directory, queries, expected = snapshot
    monkeypatch.setattr(daemon_module, "MAX_TABLE_ENTRIES", SMALL_CAP)
    encode = daemon_module._encode_frame

    def unmarking_encode(obj):
        if isinstance(obj, dict):
            obj = {k: v for k, v in obj.items() if k != "reset"}
        return encode(obj)

    monkeypatch.setattr(daemon_module, "_encode_frame", unmarking_encode)
    daemon, thread = _start(ShardedSegmentDatabase.open(directory))
    try:
        with ServeClient(port=daemon.port, retries=0) as client:
            assert _exact(client.query_batch(queries)) == expected
            assert len(client._received) >= SMALL_CAP
            with pytest.raises(ServeConnectionError,
                               match="without a reset"):
                client.query_batch(queries)
            assert _exact(client.query_batch(queries)) == expected
    finally:
        _stop(daemon, thread)


class MixedDB:
    """Answers query ``q`` with the items ``0..q``: odd queries degraded,
    even ones healthy, so answers in one frame share items."""

    def __init__(self):
        self.items = [("item", i) for i in range(8)]

    def query_batch(self, queries):
        out = []
        for q in queries:
            answer = self.items[:q + 1]
            out.append(DegradedResult(answer, reason=f"shard {q} is down",
                                      source=f"fallback-{q}")
                       if q % 2 else answer)
        return out


def test_degraded_answers_keep_their_marks_by_reference(frames):
    daemon, thread = _start(MixedDB())
    items = MixedDB().items
    try:
        with ServeClient(port=daemon.port) as client:
            for _ in range(2):
                got = client.query_batch(list(range(8)))
                for q, result in enumerate(got):
                    assert result == items[:q + 1]
                    assert getattr(result, "degraded", False) == bool(q % 2)
                    if q % 2:
                        assert type(result) is DegradedResult
                        assert result.reason == f"shard {q} is down"
                        assert result.source == f"fallback-{q}"
                    else:
                        assert type(result) is list
    finally:
        _stop(daemon, thread)
    assert [len(f["new"]) for f in frames] == [8, 0]


def test_wire_faults_reset_both_tables_and_retried_answers_are_exact(
        snapshot, monkeypatch):
    """Corrupt, truncated and reset frames break the conversation; the
    retry starts both tables afresh, so every answer that comes back is
    exact, over passes long enough to reset the table too."""
    directory, queries, expected = snapshot
    monkeypatch.setattr(daemon_module, "MAX_TABLE_ENTRIES", SMALL_CAP)
    daemon, thread = _start(ShardedSegmentDatabase.open(directory))
    schedule = RpcChaosSchedule(seed=7, frame_corrupt_rate=0.15,
                                frame_truncate_rate=0.1,
                                conn_reset_rate=0.1)
    answered = 0
    try:
        with ChaosProxy("127.0.0.1", daemon.port, schedule) as proxy, \
                ServeClient(port=proxy.port, request_timeout=10,
                            retries=8, retry_backoff_s=0.001,
                            seed=7) as client:
            for _ in range(4):
                for start in range(0, len(queries), 4):
                    try:
                        got = client.query_batch(queries[start:start + 4])
                    except (ServeRejected, ServeConnectionError):
                        continue  # a typed failure is allowed
                    assert _exact(got) == expected[start:start + 4], \
                        schedule.history
                    answered += 1
    finally:
        _stop(daemon, thread)
    kinds = {e["kind"] for e in schedule.history}
    assert {"frame-corrupt", "frame-truncate", "frame-reset"} <= kinds, kinds
    assert answered >= 20


def test_a_pickled_degraded_result_is_refused_on_the_wire():
    """Degraded answers cross as ``(indices, reason, source)``, so the
    allowlist no longer admits the class: a frame that pickles one is
    refused in both directions."""
    evil = pickle.dumps(DegradedResult([1], reason="r"),
                        protocol=pickle.HIGHEST_PROTOCOL)
    with pytest.raises(pickle.UnpicklingError,
                       match="forbidden global "
                             "repro.core.recovery.DegradedResult"):
        restricted_loads(evil)

    daemon, thread = _start(MixedDB())
    try:
        with socket.create_connection(("127.0.0.1", daemon.port),
                                      timeout=10) as sock, \
                sock.makefile("rb") as reply:
            sock.sendall(struct.pack(">I", len(evil)) + evil)
            (length,) = struct.unpack(">I", reply.read(4))
            response = restricted_loads(reply.read(length))
        assert response["error_type"] == "bad-frame"
        assert "DegradedResult" in response["error"]
    finally:
        _stop(daemon, thread)

    listener = socket.create_server(("127.0.0.1", 0))

    def degraded_server():
        conn, _addr = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(struct.pack(">I", len(evil)) + evil)

    server = threading.Thread(target=degraded_server, daemon=True)
    server.start()
    try:
        with ServeClient(port=listener.getsockname()[1]) as client:
            with pytest.raises(ServeConnectionError,
                               match="forbidden global"):
                client.query_batch([1])
    finally:
        listener.close()
        server.join(timeout=5)
    assert not server.is_alive()
