"""``repro serve DIR --workers 2``: the pre-forked topology, end to end.

Every test runs the real CLI as a subprocess over a small snapshot and
checks what only this topology can get wrong: which process answers a
connection, the combined drain report, the replacement of a killed or
stopped child, children outliving a killed parent, a snapshot that
cannot be opened (at start, and by a replacement), a replacement killed
before it is ready, the parent's own listening sockets, and the flags of
the worker pool this topology replaced.
"""

import math
import os
import select
import shutil
import signal
import socket
import subprocess
import threading
import time

import pytest

from repro import ShardedSegmentDatabase
from repro.serving import ServeClient
from repro.serving.prefork import MAX_UNREADY_KILLS, SUMMED
from repro.workloads import grid_segments, segment_queries

from .forked import (
    BANNER_TIMEOUT_S,
    EXIT_TIMEOUT_S,
    alive,
    blocked_in_fifo_open,
    damage,
    labels,
    live_children,
    maps_shm,
    serve_cmd,
    serve_env,
)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A 2-shard snapshot, a query list and its in-process answers."""
    segments = grid_segments(600, seed=71)
    directory = str(tmp_path_factory.mktemp("forked") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    queries = list(segment_queries(segments, 40, seed=72))
    expected = labels(
        ShardedSegmentDatabase.open(directory).query_batch(queries))
    return directory, queries, expected


def test_concurrent_connections_land_on_different_processes(serve,
                                                            snapshot):
    directory, queries, expected = snapshot
    daemon = serve(directory)
    assert daemon.banner["workers"] == 2
    assert "transport" not in daemon.banner
    with ServeClient(port=daemon.port) as a, \
            ServeClient(port=daemon.port) as b:
        pids = [a.health()["pid"], b.health()["pid"]]
        assert sorted(pids) == sorted(daemon.children)
        assert labels(a.query_batch(queries)) == expected
        assert labels(b.query_batch(queries)) == expected
    # No process of the topology maps a shared-memory segment.
    for pid in [daemon.proc.pid, *daemon.children]:
        assert maps_shm(pid) == [], pid
    report = daemon.stop()
    assert report["drained"] is True
    assert sorted(w["pid"] for w in report["workers"]) == \
        sorted(daemon.children)
    assert report["queries"] == 2 * len(queries)


def test_sigterm_answers_inflight_requests_on_both_children(serve,
                                                            snapshot):
    directory, queries, expected = snapshot
    daemon = serve(directory)
    clients = [ServeClient(port=daemon.port, request_timeout=120)
               for _ in range(2)]
    answers, answered_at = {}, {}

    def ask(i):
        answers[i] = clients[i].query_batch(big)
        answered_at[i] = time.monotonic()

    try:
        assert len({c.health()["pid"] for c in clients}) == 2
        # Size the requests by the host's speed, so that SIGTERM
        # lands inside them however fast it runs: each takes about two
        # seconds, and the stop comes a quarter of the way in.
        for client in clients:
            client.query_batch(queries)
        t0 = time.monotonic()
        clients[0].query_batch(queries * 50)
        copy_s = (time.monotonic() - t0) / 50
        copies = max(50, math.ceil(2.0 / copy_s))
        big = queries * copies
        threads = [threading.Thread(target=ask, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        time.sleep(copies * copy_s / 4)
        stopped_at = time.monotonic()
        report = daemon.stop()
        for t in threads:
            t.join(timeout=EXIT_TIMEOUT_S)
            assert not t.is_alive()
    finally:
        for client in clients:
            client.close()
    for i in (0, 1):
        assert answered_at[i] > stopped_at, "request was not in flight"
        assert labels(answers[i]) == expected * copies
    assert report["drained"] is True
    assert len(report["workers"]) == 2
    for key in SUMMED:
        assert report[key] == sum(w[key] for w in report["workers"]), key
    assert report["requests"] == 5
    assert report["queries"] == 2 * len(big) + 2 * len(queries) + 50 * len(
        queries)


def test_sigkill_of_a_child_is_replaced_and_clients_retry(serve, snapshot):
    """The absolute recovery bound: from SIGKILL of the child serving a
    connection to the next exact answer on it, under 5 s."""
    directory, queries, expected = snapshot
    daemon = serve(directory)
    with ServeClient(port=daemon.port, retries=2) as client:
        assert labels(client.query_batch(queries)) == expected
        victim = client.health()["pid"]
        os.kill(victim, signal.SIGKILL)
        killed_at = time.monotonic()
        assert labels(client.query_batch(queries)) == expected
        recovery_s = time.monotonic() - killed_at
        print(f"SIGKILL of a child to the next answer: "
              f"{recovery_s * 1e3:.0f} ms")
        assert recovery_s < 5.0
        now = daemon.replaced(victim)
        assert now != set(daemon.children) and len(now) == 2
        for _ in range(4):
            assert labels(client.query_batch(queries)) == expected
    report = daemon.stop()
    assert report["drained"] is True
    assert sorted(w["pid"] for w in report["workers"]) == sorted(now)


def test_sigterm_of_one_child_is_replaced_and_its_report_kept(serve,
                                                              snapshot):
    directory, queries, expected = snapshot
    daemon = serve(directory)
    with ServeClient(port=daemon.port, retries=2) as client:
        assert labels(client.query_batch(queries)) == expected
        victim = client.health()["pid"]
        os.kill(victim, signal.SIGTERM)
        now = daemon.replaced(victim)
        assert labels(client.query_batch(queries)) == expected
    report = daemon.stop()
    assert report["drained"] is True
    # The stopped child drained on its own; its report still counts.
    assert sorted(w["pid"] for w in report["workers"]) == \
        sorted(now | {victim})
    for key in SUMMED:
        assert report[key] == sum(w[key] for w in report["workers"]), key
    assert report["queries"] == 2 * len(queries)


def _wait_stderr(daemon, text):
    """The first stderr line of the server that contains ``text``."""
    deadline = time.monotonic() + BANNER_TIMEOUT_S
    line = ""
    while text not in line:
        ready, _, _ = select.select([daemon.proc.stderr], [], [],
                                    max(deadline - time.monotonic(), 0.0))
        assert ready, f"no {text!r} on stderr"
        line = daemon.proc.stderr.readline()
        assert line, "the server exited"
    return line


def test_replacement_that_cannot_open_leaves_the_others_serving(
        serve, snapshot, tmp_path):
    directory, queries, expected = snapshot
    copy = str(tmp_path / "snap")
    shutil.copytree(directory, copy)
    daemon = serve(copy)
    # The children read every shard at start; a file swapped afterwards
    # only reaches a replacement.
    damage(os.path.join(copy, "shard-000.snap"))
    victim, survivor = daemon.children
    os.kill(victim, signal.SIGKILL)
    line = _wait_stderr(daemon, "still serving with 1 of 2 processes")
    assert "SnapshotFormatError" in line
    assert live_children(daemon.proc.pid) == {survivor}
    with ServeClient(port=daemon.port) as client:
        assert client.health()["pid"] == survivor
        assert labels(client.query_batch(queries)) == expected
    report = daemon.stop()
    assert report["drained"] is True
    assert [w["pid"] for w in report["workers"]] == [survivor]


def _fifo_in_place_of(path):
    """Move ``path`` aside and put a FIFO there: a child opening it
    blocks, since nothing ever writes."""
    os.replace(path, path + ".real")
    os.mkfifo(path)


def test_replacement_killed_before_ready_is_replaced(serve, snapshot,
                                                     tmp_path):
    """A replacement that a signal kills while it opens the shards has
    not shown the snapshot to be bad: it is replaced in turn, and the
    server gets back to N serving processes."""
    directory, queries, expected = snapshot
    copy = str(tmp_path / "snap")
    shutil.copytree(directory, copy)
    daemon = serve(copy)
    shard = os.path.join(copy, "shard-000.snap")
    _fifo_in_place_of(shard)
    victim, survivor = daemon.children
    os.kill(victim, signal.SIGKILL)
    blocked = blocked_in_fifo_open(daemon.proc.pid, daemon.children)
    os.replace(shard + ".real", shard)  # the next child opens the file
    os.kill(blocked, signal.SIGKILL)
    now = daemon.replaced(victim, blocked)
    assert survivor in now
    # Connections go only to ready children, in turn: once the
    # replacement is ready, new connections reach both.
    deadline = time.monotonic() + BANNER_TIMEOUT_S
    seen = set()
    while seen != now:
        assert time.monotonic() < deadline, "the replacement never served"
        with ServeClient(port=daemon.port) as client:
            seen.add(client.health()["pid"])
            assert labels(client.query_batch(queries)) == expected
    report = daemon.stop()
    assert report["drained"] is True
    assert sorted(w["pid"] for w in report["workers"]) == sorted(now)
    assert "before it was ready" not in daemon.stderr


def test_children_killed_before_ready_are_replaced_a_bounded_number_of_times(
        serve, snapshot, tmp_path):
    directory, queries, expected = snapshot
    copy = str(tmp_path / "snap")
    shutil.copytree(directory, copy)
    daemon = serve(copy)
    _fifo_in_place_of(os.path.join(copy, "shard-000.snap"))
    victim, survivor = daemon.children
    os.kill(victim, signal.SIGKILL)
    known = {victim, survivor}
    for _ in range(MAX_UNREADY_KILLS + 1):
        blocked = blocked_in_fifo_open(daemon.proc.pid, known)
        known.add(blocked)
        os.kill(blocked, signal.SIGKILL)
    line = _wait_stderr(daemon, "still serving with 1 of 2 processes")
    assert (f"killed by signal {signal.SIGKILL.value} "
            f"({MAX_UNREADY_KILLS + 1} in a row)") in line
    assert live_children(daemon.proc.pid) == {survivor}
    with ServeClient(port=daemon.port) as client:
        assert client.health()["pid"] == survivor
        assert labels(client.query_batch(queries)) == expected
    report = daemon.stop()
    assert report["drained"] is True
    assert [w["pid"] for w in report["workers"]] == [survivor]


def test_sigkill_of_the_parent_ends_every_child(serve, snapshot):
    directory, _queries, _expected = snapshot
    daemon = serve(directory)
    with ServeClient(port=daemon.port) as a, \
            ServeClient(port=daemon.port) as b:
        # Both children hold an idle connection when the parent dies.
        assert {a.ping()["ok"], b.ping()["ok"]} == {True}
        daemon.proc.kill()
        deadline = time.monotonic() + 10.0
        while any(alive(pid) for pid in daemon.children):
            assert time.monotonic() < deadline, "a child outlived its parent"
            time.sleep(0.05)
    ready, _, _ = select.select([daemon.proc.stdout], [], [],
                                max(deadline - time.monotonic(), 0.0))
    assert ready, "a process still holds the daemon's stdout"
    assert daemon.proc.stdout.read() == ""


def test_corrupt_shard_fails_start_without_banner(snapshot, tmp_path):
    directory, _queries, _expected = snapshot
    damaged = str(tmp_path / "damaged")
    shutil.copytree(directory, damaged)
    damage(os.path.join(damaged, "shard-000.snap"))
    proc = subprocess.run(serve_cmd(damaged), capture_output=True,
                          env=serve_env(), text=True, timeout=EXIT_TIMEOUT_S)
    assert proc.returncode != 0
    assert "SnapshotFormatError" in proc.stderr
    assert proc.stdout == ""
    left = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if damaged.encode() in fh.read() and alive(int(entry)):
                    left.append(int(entry))
        except (OSError, ValueError):
            continue
    assert left == []


def test_ipv6_host_is_served(serve, snapshot):
    if not socket.has_ipv6:
        pytest.skip("no IPv6")
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        pytest.skip("no IPv6 loopback")
    directory, queries, expected = snapshot
    daemon = serve(directory, "--host", "::1")
    with ServeClient(host="::1", port=daemon.port) as client:
        assert labels(client.query_batch(queries)) == expected
    assert daemon.stop()["drained"] is True


def test_unbindable_port_is_a_usage_error(snapshot):
    directory, _queries, _expected = snapshot
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        proc = subprocess.run(
            serve_cmd(directory, "--port", str(port)), capture_output=True,
            env=serve_env(), text=True, timeout=EXIT_TIMEOUT_S)
    assert proc.returncode == 2
    assert f"cannot listen on 127.0.0.1 port {port}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flag,value", [
    ("--transport", "pickle"), ("--cache-pages", "8"), ("--window-ms", "2"),
    ("--kill-rate", "0.1"), ("--max-kills", "1")])
def test_worker_pool_flags_are_unknown(snapshot, flag, value):
    directory, _queries, _expected = snapshot
    proc = subprocess.run(serve_cmd(directory, flag, value),
                          capture_output=True, env=serve_env(), text=True,
                          timeout=EXIT_TIMEOUT_S)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {flag} {value}" in proc.stderr
    assert proc.stdout == ""
