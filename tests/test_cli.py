"""Tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import main
from repro.workloads import grid_segments
from repro.workloads.files import dump


@pytest.fixture
def segment_file(tmp_path):
    path = str(tmp_path / "segments.tsv")
    dump(grid_segments(25, seed=1), path)
    return path


def test_no_command_prints_usage(capsys):
    assert main([]) == 2
    assert "demo" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, command, extra", [
    (["query", "{file}", "5", "--workers", "2"], "query", "--workers"),
    (["engines", "--bogus"], "engines", "--bogus"),
    (["demo", "extra"], "demo", "extra"),
    (["version", "--json"], "version", "--json"),
    (["query", "{file}", "5", "--eng", "scan"], "query", "--eng"),
])
def test_command_refuses_flags_it_does_not_read(segment_file, capsys, argv,
                                                command, extra):
    argv = [a.format(file=segment_file) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage: python -m repro {command}" in captured.err
    assert f"unrecognized arguments: {extra}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["query", "{file}", "5", "--engine", "nope"],
     "invalid choice: 'nope' (choose from 'solution1', 'solution2'"),
    (["fsck", "--block", "x"], "argument --block: invalid int value: 'x'"),
    (["query", "{file}", "5", "0"], "YLO needs YHI"),
    (["serve", "--workers", "-1"], "argument --workers"),
    (["serve-client", "--port", "0"], "argument --port"),
    (["health", "--port", "0"], "argument --port"),
])
def test_bad_flag_values_are_usage_errors(segment_file, capsys, argv,
                                          message):
    assert main([a.format(file=segment_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("coordinates, name", [
    (["1/0"], "X"),
    (["5", "-3/0", "4"], "YLO"),
    (["5", "-3", "4/0"], "YHI"),
])
def test_zero_denominator_is_a_usage_error(segment_file, capsys,
                                           coordinates, name):
    assert main(["query", segment_file, *coordinates]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: python -m repro query" in captured.err
    assert f"argument {name}: zero denominator in" in captured.err


def test_help(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--exact-only" in out and "serve-client" in out
    assert main(["query", "--help"]) == 0
    out = capsys.readouterr().out
    assert "usage: python -m repro query" in out
    assert "--engine" in out and "--buffer" in out


def test_negative_coordinates_are_values(segment_file, capsys):
    assert main(["query", segment_file, "-7/2"]) == 0
    assert main(["query", segment_file, "25", "-3", "4"]) == 0
    assert "segments;" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["engines", "--exact-only"],
    ["--exact-only", "engines"],
])
def test_exact_only_before_or_after_command(monkeypatch, argv):
    import repro.__main__ as cli
    from repro.geometry import exact_only_enabled

    monkeypatch.setattr("repro.geometry.filtered._exact_only", False)
    seen = []
    monkeypatch.setattr(cli, "cmd_engines",
                        lambda *_: seen.append(exact_only_enabled()) or 0)
    assert main(argv) == 0
    assert seen == [True]


def test_main_restores_exact_only(monkeypatch, capsys):
    from repro.geometry import exact_only_enabled

    monkeypatch.setattr("repro.geometry.filtered._exact_only", False)
    for argv, code in ((["engines", "--exact-only"], 0),
                       (["--exact-only", "engines", "--bogus"], 2),
                       (["--exact-only", "--help"], 0)):
        assert main(argv) == code
        assert exact_only_enabled() is False, argv
    monkeypatch.setattr("repro.geometry.filtered._exact_only", True)
    assert main(["engines"]) == 0
    assert exact_only_enabled() is True


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "VS query" in out
    assert "river" in out


def test_engines(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "solution1" in out and "solution2" in out


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip()


def test_validate_ok(segment_file, capsys):
    assert main(["validate", segment_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_crossing(tmp_path, capsys):
    path = str(tmp_path / "bad.tsv")
    with open(path, "w") as fh:
        fh.write("0 0 2 2 a\n0 2 2 0 b\n")
    assert main(["validate", path]) == 1
    assert "NOT NCT" in capsys.readouterr().err


def test_query_line(segment_file, capsys):
    assert main(["query", segment_file, "150"]) == 0
    err = capsys.readouterr().err
    assert "block" in err


def test_query_window(segment_file, capsys):
    assert main(["query", segment_file, "150", "0", "500"]) == 0


def test_query_bad_args(capsys):
    assert main(["query", "only-one-arg"]) == 2


def test_query_rational_coordinate(segment_file):
    assert main(["query", segment_file, "301/2"]) == 0


def test_query_with_buffer_reports_hit_rate(segment_file, capsys):
    assert main(["query", segment_file, "150", "--buffer", "8"]) == 0
    assert "buffer hit rate" in capsys.readouterr().err


def test_query_unknown_flag(segment_file, capsys):
    assert main(["query", segment_file, "150", "--frobnicate"]) == 2


def test_query_batch(segment_file, capsys):
    assert main(["query-batch", segment_file, "--count", "16",
                 "--batch-size", "4"]) == 0
    out = capsys.readouterr().out
    assert "batch size 4" in out
    assert "sequential:" in out and "batched:" in out


def test_query_batch_json(segment_file, capsys):
    import json

    assert main(["query-batch", segment_file, "--count", "12", "--seed", "3",
                 "--engine", "solution1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["engine"] == "solution1"
    assert data["queries"] == 12
    assert data["batch_size"] == 12  # defaults to the whole workload
    assert data["batched_ios"] <= data["sequential_ios"]


def test_query_batch_with_buffer_reports_hit_rate(segment_file, capsys):
    assert main(["query-batch", segment_file, "--count", "8",
                 "--buffer", "8"]) == 0
    assert "buffer hit rate" in capsys.readouterr().out


def test_query_batch_bad_args(capsys):
    assert main(["query-batch"]) == 2
    assert "usage" in capsys.readouterr().err


def test_explain_markdown(segment_file, capsys):
    assert main(["explain", segment_file, "150", "0", "500"]) == 0
    out = capsys.readouterr().out
    assert "EXPLAIN" in out
    assert "balanced" in out
    assert "| phase |" in out


def test_explain_json(segment_file, capsys):
    import json

    assert main(["explain", segment_file, "150", "--json",
                 "--engine", "solution1", "--buffer", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["engine"] == "solution1"
    assert data["balanced"] is True
    assert data["buffer"]["hits"] + data["buffer"]["misses"] >= 0
    assert sum(p["total"] for p in data["phases"].values()) == data["io_total"]


def test_explain_every_engine(segment_file, capsys):
    from repro import ENGINES

    for engine in ENGINES:
        assert main(["explain", segment_file, "150", "--engine", engine]) == 0
        assert "UNBALANCED" not in capsys.readouterr().out


def test_explain_bad_args(capsys):
    assert main(["explain", "only-one-arg"]) == 2


def test_chaos_smoke(segment_file, capsys):
    assert main(["chaos", segment_file, "--seeds", "2", "--count", "8",
                 "--updates", "2", "--block", "16"]) == 0
    out = capsys.readouterr().out
    assert "never-silently-wrong: PASS over 2 seeds" in out
    assert out.count("seed ") == 2


def test_chaos_json_and_dump_schedule(segment_file, tmp_path, capsys):
    import json

    dump = str(tmp_path / "schedule.json")
    assert main(["chaos", segment_file, "--seeds", "1", "--seed", "7",
                 "--count", "6", "--block", "16", "--engine", "solution1",
                 "--dump-schedule", dump, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["silent_wrong"] == 0
    assert len(data["rounds"]) == 1
    assert data["rounds"][0]["seed"] == 7
    with open(dump) as fh:
        saved = json.load(fh)
    assert saved["engine"] == "solution1"
    assert "7" in saved["rounds"] or 7 in saved["rounds"]


def test_chaos_bad_args(capsys):
    assert main(["chaos", "a", "b"]) == 2
    assert "usage" in capsys.readouterr().err


def test_chaos_zero_updates(segment_file, capsys):
    import json

    assert main(["chaos", segment_file, "--seeds", "1", "--count", "4",
                 "--block", "16", "--updates", "0", "--json"]) == 0
    (round0,) = json.loads(capsys.readouterr().out)["rounds"]
    assert round0["updates_applied"] + round0["updates_failed"] \
        + round0["crashes_recovered"] == 0


def test_fsck_clean(segment_file, capsys):
    assert main(["fsck", segment_file, "--block", "16", "--updates", "3"]) == 0
    out = capsys.readouterr().out
    assert "fsck" in out and "clean" in out


def test_fsck_detects_corruption(segment_file, capsys):
    assert main(["fsck", segment_file, "--block", "16",
                 "--corrupt-pages", "2"]) == 1
    out = capsys.readouterr().out
    assert "checksum failure" in out and "bit rot" in out


def test_fsck_json(segment_file, capsys):
    import json

    assert main(["fsck", segment_file, "--block", "16", "--engine",
                 "solution1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["pages_scanned"] > 0


def test_serve_bench_synchronous(capsys):
    assert main(["serve-bench", "--shards", "2",
                 "--segments", "200", "--count", "12",
                 "--batch-size", "4"]) == 0
    out = capsys.readouterr().out
    assert "2 shards" in out
    assert "snapshot save" in out


def test_serve_bench_json(capsys):
    import json

    assert main(["serve-bench", "--shards", "2", "--segments", "200",
                 "--count", "12", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["shards"] == 2
    assert "workers" not in summary
    assert summary["queries"] == 12
    assert summary["queries_per_s"] > 0
    assert summary["io"]["combined"]["total"] > 0


def test_serve_bench_json_with_workers(capsys):
    # Processes belong to `serve --workers N`; serve-bench and trace
    # answer in this process, so asking them for workers is a usage
    # error rather than a JSON summary.
    for command in ("serve-bench", "trace"):
        assert main([command, "--shards", "2", "--workers", "2",
                     "--segments", "200", "--count", "12", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage: python -m repro {command}" in captured.err


def test_serve_bench_trace_and_slow_log(tmp_path, capsys):
    import json
    import os

    trace_path = str(tmp_path / "out.json")
    assert main(["serve-bench", "--shards", "2",
                 "--segments", "200", "--count", "12", "--batch-size", "4",
                 "--trace", trace_path, "--slow-ms", "0", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trace"]["path"] == trace_path
    assert summary["trace"]["events"] > 0
    assert summary["latency"]["batches"]["count"] == 3
    assert summary["slow_queries"]["recorded"] > 0

    from repro.telemetry import validate_chrome_trace

    with open(trace_path) as fh:
        doc = json.load(fh)
    assert validate_chrome_trace(doc) == []
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    # One trace id over the whole run, recorded in this process.
    assert {e["args"]["trace_id"] for e in complete} \
        == {summary["trace"]["trace_id"]}
    assert {e["pid"] for e in complete} == {os.getpid()}


def test_trace_command_writes_default_file(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--shards", "2",
                 "--segments", "150", "--count", "8"]) == 0
    out = capsys.readouterr().out
    assert "trace.json" in out
    with open(tmp_path / "trace.json") as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]


def test_serve_bench_keeps_snapshot_dir(tmp_path, capsys):
    import os

    directory = str(tmp_path / "kept")
    assert main(["serve-bench", "--shards", "2", "--segments", "120",
                 "--count", "8", "--dir", directory]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(directory, "manifest.json"))
    assert os.path.exists(os.path.join(directory, "shard-000.snap"))


def test_console_script_entry_point():
    """The ``repro`` console script must resolve to the real main()."""
    import os
    import re
    import sys

    pyproject = os.path.join(os.path.dirname(__file__), "..",
                             "pyproject.toml")
    with open(pyproject) as fh:  # no tomllib on 3.10
        match = re.search(r'^repro\s*=\s*"([\w.]+):(\w+)"', fh.read(), re.M)
    assert match, "pyproject.toml declares no `repro` console script"
    module, func = match.groups()
    __import__(module)
    entry = getattr(sys.modules[module], func)
    assert entry(["version"]) == 0


def test_serve_bench_pickle_transport(capsys):
    # The pool's transports went with it; the flag is unknown.
    assert main(["serve-bench", "--shards", "2", "--segments", "200",
                 "--count", "12", "--transport", "pickle", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --transport" in captured.err


def test_serve_bench_cache_pages(capsys):
    assert main(["serve-bench", "--shards", "2", "--segments", "200",
                 "--count", "12", "--cache-pages", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --cache-pages" in captured.err


def test_serve_reports_a_damaged_manifest_in_one_line(tmp_path, capsys):
    """``--workers 0`` reports a snapshot that cannot be opened the way
    ``--workers N`` does: one ``serve:`` line, exit 1, no traceback."""
    import json

    from repro import ShardedSegmentDatabase

    directory = tmp_path / "sharded"
    ShardedSegmentDatabase.bulk_load(grid_segments(60, seed=3), shards=2,
                                     block_capacity=16).save(str(directory))
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest["boundaries"]
    (directory / "manifest.json").write_text(json.dumps(manifest))
    assert main(["serve", str(directory), "--workers", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("serve: SnapshotFormatError: ")
    assert "manifest.json" in lines[0]
    assert "'boundaries'" in lines[0]


def test_serve_client_requires_port(capsys):
    assert main(["serve-client"]) == 2
    assert "--port" in capsys.readouterr().err


def test_serve_daemon_lifecycle(tmp_path):
    """Full daemon smoke over a subprocess: ready line naming the two
    serving processes, batched client, SIGTERM, clean drain report with
    one entry per process, exit 0."""
    import json
    import os
    import signal
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--segments", "300",
         "--workers", "2", "--shards", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        ready = json.loads(proc.stdout.readline())
        assert ready["ready"] is True
        assert ready["workers"] == 2
        assert len(ready["children"]) == 2
        port = ready["port"]

        client = subprocess.run(
            [sys.executable, "-m", "repro", "serve-client",
             "--port", str(port), "--segments", "300",
             "--count", "12", "--batch-size", "4", "--json"],
            capture_output=True, env=env, text=True, timeout=60)
        assert client.returncode == 0, client.stderr
        summary = json.loads(client.stdout)
        assert summary["ok"] is True
        assert summary["queries"] == 12
        assert summary["results"] > 0

        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        report = json.loads(out.splitlines()[-1])
        assert report["drained"] is True
        assert report["queries"] == 12
        assert report["rejected"] == 0
        assert sorted(w["pid"] for w in report["workers"]) == \
            sorted(ready["children"])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_chaos_serve_oracle_passes(capsys):
    assert main(["chaos-serve", "--seeds", "2", "--count", "16",
                 "--batch-size", "4", "--segments", "150"]) == 0
    out = capsys.readouterr().out
    assert "never-silently-wrong: PASS" in out
    assert "seed" in out


def test_chaos_serve_json_and_dump_schedule(tmp_path, capsys):
    import json

    dump_path = str(tmp_path / "schedules.json")
    assert main(["chaos-serve", "--seeds", "1", "--count", "8",
                 "--batch-size", "4", "--segments", "150",
                 "--conn-reset", "0.5",
                 "--dump-schedule", dump_path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"] == 0
    round0 = summary["rounds"][0]
    assert round0["batches"] == 2
    assert round0["wrong"] == 0
    assert round0["exact"] + round0["typed_errors"] == round0["batches"]
    with open(dump_path) as fh:
        schedules = json.load(fh)
    assert schedules["rounds"]["0"]["verdict"] == "ok"
    assert schedules["rounds"]["0"]["schedule"]["conn_reset_rate"] == 0.5


def test_chaos_serve_bad_args(capsys):
    assert main(["chaos-serve", "a", "b"]) == 2
    assert "usage" in capsys.readouterr().err


def test_chaos_serve_generates_segments_flag(monkeypatch, capsys):
    from repro.workloads import nct_random

    sizes = []
    real = nct_random.grid_segments

    def recording(n, **kwargs):
        sizes.append(n)
        return real(n, **kwargs)

    monkeypatch.setattr(nct_random, "grid_segments", recording)
    assert main(["chaos-serve", "--seeds", "1", "--count", "8",
                 "--segments", "120"]) == 0
    assert sizes == [120]
    assert "never-silently-wrong: PASS" in capsys.readouterr().out


def test_health_requires_port(capsys):
    assert main(["health"]) == 2
    assert "--port" in capsys.readouterr().err


def test_health_unreachable_daemon_is_typed(capsys):
    assert main(["health", "--port", "1", "--connect-timeout", "0.5"]) == 1
    err = capsys.readouterr().err
    assert "daemon unreachable" in err
    assert "Traceback" not in err


def test_serve_client_connection_failure_is_typed(capsys):
    assert main(["serve-client", "--port", "1",
                 "--connect-timeout", "0.5", "--count", "4"]) == 1
    err = capsys.readouterr().err
    assert "connection failed" in err
    assert "Traceback" not in err


def test_health_against_live_daemon(capsys):
    import json
    import os
    import threading

    from repro.serving import ServeDaemon, ShardedSegmentDatabase
    from repro.workloads import grid_segments

    db = ShardedSegmentDatabase.bulk_load(
        grid_segments(150, seed=5), shards=2, block_capacity=16)
    daemon = ServeDaemon(db)
    thread = threading.Thread(
        target=daemon.run, kwargs={"install_signal_handlers": False},
        daemon=True)
    thread.start()
    assert daemon.ready.wait(10)
    try:
        assert main(["health", "--port", str(daemon.port), "--json"]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["draining"] is False
        assert health["pid"] == os.getpid()
        assert health["db"] == {"shards": 2, "quarantined": []}
        assert main(["health", "--port", str(daemon.port)]) == 0
        assert "draining=False" in capsys.readouterr().out
    finally:
        daemon.request_stop()
        thread.join(timeout=10)
