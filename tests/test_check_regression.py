"""The perf-regression gate: metric extraction, tolerances, exit codes."""

import json
import os
import sys


sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")
)

from check_regression import compare, extract_metrics, main  # noqa: E402


def perf_file(qps=1000.0, p99=2.0, exact_qps=100.0, speedup=1.2):
    """A minimal schema-v6 artifact shaped like the real one."""
    return {
        "schema_version": 6,
        "commit": "abc1234",
        "experiments": {
            "E15": {
                "commit": "abc1234",
                "generated_at": "2026-08-08T00:00:00Z",
                "engines": {
                    "solution1": {
                        "queries_per_sec": {"1": qps, "64": qps * 4},
                        "latency_ms": {"64": {"p50_ms": 1.0, "p99_ms": p99}},
                    },
                    "scan": {
                        # Baseline engines never gate.
                        "queries_per_sec": {"1": 50.0},
                        "latency_ms": {"64": {"p99_ms": 100.0}},
                    },
                },
            },
            "E16": {
                "engines": {
                    "solution2": {"filtered_qps": qps, "exact_qps": exact_qps},
                    "rtree": {"filtered_qps": 10.0},
                },
            },
            "E17": {
                "engine": "solution2",
                "throughput": {
                    "4": {"queries_per_s": qps, "batch_p99_ms": p99},
                },
            },
            "E20": {
                "engines": {
                    "solution1": {"scalar_qps": qps / speedup,
                                  "columnar_qps": qps,
                                  "kernel_speedup_ratio": speedup},
                    "scan": {"kernel_speedup_ratio": 2.5},
                },
            },
        },
    }


def test_extracts_only_gated_metrics():
    metrics = extract_metrics(perf_file())
    assert "E15.engines.solution1.queries_per_sec.1" in metrics
    assert "E16.engines.solution2.filtered_qps" in metrics
    assert "E17.throughput.4.queries_per_s" in metrics
    assert "E17.throughput.4.batch_p99_ms" in metrics
    # Baselines, bookkeeping stamps and non-metric leaves stay out.
    assert not any("scan" in k or "rtree" in k for k in metrics)
    assert not any("commit" in k or "generated_at" in k for k in metrics)
    # exact_qps is not a gated throughput key.
    assert not any(k.endswith("exact_qps") for k in metrics)


def test_extracts_kernel_speedup_ratio():
    metrics = extract_metrics(perf_file())
    assert metrics["E20.engines.solution1.kernel_speedup_ratio"] == \
        ("ratio", 1.2)
    # Baseline engines never gate, whatever the metric.
    assert not any(".scan." in k for k in metrics)


def test_ratio_drop_beyond_tolerance_fails():
    verdict = compare(perf_file(speedup=1.2), perf_file(speedup=0.5),
                      0.25, 0.25, max_ratio_drop=0.5)
    ratio_regressions = [r for r in verdict["regressions"]
                         if r["kind"] == "ratio"]
    assert {r["metric"] for r in ratio_regressions} == {
        "E20.engines.solution1.kernel_speedup_ratio",
    }


def test_ratio_within_tolerance_passes():
    # Half the ratio gone is the (loose) limit; 60% retained passes.
    verdict = compare(perf_file(speedup=1.2), perf_file(speedup=0.72),
                      0.25, 0.25, max_ratio_drop=0.5)
    assert [r for r in verdict["regressions"] if r["kind"] == "ratio"] == []


def test_max_ratio_drop_flag(tmp_path):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(perf_file(speedup=1.2)))
    cur.write_text(json.dumps(perf_file(speedup=0.96)))
    assert main([str(base), str(cur), "--max-ratio-drop", "0.1"]) == 1
    assert main([str(base), str(cur), "--max-ratio-drop", "0.3"]) == 0


def test_identical_files_pass():
    verdict = compare(perf_file(), perf_file(), 0.25, 0.25)
    assert verdict["regressions"] == []
    assert verdict["checked"] > 0


def test_within_tolerance_passes():
    verdict = compare(perf_file(qps=1000.0, p99=2.0),
                      perf_file(qps=800.0, p99=2.4), 0.25, 0.25)
    assert verdict["regressions"] == []


def test_qps_drop_beyond_tolerance_fails():
    verdict = compare(perf_file(qps=1000.0), perf_file(qps=700.0),
                      0.25, 0.25)
    kinds = {r["metric"]: r for r in verdict["regressions"]}
    assert any(k.endswith("queries_per_s") or "queries_per_sec" in k
               or k.endswith("filtered_qps") for k in kinds)
    assert all(r["kind"] == "qps" for r in verdict["regressions"])


def test_p99_inflation_beyond_tolerance_fails():
    verdict = compare(perf_file(p99=2.0), perf_file(p99=3.0), 0.25, 0.25)
    assert verdict["regressions"]
    assert all(r["kind"] == "p99" for r in verdict["regressions"])
    assert all(r["metric"].endswith("p99_ms")
               for r in verdict["regressions"])


def test_missing_metrics_are_reported_not_fatal():
    baseline = perf_file()
    current = perf_file()
    del current["experiments"]["E16"]
    current["experiments"]["E15"]["engines"]["solution1"]["new_thing"] = {
        "queries_per_sec": {"1": 5.0},
    }
    verdict = compare(baseline, current, 0.25, 0.25)
    assert verdict["regressions"] == []
    assert any(k.startswith("E16") for k in verdict["baseline_only"])
    assert any("new_thing" in k for k in verdict["current_only"])


def test_zero_baseline_cannot_gate():
    verdict = compare(perf_file(qps=0.0), perf_file(qps=0.0), 0.25, 0.25)
    assert verdict["regressions"] == []


def test_main_exit_codes(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(perf_file(qps=1000.0)))
    cur.write_text(json.dumps(perf_file(qps=1000.0)))
    assert main([str(base), str(cur)]) == 0
    cur.write_text(json.dumps(perf_file(qps=100.0)))
    assert main([str(base), str(cur)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert main([str(tmp_path / "missing.json"), str(cur)]) == 2
    assert main([]) == 2


def test_main_json_output(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(perf_file()))
    assert main([str(base), str(base), "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["regressions"] == []
    assert verdict["checked"] > 0


def test_custom_tolerances(tmp_path):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(perf_file(qps=1000.0)))
    cur.write_text(json.dumps(perf_file(qps=850.0)))
    assert main([str(base), str(cur), "--max-drop", "0.10"]) == 1
    assert main([str(base), str(cur), "--max-drop", "0.20"]) == 0
