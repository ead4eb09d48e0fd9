"""Perf-regression gate over the ``BENCH_perf.json`` trajectory.

Compares a current perf artifact against a baseline copy and fails
(exit 1) when the paper engines regress beyond tolerance:

* any throughput metric (``queries_per_s`` / ``queries_per_sec`` /
  ``filtered_qps``) drops by more than ``--max-drop`` (default 25%);
* any ``p99_ms`` latency inflates by more than ``--max-inflation``
  (default 25%);
* E20's ``kernel_speedup_ratio`` (fused over scalar kernel qps,
  measured in-process so it is machine-noise-free) shrinks by more than
  ``--max-ratio-drop`` (default 50%): it falling toward 1.0 means the
  fused page kernels stopped paying for themselves.

Only metrics attributed to the paper engines (``solution1`` /
``solution2``) gate; baseline metrics are noisy single-shot wall-clock
numbers, so the default tolerance is deliberately loose — the gate
exists to catch order-of-magnitude cliffs (a pickling regression, an
accidental exact-only hot path), not 5% jitter.  Metrics present in
only one of the two files are reported but never fail the gate, so
adding experiments or fields stays cheap.

Usage::

    python benchmarks/check_regression.py BASELINE.json [CURRENT.json]
        [--max-drop 0.25] [--max-inflation 0.25] [--json]

``CURRENT`` defaults to the repo-root ``BENCH_perf.json``.  Wired into
CI's bench-smoke job, which snapshots the committed artifact before
re-running the benchmarks and then gates the fresh numbers against it.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Iterator, List, Tuple

DEFAULT_CURRENT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_perf.json",
)

#: Engines whose numbers gate (the paper's two solutions).
GATED_ENGINES = ("solution1", "solution2")
#: Leaf keys read as throughput (higher is better).
QPS_KEYS = ("queries_per_s", "queries_per_sec", "filtered_qps",
            "columnar_qps")
#: Leaf keys read as tail latency (lower is better).
P99_KEYS = ("p99_ms", "batch_p99_ms")
#: Leaf keys read as speed-up ratios (higher is better).
#: ``kernel_speedup_ratio`` (E20) is fused/scalar kernel throughput,
#: timed back to back in one process — the least noisy ratio here.
RATIO_KEYS = ("kernel_speedup_ratio",)
#: Per-run bookkeeping stamps — never metrics.
SKIP_KEYS = ("commit", "generated_at")


def _walk(node, path: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], float]]:
    """Yield every numeric leaf with its key path."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in SKIP_KEYS:
                continue
            yield from _walk(value, path + (str(key),))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk(value, path + (str(i),))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def _gated(path: Tuple[str, ...], experiment_payload: dict) -> bool:
    """Does this metric belong to a paper engine?

    Either the path names the engine (E15/E16 nest per-engine dicts) or
    the experiment ran a single gated engine (E17's ``engine`` field).
    """
    if any(part in GATED_ENGINES for part in path):
        return True
    return experiment_payload.get("engine") in GATED_ENGINES


def extract_metrics(data: dict) -> Dict[str, Tuple[str, float]]:
    """{dotted path: (kind, value)} for every gated metric in a perf file.

    ``kind`` is ``"qps"`` (drop gates) or ``"p99"`` (inflation gates).
    """
    out: Dict[str, Tuple[str, float]] = {}
    for name, payload in (data.get("experiments") or {}).items():
        if not isinstance(payload, dict):
            continue
        for path, value in _walk(payload, (str(name),)):
            leaf = path[-1]
            if leaf in P99_KEYS:
                kind = "p99"
            elif leaf in RATIO_KEYS:
                kind = "ratio"
            elif any(part in QPS_KEYS for part in path):
                # qps metrics may nest one level deeper (per batch size).
                kind = "qps"
            else:
                continue
            if not _gated(path, payload):
                continue
            out[".".join(path)] = (kind, value)
    return out


def compare(baseline: dict, current: dict, max_drop: float,
            max_inflation: float, max_ratio_drop: float = 0.5) -> dict:
    """The gate verdict: regressions, passes, and unmatched metrics."""
    base = extract_metrics(baseline)
    cur = extract_metrics(current)
    regressions: List[dict] = []
    checked = 0
    for key, (kind, base_value) in sorted(base.items()):
        if key not in cur:
            continue
        _kind, cur_value = cur[key]
        checked += 1
        if kind in ("qps", "ratio"):
            # Zero/absent baselines can't gate (a 0-qps baseline is a
            # degenerate timing, not a target to hold).
            if base_value <= 0:
                continue
            tolerance = max_drop if kind == "qps" else max_ratio_drop
            floor = base_value * (1.0 - tolerance)
            if cur_value < floor:
                regressions.append({
                    "metric": key, "kind": kind,
                    "baseline": base_value, "current": cur_value,
                    "limit": round(floor, 3),
                    "change": round(cur_value / base_value - 1.0, 4),
                })
        else:
            if base_value <= 0:
                continue
            ceiling = base_value * (1.0 + max_inflation)
            if cur_value > ceiling:
                regressions.append({
                    "metric": key, "kind": "p99",
                    "baseline": base_value, "current": cur_value,
                    "limit": round(ceiling, 3),
                    "change": round(cur_value / base_value - 1.0, 4),
                })
    return {
        "checked": checked,
        "baseline_only": sorted(k for k in base if k not in cur),
        "current_only": sorted(k for k in cur if k not in base),
        "regressions": regressions,
        "max_drop": max_drop,
        "max_inflation": max_inflation,
        "max_ratio_drop": max_ratio_drop,
    }


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    max_drop = 0.25
    max_inflation = 0.25
    max_ratio_drop = 0.5
    as_json = False
    positional: List[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--max-drop":
            max_drop = float(argv[i + 1]); i += 1
        elif token == "--max-inflation":
            max_inflation = float(argv[i + 1]); i += 1
        elif token == "--max-ratio-drop":
            max_ratio_drop = float(argv[i + 1]); i += 1
        elif token == "--json":
            as_json = True
        elif token.startswith("--"):
            print(f"unknown flag {token!r}", file=sys.stderr)
            return 2
        else:
            positional.append(token)
        i += 1
    if not positional or len(positional) > 2:
        print("usage: python benchmarks/check_regression.py BASELINE.json "
              "[CURRENT.json] [--max-drop R] [--max-inflation R] "
              "[--max-ratio-drop R] [--json]",
              file=sys.stderr)
        return 2
    baseline_path = positional[0]
    current_path = positional[1] if len(positional) == 2 else DEFAULT_CURRENT
    try:
        baseline = _load(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2
    try:
        current = _load(current_path)
    except (OSError, ValueError) as exc:
        print(f"cannot read current {current_path}: {exc}", file=sys.stderr)
        return 2

    verdict = compare(baseline, current, max_drop, max_inflation,
                      max_ratio_drop)
    if as_json:
        print(json.dumps(verdict, indent=2))
    else:
        print(f"# {verdict['checked']} gated metrics compared "
              f"(drop tolerance {max_drop:.0%}, "
              f"p99 inflation tolerance {max_inflation:.0%}, "
              f"ratio drop tolerance {max_ratio_drop:.0%})")
        for key in verdict["baseline_only"]:
            print(f"# baseline-only (not gated): {key}")
        for key in verdict["current_only"]:
            print(f"# new metric (not gated): {key}")
        for r in verdict["regressions"]:
            direction = "inflated" if r["kind"] == "p99" else "dropped"
            print(f"REGRESSION {r['metric']}: {direction} "
                  f"{r['baseline']} -> {r['current']} "
                  f"({r['change']:+.1%}; limit {r['limit']})")
        if not verdict["regressions"]:
            print("# no perf regressions")
    return 1 if verdict["regressions"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
