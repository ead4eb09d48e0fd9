"""E20 — fused page kernels: scalar vs fused page scans.

The companion to E16.  E16 flips the *arithmetic* (filtered floats vs
exact rationals); E20 flips the *kernel shape* — the same filtered
arithmetic executed row-at-a-time by the original scalar loops
(``set_vectorized(False)``) versus the fused page kernels of
DESIGN.md §15 (one pure-Python pass per page of four or more rows).
PST nodes are bisected in both modes (DESIGN.md §15), so the modes
differ only in the leaf, grid, R-tree and stab-filter page scans; on
the paper engines, whose query time is mostly PST work, the ratio
measures that remainder.  Results, per-query I/O counts and the
fast-hit/exact-fallback telemetry are bit-identical in both modes — this
file re-asserts that on a query sample before timing anything.
"columnar" names the kernel mode in the recorded fields and tables.

Two headline numbers, both at N=4096, B=32:

* ``kernel_speedup_ratio`` — columnar qps / scalar qps, measured
  in-process back to back, so it is insensitive to machine noise.
* ``vs_pre_pr`` — columnar qps against the committed E16 baseline from
  before the columnar refactor (solution1 3012.8 q/s, solution2
  5654.7 q/s).  solution1 clears >= 2x.  solution2's gate is 1.2x,
  deliberately lower: its pre-PR baseline had already banked most of
  the filtered-arithmetic win (5654.7 vs solution1's 3012.8 on the
  same workload), because solution1 classifies ~3x more page rows per
  query — the engine with more per-page work gains more from batching
  it.  The asymmetry is the finding, not an excuse; the archive table
  shows both ratios.

A scalar-vs-columnar sweep over N and B maps where the kernels pay:
wider pages amortise the per-page setup over more rows, while at B=16
the fused margin thins toward parity.  ``E20_N`` / ``E20_QUERIES``
shrink the workload for CI smoke runs.
"""

import gc
import os
import time

from harness import (
    archive,
    build_engine,
    latency_quantiles,
    table_section,
    write_perf_json,
)
from repro.geometry import filter_stats, kernels, reset_filter_stats
from repro.telemetry import LatencyHistogram
from repro.workloads import grid_segments, segment_queries

B = 32
N = int(os.environ.get("E20_N", "4096"))
QUERIES = int(os.environ.get("E20_QUERIES", "256"))
ENGINES = ("solution1", "solution2", "scan", "stab-filter", "grid", "rtree")
#: Committed E16 ``filtered_qps`` at N=4096, B=32 from the PR before the
#: columnar kernels (BENCH_perf.json, commit 17a45af) — the wall-clock
#: baseline the tentpole is measured against.
PRE_PR_QPS = {"solution1": 3012.8, "solution2": 5654.7}
#: Gates bind only at the full workload (same policy as E16).
GATE_MIN_N = 4096
GATE_VS_PRE_PR = {"solution1": 2.0, "solution2": 1.2}
#: In-process columnar/scalar floor.  Measured 1.10-1.36 on the paper
#: engines across runs on a 1-core box; the floor sits under the noise
#: band (check_regression.py separately gates the committed ratio
#: against drops).
GATE_KERNEL_RATIO = 1.05
#: Sweep grid (scalar vs columnar at every point, paper engines only).
SWEEP_BS = (16, 32, 128)
IDENTITY_SAMPLE = 48


def _workload(n=None, queries=None):
    """The E16 workload, verbatim — same seeds, same selectivity."""
    segments = grid_segments(n if n is not None else N, seed=61)
    queries_ = segment_queries(
        segments, queries if queries is not None else QUERIES,
        selectivity=0.02, seed=62,
    )
    return segments, queries_


def _time_queries(index, queries, latency=None) -> float:
    t0 = time.perf_counter()
    for q in queries:
        q0 = time.perf_counter()
        index.query(q)
        if latency is not None:
            latency.observe(time.perf_counter() - q0)
    return time.perf_counter() - t0


def _probe(device, index, queries):
    """``[(result labels, device reads)]`` per query — the identity probe."""
    out = []
    for q in queries:
        before = device.reads
        hits = index.query(q)
        out.append((sorted(s.label for s in hits), device.reads - before))
    return out


def run_engine(engine, segments, queries, block=B, check_identity=True):
    """Scalar vs columnar wall-clock for one engine, plus the identity probe."""
    device, _pager, index = build_engine(engine, segments, block)
    # Warm every query once so first-visit costs (page materialisation,
    # node decodes, view caches) land on neither timed mode.
    _time_queries(index, queries)

    if check_identity:
        sample = queries[:IDENTITY_SAMPLE]
        kernels.set_vectorized(False)
        reset_filter_stats()
        scalar_probe = _probe(device, index, sample)
        scalar_stats = filter_stats()
        kernels.set_vectorized(True)
        reset_filter_stats()
        columnar_probe = _probe(device, index, sample)
        columnar_stats = filter_stats()
        assert scalar_probe == columnar_probe, (
            f"{engine}: scalar/columnar results or per-query reads diverge"
        )
        for key in ("fast_hits", "exact_fallbacks"):
            assert scalar_stats[key] == columnar_stats[key], (
                f"{engine}: {key} telemetry diverges: "
                f"scalar {scalar_stats[key]} != columnar {columnar_stats[key]}"
            )

    try:
        # A collection before each timed mode, so a cyclic-GC pass that
        # earlier allocation made due is not charged to the next mode.
        kernels.set_vectorized(False)
        scalar_hist = LatencyHistogram(f"e20.{engine}.scalar")
        gc.collect()
        scalar_elapsed = _time_queries(index, queries, latency=scalar_hist)

        kernels.set_vectorized(True)
        reset_filter_stats()
        columnar_hist = LatencyHistogram(f"e20.{engine}.columnar")
        gc.collect()
        columnar_elapsed = _time_queries(index, queries, latency=columnar_hist)
        stats = filter_stats()
    finally:
        kernels.set_vectorized(True)

    scalar_qps = len(queries) / scalar_elapsed if scalar_elapsed else 0.0
    columnar_qps = len(queries) / columnar_elapsed if columnar_elapsed else 0.0
    return {
        "scalar_qps": round(scalar_qps, 1),
        "columnar_qps": round(columnar_qps, 1),
        "kernel_speedup_ratio": (
            round(columnar_qps / scalar_qps, 3) if scalar_qps else None
        ),
        "fast_hits": stats["fast_hits"],
        "exact_fallbacks": stats["exact_fallbacks"],
        "scalar_latency_ms": latency_quantiles(scalar_hist),
        "columnar_latency_ms": latency_quantiles(columnar_hist),
    }


def _sweep():
    """Scalar vs columnar over (N, B) for the paper engines."""
    sweep_ns = sorted({min(1024, N), N})
    sweep_queries = max(16, min(QUERIES, 96))
    rows = []
    for n in sweep_ns:
        segments, queries = _workload(n=n, queries=sweep_queries)
        for block in SWEEP_BS:
            for engine in ("solution1", "solution2"):
                row = run_engine(engine, segments, queries, block=block,
                                 check_identity=False)
                rows.append({
                    "engine": engine,
                    "n": n,
                    "block_capacity": block,
                    "scalar_qps": row["scalar_qps"],
                    "columnar_qps": row["columnar_qps"],
                    "kernel_speedup_ratio": row["kernel_speedup_ratio"],
                })
    return rows


def test_e20_kernels():
    segments, queries = _workload()
    engines = {}
    for engine in ENGINES:
        engines[engine] = run_engine(engine, segments, queries)

    vs_pre_pr = {
        name: round(engines[name]["columnar_qps"] / baseline, 3)
        for name, baseline in PRE_PR_QPS.items()
    }

    if N >= GATE_MIN_N:
        for engine, floor in GATE_VS_PRE_PR.items():
            assert vs_pre_pr[engine] >= floor, (
                f"{engine}: columnar {engines[engine]['columnar_qps']} q/s is "
                f"{vs_pre_pr[engine]}x the pre-PR baseline "
                f"{PRE_PR_QPS[engine]} — gate is {floor}x"
            )
        for engine in ("solution1", "solution2"):
            ratio = engines[engine]["kernel_speedup_ratio"]
            assert ratio is not None and ratio >= GATE_KERNEL_RATIO, (
                f"{engine}: columnar/scalar ratio {ratio} < {GATE_KERNEL_RATIO}"
            )

    sweep = _sweep()

    payload = {
        "n": N,
        "block_capacity": B,
        "queries": len(queries),
        "cpu_count": os.cpu_count() or 1,
        "engines": engines,
        "pre_pr": {
            "baseline_qps": PRE_PR_QPS,
            "vs_pre_pr": vs_pre_pr,
            "gates": GATE_VS_PRE_PR,
        },
        "sweep": sweep,
    }
    path = write_perf_json("E20", payload)

    rows = [
        [name, row["scalar_qps"], row["columnar_qps"],
         row["kernel_speedup_ratio"],
         vs_pre_pr.get(name, "—"),
         f"{row['columnar_latency_ms']['p50_ms']}/{row['columnar_latency_ms']['p99_ms']}"]
        for name, row in engines.items()
    ]
    sweep_rows = [
        [r["engine"], r["n"], r["block_capacity"], r["scalar_qps"],
         r["columnar_qps"], r["kernel_speedup_ratio"]]
        for r in sweep
    ]
    archive(
        "e20_kernels",
        "E20 — Fused page kernels (scalar vs fused)",
        [
            f"N={N}, B={B}, {len(queries)} segment queries (2% selectivity; "
            f"the E16 workload verbatim).  Same indexes, same queries, same "
            f"filtered arithmetic — only the kernel shape changes.  Results, "
            f"per-query reads and fast-hit/fallback telemetry are asserted "
            f"bit-identical on a {IDENTITY_SAMPLE}-query sample before "
            f"timing.",
            table_section(
                "Wall-clock queries/second, scalar vs columnar kernels:",
                ["engine", "scalar q/s", "columnar q/s", "columnar/scalar",
                 "vs pre-PR E16", "columnar p50/p99 ms"],
                rows,
            ),
            "Reading: `columnar/scalar` isolates the kernel shape "
            "in-process (machine-noise-free); `vs pre-PR E16` is the "
            "end-to-end wall-clock ratio against the committed baseline "
            "from before this refactor, which also credits the page-decode "
            "caches that both modes now share.  solution1 clears the 2x "
            "target with room; solution2's pre-PR baseline had already "
            "banked most of the filtered-arithmetic win (5654.7 q/s vs "
            "solution1's 3012.8 on identical queries) because solution1 "
            "classifies ~3x more page rows per query — so solution2 gates "
            "at 1.2x.  The rtree baseline sits near 1.0x: its leaf scans "
            "are bounding-box pre-filtered, leaving few rows for the "
            "kernel to batch.",
            table_section(
                "Sweep — scalar vs columnar over N and B (paper engines):",
                ["engine", "N", "B", "scalar q/s", "columnar q/s", "ratio"],
                sweep_rows,
            ),
            "Wider pages amortise the per-page kernel setup across more "
            "rows; at B=16 the margin thins to parity (a 16-row page "
            "retires in a handful of early-exit compares either way).  "
            "G-tree key compares are scalar and PST nodes are bisected in "
            "both modes, so the paper engines' ratios come from their leaf "
            "scans alone.  "
            "Machine-readable copy: `" + os.path.basename(path) + "` "
            "(key `E20`, "
            "`kernel_speedup_ratio` gated by check_regression.py).",
        ],
    )


if __name__ == "__main__":
    test_e20_kernels()
