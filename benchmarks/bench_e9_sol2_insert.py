"""E9 — Theorem 2 (iii): Solution 2 semi-dynamic insertions.

Insert streams (mixed short and wide segments, so C/L/R and G all take
traffic) into pre-built indexes of growing N; the amortised I/O per
insertion — including bridge rebuilds and subtree rebuilds — must stay
polylogarithmic.  The N sweep runs twice: on disjoint grid segments, and
on touching chains whose shared endpoints pile segments up at the nodes,
where a balance test that left out a node's own segments would show as
rebuild spikes.
"""

import random

from harness import archive, fit_section, build_engine, table_section
from repro.geometry import Segment
from repro.iosim import Measurement
from repro.workloads import grid_segments, grid_segments_touching

B = 32
N_SWEEP = (1024, 2048, 4096, 8192, 16384)
UPDATES = 96


def insert_stream(n, rng):
    width = int(110 * (n ** 0.5))
    stream = []
    for i in range(UPDATES):
        x = rng.randrange(0, width)
        y = -(5 + i)
        if i % 4 == 0:  # every fourth insert is wide (hits G)
            length = rng.randrange(width // 4, width // 2)
        else:
            length = rng.randrange(2, 200)
        stream.append(
            Segment.from_coords(x, y, x + length, y, label=("ins", n, i))
        )
    return stream


def run_sweep(generate=grid_segments):
    rows = []
    measurements = []
    for n in N_SWEEP:
        segments = generate(n, seed=23)
        device, _pager, index = build_engine("solution2", segments, B)
        rng = random.Random(9)
        costs = []
        for s in insert_stream(n, rng):
            with Measurement(device) as m:
                index.insert(s)
            costs.append(m.stats.total)
        index.check_invariants()
        costs.sort()
        mean = sum(costs) / len(costs)
        median = costs[len(costs) // 2]
        rows.append([n, round(mean, 1), median, costs[-1]])
        measurements.append((n, B, 0, mean))
    return rows, measurements


def test_e9_report(benchmark):
    rows, measurements = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    touching_rows, touching_measurements = run_sweep(grid_segments_touching)
    headers = ["N", "mean I/O", "median I/O", "max I/O"]
    archive(
        "e9_sol2_insert",
        "E9 — Solution 2 amortised insertions (Theorem 2 iii)",
        [
            table_section(
                f"Insertion I/O vs N (B={B}, {UPDATES} mixed inserts per "
                f"point; rebuild spikes included in mean/max):",
                headers,
                rows,
            ),
            fit_section(measurements, "log_B(n)",
                        candidates=["log_B(n)", "log2(n)", "n"]),
            table_section(
                "The same streams over `grid_segments_touching` (shared "
                "endpoints):",
                headers,
                touching_rows,
            ),
            fit_section(touching_measurements, "log_B(n)",
                        candidates=["log_B(n)", "log2(n)", "n"]),
            "The max column shows the amortised rebuilds (bridge and "
            "subtree) that single insertions occasionally absorb.",
        ],
    )


def test_e9_insert_wallclock(benchmark):
    segments = grid_segments(4096, seed=23)
    device, _pager, index = build_engine("solution2", segments, B)
    counter = [0]

    def run():
        i = counter[0] = counter[0] + 1
        index.insert(
            Segment.from_coords(7 * i, -10**6 - i, 7 * i + 3, -10**6 - i,
                                label=("w", i))
        )

    benchmark(run)
