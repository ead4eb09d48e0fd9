"""E5 — Theorem 1 (iii): Solution 1 updates in amortised O(log2 n + ...).

Insert and delete streams against pre-built indexes of growing N; report
the amortised I/O per update (the BB[α]-style rebuilds are included — they
are what the amortisation pays for) and the post-update balance.  The N
sweep runs twice: on disjoint grid segments, and on touching chains whose
shared endpoints pile segments up at the nodes, where a balance test that
left out a node's own segments would show as rebuild costs.
"""

import random

from harness import archive, fit_section, build_engine, table_section
from repro.geometry import Segment
from repro.iosim import Measurement
from repro.workloads import grid_segments, grid_segments_touching

B = 32
N_SWEEP = (1024, 2048, 4096, 8192, 16384)
UPDATES = 96


def run_sweep(generate=grid_segments):
    rows = []
    measurements = []
    for n in N_SWEEP:
        segments = generate(n, seed=13)
        device, _pager, index = build_engine("solution1", segments, B)
        rng = random.Random(5)
        insert_total = 0
        for i in range(UPDATES):
            x = rng.randrange(0, 110 * (n ** 0.5).__int__())
            y = -(5 + i)
            s = Segment.from_coords(x, y, x + rng.randrange(2, 300), y,
                                    label=("ins", i))
            with Measurement(device) as m:
                index.insert(s)
            insert_total += m.stats.total
        delete_total = 0
        victims = rng.sample(segments, UPDATES)
        for s in victims:
            with Measurement(device) as m:
                assert index.delete(s)
            delete_total += m.stats.total
        index.check_invariants()
        mean_insert = insert_total / UPDATES
        mean_delete = delete_total / UPDATES
        rows.append([n, round(mean_insert, 1), round(mean_delete, 1)])
        measurements.append((n, B, 0, mean_insert))
    return rows, measurements


def test_e5_report(benchmark):
    rows, measurements = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    touching_rows, touching_measurements = run_sweep(grid_segments_touching)
    headers = ["N", "insert I/O (amortised)", "delete I/O (amortised)"]
    archive(
        "e5_sol1_update",
        "E5 — Solution 1 amortised updates (Theorem 1 iii)",
        [
            table_section(
                f"Amortised update I/O vs N (B={B}, {UPDATES} inserts + "
                f"{UPDATES} deletes per point; rebuild costs included):",
                headers,
                rows,
            ),
            fit_section(measurements, "log2(n)",
                        candidates=["log2(n)", "log_B(n)", "n"]),
            table_section(
                "The same streams over `grid_segments_touching` (shared "
                "endpoints):",
                headers,
                touching_rows,
            ),
            fit_section(touching_measurements, "log2(n)",
                        candidates=["log2(n)", "log_B(n)", "n"]),
            "Invariants (weights, balance, placement) re-checked after every "
            "stream — the structure stays a valid 2LDS throughout.",
        ],
    )


def test_e5_insert_wallclock(benchmark):
    segments = grid_segments(4096, seed=13)
    device, _pager, index = build_engine("solution1", segments, B)
    counter = [0]

    def run():
        i = counter[0] = counter[0] + 1
        index.insert(
            Segment.from_coords(7 * i, -10**6 - i, 7 * i + 3, -10**6 - i,
                                label=("w", i))
        )

    benchmark(run)
