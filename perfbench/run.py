#!/usr/bin/env python3
"""End-to-end benchmark of the segment database, with a traced per-layer run.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  ``W`` is one of the workloads listed in
``BENCHMARK.json``; ``S`` seeds the query mix, the update stream and
every sample (the data set is fixed); ``T`` sets the timed phase's fixed
op count (about ``T`` seconds of work on a 2-core VM, never fewer than
1000 requests, so that ten samples lie beyond the windows' p99s).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same op count with its second half traced, spans recorded around every
layer, and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; earlier lines record the
run's provenance and diagnostics.  A checkout without the program's
sources, or an environment that switches off the program's fast paths
(``REPRO_EXACT_ONLY``, ``REPRO_SCALAR_KERNELS``), exits 2 with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("embedded-churn", "serve-bulk")
REFUSED_ENV = ("REPRO_EXACT_ONLY", "REPRO_SCALAR_KERNELS")
DEFAULT_SEGMENTS = 8192


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS,
                        help="data set size N (smaller only for smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.segments < 64:
        parser.error("--seconds must be > 0 and --segments >= 64")
    return args


def _metrics(spec: dict, values: dict, trace: bool) -> dict:
    """Every metric BENCHMARK.json lists for this mode, with its unit."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise common.BenchError(f"workload did not measure {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    args = _parse(argv)
    refused = [var for var in REFUSED_ENV if var in os.environ]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        common.import_program()
    except (common.BenchError, OSError, ValueError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # A SIGTERM unwinds like an exception, so daemons are killed and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    prov = common.provenance(args.seed, args.workload, trace)
    prov["calibration_before_s"] = common.calibration_s()
    work = os.path.join(common.WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload.startswith("embedded"):
            import embedded as workload
        else:
            import served as workload
        requests = common.op_count(args.seconds, workload.RATE[args.workload])
        result = workload.run(args.workload, args.seed, requests, trace,
                              args.segments, work)
    except common.BenchError as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["calibration_after_s"] = common.calibration_s()
    common.emit("# provenance", prov)

    recorder = result.pop("recorder", None)
    if recorder is not None:
        recorder.dump(os.path.join(common.WORK, "traces",
                                   f"{args.workload}-seed{args.seed}.json"),
                      prov)
    values = result.pop("per_layer" if trace else "end_to_end")
    result.pop("end_to_end", None)
    common.emit("# run", result)
    try:
        metrics = _metrics(spec, values, trace)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
