"""Benchmark entry point: repeated cold passes of one workload.

    python3 perfbench/run.py --workload interp-sweep --seed 0 --seconds 35 --trace 0

Runs fresh-interpreter passes (``worker.py``) one after another, closed
loop, single thread, until ``--seconds`` have gone by, and reports the
median of each metric over the passes.  Times are scaled to a reference
machine speed (see ``worker.py``); the unscaled ones are in the details.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics plus the tracing overhead (median
traced wall time minus median untraced wall time).

The line before the last holds the run's details: metadata, the reason the
workload was chosen, per-pass figures, the tail percentile used, failures,
and each span's share of wall time.  The last line is the result object.
Exits non-zero without a result if any pass fails to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170  # a run must end within 180 s
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_MIN_BEYOND = 10

WORKLOAD_WHY = {  # the same reasons as in BENCHMARK.json
    "interp-sweep": "few long runs on small heaps, so nearly all time is charged interpreter "
    "primitives; a faster interpreter core must show its gain here",
    "ledger-growth": "thousands of small runs on one growing heap, so the per-run heap snapshot "
    "and the ledger dominate and per-op cost grows with size",
    "claim-check": "class, recurrence, witness and credit checks plus thousands of tiny runs, "
    "so analysis and per-run overhead dominate, not throughput",
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_PASS_KEYS = (
    "trace", "setup_s", "wall_s", "units_per_s", "peak_rss_mb", "raw", "slowdown", "probes",
    "units", "jobs", "failed",
)
PER_LAYER_UNITS = {
    "calls": "count",
    "units": "count",
    "cells": "count",
    "match_failures": "count",
    "units_per_busy_s": "1/s",
    "self_s": "s",
    "snapshot_us": "us",
    "op_us_p50": "us",
    "op_us_growth": "ratio",
    "self_share": "share",
}


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def run_worker(workload: str, seed: int, trace: int, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(jobs_per_pass: int) -> float:
    """The highest percentile of the grid that leaves at least ten of one
    pass's jobs beyond it.  It depends on the job count only, so every run
    of a workload reports the same percentile."""
    fits = [p for p in TAIL_GRID if jobs_per_pass - math.ceil(p / 100 * jobs_per_pass) >= TAIL_MIN_BEYOND]
    return fits[-1] if fits else TAIL_GRID[0]


def nearest_rank(sorted_xs: list[float], p: float) -> float:
    return sorted_xs[max(1, math.ceil(p / 100 * len(sorted_xs))) - 1]


def job_latency(passes: list[dict]) -> dict:
    """Median and tail of the job latencies of all passes pooled."""
    pooled = sorted(x for p in passes for x in p["latencies_ms"])
    pct = tail_percentile(passes[0]["jobs"])
    tail = nearest_rank(pooled, pct)
    return {
        "job_p50_ms": statistics.median(pooled),
        "job_tail_ms": tail,
        "job_tail_pct": pct,
        "job_tail_beyond": sum(x > tail for x in pooled),
        "jobs_timed": len(pooled),
    }


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="timecredits benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    meta = {
        "seed": args.seed,
        "workload": args.workload,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": loadavg(),
    }
    modes = (0,) if args.trace == 0 else (0, 1)
    passes: dict[int, list] = {0: [], 1: []}
    try:
        while True:
            for mode in modes:
                remaining = DEADLINE_S - (time.monotonic() - started)
                passes[mode].append(run_worker(args.workload, args.seed, mode, remaining))
            if time.monotonic() - started >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_end"] = loadavg()

    every = passes[0] + passes[1]
    attempted = sum(p["jobs"] for p in every)
    failed = sum(p["failed"] for p in every)
    untraced = passes[0]
    detail = {
        "meta": meta,
        "why": WORKLOAD_WHY[args.workload],
        "passes": len(every),
        "failed_share": failed / attempted,
        "failures": sorted({f for p in every for f in p["failures"]})[:20],
        "per_pass": [
            {k: p[k] for k in PER_PASS_KEYS} for p in every
        ],
    }
    if args.trace == 0:
        latency = job_latency(untraced)
        detail.update(latency)
        metrics = {
            name: {
                "value": latency[name] if name in latency else median_of(untraced, name),
                "unit": unit,
            }
            for name, unit in END_TO_END.items()
        }
    else:
        traced = passes[1]
        names = traced[0]["layers"]
        metrics = {
            name: {"value": statistics.median(p["layers"][name] for p in traced),
                   "unit": layer_unit(name)}
            for name in names
        }
        overhead = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": overhead / median_of(untraced, "wall_s"), "unit": "share",
        }
        detail["shares"] = traced[-1]["shares"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
