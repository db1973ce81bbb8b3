"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload interp-sweep --seed 0 --trace 0

Each pass starts cold, as a command-line user does: the memo tables the
library keeps per process (``select.select_time``, ``AkraBazziSpec._memo``)
start empty.  Python's garbage collector stays on.  The pass prints one
JSON object with its measurements on its last line of standard output.

Times are reported at a reference machine speed.  Every 50 ms, between
jobs, the pass times a fixed slice of pure-Python work (``probe``); its
times are divided by the median probe time over ``REF_PROBE_S``.  On a
shared host the speed of the same code drifts by a third over minutes, and
the probe moves with it, so scaled times stay comparable across runs.  The
unscaled times are kept under ``raw``.  Probe time is not part of any job.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
PROBE_EVERY_S = 0.05
REF_PROBE_S = 0.001  # probe time at the reference speed the times are scaled to


def _probe_gen(n):
    for i in range(n):
        yield i


def probe() -> float:
    """Seconds for a fixed slice of pure-Python work, about a millisecond:
    generator resumptions with dict updates, then integer arithmetic.  Host
    contention slows the first more and the second less than it slows the
    workloads; together they track the workloads.  The slice makes no
    container objects, so the garbage collector never runs in it."""
    start = time.perf_counter()
    d = {}
    for i in _probe_gen(2000):
        d[i & 255] = i ^ d.get((i * 7) & 255, 0)
    s = 0
    for i in range(6000):
        s = (s * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def run_pass(workload: str, seed: int, trace: bool, scale: float, golden) -> dict:
    """Import, set up, build the seeded jobs, run them, and check them.

    ``golden`` is the parsed golden file, or None to skip the comparison
    with pinned values (as when regenerating the file)."""
    t0 = time.perf_counter()
    import timecredits  # part of the set-up being timed
    import workloads as W
    from timecredits.algorithms import all_bundles
    from tracer import NullTracer, Tracer, layer_metrics

    tracer = Tracer() if trace else NullTracer()
    tracer.install()  # before the bundles capture any function
    bundles = all_bundles()
    setup_s = time.perf_counter() - t0
    if Path(timecredits.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"timecredits imported from {timecredits.__file__}, not from {ROOT / 'src'}")

    ctx = W.Ctx(bundles, tracer, seed, workload, scale)
    jobs = W.build_jobs(workload, ctx)
    verdicts = []
    latencies = []
    probes = [probe() for _ in range(3)]
    probe_time = 0.0
    wall_start = time.perf_counter()
    next_probe = wall_start + PROBE_EVERY_S
    for i, job in enumerate(jobs):
        tracer.job = i
        start = time.perf_counter()
        try:
            with tracer.span("bench.job"):
                verdict = job.fn()
        except Exception as exc:  # a crashing job is a failed job, not a crashed pass
            verdict = W.Verdict(False, note=f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        latencies.append(end - start)
        verdicts.append(verdict)
        if end >= next_probe:
            d = probe()
            probes.append(d)
            probe_time += d
            next_probe = time.perf_counter() + PROBE_EVERY_S
    wall_s = time.perf_counter() - wall_start - probe_time
    tracer.job = None
    probes += [probe() for _ in range(3)]
    slowdown = statistics.median(probes) / REF_PROBE_S
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"workload": workload, "seed": seed, "trace": int(trace)}
    if trace:
        # before the checks below, whose reruns must not count as traced work
        series = [job.series or job.key for job in jobs]
        layers, shares = layer_metrics(tracer, wall_s, lambda j: series[j] if j is not None else None)
        result["layers"] = layers
        result["shares"] = shares
        result["opaque_units"] = {
            job.units_key or job.key: tracer.job_units[i]
            for i, (job, v) in enumerate(zip(jobs, verdicts))
            if v.units is None
        }
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload}-seed{seed}.jsonl")

    failures, units, pins, fixed = check(workload, jobs, verdicts, seed, scale, golden)
    result.update({
        "setup_s": setup_s / slowdown,
        "wall_s": wall_s / slowdown,
        "units_per_s": units * slowdown / wall_s,
        "latencies_ms": [x * 1e3 / slowdown for x in latencies],
        "peak_rss_mb": peak_rss_mb,
        "raw": {"setup_s": setup_s, "wall_s": wall_s},
        "slowdown": slowdown,
        "probes": len(probes),
        "units": units,
        "jobs": len(jobs),
        "failed": len(failures),
        "failures": failures[:10],
        "pins": pins,
        "fixed": fixed,
    })
    return result


def check(workload, jobs, verdicts, seed, scale, golden):
    """Compare every verdict with its references and, where the golden file
    has them, with the pinned values.  Returns the failure descriptions, the
    charged units and the pins seen.  Pins hold for full-size inputs only."""
    full = golden is not None and scale == 1.0
    seeded = golden["seeds"].get(str(seed), {}).get(workload) if full else None
    failures = []
    units = 0
    pins, fixed = {}, {}
    for job, v in zip(jobs, verdicts):
        problems = [] if v.ok else [f"wrong verdict ({v.note})" if v.note else "wrong verdict"]
        pins.update(v.pins)
        fixed.update(v.fixed)
        if seeded is not None:
            problems += [
                f"{k}={val!r}, pinned {seeded.get(k)!r}"
                for k, val in v.pins.items()
                if seeded.get(k) != val
            ]
        if full:
            problems += [
                f"{k}={val!r}, pinned {golden['fixed'].get(k)!r}"
                for k, val in v.fixed.items()
                if golden["fixed"].get(k) != val
            ]
        u = v.units() if callable(v.units) else v.units
        if u is None:
            u = golden["units"].get(job.units_key or job.key) if full else 0
            if u is None:
                problems.append("no pinned units")
                u = 0
        units += u
        if problems:
            failures.append(f"{job.key}: {'; '.join(problems)}")
    if seeded is not None:
        missing = sorted(set(seeded) - set(pins))
        if missing:
            failures.append(f"pinned values never produced: {', '.join(missing[:5])}")
    return failures, units, pins, fixed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (smoke tests); pins apply at 1.0 only")
    parser.add_argument("--unpinned", action="store_true",
                        help="skip the golden comparison (used to regenerate golden.json)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    golden = None if args.unpinned else load_golden()
    result = run_pass(args.workload, args.seed, bool(args.trace), args.scale, golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
