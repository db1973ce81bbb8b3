"""In-memory spans around the public functions of each timecredits layer.

A traced pass patches every module-level binding of a layer's public
functions inside the ``timecredits`` package with a wrapper that opens a
span (name, start, end, parent, job) and closes it when the call returns.
Nothing under ``src/`` changes: the wrappers live here and are installed
only in traced passes, so untraced passes run the code exactly as shipped.

A layer's self time is the summed duration of its spans minus the time
their direct child spans cover.  Spans of one thread nest, so the direct
children of a span never overlap and their durations can simply be added.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# span name -> (module, attribute) pairs of the public functions it covers.
# The runtime functions of the case studies are discovered by name instead
# (see ``_time_functions``) and share the span name ``algorithms.time_fn``.
LAYERS = {
    "heap.run": [("timecredits.heap", "run"), ("timecredits.heap", "run_traced")],
    "assertions.check_triple": [("timecredits.assertions", "check_triple")],
    "assertions.sat": [("timecredits.assertions", "sat")],
    "credits.subtract_match": [("timecredits.credits", "subtract_match")],
    "landau.calibrate_witness": [("timecredits.landau", "calibrate_witness")],
    "landau.check_theta_witness": [("timecredits.landau", "check_theta_witness")],
    "recurrence.akra_bazzi_class": [("timecredits.recurrence", "akra_bazzi_class")],
    "recurrence.empirical_ratio_check": [("timecredits.recurrence", "empirical_ratio_check")],
    "amortized.check_op_inequality": [("timecredits.amortized", "check_op_inequality")],
    "amortized.minimal_multiplier": [("timecredits.amortized", "minimal_multiplier")],
}
TIME_FN = "algorithms.time_fn"
SNAPSHOT = "heap.snapshot"


class NullTracer:
    """Tracer used in untraced passes: every hook is a no-op."""

    job = None

    def span(self, name):
        return _NULL_SPAN

    def install(self):
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and per-layer counts for one pass.

    ``job`` is set by ``worker.run_pass`` before each job; every span opened
    while it is set carries it.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self._stack: list[int] = []
        self.job = None
        self.units = 0
        self.job_units: dict = defaultdict(int)
        self.match_failures = 0
        self.snapshot_us: list[float] = []
        self.max_cells = 0
        self._patches: dict[str, list] = defaultdict(list)
        self._depth: dict[str, int] = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of each layer's public functions."""
        targets = []
        for name, refs in LAYERS.items():
            for mod_name, attr in refs:
                targets.append((name, getattr(importlib.import_module(mod_name), attr)))
        targets.extend((TIME_FN, fn) for fn in _time_functions())
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("timecredits")]
        for name, original in targets:
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches[name].append((module, attr, original, wrapper))

    def _set_bindings(self, name: str, use_original: bool) -> None:
        for module, attr, original, wrapper in self._patches[name]:
            setattr(module, attr, original if use_original else wrapper)

    def _wrap(self, name, original):
        tracer = self
        if name == "heap.run":
            def wrapper(comp, heap):
                snap = tracer.open(SNAPSHOT)
                heap.clone()
                tracer.close(snap)
                start, end = tracer.spans[snap][1:3]
                tracer.snapshot_us.append((end - start) * 1e6)
                cells = len(heap.refs) + sum(len(a) for a in heap.arrays.values())
                tracer.max_cells = max(tracer.max_cells, cells)
                idx = tracer.open(name)
                try:
                    out = original(comp, heap)
                finally:
                    tracer.close(idx)
                outcome = out[0] if isinstance(out, tuple) else out
                cost = getattr(outcome, "cost", 0)
                tracer.units += cost
                tracer.job_units[tracer.job] += cost
                return out
        elif name == TIME_FN:
            # Runtime functions recurse through their module-level names, so
            # the outermost call restores the originals until it returns:
            # nested evaluations count as this span's self time, not as
            # millions of child spans.
            def wrapper(*args, **kwargs):
                if tracer._depth[name]:
                    return original(*args, **kwargs)
                tracer._depth[name] += 1
                tracer._set_bindings(name, use_original=True)
                idx = tracer.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    tracer._set_bindings(name, use_original=False)
                    tracer._depth[name] -= 1
        elif name == "credits.subtract_match":
            from timecredits.credits import MatchFailure

            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    return original(*args, **kwargs)
                except MatchFailure:
                    tracer.match_failures += 1
                    raise
                finally:
                    tracer.close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(idx)
        wrapper.__wrapped__ = original
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _time_functions() -> list:
    """Runtime (bound) functions of the case studies: module-level callables
    named ``*_time`` defined in ``timecredits.algorithms``."""
    import timecredits.algorithms as pkg

    found = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith(pkg.__name__ + "."):
            continue
        for attr, value in vars(module).items():
            if (
                attr.endswith("_time")
                and not attr.startswith("make_")
                and callable(value)
                and getattr(value, "__module__", None) == mod_name
                and value not in found
            ):
                found.append(value)
    return found


def self_times(spans) -> dict[str, list]:
    """Per span name: [summed self seconds, call count, summed inclusive seconds]."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent, job) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0, 0.0])
        acc[0] += (end - start) - child_time[i]
        acc[1] += 1
        acc[2] += end - start
    return out


def op_growth(spans, series_of_job) -> tuple[list[float], float]:
    """Ledger-operation durations (µs) and their growth.

    An operation's duration leaves out the heap copies the tracer itself
    times inside it (``heap.snapshot``).  Operations are grouped into series
    by the job that issued them; growth is the summed duration of the last
    quarter of each series divided by that of its first quarter.
    """
    snapshot_in = defaultdict(float)
    for name, start, end, parent, job in spans:
        if name == SNAPSHOT:
            snapshot_in[parent] += end - start
    series: dict = defaultdict(list)
    for i, (name, start, end, parent, job) in enumerate(spans):
        if name == "amortized.check_op_inequality":
            series[series_of_job(job)].append((end - start - snapshot_in[i]) * 1e6)
    first = last = 0.0
    every = []
    for durations in series.values():
        every.extend(durations)
        q = len(durations) // 4
        if q:
            first += sum(durations[:q])
            last += sum(durations[-q:])
    growth = last / first if first else 0.0
    return every, growth


_NO_SPANS = (0.0, 0, 0.0)


def layer_metrics(tracer: Tracer, wall_s: float, series_of_job) -> tuple[dict, dict]:
    """The per-layer figures of one traced pass, keyed by metric name, and
    each span name's self time as a share of the pass's wall time."""
    totals = self_times(tracer.spans)

    def self_s(name):
        return totals.get(name, _NO_SPANS)[0]

    def calls(name):
        return totals.get(name, _NO_SPANS)[1]

    op_us, growth = op_growth(tracer.spans, series_of_job)
    busy = totals.get("heap.run", _NO_SPANS)[2]
    metrics = {
        "heap.run.self_s": self_s("heap.run"),
        "heap.run.calls": calls("heap.run"),
        "heap.run.self_share": self_s("heap.run") / wall_s,
        "heap.units": tracer.units,
        "heap.units_per_busy_s": tracer.units / busy if busy else 0.0,
        "heap.snapshot_us": statistics.median(tracer.snapshot_us) if tracer.snapshot_us else 0.0,
        "heap.cells": tracer.max_cells,
        "amortized.op_us_p50": statistics.median(op_us) if op_us else 0.0,
        "amortized.op_us_growth": growth,
        "amortized.check_op_inequality.self_s": self_s("amortized.check_op_inequality"),
        "amortized.minimal_multiplier.self_s": self_s("amortized.minimal_multiplier"),
        "credits.match_failures": tracer.match_failures,
    }
    for name in (
        "assertions.check_triple",
        "assertions.sat",
        "credits.subtract_match",
    ):
        metrics[name + ".self_s"] = self_s(name)
        metrics[name + ".calls"] = calls(name)
    for name in (
        "landau.calibrate_witness",
        "landau.check_theta_witness",
        "recurrence.akra_bazzi_class",
        "recurrence.empirical_ratio_check",
        TIME_FN,
        "algorithms.class_check",
        "algorithms.fault_probe",
        "algorithms.build_registry",
        "algorithms.reference",
    ):
        metrics[name + ".self_s"] = self_s(name)
    analysis = sum(
        self_s(n)
        for n in totals
        if n.startswith(("landau.", "recurrence.")) or n == TIME_FN
    )
    metrics["analysis.self_share"] = analysis / wall_s
    shares = {n: v[0] / wall_s for n, v in sorted(totals.items())}
    return metrics, shares
