"""Job lists of the three benchmark workloads, built from a seed.

A job is one interpreter run, one ledger operation, or one check.  Every
job returns a ``Verdict``: whether its outputs are right, the values the
golden file pins for it, and the charged units of interpreter work it
stands for.  Inputs are generated when the list is built, outside the
timed region; the program under test only ever sees the generated inputs.

Every workload also runs the control jobs: the known negatives (which must
still fail) plus the cheapest positive check of each layer, so that a
checker cannot get faster by deciding less and every layer is measured on
every workload.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from timecredits import amortized as A
from timecredits import assertions as S
from timecredits import heap as H
from timecredits import landau as L
from timecredits import recurrence as R
from timecredits.algorithms import bundles as B
from timecredits.algorithms import dynarray as dyn
from timecredits.algorithms import karatsuba as kara
from timecredits.algorithms import knapsack as knap
from timecredits.algorithms import search as srch
from timecredits.algorithms import select as sel
from timecredits.algorithms import skew_heap as skew
from timecredits.algorithms import sorting as srt
from timecredits.algorithms import splay_tree as spl

FIRST_ARRAY = H.Addr(0, S.ARRAY)  # the first allocation of a fresh heap


@dataclass
class Verdict:
    ok: bool
    pins: dict = field(default_factory=dict)  # seed-dependent pinned values
    fixed: dict = field(default_factory=dict)  # pinned values every seed shares
    units: Any = 0  # int, or None when the job's units are pinned by key
    note: str = ""


@dataclass
class Job:
    key: str
    fn: Callable[[], Verdict]
    series: Optional[str] = None  # ledger jobs of one script share a series
    units_key: Optional[str] = None  # golden key of pinned units, if not ``key``


class Ctx:
    """What job builders share: the bundles, the tracer, the seeded rng."""

    def __init__(self, bundles, tracer, seed: int, workload: str, scale: float):
        self.bundles = bundles
        self.tracer = tracer
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(f"{workload}:{seed}")

    def size(self, n: int, floor: int = 4) -> int:
        """An input size, shrunk by ``scale`` for smoke tests."""
        return max(floor, int(n * self.scale))

    def count(self, k: int) -> int:
        """A job count, shrunk less than sizes are for smoke tests."""
        return max(1, int(k * min(1.0, self.scale * 4)))

    def reference(self, fn, *args):
        with self.tracer.span("algorithms.reference"):
            return fn(*args)


def build_jobs(workload: str, ctx: Ctx) -> list[Job]:
    builders = {
        "interp-sweep": interp_jobs,
        "ledger-growth": ledger_jobs,
        "claim-check": claim_jobs,
    }
    return builders[workload](ctx) + control_jobs(ctx)


# ---------------------------------------------------------------------------
# interp-sweep
# ---------------------------------------------------------------------------

def _heap_array(values):
    made = H.run(H.array_of_list(list(values)), H.empty_heap())
    return made.value, made.heap, made.cost


def _array_run(ctx, key, bundle, impl, reference, xs, extra=()):
    """Run ``impl`` on an array holding xs and compare the final array (or
    the returned value, for selections) with the pure reference."""

    def job():
        addr, heap, setup_units = _heap_array(xs)
        out = H.run(impl(addr, *extra), heap)
        if out is H.FAILURE:
            return Verdict(False, note="run failed", units=setup_units)
        if extra:
            got = out.value
        else:
            got = out.heap.arrays[addr.index]
        want = ctx.reference(reference, xs, *extra)
        within = out.cost <= bundle.bound(len(xs))
        return Verdict(got == want and within, {key: out.cost}, units=setup_units + out.cost)

    return Job(key, job)


def _karatsuba_run(ctx, key, bundle, p, q):
    def job():
        pa, heap, u1 = _heap_array(p)
        made = H.run(H.array_of_list(list(q)), heap)
        out = H.run(kara.karatsuba_impl(pa, made.value), made.heap)
        units = u1 + made.cost
        if out is H.FAILURE:
            return Verdict(False, note="run failed", units=units)
        got = out.heap.arrays[out.value.index]
        want = ctx.reference(kara.karatsuba_fun, p, q)
        within = out.cost <= bundle.bound(len(p))
        return Verdict(got == want and within, {key: out.cost}, units=units + out.cost)

    return Job(key, job)


def _knapsack_run(ctx, key, bundle, items, capacity):
    def job():
        out = H.run(knap.knapsack_impl(items, capacity), H.empty_heap())
        if out is H.FAILURE:
            return Verdict(False, note="run failed")
        want = ctx.reference(knap.knapsack_fun, items, capacity)
        within = out.cost <= bundle.bound((len(items), capacity))
        return Verdict(out.value == want and within, {key: out.cost}, units=out.cost)

    return Job(key, job)


def _bsearch_run(ctx, key, bundle, xs, needle):
    def job():
        addr, heap, setup_units = _heap_array(xs)
        out = H.run(srch.binary_search_impl(addr, needle), heap)
        if out is H.FAILURE:
            return Verdict(False, note="run failed", units=setup_units)
        want = ctx.reference(srch.binary_search_fun, xs, needle)
        pos = out.value
        found_ok = (pos is None) == (want is None) and (pos is None or xs[pos] == needle)
        within = out.cost <= bundle.bound(len(xs))
        return Verdict(found_ok and within, {key: out.cost}, units=setup_units + out.cost)

    return Job(key, job)


def _merge_sort_triple(ctx, key, xs, undercredit=0):
    """Concrete triple: the array plus merge_sort_time(n) - undercredit
    credits sorts in place (post is Top-absorbing)."""
    n = len(xs)

    def job():
        budget = srt.merge_sort_time(n) - undercredit
        want = ctx.reference(srt.merge_sort_fun, xs)
        triple = S.HoareTriple(
            S.points_to_array(FIRST_ARRAY, xs) * S.Credits(budget),
            lambda ph: srt.merge_sort_impl(FIRST_ARRAY),
            lambda r: S.points_to_array(FIRST_ARRAY, want),
            top_absorbing=True,
        )
        addr, heap, setup_units = _heap_array(xs)
        verdict = S.check_triple(triple, S.pheap(heap, {addr}, budget))
        cost = sum(c for _, c in verdict.trace)
        if undercredit:
            ok = (
                verdict.kind == S.FAIL_CREDITS
                and verdict.needed == budget + undercredit
                and verdict.available == budget
            )
        else:
            ok = verdict.passed and not verdict.vacuous
        return Verdict(ok, {key: cost}, units=setup_units + cost, note=verdict.describe())

    return Job(key, job)


def interp_jobs(ctx: Ctx) -> list[Job]:
    b, rng = ctx.bundles, ctx.rng
    jobs = []

    def ints(n, lo=-(10**6), hi=10**6):
        return [rng.randrange(lo, hi) for _ in range(n)]

    sorts = [
        ("merge_sort", srt.merge_sort_impl, srt.merge_sort_fun, 2048, 4),
        ("merge_sort", srt.merge_sort_impl, srt.merge_sort_fun, 4096, 2),
        ("insertion_sort", srt.insertion_sort_impl, srt.insertion_sort_fun, 256, 4),
    ]
    for name, impl, ref, n, k in sorts:
        for t in range(ctx.count(k)):
            xs = ints(ctx.size(n))
            jobs.append(_array_run(ctx, f"interp.{name}.{len(xs)}.{t}", b[name], impl, ref, xs))
    for t in range(ctx.count(4)):
        n = ctx.size(128)
        p, q = ints(n, -99, 100), ints(n, -99, 100)
        jobs.append(_karatsuba_run(ctx, f"interp.karatsuba.{n}.{t}", b["karatsuba"], p, q))
    for t in range(ctx.count(4)):
        xs = ints(ctx.size(4000))
        i = rng.randrange(len(xs))
        jobs.append(
            _array_run(
                ctx, f"interp.select.{len(xs)}.{t}", b["select"], sel.select_impl,
                sel.select_fun, xs, extra=(i,),
            )
        )
    for t in range(ctx.count(24)):
        # the cost depends on the multiset of weights only, so it is fixed
        # and the seed shuffles the weights and draws the values
        n = ctx.size(60)
        weights = [i % 13 for i in range(n)]
        rng.shuffle(weights)
        items = [(w, rng.randrange(0, 50)) for w in weights]
        jobs.append(_knapsack_run(ctx, f"interp.knapsack.{n}.{t}", b["knapsack"], items, n))
    for t in range(ctx.count(16)):
        n = ctx.size(4096)
        xs = sorted(rng.randrange(-3 * n, 3 * n) for _ in range(n))
        needle = rng.choice(xs) if rng.random() < 0.5 else rng.randrange(-3 * n, 3 * n)
        jobs.append(_bsearch_run(ctx, f"interp.binary_search.{n}.{t}", b["binary_search"], xs, needle))
    for t, n in enumerate((512, 1024, 1024)[: ctx.count(3)]):
        xs = ints(ctx.size(n))
        jobs.append(_merge_sort_triple(ctx, f"interp.triple.{len(xs)}.{t}", xs))
    rng.shuffle(jobs)  # interleave sizes so no case study owns one end of the pass
    return jobs


# ---------------------------------------------------------------------------
# ledger-growth
# ---------------------------------------------------------------------------

def _model_contents(name, script):
    """Contents of a pure Python model after the script: the reference the
    interpreter-resident structure is compared with."""
    if name == "skew_heap":
        items = []
        for op, arg in script:
            if op == "insert":
                heapq.heappush(items, arg)
            else:
                heapq.heappop(items)
        return sorted(items)
    if name == "splay_tree":
        return sorted({arg for op, arg in script if op == "insert"})
    return [arg for op, arg in script if op == "push"]


def _resident_contents(name, structure):
    """Contents read back from the interpreter heap, not from the mirror."""
    if name == "skew_heap":
        return sorted(skew.skew_elements(skew.skew_extract(structure.heap, structure.root)))
    if name == "splay_tree":
        return sorted(spl.set_tree(spl.splay_extract(structure.heap, structure.root)))
    cells = structure.heap.arrays[structure.data.index]
    return list(cells[: structure.length])


LEDGERS = {
    # name: (scheme factory, fresh structure, shape, scheme multiplier, ops)
    "skew_heap": (skew.skew_scheme, skew.new_skew_heap, skew.skew_shape, skew.SKEW_MULTIPLIER, 3000),
    "splay_tree": (spl.splay_scheme, spl.new_splay_tree, spl.splay_shape, spl.SPLAY_MULTIPLIER, 3000),
    "dynarray": (dyn.dynarray_scheme, dyn.new_dynarray, lambda n: 1, dyn.DYNARRAY_PUSH_MULTIPLIER, 4000),
}
K_PREFIX = 1000  # corpus prefix for the multiplier search


def _ledger_script_jobs(ctx, name) -> list[Job]:
    factory, fresh, shape, multiplier, n_ops = LEDGERS[name]
    script = ctx.bundles[name].gen_input(ctx.rng, ctx.size(n_ops))
    scheme = factory()
    state = {"structure": fresh(), "entries": []}
    p0 = scheme.potential(state["structure"])
    series = f"ledger.{name}"
    jobs = []

    def op_job(op, arg):
        def job():
            entry, state["structure"] = A.check_op_inequality(scheme, op, state["structure"], arg)
            state["entries"].append(entry)
            return Verdict(entry.passes, units=entry.actual_cost)
        return job

    def close_job():
        entries = state["entries"]
        total = sum(e.actual_cost for e in entries)
        amortized = sum(e.amortized for e in entries)
        final = scheme.potential(state["structure"])
        want = ctx.reference(_model_contents, name, script)
        ok = (
            len(entries) == len(script)
            and total <= amortized + p0 - final
            and _resident_contents(name, state["structure"]) == want
        )
        pins = {f"{series}.total_actual": total, f"{series}.final_potential": final}
        return Verdict(ok, pins)

    def k_job():
        prefix = script[: min(len(script), K_PREFIX)]
        corpus = A.collect_corpus(scheme, prefix, fresh())
        found = A.minimal_multiplier(scheme, shape, corpus)
        # the corpus is run twice: once to collect it, once to measure it
        units = 2 * sum(e.actual_cost for e in state["entries"][: len(prefix)])
        ok = 1 <= found.multiplier <= multiplier
        return Verdict(ok, {f"{series}.K": found.multiplier}, units=units)

    for i, (op, arg) in enumerate(script):
        jobs.append(Job(f"{series}.op.{i}", op_job(op, arg), series))
    jobs.append(Job(f"{series}.close", close_job, series))
    jobs.append(Job(f"{series}.K", k_job, series + ".K"))
    return jobs


def ledger_jobs(ctx: Ctx) -> list[Job]:
    jobs = []
    for name in LEDGERS:
        jobs.extend(_ledger_script_jobs(ctx, name))
    return jobs


# ---------------------------------------------------------------------------
# claim-check
# ---------------------------------------------------------------------------

BUILTIN_RECURRENCES = {
    "merge_sort": srt.merge_sort_recurrence,
    "karatsuba": kara.karatsuba_recurrence,
    "binary_search": srch.bsearch_recurrence,
    "select": sel.select_recurrence,
}
REGISTRY_SWEEP = 1 << 9


def _perturbed(cls):
    """The claimed class with its leading exponent raised by one."""
    if isinstance(cls, L.PolyLog):
        return L.PolyLog(cls.power + 1, cls.log_power)
    if isinstance(cls, L.PolyLog2):
        return L.PolyLog2(cls.m_power + 1, cls.m_log, cls.n_power, cls.n_log)
    return L.RealPowerClass(cls.exponent + 1)


def _claim_job(key, bundle):
    def job():
        return Verdict(True, fixed={key: bundle.claim().render()})
    return Job(key, job)


def _class_check_job(ctx, key, bundle):
    def job():
        with ctx.tracer.span("algorithms.class_check"):
            ok = bundle.class_check()
        return Verdict(ok is True)
    return Job(key, job)


def _discharge_job(key, bundle):
    def job():
        reports = B.discharge_all(bundle)
        hints = {f"{key}.{r.obligation}.hints": r.hints_used for r in reports}
        ok = all(r.success for r in reports) and sum(hints.values()) == bundle.declared_hints
        return Verdict(ok, fixed=hints)
    return Job(key, job)


def _fault_job(ctx, key, bundle, const):
    def job():
        with ctx.tracer.span("algorithms.fault_probe"):
            detected = B.constant_fault_detected(bundle, const)
        return Verdict(detected is True, units=None)
    return Job(key, job, units_key=f"fault.{bundle.name}.{const}")


def _perturbation_job(ctx, key, bundle):
    def job():
        variant = _perturbed(bundle.claim())
        with ctx.tracer.span("algorithms.fault_probe"):
            rejected = not B.check_claimed_class(bundle, variant) and not bundle.class_fault_check(variant)
        return Verdict(rejected)
    return Job(key, job)


def _recurrence_job(key, make_spec):
    def job():
        spec = make_spec()
        result = R.akra_bazzi_class(spec)
        report = R.empirical_ratio_check(spec, result.result_class, 2 ** 8, 2 ** 16)
        return Verdict(report.passed, fixed={key: result.render()})
    return Job(key, job)


def _registry_job(ctx, key, sweep):
    def job():
        with ctx.tracer.span("algorithms.build_registry"):
            registry = B.build_registry(sweep)
        rendered = ",".join(
            f"{e.name}:{e.cls.render()}" for e in registry.entries.values()
        )
        return Verdict(len(registry.entries) == 8, fixed={key: rendered}, units=None)
    return Job(key, job)


def _schematic_triple(n: int) -> S.HoareTriple:
    """One triple for every length-n array: contents quantified away."""
    budget = srt.merge_sort_time(n)

    def has_contents(v):
        if not (isinstance(v, tuple) and len(v) == n):
            return S.Pure(False)
        return S.points_to_array(FIRST_ARRAY, v) * S.Credits(budget)

    def is_sorted_now(v):
        if not (isinstance(v, tuple) and len(v) == n):
            return S.Pure(False)
        return S.points_to_array(FIRST_ARRAY, v) * S.Pure(list(v) == sorted(v))

    return S.HoareTriple(
        pre=S.ExistsVal(has_contents, note="xs"),
        prog=lambda ph: srt.merge_sort_impl(FIRST_ARRAY),
        post=lambda r: S.ExistsVal(is_sorted_now, note="ys"),
        top_absorbing=True,
    )


def _sampled_triple_job(ctx, key, n, trials):
    models = []

    def gen(rng):
        xs = [rng.randrange(-8, 9) for _ in range(n)]
        addr, heap, _ = _heap_array(xs)
        models.append(heap)
        return S.pheap(heap, {addr}, srt.merge_sort_time(n))

    def units():
        # the report keeps no costs, so they are recomputed after timing
        made = 0
        for heap in models:
            made += n + 1 + H.run(srt.merge_sort_impl(FIRST_ARRAY), heap).cost
        return made

    def job():
        models.clear()
        report = S.check_triple_sampled(_schematic_triple(n), gen, trials, seed=ctx.seed)
        ok = report.ok and report.passes == trials and report.vacuous == 0
        return Verdict(ok, {key: report.passes}, units=units)

    return Job(key, job)


def claim_jobs(ctx: Ctx) -> list[Job]:
    jobs = []
    for name, bundle in ctx.bundles.items():
        jobs.append(_claim_job(f"claim.{name}.class", bundle))
        jobs.append(_class_check_job(ctx, f"claim.{name}.class_check", bundle))
        jobs.append(_discharge_job(f"claim.{name}.discharge", bundle))
        for const in bundle.consts:
            jobs.append(_fault_job(ctx, f"claim.{name}.fault.{const}", bundle, const))
        jobs.append(_perturbation_job(ctx, f"claim.{name}.perturbed", bundle))
    for name, make_spec in BUILTIN_RECURRENCES.items():
        jobs.append(_recurrence_job(f"claim.recurrence.{name}", make_spec))
    sweep = ctx.size(REGISTRY_SWEEP, floor=8)
    jobs.append(_registry_job(ctx, f"claim.registry.{sweep}", sweep))
    for t, n in enumerate((12, 16)):
        jobs.append(_sampled_triple_job(ctx, f"claim.sampled_triple.{n}.{t}", n, ctx.count(40)))
    return jobs


# ---------------------------------------------------------------------------
# controls, run by every workload
# ---------------------------------------------------------------------------

CONTROL_TRIPLE_N = 512
CONTROL_PUSHES = 600
CONTROL_REGISTRY_SWEEP = 32


def _dynarray_k_minus_1(key, pushes):
    def job():
        scheme = dyn.dynarray_scheme()
        corpus = A.collect_corpus(scheme, pushes, dyn.new_dynarray())
        k = A.minimal_multiplier(scheme, lambda n: 1, corpus).multiplier
        weakened = A.run_sequence(dyn.dynarray_scheme(k - 1), pushes, dyn.new_dynarray())
        return Verdict(not weakened.passed, fixed={key + ".K": k}, units=None)
    return Job(key, job, series=key)


def control_jobs(ctx: Ctx) -> list[Job]:
    rng = random.Random(f"controls:{ctx.seed}")
    jobs = []
    worst = srt.merge_sort_worst_input(ctx.size(CONTROL_TRIPLE_N))
    jobs.append(_merge_sort_triple(ctx, f"controls.undercredited_triple.{len(worst)}", worst, undercredit=1))
    pushes = [("push", rng.randrange(100)) for _ in range(ctx.size(CONTROL_PUSHES))]
    jobs.append(_dynarray_k_minus_1(f"controls.dynarray_k_minus_1.{len(pushes)}", pushes))
    for name, bundle in ctx.bundles.items():
        if bundle.consts:
            const = rng.choice(sorted(bundle.consts))
            jobs.append(_fault_job(ctx, f"controls.{name}.fault.{const}", bundle, const))
        jobs.append(_perturbation_job(ctx, f"controls.{name}.perturbed", bundle))
    jobs.append(_class_check_job(ctx, "controls.karatsuba.class_check", ctx.bundles["karatsuba"]))
    jobs.append(_registry_job(ctx, f"controls.registry.{CONTROL_REGISTRY_SWEEP}", CONTROL_REGISTRY_SWEEP))
    return jobs
