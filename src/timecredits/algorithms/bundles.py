"""The case-study table and the one class that turns a row into checks.

Each row of ``STUDIES`` is declarative: how to generate and run an input,
the runtime bound and the recurrence or loop spec as functions of the
constants, the solver outcome the spec must yield, the empirical checks its
class must survive, and the credit obligations with their declared hint
count (only binary search and selection carry one).  ``AlgorithmBundle``
binds a row to one set of constants and derives the bound, the claim, the
class checks and the fault variants from it, so the asymptotic claim is
always recomputed from the runtime function; nothing is asserted by hand.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from ..amortized import HarnessError, run_sequence
from ..credits import (
    HintAbsent,
    HintUnprovable,
    MatchFailure,
    justify_hint,
    rewrite_hint,
    subtract_match,
)
from ..heap import FAILURE, adrop, array_of_list, atake, empty_heap, run
from ..landau import (
    DECLARED,
    BoundRegistry,
    PolyLog,
    PolyLog2,
    SOLVED,
    SumClass2,
    calibrate_witness,
    check_theta_witness,
    geometric_samples,
    grid_samples,
)
from ..recurrence import (
    BALANCED,
    BOTTOM_HEAVY,
    TOP_HEAVY,
    AkraBazziSpec,
    akra_bazzi_class,
    empirical_ratio_check,
    linear_rec_class,
)
from ..records import field, record
from . import dynarray as dyn
from . import karatsuba as kara
from . import knapsack as knap
from . import search as srch
from . import select as sel
from . import skew_heap as skew
from . import sorting as srt
from . import splay_tree as spl


@record
class RunResult:
    output: Any
    cost: int
    size: int
    ok: bool


@record
class DischargeReport:
    obligation: str
    success: bool
    hints_used: int
    detail: str = ""


@record
class CaseStudy:
    """One row of the table.  ``time``, ``spec``, ``witness`` and
    ``obligations`` take the constants, so one row serves every variant."""

    name: str
    gen_input: Callable[[random.Random, int], Any]
    run: Callable[[Any], RunResult]
    time: Callable[[dict], Callable[[Any], int]]  # the bound on a run of a size
    spec: Optional[Callable[[dict], Any]] = None  # Akra-Bazzi or loop spec
    case: Optional[str] = None  # expected Akra-Bazzi case
    cls: Any = None  # expected class, when it is a natural-exponent one
    p: Optional[tuple[float, float]] = None  # expected exponent and tolerance
    ratio_hi: Optional[int] = None  # empirical ratio check on [2^8, ratio_hi]
    witness: Optional[Callable[[dict], Callable]] = None  # Theta-witness target
    obligations: Callable[[dict], list] = lambda consts: []
    declared_hints: int = 0
    consts: dict = field(default_factory=dict)
    tight_inputs: Callable[[], list] = lambda: []


class AlgorithmBundle:
    """A case study bound to one set of runtime-function constants."""

    def __init__(self, study: CaseStudy, consts: Optional[dict] = None):
        self.study = study
        self.name = study.name
        self.consts = dict(study.consts if consts is None else consts)
        self.declared_hints = study.declared_hints
        self.gen_input = study.gen_input
        self.run = study.run
        self.bound = study.time(self.consts)

    def check_run(self, case) -> tuple[RunResult, Any, bool]:
        """The run of one input, the bound at its size, and whether it is within."""
        result = self.run(case)
        bound = self.bound(result.size)
        return result, bound, result.cost <= bound

    def with_consts(self, consts: dict) -> "AlgorithmBundle":
        return AlgorithmBundle(self.study, consts)

    def obligations(self) -> list:
        return self.study.obligations(self.consts)

    def tight_inputs(self) -> list:
        return self.study.tight_inputs()

    def _solve(self):
        """(case, exponent, class) by the Akra-Bazzi or loop rule; a ledger
        has no spec and its class is read off its per-operation shape."""
        spec = self.study.spec(self.consts) if self.study.spec else None
        if isinstance(spec, AkraBazziSpec):
            result = akra_bazzi_class(spec)
            return result.case, result.p, result.result_class
        if spec is not None:
            return None, None, linear_rec_class(spec)
        shape = self.study.witness(self.consts)
        return None, None, PolyLog(0, 1) if shape(4) > shape(2) else PolyLog(0, 0)

    def claim(self):
        return self._solve()[2]

    def class_check(self) -> bool:
        """The solver yields the expected outcome, and the class survives the
        row's empirical checks."""
        s = self.study
        case, p, cls = self._solve()
        if case != s.case or (s.cls is not None and cls != s.cls):
            return False
        if s.p is not None and abs(p - s.p[0]) > s.p[1]:
            return False
        if s.ratio_hi and not self._ratio_ok(cls):
            return False
        return s.witness is None or self._witness_ok(cls)

    def class_fault_check(self, cls) -> bool:
        """Whether cls survives the row's decisive empirical check."""
        return self._witness_ok(cls) if self.study.witness else self._ratio_ok(cls)

    def _ratio_ok(self, cls) -> bool:
        spec = self.study.spec(self.consts)
        return empirical_ratio_check(spec, cls, 2 ** 8, self.study.ratio_hi).passed

    def _witness_ok(self, cls) -> bool:
        return _witness_holds(self.study.witness(self.consts), cls)


def _witness_holds(fn, cls) -> bool:
    """Whether a Theta witness for `fn` in `cls`, calibrated on small
    samples, holds on a disjoint larger range; a two-variable class is
    sampled on a grid."""
    if isinstance(cls, (PolyLog2, SumClass2)):
        train, test = grid_samples(2 ** 4, 2 ** 7), grid_samples(2 ** 7, 2 ** 10)
    else:
        train, test = geometric_samples(2 ** 8, 2 ** 12), geometric_samples(2 ** 13, 2 ** 20)
    try:
        witness = calibrate_witness(fn, cls, train)
    except ValueError:
        return False
    return check_theta_witness(fn, cls, witness, test).passed


def discharge_obligation(entry) -> DischargeReport:
    """Try the plain subtraction first; only on failure rewrite the total
    with the declared hints and retry, reporting how many were needed.  A
    hint's justification is consulted only once the rewritten total has
    matched the demand: the discharge needs every hint present, the match
    and every justification, and the justifications cost the most."""
    name, total, demand, hints = entry
    try:
        subtract_match(total, demand)
        return DischargeReport(name, True, 0)
    except MatchFailure as direct_failure:
        if not hints:
            return DischargeReport(name, False, 0, str(direct_failure))
    try:
        working = total
        for hint in hints:
            working = rewrite_hint(working, hint)
        subtract_match(working, demand)
        for hint in hints:
            justify_hint(hint)
        return DischargeReport(name, True, len(hints))
    except (MatchFailure, HintAbsent, HintUnprovable) as exc:
        return DischargeReport(name, False, len(hints), str(exc))


def discharge_all(bundle: AlgorithmBundle) -> list[DischargeReport]:
    return [discharge_obligation(entry) for entry in bundle.obligations()]


def check_claimed_class(bundle: AlgorithmBundle, cls) -> bool:
    """A claimed class is accepted only when it matches the class rederived
    from the runtime function and survives the empirical checks."""
    return cls == bundle.claim() and bundle.class_fault_check(cls)


def constant_fault_detected(bundle: AlgorithmBundle, key: str) -> bool:
    """Decrement one runtime-function constant and report whether any
    acceptance-level check notices: either an obligation stops matching or
    a tight input exceeds the weakened bound.  The obligations are
    discharged in order and the first failure decides."""
    faulted = dict(bundle.consts)
    faulted[key] -= 1
    variant = bundle.with_consts(faulted)
    if not all(discharge_obligation(entry).success for entry in variant.obligations()):
        return True
    checked = (variant.check_run(inp) for inp in variant.tight_inputs())
    return any(not within for _, _, within in checked)


# ---------------------------------------------------------------------------
# inputs and runs
# ---------------------------------------------------------------------------

def _heap_array(values):
    out = run(array_of_list(list(values)), empty_heap())
    return out.value, out.heap


def _ints(rng, n):
    return [rng.randrange(-(10**6), 10**6) for _ in range(n)]


def _sort_run(impl):
    def run_one(xs) -> RunResult:
        addr, heap = _heap_array(xs)
        out = run(impl(addr), heap)
        if out is FAILURE:
            return RunResult(None, 0, len(xs), False)
        got = out.heap.arrays[addr.index]
        return RunResult(got, out.cost, len(xs), got == sorted(xs))

    return run_one


def _search_input(rng, n):
    xs = sorted(rng.randrange(-3 * n - 4, 3 * n + 4) for _ in range(n))
    key = rng.choice(xs) if xs and rng.random() < 0.5 else rng.randrange(-3 * n - 5, 3 * n + 5)
    return (xs, key)


def _search_run(case) -> RunResult:
    xs, key = case
    addr, heap = _heap_array(xs)
    out = run(srch.binary_search_impl(addr, key), heap)
    if out is FAILURE:
        return RunResult(None, 0, len(xs), False)
    pos = out.value
    ok = (key not in xs) if pos is None else (0 <= pos < len(xs) and xs[pos] == key)
    return RunResult(pos, out.cost, len(xs), ok)


def _karatsuba_input(rng, n):
    n = max(1, n)
    return ([rng.randrange(-99, 100) for _ in range(n)], [rng.randrange(-99, 100) for _ in range(n)])


def _karatsuba_run(case) -> RunResult:
    p, q = case
    pa, heap = _heap_array(p)
    made = run(array_of_list(list(q)), heap)
    out = run(kara.karatsuba_impl(pa, made.value), made.heap)
    if out is FAILURE:
        return RunResult(None, 0, len(p), False)
    got = out.heap.arrays[out.value.index]
    return RunResult(got, out.cost, len(p), got == kara.schoolbook(p, q))


def _select_input(rng, n):
    n = max(1, n)
    return (_ints(rng, n), rng.randrange(n))


def _select_run(case) -> RunResult:
    xs, i = case
    addr, heap = _heap_array(xs)
    out = run(sel.select_impl(addr, i), heap)
    if out is FAILURE:
        return RunResult(None, 0, len(xs), False)
    return RunResult(out.value, out.cost, len(xs), out.value == sorted(xs)[i])


def _knapsack_input(rng, n):
    return ([(rng.randrange(0, 13), rng.randrange(0, 50)) for _ in range(n)], max(1, n))


def _knapsack_run(case) -> RunResult:
    items, capacity = case
    out = run(knap.knapsack_impl(items, capacity), empty_heap())
    if out is FAILURE:
        return RunResult(None, 0, (len(items), capacity), False)
    expected = knap.knapsack_fun(items, capacity)
    return RunResult(out.value, out.cost, (len(items), capacity), out.value == expected)


def _dynarray_script(rng, n):
    script = []
    live = 0
    for _ in range(n):
        r = rng.random()
        if r < 0.7 or live == 0:
            script.append(("push", rng.randrange(100)))
            live += 1
        elif r < 0.9:
            script.append(("get", rng.randrange(live)))
        else:
            script.append(("len", None))
    return script


def _skew_script(rng, n):
    script = []
    live = 0
    for _ in range(n):
        if live and rng.random() < 0.45:
            script.append(("del_min", None))
            live -= 1
        else:
            script.append(("insert", rng.randrange(10**6)))
            live += 1
    return script


def _splay_script(rng, n):
    script = []
    for _ in range(n):
        r = rng.random()
        op = "insert" if r < 0.5 else "lookup" if r < 0.9 else "splay"
        script.append((op, rng.randrange(10**5)))
    return script


def _ledger_run(scheme, fresh):
    """Run an operation script on a fresh structure; the cost is the total
    actual cost and the run is correct when the ledger checks pass."""

    def run_one(script) -> RunResult:
        try:
            report = run_sequence(scheme, script, fresh(), seed=None)
        except HarnessError:
            return RunResult(None, 0, len(script), False)
        return RunResult(None, report.total_actual, len(script), report.passed)

    return run_one


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

# the amortized ledgers: name -> (scheme factory, fresh structure,
# per-operation shape, default multiplier)
LEDGERS = {
    "dynarray": (dyn.dynarray_scheme, dyn.new_dynarray, dyn.dynarray_shape,
                 dyn.DYNARRAY_PUSH_MULTIPLIER),
    "skew_heap": (skew.skew_scheme, skew.new_skew_heap, skew.skew_shape, skew.SKEW_MULTIPLIER),
    "splay_tree": (spl.splay_scheme, spl.new_splay_tree, spl.splay_shape, spl.SPLAY_MULTIPLIER),
}


def _ledger_study(name, gen_script) -> CaseStudy:
    """A script of n operations is bounded by n times the per-operation
    claim at the largest size the script can reach."""
    factory, fresh, shape, k = LEDGERS[name]
    return CaseStudy(
        name, gen_script, _ledger_run(factory(), fresh),
        time=lambda c: lambda n: k * n * shape(n + 1), witness=lambda c: shape,
    )


# Time functions and specs are looked up on their modules at call time, so
# a wrapper installed on a module attribute (a profiler or tracer) sees
# every call.
STUDIES = (
    CaseStudy(
        "merge_sort", _ints, _sort_run(srt.merge_sort_impl),
        time=lambda c: lambda n: srt.merge_sort_time(n, c),
        spec=lambda c: srt.merge_sort_recurrence(c), case=BALANCED, cls=PolyLog(1, 1),
        ratio_hi=2 ** 20,
        witness=lambda c: lambda n: srt.merge_sort_time(n, c),
        obligations=srt.merge_sort_obligations, consts=srt.MERGE_SORT_CONSTS,
        tight_inputs=lambda: [srt.merge_sort_worst_input(n) for n in (0, 1, 2, 3, 8, 21)],
    ),
    CaseStudy(
        "insertion_sort", _ints, _sort_run(srt.insertion_sort_impl),
        time=lambda c: lambda n: srt.insertion_sort_time(n, c),
        spec=lambda c: srt.insertion_sort_linear_rec(c), cls=PolyLog(2, 0),
        witness=lambda c: lambda n: srt.insertion_sort_time(n, c),
        obligations=srt.insertion_sort_obligations, consts=srt.INSERTION_SORT_CONSTS,
        tight_inputs=lambda: [list(range(n, 0, -1)) for n in (0, 1, 2, 3, 8, 16)],
    ),
    CaseStudy(
        "binary_search", _search_input, _search_run,
        time=lambda c: lambda n: srch.binary_search_time(n, c),
        spec=lambda c: srch.bsearch_recurrence(c), case=BALANCED, cls=PolyLog(0, 1),
        witness=lambda c: lambda n: srch.binary_search_time(n, c),
        obligations=srch.binary_search_obligations, declared_hints=1,
        consts=srch.BINARY_SEARCH_CONSTS, tight_inputs=lambda: [([], 0), ([5], 3), ([1, 3], 0)],
    ),
    CaseStudy(
        "karatsuba", _karatsuba_input, _karatsuba_run,
        time=lambda c: lambda n: kara.karatsuba_time(n, c),
        spec=lambda c: kara.karatsuba_recurrence(c), case=BOTTOM_HEAVY, p=(1.5849625007, 1e-6),
        ratio_hi=2 ** 18, obligations=kara.karatsuba_obligations, consts=kara.KARATSUBA_CONSTS,
        tight_inputs=lambda: [([1], [1]), ([1, 1], [1, 1]), ([2, 0, 1], [1, 1, 1])],
    ),
    CaseStudy(
        "select", _select_input, _select_run,
        time=lambda c: lambda n: sel.select_run_time(n, c),
        spec=lambda c: sel.select_recurrence(c), case=TOP_HEAVY, cls=PolyLog(1, 0),
        p=(0.8398, 1e-4),
        ratio_hi=2 ** 18, obligations=sel.select_obligations, declared_hints=1,
        consts=sel.SELECT_CONSTS,
        tight_inputs=lambda: [(list(range(n, 0, -1)), 0) for n in (1, 5, 20)],
    ),
    CaseStudy(
        "knapsack", _knapsack_input, _knapsack_run,
        time=lambda c: lambda size: knap.knapsack_time(*size, c),
        spec=lambda c: knap.knapsack_linear_rec(c), cls=PolyLog2(1, 0, 1, 0),
        witness=lambda c: lambda n, w: knap.knapsack_time(n, w, c),
        obligations=knap.knapsack_obligations, consts=knap.KNAPSACK_CONSTS,
        tight_inputs=lambda: [([(0, 5)] * 4, 9)],
    ),
    _ledger_study("dynarray", _dynarray_script),
    _ledger_study("skew_heap", _skew_script),
    _ledger_study("splay_tree", _splay_script),
)

ALGORITHM_NAMES = tuple(study.name for study in STUDIES)


def all_bundles() -> dict[str, AlgorithmBundle]:
    return {study.name: AlgorithmBundle(study) for study in STUDIES}


def get_bundle(name: str) -> AlgorithmBundle:
    return all_bundles()[name]


# ---------------------------------------------------------------------------
# registry of runtime-function bounds
# ---------------------------------------------------------------------------

class BoundCheckFailed(Exception):
    pass


def register_time_function(
    registry: BoundRegistry,
    name: str,
    closed_form: Callable[[int], int],
    cls,
    actual_cost: Callable[[int], int],
    sweep: range,
) -> None:
    """Admit a closed form into the registry only after an exhaustive check
    that it bounds the measured interpreter cost across the sweep, and only
    if the declared class passes a Theta witness on the closed form."""
    for n in sweep:
        if actual_cost(n) > closed_form(n):
            raise BoundCheckFailed(
                f"{name}({n}) = {closed_form(n)} below measured cost {actual_cost(n)}"
            )
    if not _witness_holds(closed_form, cls):
        raise BoundCheckFailed(f"{name} fails a Theta witness for {cls.render()}")
    registry.register(name, cls, DECLARED)


def _atake_cost(n: int) -> int:
    addr, heap = _heap_array(range(n))
    return run(atake(n // 2, addr), heap).cost


def _adrop_cost(n: int) -> int:
    addr, heap = _heap_array(range(n))
    return run(adrop(n // 2, addr), heap).cost


def _mergeinto_cost(n: int) -> int:
    """Worst-case merge: perfectly interleaved halves keep both sides live."""
    la = n // 2
    target = list(range(n))
    a_vals = target[0::2]
    b_vals = target[1::2]
    if len(a_vals) != la:
        a_vals, b_vals = b_vals, a_vals
    a, heap = _heap_array(a_vals)
    made = run(array_of_list(b_vals), heap)
    b, heap = made.value, made.heap
    made = run(array_of_list([0] * n), heap)
    x, heap = made.value, made.heap
    out = run(srt.mergeinto(la, n - la, a, b, x), heap)
    return out.cost


# each auxiliary's measured cost and the least n it is measured from;
# mergeinto is only ever invoked on two nonempty halves (n >= 2)
_AUX_COSTS = {
    "atake_time": (_atake_cost, 0),
    "adrop_time": (_adrop_cost, 0),
    "mergeinto_time": (_mergeinto_cost, 2),
}


def build_registry(sweep_hi: int) -> BoundRegistry:
    """The table of known runtime-function bounds: auxiliaries checked
    against the interpreter at every size up to `sweep_hi` before
    admission, and the solved classes taken from their rows' claims."""
    registry = BoundRegistry()
    for name, closed_form, cls in srt.MERGE_SORT_AUX:
        cost, lo = _AUX_COSTS[name]
        register_time_function(
            registry, name, closed_form, cls, cost, range(lo, sweep_hi + 1)
        )
    bundles = all_bundles()
    solved = {"merge_sort_time": "merge_sort", "insertion_sort_time": "insertion_sort",
              "bsearch_time": "binary_search", "select_time": "select", "knapsack_time": "knapsack"}
    for fn_name, study in solved.items():
        registry.register(fn_name, bundles[study].claim(), SOLVED)
    return registry
