"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import random

from timecredits.amortized import collect_corpus, minimal_multiplier, run_sequence
from timecredits.assertions import Credits, HoareTriple, PointsToRef, Pure, check_triple, pheap, sat
from timecredits.credits import (
    AddE,
    Assignment,
    ConstE,
    FloorDivE,
    MulE,
    VarE,
    subtract_match,
    t_call,
)
from timecredits.heap import (
    array_len,
    array_new,
    array_nth,
    array_of_list,
    array_upd,
    atake,
    adrop,
    agrow,
    empty_heap,
    proc,
    ref_new,
    ref_read,
    ref_write,
    ret,
    run,
)
from timecredits.landau import (
    BoundRegistry,
    IncomparableError,
    PolyLog,
    PolyLog2,
    Rel,
    analyze_form,
    calibrate_witness,
    check_theta_witness,
    grid_samples,
    o_subset2,
    sum_class2,
    sum_theta2,
)
from timecredits.recurrence import akra_bazzi_class, linear_rec_class
from timecredits.algorithms import all_bundles, discharge_all
from timecredits.algorithms.bundles import check_claimed_class, constant_fault_detected
from timecredits.algorithms import knapsack as knap
from timecredits.algorithms import select as sel
from timecredits.algorithms import sorting as srt
from timecredits.algorithms.dynarray import dynarray_scheme, new_dynarray
from timecredits.algorithms.karatsuba import schoolbook
from timecredits.algorithms.skew_heap import new_skew_heap, skew_scheme, skew_shape
from timecredits.algorithms.splay_tree import (
    new_splay_tree,
    splay_scheme,
    splay_shape,
)

from oracles import knapsack_brute

BUNDLES = all_bundles()


def report(criterion: int, title: str, passed: bool) -> None:
    print(f"criterion {criterion:2d} ({title}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion}: {title}"


# 1 -------------------------------------------------------------------------

def test_criterion_1_cost_table_exact():
    ok = True
    for n in range(0, 2**12 + 1):
        ok = ok and run(array_new(n, 0), empty_heap()).cost == n + 1
    made = run(array_of_list([1, 2, 3]), empty_heap())
    arr, heap = made.value, made.heap
    cell = run(ref_new(9), empty_heap())
    ok = ok and run(ret(0), empty_heap()).cost == 1
    ok = ok and cell.cost == 1
    ok = ok and run(ref_read(cell.value), cell.heap).cost == 1
    ok = ok and run(ref_write(cell.value, 1), cell.heap).cost == 1
    ok = ok and run(array_len(arr), heap).cost == 1
    ok = ok and run(array_nth(arr, 0), heap).cost == 1
    ok = ok and run(array_upd(arr, 0, 5), heap).cost == 1
    # whole-array commands follow the size + 1 rule
    ok = ok and run(array_to_list_probe(arr), heap).cost == 4
    ok = ok and run(atake(2, arr), heap).cost == 3
    ok = ok and run(adrop(2, arr), heap).cost == 2
    ok = ok and run(agrow(8, arr, 0), heap).cost == 4
    report(1, "exact cost table", ok)


def array_to_list_probe(arr):
    from timecredits.heap import array_to_list

    return array_to_list(arr)


# 2 -------------------------------------------------------------------------

def test_criterion_2_credit_splitting():
    ok = True
    for n in range(21):
        for m in range(21):
            want = Credits(n) * Credits(m)
            ok = ok and sat(pheap(empty_heap(), (), n + m), want)
            for total in (n + m - 1, n + m + 1, n + m + 5):
                if total >= 0 and total != n + m:
                    ok = ok and not sat(pheap(empty_heap(), (), total), want)
    report(2, "credit-splitting semantics", ok)


# 3 -------------------------------------------------------------------------

def _random_writes_instance(rng: random.Random):
    values = [rng.randrange(10) for _ in range(rng.randrange(1, 4))]
    heap = empty_heap()
    addrs = []
    for v in values:
        out = run(ref_new(v), heap)
        addrs.append(out.value)
        heap = out.heap
    script = [(rng.randrange(len(addrs)), rng.randrange(10)) for _ in range(rng.randrange(4))]

    @proc
    def prog():
        for idx, v in script:
            yield ref_write(addrs[idx], v)
        return (yield ret(None))

    final = dict(zip(addrs, values))
    for idx, v in script:
        final[addrs[idx]] = v
    cost = len(script) + 1
    pre = Credits(cost)
    for a, v in zip(addrs, values):
        pre = pre * PointsToRef(a, v)

    def post(r):
        assn = Pure(r is None)
        for a in addrs:
            assn = assn * PointsToRef(a, final[a])
        return assn

    return prog(), pre, post, pheap(heap, set(addrs), cost), heap


def test_criterion_3_frame_rule():
    rng = random.Random(1009)
    counterexamples = 0
    for _ in range(1000):
        prog, pre, post, model, heap = _random_writes_instance(rng)
        t = HoareTriple(pre, lambda _ph, prog=prog: prog, post, top_absorbing=False)
        if not check_triple(t, model).passed:
            counterexamples += 1
            continue
        out = run(ref_new(123), heap)
        frame_cell, framed_heap = out.value, out.heap
        frame = PointsToRef(frame_cell, 123) * Credits(3)
        framed = HoareTriple(
            pre * frame,
            lambda _ph, prog=prog: prog,
            lambda r, post=post: post(r) * frame,
            top_absorbing=False,
        )
        framed_model = pheap(framed_heap, set(model.owned) | {frame_cell}, model.credits + 3)
        if not check_triple(framed, framed_model).passed:
            counterexamples += 1
    report(3, "frame rule, 1000 instances", counterexamples == 0)


# 4 -------------------------------------------------------------------------

def test_criterion_4_merge_sort():
    bundle = BUNDLES["merge_sort"]
    ok = bundle.run([]).cost == 2 and bundle.run([3]).cost == 2
    for n in range(7):
        for perm in itertools.permutations(range(n)):
            res = bundle.run(list(perm))
            ok = ok and res.ok and res.cost <= bundle.bound(n)
    for n in range(9):
        for bits in itertools.product((0, 1), repeat=n):
            res = bundle.run(list(bits))
            ok = ok and res.ok and res.cost <= bundle.bound(n)
    rng = random.Random(44)
    for trial in range(200):
        n = min(4096, int(2 ** rng.uniform(0, 12)))
        if trial < 3:
            n = 4096
        xs = [rng.randrange(-(10**6), 10**6) for _ in range(n)]
        res = bundle.run(xs)
        ok = ok and res.ok and res.cost <= bundle.bound(n)
    result = akra_bazzi_class(srt.merge_sort_recurrence())
    ok = ok and abs(result.p - 1.0) <= 1e-6
    ok = ok and result.case == "balanced"
    ok = ok and result.result_class == PolyLog(1, 1)
    report(4, "merge sort: oracle, bounds, balanced n ln n", ok)


# 5 -------------------------------------------------------------------------

def test_criterion_5_karatsuba():
    bundle = BUNDLES["karatsuba"]
    result = akra_bazzi_class(
        __import__("timecredits.algorithms.karatsuba", fromlist=["x"]).karatsuba_recurrence()
    )
    ok = abs(result.p - math.log2(3)) <= 1e-6
    ok = ok and result.case == "bottom-heavy"
    rng = random.Random(55)
    for trial in range(200):
        n = rng.randrange(1, 129) if trial >= 3 else 128
        p = [rng.randrange(-99, 100) for _ in range(n)]
        q = [rng.randrange(-99, 100) for _ in range(n)]
        res = bundle.run((p, q))
        ok = ok and res.output == schoolbook(p, q)
        ok = ok and res.cost <= bundle.bound(n)
    report(5, "karatsuba: log2(3) bottom-heavy, schoolbook oracle", ok)


# 6 -------------------------------------------------------------------------

def test_criterion_6_select():
    bundle = BUNDLES["select"]
    result = akra_bazzi_class(sel.select_recurrence())
    ok = 0.8397 <= result.p <= 0.8399
    ok = ok and result.case == "top-heavy" and result.result_class == PolyLog(1, 0)
    values = [sel.select_time(n) for n in range(0, 100001)]
    ok = ok and all(a <= b for a, b in zip(values, values[1:]))
    rng = random.Random(66)
    for _ in range(500):
        n = rng.randrange(1, 1001)
        xs = [rng.randrange(-(10**6), 10**6) for _ in range(n)]
        i = rng.randrange(n)
        res = bundle.run((xs, i))
        ok = ok and res.ok and res.cost <= bundle.bound(n)
    reports = discharge_all(bundle)
    ok = ok and all(r.success for r in reports)
    ok = ok and sum(r.hints_used for r in reports) == 1
    report(6, "select: top-heavy linear, monotone bound, one hint", ok)


# 7 -------------------------------------------------------------------------

def test_criterion_7_knapsack():
    bundle = BUNDLES["knapsack"]
    rng = random.Random(77)
    ok = True
    for _ in range(200):
        n = rng.randrange(0, 13)
        items = [(rng.randrange(0, 10), rng.randrange(0, 40)) for _ in range(n)]
        capacity = rng.randrange(0, 40)
        out = run(knap.knapsack_impl(items, capacity), empty_heap())
        ok = ok and out.value == knapsack_brute(items, capacity)
        ok = ok and out.cost <= knap.knapsack_time(n, capacity)
    ok = ok and linear_rec_class(knap.knapsack_linear_rec()) == PolyLog2(1, 0, 1, 0)
    grid = grid_samples(2**4, 2**10)
    train = [(m, n) for m, n in grid if max(m, n) <= 2**7]
    verify = [(m, n) for m, n in grid if max(m, n) > 2**7]
    witness = calibrate_witness(knap.knapsack_time, PolyLog2(1, 0, 1, 0), train)
    ok = ok and check_theta_witness(knap.knapsack_time, PolyLog2(1, 0, 1, 0), witness, verify).passed
    report(7, "knapsack: brute-force oracle, two-variable nW", ok)


# 8 -------------------------------------------------------------------------

def test_criterion_8_automation_examples():
    reg = BoundRegistry()
    reg.register("f1", PolyLog(1, 0))
    reg.register("f2", PolyLog(0, 1))
    reg.register("f3", PolyLog2(1, 0, 1, 0))
    reg.register("f4", sum_class2([PolyLog2(1, 0, 0, 0), PolyLog2(0, 0, 1, 0)]))

    reg.register("f5", PolyLog(1, 1))

    n = VarE("n")
    goal1 = analyze_form(
        t_call("f1", AddE(n, ConstE(1)))
        + t_call("f5", MulE(2, n))
        + 3 * t_call("f5", FloorDivE(n, 3))
        + t_call("f2", n),
        reg,
    )
    # two-variable goals: f1 on n, f2 on m, m n and f3; then 1, f1 on n,
    # f2 on m and f4, summed by absorption
    goal2 = sum_theta2([
        PolyLog2(0, 0, 1, 0), PolyLog2(0, 1, 0, 0), PolyLog2(1, 0, 1, 0), reg.lookup("f3").cls,
    ])
    goal3 = sum_theta2([
        PolyLog2(0, 0, 0, 0), PolyLog2(0, 0, 1, 0), PolyLog2(0, 1, 0, 0), reg.lookup("f4").cls,
    ])
    ok = goal1 == PolyLog(1, 1)
    ok = ok and goal2 == PolyLog2(1, 0, 1, 0)
    ok = ok and goal3 == sum_class2([PolyLog2(1, 0, 0, 0), PolyLog2(0, 0, 1, 0)])
    ok = ok and o_subset2(PolyLog2(2, 0, 1, 0), PolyLog2(1, 0, 2, 0)) is Rel.INCOMPARABLE
    try:
        sum_theta2([PolyLog2(2, 0, 1, 0), PolyLog2(1, 0, 2, 0)])
        ok = False
    except IncomparableError:
        pass
    report(8, "expression analyzer reproduces the goal set", ok)


# 9 -------------------------------------------------------------------------

def test_criterion_9_amortized_suites():
    ok = True
    # dynamic array: 10^4 pushes under the pinned potential
    scheme = dynarray_scheme()
    pushes = [("push", i) for i in range(10**4)]
    seq = run_sequence(scheme, pushes, new_dynarray(), seed=9)
    ok = ok and seq.passed
    corpus = collect_corpus(scheme, pushes[:2000], new_dynarray())
    dyn_k = minimal_multiplier(scheme, lambda n: 1, corpus)
    ok = ok and dyn_k.multiplier <= 16

    # skew heap: 10^4 random operations
    rng = random.Random(99)
    skew_ops = []
    live = 0
    for _ in range(10**4):
        if live and rng.random() < 0.45:
            skew_ops.append(("del_min", None))
            live -= 1
        else:
            skew_ops.append(("insert", rng.randrange(10**6)))
            live += 1
    skew = skew_scheme()
    skew_seq = run_sequence(skew, skew_ops, new_skew_heap(), seed=99)
    ok = ok and skew_seq.passed
    skew_k = minimal_multiplier(
        skew, skew_shape, collect_corpus(skew, skew_ops[:3000], new_skew_heap())
    )
    ok = ok and skew_k.multiplier <= 64

    # splay tree: 10^4 random operations with the pinned shape function
    splay_ops = []
    for _ in range(10**4):
        r = rng.random()
        if r < 0.5:
            splay_ops.append(("insert", rng.randrange(10**5)))
        elif r < 0.9:
            splay_ops.append(("lookup", rng.randrange(10**5)))
        else:
            splay_ops.append(("splay", rng.randrange(10**5)))
    splay = splay_scheme()
    splay_seq = run_sequence(splay, splay_ops, new_splay_tree(), seed=99)
    ok = ok and splay_seq.passed
    splay_corpus = collect_corpus(splay, splay_ops[:3000], new_splay_tree())
    splay_k = minimal_multiplier(splay, splay_shape, splay_corpus)
    ok = ok and splay_k.multiplier <= 64

    # the shape function is the claimed one and lies in Theta(ln n)
    ok = ok and splay_shape(1) == 2 and splay_shape(2) == 5
    witness = calibrate_witness(
        splay_shape, PolyLog(0, 1), [2**k for k in range(4, 13)]
    )
    ok = ok and check_theta_witness(
        splay_shape, PolyLog(0, 1), witness, [2**k for k in range(13, 21)]
    ).passed

    fifteen_skew = "suffices" if skew_k.multiplier <= 15 else "does not suffice"
    fifteen_splay = "suffices" if splay_k.multiplier <= 15 else "does not suffice"
    print(
        f"  [informational] under this cost model K = 15 {fifteen_skew} for the "
        f"skew heap (minimal {skew_k.multiplier}) and {fifteen_splay} for the "
        f"splay tree (minimal {splay_k.multiplier}); dynamic array minimal "
        f"K = {dyn_k.multiplier}"
    )
    report(9, "amortized suites with pinned potentials", ok)


# 10 ------------------------------------------------------------------------

def test_criterion_10_credit_matcher():
    ok = True
    total_hints = 0
    for name, bundle in BUNDLES.items():
        reports = discharge_all(bundle)
        ok = ok and all(r.success for r in reports)
        total_hints += sum(r.hints_used for r in reports)
    ok = ok and total_hints == 2  # binary search and select, one each

    # soundness: matching splits evaluation exactly, 1000 random assignments
    rng = random.Random(123)
    funcs = {
        "atake_time": srt.atake_time,
        "adrop_time": srt.adrop_time,
        "mergeinto_time": srt.mergeinto_time,
        "merge_sort_time": srt.merge_sort_time,
        "f": lambda x: 2 * x + 1,
    }
    checked = 0
    while checked < 1000:
        entry = random.Random(checked).choice(
            BUNDLES["merge_sort"].obligations()
            + BUNDLES["insertion_sort"].obligations()
            + BUNDLES["knapsack"].obligations()
        )
        _, total, demand, _hints = entry
        remainder = subtract_match(total, demand)
        sigma = Assignment(
            {v: rng.randrange(0, 64) for v in ("n", "m", "i", "W", "l")}, funcs
        )
        ok = ok and total.eval(sigma) == demand.eval(sigma) + remainder.eval(sigma)
        checked += 1
    report(10, "credit matcher: nine case studies, two hints total", ok)


# 11 ------------------------------------------------------------------------

def test_criterion_11_fault_sensitivity():
    ok = True
    # every runtime-function constant is load-bearing
    for name, bundle in BUNDLES.items():
        for key in bundle.consts:
            detected = constant_fault_detected(bundle, key)
            ok = ok and detected
            if not detected:
                print(f"  undetected constant fault: {name}.{key}")

    # every class-exponent perturbation is rejected by the claim check
    from timecredits.landau import RealPowerClass

    def perturbations(cls):
        if isinstance(cls, PolyLog):
            out = []
            for dp, dl in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                p, l = cls.power + dp, cls.log_power + dl
                if p >= 0 and l >= 0:
                    out.append(PolyLog(p, l))
            return out
        if isinstance(cls, PolyLog2):
            return [
                PolyLog2(cls.m_power + 1, cls.m_log, cls.n_power, cls.n_log),
                PolyLog2(cls.m_power, cls.m_log, cls.n_power + 1, cls.n_log),
            ]
        if isinstance(cls, RealPowerClass):
            return [RealPowerClass(cls.exponent + 1), RealPowerClass(cls.exponent - 1)]
        return []

    for name, bundle in BUNDLES.items():
        claimed = bundle.claim()
        ok = ok and check_claimed_class(bundle, claimed)
        for variant in perturbations(claimed):
            rejected = not check_claimed_class(bundle, variant)
            ok = ok and rejected
            if not rejected:
                print(f"  undetected class fault: {name} -> {variant.render()}")

    # the amortized multipliers sit exactly at their minimum - 1 boundary
    dyn = dynarray_scheme()
    pushes = [("push", i) for i in range(600)]
    k_dyn = minimal_multiplier(dyn, lambda n: 1, collect_corpus(dyn, pushes, new_dynarray()))
    weakened = run_sequence(dynarray_scheme(k_dyn.multiplier - 1), pushes, new_dynarray())
    ok = ok and not weakened.passed

    report(11, "fault injection: constants and exponents load-bearing", ok)
