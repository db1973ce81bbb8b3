import itertools
import random
from fractions import Fraction
from functools import cache, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecredits.assertions import (
    EMP,
    TOP,
    Credits,
    Emp,
    ExistsVal,
    HoareTriple,
    PartialHeap,
    PointsToArray,
    PointsToRef,
    Pure,
    SepConj,
    Top,
    _candidates,
    check_triple,
    check_triple_sampled,
    pheap,
    points_to_array,
    sat,
)
from timecredits.heap import (
    Addr,
    Heap,
    array_len,
    array_new,
    array_nth,
    array_of_list,
    array_upd,
    empty_heap,
    proc,
    ref_new,
    ref_write,
    ret,
    run,
)


def empty_ph(credits=0):
    return pheap(empty_heap(), (), credits)


def heap_with_array(values):
    out = run(array_of_list(values), empty_heap())
    return out.heap, out.value


def test_emp_requires_zero_credits():
    assert sat(empty_ph(0), EMP)
    assert not sat(empty_ph(1), EMP)


def test_array_points_to_with_exact_credits():
    h, a = heap_with_array([1, 2, 3])
    ph = pheap(h, {a}, 5)
    assert sat(ph, points_to_array(a, [1, 2, 3]) * Credits(5))
    ph4 = pheap(h, {a}, 4)
    assert not sat(ph4, points_to_array(a, [1, 2, 3]) * Credits(5))


def test_credit_splitting_all_small_pairs():
    for n in range(21):
        for m in range(21):
            assert sat(empty_ph(n + m), Credits(n) * Credits(m))
            assert not sat(empty_ph(n + m + 1), Credits(n) * Credits(m))
            if n + m > 0:
                assert not sat(empty_ph(n + m - 1), Credits(n) * Credits(m))


def test_pure_and_ref_points_to():
    made = run(ref_new(9), empty_heap())
    a = made.value
    ph = pheap(made.heap, {a}, 0)
    assert sat(ph, PointsToRef(a, 9))
    assert not sat(ph, PointsToRef(a, 8))
    assert sat(ph, PointsToRef(a, 9) * Pure(True))
    assert not sat(ph, PointsToRef(a, 9) * Pure(False))


def test_top_absorbs_credits_and_cells():
    h, a = heap_with_array([4])
    ph = pheap(h, {a}, 7)
    assert sat(ph, TOP)
    assert sat(ph, Credits(3) * TOP)
    assert not sat(ph, Credits(8) * TOP)


def test_sepconj_commutative_associative_small():
    h, a = heap_with_array([1])
    made = run(ref_new(2), h)
    b, h2 = made.value, made.heap
    p = points_to_array(a, [1])
    q = PointsToRef(b, 2)
    r = Credits(3)
    for owned, credits in [({a, b}, 3), ({a}, 3), ({a, b}, 2), (set(), 0)]:
        ph = pheap(h2, owned, credits)
        assert sat(ph, p * q) == sat(ph, q * p)
        assert sat(ph, (p * q) * r) == sat(ph, p * (q * r))


def test_exists_enumerates_heap_values():
    h, a = heap_with_array([10, 20])
    ph = pheap(h, {a}, 0)
    found = ExistsVal(lambda xs: points_to_array(a, xs) if isinstance(xs, tuple) else Pure(False))
    assert sat(ph, found)
    absent = ExistsVal(lambda v: points_to_array(a, (v, v)))
    assert not sat(ph, absent)


def test_existential_candidates_are_built_once_per_sat_call(monkeypatch):
    import timecredits.assertions as assertions

    built = []
    candidates = assertions._candidates
    monkeypatch.setattr(assertions, "_candidates", lambda heap: built.append(1) or candidates(heap))
    h, a = heap_with_array([10, 20])
    ph = pheap(h, {a}, 0)
    # the outer witness is tried at every candidate before 20 turns up
    nested = ExistsVal(lambda x: ExistsVal(lambda y: points_to_array(a, (y, x))))
    assert sat(ph, nested)
    assert not sat(ph, ExistsVal(lambda x: ExistsVal(lambda y: points_to_array(a, (x, x)))))
    assert built == [1, 1]


def _refs_heap(n):
    """A heap of n refs, ref i holding 3*i, and the addresses of its refs."""
    addrs = [Addr(i, "ref") for i in range(n)]
    return Heap(refs={i: 3 * i for i in range(n)}, next_addr=n), addrs


def _chain(leaves, right):
    """The * of leaves, nested to the right or to the left."""
    if right:
        return reduce(lambda rest, leaf: SepConj(leaf, rest), reversed(leaves))
    return reduce(SepConj, leaves)


@pytest.mark.parametrize("right", [True, False], ids=["right-nested", "left-nested"])
def test_chains_of_ten_thousand_leaves_are_decided(right):
    n = 10_000
    h, addrs = _refs_heap(n)
    cells = [PointsToRef(a, 3 * a.index) for a in addrs]
    ph = pheap(h, addrs, n)
    assert sat(ph, _chain(cells + [Credits(1)] * n, right))
    assert sat(ph, _chain([Credits(1)] * n + cells, right))
    assert not sat(ph, _chain(cells + [Credits(1)] * (n + 1), right))
    assert not sat(ph, _chain(cells[:-1] + [PointsToRef(addrs[-1], 0)] + [Credits(1)] * n, right))
    assert not sat(ph, _chain(cells[1:] + [Credits(1)] * n, right))
    assert sat(ph, _chain(cells[1:] + [TOP], right))


def test_existentials_beside_top_over_twenty_cells():
    h, addrs = _refs_heap(20)
    ph = pheap(h, addrs, 0)
    some = [ExistsVal(lambda v, a=a: PointsToRef(a, v)) for a in addrs]
    assert sat(ph, (some[0] * some[1]) * TOP)
    assert not sat(ph, (some[0] * some[1]) * PointsToRef(addrs[2], 7) * TOP)
    assert not sat(ph, (some[0] * some[1]) * Credits(1) * TOP)


@pytest.mark.parametrize("nested", [False, True], ids=["side-by-side", "in-bodies"])
def test_ten_thousand_existentials_are_decided(nested):
    """10,000 existentials, side by side in a right-nested * or each in the
    last one's body, open 10,000 choice points at once.  Only the first
    witness holds, so a leftover credit backtracks through every one."""
    n = 10_000
    if nested:
        chain = EMP
        for _ in range(n):
            chain = ExistsVal(lambda v, rest=chain: Pure(v is None) * rest)
    else:
        chain = _chain([ExistsVal(lambda v: Pure(v is None)) for _ in range(n)], True)
    assert sat(empty_ph(0), chain)
    assert not sat(empty_ph(1), chain)


def test_an_existential_over_three_thousand_refs():
    """The candidates of a heap of 3,000 refs are all tried."""
    n = 3_000
    h, addrs = _refs_heap(n)
    r = addrs[-1]
    ph = pheap(h, [r], 0)
    assert sat(ph, ExistsVal(lambda v: PointsToRef(r, v)))
    assert sat(ph, ExistsVal(lambda v: PointsToRef(r, v) * Pure(v == 3 * (n - 1))))
    assert not sat(ph, ExistsVal(lambda v: PointsToRef(r, v) * Pure(v == 3 * n - 2)))


def test_a_failed_witness_gives_back_the_cells_it_took():
    """Every witness but 42 takes r0 and then fails at r1; 42 still finds r0."""
    h = Heap(refs={0: 5, 1: 42}, next_addr=2)
    r0, r1 = Addr(0, "ref"), Addr(1, "ref")
    ph = pheap(h, [r0, r1], 0)
    assert sat(ph, ExistsVal(lambda v: PointsToRef(r0, 5) * PointsToRef(r1, v)))
    assert not sat(ph, ExistsVal(lambda v: PointsToRef(r0, 5) * PointsToRef(r1, v) * Pure(v != 42)))


def _candidates_by_scan(heap):
    """The candidate list as a scan of the list built so far gives it."""
    out = [None, True, False, *range(-8, 9)]
    for i, v in heap.refs.items():
        for c in (Addr(i, "ref"), v):
            if c not in out:
                out.append(c)
    for i, cells in heap.arrays.items():
        for c in (Addr(i, "array"), tuple(cells), *cells):
            if c not in out:
                out.append(c)
    return out


def test_candidates_are_each_value_once_in_scan_order():
    """Unhashable cell values are candidates once and can be witnesses;
    equal hashable values (1 and True, an address and a pointer to it)
    are deduplicated as the scan would."""
    r0, r2 = Addr(0, "ref"), Addr(2, "ref")
    refs = {0: [1, 2], 1: [1, 2], 2: Addr(3, "ref"), 3: 1.0, 4: 99, 5: (1, [2])}
    h = Heap(refs=refs, arrays={6: [99, [1, 2], True, 100, (1, [2]), 100]}, next_addr=7)
    found = _candidates(h)
    assert found == _candidates_by_scan(h)
    assert [v for v in found if v == [1, 2]] == [[1, 2]]
    assert found.count(100) == 1
    ph = pheap(h, [r0], 0)
    assert sat(ph, ExistsVal(lambda v: PointsToRef(r0, v) * Pure(type(v) is list)))
    assert not sat(ph, ExistsVal(lambda v: PointsToRef(r0, v) * Pure(type(v) is tuple)))
    assert sat(pheap(h, [r2], 0), ExistsVal(lambda v: PointsToRef(r2, v)))


def test_an_address_and_a_pointer_to_it_are_one_candidate():
    """r0 points to r1: r1 is listed once, where r0's contents first name it,
    and two arrays with equal contents give one tuple."""
    r1 = Addr(1, "ref")
    h = Heap(refs={0: r1, 1: 7}, next_addr=2)
    assert _candidates(h)[20:] == [Addr(0, "ref"), r1] == _candidates_by_scan(h)[20:]
    h = Heap(arrays={0: [3, 4], 1: [3, 4]}, next_addr=2)
    assert _candidates(h)[20:] == [Addr(0, "array"), (3, 4), Addr(1, "array")]
    assert _candidates(h) == _candidates_by_scan(h)


def _random_shape(rng, leaves):
    """A random bracketing of leaves in their given order."""
    items = list(leaves)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i:i + 2] = [SepConj(items[i], items[i + 1])]
    return items[0]


_WIDE_HEAP, _WIDE_ADDRS = _refs_heap(20)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.booleans(), min_size=20, max_size=20),
    st.lists(st.tuples(st.sampled_from(["credits", "emp", "pure"]), st.integers(0, 3)),
             min_size=6, max_size=12),
    st.sets(st.integers(0, 19), max_size=2),
    st.sets(st.integers(0, 19), max_size=2),
    st.booleans(),
    st.integers(-1, 1),
    st.randoms(use_true_random=False),
)
def test_sat_ignores_how_a_wide_conjunction_is_bracketed_or_ordered(
    quantified, extras, wrong, gone, top, spare, rng
):
    """About 30 leaves over 20 owned cells, beyond the brute-force oracle's
    reach: each cell has a points-to, quantified or not, unless it is gone
    or states a wrong value.  The answer is the one the leaves force, and
    it stays the same when the leaves are reordered and rebracketed."""
    leaves = []
    for i, a in enumerate(_WIDE_ADDRS):
        if i in gone:
            continue
        value = 3 * i + (i in wrong)
        leaves.append(ExistsVal(lambda v, a=a, value=value: PointsToRef(a, v) * Pure(v == value))
                      if quantified[i] else PointsToRef(a, value))
    need = 0
    for kind, k in extras:
        leaves.append(Credits(k) if kind == "credits" else Pure(True) if kind == "pure" else EMP)
        need += k if kind == "credits" else 0
    if top:
        leaves.append(TOP)
    credits = max(0, need + spare)
    ph = pheap(_WIDE_HEAP, _WIDE_ADDRS, credits)
    expected = wrong <= gone and (top or not gone) and (credits == need or top and credits > need)
    assert sat(ph, _random_shape(rng, leaves)) == expected
    for _ in range(3):
        shuffled = list(leaves)
        rng.shuffle(shuffled)
        assert sat(ph, _random_shape(rng, shuffled)) == expected
    assert sat(ph, _random_shape(rng, leaves[::-1])) == expected


def test_sat_reads_the_heap_arrays_once_per_call(monkeypatch):
    """However many array leaves an assertion has, `sat` takes the arrays
    view once, and an existential's candidate set once more; `describe`
    takes it once however many cells it prints."""
    h, addrs = empty_heap(), []
    for i in range(50):
        out = run(array_of_list([i, i + 1]), h)
        addrs.append(out.value)
        h = out.heap
    reads = []
    view = Heap.arrays
    monkeypatch.setattr(Heap, "arrays", property(lambda heap: reads.append(1) or view.fget(heap)))
    cells = [points_to_array(a, [i, i + 1]) for i, a in enumerate(addrs)]
    ph = pheap(h, addrs, 2)
    assert sat(ph, _chain(cells + [Credits(2)], True))
    assert len(reads) == 1
    assert not sat(ph, _chain(cells + [Credits(3)], True))
    assert len(reads) == 2
    some = ExistsVal(lambda xs: points_to_array(addrs[0], xs) if isinstance(xs, tuple) else Pure(False))
    assert sat(ph, _chain([some] + cells[1:] + [Credits(2)], True))
    assert len(reads) == 4
    assert ph.describe().startswith(f"owned={{{addrs[0]!r} -> [0, 1], {addrs[1]!r} -> [1, 2], ")
    assert len(reads) == 5


def test_locality_mutation_outside_owned():
    h, a = heap_with_array([1, 2])
    made = run(ref_new(5), h)
    b, h2 = made.value, made.heap
    ph = pheap(h2, {a}, 2)
    assn = points_to_array(a, [1, 2]) * Credits(2)
    before = sat(ph, assn)
    h3 = h2.clone()
    h3.refs[b.index] = 999  # mutate outside the owned set
    assert sat(pheap(h3, {a}, 2), assn) == before


def test_negative_credits_are_rejected_when_built():
    with pytest.raises(ValueError, match="naturals"):
        sat(pheap(empty_heap(), (), 2), Credits(-1) * Credits(3))
    with pytest.raises(ValueError, match="naturals"):
        sat(pheap(empty_heap(), (), 0), Credits(-1) * TOP)


@pytest.mark.parametrize("amount", [0.5, Fraction(1, 3), True, 1.5])
def test_credit_amounts_that_are_not_naturals_are_rejected(amount):
    with pytest.raises(ValueError, match="naturals"):
        Credits(amount)
    with pytest.raises(ValueError, match="naturals"):
        pheap(empty_heap(), (), amount)


def test_fractional_credit_splits_are_rejected_when_built():
    with pytest.raises(ValueError, match="naturals"):
        sat(pheap(empty_heap(), (), 1), Credits(0.5) * Credits(0.5))
    with pytest.raises(ValueError, match="naturals"):
        sat(pheap(empty_heap(), (), 1), Credits(Fraction(1, 3)) * Credits(Fraction(2, 3)))
    with pytest.raises(ValueError, match="naturals"):
        pheap(empty_heap(), (), -1)


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

def test_array_new_triple_exact_budget():
    t = HoareTriple(
        pre=Credits(5),
        prog=lambda ph: array_new(4, 7),
        post=lambda r: points_to_array(r, [7, 7, 7, 7]),
        top_absorbing=False,
    )
    verdict = check_triple(t, empty_ph(5))
    assert verdict.passed and not verdict.vacuous


def test_array_new_triple_under_budget():
    t = HoareTriple(
        pre=Credits(4),
        prog=lambda ph: array_new(4, 7),
        post=lambda r: points_to_array(r, [7, 7, 7, 7]),
    )
    verdict = check_triple(t, empty_ph(4))
    assert verdict.kind == "fail-credits"
    assert verdict.needed == 5 and verdict.available == 4


def test_array_len_triple():
    h, a = heap_with_array([3, 1, 4])
    t = HoareTriple(
        pre=points_to_array(a, [3, 1, 4]) * Credits(1),
        prog=lambda ph: array_len(a),
        post=lambda r: points_to_array(a, [3, 1, 4]) * Pure(r == 3),
        top_absorbing=False,
    )
    assert check_triple(t, pheap(h, {a}, 1)).passed


def test_triple_vacuous_when_pre_unsatisfied():
    t = HoareTriple(
        pre=Credits(3),
        prog=lambda ph: ret(0),
        post=lambda r: TOP,
    )
    verdict = check_triple(t, empty_ph(0))
    assert verdict.passed and verdict.vacuous


def test_triple_fail_post_carries_witness():
    t = HoareTriple(
        pre=Credits(1),
        prog=lambda ph: ret(0),
        post=lambda r: Pure(r == 1),
    )
    verdict = check_triple(t, empty_ph(1))
    assert verdict.kind == "fail-post"
    assert verdict.witness is not None
    assert verdict.witness.credits == 0


def test_triple_fail_execution():
    t = HoareTriple(
        pre=Credits(1),
        prog=lambda ph: array_nth(Addr(99, "array"), 0),
        post=lambda r: TOP,
    )
    assert check_triple(t, empty_ph(1)).kind == "fail-execution"


def test_credit_monotonicity_of_absorbing_posts():
    h, a = heap_with_array([2, 1])

    @proc
    def swap(arr):
        x = yield array_nth(arr, 0)
        y = yield array_nth(arr, 1)
        yield array_upd(arr, 0, y)
        return (yield array_upd(arr, 1, x))

    for extra in range(4):
        t = HoareTriple(
            pre=points_to_array(a, [2, 1]) * Credits(4 + extra),
            prog=lambda ph: swap(a),
            post=lambda r: points_to_array(a, [1, 2]),
            top_absorbing=True,
        )
        assert check_triple(t, pheap(h, {a}, 4 + extra)).passed


def test_newly_allocated_addresses_join_owned():
    t = HoareTriple(
        pre=Credits(3),
        prog=lambda ph: array_of_list([1, 2]),
        post=lambda r: points_to_array(r, [1, 2]),
        top_absorbing=False,
    )
    assert check_triple(t, empty_ph(3)).passed


# ---------------------------------------------------------------------------
# sampled checking
# ---------------------------------------------------------------------------

def _counting_triple(budget_offset=0):
    @proc
    def prog(a):
        n = yield array_len(a)
        total = 0
        for i in range(n):
            total += yield array_nth(a, i)
        return (yield ret(total))

    def build(ph):
        (addr,) = [a for a in ph.owned if a.kind == "array"]
        return prog(addr)

    def pre_of(values, cost):
        return None  # placeholder, generator builds models directly

    return prog, build


def _gen_sum_model(rng: random.Random) -> PartialHeap:
    values = [rng.randrange(5) for _ in range(rng.randrange(5))]
    out = run(array_of_list(values), empty_heap())
    budget = len(values) + 2  # len + n nths + ret
    return pheap(out.heap, {out.value}, budget)


def _sum_triple(undercredit=0):
    @proc
    def prog(a):
        n = yield array_len(a)
        total = 0
        for i in range(n):
            total += yield array_nth(a, i)
        return (yield ret(total))

    def build(ph):
        (addr,) = [a for a in ph.owned if a.kind == "array"]
        return prog(addr)

    def pre_body(v):
        if not isinstance(v, tuple):
            return Pure(False)
        return ExistsVal(
            lambda a: points_to_array(a, v) * Credits(len(v) + 2 - undercredit)
            if isinstance(a, Addr) and a.kind == "array"
            else Pure(False)
        )

    pre = ExistsVal(pre_body, note="xs")

    def post(r):
        return TOP

    return HoareTriple(pre, build, post, top_absorbing=True)


def test_sampled_triple_no_counterexamples():
    report = check_triple_sampled(_sum_triple(), _gen_sum_model, trials=60, seed=4)
    assert report.ok
    assert report.passes == 60


def test_sampled_undercredited_finds_counterexample():
    # same program, but the triple only grants bound - 1 credits
    triple = _sum_triple(undercredit=1)

    def gen(rng):
        ph = _gen_sum_model(rng)
        return PartialHeap(ph.heap, ph.owned, ph.credits - 1)

    report = check_triple_sampled(triple, gen, trials=60, seed=4)
    assert report.counterexample is not None
    cx = report.counterexample
    # replay deterministically from the recorded seed
    replayed = gen(random.Random(cx.seed))
    assert check_triple(triple, replayed).kind == cx.verdict.kind
    text = cx.render()
    assert "seed:" in text and "verdict:" in text and "trace:" in text


def test_sampled_unsatisfiable_pre_flagged_vacuous():
    t = HoareTriple(
        pre=Pure(False),
        prog=lambda ph: ret(0),
        post=lambda r: TOP,
    )
    report = check_triple_sampled(t, _gen_sum_model, trials=10, seed=0)
    assert report.vacuous == 10
    assert report.generator_invalid == 10
    assert report.counterexample is None


# ---------------------------------------------------------------------------
# frame rule
# ---------------------------------------------------------------------------

def _random_cells_program(rng: random.Random):
    """A model of a random program over fresh cells, returning the triple parts."""
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
    for a in addrs:
        pre = pre * PointsToRef(a, dict(zip(addrs, values))[a])

    def post(r):
        assn = Pure(r is None)
        for a in addrs:
            assn = assn * PointsToRef(a, final[a])
        return assn

    ph = pheap(heap, set(addrs), cost)
    return prog(), pre, post, ph, heap


def test_frame_rule_randomized():
    rng = random.Random(99)
    for _ in range(200):
        prog, pre, post, ph, heap = _random_cells_program(rng)
        t = HoareTriple(pre, lambda _ph, prog=prog: prog, post, top_absorbing=False)
        assert check_triple(t, ph).passed

        # extend with a disjoint frame: one fresh cell plus extra credits
        out = run(ref_new(123), heap)
        frame_addr, framed_heap = out.value, out.heap
        frame = PointsToRef(frame_addr, 123) * Credits(2)
        framed_t = HoareTriple(
            pre * frame,
            lambda _ph, prog=prog: prog,
            lambda r: post(r) * frame,
            top_absorbing=False,
        )
        framed_ph = pheap(framed_heap, set(ph.owned) | {frame_addr}, ph.credits + 2)
        assert check_triple(framed_t, framed_ph).passed


# ---------------------------------------------------------------------------
# sat against a brute-force enumerator
# ---------------------------------------------------------------------------

_A0, _A1, _R0 = Addr(0, "array"), Addr(1, "array"), Addr(2, "ref")
_BRUTE_HEAP = Heap(refs={2: 5}, arrays={0: [1, 2], 1: [3]}, next_addr=3)
_ADDRS = st.sampled_from([_A0, _A1, _R0, Addr(0, "ref"), Addr(7, "array")])
_LEAVES = st.one_of(
    st.just(EMP),
    st.just(TOP),
    st.builds(Credits, st.integers(0, 3)),
    st.builds(Pure, st.booleans()),
    st.builds(PointsToRef, _ADDRS, st.sampled_from([5, 0, None])),
    st.builds(PointsToArray, _ADDRS, st.sampled_from([(1, 2), (3,), ()])),
)
_ASSERTIONS = st.recursive(_LEAVES, lambda inner: st.builds(SepConj, inner, inner), max_leaves=5)


@cache
def _brute_sat(owned: frozenset, credits: int, a) -> bool:
    """The satisfaction relation by definition: a separating conjunction
    tries every split of the owned cells and every split of the credits."""
    heap = _BRUTE_HEAP
    if isinstance(a, SepConj):
        return any(
            _brute_sat(part, cl, a.left) and _brute_sat(owned - part, credits - cl, a.right)
            for part in map(frozenset, _powerset(owned))
            for cl in range(credits + 1)
        )
    if isinstance(a, Top):
        return True
    if isinstance(a, Credits):
        return not owned and credits == a.amount
    if isinstance(a, (Emp, Pure)):
        return not owned and credits == 0 and (isinstance(a, Emp) or a.truth)
    if credits != 0 or owned != {a.addr}:
        return False
    if isinstance(a, PointsToRef):
        return a.addr.kind == "ref" and a.addr.index in heap.refs and heap.refs[a.addr.index] == a.value
    cells = heap.arrays.get(a.addr.index)
    return a.addr.kind == "array" and cells is not None and tuple(cells) == a.values


def _powerset(items):
    items = sorted(items, key=repr)
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _ASSERTIONS,
    st.sets(st.sampled_from([_A0, _A1, _R0])).map(frozenset),
    st.integers(0, 4),
)
# a Top-free side peeled off beside a side that holds a nested Top, taking
# exactly the credits present
@example(SepConj(SepConj(Credits(2), SepConj(TOP, EMP)), TOP), frozenset(), 2)
@example(SepConj(SepConj(SepConj(Pure(True), TOP), Credits(3)), TOP), frozenset([_R0]), 3)
def test_sat_agrees_with_brute_force_enumeration(a, owned, credits):
    assert sat(pheap(_BRUTE_HEAP, owned, credits), a) == _brute_sat(owned, credits, a)


# ---------------------------------------------------------------------------
# sat with existentials against a brute-force enumerator
# ---------------------------------------------------------------------------

def _some_ref_cell():
    return ExistsVal(lambda v: PointsToRef(_R0, v), note="ref")


def _some_array_contents():
    return ExistsVal(
        lambda v: PointsToArray(_A0, v) if isinstance(v, tuple) else Pure(False), note="xs"
    )


def _some_credits():
    return ExistsVal(
        lambda v: Credits(v) if type(v) is int and 0 <= v <= 3 else Pure(False), note="c"
    )


_QUANTIFIED_LEAVES = st.one_of(
    _LEAVES,
    st.builds(_some_ref_cell),
    st.builds(_some_array_contents),
    st.builds(_some_credits),
)
# `a * Top` is drawn on its own too: it is the shape every triple's post takes
_QUANTIFIED = st.recursive(
    _QUANTIFIED_LEAVES,
    lambda inner: st.one_of(
        st.builds(SepConj, inner, inner), st.builds(SepConj, inner, st.just(TOP))
    ),
    max_leaves=5,
)
# the domain sat ranges its existentials over on this heap
_BRUTE_DOMAIN = tuple(_candidates(_BRUTE_HEAP))


@cache
def _brute_sat_exists(owned: frozenset, credits: int, a) -> bool:
    """The satisfaction relation by definition, with each existential
    expanded over the candidate domain."""
    if isinstance(a, ExistsVal):
        return any(_brute_sat_exists(owned, credits, a.body(v)) for v in _BRUTE_DOMAIN)
    if isinstance(a, SepConj):
        return any(
            _brute_sat_exists(part, cl, a.left)
            and _brute_sat_exists(owned - part, credits - cl, a.right)
            for part in map(frozenset, _powerset(owned))
            for cl in range(credits + 1)
        )
    return _brute_sat(owned, credits, a)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _QUANTIFIED,
    st.sets(st.sampled_from([_A0, _A1, _R0])).map(frozenset),
    st.integers(0, 4),
)
# an existential under Top with cells and credits left over for Top
@example(SepConj(_some_credits(), TOP), frozenset([_R0]), 3)
@example(SepConj(TOP, SepConj(_some_ref_cell(), _some_array_contents())), frozenset([_A0, _A1, _R0]), 2)
def test_sat_with_existentials_agrees_with_brute_force(a, owned, credits):
    assert sat(pheap(_BRUTE_HEAP, owned, credits), a) == _brute_sat_exists(owned, credits, a)
