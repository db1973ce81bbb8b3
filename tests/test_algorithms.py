import gc
import itertools
import random
import weakref
import zlib

import pytest

from timecredits.algorithms import all_bundles, build_registry, discharge_all
from timecredits.algorithms.bundles import (
    BoundCheckFailed,
    check_claimed_class,
    constant_fault_detected,
    register_time_function,
)
from timecredits.algorithms import select as sel
from timecredits.algorithms import sorting as srt
from timecredits.algorithms import knapsack as knap
from timecredits.algorithms.skew_heap import (
    new_skew_heap,
    skew_elements,
    skew_extract,
    skew_meld_pair,
    skew_pop,
    skew_push,
)
from timecredits.algorithms.splay_tree import (
    insert_fun,
    is_bst,
    new_splay_tree,
    set_tree,
    splay_extract,
    splay_fun,
    splay_insert,
    splay_lookup,
    tree_node,
)
from timecredits.heap import FAILURE, empty_heap, run
from timecredits.landau import BoundRegistry, PolyLog, Term, analyze_expr
from timecredits.recurrence import eval_recurrence

BUNDLES = all_bundles()


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_random_runs_correct_and_bounded(name):
    bundle = BUNDLES[name]
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    for _ in range(25):
        case = bundle.gen_input(rng, rng.randrange(1, 64))
        result = bundle.run(case)
        assert result.ok
        assert result.cost <= bundle.bound(result.size)


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_claims_match_derivations(name):
    bundle = BUNDLES[name]
    assert bundle.class_check()
    assert check_claimed_class(bundle, bundle.claim())


def test_merge_sort_exhaustive_small():
    bundle = BUNDLES["merge_sort"]
    for n in range(7):
        for perm in itertools.permutations(range(n)):
            result = bundle.run(list(perm))
            assert result.ok
            assert result.cost <= bundle.bound(n)
    for n in range(9):
        for bits in itertools.product((0, 1), repeat=n):
            result = bundle.run(list(bits))
            assert result.ok
            assert result.cost <= bundle.bound(n)


def test_merge_sort_base_case_cost_exactly_two():
    bundle = BUNDLES["merge_sort"]
    assert bundle.run([]).cost == 2
    assert bundle.run([5]).cost == 2


def test_merge_sort_tight_inputs_meet_bound():
    bundle = BUNDLES["merge_sort"]
    for xs in bundle.tight_inputs():
        result = bundle.run(xs)
        assert result.cost == bundle.bound(len(xs))


def test_insertion_sort_sorted_input_cheap():
    bundle = BUNDLES["insertion_sort"]
    result = bundle.run(list(range(8)))
    assert result.ok
    assert result.cost <= bundle.bound(8)
    assert result.cost < bundle.bound(8) // 2  # far from the reverse-input worst case


def test_binary_search_examples():
    bundle = BUNDLES["binary_search"]
    assert bundle.run(([1, 3, 5, 7], 5)).output == 2
    assert bundle.run(([], 1)).output is None
    rng = random.Random(0)
    xs = sorted(rng.randrange(10**6) for _ in range(1024))
    for _ in range(100):
        key = rng.choice(xs) if rng.random() < 0.5 else rng.randrange(10**6)
        result = bundle.run((xs, key))
        assert result.ok
        assert result.cost <= bundle.bound(1024)


def test_karatsuba_examples():
    bundle = BUNDLES["karatsuba"]
    assert bundle.run(([1, 1], [1, 1])).output == [1, 2, 1]
    assert bundle.run(([2], [3])).output == [6]
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randrange(1, 128)
        p = [rng.randrange(-50, 51) for _ in range(n)]
        q = [rng.randrange(-50, 51) for _ in range(n)]
        result = bundle.run((p, q))
        assert result.ok
        assert result.cost == bundle.bound(n)  # data-independent, exact


def test_karatsuba_cost_is_input_independent():
    bundle = BUNDLES["karatsuba"]
    rng = random.Random(3)
    costs = set()
    for _ in range(5):
        p = [rng.randrange(100) for _ in range(37)]
        q = [rng.randrange(100) for _ in range(37)]
        costs.add(bundle.run((p, q)).cost)
    assert len(costs) == 1


def test_select_examples():
    bundle = BUNDLES["select"]
    assert bundle.run(([5, 1, 4, 2, 3], 2)).output == 3
    assert bundle.run(([7], 0)).output == 7
    rng = random.Random(77)
    xs = [rng.randrange(1000) for _ in range(1000)]
    for _ in range(50):
        i = rng.randrange(1000)
        result = bundle.run((xs, i))
        assert result.ok
        assert result.cost <= bundle.bound(1000)


def test_select_time_monotone_and_window_bound():
    values = [sel.select_time(n) for n in range(0, 20001)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    for n in range(21, 20001):
        assert sel.partition_side_bound(n) <= -(-7 * n // 10)


def test_select_time_variant_freed_without_cycle_collector():
    # a fault variant's memo must go with its bound, not wait for a full GC
    fn = sel.make_select_time(dict(sel.SELECT_CONSTS, part_coeff=3))
    assert fn(5000) > 0
    ref = weakref.ref(fn)
    gc.disable()
    try:
        del fn
        assert ref() is None
    finally:
        gc.enable()


def test_knapsack_examples():
    bundle = BUNDLES["knapsack"]
    assert bundle.run(([(1, 1), (2, 3)], 2)).output == 3
    assert bundle.run(([], 7)).output == 0
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(0, 11)
        items = [(rng.randrange(0, 9), rng.randrange(0, 30)) for _ in range(n)]
        capacity = rng.randrange(0, 31)
        out = run(knap.knapsack_impl(items, capacity), empty_heap())
        assert out.value == knap.knapsack_brute(items, capacity)
        assert out.cost <= knap.knapsack_time(n, capacity)


def test_dynarray_script_and_oracle():
    bundle = BUNDLES["dynarray"]
    rng = random.Random(8)
    script = bundle.gen_input(rng, 500)
    result = bundle.run(script)
    assert result.ok
    assert result.cost <= bundle.bound(len(script))


def test_dynarray_get_out_of_bounds_fails():
    from timecredits.algorithms.dynarray import get, new_dynarray, push

    d = new_dynarray()
    d, _ = push(d, 42)
    value, _ = get(d, 0)
    assert value == 42
    bad, _ = get(d, 1)
    assert bad is FAILURE


def test_skew_heap_against_priority_queue():
    import heapq

    rng = random.Random(15)
    s = new_skew_heap()
    model = []
    for step in range(10**4):
        if model and rng.random() < 0.45:
            got, s, _ = skew_pop(s)
            assert got == heapq.heappop(model)
        else:
            v = rng.randrange(500)
            s, _ = skew_push(s, v)
            heapq.heappush(model, v)
        if step % 2000 == 0:
            assert skew_elements(skew_extract(s.heap, s.root)) == skew_elements(s.mirror)
    assert sorted(skew_elements(s.mirror)) == sorted(model)
    assert skew_elements(skew_extract(s.heap, s.root)) == skew_elements(s.mirror)


def test_skew_meld_identity_and_order():
    e = new_skew_heap()
    h = new_skew_heap()
    for v in (3, 1, 2):
        h, _ = skew_push(h, v)
    melded, cost = skew_meld_pair(e, h)
    assert sorted(skew_elements(melded.mirror)) == [1, 2, 3]
    got, melded, _ = skew_pop(melded)
    assert got == 1
    with pytest.raises(ValueError):
        skew_pop(new_skew_heap())


def test_splay_zig_example():
    t = tree_node(tree_node(None, 1, None), 2, None)
    s = splay_fun(2, t)
    assert s.key == 2


def test_splay_set_preservation_random_trees():
    rng = random.Random(123)
    for _ in range(1000):
        t = None
        for k in rng.sample(range(5000), rng.randrange(1, 30)):
            t = insert_fun(k, t)
        x = rng.randrange(5000)
        s = splay_fun(x, t)
        assert set_tree(s) == set_tree(t)
        assert is_bst(s)


def test_splay_lookup_present_and_absent():
    st = new_splay_tree()
    for k in (5, 1, 9, 3):
        st, _ = splay_insert(st, k)
    found, st, _ = splay_lookup(st, 9)
    assert found
    found, st, _ = splay_lookup(st, 4)
    assert not found
    assert splay_extract(st.heap, st.root) == st.mirror


def _preorder(t):
    """Keys in preorder with None for empty subtrees, without recursion."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if node is None:
            out.append(None)
        else:
            out.append(node.key)
            stack.append(node.right)
            stack.append(node.left)
    return out


def test_splay_lookup_on_a_deep_ascending_chain():
    """2000 ascending inserts leave a 2000-deep left chain; splaying its
    deepest key needs neither the host stack nor recursion."""
    st = new_splay_tree()
    for k in range(2000):
        st, _ = splay_insert(st, k)
    found, st, cost = splay_lookup(st, 0)
    assert found and cost > 2000
    assert st.mirror.key == 0
    assert _preorder(splay_extract(st.heap, st.root)) == _preorder(st.mirror)
    assert set_tree(st.mirror) == set(range(2000))
    assert is_bst(st.mirror)


def test_time_function_registration_and_reduction():
    registry = build_registry(sweep_hi=256)
    assert registry.lookup("atake_time").cls == PolyLog(1, 0)
    # the registered linear auxiliaries reduce the non-recursive part of the
    # merge sort budget to a linear class
    terms = [
        Term(),
        Term(),
        Term(call="atake_time"),
        Term(call="adrop_time"),
        Term(call="mergeinto_time"),
    ]
    assert analyze_expr(terms, registry) == PolyLog(1, 0)


def test_registration_rejects_broken_bound():
    registry = BoundRegistry()
    with pytest.raises(BoundCheckFailed):
        register_time_function(
            registry,
            "too_small",
            lambda n: n // 2,  # fails to cover the measured cost
            PolyLog(1, 0),
            lambda n: n // 2 + 1,
            range(0, 8),
        )
    assert "too_small" not in registry.entries


def test_obligations_discharge_with_declared_hints():
    for name, bundle in BUNDLES.items():
        reports = discharge_all(bundle)
        assert all(r.success for r in reports), (name, [r.detail for r in reports])
        assert sum(r.hints_used for r in reports) == bundle.declared_hints


def test_hints_are_necessary_where_declared():
    for name in ("binary_search", "select"):
        bundle = BUNDLES[name]
        stripped = [
            (n, total, demand, eqs, []) for (n, total, demand, eqs, hints) in bundle.obligations()
        ]
        from timecredits.algorithms.bundles import discharge_obligation

        results = [discharge_obligation(entry) for entry in stripped]
        assert not all(r.success for r in results), name


def test_every_constant_fault_detected():
    for name, bundle in BUNDLES.items():
        for key in bundle.consts:
            assert constant_fault_detected(bundle, key), (name, key)


def test_merge_sort_recursive_value_plugging():
    consts = srt.MERGE_SORT_CONSTS
    expected = (
        consts["step"]
        + srt.atake_time(2)
        + srt.adrop_time(2)
        + srt.merge_sort_time(1)
        + srt.merge_sort_time(1)
        + srt.mergeinto_time(2)
    )
    assert srt.merge_sort_time(2) == expected
    spec = srt.merge_sort_recurrence()
    assert eval_recurrence(spec, 2) == expected
    # cross-check against an actual worst-case run of length 2
    assert BUNDLES["merge_sort"].run([1, 0]).cost == expected
