import functools
import gc
import hashlib
import importlib
import inspect
import itertools
import json
import pkgutil
import random
import re
import weakref
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

from timecredits.algorithms import all_bundles, build_registry, bundles, discharge_all
from timecredits.algorithms.bundles import (
    AlgorithmBundle,
    BoundCheckFailed,
    _atake_cost,
    check_claimed_class,
    constant_fault_detected,
    discharge_obligation,
    register_time_function,
)
from timecredits.algorithms import search as srch
from timecredits.algorithms import select as sel
from timecredits.algorithms import sorting as srt
from timecredits.algorithms import karatsuba as kara
from timecredits.algorithms import knapsack as knap
from timecredits.algorithms.skew_heap import (
    new_skew_heap,
    skew_elements,
    skew_extract,
    skew_node,
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
    splay_impl,
    splay_insert,
    splay_lookup,
    splay_splay,
    tree_node,
)
from timecredits.credits import (
    UNIT, AddE, Assignment, CallAtom, CeilDivE, ConstE, FloorDivE, Hint, MulE, PolyForm, SubE,
    VarAtom, VarE, holds_for_all_n, t_call, t_lit,
)
from timecredits.heap import ARRAY, FAILURE, Addr, Heap, array_of_list, empty_heap, run, run_traced
from timecredits.landau import SOLVED, BoundRegistry, PolyLog, PolyLog2, analyze_form
from timecredits.recurrence import (
    SPEC_CACHE_SIZE, AkraBazziSpec, LinearRecSpec, RecTerm, RecurrenceError, _built_spec,
    eval_recurrence, monotone_by_induction, recurrence_of,
)
from timecredits.records import replace

from oracles import knapsack_brute, partition_side_bound, skew_meld_pair, splay_fun_reference

BUNDLES = all_bundles()
N = VarE("n")


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
        assert partition_side_bound(n) <= -(-7 * n // 10)


def test_one_spec_per_constants_in_a_bounded_cache():
    # equal constants get the same spec, and its memo, whatever dict holds them
    consts = dict(sel.SELECT_CONSTS, part_coeff=3)
    spec = sel.select_recurrence(consts)
    assert sel.select_recurrence(dict(reversed(consts.items()))) is spec
    assert sel.select_time(5000, dict(consts)) > 0 and 5000 in spec._memo
    # a variant's hint and bound hold no spec, so they go without a full GC
    hint = srch.upper_window_hint(dict(srch.BINARY_SEARCH_CONSTS, level=1))
    assert hint.justification()
    bound = BUNDLES["merge_sort"].with_consts(dict(srt.MERGE_SORT_CONSTS, merge_coeff=2)).bound
    assert bound(5000) > 0
    refs = [weakref.ref(obj) for obj in (hint, bound)]
    spec_ref = weakref.ref(spec)
    gc.disable()
    try:
        del hint, bound, spec
        assert [ref() for ref in refs] == [None, None]
        # the cache keeps the specs used last: SPEC_CACHE_SIZE newer ones
        # evict the select variant, and its memo goes without a full GC too
        assert spec_ref() is not None
        for step in range(SPEC_CACHE_SIZE):
            knap.knapsack_linear_rec(dict(knap.KNAPSACK_CONSTS, step=1000 + step))
        assert spec_ref() is None
    finally:
        gc.enable()
    info = _built_spec.cache_info()
    assert info.currsize == info.maxsize == SPEC_CACHE_SIZE


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
        assert out.value == knapsack_brute(items, capacity)
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


def test_skew_extract_rejects_a_pointer_cycle_and_accepts_sharing():
    a0, a1 = Addr(0, ARRAY), Addr(1, ARRAY)
    cycle = Heap(arrays={0: [5, a1, None], 1: [6, a0, None]}, next_addr=2)
    with pytest.raises(ValueError, match="cycle"):
        skew_extract(cycle, a0)
    shared = Heap(arrays={0: [5, a1, a1], 1: [6, None, None]}, next_addr=2)
    leaf = skew_extract(shared, a1)
    assert skew_extract(shared, a0) == skew_node(leaf, 5, leaf)


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


def test_deep_trees_compare_without_recursion():
    """Node equality and inequality walk their own stack: a 3000-deep splay
    chain and a 3000-deep skew-heap spine compare equal to their mirrors."""
    st = new_splay_tree()
    for k in range(3000):
        st, _ = splay_insert(st, k)
    assert splay_extract(st.heap, st.root) == st.mirror
    assert not splay_extract(st.heap, st.root) != st.mirror
    s = new_skew_heap()
    for k in range(3000, 0, -1):
        s, _ = skew_push(s, k)
    assert skew_extract(s.heap, s.root) == s.mirror
    assert not skew_extract(s.heap, s.root) != s.mirror
    assert skew_extract(s.heap, s.root) != skew_pop(s)[1].mirror


TREE_FIELDS = ("left", "key", "right", "size", "phi", "bst", "min_key", "max_key")
SKEW_FIELDS = ("left", "key", "right", "size", "heavy", "heap_ok")


@pytest.mark.parametrize(
    "node, names",
    [
        (tree_node(tree_node(None, 1, None), 2, None), TREE_FIELDS),
        (skew_node(skew_node(None, 2, None), 1, None), SKEW_FIELDS),
    ],
)
def test_mirror_nodes_are_immutable_unhashable_and_not_tuples(node, names):
    """Mirror nodes cannot be changed or hashed, and equality is structural
    over nodes only: a node is never equal to the plain tuple of its fields,
    from either side and under both operators."""
    with pytest.raises(AttributeError):
        node.key = 0
    with pytest.raises(AttributeError):
        node.extra = 0
    with pytest.raises(TypeError):
        hash(node)
    fields = tuple(getattr(node, name) for name in names)
    assert not node == fields and not fields == node
    assert node != fields and fields != node
    assert node != 0 and not node == None  # noqa: E711


def test_tree_and_skew_nodes_are_never_equal():
    for key in (0, 1, 7):
        t, s = tree_node(None, key, None), skew_node(None, key, None)
        assert not t == s and not s == t
        assert t != s and s != t


def _splay_steps(x, t):
    """The rotation steps that splaying x takes on the functional tree t,
    top first, named as in `splay_fun`."""
    steps = []
    while t is not None and x != t.key:
        left = x < t.key
        child = t.left if left else t.right
        if child is None:
            break
        if x < child.key:
            grand, step = child.left, "zig-zig" if left else "zag-zig"
        elif x > child.key:
            grand, step = child.right, "zig-zag" if left else "zag-zag"
        else:
            grand = None
        if grand is None:
            steps.append("zig" if left else "zag")
            break
        steps.append(step)
        t = grand
    return steps


SPLAY_ROTATIONS_SHA256 = "8885bb9d62dd183d49114dbd671388a81983433014c9c77d6d9d7116454c71ce"


def test_splay_rotations_match_the_functional_splay_and_are_pinned():
    """Splay keys present in, absent from, below and above seeded random
    trees: every rotation case occurs, the imperative result is the
    functional splay of the mirror, and every (cost, trace) pair is pinned."""
    rng = random.Random(2015)
    seen, entries = set(), []
    for _ in range(60):
        st = new_splay_tree()
        for k in rng.sample(range(0, 200, 2), rng.randrange(1, 25)):
            st, _ = splay_insert(st, k)
        keys = sorted(set_tree(st.mirror))
        for x in (rng.choice(keys), rng.choice(keys) + 1, keys[0] - 3, keys[-1] + 3):
            seen.update(_splay_steps(x, st.mirror))
            outcome, trace = run_traced(splay_impl(x, st.root), st.heap)
            assert splay_extract(outcome.heap, outcome.value) == splay_fun(x, st.mirror)
            entries.append([outcome.cost, [list(c) for c in trace]])
    assert seen == {"zig", "zag", "zig-zig", "zag-zag", "zig-zag", "zag-zig"}
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    assert digest == SPLAY_ROTATIONS_SHA256


def _spaced_key_orders(rng):
    """Insert orders of the keys 0, 2, ..., 2(n - 1) for n up to 300:
    ascending (a left chain), descending (a right chain) and random."""
    for n in (1, 2, 3, 17, 300):
        yield range(0, 2 * n, 2)
        yield range(2 * n - 2, -1, -2)
    for _ in range(12):
        n = rng.randrange(1, 301)
        yield rng.sample(range(0, 2 * n, 2), n)


def test_splay_fun_equals_the_reference_splay_node_for_node():
    """Probing every key, every gap between keys and both ends, the splay
    that builds the splayed node once gives the reference splay's tree, with
    the same cached fields at every node, and returns the input node itself
    exactly when the reference does."""
    rng = random.Random(1985)
    for keys in _spaced_key_orders(rng):
        t = None
        for k in keys:
            t = insert_fun(k, t)
        for x in range(-1, 2 * len(keys)):
            s, ref = splay_fun(x, t), splay_fun_reference(x, t)
            assert s == ref
            assert (s is t) == (ref is t)


def test_the_heap_tree_is_the_mirror_after_every_splay_operation():
    """A seeded 2000-op script of inserts, lookups of present and absent
    keys, and splays: after every operation the pointer structure on the
    heap is the functional mirror, node for node."""
    rng = random.Random(2000)
    st, keys = new_splay_tree(), []
    for _ in range(2000):
        r = rng.random()
        if r < 0.4 or not keys:
            keys.append(2 * rng.randrange(2000))
            st, _ = splay_insert(st, keys[-1])
        elif r < 0.6:
            found, st, _ = splay_lookup(st, rng.choice(keys))
            assert found
        elif r < 0.8:
            found, st, _ = splay_lookup(st, 2 * rng.randrange(-1, 2001) + 1)
            assert not found
        else:
            st, _ = splay_splay(st, rng.randrange(-2, 4002))
        assert splay_extract(st.heap, st.root) == st.mirror


def test_time_function_registration_and_reduction():
    registry = build_registry(sweep_hi=256)
    assert registry.lookup("atake_time").cls == PolyLog(1, 0)
    # the registered linear auxiliaries reduce merge sort's recursive total,
    # less its self-calls, to a linear class
    total = dict((name, t) for name, t, *_ in srt.merge_sort_obligations())["recursive"]
    toll = PolyForm({
        atom: c for atom, c in total.coeffs.items()
        if not (isinstance(atom, CallAtom) and atom.fn == "merge_sort_time")
    })
    assert len(toll.coeffs) == 4
    assert analyze_form(toll, registry) == PolyLog(1, 0)


@pytest.mark.parametrize("spec_of, cls", [
    (srt.merge_sort_recurrence, PolyLog(1, 0)),
    (kara.karatsuba_recurrence, PolyLog(1, 0)),
    (sel.select_recurrence, PolyLog(1, 0)),
    (srch.bsearch_recurrence, PolyLog(0, 0)),
])
def test_toll_classes_are_derived_from_the_recursive_totals(spec_of, cls):
    assert spec_of().g_class == cls
    # derived once per constants: a second spec shares the toll
    assert spec_of().g_concrete is spec_of().g_concrete


def test_an_identically_zero_toll_gets_no_class():
    n = VarE("n")
    with pytest.raises(RecurrenceError, match="identically zero"):
        recurrence_of(lambda consts: 2 * t_call("f", n), {}, "f", 1, {0: 1})
    with pytest.raises(RecurrenceError, match="identically zero"):
        srch.bsearch_recurrence(dict(srch.BINARY_SEARCH_CONSTS, level=0))


def test_registry_takes_solved_classes_from_claims(monkeypatch):
    solved = ["merge_sort_time", "insertion_sort_time", "bsearch_time", "select_time",
              "knapsack_time"]
    registry = build_registry(sweep_hi=8)
    assert [n for n, e in registry.entries.items() if e.provenance == SOLVED] == solved
    assert [registry.lookup(n).cls for n in solved] == [
        PolyLog(1, 1), PolyLog(2, 0), PolyLog(0, 1), PolyLog(1, 0), PolyLog2(1, 0, 1, 0),
    ]
    monkeypatch.setattr(AlgorithmBundle, "claim", lambda self: PolyLog(len(self.name), 0))
    registry = build_registry(sweep_hi=8)
    assert [registry.lookup(n).cls for n in solved] == [
        PolyLog(len(name), 0)
        for name in ("merge_sort", "insertion_sort", "binary_search", "select", "knapsack")
    ]


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


@pytest.mark.parametrize("cls", [PolyLog(0, 0), PolyLog(2, 0), PolyLog(0, 1)])
def test_registration_rejects_a_class_the_closed_form_is_not_in(cls):
    registry = BoundRegistry()
    with pytest.raises(BoundCheckFailed, match="Theta witness"):
        register_time_function(registry, "atake_time", srt.atake_time, cls, _atake_cost,
                               range(0, 64))
    assert registry.entries == {}
    register_time_function(registry, "atake_time", srt.atake_time, PolyLog(1, 0), _atake_cost,
                           range(0, 64))
    assert registry.lookup("atake_time").cls == PolyLog(1, 0)


def test_obligations_discharge_with_declared_hints():
    for name, bundle in BUNDLES.items():
        reports = discharge_all(bundle)
        assert all(r.success for r in reports), (name, [r.detail for r in reports])
        assert sum(r.hints_used for r in reports) == bundle.declared_hints


def test_hints_are_necessary_where_declared():
    for name in ("binary_search", "select"):
        bundle = BUNDLES[name]
        stripped = [
            (n, total, demand, []) for (n, total, demand, hints) in bundle.obligations()
        ]
        from timecredits.algorithms.bundles import discharge_obligation

        results = [discharge_obligation(entry) for entry in stripped]
        assert not all(r.success for r in results), name


def _counted(hints, calls, verdict=None):
    """The hints with justifications that record each consult; `verdict`,
    when given, replaces what they return."""
    def wrap(hint):
        def justification():
            calls.append(hint.note)
            return hint.justification() if verdict is None else verdict
        return replace(hint, justification=justification)
    return [wrap(h) for h in hints]


def _faulted(bundle, key):
    consts = dict(bundle.consts)
    consts[key] -= 1
    return bundle.with_consts(consts)


def test_obligation_entries_are_name_total_demand_hints():
    """Every row's entries, at the defaults and at each constant lowered by
    one, are (name, total, demand, hints), and carry the declared hints."""
    for name, bundle in BUNDLES.items():
        for variant in [bundle] + [_faulted(bundle, key) for key in bundle.consts]:
            entries = variant.obligations()
            for entry in entries:
                assert isinstance(entry, tuple) and len(entry) == 4, (name, entry)
                label, total, demand, hints = entry
                assert isinstance(label, str), (name, entry)
                assert isinstance(total, PolyForm) and isinstance(demand, PolyForm), (name, label)
                assert isinstance(hints, list), (name, label)
                assert all(isinstance(h, Hint) for h in hints), (name, label)
            assert sum(len(entry[3]) for entry in entries) == bundle.declared_hints, name


def test_a_failing_hinted_match_never_consults_the_justification():
    failed = 0
    for bundle in BUNDLES.values():
        for key in bundle.consts:
            for name, total, demand, hints in _faulted(bundle, key).obligations():
                if not hints:
                    continue
                calls = []
                report = discharge_obligation((name, total, demand, _counted(hints, calls)))
                if report.detail.startswith("no match for"):
                    assert calls == []
                    failed += 1
                else:
                    # a match: every justification is consulted, and
                    # small_probe's fault makes select_time non-monotone
                    assert calls and report.success == (key != "small_probe")
    # group_sort, group_pad, part_coeff and hit_ret each break select's
    # recursive match; binary search's upper match never breaks
    assert failed == 4


@pytest.mark.parametrize("name,index,detail", [
    ("binary_search", 3,
     "could not certify bsearch_time((n div 2)) >= bsearch_time(((n - (n div 2)) - 1))"),
    ("select", 1, "could not certify select_time(ceil(7*n/10)) >= select_time(l)"),
])
def test_a_matching_demand_with_a_false_justification_is_unprovable(name, index, detail):
    *entry, hints = BUNDLES[name].obligations()[index]
    calls = []
    report = discharge_obligation((*entry, _counted(hints, calls, verdict=False)))
    assert (report.success, report.hints_used, report.detail) == (False, 1, detail)
    assert len(calls) == 1


def _discharge_and_probe_everything():
    for bundle in BUNDLES.values():
        discharge_all(bundle)
    for bundle in BUNDLES.values():
        for key in bundle.consts:
            constant_fault_detected(bundle, key)


def test_induction_rules_are_consulted_only_for_matched_discharges(monkeypatch):
    consulted = []
    for module in (srch, sel):
        rule = module.monotone_by_induction
        monkeypatch.setattr(
            module, "monotone_by_induction",
            lambda spec, rule=rule: consulted.append(spec.name) or rule(spec),
        )
    _discharge_and_probe_everything()
    # one rule call per matched hinted discharge: the two default bundles,
    # plus the "len" faults of binary search and select, which no
    # obligation mentions
    assert sorted(consulted) == ["bsearch_time", "bsearch_time", "select_time", "select_time"]


def _old_partition_side_bound(n):
    """The counting formula the two ArgExpr sides restate, with its r == 5
    branches."""
    groups = -(-n // 5)
    r = n - 5 * (groups - 1)
    le_medians = -(-groups // 2)
    ge_medians = groups // 2 + 1
    le_elems = 3 * le_medians if r == 5 else 3 * (le_medians - 1) + (r // 2 + 1)
    ge_elems = 3 * ge_medians if r == 5 else 3 * (ge_medians - 1) + (r - r // 2)
    return max(n - le_elems, n - ge_elems)


def test_partition_sides_restate_the_counting_formula():
    for n in range(1, 20001):
        assert partition_side_bound(n) == _old_partition_side_bound(n), n
    for side in sel.PARTITION_SIDES:
        assert holds_for_all_n(side, sel.CAP, sel.CUTOFF + 1)
    # and the facts are not vacuous: neither side fits under ceil(6n/10)
    tighter = CeilDivE(MulE(6, VarE("n")), 10)
    assert not any(holds_for_all_n(side, tighter, sel.CUTOFF + 1) for side in sel.PARTITION_SIDES)


REFUSED_SPECS = {
    "negative-toll-coefficient": (sel, "select_recurrence", lambda: replace(
        sel.select_recurrence(),
        g_form=PolyForm({**sel.select_recurrence().g_form.coeffs, VarAtom("n"): -1}))),
    "decreasing-base": (srch, "bsearch_recurrence", lambda: replace(
        srch.bsearch_recurrence(), x0=3, base={0: 1, 1: 5, 2: 4})),
    "term-not-below-x": (sel, "select_recurrence", lambda: replace(sel.select_recurrence(), terms=(
        RecTerm(Fraction(1), Fraction(1, 5), "ceil"),
        RecTerm(Fraction(1), Fraction(99, 100), "ceil")))),
}


@pytest.mark.parametrize("kind", sorted(REFUSED_SPECS))
def test_refused_specs_make_their_hinted_discharge_fail(monkeypatch, kind):
    module, name, make = REFUSED_SPECS[kind]
    spec = make()
    assert not monotone_by_induction(spec)
    monkeypatch.setattr(module, name, lambda consts: spec)
    bundle = BUNDLES["select" if module is sel else "binary_search"]
    reports = discharge_all(bundle)
    hinted = [r for r in reports if r.hints_used]
    assert [r.success for r in hinted] == [False]
    assert hinted[0].detail.startswith("could not certify")


def test_a_replaced_spec_evaluates_with_its_own_memo():
    spec = srt.merge_sort_recurrence()
    assert eval_recurrence(spec, 64) == 1916
    copy = replace(spec, base={0: 100, 1: 100})
    assert copy._memo is not spec._memo
    assert eval_recurrence(copy, 64) == 8188
    assert eval_recurrence(spec, 64) == 1916


def test_default_and_probed_specs_are_monotone_by_induction():
    for spec in (srch.bsearch_recurrence(), sel.select_recurrence()):
        assert monotone_by_induction(spec)
        assert all(eval_recurrence(spec, n) <= eval_recurrence(spec, n + 1) for n in range(3000))
    # select's small_probe fault makes the base table decrease at 0
    assert not monotone_by_induction(sel.select_recurrence(dict(sel.SELECT_CONSTS, small_probe=0)))
    # merge sort's toll calls its auxiliary time functions, which the rule refuses
    assert not monotone_by_induction(srt.merge_sort_recurrence())


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


def test_insertion_sort_class_and_bound_share_one_spec(monkeypatch):
    """Patching the loop spec's step changes both the claim and the bound:
    neither is typed next to the other."""
    step = {2: 1, 1: 2, 0: 2}
    spec = LinearRecSpec(1, init={0: 2}, step=step)
    monkeypatch.setattr(srt, "insertion_sort_linear_rec", lambda consts: spec)
    assert BUNDLES["insertion_sort"].claim() == PolyLog(3, 0)
    for n in range(200):
        loop = 2 + sum(i * i + 2 * i + 2 for i in range(1, n))
        assert srt.insertion_sort_time(n) == BUNDLES["insertion_sort"].bound(n) == loop


def test_knapsack_class_comes_from_its_capacity_step(monkeypatch):
    assert knap.knapsack_linear_rec().g_class == PolyLog(1, 0)
    assert BUNDLES["knapsack"].claim() == PolyLog2(1, 0, 1, 0)
    spec = LinearRecSpec(2, init={1: 1, 0: 2}, step={2: 1}, final=1)
    monkeypatch.setattr(knap, "knapsack_linear_rec", lambda consts: spec)
    assert knap.knapsack_time(3, 4) == (4 + 2) + 3 * 16 + 1
    with pytest.raises(RecurrenceError, match="linear step"):
        BUNDLES["knapsack"].claim()


def test_a_repeated_fault_probe_builds_no_spec():
    # the first probe of a fault builds its variant's spec; every later one
    # gets that spec, and its memo, from the cache
    probes = [(bundle, key) for bundle in BUNDLES.values() for key in bundle.consts]
    for bundle, key in probes:
        constant_fault_detected(bundle, key)
    misses = _built_spec.cache_info().misses
    for bundle, key in probes:
        assert constant_fault_detected(bundle, key), (bundle.name, key)
    assert _built_spec.cache_info().misses == misses


@pytest.mark.parametrize("row, module, spec_of, readers", [
    ("select", sel, sel.select_recurrence,
     {"eval_recurrence", "monotone_by_induction", "akra_bazzi_class", "empirical_ratio_check"}),
    ("binary_search", srch, srch.bsearch_recurrence,
     {"eval_recurrence", "monotone_by_induction", "akra_bazzi_class"}),
])
def test_every_reader_at_the_defaults_reads_the_one_spec(
    monkeypatch, row, module, spec_of, readers,
):
    """The bound, the claim, the class check and the hint's justification
    read the very spec the row's builder returns."""
    read = []
    for owner in (module, bundles):
        for name in readers & set(vars(owner)):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda spec, *args, fn=fn, name=name: (
                read.append((name, spec)) or fn(spec, *args)))
    bundle = AlgorithmBundle(BUNDLES[row].study)
    assert bundle.bound(1000) > 0 and bundle.claim() and bundle.class_check()
    assert all(report.success for report in discharge_all(bundle))
    assert {name for name, _ in read} == readers
    assert all(spec is spec_of() for _, spec in read)


def test_no_module_level_specs_and_every_time_function_takes_its_constants():
    import timecredits.algorithms as pkg

    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"{pkg.__name__}.{info.name}")
        for name, value in vars(module).items():
            assert not isinstance(value, (AkraBazziSpec, LinearRecSpec)), (info.name, name)
            if name.endswith("_time") and getattr(value, "__module__", None) == module.__name__:
                assert "consts" in inspect.signature(value).parameters, (info.name, name)


def _bound_calls(*fns):
    """Per constants, the named time functions bound to them."""
    return lambda consts: {fn.__name__: functools.partial(fn, consts=consts) for fn in fns}


@pytest.mark.parametrize("row, spec_of, base_name, calls_of", [
    ("merge_sort", srt.merge_sort_recurrence, "base", _bound_calls(
        srt.atake_time, srt.adrop_time, srt.mergeinto_time, srt.merge_sort_time)),
    ("karatsuba", kara.karatsuba_recurrence, "base", _bound_calls(kara.karatsuba_time)),
    ("select", sel.select_recurrence, "small-window", _bound_calls(sel.select_time)),
    ("binary_search", srch.bsearch_recurrence, "empty", _bound_calls(srch.bsearch_time)),
])
def test_obligation_totals_restate_their_recurrence(row, spec_of, base_name, calls_of):
    """Every total an obligation list charges is the spec's own right-hand
    side: the base total is its costliest base case, and each recursive
    total, its calls bound to the row's time functions, equals the
    recurrence at every n from the threshold to 2048.  This holds at the
    defaults and at each constant decremented by one."""
    defaults = BUNDLES[row].consts
    variants = [defaults] + [dict(defaults, **{k: v - 1}) for k, v in defaults.items()]
    for consts in variants:
        spec = spec_of(consts)
        calls = calls_of(consts)
        totals = {name: total for name, total, *_ in BUNDLES[row].with_consts(consts).obligations()}
        assert totals.pop(base_name) == PolyForm({UNIT: max(spec.base.values())}), consts
        for total in {total.render(): total for total in totals.values()}.values():
            mismatches = [
                n for n in range(spec.x0, 2049)
                if total.eval(Assignment({"n": n}, calls)) != eval_recurrence(spec, n)
            ]
            assert mismatches == [], (consts, total.render(), mismatches[:5])


HALF_FLOOR = RecTerm(Fraction(1), Fraction(1, 2), "floor")
HALF_CEIL = RecTerm(Fraction(1), Fraction(1, 2), "ceil")
# each row's recursive terms as they were typed by hand beside its total
STATED_TERMS = {
    "merge_sort": (srt.merge_sort_recurrence, (HALF_FLOOR, HALF_CEIL)),
    "karatsuba": (kara.karatsuba_recurrence,
                  (RecTerm(Fraction(2), Fraction(1, 2), "ceil"), HALF_FLOOR)),
    "select": (sel.select_recurrence, (RecTerm(Fraction(1), Fraction(1, 5), "ceil"),
                                       RecTerm(Fraction(1), Fraction(7, 10), "ceil"))),
    "binary_search": (srch.bsearch_recurrence, (HALF_FLOOR,)),
}


@pytest.mark.parametrize("row", sorted(STATED_TERMS))
def test_recursive_terms_are_the_stated_ones_in_order(row):
    """Each row's terms, at the defaults and at each constant decremented
    by one, are the hand-stated ones, in order: the order fixes the float
    sum that renders p."""
    spec_of, stated = STATED_TERMS[row]
    defaults = BUNDLES[row].consts
    for consts in [defaults] + [dict(defaults, **{k: v - 1}) for k, v in defaults.items()]:
        assert spec_of(consts).terms == stated, consts


def test_a_self_call_reads_its_slope_and_rounding_off_its_argument():
    up = FloorDivE(AddE(N, ConstE(1)), 2)  # (n + 1) div 2 is ceil(n/2)
    spec = recurrence_of(lambda consts: t_lit(1) + 3 * t_call("f", up), {}, "f", 1, {0: 1})
    assert spec.terms == (RecTerm(Fraction(3), Fraction(1, 2), "ceil"),)
    assert spec.name == "f"


@pytest.mark.parametrize("args", [
    (SubE(N, ConstE(1)),),
    (AddE(FloorDivE(N, 2), ConstE(1)),),
    (MulE(2, FloorDivE(N, 4)),),
    (MulE(1, N),),
    (VarE("m"),),
    (FloorDivE(N, 0),),
    (FloorDivE(N, 2), CeilDivE(N, 2)),
    (),
])
def test_a_self_call_off_a_rounded_b_n_is_refused(args):
    """A self-call must have one argument, equal to the floor or the
    ceiling of b * n with 0 < b < 1 at every n >= x0; any other is refused
    with a RecurrenceError naming it, not an error of the argument walk."""
    call = t_call("f", *args)
    with pytest.raises(RecurrenceError, match=re.escape(repr(CallAtom("f", args)))):
        recurrence_of(lambda consts: t_lit(1) + call, {}, "f", 2, {0: 1, 1: 1})


def test_no_case_study_states_a_recurrence_by_hand():
    """Every divide-and-conquer row reads its terms, toll and class off its
    recursive total; a case-study module that states them again fails."""
    stated = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(Path(srt.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if any(word in line for word in ("RecTerm(", "terms=", "g_class="))
    ]
    assert stated == []


_RUN_ROWS = ("merge_sort", "insertion_sort", "binary_search", "karatsuba", "select", "knapsack")
_MAKE_INPUT = array_of_list(())[0]  # the opcode of the runs that build an input


def _program_run_fails(comp, heap):
    return run(comp, heap) if comp[0] is _MAKE_INPUT else FAILURE


@pytest.mark.parametrize("name", _RUN_ROWS)
def test_a_failing_program_run_is_a_wrong_run(monkeypatch, capsys, name):
    """Every run row yields ok=False for a program run that fails, and
    `timecredits run` prints NO and exits 1, without a traceback."""
    from timecredits.cli import main

    monkeypatch.setattr(bundles, "run", _program_run_fails)
    bundle = BUNDLES[name]
    result = bundle.run(bundle.gen_input(random.Random(0), 5))
    assert (result.ok, result.cost, result.output) == (False, 0, None)
    assert main(["run", name, "--sizes", "5", "--trials", "1"]) == 1
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[-2:] == ["NO", "yes"]
