import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecredits.amortized import (
    AmortizedOp,
    AmortizedScheme,
    HarnessError,
    NoMultiplier,
    OpLedgerEntry,
    check_op_inequality,
    collect_corpus,
    minimal_multiplier,
    run_sequence,
)
from timecredits.algorithms.bundles import LEDGERS, get_bundle
from timecredits.algorithms.dynarray import (
    DYNARRAY_PUSH_MULTIPLIER,
    dynarray_scheme,
    new_dynarray,
    potential,
    push,
)
from timecredits.algorithms.skew_heap import new_skew_heap, skew_scheme
from timecredits.algorithms.splay_tree import (
    SplayTree,
    new_splay_tree,
    splay_scheme,
    tree_node,
)


def test_dynarray_full_push_example():
    # len 4 / cap 4: potential drops from 4 to 2 across the doubling push
    d = new_dynarray()
    for k in range(4):
        d, _ = push(d, k)
    assert (d.length, d.capacity) == (4, 4)
    assert potential(d) == 4
    scheme = dynarray_scheme()
    entry, d5 = check_op_inequality(scheme, "push", d, 99)
    assert entry.potential_before == 4
    assert entry.potential_after == 2 * 5 - 8
    assert entry.passes


def test_dynarray_sequence_and_telescope():
    scheme = dynarray_scheme()
    ops = [("push", i) for i in range(8)]
    report = run_sequence(scheme, ops, new_dynarray(), seed=0)
    assert report.passed
    assert report.total_actual <= (
        report.total_amortized + report.initial_potential - report.final_potential
    )


def test_empty_sequence_trivially_passes():
    scheme = dynarray_scheme()
    report = run_sequence(scheme, [], new_dynarray())
    assert report.passed
    assert report.total_actual == 0 and report.total_amortized == 0


def test_telescoping_follows_from_per_op():
    """Whenever every per-op entry passes, the telescoped check passes."""
    scheme = dynarray_scheme()
    rng = random.Random(5)
    for trial in range(20):
        ops = []
        live = 0
        for _ in range(rng.randrange(1, 120)):
            if live and rng.random() < 0.3:
                ops.append(("get", rng.randrange(live)))
            else:
                ops.append(("push", rng.randrange(50)))
                live += 1
        report = run_sequence(scheme, ops, new_dynarray(), seed=trial)
        assert report.per_op_ok
        assert report.telescoped_ok


def test_potential_nonnegative_throughout():
    scheme = dynarray_scheme()
    ops = [("push", i) for i in range(200)]
    structure = new_dynarray()
    for op, arg in ops:
        entry, structure = check_op_inequality(scheme, op, structure, arg)
        assert entry.potential_before >= 0 and entry.potential_after >= 0


def test_minimal_multiplier_dynarray():
    scheme = dynarray_scheme()
    corpus = collect_corpus(scheme, [("push", i) for i in range(300)], new_dynarray())
    found = minimal_multiplier(scheme, lambda n: 1, corpus)
    assert found.multiplier == DYNARRAY_PUSH_MULTIPLIER
    assert found.binding.slack >= 0
    # one below the minimum must fail somewhere
    failing = dynarray_scheme(found.multiplier - 1)
    report = run_sequence(failing, [("push", i) for i in range(300)], new_dynarray())
    assert not report.passed


def test_minimal_multiplier_monotone_in_corpus():
    scheme = dynarray_scheme()
    ops = [("push", i) for i in range(400)]
    corpus = collect_corpus(scheme, ops, new_dynarray())
    small = minimal_multiplier(scheme, lambda n: 1, corpus[:50])
    large = minimal_multiplier(scheme, lambda n: 1, corpus)
    assert large.multiplier >= small.multiplier


def test_no_multiplier_for_linear_cost_constant_shape():
    # an op whose cost grows linearly cannot have constant amortized cost
    def apply_op(state, arg):
        return state + 1, state + 1  # cost grows with every application

    scheme = AmortizedScheme(
        name="linear",
        potential=lambda s: 0,
        size_measure=lambda s: s + 1,
        ops={"tick": AmortizedOp("tick", apply_op, lambda n: 1)},
    )
    corpus = collect_corpus(scheme, [("tick", None)] * 2000, 0)
    with pytest.raises(NoMultiplier):
        minimal_multiplier(scheme, lambda n: 1, corpus)


ledger_entries = st.lists(
    st.builds(
        OpLedgerEntry,
        op=st.just("op"),
        size=st.integers(0, 50),
        actual_cost=st.integers(0, 400),
        amortized=st.integers(0, 10),
        potential_before=st.integers(0, 300),
        potential_after=st.integers(0, 300),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ledger_entries, st.lists(st.integers(1, 9), min_size=51, max_size=51))
@example(  # two entries tie for the least slack: the first one binds
    [OpLedgerEntry("op", 1, 5, 0, 0, 0), OpLedgerEntry("op", 2, 5, 0, 0, 0)], [1] * 51
)
def test_minimal_multiplier_is_least_passing(corpus, shape_table):
    shape = shape_table.__getitem__
    found = minimal_multiplier(None, shape, corpus)
    k = found.multiplier

    def passes_at(e, k):
        return k * shape(e.size) + e.potential_before - e.actual_cost - e.potential_after >= 0

    assert k >= 1
    assert all(passes_at(e, k) for e in corpus)
    if k > 1:
        assert not all(passes_at(e, k - 1) for e in corpus)
    assert found.binding.amortized == k * shape(found.binding.size)
    slacks = [
        k * shape(e.size) + e.potential_before - e.actual_cost - e.potential_after for e in corpus
    ]
    assert found.binding.slack == min(slacks)
    first = corpus[slacks.index(min(slacks))]  # ties go to the earliest entry
    assert found.binding == OpLedgerEntry(
        op=first.op,
        size=first.size,
        actual_cost=first.actual_cost,
        amortized=k * shape(first.size),
        potential_before=first.potential_before,
        potential_after=first.potential_after,
    )


@given(ledger_entries, st.integers(-3, 0))
def test_minimal_multiplier_rejects_shape_below_one(corpus, low):
    with pytest.raises(ValueError):
        minimal_multiplier(None, lambda n: low, corpus)


def test_minimal_multiplier_empty_corpus():
    with pytest.raises(ValueError):
        minimal_multiplier(dynarray_scheme(), lambda n: 1, [])


def test_splay_single_node_amortized_example():
    # claimed budget 15 * (ceil(3 log2 1) + 2) = 30 covers a root splay
    t = tree_node(None, 7, None)
    from timecredits.heap import array_of_list, empty_heap, run

    made = run(array_of_list([7, None, None]), empty_heap())
    structure = SplayTree(made.heap, made.value, t)
    scheme = splay_scheme(15)
    entry, _ = check_op_inequality(scheme, "splay", structure, 7)
    assert 15 * 2 == 30
    assert entry.actual_cost + entry.potential_after <= 30 + entry.potential_before


def test_splay_non_bst_precondition():
    bad = tree_node(tree_node(None, 9, None), 5, None)  # left child above root
    structure = SplayTree(new_splay_tree().heap, None, bad)
    scheme = splay_scheme()
    with pytest.raises(HarnessError, match="^splay_tree: structural precondition failed$"):
        check_op_inequality(scheme, "splay", structure, 9)


def test_skew_and_splay_random_ledgers():
    rng = random.Random(3)
    skew = skew_scheme()
    ops = []
    live = 0
    for _ in range(1500):
        if live and rng.random() < 0.45:
            ops.append(("del_min", None))
            live -= 1
        else:
            ops.append(("insert", rng.randrange(10**6)))
            live += 1
    report = run_sequence(skew, ops, new_skew_heap(), seed=3)
    assert report.passed

    splay = splay_scheme()
    ops2 = [("insert", rng.randrange(10**5)) for _ in range(800)]
    ops2 += [("lookup", rng.randrange(10**5)) for _ in range(400)]
    report2 = run_sequence(splay, ops2, new_splay_tree(), seed=3)
    assert report2.passed


def test_ledger_csv_shape():
    scheme = dynarray_scheme()
    report = run_sequence(scheme, [("push", 1), ("get", 0)], new_dynarray())
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "op,n,f_t,f_at,P_before,P_after,slack"
    assert len(lines) == 4
    fields = lines[2].split(",")
    assert fields[0] == "push" and len(fields) == 7


def test_failure_record_is_replayable():
    failing = dynarray_scheme(1)  # too small to cover a doubling push
    ops = [("push", i) for i in range(40)]
    report = run_sequence(failing, ops, new_dynarray(), seed=9)
    assert not report.passed
    text = report.render_failure()
    assert "failing op" in text and "replay" in text
    # replaying the recorded ops reproduces the verdict
    again = run_sequence(failing, report.ops_replay, new_dynarray(), seed=9)
    assert not again.passed
    assert again.first_failure().op == report.first_failure().op


def test_dynarray_contents_read_back_from_the_heap():
    """The interpreter heap is the only copy of a dynarray's contents: the
    data array holds every pushed value, and each kept earlier version still
    reads its own prefix."""
    rng = random.Random(12)
    values = [rng.randrange(-10**6, 10**6) for _ in range(1000)]
    d = new_dynarray()
    versions = [d]
    for v in values:
        d, _ = push(d, v)
        versions.append(d)
    assert d.heap.arrays[d.data.index][: d.length] == values
    for old in versions:
        assert old.heap.arrays[old.data.index][: old.length] == values[: old.length]


# sha256 of each ledger's CSV: a byte pin on every cost and potential at a
# scale the CLI goldens do not reach
LEDGER_CSV_SHA256 = {
    ("skew_heap", 2000): "2dc45233b7c852645208355fe97a5c5c9e86299d1aacfdfb53f322b367b78e22",
    ("splay_tree", 2000): "1f29f38268bf71d0a6835fab11cf24c0d8127b115d51d42eee134ab528294b76",
    ("dynarray", 4000): "da8ba11fb5df79bda1c5d3cd43b5999947d7ac205283ca61da87f84bc7402ccd",
}


@pytest.mark.parametrize("name, ops", sorted(LEDGER_CSV_SHA256))
def test_ledger_csv_bytes_are_pinned_at_scale(name, ops):
    factory, fresh, _, _ = LEDGERS[name]
    script = get_bundle(name).gen_input(random.Random(0), ops)
    csv = run_sequence(factory(), script, fresh(), seed=0).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == LEDGER_CSV_SHA256[name, ops]


@pytest.mark.parametrize("scheme", ["skew_heap", "splay_tree"])
def test_a_mirror_that_parts_from_its_heap_is_a_harness_error(monkeypatch, capsys, scheme):
    """A ledger operation whose heap result and functional mirror disagree
    raises HarnessError, not an assert that `python -O` would drop, and
    `timecredits amortized` reports it and exits 1."""
    from timecredits.algorithms import skew_heap as skew, splay_tree as spl
    from timecredits.amortized import HarnessError
    from timecredits.cli import main

    del_min, lookup = skew.skew_del_min_fun, spl.lookup_fun
    monkeypatch.setattr(skew, "skew_del_min_fun", lambda t: (del_min(t)[0] + 1, del_min(t)[1]))
    monkeypatch.setattr(spl, "lookup_fun", lambda x, t: (not lookup(x, t)[0], lookup(x, t)[1]))
    factory, fresh, _, _ = LEDGERS[scheme]
    op = {"skew_heap": "del_min", "splay_tree": "lookup"}[scheme]
    with pytest.raises(HarnessError, match=f"^{op}: the heap gave"):
        run_sequence(factory(), [("insert", 3), ("insert", 1), (op, 1)], fresh())
    assert main(["amortized", scheme, "--ops", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {op}: the heap gave")


@pytest.mark.parametrize("scheme", ["skew_heap", "splay_tree"])
def test_a_mirror_that_parts_from_its_heap_fails_only_its_row(monkeypatch, capsys, scheme):
    """A HarnessError in one ledger row is a failing run of that row:
    `report` prints FAIL in its runs column beside every other row's
    verdicts, and `run` prints NO; both exit 1."""
    from timecredits.algorithms import ALGORITHM_NAMES
    from timecredits.algorithms import skew_heap as skew, splay_tree as spl
    from timecredits.cli import main

    if scheme == "skew_heap":
        del_min = skew.skew_del_min_fun
        monkeypatch.setattr(skew, "skew_del_min_fun", lambda t: (del_min(t)[0] + 1, del_min(t)[1]))
    else:
        lookup = spl.lookup_fun
        monkeypatch.setattr(spl, "lookup_fun", lambda x, t: (not lookup(x, t)[0], lookup(x, t)[1]))
    assert main(["report", "--trials", "1", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[2:]]
    assert [row[0] for row in rows] == list(ALGORITHM_NAMES)
    assert [row[-1] for row in rows] == ["FAIL" if row[0] == scheme else "pass" for row in rows]
    assert main(["run", scheme, "--sizes", "64", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    header, row = (line.split(",") for line in captured.out.splitlines()[1:])
    assert captured.err == "" and row[header.index("correct")] == "NO"


def test_a_mirror_out_of_search_order_fails_only_its_row(monkeypatch, capsys):
    """A splay mirror that leaves search order fails the next operation's
    structural precondition with a HarnessError: `report` prints FAIL in
    the splay_tree row only, and `amortized splay_tree` prints an error
    line; both exit 1."""
    from timecredits.algorithms import ALGORITHM_NAMES
    from timecredits.algorithms import splay_tree as spl
    from timecredits.cli import main

    insert = spl.insert_fun

    def insert_swapped(x, t):
        s = insert(x, t)
        return spl.tree_node(s.right, s.key, s.left)

    monkeypatch.setattr(spl, "insert_fun", insert_swapped)
    assert main(["report", "--trials", "1", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[2:]]
    assert [row[0] for row in rows] == list(ALGORITHM_NAMES)
    assert [row[-1] for row in rows] == ["FAIL" if row[0] == "splay_tree" else "pass" for row in rows]
    assert main(["amortized", "splay_tree", "--ops", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: splay_tree: structural precondition failed\n"
