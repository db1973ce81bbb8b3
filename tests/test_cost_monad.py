import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecredits.heap import (
    FAILURE,
    Addr,
    Success,
    adrop,
    agrow,
    array_len,
    array_new,
    array_nth,
    array_of_list,
    array_to_list,
    array_upd,
    atake,
    bind,
    empty_heap,
    proc,
    ref_new,
    ref_read,
    ref_write,
    ret,
    run,
    run_traced,
)


def test_ret_unit_cost():
    out = run(ret(7), empty_heap())
    assert isinstance(out, Success)
    assert out.value == 7
    assert out.cost == 1
    assert out.heap == empty_heap()


def test_len_then_ret_costs_two():
    out = run(array_of_list([1, 2, 3]), empty_heap())

    @proc
    def check(a):
        yield array_len(a)
        return (yield ret(None))

    out2 = run(check(out.value), out.heap)
    assert out2.cost == 2


def test_ret_deterministic():
    h = empty_heap()
    a = run(ret(5), h)
    b = run(ret(5), h)
    assert a.value == b.value and a.cost == b.cost and a.heap == b.heap


def test_bind_sums_costs():
    c = bind(ret(1), lambda v: ret(v + 1))
    out = run(c, empty_heap())
    assert out.value == 2
    assert out.cost == 2


def test_bind_propagates_failure():
    c = bind(ref_read(Addr(0, "ref")), lambda v: ret(v))
    assert run(c, empty_heap()) is FAILURE


def test_ref_new_first_allocation():
    out = run(ref_new(5), empty_heap())
    assert out.value == Addr(0, "ref")
    assert out.heap.refs == {0: 5}
    assert out.cost == 1


def test_ref_read_dangling_fails():
    assert run(ref_read(Addr(3, "ref")), empty_heap()) is FAILURE


def test_ref_write_read_roundtrip():
    setup = run(ref_new(0), empty_heap())

    @proc
    def prog(a):
        yield ref_write(a, 42)
        return (yield ref_read(a))

    out = run(prog(setup.value), setup.heap)
    assert out.value == 42
    assert out.cost == 2


def test_array_cell_ops():
    made = run(array_of_list([1, 2, 3]), empty_heap())
    a, h = made.value, made.heap
    assert run(array_len(a), h).value == 3
    assert run(array_len(a), h).cost == 1
    got = run(array_nth(a, 1), run(array_of_list([10, 20]), empty_heap()).heap)
    # fresh heap: the array there has address 0
    b = Addr(0, "array")
    h2 = run(array_of_list([10, 20]), empty_heap()).heap
    out = run(array_nth(b, 1), h2)
    assert out.value == 20 and out.cost == 1
    assert run(array_upd(b, 2, 9), h2) is FAILURE
    assert run(array_nth(b, -1), h2) is FAILURE


def test_array_new_costs():
    out = run(array_new(4, 0), empty_heap())
    assert out.heap.arrays[out.value.index] == [0, 0, 0, 0]
    assert out.cost == 5
    out0 = run(array_new(0, 0), empty_heap())
    assert out0.heap.arrays[out0.value.index] == []
    assert out0.cost == 1


def test_atake_copies_and_costs():
    made = run(array_of_list([7, 8, 9]), empty_heap())
    out = run(atake(2, made.value), made.heap)
    assert out.heap.arrays[out.value.index] == [7, 8]
    assert out.heap.arrays[made.value.index] == [7, 8, 9]
    assert out.cost == 3


def test_adrop_copies_and_costs():
    made = run(array_of_list([7, 8, 9]), empty_heap())
    out = run(adrop(1, made.value), made.heap)
    assert out.heap.arrays[out.value.index] == [8, 9]
    assert out.cost == 3
    assert run(adrop(4, made.value), made.heap) is FAILURE


def test_to_list_of_list_roundtrip():
    made = run(array_of_list([5, None, True]), empty_heap())
    out = run(array_to_list(made.value), made.heap)
    assert out.value == (5, None, True)
    assert out.cost == 4


def test_agrow_pads_and_costs_source_size():
    made = run(array_of_list([1, 2]), empty_heap())
    out = run(agrow(5, made.value, 0), made.heap)
    assert out.heap.arrays[out.value.index] == [1, 2, 0, 0, 0]
    assert out.cost == 3  # source has 2 cells
    assert run(agrow(1, made.value, 0), made.heap) is FAILURE


def test_failure_leaves_caller_heap_untouched():
    made = run(array_of_list([1, 2]), empty_heap())

    @proc
    def prog(a):
        yield array_upd(a, 0, 99)
        return (yield array_nth(a, 5))  # out of bounds

    before = made.heap.clone()
    assert run(prog(made.value), made.heap) is FAILURE
    assert made.heap == before


def _random_program(rng: random.Random):
    """Build a random closed program.  All random choices are drawn now, so
    the resulting computation is a fixed value and reruns are deterministic."""
    init = [rng.randrange(10) for _ in range(rng.randrange(5))]
    script = [(rng.randrange(5), rng.randrange(100)) for _ in range(rng.randrange(6))]

    @proc
    def prog():
        refs = []
        arr = yield array_of_list(init)
        for op, aux in script:
            if op == 0:
                refs.append((yield ref_new(aux)))
            elif op == 1 and refs:
                yield ref_write(refs[aux % len(refs)], aux)
            elif op == 2 and refs:
                yield ref_read(refs[aux % len(refs)])
            elif op == 3:
                n = yield array_len(arr)
                if n:
                    yield array_nth(arr, aux % n)
            else:
                n = yield array_len(arr)
                arr = yield atake(aux % (n + 1), arr)
        return (yield ret(len(refs)))

    return prog()


def test_cost_equals_trace_sum_on_random_programs():
    rng = random.Random(7735)
    for _ in range(1000):
        prog = _random_program(rng)
        out, trace = run_traced(prog, empty_heap())
        assert isinstance(out, Success)
        assert out.cost == sum(units for _, units in trace)


def test_heaps_stay_wellformed():
    rng = random.Random(41)
    for _ in range(100):
        out = run(_random_program(rng), empty_heap())
        assert out.heap.wellformed()


def test_determinism_on_random_programs():
    rng = random.Random(11)
    for _ in range(50):
        prog = _random_program(rng)
        h = empty_heap()
        a = run(prog, h)
        b = run(prog, h)
        assert a.value == b.value
        assert a.cost == b.cost
        assert a.heap == b.heap


def _shift_value(v, offset):
    if isinstance(v, Addr):
        return Addr(v.index + offset, v.kind)
    return v


def test_heap_frame_unrelated_allocations():
    """Pre-allocating unrelated cells shifts fresh addresses but nothing else."""
    rng = random.Random(23)
    for _ in range(60):
        prog = _random_program(rng)
        base = empty_heap()
        out_plain = run(prog, base)

        padded = empty_heap()
        for j in range(5):
            padded = run(ref_new(j), padded).heap
        out_padded = run(prog, padded)

        assert out_plain.cost == out_padded.cost
        assert _shift_value(out_plain.value, 5) == out_padded.value \
            or out_plain.value == out_padded.value


def test_programs_cannot_forge_addresses():
    # an int is not an address, even if some cell has that index
    made = run(ref_new(1), empty_heap())
    assert run(ref_read(0), made.heap) is FAILURE
    # and a ref address does not alias an array address
    madea = run(array_of_list([1]), empty_heap())
    assert run(ref_read(Addr(madea.value.index, "ref")), madea.heap) is FAILURE


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_array_new_cost_table(n):
    assert run(array_new(n, 0), empty_heap()).cost == n + 1


def test_cost_table_on_random_invocations():
    """1000 random single-primitive runs, each checked against the table."""
    rng = random.Random(314)
    for _ in range(1000):
        n = rng.randrange(0, 40)
        made = run(array_of_list([rng.randrange(9) for _ in range(n)]), empty_heap())
        arr, heap = made.value, made.heap
        assert made.cost == n + 1
        cell = run(ref_new(0), heap)
        assert cell.cost == 1
        op = rng.randrange(8)
        if op == 0:
            assert run(ret(rng.randrange(9)), heap).cost == 1
        elif op == 1:
            assert run(ref_read(cell.value), cell.heap).cost == 1
        elif op == 2:
            assert run(ref_write(cell.value, 5), cell.heap).cost == 1
        elif op == 3:
            assert run(array_len(arr), heap).cost == 1
        elif op == 4 and n:
            assert run(array_nth(arr, rng.randrange(n)), heap).cost == 1
        elif op == 5:
            k = rng.randrange(n + 1)
            assert run(atake(k, arr), heap).cost == k + 1
        elif op == 6:
            k = rng.randrange(n + 1)
            assert run(adrop(k, arr), heap).cost == (n - k) + 1
        else:
            grow_to = n + rng.randrange(0, 8)
            assert run(agrow(grow_to, arr, 0), heap).cost == n + 1


# ---------------------------------------------------------------------------
# the driver: nesting depth, failure traces, bad yields
# ---------------------------------------------------------------------------

@proc
def _nest(k, bottom):
    """A chain of k nested procs around `bottom`."""
    if k == 0:
        return (yield bottom)
    return (yield _nest(k - 1, bottom))


def test_deep_nesting_runs_without_host_recursion():
    out = run(_nest(100_000, ret(3)), empty_heap())
    assert (out.value, out.cost) == (3, 1)
    out, trace = run_traced(_nest(100_000, ret(3)), empty_heap())
    assert (out.value, out.cost, trace) == (3, 1, (("ret", 1),))


def test_deep_failure_is_a_failure_not_an_exception():
    assert run(_nest(100_000, ref_read(Addr(0, "ref"))), empty_heap()) is FAILURE
    out, trace = run_traced(_nest(100_000, array_nth(Addr(0, "array"), 0)), empty_heap())
    assert (out, trace) == (FAILURE, (("array_nth", 1),))


def test_deep_bind_chain():
    c = ret(0)
    for _ in range(100_000):
        c = bind(c, lambda v: ret(v + 1))
    out = run(c, empty_heap())
    assert (out.value, out.cost) == (100_000, 100_001)


def _three_cells():
    return run(array_of_list([1, 2, 3]), empty_heap()).heap


_A, _R, _DANGLING = Addr(0, "array"), Addr(0, "ref"), Addr(7, "array")

# run_traced of each primitive that can fail, on a failing input, as the
# closure-based interpreter returned it: the first five charge before they
# validate, so the failed charge is in the trace; the rest validate first.
FAILING_PRIMITIVES = [
    ("ref_read", ref_read(_R), (("ref_read", 1),)),
    ("ref_write", ref_write(_A, 1), (("ref_write", 1),)),
    ("array_len", array_len(_R), (("array_len", 1),)),
    ("array_nth", array_nth(_A, 3), (("array_nth", 1),)),
    ("array_upd", array_upd(_A, True, 0), (("array_upd", 1),)),
    ("array_new", array_new(-1, 0), ()),
    ("array_to_list", array_to_list(_DANGLING), ()),
    ("atake", atake(4, _A), ()),
    ("adrop", adrop(-1, _A), ()),
    ("agrow", agrow(2, _A, 0), ()),
]


@pytest.mark.parametrize("comp,trace", [c[1:] for c in FAILING_PRIMITIVES],
                         ids=[c[0] for c in FAILING_PRIMITIVES])
def test_failing_primitive_traces(comp, trace):
    assert run_traced(comp, _three_cells()) == (FAILURE, trace)


def test_reading_an_unwritten_base_array_checks_the_address():
    h = _three_cells()
    assert run(array_nth(_A, 2), h).value == 3
    # a dangling array, a ref whose index names an array, and non-addresses
    # fail after the read's charge
    for bad in (_DANGLING, _R, 0, None):
        assert run_traced(array_nth(bad, 0), h) == (FAILURE, (("array_nth", 1),)), bad


class _Index(int):
    pass


def test_int_subclass_indexes_bool_does_not():
    h = _three_cells()
    assert run(array_nth(_A, _Index(2)), h).value == 3
    assert run(array_upd(_A, _Index(0), 9), h).heap.arrays[0] == [9, 2, 3]
    assert run(atake(_Index(1), _A), h).cost == 2
    assert run(array_new(_Index(2), 0), h).cost == 3
    assert run(array_nth(_A, False), h) is FAILURE
    assert run(array_new(True, 0), h) is FAILURE


class _TupleSubclass(tuple):
    pass


# plain values, a user tuple shaped like an instruction, and list and
# tuple-subclass copies of a real instruction: none is a computation
BAD_YIELDS = [(0, _A, 0, 99), (), 5, None,
              list(array_upd(_A, 0, 99)), _TupleSubclass(array_upd(_A, 0, 99))]


@pytest.mark.parametrize("bad", BAD_YIELDS, ids=repr)
def test_bad_yield_raises_and_charges_nothing(bad):
    from timecredits.heap import _drive

    @proc
    def prog():
        yield ret(0)
        yield bad
        yield array_upd(_A, 0, 99)

    heap, trace = _three_cells(), []
    with pytest.raises(TypeError):
        _drive(prog(), heap, trace)
    assert trace == [("ret", 1)]
    assert heap == _three_cells()
    with pytest.raises(TypeError):
        run(prog(), heap)
    with pytest.raises(TypeError):
        run(bad, heap)


def test_exceptions_other_than_failure_escape():
    @proc
    def inner():
        yield ret(1)
        raise ZeroDivisionError

    @proc
    def outer():
        try:
            yield inner()
        except ZeroDivisionError:  # an inner proc's error is not the caller's
            return "caught"

    with pytest.raises(ZeroDivisionError):
        run(outer(), empty_heap())
    with pytest.raises(ZeroDivisionError):
        run_traced(_nest(50, inner()), empty_heap())


def test_computations_are_reusable_values():
    made = run(array_of_list([5, 6]), empty_heap())
    prog = _nest(3, array_to_list(made.value))
    first, second = run(prog, made.heap), run(prog, made.heap)
    assert first == second and first.value == (5, 6) and first.cost == 3


# ---------------------------------------------------------------------------
# versions: a run never writes its input, and shares what it does not write
# ---------------------------------------------------------------------------

_VERSION_OP = st.tuples(st.integers(0, 4), st.integers(0, 7), st.integers(0, 7),
                        st.integers(-9, 9))
_VERSION_STEP = st.tuples(
    st.integers(0, 63),  # the earlier version the run starts from
    st.lists(_VERSION_OP, max_size=8),
    st.none() | st.integers(0, 8),  # fail after this many ops, or succeed
)


@proc
def _version_prog(arrays, refs, ops, fail_at, model, written):
    """Apply `ops` to the arrays and refs, mirroring each effect on `model`
    (a clone of the input) and noting every array written in `written`."""
    for k, (kind, x, y, z) in enumerate(ops):
        if k == fail_at:
            break
        if kind == 0:
            a = yield array_of_list([z] * (x % 4))
            arrays.append(a)
            model.arrays[a.index] = [z] * (x % 4)
            model.next_addr = a.index + 1
        elif kind == 2:
            r = yield ref_new(z)
            refs.append(r)
            model.refs[r.index] = z
            model.next_addr = r.index + 1
        elif kind == 3 and refs:
            r = refs[x % len(refs)]
            yield ref_write(r, z)
            model.refs[r.index] = z
        elif arrays:
            a = arrays[x % len(arrays)]
            n = yield array_len(a)
            if n and kind == 1:
                yield array_upd(a, y % n, z)
                model.arrays[a.index][y % n] = z
                written.add(a.index)
            elif n:
                yield array_nth(a, y % n)
    if fail_at is not None:
        yield array_nth(Addr(10**6, "array"), 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(_VERSION_STEP, min_size=1, max_size=12))
def test_versions_stay_as_they_were_made(steps):
    """A random tree of runs, some failing part-way: every version keeps the
    cells it had when it was made, a run's result is its input with the run's
    effects applied (in the same dict order), and an array the run did not
    write is the same list object in its input and its result."""
    versions = [_three_cells()]
    snapshots = [versions[0].clone()]
    for pick, ops, fail_at in steps:
        parent = versions[pick % len(versions)]
        model, written = parent.clone(), set()
        prog = _version_prog([Addr(i, "array") for i in parent.arrays],
                             [Addr(i, "ref") for i in parent.refs],
                             ops, fail_at, model, written)
        out = run(prog, parent)
        if fail_at is not None:
            assert out is FAILURE
        else:
            assert out.heap == model
            assert list(out.heap.arrays) == list(model.arrays)
            assert list(out.heap.refs) == list(model.refs)
            for i, cells in parent.arrays.items():
                assert (out.heap.arrays[i] is cells) == (i not in written)
            versions.append(out.heap)
            snapshots.append(out.heap.clone())
        assert versions == snapshots
