import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecredits.algorithms import skew_heap as skew
from timecredits.credits import UNIT, CallAtom, FloorDivE, VarE
from timecredits.heap import (
    FAILURE,
    Addr,
    Heap,
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

from oracles import wellformed


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
        assert wellformed(out.heap)


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


class _SubAddr(Addr):
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


# plain values, a user tuple shaped like an instruction, list and
# tuple-subclass copies of a real instruction, and credit terms, which are
# tuples too: none is a computation
BAD_YIELDS = [(0, _A, 0, 99), (), 5, None,
              list(array_upd(_A, 0, 99)), _TupleSubclass(array_upd(_A, 0, 99)),
              VarE("n"), UNIT, CallAtom("f", (FloorDivE(VarE("n"), 2),))]


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
# the driver against a plain reference interpreter
# ---------------------------------------------------------------------------

class _RefFail(Exception):
    pass


def _reference_run(prog, base):
    """`run_traced` of a straight-line program, written plainly: `prog` is a
    list of (constructor name, operands) or nested lists (sub-procs, whose
    value is their last op's).  `ret`, `array_nth`, `array_upd` and the
    one-unit ops charge before they validate, the rest validate first.
    Returns ((value, heap) or None on failure, trace)."""
    refs = dict(base.refs)
    arrays = {i: list(cells) for i, cells in base.arrays.items()}
    next_addr = base.next_addr
    trace = []

    def is_index(x):
        return isinstance(x, int) and not isinstance(x, bool)

    def array(a):
        if not (isinstance(a, Addr) and a.kind == "array" and a.index in arrays):
            raise _RefFail
        return arrays[a.index]

    def ref(a):
        if not (isinstance(a, Addr) and a.kind == "ref" and a.index in refs):
            raise _RefFail
        return a.index

    def alloc(table, kind, value):
        nonlocal next_addr
        next_addr += 1
        table[next_addr - 1] = value
        return Addr(next_addr - 1, kind)

    def step(name, args):
        if name in ("ret", "array_nth", "array_upd", "ref_new", "ref_read",
                    "ref_write", "array_len"):
            trace.append((name, 1))
            if name == "ret":
                return args[0]
            if name == "ref_new":
                return alloc(refs, "ref", args[0])
            if name == "ref_read":
                return refs[ref(args[0])]
            if name == "ref_write":
                refs[ref(args[0])] = args[1]
                return None
            cells = array(args[0])
            if name == "array_len":
                return len(cells)
            i = args[1]
            if not (is_index(i) and 0 <= i < len(cells)):
                raise _RefFail
            if name == "array_nth":
                return cells[i]
            cells[i] = args[2]
            return None
        if name == "array_of_list":
            value, units = alloc(arrays, "array", list(args[0])), len(args[0]) + 1
        elif name == "array_new":
            n, x = args
            if not (is_index(n) and n >= 0):
                raise _RefFail
            value, units = alloc(arrays, "array", [x] * n), n + 1
        elif name == "array_to_list":
            cells = array(args[0])
            value, units = tuple(cells), len(cells) + 1
        elif name == "agrow":
            n, a, fill = args
            cells = array(a)
            if not (is_index(n) and n >= len(cells)):
                raise _RefFail
            value = alloc(arrays, "array", cells + [fill] * (n - len(cells)))
            units = len(cells) + 1
        else:  # atake, adrop
            k, a = args
            cells = array(a)
            if not (is_index(k) and 0 <= k <= len(cells)):
                raise _RefFail
            part = cells[:k] if name == "atake" else cells[k:]
            value, units = alloc(arrays, "array", part), len(part) + 1
        trace.append((name, units))
        return value

    def block(ops):
        value = None
        for op in ops:
            value = block(op) if isinstance(op, list) else step(*op)
        return value

    try:
        value = block(prog)
    except _RefFail:
        return None, tuple(trace)
    return (value, Heap(refs, arrays, next_addr)), tuple(trace)


@proc
def _straight_line(instrs):
    value = None
    for instr in instrs:
        value = yield instr
    return value


_CONSTRUCTORS = {f.__name__: f for f in (ret, array_nth, array_upd, array_len, array_new,
                                         array_of_list, array_to_list, atake, adrop, agrow,
                                         ref_new, ref_read, ref_write)}


def _build(prog):
    """The computation a reference program stands for."""
    return _straight_line(tuple(_build(op) if isinstance(op, list) else _CONSTRUCTORS[op[0]](*op[1])
                                for op in prog))


def _driver_base():
    """Arrays a0 (3 cells) and a1 (4 cells), ref r2; the next address is 3."""
    base = run(array_of_list([1, 2, 3]), empty_heap()).heap
    base = run(array_of_list([4, 5, 6, 7]), base).heap
    return run(ref_new(8), base).heap


# arrays a0 and a1 are in the base, a3 and a4 are made by the run if it allocates;
# r0 is a ref address on an array's index, a9 and r7 dangle; an Addr subclass
# is an address too
_GOOD_ARRAYS = [Addr(0, "array"), Addr(1, "array")] * 3 + [Addr(3, "array"), Addr(4, "array"),
                                                         _SubAddr(0, "array")]
_BAD_ADDRS = [Addr(0, "ref"), Addr(2, "array"), Addr(9, "array"), Addr(7, "ref"), None, 0, 1,
              _SubAddr(0, "ref"), _SubAddr(9, "array")]
_BAD_INDEXES = [-1, -4, 4, 5, 10**20, True, False, _Index(-1), _Index(9), "1", 1.0, None]
_GOOD_INDEXES = [0, 1, 2, 0, 1, 2, 3, _Index(0), _Index(2)]


def _random_reference_program(rng, depth=0):
    def addr():
        return rng.choice(_GOOD_ARRAYS if rng.random() < 0.93 else _BAD_ADDRS)

    def index():
        return rng.choice(_GOOD_INDEXES if rng.random() < 0.9 else _BAD_INDEXES)

    def size():  # kept small: a size is an allocation
        good = rng.random() < 0.85
        return rng.choice([0, 1, 2, 3, 5, _Index(2)] if good else [-1, True, _Index(-2), 2.0])

    def value():
        return rng.choice([0, 7, -3, None, True, Addr(0, "array")])

    prog = []
    for _ in range(rng.randrange(1, 8)):
        kind = rng.randrange(14)
        if kind == 0 and depth < 2:
            prog.append(_random_reference_program(rng, depth + 1))
        elif kind in (1, 2, 3):
            prog.append(("array_nth", (addr(), index())))
        elif kind in (4, 5):
            prog.append(("array_upd", (addr(), index(), value())))
        elif kind == 6:
            prog.append(("array_len", (addr(),)))
        elif kind == 7:
            prog.append((rng.choice(["atake", "adrop"]), (index(), addr())))
        elif kind == 8:
            prog.append(("array_new", (size(), value())))
        elif kind == 9:
            prog.append(("agrow", (rng.choice([3, 4, 6, 2, -1, True, _Index(5)]), addr(), value())))
        elif kind == 10:
            prog.append(("array_to_list", (addr(),)))
        elif kind == 11:
            prog.append(("array_of_list", ([value() for _ in range(rng.randrange(3))],)))
        elif kind == 12:
            r = rng.choice([Addr(2, "ref"), Addr(2, "ref"), Addr(5, "ref")] + _BAD_ADDRS)
            prog.append(rng.choice([("ref_read", (r,)), ("ref_write", (r, value())),
                                    ("ref_new", (value(),))]))
        else:
            prog.append(("ret", (value(),)))
    return prog


def test_driver_agrees_with_a_plain_reference_interpreter():
    """Outcome, trace, committed heap (with dict order) and the untouched input
    of `run_traced` and `run`, on 4000 derandomized random programs."""
    rng = random.Random(2024)
    base = _driver_base()
    snapshot = base.clone()
    succeeded = 0
    for _ in range(4000):
        prog = _random_reference_program(rng)
        want, want_trace = _reference_run(prog, base)
        comp = _build(prog)
        out, trace = run_traced(comp, base)
        assert trace == want_trace, prog
        assert run(comp, base) == out
        if want is None:
            assert out is FAILURE, prog
        else:
            succeeded += 1
            value, heap = want
            assert (out.value, out.heap, out.cost) == (value, heap, sum(u for _, u in trace)), prog
            assert list(out.heap.arrays) == list(heap.arrays)
            assert list(out.heap.refs) == list(heap.refs)
        assert base == snapshot
    assert 800 < succeeded < 3200  # both outcomes are exercised


# ---------------------------------------------------------------------------
# Addr and Success are values
# ---------------------------------------------------------------------------

def test_addr_is_an_immutable_value():
    a = Addr(3, "array")
    assert a == Addr(3, "array") and not a != Addr(3, "array")
    assert a != Addr(3, "ref") and a != Addr(4, "array")
    assert a != (3, "array") and (3, "array") != a
    assert a.__eq__((3, "array")) is NotImplemented
    assert {a: 1}.get((3, "array")) is None
    for index, kind in [(3, "array"), (0, "ref"), (2**70, "ref")]:
        assert hash(Addr(index, kind)) == hash((index, kind))
    # so sets of addresses iterate in the order of their tuples
    pairs = [(i * 37 % 101, "array" if i % 3 else "ref") for i in range(60)]
    assert [(b.index, b.kind) for b in frozenset(Addr(*p) for p in pairs)] == list(frozenset(pairs))
    for name in ("index", "kind"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.other = 1
    assert (a.index, a.kind) == (3, "array")
    assert (repr(a), repr(Addr(3, "ref")), repr([Addr(0, "array")])) == ("a3", "r3", "[a0]")
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
                 copy.deepcopy([a, Addr(1, "ref")])[0]):
        assert type(twin) is Addr and twin == a and hash(twin) == hash(a)


def test_success_is_an_immutable_value():
    h = _three_cells()
    out = run(ret(5), h)
    assert out == Success(5, h, 1) and out != Success(5, h, 2)
    assert repr(out) == f"Success(value=5, heap={h!r}, cost=1)"
    with pytest.raises(AttributeError):
        out.cost = 0


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


@settings(max_examples=150, deadline=None, derandomize=True)
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


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(300, 360))
def test_versions_stay_as_they_were_made_across_folds(seed, length):
    """A chain of hundreds of runs, long enough that each version's delta is
    folded into a fresh base several times.  Between runs `.arrays` is read
    on random earlier versions, and the views handed out that way and the
    dicts passed to `Heap(...)` are written after runs have started from
    them.  Every version keeps the cells of its model (a clone of its
    parent's, with the run's effects and the later writes to its own arrays
    applied), in the model's dict order, and a run shares every array it did
    not write."""
    rng = random.Random(seed)
    versions = [_three_cells()]
    models = [versions[0].clone()]
    handed_out = []  # (version, the dict its caller can write)
    tip = folds = 0
    for step in range(length):
        if rng.random() < 0.03:
            # a new root on a dict its caller keeps
            arrays = {i: list(cells) for i, cells in models[-1].arrays.items()}
            versions.append(Heap(dict(models[-1].refs), arrays, models[-1].next_addr))
            models.append(versions[-1].clone())
            handed_out.append((len(versions) - 1, arrays))
        j = rng.randrange(len(versions))
        if j != tip and rng.random() < 0.05:
            assert list(versions[j].arrays) == list(models[j].arrays)
            handed_out.append((j, versions[j].arrays))
        if handed_out and rng.random() < 0.05:
            j, arrays = rng.choice(handed_out)
            i = rng.choice(list(arrays))
            arrays[i] = [rng.randrange(9)] * rng.randrange(3)
            models[j].arrays[i] = list(arrays[i])
        # the chain goes on from its tip; a run from another version branches off
        pick = tip if rng.random() < 0.8 else rng.randrange(len(versions))
        parent = versions[pick]
        # mostly allocations and writes, so the delta grows
        ops = [(rng.choice((0, 0, 1, 1, 2, 3, 4)), rng.randrange(8), rng.randrange(8),
                rng.randrange(-9, 10)) for _ in range(rng.randrange(13))]
        fail_at = rng.randrange(13) if rng.random() < 0.1 else None
        model, written = models[pick].clone(), set()
        prog = _version_prog([Addr(i, "array") for i in models[pick].arrays],
                             [Addr(i, "ref") for i in models[pick].refs],
                             ops, fail_at, model, written)
        out = run(prog, parent)
        if fail_at is not None:
            assert out is FAILURE
        else:
            assert out.heap == model
            before, after = parent.arrays, out.heap.arrays
            for i, cells in before.items():
                assert (after[i] is cells) == (i not in written)
            folds += out.heap._base is not parent._base
            if pick == tip:
                tip = len(versions)
            versions.append(out.heap)
            models.append(model)
        if step % 50 == 0:
            assert versions == models
    assert folds >= 3
    assert versions == models
    for version, model in zip(versions, models):
        assert list(version.arrays) == list(model.arrays)
        assert list(version.refs) == list(model.refs)


def test_a_commit_keeps_the_delta_within_the_fold_bound():
    """4000 skew-heap inserts: after each, the new version's delta is within
    the fold bound, so a commit never copies the whole address map."""
    s = skew.new_skew_heap()
    folds = 0
    for k in range(4000):
        before = s.heap
        s, _ = skew.skew_push(s, (k * 7919) % 4001)
        heap = s.heap
        assert len(heap._delta) ** 2 <= 16 * len(heap._base) + 4096
        folds += heap._base is not before._base
    assert folds >= 1
    assert sorted(skew.skew_elements(skew.skew_extract(s.heap, s.root))) == sorted(
        (k * 7919) % 4001 for k in range(4000))


def test_a_run_from_a_version_read_through_arrays_still_shares_its_base():
    """600 skew-heap inserts, each from a version whose `.arrays` was just
    read by key, by `get` and by a walk.  Reading leaves the version as it
    was: the run's result shares the version's base, and gets a fresh one
    exactly when the version's delta plus the run's writes pass the fold
    bound."""
    s = skew.new_skew_heap()
    folds = 0
    for k in range(600):
        heap = s.heap
        arrays = heap.arrays
        if s.root is not None:
            assert arrays[s.root.index] is arrays.get(s.root.index) is not None
        assert len(list(arrays.values())) == len(list(arrays)) == len(heap._base | heap._delta)
        s, _ = skew.skew_push(s, (k * 7919) % 601)
        out = s.heap
        written = {i for i, cells in out.arrays.items() if arrays.get(i) is not cells}
        fold = len(heap._delta.keys() | written) ** 2 > 16 * len(heap._base) + 4096
        assert (out._base is not heap._base) == fold
        assert out._delta == ({} if fold else heap._delta | {i: out.arrays[i] for i in written})
        folds += fold
    assert 1 <= folds <= 10
