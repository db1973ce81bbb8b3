"""Deterministic heap interpreter where every primitive carries an exact cost.

Programs are values of type Computation: running one on a heap either fails
or yields (value, new heap, cost), with cost the exact number of charged
steps.  Reference and per-cell array commands cost 1; whole-array commands
cost n + 1 for a size-n array; `ret` costs 1; `bind` and host-level control
flow are free.  Input heaps are never mutated: `run` works on a run-local
overlay of the input.  A run copies an input array the first time it writes
to it and reads the others in place; on success it commits a new `Heap` that
shares every array it did not write with its input, and on failure it drops
the overlay, so a failing run leaves no visible change.

A version keeps its address-to-array map as two dicts: a *base*, shared with
the versions made from it, and a small *delta* of the arrays written or
allocated since that base was made.  A commit gives the new version its
parent's base and a fresh delta, the parent's delta plus what the run wrote.
It folds the delta into a fresh base only once len(delta)**2 exceeds
16 * len(base) + 4096, so a commit copies O(sqrt(heap)) entries amortized,
not the whole map.  A read that misses in the overlay looks in the delta,
then in the base.

A computation is an immutable instruction, a tuple of a private opcode and
its operands.  Each primitive constructor builds one; `proc` builds a PROC
instruction that names a generator function and its arguments, and `bind` is
itself a `proc`.  One driver loop, `_drive`, executes them for `run` and
`run_traced` alike: the generators of the running procs sit on an explicit
frame stack, not on the host stack, so a program's nesting depth is not
limited by Python's recursion limit.  The hot opcodes (`array_nth`,
`array_upd`, PROC, `ret`) are executed inline; the rest through their
opcode's `impl`.  The driver is the one place that records a charge.  A
yielded value that is not an instruction raises `TypeError` before anything
is charged.  Operand checks test the exact type first: the inline cell
commands check a plain int index i >= 0 by indexing the list (its
`IndexError` is the failure); any other index (negative, a bool, an int
subclass or not an int) takes the full test against the length.
"""

from __future__ import annotations

from collections import ChainMap
from functools import wraps
from typing import Any, Callable, Iterable, Union

from .records import frozen_error

REF = "ref"
ARRAY = "array"


class Addr:
    """Opaque heap address.  Programs obtain these from allocation only.  An
    immutable value, hashed as the tuple (index, kind) but never equal to it."""

    __slots__ = ("index", "kind")  # kind is REF or ARRAY

    def __init__(self, index: int, kind: str):
        _SET_INDEX(self, index)
        _SET_KIND(self, kind)

    def __setattr__(self, name, value):
        frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        frozen_error(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.index, self.kind) == (other.index, other.kind)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index, self.kind))

    def __reduce__(self):
        return Addr, (self.index, self.kind)

    def __repr__(self) -> str:
        return f"{'r' if self.kind == REF else 'a'}{self.index}"


# `Addr.__init__` writes the slots through their descriptors, past the frozen
# `__setattr__`
_SET_INDEX, _SET_KIND = Addr.index.__set__, Addr.kind.__set__


# Heap cells hold ints, bools, unit (None) or addresses.  Whole-array
# commands may additionally return tuples of these as computation results.
Value = Union[int, bool, None, Addr]


class _Arrays(ChainMap):
    """A version's arrays as one map: its delta over its base.  A key is
    looked up in the delta, then the base; a write goes to the delta, which
    no other version shares.  A walk merges the two once, in the order of
    the base's keys and then of the allocations after it."""

    def __getitem__(self, key):
        delta, base = self.maps
        return delta[key] if key in delta else base[key]

    def get(self, key, default=None):
        delta, base = self.maps
        return delta[key] if key in delta else base.get(key, default)

    def _merged(self) -> dict:
        delta, base = self.maps
        return base | delta if delta else base

    def items(self):
        return self._merged().items()

    def values(self):
        return self._merged().values()


class Heap:
    """Finite maps for reference cells and arrays plus an allocation counter.

    The counter only grows, so addresses are never reused and the ref/array
    domains stay disjoint.  Heaps share cell lists: one that `run` returns
    shares the arrays the run did not write, and a melded skew heap shares
    the arrays of its first operand.  So cells are changed only through
    `run`, which never writes its input, or on a `clone()`, which copies
    every array.

    `refs` is a plain dict.  The arrays sit in a base dict, shared with
    other versions, and a delta dict of this version's own (see the module
    docstring); `arrays` is a live view of both.  A dict given to
    `Heap(...)` is the delta of a version with an empty base, so a caller
    who keeps it still writes this heap, and no commit shares it.
    """

    __slots__ = ("refs", "next_addr", "_base", "_delta")

    def __init__(self, refs=None, arrays=None, next_addr=0):
        self.refs: dict[int, Value] = refs if refs is not None else {}
        self.next_addr: int = next_addr
        self._base: dict[int, list[Value]] = {}
        self._delta: dict[int, list[Value]] = arrays if arrays is not None else {}

    @property
    def arrays(self) -> _Arrays:
        return _Arrays(self._delta, self._base)

    def clone(self) -> "Heap":
        return Heap(dict(self.refs), {k: list(v) for k, v in self.arrays.items()}, self.next_addr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Heap):
            return NotImplemented
        return (self.refs, self.next_addr, self.arrays) == (other.refs, other.next_addr, other.arrays)

    def __repr__(self) -> str:
        cells = [f"r{i}={v!r}" for i, v in sorted(self.refs.items())]
        cells += [f"a{i}={v!r}" for i, v in sorted(self.arrays.items())]
        return "Heap(" + ", ".join(cells) + f", next={self.next_addr})"


def _version(refs, base, delta, next_addr) -> Heap:
    """A committed version: `base` is shared with its parent unless the
    commit folded, and `delta` is its own."""
    heap = object.__new__(Heap)
    heap.refs, heap.next_addr, heap._base, heap._delta = refs, next_addr, base, delta
    return heap


def empty_heap() -> Heap:
    return Heap()


class _Fail(Exception):
    """Internal signal; never escapes `run`."""


class _Op:
    """A private opcode: the primitive's name and, for the opcodes `_drive`
    does not execute inline, its `impl` and charge order.  A `unit` opcode
    costs 1, charged before ``impl(heap, instr) -> value`` validates
    anything; any other validates first and returns ``(value, units)``."""

    __slots__ = ("name", "impl", "unit")

    def __init__(self, name: str, impl=None, unit: bool = False):
        self.name = name
        self.impl = impl
        self.unit = unit

    def __repr__(self) -> str:
        return self.name


# A computation is an instruction: a tuple (opcode, *operands) built by a
# primitive constructor, `proc` or `bind`.  No other value is one.
Computation = tuple


class Success:
    """The outcome of a run that did not fail; an immutable value."""

    __slots__ = ("value", "heap", "cost")

    def __init__(self, value: Any, heap: Heap, cost: int):
        _SET_VALUE(self, value)
        _SET_HEAP(self, heap)
        _SET_COST(self, cost)

    __setattr__ = Addr.__setattr__
    __delattr__ = Addr.__delattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value, self.heap, self.cost) == (other.value, other.heap, other.cost)
        return NotImplemented

    def __reduce__(self):
        return Success, (self.value, self.heap, self.cost)

    def __repr__(self) -> str:
        return f"Success(value={self.value!r}, heap={self.heap!r}, cost={self.cost!r})"


_SET_VALUE, _SET_HEAP, _SET_COST = Success.value.__set__, Success.heap.__set__, Success.cost.__set__


class Failure:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Failure"


FAILURE = Failure()
Outcome = Union[Success, Failure]


def run(comp: Computation, heap: Heap) -> Outcome:
    """Run a computation against `heap`; the argument is left untouched."""
    try:
        value, cost, local = _drive(comp, heap, None)
    except _Fail:
        return FAILURE
    return Success(value, local.commit(), cost)


def run_traced(comp: Computation, heap: Heap) -> tuple[Outcome, tuple]:
    """Like `run` but also returns the (primitive, cost) charge trace."""
    trace: list = []
    try:
        value, cost, local = _drive(comp, heap, trace)
    except _Fail:
        return FAILURE, tuple(trace)
    return Success(value, local.commit(), cost), tuple(trace)


class _Overlay:
    """The run-local view of a base heap, which a run never writes.

    `refs` and `arrays` hold what the run allocated or wrote; a base ref is
    copied in when first touched, a base array when first written (reads of
    an unwritten base array go to the base heap's delta, then to its base).
    The opcodes use it like a `Heap`."""

    __slots__ = ("refs", "arrays", "next_addr", "base")

    def __init__(self, base: Heap):
        self.refs: dict[int, Value] = {}
        self.arrays: dict[int, list[Value]] = {}
        self.next_addr = base.next_addr
        self.base = base

    def commit(self) -> Heap:
        """The heap after a successful run: base keys first, then the new
        cells in allocation order; arrays the run did not write are shared."""
        parent = self.base
        base, delta = parent._base, parent._delta | self.arrays
        if len(delta) ** 2 > 16 * len(base) + 4096:
            base, delta = base | delta, {}
        return _version(parent.refs | self.refs, base, delta, self.next_addr)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def _drive(comp: Computation, base: Heap, trace) -> tuple[Any, int, _Overlay]:
    """Execute `comp` against `base` without writing it and return (value,
    cost, overlay); `overlay.commit()` is the heap after the run.

    `send` resumes the innermost running proc (None at the top level); the
    procs waiting for it keep their `send` on `frames`.  A failing primitive
    raises `_Fail`; any other exception propagates unchanged.  Each charge is
    appended to `trace` unless it is None; no other code records one.
    """
    heap = _Overlay(base)
    arrays, delta, base_arrays = heap.arrays, base._delta, base._base
    frames: list = []
    push, pop = frames.append, frames.pop
    # local names for what the loop tests on every instruction
    NTH, UPD, PROC, RET = _NTH, _UPD, _PROC, _RET
    Addr_, ARRAY_, tuple_, int_ = Addr, ARRAY, tuple, int
    send = None
    instr = comp
    cost = 0
    while True:
        op = instr[0] if type(instr) is tuple_ and instr else None
        if op is NTH:
            cost += 1
            if trace is not None:
                trace.append(_NTH_CHARGE)
            _, a, i = instr
            if not ((type(a) is Addr_ or isinstance(a, Addr_)) and a.kind == ARRAY_):
                raise _Fail()
            cells = arrays.get(a.index)
            if cells is None:
                # an unwritten base array is read in place
                cells = delta.get(a.index)
                if cells is None:
                    cells = base_arrays.get(a.index)
                    if cells is None:
                        raise _Fail()
            # a plain int i >= 0 is checked by the list itself
            if (type(i) is not int_ or i < 0) and (not _is_index(i) or not 0 <= i < len(cells)):
                raise _Fail()
            try:
                value = cells[i]
            except IndexError:
                raise _Fail() from None
        elif op is UPD:
            cost += 1
            if trace is not None:
                trace.append(_UPD_CHARGE)
            _, a, i, v = instr
            if not ((type(a) is Addr_ or isinstance(a, Addr_)) and a.kind == ARRAY_):
                raise _Fail()
            cells = arrays.get(a.index)
            if cells is None:
                # the first write to an input array copies it
                cells = delta.get(a.index)
                if cells is None:
                    cells = base_arrays.get(a.index)
                    if cells is None:
                        raise _Fail()
                cells = arrays[a.index] = cells[:]
            if (type(i) is not int_ or i < 0) and (not _is_index(i) or not 0 <= i < len(cells)):
                raise _Fail()
            try:
                cells[i] = v
            except IndexError:
                raise _Fail() from None
            value = None
        elif op is PROC:
            push(send)
            send = instr[1](*instr[2]).send
            value = None
        elif op is RET:
            cost += 1
            if trace is not None:
                trace.append(_RET_CHARGE)
            value = instr[1]
        elif type(op) is not _Op:
            raise TypeError(f"not a computation: {instr!r}")
        elif op.unit:
            cost += 1
            if trace is not None:
                trace.append((op.name, 1))
            value = op.impl(heap, instr)
        else:
            value, units = op.impl(heap, instr)
            cost += units
            if trace is not None:
                trace.append((op.name, units))
        # hand the value to the innermost proc; one that returns hands its
        # result on to its caller
        while True:
            if send is None:
                return value, cost, heap
            try:
                instr = send(value)
                break
            except StopIteration as stop:
                value = stop.value
                send = pop()


def _is_index(i) -> bool:
    return isinstance(i, int) and not isinstance(i, bool)


def _as_ref(heap: _Overlay, a: Value) -> int:
    """The index of ref `a`, copied into the run's `refs` on first touch."""
    if (type(a) is not Addr and not isinstance(a, Addr)) or a.kind != REF:
        raise _Fail()
    i = a.index
    if i not in heap.refs:
        base = heap.base.refs
        if i not in base:
            raise _Fail()
        heap.refs[i] = base[i]
    return i


def _as_array(heap: _Overlay, a: Value) -> list[Value]:
    """The cells of array `a`, for reading: an unwritten base array is
    returned in place."""
    if (type(a) is not Addr and not isinstance(a, Addr)) or a.kind != ARRAY:
        raise _Fail()
    cells = heap.arrays.get(a.index)
    if cells is None:
        cells = heap.base._delta.get(a.index)
        if cells is None:
            cells = heap.base._base.get(a.index)
            if cells is None:
                raise _Fail()
    return cells


def _alloc_array(heap: _Overlay, cells: list[Value]) -> Addr:
    i = heap.next_addr
    heap.arrays[i] = cells
    heap.next_addr = i + 1
    return Addr(i, ARRAY)


# ---------------------------------------------------------------------------
# opcodes.  `ret`, `array_nth`, `array_upd` and the `unit` opcodes charge
# before they validate, so a failure trace ends with their charge; the others
# validate first and are charged by `_drive` on their return.
# ---------------------------------------------------------------------------

def _ref_new(heap, instr):
    i = heap.next_addr
    heap.refs[i] = instr[1]
    heap.next_addr = i + 1
    return Addr(i, REF)


def _ref_read(heap, instr):
    return heap.refs[_as_ref(heap, instr[1])]


def _ref_write(heap, instr):
    _, a, v = instr
    heap.refs[_as_ref(heap, a)] = v


def _array_len(heap, instr):
    return len(_as_array(heap, instr[1]))


def _array_new(heap, instr):
    _, n, x = instr
    if (type(n) is not int and not _is_index(n)) or n < 0:
        raise _Fail()
    return _alloc_array(heap, [x] * n), n + 1


def _array_of_list(heap, instr):
    cells = instr[1]
    return _alloc_array(heap, list(cells)), len(cells) + 1


def _array_to_list(heap, instr):
    cells = _as_array(heap, instr[1])
    return tuple(cells), len(cells) + 1


def _atake(heap, instr):
    _, k, a = instr
    cells = _as_array(heap, a)
    if (type(k) is not int and not _is_index(k)) or not 0 <= k <= len(cells):
        raise _Fail()
    return _alloc_array(heap, cells[:k]), k + 1


def _adrop(heap, instr):
    _, k, a = instr
    cells = _as_array(heap, a)
    if (type(k) is not int and not _is_index(k)) or not 0 <= k <= len(cells):
        raise _Fail()
    return _alloc_array(heap, cells[k:]), (len(cells) - k) + 1


def _agrow(heap, instr):
    _, n, a, fill = instr
    cells = _as_array(heap, a)
    if not _is_index(n) or n < len(cells):
        raise _Fail()
    return _alloc_array(heap, cells + [fill] * (n - len(cells))), len(cells) + 1


_NTH, _UPD, _PROC, _RET = _Op("array_nth"), _Op("array_upd"), _Op("proc"), _Op("ret")
_NTH_CHARGE, _UPD_CHARGE, _RET_CHARGE = ("array_nth", 1), ("array_upd", 1), ("ret", 1)
_REF_NEW = _Op("ref_new", _ref_new, unit=True)
_REF_READ = _Op("ref_read", _ref_read, unit=True)
_REF_WRITE = _Op("ref_write", _ref_write, unit=True)
_ARRAY_LEN = _Op("array_len", _array_len, unit=True)
_ARRAY_NEW = _Op("array_new", _array_new)
_ARRAY_OF_LIST = _Op("array_of_list", _array_of_list)
_ARRAY_TO_LIST = _Op("array_to_list", _array_to_list)
_ATAKE = _Op("atake", _atake)
_ADROP = _Op("adrop", _adrop)
_AGROW = _Op("agrow", _agrow)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def ret(v: Value) -> Computation:
    """Return a pure value; costs 1 step."""
    return (_RET, v)


def proc(genfn):
    """Write a computation as a generator yielding sub-computations.

    Each `yield comp` runs `comp` and evaluates to its result; the generator
    body itself (control flow, arithmetic) is free, mirroring `bind`.  The
    generator is re-created on every run, so the computation is a reusable
    value.  A proc takes positional arguments only.
    """
    @wraps(genfn)
    def build(*args):
        return (_PROC, genfn, args)
    return build


@proc
def bind(c: Computation, f: Callable[[Any], Computation]):
    """Sequence two computations; adds no cost of its own."""
    return (yield f((yield c)))


def ref_new(v: Value) -> Computation:
    return (_REF_NEW, v)


def ref_read(a: Value) -> Computation:
    return (_REF_READ, a)


def ref_write(a: Value, v: Value) -> Computation:
    return (_REF_WRITE, a, v)


def array_len(a: Value) -> Computation:
    return (_ARRAY_LEN, a)


def array_nth(a: Value, i: int) -> Computation:
    return (_NTH, a, i)


def array_upd(a: Value, i: int, v: Value) -> Computation:
    return (_UPD, a, i, v)


def array_new(n: int, x: Value) -> Computation:
    """Allocate [x, ..., x] of length n; costs n + 1."""
    return (_ARRAY_NEW, n, x)


def array_of_list(xs: Iterable[Value]) -> Computation:
    """Allocate an array holding xs; costs len(xs) + 1."""
    return (_ARRAY_OF_LIST, tuple(xs))


def array_to_list(a: Value) -> Computation:
    """Extract the whole array as a tuple; costs len + 1."""
    return (_ARRAY_TO_LIST, a)


def atake(k: int, a: Value) -> Computation:
    """Copy the first k cells into a fresh array; costs k + 1."""
    return (_ATAKE, k, a)


def adrop(k: int, a: Value) -> Computation:
    """Copy the cells from position k on into a fresh array; costs (len - k) + 1."""
    return (_ADROP, k, a)


def agrow(n: int, a: Value, fill: Value) -> Computation:
    """Copy a whole size-k array into a fresh array of length n >= k, padding
    with `fill`; costs k + 1 (a whole-array command on the source)."""
    return (_AGROW, n, a, fill)
