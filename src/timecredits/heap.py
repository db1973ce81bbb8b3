"""Deterministic heap interpreter where every primitive carries an exact cost.

Programs are values of type Computation: running one on a heap either fails
or yields (value, new heap, cost), with cost the exact number of charged
steps.  Reference and per-cell array commands cost 1; whole-array commands
cost n + 1 for a size-n array; `ret` costs 1; `bind` and host-level control
flow are free.  Input heaps are never mutated: `run` works on a private copy,
so a failing run leaves no visible change.

A computation is an immutable instruction, a tuple of a private opcode and
its operands.  Each primitive constructor builds one; `proc` builds a PROC
instruction that names a generator function and its arguments, and `bind` is
itself a `proc`.  One driver loop, `_drive`, executes them for `run` and
`run_traced` alike: the generators of the running procs sit on an explicit
frame stack, not on the host stack, so a program's nesting depth is not
limited by Python's recursion limit.  The hot opcodes (`array_nth`,
`array_upd`, PROC, `ret`) are executed inline; the rest go through
`_exec`.  A yielded value that is not an instruction raises `TypeError`
before anything is charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, wraps
from typing import Any, Callable, Iterable, Union

REF = "ref"
ARRAY = "array"


@dataclass(frozen=True)
class Addr:
    """Opaque heap address.  Programs obtain these from allocation only."""

    index: int
    kind: str  # REF or ARRAY

    def __repr__(self) -> str:
        return f"{'r' if self.kind == REF else 'a'}{self.index}"


# Heap cells hold ints, bools, unit (None) or addresses.  Whole-array
# commands may additionally return tuples of these as computation results.
Value = Union[int, bool, None, Addr]


class Heap:
    """Finite maps for reference cells and arrays plus an allocation counter.

    The counter only grows, so addresses are never reused and the ref/array
    domains stay disjoint.
    """

    __slots__ = ("refs", "arrays", "next_addr")

    def __init__(self, refs=None, arrays=None, next_addr=0):
        self.refs: dict[int, Value] = refs if refs is not None else {}
        self.arrays: dict[int, list[Value]] = arrays if arrays is not None else {}
        self.next_addr: int = next_addr

    def clone(self) -> "Heap":
        return Heap(dict(self.refs), {k: list(v) for k, v in self.arrays.items()}, self.next_addr)

    def allocated(self) -> set[Addr]:
        out = {Addr(i, REF) for i in self.refs}
        out.update(Addr(i, ARRAY) for i in self.arrays)
        return out

    def wellformed(self) -> bool:
        if set(self.refs) & set(self.arrays):
            return False
        domain = list(self.refs) + list(self.arrays)
        return all(i < self.next_addr for i in domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Heap):
            return NotImplemented
        return (
            self.refs == other.refs
            and self.arrays == other.arrays
            and self.next_addr == other.next_addr
        )

    def __repr__(self) -> str:
        cells = [f"r{i}={v!r}" for i, v in sorted(self.refs.items())]
        cells += [f"a{i}={v!r}" for i, v in sorted(self.arrays.items())]
        return "Heap(" + ", ".join(cells) + f", next={self.next_addr})"


def empty_heap() -> Heap:
    return Heap()


class _Fail(Exception):
    """Internal signal; never escapes `run`."""


class _Op:
    """A private opcode: the primitive's name and, for the opcodes `_drive`
    does not execute inline, ``impl(heap, trace, instr) -> (value, units)``."""

    __slots__ = ("name", "impl")

    def __init__(self, name: str, impl=None):
        self.name = name
        self.impl = impl

    def __repr__(self) -> str:
        return self.name


# A computation is an instruction: a tuple (opcode, *operands) built by a
# primitive constructor, `proc` or `bind`.  No other value is one.
Computation = tuple


@dataclass(frozen=True)
class Success:
    value: Any
    heap: Heap
    cost: int


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
    """Run a computation on a copy of `heap`; the argument is left untouched."""
    heap = heap.clone()
    try:
        value, cost = _drive(comp, heap, None)
    except _Fail:
        return FAILURE
    return Success(value, heap, cost)


def run_traced(comp: Computation, heap: Heap) -> tuple[Outcome, tuple]:
    """Like `run` but also returns the (primitive, cost) charge trace."""
    heap = heap.clone()
    trace: list = []
    try:
        value, cost = _drive(comp, heap, trace)
    except _Fail:
        return FAILURE, tuple(trace)
    return Success(value, heap, cost), tuple(trace)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def _drive(comp: Computation, heap: Heap, trace) -> tuple[Any, int]:
    """Execute `comp` on `heap` in place and return (value, cost).

    `send` resumes the innermost running proc (None at the top level); the
    procs waiting for it keep their `send` on `frames`.  A failing primitive
    raises `_Fail`; any other exception propagates unchanged.  Each charge is
    appended to `trace` unless it is None.
    """
    arrays = heap.arrays
    frames: list = []
    push, pop = frames.append, frames.pop
    send = None
    instr = comp
    cost = 0
    while True:
        op = instr[0] if type(instr) is tuple and instr else None
        if op is _NTH:
            cost += 1
            if trace is not None:
                trace.append(_NTH_CHARGE)
            _, a, i = instr
            cells = arrays.get(a.index) if isinstance(a, Addr) and a.kind == ARRAY else None
            if (cells is None or (type(i) is not int and not _is_index(i))
                    or not 0 <= i < len(cells)):
                raise _Fail()
            value = cells[i]
        elif op is _UPD:
            cost += 1
            if trace is not None:
                trace.append(_UPD_CHARGE)
            _, a, i, v = instr
            cells = arrays.get(a.index) if isinstance(a, Addr) and a.kind == ARRAY else None
            if (cells is None or (type(i) is not int and not _is_index(i))
                    or not 0 <= i < len(cells)):
                raise _Fail()
            cells[i] = v
            value = None
        elif op is _PROC:
            push(send)
            send = instr[1](*instr[2]).send
            value = None
        elif op is _RET:
            cost += 1
            if trace is not None:
                trace.append(_RET_CHARGE)
            value = instr[1]
        else:
            value, units = _exec(op, instr, heap, trace)
            cost += units
        # hand the value to the innermost proc; one that returns hands its
        # result on to its caller
        while True:
            if send is None:
                return value, cost
            try:
                instr = send(value)
                break
            except StopIteration as stop:
                value = stop.value
                send = pop()


def _exec(op, instr, heap: Heap, trace) -> tuple[Any, int]:
    """Execute an instruction that `_drive` does not inline."""
    if type(op) is not _Op:
        raise TypeError(f"not a computation: {instr!r}")
    return op.impl(heap, trace, instr)


def _charge(trace, name: str, units: int) -> int:
    if trace is not None:
        trace.append((name, units))
    return units


def _is_index(i) -> bool:
    return isinstance(i, int) and not isinstance(i, bool)


def _as_ref(heap: Heap, a: Value) -> int:
    if not isinstance(a, Addr) or a.kind != REF or a.index not in heap.refs:
        raise _Fail()
    return a.index


def _as_array(heap: Heap, a: Value) -> list[Value]:
    if not isinstance(a, Addr) or a.kind != ARRAY or a.index not in heap.arrays:
        raise _Fail()
    return heap.arrays[a.index]


def _alloc_array(heap: Heap, cells: list[Value]) -> Addr:
    a = Addr(heap.next_addr, ARRAY)
    heap.arrays[a.index] = cells
    heap.next_addr += 1
    return a


# ---------------------------------------------------------------------------
# opcodes.  `ret`, `ref_*`, `array_len`, `array_nth`, `array_upd` and
# `array_of_list` charge before they validate, so a failure trace ends with
# their charge; `array_new`, `array_to_list`, `atake`, `adrop` and `agrow`
# validate first.
# ---------------------------------------------------------------------------

def _ref_new(heap, trace, instr):
    units = _charge(trace, "ref_new", 1)
    a = Addr(heap.next_addr, REF)
    heap.refs[a.index] = instr[1]
    heap.next_addr += 1
    return a, units


def _ref_read(heap, trace, instr):
    units = _charge(trace, "ref_read", 1)
    return heap.refs[_as_ref(heap, instr[1])], units


def _ref_write(heap, trace, instr):
    units = _charge(trace, "ref_write", 1)
    _, a, v = instr
    heap.refs[_as_ref(heap, a)] = v
    return None, units


def _array_len(heap, trace, instr):
    units = _charge(trace, "array_len", 1)
    return len(_as_array(heap, instr[1])), units


def _array_new(heap, trace, instr):
    _, n, x = instr
    if not _is_index(n) or n < 0:
        raise _Fail()
    units = _charge(trace, "array_new", n + 1)
    return _alloc_array(heap, [x] * n), units


def _array_of_list(heap, trace, instr):
    cells = instr[1]
    units = _charge(trace, "array_of_list", len(cells) + 1)
    return _alloc_array(heap, list(cells)), units


def _array_to_list(heap, trace, instr):
    cells = _as_array(heap, instr[1])
    return tuple(cells), _charge(trace, "array_to_list", len(cells) + 1)


def _atake(heap, trace, instr):
    _, k, a = instr
    cells = _as_array(heap, a)
    if not _is_index(k) or not 0 <= k <= len(cells):
        raise _Fail()
    units = _charge(trace, "atake", k + 1)
    return _alloc_array(heap, cells[:k]), units


def _adrop(heap, trace, instr):
    _, k, a = instr
    cells = _as_array(heap, a)
    if not _is_index(k) or not 0 <= k <= len(cells):
        raise _Fail()
    units = _charge(trace, "adrop", (len(cells) - k) + 1)
    return _alloc_array(heap, cells[k:]), units


def _agrow(heap, trace, instr):
    _, n, a, fill = instr
    cells = _as_array(heap, a)
    if not _is_index(n) or n < len(cells):
        raise _Fail()
    units = _charge(trace, "agrow", len(cells) + 1)
    return _alloc_array(heap, cells + [fill] * (n - len(cells))), units


_NTH, _UPD, _PROC, _RET = _Op("array_nth"), _Op("array_upd"), _Op("proc"), _Op("ret")
_NTH_CHARGE, _UPD_CHARGE, _RET_CHARGE = ("array_nth", 1), ("array_upd", 1), ("ret", 1)
_REF_NEW = _Op("ref_new", _ref_new)
_REF_READ = _Op("ref_read", _ref_read)
_REF_WRITE = _Op("ref_write", _ref_write)
_ARRAY_LEN = _Op("array_len", _array_len)
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
    value.
    """
    @wraps(genfn)
    def build(*args, **kwargs):
        return (_PROC, partial(genfn, **kwargs) if kwargs else genfn, args)
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
