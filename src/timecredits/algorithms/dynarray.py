"""Growable array that doubles its backing store when full, never shrinks.

A plain push writes one cell.  A push into a full array first copies the
backing store into a doubled fresh array (one whole-array command, so cost
length + 1) and then writes.  With the potential max(0, 2*len - cap) the
amortized cost per push is a small constant.
"""

from __future__ import annotations

from typing import NamedTuple

from ..amortized import AmortizedOp, AmortizedScheme, succeeded
from ..heap import (
    FAILURE,
    Addr,
    Heap,
    agrow,
    array_new,
    array_nth,
    array_upd,
    empty_heap,
    proc,
    ret,
    run,
)


class DynArray(NamedTuple):
    heap: Heap
    data: Addr  # the heap holds the only copy of the contents
    length: int
    capacity: int


def new_dynarray() -> DynArray:
    out = succeeded(run(array_new(0, 0), empty_heap()))
    return DynArray(out.heap, out.value, 0, 0)


def push(d: DynArray, value) -> tuple[DynArray, int]:
    if d.length < d.capacity:
        out = succeeded(run(array_upd(d.data, d.length, value), d.heap))
        return DynArray(out.heap, d.data, d.length + 1, d.capacity), out.cost

    new_cap = max(1, 2 * d.capacity)

    @proc
    def grow_and_write():
        fresh = yield agrow(new_cap, d.data, 0)
        yield array_upd(fresh, d.length, value)
        return fresh

    out = succeeded(run(grow_and_write(), d.heap))
    return DynArray(out.heap, out.value, d.length + 1, new_cap), out.cost


def get(d: DynArray, index: int) -> tuple[object, int]:
    if not 0 <= index < d.length:
        return FAILURE, 0
    out = succeeded(run(array_nth(d.data, index), d.heap))
    return out.value, out.cost


def length(d: DynArray) -> tuple[int, int]:
    out = succeeded(run(ret(d.length), d.heap))
    return out.value, out.cost


def potential(d: DynArray) -> int:
    return max(0, 2 * d.length - d.capacity)


def dynarray_shape(n: int) -> int:
    return 1


DYNARRAY_PUSH_MULTIPLIER = 4  # calibrated; the search in the tests confirms it


def dynarray_scheme(push_multiplier: int = DYNARRAY_PUSH_MULTIPLIER) -> AmortizedScheme:
    def apply_get(d, arg):
        value, cost = get(d, arg if arg is not None else 0)
        return d, cost

    def apply_len(d, arg):
        _, cost = length(d)
        return d, cost

    return AmortizedScheme(
        name="dynarray",
        potential=potential,
        size_measure=lambda d: d.length,
        ops={
            "push": AmortizedOp("push", push, lambda n: push_multiplier),
            "get": AmortizedOp("get", apply_get, lambda n: 1),
            "len": AmortizedOp("len", apply_len, lambda n: 1),
        },
    )
