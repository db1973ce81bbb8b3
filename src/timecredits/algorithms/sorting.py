"""Merge sort and insertion sort: pure reference, instrumented heap
implementation, and runtime bound built from the same call structure."""

from __future__ import annotations

from ..credits import FloorDivE, SubE, VarE, t_call, t_lit, t_poly, t_var
from ..heap import (
    adrop,
    array_len,
    array_nth,
    array_upd,
    atake,
    proc,
    ret,
)
from ..landau import PolyLog
from ..recurrence import (
    AkraBazziSpec, LinearRecSpec, eval_linear, eval_recurrence, one_spec_per_consts, recurrence_of,
)

N = VarE("n")

MERGE_SORT_CONSTS = {
    "base": 2,        # len + ret on short input
    "step": 2,        # len + trailing ret in the recursive branch
    "take_pad": 1,    # the +1 of the bulk copy commands
    "drop_pad": 1,
    "merge_coeff": 3, # worst cost per merged element
}

INSERTION_SORT_CONSTS = {
    "base": 2,         # len + ret
    "outer_pad": 2,    # read of the inserted value + its final write
    "shift_coeff": 2,  # read + write per displaced element
}


# ---------------------------------------------------------------------------
# merge sort
# ---------------------------------------------------------------------------

def merge_sort_fun(xs: list) -> list:
    if len(xs) <= 1:
        return list(xs)
    half = len(xs) // 2
    return merge_list(merge_sort_fun(xs[:half]), merge_sort_fun(xs[half:]))


def merge_list(a: list, b: list) -> list:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] <= b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


@proc
def mergeinto(la: int, lb: int, a, b, x):
    """Merge sorted arrays a (length la) and b (length lb) into x."""
    i = j = 0
    for k in range(la + lb):
        if i < la and j < lb:
            u = yield array_nth(a, i)
            v = yield array_nth(b, j)
            if u <= v:
                yield array_upd(x, k, u)
                i += 1
            else:
                yield array_upd(x, k, v)
                j += 1
        elif i < la:
            u = yield array_nth(a, i)
            yield array_upd(x, k, u)
            i += 1
        else:
            v = yield array_nth(b, j)
            yield array_upd(x, k, v)
            j += 1
    return (yield ret(None))


@proc
def merge_sort_impl(x):
    """Sort the array at x in place, using fresh scratch halves."""
    n = yield array_len(x)
    if n <= 1:
        return (yield ret(None))
    a = yield atake(n // 2, x)
    b = yield adrop(n // 2, x)
    yield merge_sort_impl(a)
    yield merge_sort_impl(b)
    yield mergeinto(n // 2, n - n // 2, a, b, x)
    return (yield ret(None))


def atake_time(n: int, consts=MERGE_SORT_CONSTS) -> int:
    """Cost of the atake(n div 2) call merge sort makes on input size n."""
    return n // 2 + consts["take_pad"]


def adrop_time(n: int, consts=MERGE_SORT_CONSTS) -> int:
    return (n - n // 2) + consts["drop_pad"]


def mergeinto_time(n: int, consts=MERGE_SORT_CONSTS) -> int:
    return consts["merge_coeff"] * n


# merge sort's auxiliary time functions and their classes, declared once:
# the toll's class reads them, and build_registry admits each only after
# checking it against the interpreter and a Theta witness
MERGE_SORT_AUX = (
    ("atake_time", atake_time, PolyLog(1, 0)),
    ("adrop_time", adrop_time, PolyLog(1, 0)),
    ("mergeinto_time", mergeinto_time, PolyLog(1, 0)),
)


def _merge_sort_total(consts):
    """The recursive branch's budget: the spec's right-hand side."""
    half = FloorDivE(N, 2)
    return (
        t_lit(consts["step"])
        + t_call("atake_time", N)
        + t_call("adrop_time", N)
        + t_call("merge_sort_time", half)
        + t_call("merge_sort_time", SubE(N, half))
        + t_call("mergeinto_time", N)
    )


@one_spec_per_consts
def merge_sort_recurrence(consts=MERGE_SORT_CONSTS) -> AkraBazziSpec:
    base = {0: consts["base"], 1: consts["base"]}
    return recurrence_of(_merge_sort_total, consts, "merge_sort_time", 2, base, MERGE_SORT_AUX)


def merge_sort_time(n: int, consts=MERGE_SORT_CONSTS) -> int:
    return eval_recurrence(merge_sort_recurrence(consts), n)


def merge_sort_obligations(consts=MERGE_SORT_CONSTS):
    """Per-branch credit demands against the recursive definition."""
    half = FloorDivE(N, 2)
    rest = SubE(N, half)
    base_total = t_lit(consts["base"])
    base_demand = t_lit(2)  # len + ret
    rec_total = _merge_sort_total(consts)
    rec_demand = (
        t_lit(2)  # len + trailing ret
        + t_call("atake_time", N)
        + t_call("adrop_time", N)
        + t_call("merge_sort_time", half)
        + t_call("merge_sort_time", rest)
        + t_call("mergeinto_time", N)
    )
    return [
        ("base", base_total, base_demand, []),
        ("recursive", rec_total, rec_demand, []),
    ]


def merge_sort_worst_input(n: int) -> list:
    """An input whose run cost meets merge_sort_time(n) exactly: every merge
    keeps both sides live until the final step."""
    return _interleave_arrange(list(range(n)))


def _interleave_arrange(target_sorted: list) -> list:
    n = len(target_sorted)
    if n <= 1:
        return list(target_sorted)
    # the two halves must interleave perfectly after they are sorted
    left_sorted = target_sorted[0::2]
    right_sorted = target_sorted[1::2]
    if len(left_sorted) != n // 2:
        left_sorted, right_sorted = right_sorted, left_sorted
    return _interleave_arrange(left_sorted) + _interleave_arrange(right_sorted)


# ---------------------------------------------------------------------------
# insertion sort
# ---------------------------------------------------------------------------

def insertion_sort_fun(xs: list) -> list:
    out = list(xs)
    for i in range(1, len(out)):
        v = out[i]
        j = i
        while j > 0 and out[j - 1] > v:
            out[j] = out[j - 1]
            j -= 1
        out[j] = v
    return out


@proc
def sort_window(x, lo: int, hi: int):
    """Insertion-sort the window [lo, hi) of x in place; returns nothing,
    so no `ret` is charged."""
    for i in range(lo + 1, hi):
        v = yield array_nth(x, i)
        j = i
        while j > lo:
            u = yield array_nth(x, j - 1)
            if u > v:
                yield array_upd(x, j, u)
                j -= 1
            else:
                break
        yield array_upd(x, j, v)
    return None


@proc
def insertion_sort_impl(x):
    n = yield array_len(x)
    yield sort_window(x, 0, n)
    return (yield ret(None))


@one_spec_per_consts
def insertion_sort_linear_rec(consts=INSERTION_SORT_CONSTS) -> LinearRecSpec:
    # iteration i reads the inserted value, shifts up to i elements and
    # writes the value back: a step linear in i, so the loop rule gives n^2
    return LinearRecSpec(
        1, init={0: consts["base"]},
        step={1: consts["shift_coeff"], 0: consts["outer_pad"]},
    )


def insertion_sort_time(n: int, consts=INSERTION_SORT_CONSTS) -> int:
    return eval_linear(insertion_sort_linear_rec(consts), n)


def insertion_sort_obligations(consts=INSERTION_SORT_CONSTS):
    spec = insertion_sort_linear_rec(consts)
    base_total = t_lit(eval_linear(spec, 0))
    base_demand = t_lit(2)
    step_total = t_poly(spec.step, "i")
    step_demand = t_lit(1) + 2 * t_var("i") + t_lit(1)
    return [
        ("base", base_total, base_demand, []),
        ("outer-step", step_total, step_demand, []),
    ]
