"""Binary search over a sorted heap array.

The runtime bound halves on the floor side only; the ceiling-side recursion
is covered by a single monotonicity hint, the first of the two places in
this collection where plain term matching is not enough.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from ..credits import (
    CallAtom,
    ConstE,
    FloorDivE,
    Hint,
    MonotoneTable,
    SubE,
    VarE,
    t_call,
    t_lit,
)
from ..heap import array_len, array_nth, proc, ret
from ..recurrence import AkraBazziSpec, RecTerm, eval_recurrence, toll_fields

N = VarE("n")
UPPER_TABLE_BOUND = 4096  # the window the upper-window hint tabulates

BINARY_SEARCH_CONSTS = {
    "len": 1,    # reading the array length
    "level": 2,  # probe plus the potential hit return
    "base": 1,   # empty-range return
}


def binary_search_fun(xs: list, key) -> "int | None":
    lo, hi = 0, len(xs)
    while hi > lo:
        mid = lo + (hi - lo) // 2
        if xs[mid] == key:
            return mid
        if xs[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return None


@proc
def binary_search_impl(x, key):
    n = yield array_len(x)
    lo, hi = 0, n
    while hi > lo:
        mid = lo + (hi - lo) // 2
        v = yield array_nth(x, mid)
        if v == key:
            return (yield ret(mid))
        if v < key:
            lo = mid + 1
        else:
            hi = mid
    return (yield ret(None))


def _level_total(consts):
    """One probe level's budget: the spec's right-hand side."""
    return t_lit(consts["level"]) + t_call("bsearch_time", FloorDivE(N, 2))


def bsearch_recurrence(consts=BINARY_SEARCH_CONSTS) -> AkraBazziSpec:
    return AkraBazziSpec(
        x0=1,
        terms=(RecTerm(Fraction(1), Fraction(1, 2), "floor"),),
        **toll_fields(_level_total, consts, "bsearch_time"),
        base={0: consts["base"]},
        name="bsearch_time",
    )


_BSEARCH_SPEC = bsearch_recurrence()


def _bsearch_spec(consts):
    """The module's spec and memo for constants that differ from the
    defaults only in "len", which the probe loop never reads; a spec for
    this call only otherwise."""
    if dict(consts, len=BINARY_SEARCH_CONSTS["len"]) == BINARY_SEARCH_CONSTS:
        return _BSEARCH_SPEC
    return bsearch_recurrence(consts)


def bsearch_time(n: int, consts=BINARY_SEARCH_CONSTS) -> int:
    """Bound for the probe loop on a window of size n."""
    return eval_recurrence(_bsearch_spec(consts), n)


def binary_search_time(n: int, consts=BINARY_SEARCH_CONSTS) -> int:
    return consts["len"] + bsearch_time(n, consts)


@cache
def upper_window_fits(table_bound: int) -> bool:
    """n - n div 2 - 1 <= n div 2 for every n up to table_bound.  No
    constant enters it, so it is decided once per process for each bound."""
    return all(n - n // 2 - 1 <= n // 2 for n in range(table_bound + 1))


def upper_window_hint(consts=BINARY_SEARCH_CONSTS) -> Hint:
    """bsearch_time(n div 2) >= bsearch_time(n - n div 2 - 1).

    Justified by monotonicity, tabulated up to UPPER_TABLE_BOUND when the
    hint is consulted, plus the arithmetic fact that the upper window never
    exceeds the lower one across the same range.
    """

    def justify() -> bool:
        spec = _bsearch_spec(consts)
        table = MonotoneTable(lambda k: eval_recurrence(spec, k), UPPER_TABLE_BOUND)
        return table.monotone and upper_window_fits(UPPER_TABLE_BOUND)

    return Hint(
        s=CallAtom("bsearch_time", (FloorDivE(N, 2),)),
        t=t_call("bsearch_time", SubE(SubE(N, FloorDivE(N, 2)), ConstE(1))),
        justification=justify,
        note="upper window fits the half budget",
    )


def binary_search_obligations(consts=BINARY_SEARCH_CONSTS):
    half = FloorDivE(N, 2)
    upper = SubE(SubE(N, half), ConstE(1))
    level_total = _level_total(consts)
    return [
        ("empty", t_lit(consts["base"]), t_lit(1), [], []),
        ("hit", level_total, t_lit(2), [], []),
        ("lower", level_total, t_lit(1) + t_call("bsearch_time", half), [], []),
        (
            "upper",
            level_total,
            t_lit(1) + t_call("bsearch_time", upper),
            [],
            [upper_window_hint(consts)],
        ),
    ]
