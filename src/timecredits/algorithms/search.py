"""Binary search over a sorted heap array.

The runtime bound halves on the floor side only; the ceiling-side recursion
is covered by a single monotonicity hint, the first of the two places in
this collection where plain term matching is not enough.  Its side facts
are decided for every n, by induction and by residue classes.
"""

from __future__ import annotations

from ..credits import (
    CallAtom,
    ConstE,
    FloorDivE,
    Hint,
    SubE,
    VarE,
    holds_for_all_n,
    t_call,
    t_lit,
)
from ..heap import array_len, array_nth, proc, ret
from ..recurrence import (
    AkraBazziSpec, eval_recurrence, monotone_by_induction, one_spec_per_consts, recurrence_of,
)

N = VarE("n")
HALF = FloorDivE(N, 2)
UPPER = SubE(SubE(N, HALF), ConstE(1))  # the window above a missed probe

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
    return t_lit(consts["level"]) + t_call("bsearch_time", HALF)


@one_spec_per_consts
def bsearch_recurrence(consts=BINARY_SEARCH_CONSTS) -> AkraBazziSpec:
    return recurrence_of(_level_total, consts, "bsearch_time", 1, {0: consts["base"]})


def bsearch_time(n: int, consts=BINARY_SEARCH_CONSTS) -> int:
    """Bound for the probe loop on a window of size n."""
    return eval_recurrence(bsearch_recurrence(consts), n)


def binary_search_time(n: int, consts=BINARY_SEARCH_CONSTS) -> int:
    return consts["len"] + bsearch_time(n, consts)


def upper_window_hint(consts=BINARY_SEARCH_CONSTS) -> Hint:
    """bsearch_time(n div 2) >= bsearch_time(n - n div 2 - 1).

    Justified, for every n, by bsearch_time being nondecreasing
    (`monotone_by_induction`) and by the upper window never exceeding the
    lower one at any probe level, n >= 1 (`holds_for_all_n`).
    """

    def justify() -> bool:
        spec = bsearch_recurrence(consts)
        return monotone_by_induction(spec) and holds_for_all_n(UPPER, HALF, spec.x0)

    return Hint(
        s=CallAtom("bsearch_time", (HALF,)),
        t=t_call("bsearch_time", UPPER),
        justification=justify,
        note="upper window fits the half budget",
    )


def binary_search_obligations(consts=BINARY_SEARCH_CONSTS):
    level_total = _level_total(consts)
    return [
        ("empty", t_lit(consts["base"]), t_lit(1), []),
        ("hit", level_total, t_lit(2), []),
        ("lower", level_total, t_lit(1) + t_call("bsearch_time", HALF), []),
        ("upper", level_total, t_lit(1) + t_call("bsearch_time", UPPER), [upper_window_hint(consts)]),
    ]
