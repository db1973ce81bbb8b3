"""Median-of-medians selection with groups of five and in-place partition.

The medians of the five-element groups are swapped into a front block, the
pivot is found by recursing on that block, and a three-way partition decides
which side (if any) to recurse into.  Small windows fall back to insertion
sort.  The runtime bound charges the partition-side recursion at the ceiling
of 7n/10; the actual window is smaller, which the selection hint certifies
via monotonicity, decided for every n.
"""

from __future__ import annotations

from ..credits import (
    AddE,
    CallAtom,
    CeilDivE,
    ConstE,
    FloorDivE,
    Hint,
    MulE,
    SubE,
    VarE,
    holds_for_all_n,
    t_call,
    t_expr,
    t_lit,
    t_var,
)
from ..heap import array_len, array_nth, array_upd, proc, ret
from ..recurrence import (
    AkraBazziSpec, eval_recurrence, monotone_by_induction, one_spec_per_consts, recurrence_of,
)
from .sorting import sort_window

N = VarE("n")
CUTOFF = 20
CAP = CeilDivE(MulE(7, N), 10)  # the partition side the bound recurses on

SELECT_CONSTS = {
    "len": 1,
    "small_probe": 1,    # the answering read in the insertion-sorted window
    "group_pad": 4,      # median read plus the three-step swap, per group
    "group_sort": 28,    # worst insertion sort of a five-element window
    "part_coeff": 4,     # worst per-element cost of the three-way partition
    "hit_ret": 1,        # returning the pivot when the index lands on it
}


def select_fun(xs: list, i: int):
    return sorted(xs)[i]


def _ins_range_cost(consts, s: int) -> int:
    # worst case of the in-place window sort: sum of (2t + 2) for t < s
    return s * s + s - 2 if s >= 1 else 0


@proc
def _select_window(x, lo: int, hi: int, i: int):
    """i-th smallest of the window [lo, hi); leaves the window permuted."""
    n = hi - lo
    if n <= CUTOFF:
        yield sort_window(x, lo, hi)
        return (yield array_nth(x, lo + i))

    # move each five-element group's median into the front block
    groups = -(-n // 5)
    for k in range(groups):
        gl = lo + 5 * k
        gr = min(gl + 5, hi)
        yield sort_window(x, gl, gr)
        mid = gl + (gr - gl) // 2
        med = yield array_nth(x, mid)
        front = yield array_nth(x, lo + k)
        yield array_upd(x, lo + k, med)
        yield array_upd(x, mid, front)

    pivot = yield _select_window(x, lo, lo + groups, (groups - 1) // 2)

    # three-way partition of the window around the pivot value
    it = lo
    lt = lo
    gt = hi
    while it < gt:
        v = yield array_nth(x, it)
        if v < pivot:
            u = yield array_nth(x, lt)
            yield array_upd(x, lt, v)
            yield array_upd(x, it, u)
            lt += 1
            it += 1
        elif v > pivot:
            u = yield array_nth(x, gt - 1)
            yield array_upd(x, gt - 1, v)
            yield array_upd(x, it, u)
            gt -= 1
        else:
            it += 1

    lt_count = lt - lo
    eq_count = gt - lt
    if i < lt_count:
        return (yield _select_window(x, lo, lo + lt_count, i))
    if i < lt_count + eq_count:
        return (yield ret(pivot))
    return (yield _select_window(x, gt, hi, i - lt_count - eq_count))


@proc
def select_impl(x, i: int):
    n = yield array_len(x)
    return (yield _select_window(x, 0, n, i))


def _select_total(consts):
    """The recursive window's budget, recursing on the partition side at its
    worst size ceil(7n/10): the spec's right-hand side."""
    groups = CeilDivE(N, 5)
    return (
        (consts["group_sort"] + consts["group_pad"]) * t_expr(groups)
        + consts["part_coeff"] * t_var("n")
        + t_lit(consts["hit_ret"])
        + t_call("select_time", groups)
        + t_call("select_time", CAP)
    )


@one_spec_per_consts
def select_recurrence(consts=SELECT_CONSTS) -> AkraBazziSpec:
    # a small window is insertion-sorted and read once
    base = {
        n: _ins_range_cost(consts, n) + consts["small_probe"] if n >= 1 else 1
        for n in range(CUTOFF + 1)
    }
    return recurrence_of(_select_total, consts, "select_time", CUTOFF + 1, base)


def select_time(n: int, consts=SELECT_CONSTS) -> int:
    """Bound for the selection window of size n: the recurrence evaluated at n."""
    return eval_recurrence(select_recurrence(consts), n)


def select_run_time(n: int, consts=SELECT_CONSTS) -> int:
    """Bound on a whole run of select_impl: the length read plus the window."""
    return consts["len"] + select_time(n, consts)


# The worst recursive window after partitioning, from the group-median
# counting argument, is the larger of two sides: n less the elements known
# to be at most the pivot, and n less those known to be at least it.  Of the
# ceil(n/5) groups the last holds r = n + 5 - 5*ceil(n/5) elements;
# ceil(groups/2) medians are at most the pivot and groups div 2 + 1 at
# least it, each bringing 3 elements of a full group, or of the last group
# r div 2 + 1 and r - r div 2 respectively.
_GROUPS = CeilDivE(N, 5)
_R = SubE(AddE(N, ConstE(5)), MulE(5, _GROUPS))
PARTITION_SIDES = (
    # n - (3 * (ceil(groups/2) - 1) + r div 2 + 1)
    SubE(SubE(AddE(N, ConstE(2)), MulE(3, CeilDivE(_GROUPS, 2))), FloorDivE(_R, 2)),
    # n - (3 * (groups div 2) + r - r div 2)
    AddE(SubE(SubE(N, MulE(3, FloorDivE(_GROUPS, 2))), _R), FloorDivE(_R, 2)),
)


def partition_hint(consts=SELECT_CONSTS) -> Hint:
    """select_time(ceil(7n/10)) >= select_time(l) for the actual window l.

    Certified, for every n, by select_time being nondecreasing
    (`monotone_by_induction`) and by both sides of the worst window staying
    under ceil(7n/10) above the cutoff (`holds_for_all_n`).
    """

    def justify() -> bool:
        return monotone_by_induction(select_recurrence(consts)) and all(
            holds_for_all_n(side, CAP, CUTOFF + 1) for side in PARTITION_SIDES
        )

    return Hint(
        s=CallAtom("select_time", (CAP,)),
        t=t_call("select_time", VarE("l")),
        justification=justify,
        note="partition window fits under ceil(7n/10)",
    )


def select_obligations(consts=SELECT_CONSTS):
    groups = CeilDivE(N, 5)
    total = _select_total(consts)
    small_total = t_lit(_ins_range_cost(consts, CUTOFF) + consts["small_probe"])
    small_demand = t_lit(_ins_range_cost(SELECT_CONSTS, CUTOFF) + 1)
    medians_demand = (
        32 * t_expr(groups)  # per-group sort (28) plus median swap (4)
        + 4 * t_var("n")     # three-way partition
        + t_lit(1)           # pivot-hit return
        + t_call("select_time", groups)
    )
    recurse_demand = medians_demand + t_call("select_time", VarE("l"))
    return [
        ("small-window", small_total, small_demand, []),
        ("recursive", total, recurse_demand, [partition_hint(consts)]),
    ]
