"""0/1 knapsack dynamic program: items outer, capacities inner.

The capacity table lives on the heap; item weights and values are program
parameters.  Every inner step does exactly two reads and one write, so the
per-item cost is data-independent and the bound is met with equality by
zero-weight items.
"""

from __future__ import annotations

from ..credits import t_lit, t_poly, t_var
from ..heap import array_new, array_nth, array_upd, proc
from ..recurrence import LinearRecSpec, eval_linear, one_spec_per_consts

KNAPSACK_CONSTS = {
    "table_pad": 2,   # dp allocation is W+1 cells plus the command pad
    "step": 3,        # two reads and one write per capacity
    "final": 1,       # reading the answer cell
}


def knapsack_fun(items: list[tuple[int, int]], capacity: int) -> int:
    dp = [0] * (capacity + 1)
    for weight, value in items:
        for c in range(capacity, weight - 1, -1):
            dp[c] = max(dp[c], dp[c - weight] + value)
    return dp[capacity]


@proc
def knapsack_impl(items: list[tuple[int, int]], capacity: int):
    dp = yield array_new(capacity + 1, 0)
    for weight, value in items:
        for c in range(capacity, weight - 1, -1):
            prev = yield array_nth(dp, c - weight)
            cur = yield array_nth(dp, c)
            yield array_upd(dp, c, max(cur, prev + value))
    return (yield array_nth(dp, capacity))


@one_spec_per_consts
def knapsack_linear_rec(consts=KNAPSACK_CONSTS) -> LinearRecSpec:
    # the table is W + 1 cells plus the pad, each item pays step per
    # capacity 0..W (linear in W, so the rule gives n*W), the answer one read
    return LinearRecSpec(
        2, init={1: 1, 0: consts["table_pad"]},
        step={1: consts["step"], 0: consts["step"]}, final=consts["final"],
    )


def knapsack_time(n: int, capacity: int, consts=KNAPSACK_CONSTS) -> int:
    return eval_linear(knapsack_linear_rec(consts), n, capacity)


def knapsack_obligations(consts=KNAPSACK_CONSTS):
    spec = knapsack_linear_rec(consts)
    item_total = t_poly(spec.step, "W")
    item_demand = 3 * t_var("W") + t_lit(3)
    init_total = t_poly(spec.init, "W")
    init_demand = t_var("W") + t_lit(2)
    final_total = t_lit(spec.final)
    final_demand = t_lit(1)
    return [
        ("table-init", init_total, init_demand, []),
        ("per-item", item_total, item_demand, []),
        ("final-read", final_total, final_demand, []),
    ]
