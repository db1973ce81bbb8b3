"""Reference implementations and helpers that only the tests use.

A brute-force knapsack, select's worst window read off its partition
sides, a meld of two skew heaps on one heap value, the heap's
address-domain invariant, a spec written back as JSON, and an argument
expression evaluated through a time expression.  pytest does not collect
this module; tests import it by name.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping

from timecredits.algorithms.select import PARTITION_SIDES
from timecredits.algorithms.skew_heap import SkewHeap, skew_meld_fun, skew_meld_impl
from timecredits.credits import ArgExpr, Assignment, t_expr
from timecredits.heap import Addr, Heap, Success, run
from timecredits.recurrence import AkraBazziSpec


def knapsack_brute(items: list[tuple[int, int]], capacity: int) -> int:
    best = 0
    for k in range(len(items) + 1):
        for subset in combinations(items, k):
            if sum(w for w, _ in subset) <= capacity:
                best = max(best, sum(v for _, v in subset))
    return best


def eval_arg(e: ArgExpr, env: Mapping[str, int]) -> int:
    """The value of e, read through the time expression t_expr(e)."""
    return t_expr(e).eval(Assignment(env))


def partition_side_bound(n: int) -> int:
    """Worst size of select's recursive window after partitioning a window
    of n >= 1 elements."""
    return max(eval_arg(side, {"n": n}) for side in PARTITION_SIDES)


def skew_meld_pair(a: SkewHeap, b: SkewHeap) -> tuple[SkewHeap, int]:
    """Meld two heaps living on disjoint address ranges of one heap value.
    The merged heap shares a's cell lists, which a run never writes."""
    offset = a.heap.next_addr
    arrays = dict(a.heap.arrays)
    for idx, cells in b.heap.arrays.items():
        arrays[idx + offset] = [
            Addr(v.index + offset, v.kind) if isinstance(v, Addr) else v for v in cells
        ]
    merged_heap = Heap(a.heap.refs, arrays, offset + b.heap.next_addr)
    b_root = Addr(b.root.index + offset, b.root.kind) if b.root else None
    out = run(skew_meld_impl(a.root, b_root), merged_heap)
    assert isinstance(out, Success)
    return SkewHeap(out.heap, out.value, skew_meld_fun(a.mirror, b.mirror)), out.cost


def wellformed(heap: Heap) -> bool:
    """No address is both a ref and an array, and each lies below next_addr."""
    if set(heap.refs) & set(heap.arrays):
        return False
    domain = list(heap.refs) + list(heap.arrays)
    return all(i < heap.next_addr for i in domain)


def spec_to_json(spec: AkraBazziSpec) -> dict:
    """The spec as a JSON object `recurrence.spec_from_json` reads, with
    exact rationals as "p/q" strings.  The concrete toll is not written."""
    return {
        "name": spec.name,
        "x0": spec.x0,
        "terms": [
            {"a": str(t.a), "b": str(t.b), "round": t.rounding} for t in spec.terms
        ],
        "g_class": [spec.g_class.power, spec.g_class.log_power],
        "g_poly": None,
        "base": {str(k): v for k, v in spec.base.items()},
    }
