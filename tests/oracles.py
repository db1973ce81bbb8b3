"""Reference implementations and helpers that only the tests use.

A brute-force knapsack, select's worst window read off its partition
sides, a meld of two skew heaps on one heap value, the heap's
address-domain invariant, a spec written back as JSON, an argument
expression evaluated through a time expression, and a splay that builds
every rotated node, each with its cached fields computed by the generic
formulas.  pytest does not collect this module; tests import it by name.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Optional

from timecredits.algorithms.select import PARTITION_SIDES
from timecredits.algorithms.skew_heap import SkewHeap, ceil_3_log2, skew_meld_fun, skew_meld_impl
from timecredits.algorithms.splay_tree import TreeNode
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


def generic_node(left, key, right) -> TreeNode:
    """A node whose cached fields are computed by the generic formulas."""
    ls = left.size if left else 0
    rs = right.size if right else 0
    lp = left.phi if left else 0
    rp = right.phi if right else 0
    size = ls + rs + 1
    ordered = (
        (left is None or (left.bst and left.max_key < key))
        and (right is None or (right.bst and right.min_key > key))
    )
    return tuple.__new__(TreeNode, (
        left,
        key,
        right,
        size,
        lp + rp + ceil_3_log2(size + 1),
        ordered,
        left.min_key if left else key,
        right.max_key if right else key,
    ))


def splay_fun_reference(x: int, t: Optional[TreeNode]) -> Optional[TreeNode]:
    """Bring x (or the last node on its search path) to the root, building
    every node of every rotation; `splay_fun` builds the splayed node once.

    Iterative, so degenerate trees cannot exhaust the interpreter stack: the
    walk down records each two-level step (zig-zig, zig-zag and mirrors),
    stops at the node or at a single zig/zag rotation, and the rotations are
    then rebuilt bottom-up.
    """
    path = []  # (case, grandparent, parent), outermost first
    while True:
        if t is None or x == t.key:
            sub = t
            break
        if x < t.key:
            l = t.left
            if l is None:
                sub = t
                break
            if x < l.key and l.left is not None:
                path.append(("zig-zig", t, l))
                t = l.left
            elif x > l.key and l.right is not None:
                path.append(("zig-zag", t, l))
                t = l.right
            else:
                sub = generic_node(
                    l.left, l.key, generic_node(l.right, t.key, t.right))  # zig
                break
        else:
            r = t.right
            if r is None:
                sub = t
                break
            if x > r.key and r.right is not None:
                path.append(("zag-zag", t, r))
                t = r.right
            elif x < r.key and r.left is not None:
                path.append(("zag-zig", t, r))
                t = r.left
            else:
                sub = generic_node(
                    generic_node(t.left, t.key, r.left), r.key, r.right)  # zag
                break
    for case, t, c in reversed(path):
        if case == "zig-zig":
            sub = generic_node(
                sub.left,
                sub.key,
                generic_node(sub.right, c.key, generic_node(c.right, t.key, t.right)),
            )
        elif case == "zig-zag":
            sub = generic_node(
                generic_node(c.left, c.key, sub.left),
                sub.key,
                generic_node(sub.right, t.key, t.right),
            )
        elif case == "zag-zag":
            sub = generic_node(
                generic_node(generic_node(t.left, t.key, c.left), c.key, sub.left),
                sub.key,
                sub.right,
            )
        else:  # zag-zig
            sub = generic_node(
                generic_node(t.left, t.key, sub.left),
                sub.key,
                generic_node(sub.right, c.key, c.right),
            )
    return sub
