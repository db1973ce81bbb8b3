"""Skew heaps: self-adjusting meldable heaps merged along right spines.

Functional nodes cache subtree size and the count of right-heavy nodes at
construction, so potentials are O(1) to read while the persistent mirrors
share structure.  Nodes are immutable tuple-backed records, built only by
`skew_node`.  The imperative version works on three-cell array nodes
[key, left, right] and is kept in lockstep with the functional one.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from ..amortized import AmortizedOp, AmortizedScheme, HarnessError, succeeded
from ..heap import (
    Addr,
    Heap,
    array_nth,
    array_of_list,
    array_upd,
    empty_heap,
    proc,
    ret,
    run,
)


def same_tree(a, b, label) -> bool:
    """Structural equality of two trees of nodes with `left` and `right`
    children, comparing `label(node)` at every pair of nodes.  The walk keeps
    its own stack, so trees of any depth compare; shared subtrees compare by
    identity."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x is None or y is None or type(x) is not type(y) or label(x) != label(y):
            return False
        stack.append((x.right, y.right))
        stack.append((x.left, y.left))
    return True


class SkewNode(NamedTuple):
    left: Optional["SkewNode"]
    key: int
    right: Optional["SkewNode"]
    size: int
    heavy: int        # right-heavy nodes in this subtree
    heap_ok: bool     # order invariant, cached so preconditions are O(1)

    # Equal only to a node of the same type, never to a plain tuple; `!=`
    # and hashing would otherwise fall back to the tuple's.
    def __eq__(self, other):
        return type(other) is type(self) and same_tree(self, other, _SKEW_LABEL)

    def __ne__(self, other):
        return not self == other

    __hash__ = None


_SKEW_LABEL = itemgetter(1, 3, 4, 5)  # key, size, heavy, heap_ok


def skew_node(left, key, right) -> SkewNode:
    ls = left.size if left else 0
    rs = right.size if right else 0
    lh = left.heavy if left else 0
    rh = right.heavy if right else 0
    ordered = (left is None or (left.heap_ok and left.key >= key)) and (
        right is None or (right.heap_ok and right.key >= key)
    )
    return tuple.__new__(
        SkewNode, (left, key, right, ls + rs + 1, lh + rh + (1 if rs > ls else 0), ordered)
    )


def skew_size(t: Optional[SkewNode]) -> int:
    return t.size if t else 0


def skew_meld_fun(a: Optional[SkewNode], b: Optional[SkewNode]) -> Optional[SkewNode]:
    if a is None:
        return b
    if b is None:
        return a
    if a.key <= b.key:
        return skew_node(skew_meld_fun(b, a.right), a.key, a.left)
    return skew_node(skew_meld_fun(a, b.right), b.key, b.left)


def skew_insert_fun(x: int, t: Optional[SkewNode]) -> Optional[SkewNode]:
    return skew_meld_fun(skew_node(None, x, None), t)


def skew_del_min_fun(t: SkewNode) -> tuple[int, Optional[SkewNode]]:
    return t.key, skew_meld_fun(t.left, t.right)


def skew_elements(t: Optional[SkewNode]) -> list[int]:
    out: list[int] = []
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if node is None:
            continue
        if expanded:
            out.append(node.key)
        else:
            stack.append((node.right, False))
            stack.append((node, True))
            stack.append((node.left, False))
    return out


@proc
def skew_meld_impl(a, b):
    if a is None:
        return (yield ret(b))
    if b is None:
        return (yield ret(a))
    ka = yield array_nth(a, 0)
    kb = yield array_nth(b, 0)
    if ka <= kb:
        winner, loser = a, b
    else:
        winner, loser = b, a
    old_left = yield array_nth(winner, 1)
    old_right = yield array_nth(winner, 2)
    melded = yield skew_meld_impl(loser, old_right)
    yield array_upd(winner, 1, melded)
    yield array_upd(winner, 2, old_left)
    return (yield ret(winner))


@proc
def skew_insert_impl(x, root):
    node = yield array_of_list([x, None, None])
    return (yield skew_meld_impl(node, root))


@proc
def skew_del_min_impl(root):
    key = yield array_nth(root, 0)
    left = yield array_nth(root, 1)
    right = yield array_nth(root, 2)
    rest = yield skew_meld_impl(left, right)
    return (yield ret((key, rest)))


class SkewHeap(NamedTuple):
    heap: Heap
    root: Optional[Addr]
    mirror: Optional[SkewNode]


def new_skew_heap() -> SkewHeap:
    return SkewHeap(empty_heap(), None, None)


def extract_tree(heap: Heap, root: Optional[Addr], node: Callable):
    """Rebuild a functional tree from three-cell [key, left, right] array
    nodes with `node(left, key, right)`, iteratively so that degenerate
    trees cannot exhaust the interpreter stack.  Shared subtrees are
    accepted; a pointer cycle raises ValueError."""
    built: dict = {None: None}
    building = set()  # addresses whose subtrees are under construction
    work = [(root, False)] if root is not None else []
    arrays = heap.arrays
    while work:
        addr, expanded = work.pop()
        key, left, right = arrays[addr.index]
        if expanded:
            built[addr] = node(built[left], key, built[right])
            building.discard(addr)
        else:
            if addr in building:
                raise ValueError(f"pointer cycle through {addr!r}")
            building.add(addr)
            work.append((addr, True))
            for child in (left, right):
                if child is not None and child not in built:
                    work.append((child, False))
    return built[root]


def skew_extract(heap: Heap, root: Optional[Addr]) -> Optional[SkewNode]:
    return extract_tree(heap, root, skew_node)


def skew_push(s: SkewHeap, key: int) -> tuple[SkewHeap, int]:
    out = succeeded(run(skew_insert_impl(key, s.root), s.heap))
    return SkewHeap(out.heap, out.value, skew_insert_fun(key, s.mirror)), out.cost


def skew_pop(s: SkewHeap) -> tuple[int, SkewHeap, int]:
    if s.root is None:
        raise ValueError("del_min on empty heap")
    out = succeeded(run(skew_del_min_impl(s.root), s.heap))
    key, rest = out.value
    fun_key, fun_rest = skew_del_min_fun(s.mirror)
    if key != fun_key:
        raise HarnessError(f"del_min: the heap gave {key!r}, its mirror {fun_key!r}")
    return key, SkewHeap(out.heap, rest, fun_rest), out.cost


def skew_potential(s: SkewHeap) -> int:
    return 3 * (s.mirror.heavy if s.mirror else 0)


def skew_size1(s: SkewHeap) -> int:
    return skew_size(s.mirror) + 1


def ceil_3_log2(n: int) -> int:
    """ceil(3 * log2 n) for n >= 1, exactly."""
    return (n ** 3 - 1).bit_length()


def skew_shape(n: int) -> int:
    return ceil_3_log2(max(1, n)) + 2


SKEW_MULTIPLIER = 12  # calibrated; the search in the tests confirms it


def skew_scheme(multiplier: int = SKEW_MULTIPLIER) -> AmortizedScheme:
    def apply_del_min(s, arg):
        _, new, cost = skew_pop(s)
        return new, cost

    return AmortizedScheme(
        name="skew_heap",
        potential=skew_potential,
        size_measure=skew_size1,
        ops={
            "insert": AmortizedOp("insert", skew_push, lambda n: multiplier * skew_shape(n)),
            "del_min": AmortizedOp("del_min", apply_del_min, lambda n: multiplier * skew_shape(n)),
        },
        precondition=lambda s: _is_heap(s.mirror),
    )


def _is_heap(t: Optional[SkewNode]) -> bool:
    return t is None or t.heap_ok
