"""Splay trees: self-adjusting binary search trees.

The splay rotation cases (zig, zig-zig, zig-zag and mirrors) are written
once functionally and once imperatively over three-cell array nodes; the
two stay in lockstep, which the harness checks by extracting the pointer
structure.  Functional nodes cache subtree size and the potential sum
(each node contributes ceil(3 * log2 size1)), so potentials cost O(1) to
read across persistent versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..amortized import AmortizedOp, AmortizedScheme
from ..heap import (
    Addr,
    Heap,
    Success,
    array_nth,
    array_of_list,
    array_upd,
    empty_heap,
    proc,
    ret,
    run,
)
from .skew_heap import ceil_3_log2


@dataclass(frozen=True)
class TreeNode:
    left: Optional["TreeNode"]
    key: int
    right: Optional["TreeNode"]
    size: int
    phi: int   # potential of the whole subtree
    bst: bool  # search-order invariant, cached so preconditions are O(1)
    min_key: int
    max_key: int


def tree_node(left, key, right) -> TreeNode:
    ls = left.size if left else 0
    rs = right.size if right else 0
    lp = left.phi if left else 0
    rp = right.phi if right else 0
    size = ls + rs + 1
    ordered = (
        (left is None or (left.bst and left.max_key < key))
        and (right is None or (right.bst and right.min_key > key))
    )
    return TreeNode(
        left,
        key,
        right,
        size,
        lp + rp + ceil_3_log2(size + 1),
        ordered,
        left.min_key if left else key,
        right.max_key if right else key,
    )


def tree_size(t: Optional[TreeNode]) -> int:
    return t.size if t else 0


def size1(t: Optional[TreeNode]) -> int:
    return tree_size(t) + 1


def tree_potential(t: Optional[TreeNode]) -> int:
    return t.phi if t else 0


def set_tree(t: Optional[TreeNode]) -> set:
    out = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        out.add(node.key)
        stack.append(node.left)
        stack.append(node.right)
    return out


def is_bst(t: Optional[TreeNode]) -> bool:
    return t is None or t.bst


def splay_fun(x: int, t: Optional[TreeNode]) -> Optional[TreeNode]:
    """Bring x (or the last node on its search path) to the root.

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
                sub = tree_node(l.left, l.key, tree_node(l.right, t.key, t.right))  # zig
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
                sub = tree_node(tree_node(t.left, t.key, r.left), r.key, r.right)  # zag
                break
    for case, t, c in reversed(path):
        if case == "zig-zig":
            sub = tree_node(
                sub.left,
                sub.key,
                tree_node(sub.right, c.key, tree_node(c.right, t.key, t.right)),
            )
        elif case == "zig-zag":
            sub = tree_node(
                tree_node(c.left, c.key, sub.left),
                sub.key,
                tree_node(sub.right, t.key, t.right),
            )
        elif case == "zag-zag":
            sub = tree_node(
                tree_node(tree_node(t.left, t.key, c.left), c.key, sub.left),
                sub.key,
                sub.right,
            )
        else:  # zag-zig
            sub = tree_node(
                tree_node(t.left, t.key, sub.left),
                sub.key,
                tree_node(sub.right, c.key, c.right),
            )
    return sub


def insert_fun(x: int, t: Optional[TreeNode]) -> Optional[TreeNode]:
    if t is None:
        return tree_node(None, x, None)
    s = splay_fun(x, t)
    if x == s.key:
        return s
    if x < s.key:
        return tree_node(s.left, x, tree_node(None, s.key, s.right))
    return tree_node(tree_node(s.left, s.key, None), x, s.right)


def lookup_fun(x: int, t: Optional[TreeNode]) -> tuple[bool, Optional[TreeNode]]:
    s = splay_fun(x, t)
    return (s is not None and s.key == x), s


# ---------------------------------------------------------------------------
# imperative version
# ---------------------------------------------------------------------------

@proc
def splay_impl(x: int, t):
    if t is None:
        return (yield ret(None))
    b = yield array_nth(t, 0)
    if x == b:
        return (yield ret(t))
    if x < b:
        l = yield array_nth(t, 1)
        if l is None:
            return (yield ret(t))
        c = yield array_nth(l, 0)
        descend = None
        if x < c:
            descend = yield array_nth(l, 1)
            if descend is not None:
                sub = yield splay_impl(x, descend)
                lr = yield array_nth(l, 2)      # zig-zig
                yield array_upd(t, 1, lr)       # t.left = l.right
                yield array_upd(l, 2, t)        # l.right = t
                sr = yield array_nth(sub, 2)
                yield array_upd(l, 1, sr)       # l.left = sub.right
                yield array_upd(sub, 2, l)      # sub.right = l
                return (yield ret(sub))
        elif x > c:
            descend = yield array_nth(l, 2)
            if descend is not None:
                sub = yield splay_impl(x, descend)
                sl = yield array_nth(sub, 1)    # zig-zag
                yield array_upd(l, 2, sl)       # l.right = sub.left
                yield array_upd(sub, 1, l)      # sub.left = l
                sr = yield array_nth(sub, 2)
                yield array_upd(t, 1, sr)       # t.left = sub.right
                yield array_upd(sub, 2, t)      # sub.right = t
                return (yield ret(sub))
        # zig: rotate right at t
        lr = yield array_nth(l, 2)
        yield array_upd(t, 1, lr)
        yield array_upd(l, 2, t)
        return (yield ret(l))
    r = yield array_nth(t, 2)
    if r is None:
        return (yield ret(t))
    c = yield array_nth(r, 0)
    if x > c:
        descend = yield array_nth(r, 2)
        if descend is not None:
            sub = yield splay_impl(x, descend)
            rl = yield array_nth(r, 1)          # zag-zag
            yield array_upd(t, 2, rl)           # t.right = r.left
            yield array_upd(r, 1, t)            # r.left = t
            sl = yield array_nth(sub, 1)
            yield array_upd(r, 2, sl)           # r.right = sub.left
            yield array_upd(sub, 1, r)          # sub.left = r
            return (yield ret(sub))
    elif x < c:
        descend = yield array_nth(r, 1)
        if descend is not None:
            sub = yield splay_impl(x, descend)
            sr = yield array_nth(sub, 2)        # zag-zig
            yield array_upd(r, 1, sr)           # r.left = sub.right
            yield array_upd(sub, 2, r)          # sub.right = r
            sl = yield array_nth(sub, 1)
            yield array_upd(t, 2, sl)           # t.right = sub.left
            yield array_upd(sub, 1, t)          # sub.left = t
            return (yield ret(sub))
    # zag: rotate left at t
    rl = yield array_nth(r, 1)
    yield array_upd(t, 2, rl)
    yield array_upd(r, 1, t)
    return (yield ret(r))


@proc
def insert_impl(x: int, root):
    if root is None:
        return (yield array_of_list([x, None, None]))
    s = yield splay_impl(x, root)
    key = yield array_nth(s, 0)
    if key == x:
        return (yield ret(s))
    if x < key:
        l = yield array_nth(s, 1)
        yield array_upd(s, 1, None)
        return (yield array_of_list([x, l, s]))
    r = yield array_nth(s, 2)
    yield array_upd(s, 2, None)
    return (yield array_of_list([x, s, r]))


@proc
def lookup_impl(x: int, root):
    if root is None:
        return (yield ret((False, None)))
    s = yield splay_impl(x, root)
    key = yield array_nth(s, 0)
    return (yield ret((key == x, s)))


# ---------------------------------------------------------------------------
# structure wrapper and amortized scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplayTree:
    heap: Heap
    root: Optional[Addr]
    mirror: Optional[TreeNode]


def new_splay_tree() -> SplayTree:
    return SplayTree(empty_heap(), None, None)


def splay_extract(heap: Heap, root: Optional[Addr]) -> Optional[TreeNode]:
    """Rebuild the functional tree from the pointer structure, iteratively
    so that degenerate trees cannot exhaust the interpreter stack."""
    if root is None:
        return None
    built: dict = {None: None}
    work = [(root, False)]
    while work:
        addr, expanded = work.pop()
        key, left, right = heap.arrays[addr.index]
        if expanded:
            built[addr] = tree_node(built[left], key, built[right])
        else:
            work.append((addr, True))
            for child in (left, right):
                if child is not None and child not in built:
                    work.append((child, False))
    return built[root]


def splay_insert(s: SplayTree, key: int) -> tuple[SplayTree, int]:
    out = run(insert_impl(key, s.root), s.heap)
    assert isinstance(out, Success)
    return SplayTree(out.heap, out.value, insert_fun(key, s.mirror)), out.cost


def splay_lookup(s: SplayTree, key: int) -> tuple[bool, SplayTree, int]:
    out = run(lookup_impl(key, s.root), s.heap)
    assert isinstance(out, Success)
    found, new_root = out.value
    fun_found, fun_tree = lookup_fun(key, s.mirror)
    assert found == fun_found
    return found, SplayTree(out.heap, new_root, fun_tree), out.cost


def splay_splay(s: SplayTree, key: int) -> tuple[SplayTree, int]:
    out = run(splay_impl(key, s.root), s.heap)
    assert isinstance(out, Success)
    return SplayTree(out.heap, out.value, splay_fun(key, s.mirror)), out.cost


def splay_potential(s: SplayTree) -> int:
    return tree_potential(s.mirror)


def splay_size1(s: SplayTree) -> int:
    return size1(s.mirror)


def splay_shape(n: int) -> int:
    return ceil_3_log2(max(1, n)) + 2


SPLAY_MULTIPLIER = 16  # calibrated; the search in the tests confirms it


def splay_scheme(multiplier: int = SPLAY_MULTIPLIER) -> AmortizedScheme:
    def apply_insert(s, arg):
        return splay_insert(s, arg)

    def apply_lookup(s, arg):
        _, new, cost = splay_lookup(s, arg)
        return new, cost

    def apply_splay(s, arg):
        return splay_splay(s, arg)

    def bound(n: int) -> int:
        return multiplier * splay_shape(n)

    return AmortizedScheme(
        name="splay_tree",
        potential=splay_potential,
        size_measure=splay_size1,
        ops={
            "insert": AmortizedOp("insert", apply_insert, bound),
            "lookup": AmortizedOp("lookup", apply_lookup, bound),
            "splay": AmortizedOp("splay", apply_splay, bound),
        },
        precondition=lambda s: is_bst(s.mirror),
    )
