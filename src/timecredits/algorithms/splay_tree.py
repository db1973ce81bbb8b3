"""Splay trees: self-adjusting binary search trees.

The splay rotation cases (zig, zig-zig, zig-zag and mirrors) are written
once functionally and once imperatively over three-cell array nodes; the
two stay in lockstep, which the harness checks by extracting the pointer
structure.  Functional nodes cache subtree size and the potential sum
(each node contributes ceil(3 * log2 size1)), so potentials cost O(1) to
read across persistent versions.  Nodes are immutable tuple-backed
records, built only by `tree_node`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Optional

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
from .skew_heap import extract_tree, same_tree, skew_shape


class TreeNode(NamedTuple):
    left: Optional["TreeNode"]
    key: int
    right: Optional["TreeNode"]
    size: int
    phi: int   # potential of the whole subtree
    bst: bool  # search-order invariant, cached so preconditions are O(1)
    min_key: int
    max_key: int

    # as for SkewNode: equal only to a node of the same type
    def __eq__(self, other):
        return type(other) is type(self) and same_tree(self, other, _TREE_LABEL)

    def __ne__(self, other):
        return not self == other

    __hash__ = None


_TREE_LABEL = itemgetter(1, 3, 4, 5, 6, 7)  # every field but the children


def tree_node(left, key, right) -> TreeNode:
    if left is None:
        if right is None:
            return tuple.__new__(TreeNode, (None, key, None, 1, 3, True, key, key))
        size, phi = right.size + 1, right.phi
        bst, lo, hi = right.bst and right.min_key > key, key, right.max_key
    elif right is None:
        size, phi = left.size + 1, left.phi
        bst, lo, hi = left.bst and left.max_key < key, left.min_key, key
    else:
        size, phi = left.size + right.size + 1, left.phi + right.phi
        bst = left.bst and left.max_key < key and right.bst and right.min_key > key
        lo, hi = left.min_key, right.max_key
    # phi adds ceil(3 * log2(size + 1)), which is ((size + 1) ** 3 - 1).bit_length()
    phi += ((size + 1) ** 3 - 1).bit_length()
    return tuple.__new__(TreeNode, (left, key, right, size, phi, bst, lo, hi))


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
    then rebuilt bottom-up.  The splayed node is carried as its (left, key,
    right) and built once, at the root, so each two-level step builds only
    its two rotated nodes.  An empty path returns the input node itself.
    """
    path = []  # (case, grandparent, parent), outermost first
    sub = None  # the splayed node's (left, key, right), once a zig or zag made it
    while True:
        if t is None or x == t.key:
            break
        if x < t.key:
            l = t.left
            if l is None:
                break
            if x < l.key and l.left is not None:
                path.append(("zig-zig", t, l))
                t = l.left
            elif x > l.key and l.right is not None:
                path.append(("zig-zag", t, l))
                t = l.right
            else:
                sub = l.left, l.key, tree_node(l.right, t.key, t.right)  # zig
                break
        else:
            r = t.right
            if r is None:
                break
            if x > r.key and r.right is not None:
                path.append(("zag-zag", t, r))
                t = r.right
            elif x < r.key and r.left is not None:
                path.append(("zag-zig", t, r))
                t = r.left
            else:
                sub = tree_node(t.left, t.key, r.left), r.key, r.right  # zag
                break
    if sub is None:
        if not path:
            return t
        sub = t.left, t.key, t.right
    sl, sk, sr = sub
    for case, t, c in reversed(path):
        if case == "zig-zig":
            sr = tree_node(sr, c.key, tree_node(c.right, t.key, t.right))
        elif case == "zig-zag":
            sl, sr = tree_node(c.left, c.key, sl), tree_node(sr, t.key, t.right)
        elif case == "zag-zag":
            sl = tree_node(tree_node(t.left, t.key, c.left), c.key, sl)
        else:  # zag-zig
            sl, sr = tree_node(t.left, t.key, sl), tree_node(sr, c.key, c.right)
    return tree_node(sl, sk, sr)


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
    """One body for both sides: `near` is the cell of the child on x's side
    of t and `far` the other one, so zag is zig with the cells swapped."""
    if t is None:
        return (yield ret(None))
    b = yield array_nth(t, 0)
    if x == b:
        return (yield ret(t))
    near, far = (1, 2) if x < b else (2, 1)
    l = yield array_nth(t, near)
    if l is None:
        return (yield ret(t))
    c = yield array_nth(l, 0)
    if x != c:
        outer = (x < c) == (x < b)  # zig-zig / zag-zag, else zig-zag / zag-zig
        descend = yield array_nth(l, near if outer else far)
        if descend is not None:
            sub = yield splay_impl(x, descend)
            if outer:
                lf = yield array_nth(l, far)
                yield array_upd(t, near, lf)    # t.near = l.far
                yield array_upd(l, far, t)      # l.far = t
                sf = yield array_nth(sub, far)
                yield array_upd(l, near, sf)    # l.near = sub.far
                yield array_upd(sub, far, l)    # sub.far = l
            else:
                sn = yield array_nth(sub, near)
                yield array_upd(l, far, sn)     # l.far = sub.near
                yield array_upd(sub, near, l)   # sub.near = l
                sf = yield array_nth(sub, far)
                yield array_upd(t, near, sf)    # t.near = sub.far
                yield array_upd(sub, far, t)    # sub.far = t
            return (yield ret(sub))
    # zig / zag: rotate l up over t
    lf = yield array_nth(l, far)
    yield array_upd(t, near, lf)
    yield array_upd(l, far, t)
    return (yield ret(l))


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

class SplayTree(NamedTuple):
    heap: Heap
    root: Optional[Addr]
    mirror: Optional[TreeNode]


def new_splay_tree() -> SplayTree:
    return SplayTree(empty_heap(), None, None)


def splay_extract(heap: Heap, root: Optional[Addr]) -> Optional[TreeNode]:
    return extract_tree(heap, root, tree_node)


def splay_insert(s: SplayTree, key: int) -> tuple[SplayTree, int]:
    out = succeeded(run(insert_impl(key, s.root), s.heap))
    return SplayTree(out.heap, out.value, insert_fun(key, s.mirror)), out.cost


def splay_lookup(s: SplayTree, key: int) -> tuple[bool, SplayTree, int]:
    out = succeeded(run(lookup_impl(key, s.root), s.heap))
    found, new_root = out.value
    fun_found, fun_tree = lookup_fun(key, s.mirror)
    if found != fun_found:
        raise HarnessError(f"lookup: the heap gave {found!r}, its mirror {fun_found!r}")
    return found, SplayTree(out.heap, new_root, fun_tree), out.cost


def splay_splay(s: SplayTree, key: int) -> tuple[SplayTree, int]:
    out = succeeded(run(splay_impl(key, s.root), s.heap))
    return SplayTree(out.heap, out.value, splay_fun(key, s.mirror)), out.cost


def splay_potential(s: SplayTree) -> int:
    return tree_potential(s.mirror)


def splay_size1(s: SplayTree) -> int:
    return size1(s.mirror)


splay_shape = skew_shape  # the same per-operation shape, ceil(3 log2 n) + 2


SPLAY_MULTIPLIER = 16  # calibrated; the search in the tests confirms it


def splay_scheme(multiplier: int = SPLAY_MULTIPLIER) -> AmortizedScheme:
    def apply_lookup(s, arg):
        _, new, cost = splay_lookup(s, arg)
        return new, cost

    def bound(n: int) -> int:
        return multiplier * splay_shape(n)

    return AmortizedScheme(
        name="splay_tree",
        potential=splay_potential,
        size_measure=splay_size1,
        ops={
            "insert": AmortizedOp("insert", splay_insert, bound),
            "lookup": AmortizedOp("lookup", apply_lookup, bound),
            "splay": AmortizedOp("splay", splay_splay, bound),
        },
        precondition=lambda s: is_bst(s.mirror),
    )
