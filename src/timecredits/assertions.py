"""Separation-logic assertions with time credits over concrete partial heaps.

A partial heap is a heap, a set of owned addresses, and a credit count.
Satisfaction is decidable here because heaps are concrete and every leaf
but Top and an existential is precise: a points-to holds of exactly its
one cell, `Credits(k)` of exactly k credits, Emp and Pure of nothing.  So
no separating conjunction has a split to guess: one walk over the leaves
takes each one's cells and credits from what is left, and the assertion
holds when nothing is left, or when a Top was met to absorb the leftover.
Existentials range over None, the booleans, the integers -8..8 and the
cells' addresses and contents.  Once no precise leaf is left, one opens a
choice point that tries each witness in turn and gives back the cells a
failed try took, so the walk needs no recursion on a heap of any size.

The triple checker runs the program on the model's heap and checks that
the cost is covered by the credits and that the leftover partial heap
satisfies the postcondition.  It is a falsifier, not a prover: failed
checks come with replayable witnesses, passing samples are only evidence.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from .heap import ARRAY, FAILURE, REF, Addr, Computation, Heap, Success, run_traced
from .records import record

PASS = "pass"
FAIL_EXECUTION = "fail-execution"
FAIL_CREDITS = "fail-credits"
FAIL_POST = "fail-post"


def _check_credits(amount) -> None:
    if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
        raise ValueError(f"time credits are naturals, not {amount!r}")


@record
class PartialHeap:
    heap: Heap
    owned: frozenset[Addr]
    credits: int

    def __post_init__(self):
        _check_credits(self.credits)

    def describe(self) -> str:
        cells = []
        refs, arrays = self.heap.refs, self.heap.arrays
        for a in sorted(self.owned, key=lambda x: x.index):
            cells.append(f"{a!r} -> {(arrays if a.kind == ARRAY else refs).get(a.index)!r}")
        return f"owned={{{', '.join(cells)}}} credits={self.credits}"


def pheap(heap: Heap, owned, credits: int) -> PartialHeap:
    return PartialHeap(heap, frozenset(owned), credits)


# ---------------------------------------------------------------------------
# assertion syntax
# ---------------------------------------------------------------------------

class Assertion:
    __slots__ = ()

    def __mul__(self, other: "Assertion") -> "Assertion":
        return SepConj(self, other)


@record
class Emp(Assertion):
    pass


@record
class Credits(Assertion):
    amount: int

    def __post_init__(self):
        _check_credits(self.amount)


@record
class PointsToRef(Assertion):
    addr: Addr
    value: Any


@record
class PointsToArray(Assertion):
    addr: Addr
    values: tuple


@record
class Pure(Assertion):
    truth: bool


@record
class SepConj(Assertion):
    left: Assertion
    right: Assertion


@record
class Top(Assertion):
    pass


class ExistsVal(Assertion):
    """Existential over a finite candidate set; body built per witness."""

    __slots__ = ("body", "note")

    def __init__(self, body: Callable[[Any], Assertion], note: str = "x"):
        self.body = body
        self.note = note

    def __repr__(self) -> str:
        return f"ExistsVal({self.note})"


TOP = Top()
EMP = Emp()


def points_to_array(addr: Addr, values) -> PointsToArray:
    return PointsToArray(addr, tuple(values))


def _candidates(heap: Heap) -> list:
    """None, the booleans, -8..8, then each cell's address and contents;
    each value once, where it first occurs."""
    out: list = [None, True, False, *range(-8, 9)]
    seen = set(out)

    def add(v) -> None:
        try:
            new = v not in seen
            seen.add(v)
        except TypeError:  # an unhashable value is looked for in the list
            new = v not in out
        if new:
            out.append(v)

    for i, v in heap.refs.items():
        add(Addr(i, REF))
        add(v)
    for i, cells in heap.arrays.items():
        add(Addr(i, ARRAY))
        add(tuple(cells))
        for v in cells:
            add(v)
    return out


def sat(ph: PartialHeap, assn: Assertion) -> bool:
    """Decide the satisfaction relation on a concrete partial heap: one
    loop over the leaves, and a stack of choice points whose failed
    witnesses give back the cells they took from a trail, not a copy."""
    refs, arrays = ph.heap.refs, ph.heap.arrays
    owned, credits, top = set(ph.owned), ph.credits, False
    todo: list = [assn]
    exists = None  # the waiting existentials, innermost first: (a, rest) or None
    trail: list = []  # every cell a leaf took, in order
    choices: list = []  # [existential, next witness, credits, exists, top, len(trail)]
    candidates: list = []  # the heap is fixed: built at the first choice point
    while True:
        while todo:
            a = todo.pop()
            if isinstance(a, SepConj):
                todo += (a.right, a.left)
            elif isinstance(a, PointsToRef):
                held = a.addr.kind == REF and refs.get(a.addr.index, _MISSING) == a.value
                if not held or a.addr not in owned:
                    break
                owned.remove(a.addr)
                trail.append(a.addr)
            elif isinstance(a, PointsToArray):
                cells = arrays.get(a.addr.index) if a.addr.kind == ARRAY else None
                if cells is None or tuple(cells) != a.values or a.addr not in owned:
                    break
                owned.remove(a.addr)
                trail.append(a.addr)
            elif isinstance(a, Credits):
                if a.amount > credits:
                    break
                credits -= a.amount
            elif isinstance(a, Pure):
                if not a.truth:
                    break
            elif isinstance(a, Top):
                top = True
            elif isinstance(a, ExistsVal):
                exists = (a, exists)
            elif not isinstance(a, Emp):
                raise TypeError(f"unknown assertion node: {a!r}")
        else:  # every leaf held
            if exists is not None:
                candidates = candidates or _candidates(ph.heap)
                a, exists = exists
                choices.append([a, 0, credits, exists, top, len(trail)])
            elif top or (not owned and credits == 0):
                return True
        # try the next witness of the innermost choice point that has one left
        while choices and choices[-1][1] == len(candidates):
            choices.pop()
        if not choices:
            return False
        a, i, credits, exists, top, mark = choices[-1]
        choices[-1][1] += 1
        while len(trail) > mark:
            owned.add(trail.pop())
        todo = [a.body(candidates[i])]


_MISSING = object()


# ---------------------------------------------------------------------------
# Hoare triples
# ---------------------------------------------------------------------------

@record
class HoareTriple:
    """Pre-assertion, program builder, and value-indexed postcondition.

    `prog` receives the concrete pre-model so it can pick up the addresses
    the model bound.  With `top_absorbing` the postcondition is read as
    post * Top: surplus credits and cells are discarded, making the triple
    an upper-bound statement.
    """

    pre: Assertion
    prog: Callable[[PartialHeap], Computation]
    post: Callable[[Any], Assertion]
    top_absorbing: bool = True


@record
class TripleVerdict:
    kind: str
    vacuous: bool = False
    needed: int = 0
    available: int = 0
    witness: Optional[PartialHeap] = None
    trace: tuple = ()

    @property
    def passed(self) -> bool:
        return self.kind == PASS

    def describe(self) -> str:
        if self.kind == PASS:
            return "pass (vacuous)" if self.vacuous else "pass"
        if self.kind == FAIL_CREDITS:
            return f"fail: needs {self.needed} credits, only {self.available} available"
        if self.kind == FAIL_POST:
            return f"fail: postcondition refuted by {self.witness.describe()}"
        return "fail: execution failed"


def check_triple(t: HoareTriple, ph: PartialHeap) -> TripleVerdict:
    if not sat(ph, t.pre):
        return TripleVerdict(PASS, vacuous=True)
    old_next = ph.heap.next_addr
    outcome, trace = run_traced(t.prog(ph), ph.heap)
    if outcome is FAILURE:
        return TripleVerdict(FAIL_EXECUTION, trace=trace)
    assert isinstance(outcome, Success)
    if outcome.cost > ph.credits:
        return TripleVerdict(
            FAIL_CREDITS, needed=outcome.cost, available=ph.credits, trace=trace
        )
    # a run only allocates, so its new cells are exactly the new addresses
    refs = outcome.heap.refs
    fresh = {Addr(i, REF if i in refs else ARRAY) for i in range(old_next, outcome.heap.next_addr)}
    after = PartialHeap(
        outcome.heap, ph.owned | fresh, ph.credits - outcome.cost
    )
    post = t.post(outcome.value)
    if t.top_absorbing:
        post = SepConj(post, TOP)
    if sat(after, post):
        return TripleVerdict(PASS, trace=trace)
    return TripleVerdict(FAIL_POST, witness=after, trace=trace)


@record
class Counterexample:
    seed: int
    trial: int
    model: PartialHeap
    verdict: TripleVerdict

    def render(self) -> str:
        lines = [
            f"seed: {self.seed}",
            f"trial: {self.trial}",
            f"pre-model: {self.model.describe()}",
            "trace: " + ", ".join(f"{name}:{c}" for name, c in self.verdict.trace),
            f"verdict: {self.verdict.describe()}",
        ]
        return "\n".join(lines)


@record
class SampleReport:
    trials: int
    passes: int = 0
    vacuous: int = 0
    generator_invalid: int = 0
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None and self.generator_invalid == 0


def check_triple_sampled(
    t: HoareTriple,
    gen: Callable[[random.Random], PartialHeap],
    trials: int,
    seed: int = 0,
) -> SampleReport:
    """Aggregate check_triple over generated pre-models.

    Each trial uses its own derived seed, so a reported counterexample can
    be replayed by rerunning the generator with that seed alone.
    """
    passes = vacuous = generator_invalid = 0
    counterexample = None
    for trial in range(trials):
        trial_seed = seed * 1_000_003 + trial
        ph = gen(random.Random(trial_seed))
        verdict = check_triple(t, ph)
        if verdict.vacuous:
            # the generator promised a model of the precondition
            generator_invalid += 1
        if verdict.passed:
            passes += 1
            if verdict.vacuous:
                vacuous += 1
        elif counterexample is None:
            counterexample = Counterexample(trial_seed, trial, ph, verdict)
    return SampleReport(trials, passes, vacuous, generator_invalid, counterexample)
