"""Separation-logic assertions with time credits over concrete partial heaps.

A partial heap is a heap, a set of owned addresses, and a credit count.
Satisfaction is decidable here because heaps are concrete and every leaf
but Top and an existential is precise: a points-to holds of exactly its
one cell, `Credits(k)` of exactly k credits, Emp and Pure of nothing.  So
no separating conjunction has a split to guess: one walk over the leaves
takes each one's cells and credits from what is left, and the assertion
holds when nothing is left, or when a Top was met to absorb the leftover.
Existential quantifiers range over a finite candidate set drawn from the
heap plus a configurable integer window, and each witness continues the
walk on its own copy of what is left; overflowing that set raises rather
than guessing.

The triple checker runs the program on the model's heap and checks that
the cost is covered by the credits and that the leftover partial heap
satisfies the postcondition.  It is a falsifier, not a prover: failed
checks come with replayable witnesses, passing samples are only evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .heap import ARRAY, FAILURE, REF, Addr, Computation, Heap, Success, run_traced

PASS = "pass"
FAIL_EXECUTION = "fail-execution"
FAIL_CREDITS = "fail-credits"
FAIL_POST = "fail-post"


class UndecidableAssertion(Exception):
    """An existential domain exceeded the configured enumeration bound."""


@dataclass(frozen=True)
class EnumConfig:
    int_window: tuple[int, int] = (-8, 8)
    max_candidates: int = 4096


def _check_credits(amount) -> None:
    if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
        raise ValueError(f"time credits are naturals, not {amount!r}")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Emp(Assertion):
    pass


@dataclass(frozen=True)
class Credits(Assertion):
    amount: int

    def __post_init__(self):
        _check_credits(self.amount)


@dataclass(frozen=True)
class PointsToRef(Assertion):
    addr: Addr
    value: Any


@dataclass(frozen=True)
class PointsToArray(Assertion):
    addr: Addr
    values: tuple


@dataclass(frozen=True)
class Pure(Assertion):
    truth: bool


@dataclass(frozen=True)
class SepConj(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True)
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


def _candidates(heap: Heap, config: EnumConfig) -> list:
    lo, hi = config.int_window
    out: list = [None, True, False]
    out.extend(range(lo, hi + 1))
    for i, v in heap.refs.items():
        out.append(Addr(i, "ref"))
        if v not in out:
            out.append(v)
    for i, cells in heap.arrays.items():
        out.append(Addr(i, ARRAY))
        out.append(tuple(cells))
        for v in cells:
            if v not in out:
                out.append(v)
    if len(out) > config.max_candidates:
        raise UndecidableAssertion(
            f"existential domain has {len(out)} candidates, bound is {config.max_candidates}"
        )
    return out


def sat(ph: PartialHeap, assn: Assertion, config: EnumConfig = EnumConfig()) -> bool:
    """Decide the satisfaction relation on a concrete partial heap."""
    heap = ph.heap
    refs, arrays = heap.refs, heap.arrays
    candidates: list = []  # the heap is fixed: built on the first existential

    def walk(owned: set, credits: int, todo: list, exists: list, top: bool) -> bool:
        """owned, credits |= the * of todo and exists, or that * Top once a
        Top is met.  Each precise leaf takes its own cells and credits from
        what is left; the existentials wait until every such leaf has."""
        while todo:
            a = todo.pop()
            if isinstance(a, SepConj):
                todo += (a.right, a.left)
            elif isinstance(a, PointsToRef):
                held = a.addr.kind == REF and refs.get(a.addr.index, _MISSING) == a.value
                if not held or a.addr not in owned:
                    return False
                owned.remove(a.addr)
            elif isinstance(a, PointsToArray):
                cells = arrays.get(a.addr.index) if a.addr.kind == ARRAY else None
                if cells is None or tuple(cells) != a.values or a.addr not in owned:
                    return False
                owned.remove(a.addr)
            elif isinstance(a, Credits):
                if a.amount > credits:
                    return False
                credits -= a.amount
            elif isinstance(a, Pure):
                if not a.truth:
                    return False
            elif isinstance(a, Top):
                top = True
            elif isinstance(a, ExistsVal):
                exists.append(a)
            elif not isinstance(a, Emp):
                raise TypeError(f"unknown assertion node: {a!r}")
        if exists:
            # the one branch: each witness walks its own copy of what is left
            a = exists.pop()
            if not candidates:
                candidates.extend(_candidates(heap, config))
            for witness in candidates:
                if walk(set(owned), credits, [a.body(witness)], exists[:], top):
                    return True
            return False
        return top or (not owned and credits == 0)

    return walk(set(ph.owned), ph.credits, [assn], [], False)


_MISSING = object()


# ---------------------------------------------------------------------------
# Hoare triples
# ---------------------------------------------------------------------------

@dataclass
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


@dataclass(frozen=True)
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


def check_triple(
    t: HoareTriple, ph: PartialHeap, config: EnumConfig = EnumConfig()
) -> TripleVerdict:
    if not sat(ph, t.pre, config):
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
    if sat(after, post, config):
        return TripleVerdict(PASS, trace=trace)
    return TripleVerdict(FAIL_POST, witness=after, trace=trace)


@dataclass(frozen=True)
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


@dataclass
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
    config: EnumConfig = EnumConfig(),
) -> SampleReport:
    """Aggregate check_triple over generated pre-models.

    Each trial uses its own derived seed, so a reported counterexample can
    be replayed by rerunning the generator with that seed alone.
    """
    report = SampleReport(trials=trials)
    for trial in range(trials):
        trial_seed = seed * 1_000_003 + trial
        ph = gen(random.Random(trial_seed))
        verdict = check_triple(t, ph, config)
        if verdict.vacuous:
            # the generator promised a model of the precondition
            report.generator_invalid += 1
        if verdict.passed:
            report.passes += 1
            if verdict.vacuous:
                report.vacuous += 1
        elif report.counterexample is None:
            report.counterexample = Counterexample(trial_seed, trial, ph, verdict)
    return report
