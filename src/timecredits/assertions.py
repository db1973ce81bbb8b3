"""Separation-logic assertions with time credits over concrete partial heaps.

A partial heap is a heap, a set of owned addresses, and a credit count.
Satisfaction is decidable here because heaps are concrete: separating
conjunction enumerates splits of the owned set, while credit splits are
computed from each side's exact demand whenever the side is Top-free.
`a * Top` is the same recursion with the leftover cells and credits absorbed.
Existential quantifiers range over a finite candidate set drawn from the
heap plus a configurable integer window; overflowing that set raises
rather than guessing.

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


MAX_OWNED = 16  # owned sets enumerated by subsets, 2^16 splits at most


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
        for a in sorted(self.owned, key=lambda x: x.index):
            if a.kind == ARRAY:
                cells.append(f"{a!r} -> {self.heap.arrays.get(a.index)!r}")
            else:
                cells.append(f"{a!r} -> {self.heap.refs.get(a.index)!r}")
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


def exact_need(assn: Assertion) -> Optional[tuple[frozenset, int]]:
    """The exact owned set and credits a Top-free, quantifier-free assertion
    requires, else None (Top absorbs anything; an existential's need depends
    on the witness).  When known, the satisfying split of a separating
    conjunction is forced, so no subset or credit enumeration is needed."""
    if isinstance(assn, (Emp, Pure)):
        return frozenset(), 0
    if isinstance(assn, Credits):
        return frozenset(), assn.amount
    if isinstance(assn, (PointsToRef, PointsToArray)):
        return frozenset((assn.addr,)), 0
    if isinstance(assn, SepConj):
        left = exact_need(assn.left)
        right = exact_need(assn.right)
        if left is None or right is None:
            return None
        return left[0] | right[0], left[1] + right[1]
    return None


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


def _subsets(items: tuple):
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


def sat(ph: PartialHeap, assn: Assertion, config: EnumConfig = EnumConfig()) -> bool:
    """Decide the satisfaction relation on a concrete partial heap."""
    heap = ph.heap
    candidates: list = []  # the heap is fixed: built on the first existential

    def go(owned: frozenset[Addr], credits: int, a: Assertion, rest: bool) -> bool:
        """owned, credits |= a, or a * Top when `rest` absorbs the leftover."""
        if isinstance(a, Top):
            return True
        if isinstance(a, ExistsVal):
            if not candidates:
                candidates.extend(_candidates(heap, config))
            for witness in candidates:
                if go(owned, credits, a.body(witness), rest):
                    return True
            return False
        if isinstance(a, SepConj):
            if isinstance(a.right, Top) or isinstance(a.left, Top):
                other = a.left if isinstance(a.right, Top) else a.right
                return go(owned, credits, other, True)
            left = exact_need(a.left)
            need = left if left is not None else exact_need(a.right)
            if need is not None:
                # a known side takes exactly its need, the other side the rest
                known, other = (a.left, a.right) if left is not None else (a.right, a.left)
                fp, demand = need
                return (
                    fp <= owned
                    and demand <= credits
                    and go(fp, demand, known, False)
                    and go(owned - fp, credits - demand, other, rest)
                )
            if len(owned) > MAX_OWNED:
                raise UndecidableAssertion(
                    f"owned set has {len(owned)} addresses, enumeration bound is {MAX_OWNED}"
                )
            return any(
                go(part, cl, a.left, False) and go(owned - part, credits - cl, a.right, rest)
                for part in _subsets(tuple(owned))
                for cl in range(credits + 1)
            )
        need = exact_need(a)
        if need is None:
            raise TypeError(f"unknown assertion node: {a!r}")
        fp, demand = need
        if not (fp <= owned and demand <= credits if rest else fp == owned and demand == credits):
            return False
        if isinstance(a, PointsToRef):
            return a.addr.kind == "ref" and heap.refs.get(a.addr.index, _MISSING) == a.value
        if isinstance(a, PointsToArray):
            cells = heap.arrays.get(a.addr.index) if a.addr.kind == ARRAY else None
            return cells is not None and tuple(cells) == a.values
        return not isinstance(a, Pure) or bool(a.truth)

    return go(ph.owned, ph.credits, assn, False)


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
