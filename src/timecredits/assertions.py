"""Separation-logic assertions with time credits over concrete partial heaps.

A partial heap is a heap, a set of owned addresses, and a credit count.
Satisfaction is decidable here because heaps are concrete: separating
conjunction enumerates splits of the owned set, while credit splits are
computed from each side's exact demand whenever the side is Top-free.
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

from .heap import ARRAY, FAILURE, Addr, Computation, Heap, Success, run_traced

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


@dataclass(frozen=True)
class PartialHeap:
    heap: Heap
    owned: frozenset[Addr]
    credits: int

    def wellformed(self) -> bool:
        return self.credits >= 0 and self.owned <= self.heap.allocated()

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
        if self.amount < 0:
            raise ValueError(f"time credits are naturals, not {self.amount}")


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


def credit_demand(assn: Assertion) -> Optional[int]:
    """Exact credits a Top-free, quantifier-free assertion requires, else None."""
    need = exact_need(assn)
    return None if need is None else need[1]


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


def _check_owned(owned: frozenset) -> None:
    if len(owned) > MAX_OWNED:
        raise UndecidableAssertion(
            f"owned set has {len(owned)} addresses, enumeration bound is {MAX_OWNED}"
        )


def sat(ph: PartialHeap, assn: Assertion, config: EnumConfig = EnumConfig()) -> bool:
    """Decide the satisfaction relation on a concrete partial heap."""
    heap = ph.heap

    def go(owned: frozenset[Addr], credits: int, a: Assertion) -> bool:
        if isinstance(a, Emp):
            return not owned and credits == 0
        if isinstance(a, Credits):
            return not owned and credits == a.amount
        if isinstance(a, Pure):
            return a.truth and not owned and credits == 0
        if isinstance(a, PointsToRef):
            return (
                credits == 0
                and owned == frozenset((a.addr,))
                and a.addr.kind == "ref"
                and heap.refs.get(a.addr.index, _MISSING) == a.value
            )
        if isinstance(a, PointsToArray):
            if credits != 0 or owned != frozenset((a.addr,)) or a.addr.kind != ARRAY:
                return False
            cells = heap.arrays.get(a.addr.index)
            return cells is not None and tuple(cells) == a.values
        if isinstance(a, Top):
            return True
        if isinstance(a, ExistsVal):
            for witness in _candidates(heap, config):
                if go(owned, credits, a.body(witness)):
                    return True
            return False
        if isinstance(a, SepConj):
            # an absorbing side soaks up any leftover cells and credits, so
            # only the other side constrains anything
            if isinstance(a.right, Top):
                return _under_top(owned, credits, a.left)
            if isinstance(a.left, Top):
                return _under_top(owned, credits, a.right)
            left, right = exact_need(a.left), exact_need(a.right)
            # a known side forces the address split and its credits
            if left is not None:
                fl, dl = left
                splits = [(fl, owned - fl)] if fl <= owned else []
                fits = dl + right[1] == credits if right is not None else dl <= credits
                lefts = [dl] if fits else []
            elif right is not None:
                fr, dr = right
                splits = [(owned - fr, fr)] if fr <= owned else []
                lefts = [credits - dr] if dr <= credits else []
            else:
                _check_owned(owned)
                splits = [(part, owned - part) for part in _subsets(tuple(owned))]
                lefts = range(credits + 1)
            for left_part, right_part in splits:
                for cl in lefts:
                    if go(left_part, cl, a.left) and go(right_part, credits - cl, a.right):
                        return True
            return False
        raise TypeError(f"unknown assertion node: {a!r}")

    def _under_top(owned: frozenset[Addr], credits: int, a: Assertion) -> bool:
        """Decide owned, credits |= a * Top: a on some sub-pheap, rest absorbed."""
        if isinstance(a, Top):
            return True
        if isinstance(a, ExistsVal):
            for witness in _candidates(heap, config):
                if _under_top(owned, credits, a.body(witness)):
                    return True
            return False
        if isinstance(a, SepConj) and (
            isinstance(a.left, Top) or isinstance(a.right, Top)
        ):
            other = a.right if isinstance(a.left, Top) else a.left
            return _under_top(owned, credits, other)
        need = exact_need(a)
        if need is not None:
            fp, demand = need
            return fp <= owned and demand <= credits and go(fp, demand, a)
        if isinstance(a, SepConj):
            # peel whatever sub-structure keeps the need unknown
            for side, rest in ((a.left, a.right), (a.right, a.left)):
                need = exact_need(side)
                if need is not None:
                    fs, ds = need
                    return (
                        fs <= owned
                        and ds <= credits
                        and go(fs, ds, side)
                        and _under_top(owned - fs, credits - ds, rest)
                    )
        _check_owned(owned)
        for part in _subsets(tuple(owned)):
            for c in range(credits + 1):
                if go(part, c, a):
                    return True
        return False

    return go(ph.owned, ph.credits, assn)


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
    fresh = {a for a in outcome.heap.allocated() if a.index >= old_next}
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
