"""Theta-class calculus for polynomial-log bounds in one and two variables.

Classes are n^a (ln n)^b, or products of such in m and n under the product
filter (both variables large).  Sums of two-variable classes cover shapes
like m + n that no single product class expresses.  Inclusion is decided
exponent-wise; summation uses absorption; composition with a linear inner
function of positive slope leaves the class unchanged, so a time
expression in n is classified atom by atom against a registry of known
bounds.  Numeric Theta witnesses (constants plus a threshold) are
calibrated on one sample set and must re-verify on a disjoint one, so a
claimed class cannot be overfitted to its own samples.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .credits import (
    ArgExpr, ExprAtom, NormalizationError, PolyForm, UnitAtom, VarAtom, VarE, slope_in_n,
)
from .records import record


def _factors(var: str, power: int, log_power: int) -> list[str]:
    """The rendered factors var^power (ln var)^log_power, none for exponent 0."""
    parts = []
    if power:
        parts.append(var if power == 1 else f"{var}^{power}")
    if log_power:
        parts.append(f"ln {var}" if log_power == 1 else f"ln^{log_power} {var}")
    return parts


@record
class PolyLog:
    """The function class n^power (ln n)^log_power; (0, 0) is the constants."""

    power: int
    log_power: int

    def value(self, n: float) -> float:
        return n ** self.power * math.log(n) ** self.log_power

    def render(self) -> str:
        return " ".join(_factors("n", self.power, self.log_power)) or "1"


@record
class PolyLog2:
    """m^a (ln m)^b * n^c (ln n)^d under the product filter."""

    m_power: int
    m_log: int
    n_power: int
    n_log: int

    def value(self, m: float, n: float) -> float:
        return (
            m ** self.m_power
            * math.log(m) ** self.m_log
            * n ** self.n_power
            * math.log(n) ** self.n_log
        )

    def render(self) -> str:
        parts = _factors("m", self.m_power, self.m_log) + _factors("n", self.n_power, self.n_log)
        return " ".join(parts) or "1"


@record
class SumClass2:
    """A sum of two-variable classes, e.g. m + n or m^2 n + m n^2."""

    members: tuple[PolyLog2, ...]

    def value(self, m: float, n: float) -> float:
        return sum(g.value(m, n) for g in self.members)

    def render(self) -> str:
        return " + ".join(g.render() for g in self.members)


@record
class RealPowerClass:
    """n^p with a real exponent; display and witness checking only.

    Bottom-heavy recurrence solutions land here.  These classes take no
    part in the natural-exponent inclusion calculus.
    """

    exponent: float

    def value(self, n: float) -> float:
        return n ** self.exponent

    def render(self) -> str:
        return f"n^{self.exponent:.7f}"


TwoVarClass = Union[PolyLog2, SumClass2]
AnyClass = Union[PolyLog, PolyLog2, SumClass2, RealPowerClass]

CONSTANT = PolyLog(0, 0)
LINEAR = PolyLog(1, 0)


def sum_class2(members: Iterable[PolyLog2]) -> TwoVarClass:
    """Normalize a member list: drop dominated members, sort, unwrap singletons."""
    kept: list[PolyLog2] = []
    for g in members:
        if any(o_subset2(g, h) in (Rel.SUBSET, Rel.EQUAL) for h in kept):
            continue
        kept = [h for h in kept if o_subset2(h, g) != Rel.SUBSET]
        kept.append(g)
    kept.sort(key=lambda g: (g.m_power, g.m_log, g.n_power, g.n_log), reverse=True)
    if len(kept) == 1:
        return kept[0]
    return SumClass2(tuple(kept))


class Rel(Enum):
    SUBSET = "subset"
    SUPERSET = "superset"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def o_subset(g1: PolyLog, g2: PolyLog) -> bool:
    """O(g1) included in O(g2): lexicographic on (power, log power)."""
    return (g1.power, g1.log_power) <= (g2.power, g2.log_power)


def o_subset2(g1: PolyLog2, g2: PolyLog2) -> Rel:
    """Componentwise comparison; not all pairs are comparable."""
    m_le = (g1.m_power, g1.m_log) <= (g2.m_power, g2.m_log)
    m_ge = (g1.m_power, g1.m_log) >= (g2.m_power, g2.m_log)
    n_le = (g1.n_power, g1.n_log) <= (g2.n_power, g2.n_log)
    n_ge = (g1.n_power, g1.n_log) >= (g2.n_power, g2.n_log)
    if m_le and n_le and m_ge and n_ge:
        return Rel.EQUAL
    if m_le and n_le:
        return Rel.SUBSET
    if m_ge and n_ge:
        return Rel.SUPERSET
    return Rel.INCOMPARABLE


def included2(g: TwoVarClass, h: TwoVarClass) -> bool:
    """O(g) included in O(h), two-variable, possibly sums.

    For a sum on the right it suffices that some member dominates; this is
    sound (the sum is at least each member) though not complete.
    """
    g_members = g.members if isinstance(g, SumClass2) else (g,)
    h_members = h.members if isinstance(h, SumClass2) else (h,)
    return all(
        any(o_subset2(gm, hm) in (Rel.SUBSET, Rel.EQUAL) for hm in h_members)
        for gm in g_members
    )


class IncomparableError(Exception):
    def __init__(self, left: TwoVarClass, right: TwoVarClass):
        self.pair = (left, right)
        super().__init__(
            f"no class dominates both {left.render()} and {right.render()}"
        )


def sum_theta(classes: Sequence[PolyLog]) -> PolyLog:
    """Absorption: the sum of classes is the dominant one."""
    if not classes:
        raise ValueError("empty class list")
    dominant = classes[0]
    for g in classes[1:]:
        if not o_subset(g, dominant):
            dominant = g
    return dominant


def sum_theta2(classes: Sequence[TwoVarClass]) -> TwoVarClass:
    """Absorption in two variables; fails when no member dominates the rest."""
    if not classes:
        raise ValueError("empty class list")
    for candidate in classes:
        if all(included2(g, candidate) for g in classes):
            return candidate
    # report a maximal incomparable pair
    maximal = []
    for g in classes:
        if not any(included2(g, h) and not included2(h, g) for h in classes):
            maximal.append(g)
    left = maximal[0]
    right = next(g for g in maximal[1:] if not included2(g, left) or not included2(left, g))
    raise IncomparableError(left, right)


# ---------------------------------------------------------------------------
# composition with linear inner functions
# ---------------------------------------------------------------------------

class NonLinearArgument(ValueError):
    """Composition is only admitted for linear inner functions."""


class UnknownFunction(KeyError):
    pass


def arg_slope(e: ArgExpr) -> Fraction:
    """The exact slope of an argument expression in the size variable n."""
    try:
        return slope_in_n(e)
    except NormalizationError:
        raise NonLinearArgument(f"inner function {e!r} is not linear in n") from None


def compose_linear(g: PolyLog, inner: ArgExpr) -> PolyLog:
    """Composition rule: a polylog class after an inner function of positive
    slope is unchanged.  Any other inner function is rejected outright."""
    if not isinstance(inner, ArgExpr) or arg_slope(inner) <= 0:
        raise NonLinearArgument(f"inner function {inner!r} is not linear with positive slope")
    return g


# ---------------------------------------------------------------------------
# registry and the time-expression analyzer
# ---------------------------------------------------------------------------

DECLARED = "declared"
SOLVED = "solved-by-recurrence"


@record
class RegistryEntry:
    name: str
    arity: int
    cls: Union[PolyLog, TwoVarClass]
    provenance: str = DECLARED


class BoundRegistry:
    """Named runtime functions mapped to their asymptotic classes."""

    def __init__(self):
        self.entries: dict[str, RegistryEntry] = {}

    def register(
        self,
        name: str,
        cls: Union[PolyLog, TwoVarClass],
        provenance: str = DECLARED,
    ) -> None:
        arity = 1 if isinstance(cls, PolyLog) else 2
        self.entries[name] = RegistryEntry(name, arity, cls, provenance)

    def lookup(self, name: str) -> RegistryEntry:
        if name not in self.entries:
            raise UnknownFunction(name)
        return self.entries[name]


def analyze_form(form: PolyForm, registry: BoundRegistry) -> PolyLog:
    """Class of a time expression in n, by per-atom classification plus
    absorption: the unit is Theta(1), n and an expression of positive slope
    are Theta(n), and a call is its registered class composed with its
    argument."""
    classes = []
    for atom in form.coeffs:
        if isinstance(atom, UnitAtom):
            classes.append(CONSTANT)
        elif isinstance(atom, VarAtom):
            classes.append(compose_linear(LINEAR, VarE(atom.name)))
        elif isinstance(atom, ExprAtom):
            classes.append(compose_linear(LINEAR, atom.expr))
        else:
            entry = registry.lookup(atom.fn)
            if entry.arity != 1 or len(atom.args) != 1:
                raise UnknownFunction(f"{atom.fn} is not a single-variable function")
            classes.append(compose_linear(entry.cls, atom.args[0]))
    return sum_theta(classes)


# ---------------------------------------------------------------------------
# numeric witnesses
# ---------------------------------------------------------------------------

@record
class ThetaWitness:
    """Constants certifying c_lower * g <= f <= c_upper * g from N on."""

    c_lower: Fraction
    c_upper: Fraction
    threshold: int

    def __post_init__(self):
        if self.c_lower <= 0 or self.c_upper <= 0:
            raise ValueError("witness constants must be positive")


@record
class WitnessReport:
    passed: bool
    violation: Optional[tuple] = None  # (sample, ratio, side)

    def describe(self) -> str:
        if self.passed:
            return "witness holds on all samples"
        sample, ratio, side = self.violation
        return f"witness violated at {sample}: ratio {ratio:.4g} breaks the {side} bound"


def check_theta_witness(
    f: Callable,
    g: AnyClass,
    witness: ThetaWitness,
    samples: Sequence,
) -> WitnessReport:
    """Check both witness bounds at every sample at or above the threshold."""
    lo = float(witness.c_lower)
    hi = float(witness.c_upper)
    for sample in samples:
        args = sample if isinstance(sample, tuple) else (sample,)
        if min(args) < witness.threshold:
            raise ValueError(f"sample {sample} below witness threshold {witness.threshold}")
        ratio = float(f(*args)) / g.value(*args)
        if ratio > hi:
            return WitnessReport(False, (sample, ratio, "upper"))
        if ratio < lo:
            return WitnessReport(False, (sample, ratio, "lower"))
    return WitnessReport(True)


def calibrate_witness(
    f: Callable,
    g: AnyClass,
    train_samples: Sequence,
) -> ThetaWitness:
    """Fit witness constants on training samples with a fixed slack margin.

    The point of the margin is that verification happens on a disjoint,
    larger sample set: a wrong class drifts past the margin there.
    """
    margin = 0.10
    ratios = []
    threshold = None
    for sample in train_samples:
        args = sample if isinstance(sample, tuple) else (sample,)
        threshold = min(args) if threshold is None else min(threshold, *args)
        ratios.append(float(f(*args)) / g.value(*args))
    if threshold is None:
        raise ValueError("no training samples")
    if threshold < 2:
        raise ValueError("witness thresholds start at 2 (ln 1 = 0)")
    lo = min(ratios) * (1 - margin)
    hi = max(ratios) * (1 + margin)
    if lo <= 0:
        raise ValueError("function vanishes on a training sample")
    return ThetaWitness(
        Fraction(lo).limit_denominator(10**9),
        Fraction(hi).limit_denominator(10**9),
        threshold,
    )


def geometric_samples(lo: int, hi: int, per_decade: int = 4) -> list[int]:
    """Distinct integer samples spread geometrically across [lo, hi]."""
    if lo < 2:
        raise ValueError("samples start at 2")
    out = []
    x = float(lo)
    step = 2 ** (1.0 / per_decade)
    while x <= hi:
        n = round(x)
        if not out or n > out[-1]:
            out.append(n)
        x *= step
    if out[-1] != hi:
        out.append(hi)
    return out


def grid_samples(lo: int, hi: int) -> list[tuple[int, int]]:
    side = geometric_samples(lo, hi, per_decade=3)
    return [(m, n) for m in side for n in side]
