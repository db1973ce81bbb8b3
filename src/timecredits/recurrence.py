"""Divide-and-conquer recurrence solving plus a concrete evaluation oracle.

A recurrence f(x) = g(x) + sum of a_i * f(h_i(x)) for x >= x0, with each
h_i(x) the ceiling or floor of b_i * x (0 < b_i < 1), is classified through
its characteristic exponent p, the root of sum a_i * b_i^p = 1.  Whether g
grows below, at, or above x^p picks a bottom-heavy, balanced, or top-heavy
solution.  When the recurrence additionally carries a concrete toll
function and base table, `eval_recurrence` computes exact values, which the
ratio check uses to keep the symbolic answer honest.  `recurrence_of`
reads the whole spec off one recursive total: its terms, the toll function,
the toll's class and its time expression; `monotone_by_induction` decides
from that expression and the base table that f is nondecreasing at every n.
`one_spec_per_consts` builds each case study's spec once per constants, so
its bound, claim and hints share one spec, one memo and one bisected
exponent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import accumulate
from math import comb
from typing import Callable, Optional, Union

from .credits import (
    AddE, ArgExpr, Assignment, CallAtom, CeilDivE, ConstE, ExprAtom, FloorDivE, MulE, PolyForm,
    SubE, UnitAtom, VarAtom, VarE, holds_for_all_n,
)
from .landau import (
    BoundRegistry, NonLinearArgument, PolyLog, PolyLog2, RealPowerClass, analyze_form, arg_slope,
    geometric_samples,
)
from .records import field, record, replace

BOTTOM_HEAVY = "bottom-heavy"
BALANCED = "balanced"
TOP_HEAVY = "top-heavy"

ROOT_TOLERANCE = 1e-9
BRACKET = (-32.0, 32.0)


class RecurrenceError(ValueError):
    pass


class RootOutOfRange(RecurrenceError):
    pass


class MissingBase(RecurrenceError):
    pass


@record
class RecTerm:
    a: Fraction
    b: Fraction
    rounding: str = "ceil"

    def __post_init__(self):
        if not 0 < self.b < 1:
            raise RecurrenceError(f"b must lie strictly between 0 and 1, got {self.b}")
        if self.a < 0:
            raise RecurrenceError(f"a must be nonnegative, got {self.a}")
        if self.rounding not in ("ceil", "floor"):
            raise RecurrenceError(f"unknown rounding {self.rounding!r}")


@record
class AkraBazziSpec:
    """Recurrence description: threshold, recursive terms, toll class, and
    (optionally) a concrete toll plus base table for exact evaluation, and
    the toll as a time expression in n.

    Its caches are attributes, not fields: ``_memo`` holds the exact values
    `eval_recurrence` has computed, ``_live`` the terms in the form it
    reads, and ``_exponent`` the root `solve_exponent` bisected.  So
    `records.replace` gives the copy caches of its own."""

    x0: int
    terms: tuple[RecTerm, ...]
    g_class: PolyLog
    g_concrete: Optional[Callable[[int], int]] = None
    g_form: Optional[PolyForm] = None
    base: dict[int, int] = field(default_factory=dict)
    name: str = ""
    _exponent = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not any(t.a > 0 for t in self.terms):
            raise RecurrenceError("at least one recursive term must have a > 0")
        if self.x0 < 1:
            raise RecurrenceError("threshold x0 must be at least 1")
        object.__setattr__(self, "_memo", {})
        # (a, b numerator, b denominator, rounds up) per term with a > 0, an
        # integral a as an int, so exact evaluation stays in int arithmetic
        object.__setattr__(self, "_live", tuple(
            (int(t.a) if t.a.denominator == 1 else t.a, t.b.numerator, t.b.denominator,
             t.rounding == "ceil")
            for t in self.terms if t.a != 0
        ))


@record
class AkraBazziResult:
    p: float
    case: str
    result_class: Union[PolyLog, RealPowerClass]
    residual: float

    def render(self) -> str:
        return f"p={self.p:.7f} ({self.case}), Theta({self.result_class.render()})"


def _phi(terms: list[tuple], p: float) -> float:
    """sum a * b^p - 1 over the terms' (a, b) pairs, in floats."""
    try:
        return sum(float(a) * float(b) ** p for a, b in terms) - 1.0
    except (OverflowError, ZeroDivisionError):
        raise RecurrenceError(
            f"sum of a * b^p is out of float range at p={p:g}; a term's a or b is too extreme"
        ) from None


def solve_exponent(spec: AkraBazziSpec) -> float:
    """Root of sum a_i b_i^p = 1 by bisection; the function is strictly
    decreasing in p, so the root is unique.  The spec keeps it, as it keeps
    its values."""
    if spec._exponent is not None:
        return spec._exponent
    terms = [(t.a, t.b) for t in spec.terms]
    lo, hi = BRACKET
    f_lo, f_hi = _phi(terms, lo), _phi(terms, hi)
    if f_lo < 0 or f_hi > 0:
        raise RootOutOfRange(
            f"no sign change on [{lo}, {hi}]: phi({lo})={f_lo:.3g}, phi({hi})={f_hi:.3g}"
        )
    terms = [(float(a), float(b)) for a, b in terms]  # both ends converted them
    while hi - lo > ROOT_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if _phi(terms, mid) > 0:
            lo = mid
        else:
            hi = mid
    object.__setattr__(spec, "_exponent", 0.5 * (lo + hi))
    return spec._exponent


def akra_bazzi_class(spec: AkraBazziSpec) -> AkraBazziResult:
    """The case is the sign of phi(q) = sum a_i b_i^q - 1 at the toll's
    natural power q, exact in rationals; phi decreases strictly, so q lies
    below, at or above p as phi(q) is positive, zero or negative.  The
    bisected p is only rendered."""
    p = solve_exponent(spec)
    residual = abs(_phi([(t.a, t.b) for t in spec.terms], p))
    q, logs = spec.g_class.power, spec.g_class.log_power
    phi_q = sum(t.a * t.b ** q for t in spec.terms) - 1
    if phi_q == 0:
        return AkraBazziResult(p, BALANCED, PolyLog(q, logs + 1), residual)
    if logs != 0:
        raise RecurrenceError(
            "toll with log factors must sit exactly at the exponent "
            f"(q={q}, p={p:.6f})"
        )
    if phi_q > 0:
        if spec.g_concrete is not None:
            _check_eventually_positive(spec)
        return AkraBazziResult(p, BOTTOM_HEAVY, RealPowerClass(p), residual)
    return AkraBazziResult(p, TOP_HEAVY, spec.g_class, residual)


def _check_eventually_positive(spec: AkraBazziSpec) -> None:
    # bottom-heavy hypothesis: f stays positive over the checkable range
    probe = [spec.x0, spec.x0 + 1, 4 * spec.x0, 64 * spec.x0, 1024 * spec.x0]
    for n in probe:
        if eval_recurrence(spec, n) <= 0:
            raise RecurrenceError(f"f({n}) is not positive")


# the most specs, with their memos, that the cache keeps alive
SPEC_CACHE_SIZE = 256


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _built_spec(build, consts_items: tuple):
    return build(dict(consts_items))


def one_spec_per_consts(build):
    """A row's spec builder, made to build one spec per constants: every
    caller with equal constants gets the same spec, and with it the memo
    that earlier evaluations filled.  `build` takes the constants, with the
    row's defaults as its default.  The key is the sorted constants, and
    the builder gets a copy of them, so no caller's dict is kept.  One
    cache serves every row and keeps the SPEC_CACHE_SIZE specs used last."""
    (defaults,) = build.__defaults__

    @wraps(build)
    def spec(consts=defaults):
        return _built_spec(build, tuple(sorted(consts.items())))

    return spec


def recurrence_of(
    total_of: Callable[[dict], PolyForm], consts: dict, name: str, x0: int, base: dict, aux=()
) -> AkraBazziSpec:
    """The spec of f = `name`, for n >= x0 above the base table, read off the
    recursive total that `total_of` builds for these constants.  Each call
    a * f(h) in the total is a term, in the total's order; the rest is the
    toll, kept as `g_form`: `g_concrete` evaluates it at n, each auxiliary
    call bound to its time function at these constants, and `g_class` is
    read off its atoms, each auxiliary with its class.  `aux` holds (name,
    time function, class) triples."""
    coeffs = dict(total_of(consts).coeffs)
    calls = {a: coeffs.pop(a) for a in list(coeffs) if isinstance(a, CallAtom) and a.fn == name}
    if not coeffs:
        raise RecurrenceError(f"the toll of {name} is identically zero")
    terms = tuple(_rec_term(call, a, x0) for call, a in calls.items())
    toll, registry = PolyForm(coeffs), BoundRegistry()
    for fn, _, cls in aux:
        registry.register(fn, cls)
    sigma = Assignment({}, {fn: lambda n, time=time: time(n, consts) for fn, time, _ in aux})

    def g_concrete(n: int) -> int:
        sigma.env["n"] = n  # one assignment serves every point
        return toll.eval(sigma)

    return AkraBazziSpec(
        x0=x0, terms=terms, g_class=analyze_form(toll, registry), g_concrete=g_concrete,
        g_form=toll, base=base, name=name,
    )


def _rec_term(call: CallAtom, a: int, x0: int) -> RecTerm:
    """The term a * f(h) of the call: b is h's exact slope, and the
    rounding is the one under which the rounded b * n equals h at every
    n >= x0, by being h or by holding both ways."""
    refused = RecurrenceError(f"the call {call!r} is not on a rounded b * n with 0 < b < 1")
    if len(call.args) != 1:
        raise refused
    (h,) = call.args
    try:
        b = arg_slope(h)
    except NonLinearArgument:
        raise refused from None
    if 0 < b < 1:
        for rounding in ("floor", "ceil"):
            rounded = _rounded(b, rounding)
            if h == rounded or holds_for_all_n(h, rounded, x0) and holds_for_all_n(rounded, h, x0):
                return RecTerm(Fraction(a), b, rounding)
    raise refused


def _rounded(b: Fraction, rounding: str) -> ArgExpr:
    """The floor or ceiling of b * n, as a case study writes it: n div 2,
    not 1*n div 2."""
    n, div = VarE("n"), CeilDivE if rounding == "ceil" else FloorDivE
    return div(n if b.numerator == 1 else MulE(b.numerator, n), b.denominator)


def _at_next(e: ArgExpr) -> ArgExpr:
    """e with n replaced by n + 1."""
    if isinstance(e, VarE):
        return AddE(e, ConstE(1))
    fields = {name: getattr(e, name) for name in e.__match_args__}
    return replace(e, **{k: _at_next(v) for k, v in fields.items() if isinstance(v, ArgExpr)})


def monotone_by_induction(spec: AkraBazziSpec) -> bool:
    """Whether f is nondecreasing at every natural, by strong induction on
    n, from premises each decided once for the spec:

    - the base table is nondecreasing on [0, x0), and f(x0 - 1) <= f(x0);
    - every a_i >= 0, and h_i(x) < x for every x >= x0 (h_i, a rounded
      b_i * x, is nondecreasing);
    - every toll atom but 1 has a coefficient >= 0 and is n or an
      expression nondecreasing in n; a spec with a call atom, or with no
      toll expression, is refused.

    Then f(x + 1) - f(x) = g(x + 1) - g(x) + sum a_i (f(h_i(x + 1)) -
    f(h_i(x))) >= 0 for x >= x0, as h_i(x + 1) <= x.
    """
    x0, base, n = spec.x0, spec.base, VarE("n")
    if spec.g_form is None or any(k not in base for k in range(x0)):
        return False
    for t in spec.terms:
        if t.a < 0 or not holds_for_all_n(_rounded(t.b, t.rounding), SubE(n, ConstE(1)), x0):
            return False
    for atom, c in spec.g_form.coeffs.items():
        if isinstance(atom, UnitAtom):
            continue
        if c < 0 or not (
            atom == VarAtom("n")
            or isinstance(atom, ExprAtom) and holds_for_all_n(atom.expr, _at_next(atom.expr), x0)
        ):
            return False
    table = [base[k] for k in range(x0)] + [eval_recurrence(spec, x0)]
    return all(a <= b for a, b in zip(table, table[1:]))


def eval_recurrence(spec: AkraBazziSpec, n: int):
    """Exact memoized evaluation following the declared rounding.  A value
    whose subterms are not all known yet goes back on an explicit stack
    above its first missing subterm, so the depth of the recursion is not
    bounded by Python's."""
    memo = spec._memo
    if n in memo:
        return memo[n]
    toll, x0, live = spec.g_concrete, spec.x0, spec._live
    if toll is None:
        raise RecurrenceError("spec has no concrete toll function")
    stack = [n]
    while stack:
        m = stack.pop()
        if m in memo:
            continue
        if m < x0:
            if m not in spec.base:
                raise MissingBase(f"no base value for n={m} below threshold {x0}")
            memo[m] = spec.base[m]
            continue
        total = 0
        for a, num, den, up in live:
            k = -(-num * m // den) if up else num * m // den
            sub = memo.get(k)
            if sub is None:
                if k == m:
                    raise RecurrenceError(f"a term maps n={m} to itself; raise the threshold x0")
                stack += (m, k)
                break
            total = total + a * sub
        else:
            total = toll(m) + total
            if isinstance(total, Fraction) and total.denominator == 1:
                total = int(total)
            memo[m] = total
    return memo[n]


@record
class RatioReport:
    min_ratio: float
    max_ratio: float
    slack: float
    passed: bool

    def render(self) -> str:
        verdict = "pass" if self.passed else "fail"
        spread = (
            f"spread {self.max_ratio / self.min_ratio:.3g} vs slack {self.slack:g}"
            if self.min_ratio > 0 else "f is not positive"
        )
        return f"ratio in [{self.min_ratio:.4g}, {self.max_ratio:.4g}], {spread}: {verdict}"


def empirical_ratio_check(
    spec: AkraBazziSpec,
    result_class,
    lo: int,
    hi: int,
) -> RatioReport:
    """Compare exact values of f against the claimed class over a geometric
    sample; the ratio spread must stay within the slack factor, 8 for a
    class with a log factor and 4 otherwise."""
    slack = 8.0 if getattr(result_class, "log_power", 0) > 0 else 4.0
    ratios = []
    for n in geometric_samples(max(lo, 2), hi):
        value = eval_recurrence(spec, n)
        try:
            ratios.append(float(value) / result_class.value(n))
        except OverflowError:
            raise RecurrenceError(f"f({n}) or its class is out of float range") from None
    min_ratio, max_ratio = min(ratios), max(ratios)
    passed = min_ratio > 0 and max_ratio / min_ratio <= slack
    return RatioReport(min_ratio, max_ratio, slack, passed)


# ---------------------------------------------------------------------------
# linear recurrences (for-loops written as recursions)
# ---------------------------------------------------------------------------

@record
class LinearRecSpec:
    """A loop's cost: f(n) = init + step(1) + ... + step(n - 1) + final in
    one variable, f(n, W) = init(W) + n * step(W) + final in two.  ``init``
    and ``step`` are integer polynomials {power: coeff} (``init`` constant
    in one variable).  Two values derived from the fields are attributes,
    not fields: the step's class, ``g_class``, read off its leading power,
    and ``_diffs``.  In one variable a step of degree d sums to a polynomial
    of degree d + 1 (Faulhaber), fixed by ``_diffs``, the forward
    differences of f(1), ..., f(d + 2)."""

    arity: int
    step: dict
    init: dict = field(default_factory=dict)
    final: int = 0

    def __post_init__(self):
        lead = _degree(self.step)
        if lead < 0 or self.step[lead] < 0:
            raise RecurrenceError("the step needs a positive leading coefficient")
        if _degree(self.init) > (lead if self.arity == 2 else 0):
            raise RecurrenceError("init grows faster than the loop it starts")
        object.__setattr__(self, "g_class", PolyLog(lead, 0))
        steps = [_poly_at(self.step, i) for i in range(1, lead + 2)]
        values = list(accumulate(steps, initial=_poly_at(self.init, 0) + self.final))
        diffs = []
        while values:
            diffs.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        object.__setattr__(self, "_diffs", tuple(diffs))


def linear_rec_class(spec: LinearRecSpec) -> Union[PolyLog, PolyLog2]:
    """n steps of class n^d sum to n^(d+1); n of W^d to n W^d."""
    if spec.arity == 1:
        return PolyLog(spec.g_class.power + 1, 0)
    if spec.arity == 2:
        if spec.g_class != PolyLog(1, 0):
            raise RecurrenceError(
                "two-variable rule requires a linear step, got "
                f"Theta({spec.g_class.render()})"
            )
        return PolyLog2(1, 0, spec.g_class.power, 0)
    raise RecurrenceError(f"unsupported arity {spec.arity}")


def _degree(poly: dict) -> int:
    """Leading power with a nonzero coefficient; -1 for the zero polynomial."""
    return max((int(p) for p, c in poly.items() if int(c)), default=-1)


def _poly_at(poly: dict, x: int) -> int:
    total = 0
    for p, c in poly.items():
        total += c * x ** p
    return total


def eval_linear(spec: LinearRecSpec, n: int, W: int = 0) -> int:
    """Exact cost of the loop in integer arithmetic, in time independent of
    n; in one variable by Newton's form f(n) = sum_j diffs[j] * C(n - 1, j)."""
    if spec.arity == 1:
        m, total = n - 1 if n > 1 else 0, 0
        for j, c in enumerate(spec._diffs):
            total += c * comb(m, j)
        return total
    return _poly_at(spec.init, W) + n * _poly_at(spec.step, W) + spec.final


# ---------------------------------------------------------------------------
# file format (exact rationals as "p/q" strings)
# ---------------------------------------------------------------------------

# the largest power a spec file may give its toll, polynomial or class
MAX_POWER = 64


def _integer(value, what: str) -> int:
    """An integer field of a spec file.  A float counts only when it is
    integral, so 2.0 loads as 2 and 2.9 is rejected, not truncated."""
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except ValueError:
        raise RecurrenceError(f"{what} must be an integer, got {value!r}") from None


def _power(value, what: str) -> int:
    power = _integer(value, what)
    if not 0 <= power <= MAX_POWER:
        raise RecurrenceError(f"{what} must lie in [0, {MAX_POWER}], got {power}")
    return power


def _rational(value, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise RecurrenceError(f"{what} must be a finite rational, got {value!r}") from None


def _check_poly_class(coeffs: dict, g_power: int, g_log: int) -> None:
    """A polynomial toll is Theta(n^d) for its leading nonzero power d, so a
    `g_class` other than (d, 0) contradicts it."""
    lead = _degree(coeffs)
    if lead < 0:
        raise RecurrenceError("g_poly has no nonzero coefficient")
    if (g_power, g_log) != (lead, 0):
        raise RecurrenceError(
            f"g_class [{g_power}, {g_log}] contradicts g_poly, whose leading power is {lead}"
        )


def _check_shape(data) -> None:
    """Reject JSON that is not shaped like a spec, so that reading its
    fields fails only with a RecurrenceError, ValueError or KeyError."""
    if not isinstance(data, dict):
        raise RecurrenceError(f"a spec must be a JSON object, got {type(data).__name__}")

    def number(value) -> bool:  # JSON true and false are not numbers
        return isinstance(value, (int, float, str)) and not isinstance(value, bool)

    terms, g_class = data.get("terms"), data.get("g_class")
    base, g_poly = data.get("base", {}), data.get("g_poly") or {}
    fits = {
        "terms": isinstance(terms, list) and all(
            isinstance(t, dict) and number(t.get("a"))
            and number(t.get("b")) for t in terms),
        "g_class": isinstance(g_class, list) and len(g_class) == 2 and all(
            number(v) for v in g_class),
        "x0": number(data.get("x0")),
        "base": isinstance(base, dict) and all(number(v) for v in base.values()),
        "g_poly": isinstance(g_poly, dict) and all(number(v) for v in g_poly.values()),
    }
    bad = [key for key, ok in fits.items() if not ok]
    if bad:
        raise RecurrenceError(f"malformed spec: {', '.join(bad)} not shaped as documented")


def spec_from_json(data: dict) -> AkraBazziSpec:
    """The spec a JSON object describes.  Integer fields reject fractional
    numbers, and powers lie in [0, MAX_POWER]."""
    _check_shape(data)
    terms = tuple(
        RecTerm(_rational(t["a"], "a"), _rational(t["b"], "b"), t.get("round", "ceil"))
        for t in data["terms"]
    )
    g_power, g_log = (_power(v, "a g_class power") for v in data["g_class"])
    g_concrete = None
    if data.get("g_poly"):
        # polynomial toll: {"0": c0, "1": c1, ...} maps power -> coefficient
        coeffs: dict = {}
        for p, c in data["g_poly"].items():
            power = _power(p, "a g_poly power")
            coeffs[power] = coeffs.get(power, 0) + _integer(c, "a g_poly coefficient")
        g_concrete = partial(_poly_at, coeffs)
        _check_poly_class(coeffs, g_power, g_log)
    base = {
        _integer(k, "a base key"): _integer(v, "a base value")
        for k, v in data.get("base", {}).items()
    }
    return AkraBazziSpec(
        x0=_integer(data["x0"], "x0"),
        terms=terms,
        g_class=PolyLog(g_power, g_log),
        g_concrete=g_concrete,
        base=base,
        name=data.get("name", ""),
    )


def load_spec(path) -> AkraBazziSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))
