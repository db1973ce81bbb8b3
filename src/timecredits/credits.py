"""Symbolic time expressions, polynomial normalization, and credit matching.

Time expressions are sums of natural-coefficient terms over atoms: the
constant 1, size variables, div/ceil/floor forms of linear expressions, and
applications of named runtime functions.  Atoms and argument expressions
are credit terms, immutable tuples (class, *fields) declared by `_term`:
matching looks atoms up in dicts, and a tuple's ``==`` and hash run in C,
while the class in the tuple keeps `VarE('n')` and `VarAtom('n')` apart.
Expressions are built in their normal form, a `PolyForm` coefficient map;
`subtract_match` decides T = T' + T'' atom by atom, subtracting each demand
coefficient from the same atom of the total; `apply_hint` replaces a term
s by a certified smaller t, so a demand matched against the result is at
most the budget, not equal to it; `holds_for_all_n` decides a
floor/ceiling inequality between argument expressions at every n, the side
facts such certificates rest on, and `slope_in_n` reads an argument
expression's exact slope off the same residue-class form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Callable, Mapping, Union

from .records import frozen_error, record


# ---------------------------------------------------------------------------
# credit terms: argument expressions and atoms
# ---------------------------------------------------------------------------

class _Term(tuple):
    """A credit term, the tuple (class, *fields).  Its ``==``, hash and dict
    lookups are the tuple's, run in C, and the class in the tuple keeps two
    terms of different classes with the same fields apart."""

    __slots__ = ()

    def __setattr__(self, name, value):
        frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        frozen_error(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self[0], self[1:]

    def _refused(self, other):
        raise TypeError(f"a credit term is not ordered and not a tuple operand: {self!r}")

    __lt__ = __le__ = __gt__ = __ge__ = _refused
    __add__ = __radd__ = __mul__ = __rmul__ = _refused


def _term(cls):
    """`cls` rebuilt as a slotted `_Term` over its annotated fields, which it
    takes positionally or by keyword and gives back as read-only attributes."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    arity = len(names)
    new = tuple.__new__

    def __new__(term, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = (*args, *(kwargs.pop(name) for name in names[len(args):] if name in kwargs))
            if kwargs or len(args) != arity:
                raise TypeError(f"{term.__name__}() takes the fields {names}")
        return new(term, (term, *args))

    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    body.update({name: property(itemgetter(i)) for i, name in enumerate(names, 1)})
    body.update(__slots__=(), __new__=__new__, __match_args__=names)
    return type(cls.__name__, cls.__bases__, body)


# ---------------------------------------------------------------------------
# argument expressions (what runtime functions are applied to)
# ---------------------------------------------------------------------------

class ArgExpr(_Term):
    __slots__ = ()


@_term
class VarE(ArgExpr):
    name: str

    def __repr__(self):
        return self.name


@_term
class ConstE(ArgExpr):
    value: int

    def __repr__(self):
        return str(self.value)


@_term
class AddE(ArgExpr):
    left: ArgExpr
    right: ArgExpr

    def __repr__(self):
        return f"({self.left} + {self.right})"


@_term
class SubE(ArgExpr):
    left: ArgExpr
    right: ArgExpr

    def __repr__(self):
        return f"({self.left} - {self.right})"


@_term
class MulE(ArgExpr):
    factor: int
    inner: ArgExpr

    def __repr__(self):
        return f"{self.factor}*{self.inner}"


@_term
class FloorDivE(ArgExpr):
    inner: ArgExpr
    divisor: int

    def __repr__(self):
        return f"({self.inner} div {self.divisor})"


@_term
class CeilDivE(ArgExpr):
    inner: ArgExpr
    divisor: int

    def __repr__(self):
        return f"ceil({self.inner}/{self.divisor})"


def _arg_fn(e: ArgExpr) -> Callable[[Mapping[str, int]], int]:
    """The value of e as a function of the environment, resolved once, so
    that evaluating it again walks no expression."""
    if isinstance(e, VarE):
        return itemgetter(e.name)
    if isinstance(e, ConstE):
        return lambda env, value=e.value: value
    if isinstance(e, MulE):
        return lambda env, k=e.factor, inner=_arg_fn(e.inner): k * inner(env)
    if isinstance(e, FloorDivE):
        return lambda env, d=e.divisor, inner=_arg_fn(e.inner): inner(env) // d
    if isinstance(e, CeilDivE):
        return lambda env, d=e.divisor, inner=_arg_fn(e.inner): -(-inner(env) // d)
    if not isinstance(e, (AddE, SubE)):
        raise TypeError(f"unknown argument expression {e!r}")
    left, right = _arg_fn(e.left), _arg_fn(e.right)
    if isinstance(e, AddE):
        return lambda env: left(env) + right(env)

    def sub(env):
        value = left(env) - right(env)
        if value < 0:
            raise ValueError(f"argument {e!r} evaluates below zero")
        return value

    return sub


def _period(e: ArgExpr, above: int = 1) -> int:
    """The lcm over the n in e of the product of the divisors above each."""
    if isinstance(e, VarE):
        return above
    if isinstance(e, ConstE):
        return 1
    if isinstance(e, (FloorDivE, CeilDivE)):
        if e.divisor < 1:
            raise NormalizationError(f"{e!r} divides by a nonpositive constant")
        return _period(e.inner, above * e.divisor)
    if isinstance(e, MulE):
        return _period(e.inner, above)
    if not isinstance(e, (AddE, SubE)):
        raise TypeError(f"unknown argument expression {e!r}")
    return lcm(_period(e.left, above), _period(e.right, above))


def _on_classes(
    e: ArgExpr, period: int, residues: tuple[int, ...], differences: list
) -> tuple[int, list[int]]:
    """(a, bs) with e = a*k + bs[i] at every n = period*k + residues[i],
    exactly: each divisor divides the slope of what it divides.  The slope
    does not depend on the residue, so one walk serves every class.  The
    (a, bs) of every difference in e is appended to `differences`."""
    if isinstance(e, VarE):
        if e.name != "n":
            raise NormalizationError(f"{e!r} is not the size variable n")
        return period, list(residues)
    if isinstance(e, ConstE):
        return 0, [e.value] * len(residues)
    if isinstance(e, MulE):
        a, bs = _on_classes(e.inner, period, residues, differences)
        return e.factor * a, [e.factor * b for b in bs]
    if isinstance(e, FloorDivE):
        a, bs = _on_classes(e.inner, period, residues, differences)
        return a // e.divisor, [b // e.divisor for b in bs]
    if isinstance(e, CeilDivE):
        a, bs = _on_classes(e.inner, period, residues, differences)
        return a // e.divisor, [-(-b // e.divisor) for b in bs]
    a1, bs1 = _on_classes(e.left, period, residues, differences)
    a2, bs2 = _on_classes(e.right, period, residues, differences)
    if isinstance(e, AddE):
        return a1 + a2, [b1 + b2 for b1, b2 in zip(bs1, bs2)]
    differences.append((a1 - a2, [b1 - b2 for b1, b2 in zip(bs1, bs2)]))
    return differences[-1]


def holds_for_all_n(lhs: ArgExpr, rhs: ArgExpr, lo: int = 0) -> bool:
    """Whether lhs <= rhs, with every difference on either side at least 0,
    at every natural n >= lo.  The expressions are over n, naturals, +, -,
    natural scaling and div or ceil-div by positive constants.

    On each residue class n = L*k + r, with L the lcm over both sides of
    the product of the divisors above each n, every subexpression is
    exactly linear in k (Cooper's splitting of floor terms), so each of
    these conditions holds on the class iff it holds at the least k with
    n >= lo and its slope is not negative.
    """
    fact = SubE(rhs, lhs)  # lhs <= rhs is rhs - lhs >= 0
    period = _period(fact)
    differences: list = []
    _on_classes(fact, period, tuple(range(period)), differences)
    least_k = [max(0, -(-(lo - r) // period)) for r in range(period)]
    return all(
        a >= 0 and all(a * k + b >= 0 for k, b in zip(least_k, bs)) for a, bs in differences
    )


def slope_in_n(e: ArgExpr) -> Fraction:
    """The exact slope of e in n: e = a*k + b on each residue class
    n = L*k + r, so the slope is a / L."""
    period = _period(e)
    return Fraction(_on_classes(e, period, (0,), [])[0], period)


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

class TimeAtom(_Term):
    __slots__ = ()


@_term
class UnitAtom(TimeAtom):
    """The constant term 1."""

    def __repr__(self):
        return "1"


@_term
class VarAtom(TimeAtom):
    name: str

    def __repr__(self):
        return self.name


@_term
class ExprAtom(TimeAtom):
    """A div/ceil/floor linear form used directly as a term (e.g. n div 2)."""

    expr: ArgExpr

    def __repr__(self):
        return repr(self.expr)


@_term
class CallAtom(TimeAtom):
    fn: str
    args: tuple[ArgExpr, ...]

    def __repr__(self):
        return f"{self.fn}({', '.join(map(repr, self.args))})"


UNIT = UnitAtom()


class Assignment:
    """Values for variables plus implementations for named runtime functions."""

    def __init__(self, env: Mapping[str, int], funcs: Mapping[str, Callable] = ()):
        self.env = dict(env)
        self.funcs = dict(funcs) if funcs else {}


# ---------------------------------------------------------------------------
# time expressions in normal form
# ---------------------------------------------------------------------------

class NormalizationError(ValueError):
    """Raised for expressions outside the sum-of-scaled-atoms fragment."""


def _atom_key(atom: TimeAtom):
    # canonical display order: named calls, then variables/expressions, then 1
    if isinstance(atom, CallAtom):
        return (0, repr(atom))
    if isinstance(atom, (VarAtom, ExprAtom)):
        return (1, repr(atom))
    return (2, "")


class PolyForm:
    """Time expression in normal form: a finite map atom -> natural
    coefficient.  Sums with naturals or other PolyForms and scaling by a
    natural stay in the form, so every expression is built normalized."""

    __slots__ = ("coeffs", "_terms")

    def __init__(self, coeffs: Mapping[TimeAtom, int] = ()):
        # a dict copy keeps the stored hashes
        self.coeffs: dict[TimeAtom, int] = dict(coeffs)
        if 0 in self.coeffs.values():
            for atom in [a for a, c in self.coeffs.items() if c == 0]:
                del self.coeffs[atom]
        self._terms = None  # the atoms' evaluators, resolved on the first eval

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"PolyForm({self.render()})"

    def __add__(self, other) -> "PolyForm":
        other = normalize(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return PolyForm(out)

    add = __radd__ = __add__

    def __rmul__(self, k: int) -> "PolyForm":
        if not isinstance(k, int) or k < 0:
            raise NormalizationError("coefficients must be naturals")
        return PolyForm({a: k * c for a, c in self.coeffs.items()})

    def items_canonical(self) -> list[tuple[TimeAtom, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: _atom_key(kv[0]))

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for atom, coeff in self.items_canonical():
            if isinstance(atom, UnitAtom):
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(repr(atom))
            else:
                parts.append(f"{coeff}*{atom!r}")
        return " + ".join(parts)

    def eval(self, assignment: Assignment) -> int:
        if self._terms is None:
            self._terms = _resolve(self.coeffs)
        total, plain, calls = self._terms
        env, funcs = assignment.env, assignment.funcs
        for c, value in plain:
            total += c * value(env)
        for c, fn, args in calls:
            if len(args) == 1:
                total += c * funcs[fn](args[0](env))
            else:
                total += c * funcs[fn](*[arg(env) for arg in args])
        return total


def _resolve(coeffs: Mapping[TimeAtom, int]) -> tuple:
    """A form's atoms with their evaluators, resolved once: the constant,
    (coefficient, value of the environment) pairs for variables and
    expressions, and (coefficient, name, argument values) for calls."""
    const, plain, calls = 0, [], []
    for atom, c in coeffs.items():
        if isinstance(atom, UnitAtom):
            const += c
        elif isinstance(atom, VarAtom):
            plain.append((c, itemgetter(atom.name)))
        elif isinstance(atom, ExprAtom):
            plain.append((c, _arg_fn(atom.expr)))
        elif isinstance(atom, CallAtom):
            calls.append((c, atom.fn, tuple(map(_arg_fn, atom.args))))
        else:
            raise TypeError(f"unknown atom {atom!r}")
    return const, tuple(plain), tuple(calls)


def normalize(expr: Union[PolyForm, int]) -> PolyForm:
    """The normal form of a time expression: a PolyForm as it is, a natural
    as a constant."""
    if isinstance(expr, PolyForm):
        return expr
    if isinstance(expr, int):
        if expr < 0:
            raise NormalizationError("subtraction is outside the fragment")
        return PolyForm({UNIT: expr})
    raise NormalizationError(f"cannot use {expr!r} in a time expression")


def t_lit(n: int) -> PolyForm:
    return normalize(n)


def t_var(name: str) -> PolyForm:
    return PolyForm({VarAtom(name): 1})


def t_poly(coeffs: Mapping[int, int], var: str) -> PolyForm:
    """c0 + c1*var from {0: c0, 1: c1}; higher powers are outside the fragment."""
    if any(p > 1 for p, c in coeffs.items() if c):
        raise NormalizationError(f"a power of {var} above 1 is outside the fragment")
    return sum((c * (t_var(var) if p else t_lit(1)) for p, c in coeffs.items()), t_lit(0))


def t_expr(e: ArgExpr) -> PolyForm:
    return PolyForm({ExprAtom(e): 1})


def t_call(fn: str, *args: ArgExpr) -> PolyForm:
    return PolyForm({CallAtom(fn, tuple(args)): 1})


# ---------------------------------------------------------------------------
# matching and hints
# ---------------------------------------------------------------------------

class MatchFailure(Exception):
    def __init__(self, term: TimeAtom, coeff: int, candidates: list):
        self.term = term
        self.coeff = coeff
        self.candidates = candidates
        shown = ", ".join(f"{c}*{a!r}" for a, c in candidates) or "nothing left"
        super().__init__(f"no match for {coeff}*{term!r}; remainder holds {shown}")


def subtract_match(total: PolyForm, demand: PolyForm) -> PolyForm:
    """Decide total = demand + remainder; returns the remainder.

    Demand terms are taken in canonical order; each subtracts its
    coefficient from the same atom in the running remainder, which must
    hold at least as much.
    """
    remainder = dict(total.coeffs)
    for atom, want in demand.items_canonical():
        if remainder.get(atom, 0) < want:
            # PolyForm drops the atoms already used up
            raise MatchFailure(atom, want, PolyForm(remainder).items_canonical())
        remainder[atom] -= want
    return PolyForm(remainder)


class HintUnprovable(Exception):
    pass


class HintAbsent(Exception):
    pass


@record
class Hint:
    """Replace the term `s` by the certified-smaller `t` in a credit budget.

    `justification` must return True to certify s >= t for the instance at
    hand.  `apply_hint` consults it on every application, before the
    rewrite; a discharge consults it only after the rewritten budget has
    matched its demand, so a hint on a failing match is never justified.
    """

    s: TimeAtom
    t: PolyForm
    justification: Callable[[], bool]
    note: str = ""


def justify_hint(hint: Hint) -> None:
    """Raise HintUnprovable unless the hint's justification holds."""
    if not hint.justification():
        raise HintUnprovable(f"could not certify {hint.s!r} >= {hint.t.render()}")


def rewrite_hint(total: PolyForm, hint: Hint) -> PolyForm:
    """Replace one occurrence of `hint.s` in `total` by `hint.t`, without
    consulting the justification; raise HintAbsent if `s` does not occur."""
    if total.coeffs.get(hint.s, 0) < 1:
        raise HintAbsent(f"{hint.s!r} does not occur in {total.render()}")
    out = dict(total.coeffs)
    out[hint.s] -= 1
    if out[hint.s] == 0:
        del out[hint.s]
    return PolyForm(out) + hint.t


def apply_hint(total: PolyForm, hint: Hint) -> PolyForm:
    """Justify the hint, then rewrite `total` with it."""
    justify_hint(hint)
    return rewrite_hint(total, hint)

