import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecredits.credits import (
    UNIT,
    AddE,
    Assignment,
    CallAtom,
    CeilDivE,
    ConstE,
    ExprAtom,
    FloorDivE,
    Hint,
    HintAbsent,
    HintUnprovable,
    MatchFailure,
    MulE,
    NormalizationError,
    PolyForm,
    SubE,
    VarAtom,
    VarE,
    _period,
    apply_hint,
    holds_for_all_n,
    normalize,
    subtract_match,
    t_call,
    t_expr,
    t_lit,
    t_var,
)

from oracles import eval_arg

N = VarE("n")
M = VarE("m")


def merge_sort_rhs():
    half = FloorDivE(N, 2)
    rest = SubE(N, half)
    return (
        t_lit(2)
        + t_call("atake_time", N)
        + t_call("adrop_time", N)
        + t_call("merge_sort_time", half)
        + t_call("merge_sort_time", rest)
        + t_call("mergeinto_time", N)
    )


def test_normalize_merge_sort_shape():
    pf = normalize(merge_sort_rhs())
    assert pf.coeffs[UNIT] == 2
    call_atoms = [a for a in pf.coeffs if isinstance(a, CallAtom)]
    assert len(call_atoms) == 5
    assert all(pf.coeffs[a] == 1 for a in call_atoms)


def test_normalize_collects_like_terms():
    pf = normalize(3 * t_var("n") + t_var("n") + t_lit(1))
    assert pf.coeffs == {VarAtom("n"): 4, UNIT: 1}


def test_canonical_rendering():
    pf = normalize(
        t_lit(2) + 4 * t_var("n") + t_call("f", N) + t_expr(FloorDivE(N, 2))
    )
    assert pf.render() == "f(n) + (n div 2) + 4*n + 2"
    assert normalize(t_lit(0)).render() == "0"


def test_normalize_rejects_negative():
    with pytest.raises(NormalizationError):
        normalize(t_var("n") + (-1))
    with pytest.raises(NormalizationError):
        (-2) * t_var("n")


def _random_expr(rng: random.Random):
    terms = []
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(4)
        coeff = rng.randrange(0, 5)
        if kind == 0:
            terms.append(coeff * t_lit(rng.randrange(1, 4)))
        elif kind == 1:
            terms.append(coeff * t_var(rng.choice("nmk")))
        elif kind == 2:
            terms.append(coeff * t_expr(FloorDivE(VarE(rng.choice("nm")), rng.randrange(2, 5))))
        else:
            terms.append(coeff * t_call(rng.choice(["f", "g"]), VarE(rng.choice("nm"))))
    expr = terms[0]
    for t in terms[1:]:
        expr = expr + t
    return expr


def _poly_to_expr(pf: PolyForm):
    expr = t_lit(0)
    for atom, coeff in pf.items_canonical():
        if isinstance(atom, VarAtom):
            expr = expr + coeff * t_var(atom.name)
        elif isinstance(atom, CallAtom):
            expr = expr + coeff * t_call(atom.fn, *atom.args)
        elif isinstance(atom, ExprAtom):
            expr = expr + coeff * t_expr(atom.expr)
        else:
            expr = expr + t_lit(coeff)
    return expr


def test_normalize_idempotent_on_random_exprs():
    rng = random.Random(5)
    for _ in range(500):
        pf = normalize(_random_expr(rng))
        assert normalize(_poly_to_expr(pf)) == pf


def _random_assignment(rng: random.Random) -> Assignment:
    env = {v: rng.randrange(0, 50) for v in "nmk"}
    funcs = {
        "f": lambda x: 3 * x + 1,
        "g": lambda x: x * x,
        "atake_time": lambda x: x // 2 + 1,
        "adrop_time": lambda x: (x - x // 2) + 1,
        "merge_sort_time": lambda x: 4 * x + 2,
        "mergeinto_time": lambda x: 3 * x,
    }
    return Assignment(env, funcs)


def test_eval_homomorphism():
    rng = random.Random(17)
    for _ in range(200):
        e = _random_expr(rng)
        pf = normalize(e)
        sigma = _random_assignment(rng)
        direct = pf.eval(sigma)
        # summing atom-by-atom must agree with evaluating term-by-term
        pieces = sum(c * PolyForm({a: 1}).eval(sigma) for a, c in pf.coeffs.items())
        assert direct == pieces


def test_subtract_match_merge_sort_example():
    total = normalize(merge_sort_rhs())
    part = normalize(t_lit(1) + t_call("atake_time", N))
    remainder = subtract_match(total, part)
    assert remainder.coeffs[UNIT] == 1
    names = sorted(a.fn for a in remainder.coeffs if isinstance(a, CallAtom))
    assert names == ["adrop_time", "merge_sort_time", "merge_sort_time", "mergeinto_time"] or (
        names == ["adrop_time", "merge_sort_time", "mergeinto_time"]
        and remainder.coeffs[CallAtom("merge_sort_time", (FloorDivE(N, 2),))] == 1
    )


def test_subtract_match_coefficient_overflow():
    total = normalize(3 * t_var("n"))
    part = normalize(4 * t_var("n"))
    with pytest.raises(MatchFailure) as err:
        subtract_match(total, part)
    assert err.value.coeff == 4


def test_subtract_match_soundness_random():
    """Whenever a match succeeds, eval(total) = eval(demand) + eval(remainder)."""
    rng = random.Random(100)
    checked = 0
    while checked < 1000:
        base = normalize(_random_expr(rng))
        if not base.coeffs:
            continue
        # carve a demand out of the total so matching can succeed
        demand = {}
        for atom, coeff in base.coeffs.items():
            take = rng.randrange(0, coeff + 1)
            if take:
                demand[atom] = take
        demand_pf = PolyForm(demand)
        remainder = subtract_match(base, demand_pf)
        sigma = _random_assignment(rng)
        assert base.eval(sigma) == demand_pf.eval(sigma) + remainder.eval(sigma)
        checked += 1


def select_time_stub(x: int) -> int:
    return 10 * x + 7  # monotone stand-in


def test_apply_hint_replaces_term():
    atom14 = CallAtom("select_time", (ConstE(14),))
    total = normalize(t_call("select_time", ConstE(14)) + t_lit(3))
    hint = Hint(
        s=atom14,
        t=normalize(t_call("select_time", ConstE(13))),
        justification=lambda: select_time_stub(14) >= select_time_stub(13),
    )
    out = apply_hint(total, hint)
    assert CallAtom("select_time", (ConstE(13),)) in out.coeffs
    assert atom14 not in out.coeffs
    sigma = Assignment({}, {"select_time": select_time_stub})
    assert out.eval(sigma) <= total.eval(sigma)


def test_apply_hint_absent():
    total = normalize(t_lit(2))
    hint = Hint(
        s=CallAtom("select_time", (ConstE(14),)),
        t=normalize(t_lit(1)),
        justification=lambda: True,
    )
    with pytest.raises(HintAbsent):
        apply_hint(total, hint)


def test_apply_hint_unprovable():
    atom = CallAtom("select_time", (ConstE(10),))
    total = PolyForm({atom: 1})
    hint = Hint(
        s=atom,
        t=normalize(t_call("select_time", ConstE(12))),
        justification=lambda: select_time_stub(10) >= select_time_stub(12),
    )
    with pytest.raises(HintUnprovable):
        apply_hint(total, hint)


def test_apply_reflexive_hint_leaves_the_total():
    atom = CallAtom("f", (N,))
    total = PolyForm({atom: 2, UNIT: 1})
    hint = Hint(s=atom, t=PolyForm({atom: 1}), justification=lambda: True)
    out = apply_hint(total, hint)
    assert out.coeffs == total.coeffs


_ARG_EXPRS = st.recursive(
    st.one_of(st.just(N), st.integers(0, 3).map(ConstE)),
    lambda inner: st.one_of(
        st.builds(AddE, inner, inner),
        st.builds(SubE, inner, inner),
        st.builds(MulE, st.integers(0, 3), inner),
        st.builds(FloorDivE, inner, st.integers(1, 4)),
        st.builds(CeilDivE, inner, st.integers(1, 4)),
    ),
    max_leaves=5,
)


def _holds_directly(lhs, rhs, lo, hi):
    """lhs <= rhs, both defined, at every n in [lo, hi]."""
    try:
        return all(eval_arg(lhs, {"n": n}) <= eval_arg(rhs, {"n": n}) for n in range(lo, hi + 1))
    except ValueError:  # a difference went below zero
        return False


NESTED = CeilDivE(CeilDivE(N, 2), 2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_ARG_EXPRS, _ARG_EXPRS, st.integers(0, 12))
@example(NESTED, CeilDivE(N, 4), 0)  # equal: ceil(ceil(n/2)/2) = ceil(n/4)
@example(NESTED, FloorDivE(N, 4), 0)  # needs period 4, not lcm(2, 2)
@example(SubE(SubE(N, FloorDivE(N, 2)), ConstE(1)), FloorDivE(N, 2), 0)  # undefined at 0
@example(SubE(SubE(N, FloorDivE(N, 2)), ConstE(1)), FloorDivE(N, 2), 1)
@example(CeilDivE(MulE(7, AddE(N, ConstE(1))), 10), N, 3)
def test_holds_for_all_n_agrees_with_direct_evaluation(lhs, rhs, lo):
    period = _period(SubE(rhs, lhs))
    assert holds_for_all_n(lhs, rhs, lo) == _holds_directly(lhs, rhs, lo, 4 * period + 200)


def test_holds_for_all_n_splits_nested_divisions_by_their_product():
    assert _period(NESTED) == 4
    assert holds_for_all_n(NESTED, CeilDivE(N, 4)) and holds_for_all_n(CeilDivE(N, 4), NESTED)
    assert not holds_for_all_n(NESTED, FloorDivE(N, 4))
    assert holds_for_all_n(FloorDivE(FloorDivE(N, 2), 3), FloorDivE(N, 6), 0)
    with pytest.raises(NormalizationError):
        holds_for_all_n(M, N)


def test_eval_arg_floor_ceil():
    env = {"n": 7}
    assert eval_arg(FloorDivE(N, 2), env) == 3
    assert eval_arg(CeilDivE(N, 2), env) == 4
    assert eval_arg(MulE(3, N), env) == 21
    assert eval_arg(CeilDivE(MulE(7, N), 10), env) == 5


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.dictionaries(
        st.sampled_from([VarAtom("n"), VarAtom("m"), UNIT, CallAtom("f", (N,))]),
        st.integers(min_value=1, max_value=9),
        max_size=4,
    ),
    st.dictionaries(
        st.sampled_from([VarAtom("n"), VarAtom("m"), UNIT, CallAtom("f", (N,))]),
        st.integers(min_value=1, max_value=9),
        max_size=4,
    ),
)
def test_match_then_recombine_property(lhs, rhs):
    """If total = a + b termwise, matching b out of total leaves exactly a."""
    total = PolyForm(lhs).add(PolyForm(rhs))
    remainder = subtract_match(total, PolyForm(rhs))
    assert remainder == PolyForm(lhs)


# ExprAtom(n) renders as "n" too, so it ties with VarAtom("n") in canonical
# order and must still never match it
_MATCH_ATOMS = st.sampled_from([
    UNIT, VarAtom("n"), VarAtom("m"), ExprAtom(N), ExprAtom(FloorDivE(N, 2)),
    CallAtom("f", (N,)), CallAtom("f", (M,)), CallAtom("g", (N,)),
])
_MATCH_FORMS = st.dictionaries(_MATCH_ATOMS, st.integers(min_value=1, max_value=4), max_size=6)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_MATCH_FORMS, _MATCH_FORMS)
def test_subtract_match_is_atomwise_subtraction(total, demand):
    """A match succeeds exactly when no demand coefficient exceeds the
    total's for the same atom, and leaves the atomwise difference; a failure
    names the first short atom in canonical order, with the remainder once
    the demand atoms before it are subtracted."""
    total, demand = PolyForm(total), PolyForm(demand)
    order = demand.items_canonical()
    short = [i for i, (atom, want) in enumerate(order) if total.coeffs.get(atom, 0) < want]
    taken = dict(order[:short[0]] if short else order)
    left = {a: c - taken.get(a, 0) for a, c in total.coeffs.items()}
    if not short:
        assert subtract_match(total, demand).coeffs == {a: c for a, c in left.items() if c}
        return
    with pytest.raises(MatchFailure) as err:
        subtract_match(total, demand)
    assert (err.value.term, err.value.coeff) == order[short[0]]
    assert err.value.candidates == PolyForm(left).items_canonical()
