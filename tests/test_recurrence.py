import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecredits.landau import PolyLog, PolyLog2, RealPowerClass
from timecredits.recurrence import (
    BALANCED,
    BOTTOM_HEAVY,
    TOP_HEAVY,
    AkraBazziSpec,
    LinearRecSpec,
    MissingBase,
    RecTerm,
    RecurrenceError,
    RootOutOfRange,
    akra_bazzi_class,
    empirical_ratio_check,
    eval_linear,
    eval_recurrence,
    linear_rec_class,
    solve_exponent,
    spec_from_json,
)

from oracles import spec_to_json

HALF = Fraction(1, 2)


def karatsuba_spec(**kw):
    return AkraBazziSpec(
        x0=2,
        terms=(RecTerm(Fraction(2), HALF, "ceil"), RecTerm(Fraction(1), HALF, "floor")),
        g_class=PolyLog(1, 0),
        **kw,
    )


def merge_sort_spec(**kw):
    return AkraBazziSpec(
        x0=2,
        terms=(RecTerm(Fraction(1), HALF, "floor"), RecTerm(Fraction(1), HALF, "ceil")),
        g_class=PolyLog(1, 0),
        **kw,
    )


def select_spec(**kw):
    return AkraBazziSpec(
        x0=21,
        terms=(
            RecTerm(Fraction(1), Fraction(1, 5), "ceil"),
            RecTerm(Fraction(1), Fraction(7, 10), "ceil"),
        ),
        g_class=PolyLog(1, 0),
        **kw,
    )


def test_karatsuba_exponent_is_log2_3():
    p = solve_exponent(karatsuba_spec())
    assert abs(p - math.log2(3)) < 1e-6
    # analytic cross-check: 3 * (1/2)^p = 1
    assert abs(3 * 0.5 ** p - 1) < 1e-8


def test_merge_sort_exponent_is_one():
    assert abs(solve_exponent(merge_sort_spec()) - 1.0) < 1e-9


def test_select_exponent_bisection():
    spec = select_spec()
    p = solve_exponent(spec)
    assert 0.8397 <= p <= 0.8399
    # sanity: phi changes sign between 0.5 and 1
    phi = lambda q: 0.2 ** q + 0.7 ** q - 1
    assert phi(1) < 0 < phi(0.5)


def test_solver_residual_small():
    for spec in (karatsuba_spec(), merge_sort_spec(), select_spec()):
        p = solve_exponent(spec)
        residual = abs(sum(float(t.a) * float(t.b) ** p for t in spec.terms) - 1)
        assert residual <= 1e-9


def test_phi_strictly_decreasing():
    spec = select_spec()
    points = [-32 + i * 4 for i in range(17)]
    values = [sum(float(t.a) * float(t.b) ** p for t in spec.terms) for p in points]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_root_out_of_range():
    spec = AkraBazziSpec(
        x0=2,
        terms=(RecTerm(Fraction(1, 10**20), HALF, "ceil"),),
        g_class=PolyLog(1, 0),
    )
    with pytest.raises(RootOutOfRange):
        solve_exponent(spec)


def test_case_classification():
    ms = akra_bazzi_class(merge_sort_spec())
    assert ms.case == BALANCED
    assert ms.result_class == PolyLog(1, 1)

    ka = akra_bazzi_class(karatsuba_spec())
    assert ka.case == BOTTOM_HEAVY
    assert isinstance(ka.result_class, RealPowerClass)
    assert abs(ka.result_class.exponent - math.log2(3)) < 1e-6

    se = akra_bazzi_class(select_spec())
    assert se.case == TOP_HEAVY
    assert se.result_class == PolyLog(1, 0)


def test_balanced_with_logs():
    spec = AkraBazziSpec(
        x0=2,
        terms=(RecTerm(Fraction(2), HALF, "ceil"),),
        g_class=PolyLog(1, 1),
    )
    got = akra_bazzi_class(spec)
    assert got.case == BALANCED
    assert got.result_class == PolyLog(1, 2)


def test_rejects_misplaced_logs():
    spec = AkraBazziSpec(
        x0=2,
        terms=(RecTerm(Fraction(2), HALF, "ceil"),),  # p = 1
        g_class=PolyLog(2, 3),
    )
    with pytest.raises(RecurrenceError):
        akra_bazzi_class(spec)


def test_invalid_terms_rejected():
    with pytest.raises(RecurrenceError):
        RecTerm(Fraction(1), Fraction(1), "ceil")
    with pytest.raises(RecurrenceError):
        RecTerm(Fraction(-1), HALF, "ceil")
    with pytest.raises(RecurrenceError):
        AkraBazziSpec(x0=2, terms=(RecTerm(Fraction(0), HALF, "ceil"),), g_class=PolyLog(1, 0))


# ---------------------------------------------------------------------------
# concrete evaluation
# ---------------------------------------------------------------------------

def merge_sort_eval_spec():
    return merge_sort_spec(
        g_concrete=lambda n: 4 * n + 2,  # stand-in linear toll
        base={0: 2, 1: 2},
    )


def test_eval_base_cases():
    spec = merge_sort_eval_spec()
    assert eval_recurrence(spec, 0) == 2
    assert eval_recurrence(spec, 1) == 2


def test_eval_recursive_case():
    spec = merge_sort_eval_spec()
    assert eval_recurrence(spec, 2) == (4 * 2 + 2) + 2 + 2
    assert eval_recurrence(spec, 5) == (4 * 5 + 2) + eval_recurrence(spec, 2) + eval_recurrence(spec, 3)


def test_eval_missing_base():
    spec = merge_sort_spec(g_concrete=lambda n: n, base={0: 1})
    with pytest.raises(MissingBase):
        eval_recurrence(spec, 3)


def test_select_eval_monotone_prefix():
    spec = select_spec(
        g_concrete=lambda n: 12 * n + 40,
        base={n: 20 * n + 40 for n in range(21)},
    )
    values = [eval_recurrence(spec, n) for n in range(2000)]
    assert all(values[i] <= values[i + 1] for i in range(1999))
    assert all(v > 0 for v in values)


def test_eval_monotone_in_base_entries():
    rng = random.Random(2)
    for _ in range(40):
        base = {0: rng.randrange(1, 5), 1: rng.randrange(1, 5)}
        mk = lambda b: merge_sort_spec(g_concrete=lambda n: n + 1, base=dict(b))
        spec = mk(base)
        bigger = dict(base)
        bump = rng.choice([0, 1])
        bigger[bump] = base[bump] + rng.randrange(1, 4)
        spec_big = mk(bigger)
        for n in (2, 3, 7, 19, 64):
            assert eval_recurrence(spec_big, n) >= eval_recurrence(spec, n)


def test_rational_coefficients_stay_exact():
    spec = AkraBazziSpec(
        x0=2,
        terms=(RecTerm(Fraction(3, 2), HALF, "floor"),),
        g_class=PolyLog(1, 0),
        g_concrete=lambda n: n,
        base={0: 1, 1: 1},
    )
    v = eval_recurrence(spec, 9)
    assert v == Fraction(9) + Fraction(3, 2) * eval_recurrence(spec, 4)


# ---------------------------------------------------------------------------
# ratio checks
# ---------------------------------------------------------------------------

def test_ratio_check_merge_sort_against_n_log_n():
    spec = merge_sort_eval_spec()
    report = empirical_ratio_check(spec, PolyLog(1, 1), 2 ** 8, 2 ** 20)
    assert report.passed


def test_ratio_check_karatsuba_against_real_power():
    spec = karatsuba_spec(g_concrete=lambda n: 10 * n + 8, base={0: 1, 1: 4})
    result = akra_bazzi_class(spec)
    report = empirical_ratio_check(spec, result.result_class, 2 ** 8, 2 ** 18)
    assert report.passed


def test_ratio_check_wrong_class_fails():
    spec = merge_sort_eval_spec()
    report = empirical_ratio_check(spec, PolyLog(2, 0), 2 ** 8, 2 ** 20)
    assert not report.passed
    assert "fail" in report.render()


def test_ratio_check_neighboring_exponents_fail():
    spec = karatsuba_spec(g_concrete=lambda n: 10 * n + 8, base={0: 1, 1: 4})
    p = solve_exponent(spec)
    for delta in (-0.2, 0.2):
        report = empirical_ratio_check(spec, RealPowerClass(p + delta), 2 ** 8, 2 ** 18)
        assert not report.passed


def test_case_study_specs_reject_neighbor_classes():
    from timecredits.algorithms.karatsuba import karatsuba_recurrence
    from timecredits.algorithms.search import bsearch_recurrence
    from timecredits.algorithms.select import select_recurrence
    from timecredits.algorithms.sorting import merge_sort_recurrence

    cases = [
        (merge_sort_recurrence(), 2 ** 30),
        (karatsuba_recurrence(), 2 ** 24),
        (select_recurrence(), 2 ** 30),
        (bsearch_recurrence(), 2 ** 30),
    ]
    for spec, hi in cases:
        result = akra_bazzi_class(spec)
        assert empirical_ratio_check(spec, result.result_class, 2 ** 8, hi).passed
        exponent = (
            result.result_class.exponent
            if isinstance(result.result_class, RealPowerClass)
            else result.result_class.power
        )
        for delta in (-0.2, 0.2):
            neighbor = RealPowerClass(exponent + delta)
            assert not empirical_ratio_check(spec, neighbor, 2 ** 8, hi).passed, spec.name


# ---------------------------------------------------------------------------
# linear recurrences
# ---------------------------------------------------------------------------

def test_linear_rule_single_variable():
    assert linear_rec_class(LinearRecSpec(1, step={1: 1})) == PolyLog(2, 0)
    assert linear_rec_class(LinearRecSpec(1, step={0: 3})) == PolyLog(1, 0)
    assert linear_rec_class(LinearRecSpec(1, step={3: 2, 0: 1})) == PolyLog(4, 0)


def test_linear_rule_two_variables():
    assert linear_rec_class(LinearRecSpec(2, step={1: 1})) == PolyLog2(1, 0, 1, 0)
    with pytest.raises(RecurrenceError):
        linear_rec_class(LinearRecSpec(2, step={2: 1}))


def test_linear_step_oracle():
    """f(n+1) = f(n) + (3n + 5) steps: partial sums track the class the
    loop rule reads off the step, n^2."""
    total = 0
    checkpoints = {}
    for k in range(1, 2 ** 20 + 1):
        total += 3 * k + 5
        if k in (2 ** 10, 2 ** 16, 2 ** 20):
            checkpoints[k] = total
    cls = linear_rec_class(LinearRecSpec(1, step={1: 3, 0: 5}))
    assert cls == PolyLog(2, 0)
    ratios = [checkpoints[k] / cls.value(k) for k in checkpoints]
    assert max(ratios) / min(ratios) < 1.2


# ---------------------------------------------------------------------------
# json round trip
# ---------------------------------------------------------------------------

def test_spec_json_roundtrip():
    spec = select_spec()
    data = spec_to_json(spec)
    assert data["terms"][1]["b"] == "7/10"
    back = spec_from_json(data)
    assert back.terms == spec.terms
    assert back.x0 == spec.x0
    assert back.g_class == spec.g_class


def test_spec_json_with_poly_toll():
    data = {
        "x0": 2,
        "terms": [{"a": "1", "b": "1/2", "round": "floor"}, {"a": "1", "b": "1/2", "round": "ceil"}],
        "g_class": [1, 0],
        "g_poly": {"1": 4, "0": 2},
        "base": {"0": 2, "1": 2},
    }
    spec = spec_from_json(data)
    assert eval_recurrence(spec, 2) == 10 + 4


# ---------------------------------------------------------------------------
# loop specs evaluated in closed form
# ---------------------------------------------------------------------------

def _loop_sum(init, step, n):
    return init + sum(sum(c * i ** p for p, c in step.items()) for i in range(1, n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-9, 9), max_size=4),
    st.integers(1, 9),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(0, 300),
)
def test_eval_linear_equals_the_loop(lower, lead, init, final, n):
    step = dict(enumerate(lower))
    step[len(lower)] = lead
    spec = LinearRecSpec(1, init={0: init}, step=step, final=final)
    assert spec.g_class == PolyLog(len(lower), 0)
    assert linear_rec_class(spec) == PolyLog(len(lower) + 1, 0)
    assert eval_linear(spec, n) == _loop_sum(init, step, n) + final


def test_eval_linear_two_variables():
    spec = LinearRecSpec(2, init={1: 1, 0: 2}, step={1: 3, 0: 3}, final=1)
    assert linear_rec_class(spec) == PolyLog2(1, 0, 1, 0)
    for n, w in itertools.product(range(6), range(6)):
        assert eval_linear(spec, n, w) == (w + 2) + n * (3 * w + 3) + 1


def test_linear_spec_rejects_a_bad_step_or_init():
    with pytest.raises(RecurrenceError, match="leading coefficient"):
        LinearRecSpec(1, step={1: -1, 0: 5})
    with pytest.raises(RecurrenceError, match="leading coefficient"):
        LinearRecSpec(1, step={1: 0})
    with pytest.raises(RecurrenceError, match="init grows"):
        LinearRecSpec(2, init={2: 1}, step={1: 1})


def test_eval_recurrence_depth_is_not_bounded_by_the_stack():
    # b = 999/1000 takes thousands of levels from n to the base case
    spec = AkraBazziSpec(
        x0=1, terms=(RecTerm(Fraction(1), Fraction(999, 1000), "floor"),),
        g_class=PolyLog(0, 0), g_concrete=lambda n: 1, base={0: 1},
    )
    n, levels = 2 ** 16, 0
    while n:
        n, levels = n * 999 // 1000, levels + 1
    assert levels > 4000
    assert eval_recurrence(spec, 2 ** 16) == levels + 1


def test_eval_recurrence_rejects_a_term_that_does_not_shrink():
    spec = AkraBazziSpec(
        x0=1, terms=(RecTerm(Fraction(1), Fraction(999, 1000), "ceil"),),
        g_class=PolyLog(0, 0), g_concrete=lambda n: 1, base={0: 1},
    )
    with pytest.raises(RecurrenceError, match="to itself"):
        eval_recurrence(spec, 300)


@pytest.mark.parametrize("data", [
    [1, 2],
    {"x0": 2, "terms": None, "g_class": [0, 0]},
    {"x0": 2, "terms": "abc", "g_class": [0, 0]},
    {"x0": 2, "terms": [{"a": "1", "b": "1/2"}], "g_class": [0, 0], "base": None},
], ids=["top-level-list", "terms-null", "terms-string", "base-null"])
def test_spec_from_json_rejects_a_malformed_shape(data):
    with pytest.raises(RecurrenceError):
        spec_from_json(data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(1, 9), st.integers(2, 12)).filter(lambda t: t[0] < t[1]),
        min_size=1, max_size=3,
    ),
    st.integers(0, 3),
    st.sampled_from([0, 1, -1]),
)
def test_case_agrees_with_the_exact_sign_at_balance(bs, q, nudge):
    """The first term's a is chosen so that phi(q) = sum a_i b_i^q - 1 is
    exactly 0, or off it by 1e-12 of the first term, where the bisected p
    cannot tell q from p; the case follows the exact sign regardless."""
    b = [Fraction(num, den) for num, den in bs]
    rest = [Fraction(1, 4 * len(b))] * (len(b) - 1)
    share = 1 - sum(a * bi ** q for a, bi in zip(rest, b[1:]))
    first = share / b[0] ** q * (1 + Fraction(nudge, 10 ** 12))
    spec = AkraBazziSpec(
        x0=2,
        terms=tuple(RecTerm(a, bi, "floor") for a, bi in zip([first] + rest, b)),
        g_class=PolyLog(q, 0),
    )
    expected = {0: BALANCED, 1: BOTTOM_HEAVY, -1: TOP_HEAVY}[nudge]
    assert akra_bazzi_class(spec).case == expected
