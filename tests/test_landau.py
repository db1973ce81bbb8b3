import math
import random
from fractions import Fraction

import pytest

from timecredits.credits import (
    AddE,
    CeilDivE,
    ConstE,
    FloorDivE,
    MulE,
    SubE,
    VarE,
    t_call,
    t_expr,
    t_lit,
    t_var,
)
from timecredits.landau import (
    CONSTANT,
    BoundRegistry,
    IncomparableError,
    NonLinearArgument,
    PolyLog,
    PolyLog2,
    Rel,
    SumClass2,
    ThetaWitness,
    UnknownFunction,
    analyze_form,
    arg_slope,
    calibrate_witness,
    check_theta_witness,
    compose_linear,
    geometric_samples,
    grid_samples,
    o_subset,
    o_subset2,
    sum_class2,
    sum_theta,
    sum_theta2,
)

N = VarE("n")


def test_subset_basic():
    assert o_subset(PolyLog(1, 0), PolyLog(1, 1))  # n in O(n ln n)
    assert not o_subset(PolyLog(2, 0), PolyLog(1, 5))
    assert o_subset(CONSTANT, PolyLog(0, 1))


def test_subset_agrees_with_numeric_domination():
    rng = random.Random(3)
    ns = [2 ** k for k in range(4, 41, 4)]
    for _ in range(200):
        g1 = PolyLog(rng.randrange(0, 4), rng.randrange(0, 4))
        g2 = PolyLog(rng.randrange(0, 4), rng.randrange(0, 4))
        sub = o_subset(g1, g2)
        ratios = [g1.value(n) / g2.value(n) for n in ns]
        if sub:
            # bounded: the last ratio cannot dwarf the first
            assert ratios[-1] <= max(ratios[0], 1.0) * 1.001
        else:
            assert ratios[-1] > ratios[0]
        if not sub and not o_subset(g2, g1):
            pytest.fail("single-variable classes are totally ordered")


def test_subset2_incomparable_pair():
    m2n = PolyLog2(2, 0, 1, 0)
    mn2 = PolyLog2(1, 0, 2, 0)
    assert o_subset2(m2n, mn2) is Rel.INCOMPARABLE
    assert o_subset2(m2n, m2n) is Rel.EQUAL
    assert o_subset2(PolyLog2(1, 0, 0, 0), m2n) is Rel.SUBSET
    assert o_subset2(m2n, PolyLog2(1, 0, 0, 0)) is Rel.SUPERSET


def test_sum_theta_absorption():
    got = sum_theta([PolyLog(1, 0), PolyLog(1, 1), CONSTANT])
    assert got == PolyLog(1, 1)


def test_sum_theta_brackets_pointwise_sum():
    classes = [PolyLog(1, 0), PolyLog(1, 1), CONSTANT]
    dominant = sum_theta(classes)
    for n in geometric_samples(2 ** 4, 2 ** 24):
        total = sum(g.value(n) for g in classes)
        assert dominant.value(n) <= total <= len(classes) * dominant.value(n)


def test_sum_theta2_absorption_and_witness():
    mn = PolyLog2(1, 0, 1, 0)
    got = sum_theta2([mn, PolyLog2(1, 0, 0, 0), PolyLog2(0, 0, 1, 0)])
    assert got == mn
    # numeric cross-check on a grid: the sum is within constant factor of mn
    grid = grid_samples(2 ** 4, 2 ** 12)
    for m, n in grid:
        total = mn.value(m, n) + m + n
        assert mn.value(m, n) <= total <= 3 * mn.value(m, n)


def test_sum_theta2_incomparable_error():
    with pytest.raises(IncomparableError) as err:
        sum_theta2([PolyLog2(2, 0, 1, 0), PolyLog2(1, 0, 2, 0)])
    assert set(err.value.pair) == {PolyLog2(2, 0, 1, 0), PolyLog2(1, 0, 2, 0)}


def test_sum_theta2_later_dominator_wins():
    got = sum_theta2(
        [PolyLog2(2, 0, 1, 0), PolyLog2(1, 0, 2, 0), PolyLog2(2, 0, 2, 0)]
    )
    assert got == PolyLog2(2, 0, 2, 0)


def test_compose_linear_keeps_class():
    assert compose_linear(PolyLog(0, 1), MulE(2, N)) == PolyLog(0, 1)
    assert compose_linear(PolyLog(1, 0), AddE(N, ConstE(1))) == PolyLog(1, 0)
    assert compose_linear(PolyLog(1, 0), FloorDivE(N, 3)) == PolyLog(1, 0)


def test_compose_rejects_non_linear():
    with pytest.raises(NonLinearArgument):
        compose_linear(PolyLog(1, 0), lambda n: 2 ** n)
    with pytest.raises(NonLinearArgument):
        compose_linear(PolyLog(1, 0), MulE(0, N))


def test_arg_slope_is_exact():
    assert arg_slope(CeilDivE(MulE(7, N), 10)) == Fraction(7, 10)
    assert arg_slope(SubE(SubE(N, FloorDivE(N, 2)), ConstE(1))) == Fraction(1, 2)
    assert arg_slope(SubE(MulE(2, CeilDivE(N, 2)), ConstE(1))) == 1
    assert arg_slope(ConstE(5)) == 0


@pytest.mark.parametrize("arg", [
    SubE(ConstE(5), N), ConstE(3), SubE(N, N), FloorDivE(N, 0), MulE(-1, N),
    VarE("m"), AddE(N, VarE("m")),
])
def test_arguments_of_slope_at_most_zero_are_refused(arg):
    """An argument must grow linearly in the size variable n: a slope at
    most zero, a division by zero or a second variable is refused."""
    reg = _example_registry()
    with pytest.raises(NonLinearArgument):
        analyze_form(t_call("f1", arg), reg)
    with pytest.raises(NonLinearArgument):
        analyze_form(t_expr(arg), reg)


def test_a_variable_other_than_n_is_refused():
    with pytest.raises(NonLinearArgument):
        analyze_form(t_var("m") + t_var("n"), _example_registry())


def _example_registry():
    reg = BoundRegistry()
    reg.register("f1", PolyLog(1, 0))
    reg.register("f2", PolyLog(0, 1))
    reg.register("f3", PolyLog2(1, 0, 1, 0))
    reg.register("f4", sum_class2([PolyLog2(1, 0, 0, 0), PolyLog2(0, 0, 1, 0)]))
    reg.register("f5", PolyLog(1, 1))
    return reg


def test_analyze_single_variable_example():
    reg = _example_registry()
    form = (
        t_call("f1", AddE(N, ConstE(1)))
        + t_call("f5", MulE(2, N))
        + 3 * t_call("f5", FloorDivE(N, 3))
        + t_call("f2", N)
    )
    assert analyze_form(form, reg) == PolyLog(1, 1)
    assert analyze_form(t_lit(3), reg) == CONSTANT
    assert analyze_form(t_var("n") + t_call("f2", N), reg) == PolyLog(1, 0)


def test_analyze_permutation_invariant():
    reg = _example_registry()
    terms = [
        t_call("f1", AddE(N, ConstE(1))),
        t_call("f5", MulE(2, N)),
        t_expr(CeilDivE(N, 2)),
        t_var("n"),
        t_lit(1),
    ]
    rng = random.Random(8)
    expected = analyze_form(sum(terms, t_lit(0)), reg)
    assert expected == PolyLog(1, 1)
    for _ in range(10):
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert analyze_form(sum(shuffled, t_lit(0)), reg) == expected


def test_analyze_unknown_function():
    reg = _example_registry()
    with pytest.raises(UnknownFunction):
        analyze_form(t_call("mystery", N), reg)
    # a two-variable entry has no class in one variable
    with pytest.raises(UnknownFunction):
        analyze_form(t_call("f3", N), reg)


def test_registry_referential_transparency():
    reg1 = _example_registry()
    reg2 = _example_registry()
    form = t_call("f1", N) + t_call("f2", N)
    assert analyze_form(form, reg1) == analyze_form(form, reg2)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _nlogn(n):
    return 4 * n * math.log(n) + 7 * n


def test_witness_calibrate_then_verify():
    g = PolyLog(1, 1)
    train = geometric_samples(2 ** 8, 2 ** 12)
    verify = geometric_samples(2 ** 13, 2 ** 20)
    w = calibrate_witness(_nlogn, g, train)
    assert check_theta_witness(_nlogn, g, w, verify).passed


def test_witness_wrong_class_fails():
    g = PolyLog(1, 0)  # claims linear for an n^2 function
    train = geometric_samples(2 ** 4, 2 ** 10)
    w = calibrate_witness(lambda n: n * n, g, train)
    report = check_theta_witness(lambda n: n * n, g, w, geometric_samples(2 ** 11, 2 ** 20))
    assert not report.passed
    assert report.violation[2] == "upper"
    assert "violated" in report.describe()


def test_witness_two_variable_grid():
    g = PolyLog2(1, 0, 1, 0)

    def f(n, w):
        return 3 * n * w + 2 * n + w + 5

    train = grid_samples(2 ** 4, 2 ** 8)
    verify = grid_samples(2 ** 8, 2 ** 12)
    wit = calibrate_witness(f, g, train)
    assert check_theta_witness(f, g, wit, verify).passed


def test_witness_rejects_samples_below_threshold():
    w = ThetaWitness.__new__(ThetaWitness)
    object.__setattr__(w, "c_lower", 1)
    object.__setattr__(w, "c_upper", 1)
    object.__setattr__(w, "threshold", 16)
    with pytest.raises(ValueError):
        check_theta_witness(lambda n: n, PolyLog(1, 0), w, [8])


def test_calibration_needs_threshold_two():
    with pytest.raises(ValueError):
        calibrate_witness(lambda n: n, PolyLog(1, 0), [1, 2, 4])


def test_sum_class_normalization():
    got = sum_class2([PolyLog2(1, 0, 0, 0), PolyLog2(1, 0, 0, 0), PolyLog2(0, 0, 1, 0)])
    assert isinstance(got, SumClass2)
    assert len(got.members) == 2
    solo = sum_class2([PolyLog2(1, 0, 1, 0), PolyLog2(1, 0, 0, 0)])
    assert solo == PolyLog2(1, 0, 1, 0)
