from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from behametric.coalgebra import parse_rational_or_inf
from behametric.fixpoint import DistanceMatrix, matrix_to_csv
from behametric.functors import PseudometricTable
from behametric.values import (
    EXACT,
    INF,
    ConfigurationError,
    NumericMode,
    TOP_INF,
    TOP_ONE,
    ZERO,
    TopBound,
    Value,
    add_ext,
    dist_e,
    format_magnitude,
    pth_power,
    pth_root,
    scale,
    top,
)


def v1(q):
    return Value(F(q))


def vi(q):
    return Value(INF if q == "inf" else F(q))


class TestDistE:
    def test_finite(self):
        assert dist_e(v1("3/10"), v1("7/10")) == v1("2/5")

    def test_inf_inf_is_zero(self):
        assert dist_e(vi("inf"), vi("inf")) == ZERO

    def test_finite_to_inf(self):
        assert dist_e(vi(5), vi("inf")) == Value(INF)


class TestAddExt:
    def test_finite(self):
        assert add_ext(v1("1/2"), v1("1/4")) == v1("3/4")

    def test_absorbs_infinity(self):
        assert add_ext(vi(3), vi("inf")) == Value(INF)

    def test_zero_identity(self):
        assert add_ext(ZERO, v1("2/3")) == v1("2/3")

    def test_sum_past_top_is_kept(self):
        # a sum is no distance: nothing holds it to a bound
        assert add_ext(v1("3/4"), v1("3/4")) == v1("3/2")


class TestSupInf:
    """The sup and inf of finitely many values are Python's max and min."""

    def test_sup(self):
        assert max([v1(0), v1("1/2"), v1("1/3")]) == v1("1/2")

    def test_inf_singleton(self):
        assert min([vi("inf")]) == Value(INF)

    def test_identity(self):
        assert max([v1("1/7")]) == v1("1/7")


class TestValueInvariants:
    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="negative value -1/2"):
            Value(F(-1, 2))

    def test_float_marks_inexact(self):
        v = Value(0.5)
        assert not v.is_exact
        assert v1("1/2").is_exact

    def test_ordering_inf_greatest(self):
        assert vi(1000) < Value(INF)

    def test_finite_top_positive(self):
        with pytest.raises(ConfigurationError):
            TopBound.finite(0)

    def test_ordering_matches_the_magnitudes(self):
        # two Fractions take the cross-multiplied path, any other pair
        # Python's own comparison; both must order as < and <= do
        mags = [F(0), F(1, 3), F(2, 6), F(1, 2), F(3, 7), F(10**30 + 1, 10**30),
                0.0, 1 / 3, 0.5, 1.0, 1e300, INF]
        for a in mags:
            for b in mags:
                assert (Value(a) < Value(b)) == (a < b), (a, b)
                assert (Value(a) <= Value(b)) == (a <= b), (a, b)
                assert (Value(a) > Value(b)) == (a > b), (a, b)
                assert (Value(a) >= Value(b)) == (a >= b), (a, b)


grid_one = st.fractions(min_value=0, max_value=1, max_denominator=50)
mag_inf = st.one_of(
    st.just(INF), st.fractions(min_value=0, max_denominator=50)
)


@given(grid_one, grid_one, grid_one)
def test_dist_e_is_a_pseudometric_on_finite_values(a, b, c):
    va, vb, vc = v1(a), v1(b), v1(c)
    assert dist_e(va, vb) == dist_e(vb, va)
    assert dist_e(va, va).is_zero
    assert dist_e(va, vc) <= add_ext(dist_e(va, vb), dist_e(vb, vc))


@given(mag_inf, mag_inf, mag_inf)
def test_dist_e_triangle_with_extended_values(a, b, c):
    va, vb, vc = vi(a) if a is not INF else vi("inf"), None, None
    va = Value(a)
    vb = Value(b)
    vc = Value(c)
    assert dist_e(va, vb) == dist_e(vb, va)
    assert dist_e(va, vc) <= add_ext(dist_e(va, vb), dist_e(vb, vc))


@given(mag_inf)
def test_magnitude_format_parse_round_trip(m):
    assert parse_rational_or_inf(format_magnitude(m)) == m


@given(grid_one, grid_one)
def test_nonexpansiveness_of_distance_to_a_point(a, b):
    # d_e(a, .) moves by at most the distance between its two arguments
    anchor = v1("1/3")
    lhs = dist_e(dist_e(anchor, v1(a)), dist_e(anchor, v1(b)))
    assert lhs <= dist_e(v1(a), v1(b))


class TestRoots:
    def test_perfect_power_is_exact(self):
        v = pth_root(Value(F(1, 4)), 2)
        assert v.is_exact and v == v1("1/2")

    def test_irrational_marked_inexact(self):
        v = pth_root(Value(F(1, 2)), 2)
        assert not v.is_exact
        assert abs(v.as_float() - 0.5**0.5) < 1e-12

    def test_power_inverts_root(self):
        v = pth_power(pth_root(Value(F(8, 27)), 3), 3)
        assert v == Value(F(8, 27))

    def test_huge_perfect_power_is_exact(self):
        v = pth_root(Value(F(10**400, 9)), 2)
        assert v.is_exact and v == Value(F(10**200, 3))

    def test_huge_irrational_root_does_not_overflow(self):
        # numerator and denominator beyond the float range must not pass
        # through float(): the inexact root comes from the logs of the ints
        v = pth_root(Value(F(10**400 + 1, 3)), 2)
        assert not v.is_exact
        assert v.as_float() == pytest.approx(1e200 / 3**0.5, rel=1e-12)
        tiny = pth_root(Value(F(2, 10**401)), 2)
        assert tiny.as_float() == pytest.approx(2**0.5 * 10**-200.5, rel=1e-12)

    def test_root_past_the_float_range_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="float range"):
            pth_root(Value(F(10**700 + 1)), 2)

    def test_power_past_the_float_range_is_exact(self):
        # 1e200 ** 2 overflows a double; the exact rational of the double
        # is powered instead, and a double that fits is left as it was
        v = pth_power(Value(1e200), 2)
        assert v == Value(F(1e200) ** 2) and v.is_exact
        assert pth_power(Value(1e100), 2) == Value(1e100**2)

    def test_large_cubes_are_exact(self):
        for n in (3**100, 2**200 + 1, 10**60 - 7):
            v = pth_root(Value(F(n**3, (n + 1) ** 3)), 3)
            assert v.is_exact and v == Value(F(n, n + 1))


class TestModes:
    def test_exact_vs_float_agreement(self):
        exact = dist_e(v1("1/3"), v1("2/3"))
        approx = dist_e(Value(1 / 3), Value(2 / 3))
        assert exact.is_exact and not approx.is_exact
        assert abs(approx.as_float() - exact.as_float()) <= 1e-9

    def test_bad_tolerance(self):
        with pytest.raises(ConfigurationError):
            NumericMode.approx(0.0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_non_finite_tolerance(self, tol):
        # under inf every step is below it, so iteration would stop at once
        with pytest.raises(ConfigurationError, match="finite and positive"):
            NumericMode.approx(tol)


def test_scale_infinity():
    assert scale(Value(INF), F(1, 2)).is_infinite


def test_inf_is_the_float_infinity():
    assert INF == float("inf") and vi(10**400) < vi("inf")
    assert format_magnitude(INF) == "inf" and vi("inf").is_exact
    assert Value(1e308).as_float() == 1e308 and not Value(1e308).is_exact


class TestInfinityMeetsExtremeFractions:
    """A Fraction mixed with a float is first converted to a float: past
    about 1.8e308 that overflows, below about 1e-308 it is 0.0."""

    def test_sum_and_distance_past_the_float_range(self):
        huge = vi(10**400)
        assert add_ext(huge, vi("inf")).is_infinite
        assert add_ext(vi("inf"), huge).is_infinite
        assert dist_e(huge, vi("inf")).is_infinite
        assert dist_e(vi("inf"), huge).is_infinite

    def test_tiny_scale_keeps_infinity(self):
        assert scale(vi("inf"), F(1, 10**400)).is_infinite


def test_top_of_bounds():
    assert top(TOP_ONE) == v1(1)
    assert top(TOP_INF).is_infinite


class TestLongDecimals:
    """Past 4,300 digits str() of an int raises; the text must not change."""

    def test_denominator_past_the_digit_limit(self):
        assert format_magnitude(F(1, 10**4300)) == "1/1" + "0" * 4300

    def test_zero_chunks_are_padded(self):
        assert format_magnitude(F(10**8001 + 7)) == "1" + "0" * 8000 + "7"

    def test_csv_of_a_matrix_holding_a_long_entry(self):
        v = Value(F(1, 10**4300))
        table = PseudometricTable(("a", "b"), {("a", "b"): v}, TOP_ONE)
        m = DistanceMatrix(("a", "b"), table, 1, True, v, "wasserstein", EXACT)
        text = "1/1" + "0" * 4300
        assert matrix_to_csv(m) == f"state,a,b\na,0,{text}\nb,{text},0\n"
