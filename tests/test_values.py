import math
import random
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
    exceeds,
    format_magnitude,
    over_common_denominator,
    pth_root,
    rounding_slack,
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
        with pytest.raises(ConfigurationError, match="negative value -0.5"):
            Value(-0.5)
        with pytest.raises(ConfigurationError, match="bad magnitude 1"):
            Value(1)

    def test_nan_rejected(self):
        # nan orders below, above and equal to nothing, so no bound judges it
        for nan in (float("nan"), INF - INF):
            with pytest.raises(ConfigurationError, match="bad magnitude nan"):
                Value(nan)

    def test_top_check_verdicts(self):
        # a Fraction against a Fraction limit cross-multiplies, anything else
        # compares with the limit's double; both must judge as < does
        for limit in (F(1), F(10) ** 400):
            bound = TopBound.finite(limit)
            for m in (F(0), F(1, 3), F(1), F(1) + F(1, 10**30), limit, limit + 1,
                      0.5, 1.0, 1.0000000000000002, 1e308, INF):
                over = m == INF or m > (limit if isinstance(m, F) else bound.float_limit)
                if over:
                    with pytest.raises(ConfigurationError):
                        bound.check(Value(m))
                else:
                    assert bound.check(Value(m)) == Value(m), (limit, m)

    def test_values_have_no_dict(self):
        assert not hasattr(Value(F(1, 2)), "__dict__")
        assert not hasattr(Value(0.5), "__dict__")

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
        for a in mags:  # a Value against itself answers without its magnitude
            v = Value(a)
            assert not v < v and v <= v and not v > v and v >= v, a


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


def nearest_root(q: F, p: int) -> float:
    """Reference for pth_root: the double nearest q ** (1/p), as float() of
    x / 2**k, where x is the floor root of q * 2**(p*k) with about 120 bits,
    from math.isqrt (p = 2) or bisection.  Truncating to x misleads float()
    only when x / 2**k is a tie between two doubles, about 2**-66 per case."""
    k = 120 - (q.numerator.bit_length() - q.denominator.bit_length()) // p
    n = math.floor(q * F(2) ** (p * k))
    if p == 2:
        x = math.isqrt(n)
    else:
        lo, hi = 0, 1 << (n.bit_length() // p + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid**p <= n else (lo, mid)
        x = lo
    return float(F(x) / F(2) ** k)


class TestRoots:
    def test_perfect_power_is_exact(self):
        v = pth_root(Value(F(1, 4)), 2)
        assert v.is_exact and v == v1("1/2")

    def test_irrational_marked_inexact(self):
        v = pth_root(Value(F(1, 2)), 2)
        assert not v.is_exact
        assert v.as_float() == math.sqrt(0.5)

    def test_power_inverts_root(self):
        v = pth_root(Value(F(8, 27)), 3)
        assert v.is_exact and v.mag**3 == F(8, 27)

    def test_huge_perfect_power_is_exact(self):
        v = pth_root(Value(F(10**400, 9)), 2)
        assert v.is_exact and v == Value(F(10**200, 3))

    def test_huge_irrational_root_does_not_overflow(self):
        # numerator and denominator beyond the float range never pass
        # through float(): the root is taken on the ints
        q = F(10**400 + 1, 3)
        v = pth_root(Value(q), 2)
        assert not v.is_exact and v.as_float() == nearest_root(q, 2)
        q = F(2, 10**401)
        assert pth_root(Value(q), 2).as_float() == nearest_root(q, 2)

    def test_root_past_the_float_range_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="float range"):
            pth_root(Value(F(10**700 + 1)), 2)

    def test_power_past_the_float_range_is_exact(self):
        # the square of the double 1e200 overflows a double; at its exact
        # ratio, as a p-norm takes it, its root is 1e200 exactly
        v = pth_root(Value(F(1e200) ** 2), 2)
        assert v.is_exact and v == Value(F(1e200))

    def test_large_cubes_are_exact(self):
        for n in (3**100, 2**200 + 1, 10**60 - 7):
            v = pth_root(Value(F(n**3, (n + 1) ** 3)), 3)
            assert v.is_exact and v == Value(F(n, n + 1))

    def test_nearest_double_on_seeded_rationals_and_doubles(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            for _ in range(400):
                q = F(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40)))
                v = pth_root(Value(q), p)
                assert v.mag**p == q if v.is_exact else v.mag == nearest_root(q, p), (q, p)
                x = 10.0 ** rng.uniform(-300, 300)
                v = pth_root(Value(x), p)
                assert type(v.mag) is float and v.mag == nearest_root(F(x), p), (x, p)

    def test_root_near_a_double_rounds_to_it(self):
        # the excess over 16/25 moves the root far less than half an ulp of 0.8
        assert pth_root(Value(F(16, 25) + F(1, 10**24) / 16), 2) == Value(0.8)

    def test_a_double_that_is_a_perfect_power_gives_a_double(self):
        v = pth_root(Value(4.0), 2)
        assert type(v.mag) is float and v.mag == 2.0


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


def test_scale_of_a_double_is_the_product_with_a_fraction():
    # 205 discounts by 2,006 doubles from the least subnormal to 1e308
    rng = random.Random(0)
    discounts = [F(1), F(1, 10**400), F(1, 2), F(9, 10), F(1, 3)] + [
        F(rng.randint(1, d), d) for d in (rng.randint(1, 10**rng.randint(1, 30)) for _ in range(200))
    ]
    doubles = [5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 1e308] + [
        rng.random() * 10.0 ** rng.randint(-323, 307) for _ in range(2000)
    ]
    for c in discounts:
        for m in doubles:
            got = scale(Value(m), c).mag
            assert type(got) is float and got == m * c  # Fraction.__rmul__


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
    # one Value per bound, shared by every lift that meets top
    assert top(TOP_ONE) is top(TOP_ONE) and top(TOP_INF) is TOP_INF.value


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


class TestExceeds:
    def test_exact_pairs_are_judged_exactly(self):
        third = F(1, 3)
        assert exceeds(v1(third + F(1, 10**30)), v1(third))
        assert not exceeds(v1(third), v1(third))
        assert not exceeds(v1(third), v1(third + F(1, 10**30)))
        assert exceeds(v1(F(1, 10**30)), ZERO)

    @pytest.mark.parametrize("x", [1e-3, 1.0, 1e6])
    def test_doubles_within_and_beyond_the_slack(self, x):
        def up(y):
            return math.nextafter(y, INF)

        slack = rounding_slack(x)
        assert not exceeds(Value(up(up(x))), Value(x))  # two ulps
        edge = x + slack  # the last double within the slack above x
        while edge - x > slack:
            edge = math.nextafter(edge, 0)
        while up(edge) - x <= slack:
            edge = up(edge)
        assert not exceeds(Value(edge), Value(x))
        assert exceeds(Value(up(edge)), Value(x))
        # the lower value never exceeds the higher
        assert not exceeds(Value(x), Value(up(edge)))

    def test_double_against_an_equal_fraction(self):
        # the double 0.1 lies just above 1/10, by less than rounding explains
        assert v1("1/10") < Value(0.1)
        assert not exceeds(Value(0.1), v1("1/10"))
        assert not exceeds(v1("1/10"), Value(0.1))
        assert not exceeds(Value(0.5), v1("1/2"))
        assert not exceeds(v1("1/2"), Value(0.5))

    def test_infinity_on_either_side(self):
        for finite in (Value(1e308), v1(F(10) ** 400), ZERO):
            assert exceeds(Value(INF), finite)
            assert not exceeds(finite, Value(INF))
        assert not exceeds(Value(INF), Value(INF))

    def test_fraction_past_the_double_range_against_a_double(self):
        huge = v1(F(10) ** 400)
        assert exceeds(huge, Value(1e308))
        assert not exceeds(Value(1e308), huge)


class TestTopDouble:
    def test_a_tenth_gives_the_double_a_tenth(self):
        assert TopBound.finite(F(1, 10)).float_limit == 0.1

    def test_a_limit_past_the_double_range_gives_inf(self):
        assert TopBound.finite(F(10) ** 400).float_limit == INF
        assert TOP_INF.float_limit == INF

    def test_equality_and_hash_are_the_limits(self):
        q = F(1, 10)
        assert TopBound.finite(q) == TopBound(q) and hash(TopBound.finite(q)) == hash((q,))
        # two limits past the double range share their double, not their bound
        big, bigger = TopBound.finite(F(10) ** 400), TopBound.finite(F(10) ** 401)
        assert big.float_limit == bigger.float_limit and big != bigger
        assert repr(TopBound.finite(q)) == "TopBound(1/10)"

    def test_check_past_the_double_range(self):
        bound = TopBound.finite(F(10) ** 400)
        assert bound.check(Value(1e308)) == Value(1e308)
        with pytest.raises(ConfigurationError):
            bound.check(v1(F(10) ** 400 + 1))


def test_add_ext_stays_exact_past_the_double_range():
    huge = v1(F(10) ** 400)
    expected = Value(F(10) ** 400 + F(0.5))
    for a, b in ((huge, Value(0.5)), (Value(0.5), huge)):
        out = add_ext(a, b)
        assert out == expected and type(out.mag) is F


def test_two_doubles_summed_past_the_double_range_stay_exact():
    out = add_ext(Value(1e308), Value(1e308))
    assert out == Value(F(1e308) * 2) and type(out.mag) is F


def test_dist_e_stays_exact_past_the_double_range():
    huge = v1(F(10) ** 400)
    expected = Value(F(10) ** 400 - F(0.5))
    for a, b in ((huge, Value(0.5)), (Value(0.5), huge)):
        out = dist_e(a, b)
        assert out == expected and type(out.mag) is F


class TestCommonDenominator:
    def test_matches_fraction_arithmetic(self):
        rng = random.Random(7)
        for _ in range(200):
            mags = [F(rng.randint(0, 10**6), rng.randint(1, 10**4)) for _ in range(rng.randint(0, 6))]
            # doubles from subnormal up to 2**500
            mags += [math.ldexp(rng.random(), rng.randint(-1074, 500)) for _ in range(rng.randint(0, 4))]
            rng.shuffle(mags)
            ints, den = over_common_denominator(mags)
            assert den == math.lcm(*(F(m).denominator for m in mags))
            assert [F(n, den) for n in ints] == [F(m) for m in mags]
            assert all(type(n) is int for n in ints)

    def test_extreme_doubles(self):
        mags = [5e-324, 2.0**500, F(1, 3)]
        ints, den = over_common_denominator(mags)
        assert den == 3 * 2**1074
        assert [F(n, den) for n in ints] == [F(m) for m in mags]

    def test_no_magnitudes(self):
        assert over_common_denominator([]) == ([], 1)
