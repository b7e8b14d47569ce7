import itertools
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from behametric.functors import (
    Coproduct,
    Const,
    DiagSquare,
    Dist,
    Distribution,
    Id,
    PNormEval,
    Product,
    PseudometricTable,
    ShapeError,
    Tagged,
    check_expr_bound,
    combine_product,
    struct_key,
    validate,
)
from behametric.oracle import OracleScaleError, enumerate_couplings_finpow
from behametric.values import (
    INF,
    ConfigurationError,
    TOP_INF,
    TOP_ONE,
    TopBound,
    Value,
    add_ext,
    rounding_slack,
)
from test_values import nearest_root

UNIT = PseudometricTable(["✓"], {}, TOP_ONE, check=False)


class TestDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ShapeError):
            Distribution({"x": F(1, 2)})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ShapeError):
            Distribution({"x": F(3, 2), "y": F(-1, 2)})

    def test_fraction_weights_are_kept(self):
        half, third = F(1, 2), F(1, 3)
        p = Distribution({"x": half, "y": third, "z": 1 - half - third})
        assert p.prob("x") is half and p.prob("y") is third
        assert Distribution({"x": 0.5, "y": "1/2"}).items == (("x", half), ("y", half))

    def test_canonical_order_and_equality(self):
        p = Distribution({"y": F(1, 2), "x": F(1, 2)})
        q = Distribution({"x": F(1, 2), "y": F(1, 2)})
        assert p == q and hash(p) == hash(q)
        assert p.support() == ["x", "y"]

    def test_equal_distributions_hash_equal_cached_or_not(self):
        # the hash is cached on first use: a key hashed before must still
        # find an equal distribution built after, nested ones included
        inner = Distribution({"x": F(1, 3), "y": F(2, 3)})
        p = Distribution({inner: F(1, 2), "z": F(1, 2)})
        store = {(p, inner): 1}
        q = Distribution({"z": 0.5, Distribution({"y": F(2, 3), "x": F(1, 3)}): F(1, 2)})
        assert q == p and hash(q) == hash(p) == hash(p)
        assert store[(q, q.support()[1])] == 1


class TestValidate:
    def test_dist_ok(self):
        validate(Dist(Id()), ["x", "y"], Distribution({"x": F(1, 2), "y": F(1, 2)}))

    def test_unknown_atom(self):
        with pytest.raises(ShapeError):
            validate(Dist(Id()), ["x"], Distribution({"z": F(1)}))

    def test_coproduct_termination_shape(self):
        expr = Coproduct(Id(), Const(UNIT, name="unit"))
        validate(expr, ["x"], Tagged("right", "✓"))
        with pytest.raises(ShapeError):
            validate(expr, ["x"], Tagged("right", "x"))

    def test_pair_shape(self):
        validate(Product(Id(), Id()), ["x"], ("x", "x"))
        with pytest.raises(ShapeError):
            validate(Product(Id(), Id()), ["x"], "x")


class TestPseudometricTable:
    def test_triangle_enforced(self):
        with pytest.raises(ShapeError):
            PseudometricTable(
                ["a", "b", "c"],
                {
                    ("a", "b"): Value(F(1)),
                    ("b", "c"): Value(F(1)),
                    ("a", "c"): Value(F(3)),
                },
                TOP_INF,
            )

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ShapeError, match=r"^nonzero diagonal at 'a'$"):
            PseudometricTable(
                ["a"], {("a", "a"): Value(F(1, 2))}, TOP_ONE
            )

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: PseudometricTable(["a", "b", "a"], {}, TOP_ONE),
             ShapeError, "duplicate carrier atoms"),
            (lambda: PseudometricTable(["a", "b"], {("a", "z"): F(1, 2)}, TOP_ONE),
             ShapeError, "unknown atom in entry ('a', 'z')"),
            (lambda: PseudometricTable(
                ["b", "a"], {("b", "a"): F(1, 2), ("a", "b"): F(1, 3)}, TOP_ONE),
             ShapeError, "conflicting entries for ('a', 'b')"),
            (lambda: PseudometricTable(
                ["a", "b"], {("a", "b"): F(1, 2), ("b", "b"): F(1, 4)}, TOP_ONE),
             ShapeError, "nonzero diagonal at 'b'"),
            (lambda: PseudometricTable(["a", "b"], {("a", "b"): F(2)}, TOP_ONE),
             ConfigurationError, "value 2 exceeds top 1"),
            (lambda: PseudometricTable(["a", "b"], {("a", "b"): Value(1.5)}, TOP_ONE),
             ConfigurationError, "value 1.5 exceeds top 1"),
            (lambda: PseudometricTable(["a", "b"], {("a", "b"): INF}, TOP_ONE),
             ConfigurationError, "infinite value under a finite bound"),
            (lambda: PseudometricTable(["a", "b"], {}, TOP_ONE, check=False).get("a", "z"),
             ShapeError, "atoms 'a', 'z' not in carrier"),
        ],
        ids=["duplicate", "unknown-atom", "conflict", "diagonal", "above-top",
             "float-top", "inf-top", "get-unknown"],
    )
    def test_construction_errors_keep_type_and_message(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error and str(err.value) == message

    def test_equal_repeated_entries_accepted(self):
        t = PseudometricTable(
            ["a", "b"], {("a", "b"): F(1, 2), ("b", "a"): Value(F(1, 2))}, TOP_ONE
        )
        assert t.get("b", "a") == Value(F(1, 2))

    def test_symmetric_lookup(self):
        t = PseudometricTable(
            ["a", "b"], {("b", "a"): Value(F(1, 3))}, TOP_ONE
        )
        assert t.get("a", "b") == t.get("b", "a") == Value(F(1, 3))

    def test_infinite_entries_allowed_under_inf_top(self):
        from behametric.values import INF

        t = PseudometricTable(
            ["a", "b"], {("a", "b"): Value(INF)}, TOP_INF
        )
        assert t.get("a", "b").is_infinite


def oracle_check_triangle(table):
    """Reference: every permutation of three atoms, compared as Values; a
    miss within rounding_slack(rhs) is forgiven when a side is a double.
    The sum is clamped to top, or to float(top) when it is a double: the
    entries are at most top, so the clamp must change no verdict."""
    limit = table.bound.limit
    for a, b, c in itertools.permutations(table.carrier, 3):
        lhs = table.get(a, c)
        rhs = add_ext(table.get(a, b), table.get(b, c))
        if limit is not None and rhs.mag > limit:
            rhs = Value(limit if isinstance(rhs.mag, F) else float(limit))
        if lhs > rhs:
            if not (lhs.is_exact and rhs.is_exact):
                if lhs.as_float() - rhs.as_float() <= rounding_slack(rhs.as_float()):
                    continue
            raise ShapeError(
                f"triangle inequality fails: d({a},{c})={lhs} > "
                f"d({a},{b})+d({b},{c})={rhs}"
            )


def triangle_verdicts(carrier, entries, bound):
    """(oracle message, new-check message), None for an accepted table."""
    unchecked = PseudometricTable(carrier, entries, bound, check=False)
    verdicts = []
    for check in (
        lambda: oracle_check_triangle(unchecked),
        lambda: PseudometricTable(carrier, entries, bound),
    ):
        try:
            check()
            verdicts.append(None)
        except ShapeError as exc:
            verdicts.append(str(exc))
    return verdicts


# tops whose double rounds exactly (1), down (1/3) and up (1/10)
TOPS = [TOP_ONE, TopBound.finite(F(1, 3)), TopBound.finite(F(1, 10)), TOP_INF]


def random_entries(rng, carrier, bound):
    """A line metric within [0, top], with a few entries overwritten by
    values that may break it: top itself, a double rounded off a rational,
    INF under an infinite top."""
    top = bound.limit if bound.limit is not None else F(4)
    points = {a: rng.choice([F(0), top / 3, top / 2, top]) for a in carrier}
    entries = {(a, b): abs(points[a] - points[b]) for a, b in itertools.combinations(carrier, 2)}
    pool = [top, top / 2, top / 3, top / 7, float(top), float(top / 3), rng.random() * float(top)]
    if bound.is_infinite:
        pool += [INF, INF]
    for key in rng.sample(sorted(entries), rng.randint(0, 3)):
        entries[key] = rng.choice(pool)
    for key in rng.sample(sorted(entries), rng.randint(0, 2)):
        if entries[key] is not INF:
            entries[key] = float(entries[key])  # an inexact magnitude
    return {key: Value(m if m is INF or isinstance(m, float) else F(m))
            for key, m in entries.items()}


class TestTriangleCheckAgainstOracle:
    def test_random_tables_same_verdict_and_message(self):
        rng = random.Random(2024)
        names = ["q", "b", "x", "a", "m", "c"]  # carrier order is not name order
        seen = set()
        for _ in range(600):
            bound = rng.choice(TOPS)
            carrier = rng.sample(names, rng.randint(3, 6))
            entries = random_entries(rng, carrier, bound)
            inexact = any(not v.is_exact for v in entries.values())
            infinite = any(v.is_infinite for v in entries.values())
            oracle, new = triangle_verdicts(carrier, entries, bound)
            assert new == oracle, (carrier, entries, bound)
            seen.add((oracle is None, inexact, infinite, bound.is_infinite))
        # both verdicts with and without doubles, under both kinds of top
        for accepted in (True, False):
            for inexact in (True, False):
                assert any(s[:2] == (accepted, inexact) for s in seen)
        assert any(s[2] for s in seen) and any(not s[3] for s in seen)

    def test_exact_tables_with_every_fifth_entry_a_double(self):
        # exact tables as exact-mode p-norm roots make them, most entries
        # Fractions and some doubles, on up to ten atoms; a few entries are
        # moved off the line metric, by a clear step or by less than
        # rounding explains next to a double
        rng = random.Random(31)
        seen = set()
        for _ in range(200):
            bound = rng.choice(TOPS)
            top = bound.limit if bound.limit is not None else F(4)
            carrier = [f"s{i}" for i in rng.sample(range(10), rng.randint(6, 10))]
            points = {a: top * rng.randint(0, 21) / 21 for a in carrier}
            mags = [abs(points[a] - points[b]) for a, b in itertools.combinations(carrier, 2)]
            for k in rng.sample(range(len(mags)), rng.randint(0, 2)):
                step = top / rng.choice([7, 10**14]) * rng.choice([-1, 1])
                mags[k] = min(top, max(F(0), mags[k] + step))
            entries = {pair: Value(float(m) if k % 5 == 0 else m)
                       for k, (pair, m) in enumerate(zip(itertools.combinations(carrier, 2), mags))}
            oracle, new = triangle_verdicts(carrier, entries, bound)
            assert new == oracle, (carrier, entries, bound)
            as_fractions = {key: Value(F(v.mag)) for key, v in entries.items()}
            strict, _ = triangle_verdicts(carrier, as_fractions, TOP_INF)
            seen.add((new is None, strict is None))
        # rejected, and accepted though the doubles' exact ratios break a
        # triangle by less than rounding_slack
        assert seen >= {(False, False), (True, False)}

    def test_large_float_mode_entries_beside_inf(self):
        # float-mode tables under top = inf: doubles of 1e5 to 1e9, where two
        # ulps exceed the 1e-12 floor, in clusters that are at distance inf
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            carrier = rng.sample(["q", "b", "x", "a", "m", "c"], rng.randint(3, 6))
            cluster = {a: rng.randrange(2) for a in carrier}
            where = {a: rng.uniform(1e5, 1e9) for a in carrier}
            entries = {}
            for a, b in itertools.combinations(carrier, 2):
                if cluster[a] != cluster[b]:
                    entries[a, b] = Value(INF)
                    continue
                m = abs(where[a] - where[b])
                m += rng.choice([0, 0, 0, -2, -1, 1, 2, 3]) * math.ulp(m)
                entries[a, b] = Value(m)
            oracle, new = triangle_verdicts(carrier, entries, TOP_INF)
            assert new == oracle, (carrier, entries)
            as_fractions = {
                k: v if v.is_infinite else Value(F(v.mag)) for k, v in entries.items()
            }
            strict, _ = triangle_verdicts(carrier, as_fractions, TOP_INF)
            seen.add((new is None, strict is None))
        # rejected, accepted, and accepted only within rounding_slack
        assert seen >= {(False, False), (True, True), (True, False)}

    def test_top_rounding_cases(self):
        # a double of the top, and a sum past top beside a double of it
        for bound in TOPS[1:3]:
            top = bound.limit
            for lhs, ab, bc in [
                (float(top), top / 2, top / 2 + top / 3),
                (float(top), top / 2, top / 3),
                (top, float(top / 5), top * 3 / 4),
                (top, top / 2, float(top) / 2),
            ]:
                entries = {
                    ("a", "c"): Value(lhs),
                    ("a", "b"): Value(ab),
                    ("b", "c"): Value(bc),
                }
                oracle, new = triangle_verdicts(["a", "b", "c"], entries, bound)
                assert new == oracle

    @pytest.mark.parametrize("excess, accepted", [(F(1, 2 * 10**12), True), (F(2, 10**12), False)])
    def test_float_mode_slack_edges(self, excess, accepted):
        # float-mode tables hold doubles; the slack next to 0.3 is 1e-12
        mags = {("a", "b"): 0.1, ("b", "c"): 0.2, ("a", "c"): float(F(0.1) + F(0.2) + excess)}
        entries = {k: Value(m) for k, m in mags.items()}
        oracle, new = triangle_verdicts(["a", "b", "c"], entries, TOP_ONE)
        assert new == oracle and (new is None) == accepted
        # the same magnitudes as Fractions are judged exactly
        entries = {k: Value(F(m)) for k, m in mags.items()}
        oracle, new = triangle_verdicts(["a", "b", "c"], entries, TOP_ONE)
        assert new == oracle and new.startswith("triangle inequality fails: d(a,c)=")

    @pytest.mark.parametrize("ulps, accepted", [(1, True), (3, False)])
    def test_float_mode_slack_is_two_ulps_of_large_entries(self, ulps, accepted):
        # the ulp of 3e5 is about 6e-11, far above the 1e-12 floor
        ab, bc = 3e5, 0.1
        rhs = ab + bc
        ac = rhs + ulps * math.ulp(rhs)
        entries = {("a", "b"): ab, ("b", "c"): bc, ("a", "c"): ac}
        entries = {k: Value(v) for k, v in entries.items()}
        try:
            PseudometricTable(["a", "b", "c"], entries, TOP_INF)
        except ShapeError:
            assert not accepted
        else:
            assert accepted

    def test_scaled_entries_past_the_float_range_beside_inf(self):
        # the integer-scaled check must not add an int past 2**1024 to inf
        inf, huge = Value(INF), Value(F(10**400))
        table = PseudometricTable(
            ["a", "b", "c"], {("a", "b"): huge, ("a", "c"): inf, ("b", "c"): inf}, TOP_INF
        )
        assert table.get("a", "b") == huge
        with pytest.raises(ShapeError, match="triangle"):
            PseudometricTable(
                ["a", "b", "c"], {("a", "b"): huge, ("a", "c"): inf, ("b", "c"): huge}, TOP_INF
            )

    def test_float_table_screens_without_fractions(self):
        # one screen on integers: doubles at their exact ratios, the
        # diagonal's exact zero as the int 0, INF as an int above any sum
        keys = [("a", "b"), ("a", "c"), ("b", "c")]
        for mags in [
            (0.25, 0.25, 0.0),  # doubles
            (F(1, 3), 0.1, F(2, 7)),  # Fractions and doubles
            (0.5, INF, INF),  # doubles and INF
            (F(1, 3), 0.1, INF),
        ]:
            table = PseudometricTable(["a", "b", "c"], dict(zip(keys, map(Value, mags))),
                                      TOP_INF, check=False)
            rows = PseudometricTable._scaled([table._row(i) for i in range(3)])
            assert all(type(m) is int for row in rows for m in row), mags
            assert [rows[i][i] for i in range(3)] == [0, 0, 0]
            scaled = list(zip(mags, [rows[0][1], rows[0][2], rows[1][2]]))
            for (m1, x1), (m2, x2) in itertools.combinations(scaled, 2):
                if INF not in (m1, m2):
                    assert F(m1) * x2 == F(m2) * x1, mags  # the exact ratios are kept
            big = 2 * max(x for m, x in scaled if m is not INF)
            assert all(x > big for m, x in scaled if m is INF), mags

    def test_fraction_past_the_double_range_beside_doubles(self):
        # no double meets 1e400, so every magnitude is scaled exactly
        huge = Value(F(10) ** 400)
        entries = {("a", "b"): Value(0.5), ("a", "c"): huge, ("b", "c"): huge}
        table = PseudometricTable(["a", "b", "c"], entries, TOP_INF)
        rows = PseudometricTable._scaled([table._row(i) for i in range(3)])
        assert all(type(m) is int for row in rows for m in row)
        assert rows[0][1] * 2 * 10**400 == rows[0][2]
        with pytest.raises(ShapeError, match="triangle inequality fails"):
            PseudometricTable(
                ["a", "b", "c"], {**entries, ("a", "c"): Value(F(10) ** 400 + 1)}, TOP_INF
            )

    def test_infinite_entries(self):
        inf, one = Value(INF), Value(F(1))
        for entries in [
            {("a", "b"): one, ("b", "c"): one, ("a", "c"): inf},
            {("a", "b"): inf, ("b", "c"): one, ("a", "c"): inf},
            {("a", "b"): inf, ("b", "c"): inf, ("a", "c"): one},
            {("a", "b"): inf, ("b", "c"): inf, ("a", "c"): inf},
        ]:
            oracle, new = triangle_verdicts(["c", "b", "a"], entries, TOP_INF)
            assert new == oracle


class TestExprInvariants:
    def test_discount_range(self):
        with pytest.raises(ConfigurationError):
            Id(F(0))
        with pytest.raises(ConfigurationError):
            Id(F(3, 2))

    def test_pnorm_weights(self):
        with pytest.raises(ConfigurationError):
            PNormEval(0, F(1, 2), F(1, 2))
        with pytest.raises(ConfigurationError):
            PNormEval(1, F(0), F(1, 2))

    def test_const_bound_must_match_expression(self):
        expr = Dist(Coproduct(Id(F(1, 2)), Const(UNIT, name="unit")))
        check_expr_bound(expr, TOP_ONE)
        with pytest.raises(ConfigurationError):
            check_expr_bound(expr, TOP_INF)

    def test_diagsquare_needs_infinite_top(self):
        with pytest.raises(ConfigurationError):
            check_expr_bound(DiagSquare(Id()), TOP_ONE)
        check_expr_bound(DiagSquare(Id()), TOP_INF)

    def test_pnorm_weight_sum_under_finite_top(self):
        heavy = Product(Id(), Id(), PNormEval(1, F(3, 4), F(3, 4)))
        with pytest.raises(ConfigurationError):
            check_expr_bound(heavy, TOP_ONE)
        check_expr_bound(heavy, TOP_INF)


class TestCombineProduct:
    def test_pnorm_power_past_the_float_range_beside_a_double(self):
        # the square of 1e200 passes the double range, the square of 0.5
        # does not; both enter the sum at their exact ratios
        ev = PNormEval(2, F(1, 2), F(1, 2))
        v = combine_product(ev, Value(1e200), Value(0.5))
        assert v.mag == nearest_root((F(1e200) ** 2 + F(1, 4)) / 2, 2)

    def test_a_double_in_gives_a_double_out(self):
        # the root of 1/2 * (0.5**2 + 0.5**2) is 1/2 exactly, returned as a double
        v = combine_product(PNormEval(2, F(1, 2), F(1, 2)), Value(0.5), Value(F(1, 2)))
        assert type(v.mag) is float and v.mag == 0.5
        v = combine_product(PNormEval(1, F(1, 3), F(2, 3)), Value(0.5), Value(F(1, 4)))
        assert v.mag == float(F(0.5) / 3 + F(1, 6))

    def test_pnorm_with_weights_summing_to_one_stays_under_top(self):
        # the exact p-norm is at most the larger side and rounding is
        # monotone, so the root's double never passes top's double: this is
        # why combine_product needs no clamp to top
        rng = random.Random(3)
        for limit in (F(1), F(2), F(1, 3), F(10, 7), F(2, 10**6 + 3), F(sys.float_info.max)):
            bound = TopBound.finite(limit)
            fl = bound.float_limit
            sides = [limit, limit - F(1, 10**30), fl, math.nextafter(fl, 0)]
            for p in (2, 3):
                for a, b in itertools.product(sides, repeat=2):
                    c1 = F(rng.randint(1, 999), 1000)
                    v = combine_product(PNormEval(p, c1, 1 - c1), Value(a), Value(b))
                    assert bound.check(v) is v
                    assert not (type(v.mag) is float and v.mag > fl), (limit, a, b, p)


class TestCouplingsFinPow:
    def test_singletons_forced(self):
        assert enumerate_couplings_finpow(frozenset("a"), frozenset("b")) == [
            frozenset({("a", "b")})
        ]

    def test_one_empty_no_coupling(self):
        assert enumerate_couplings_finpow(frozenset(), frozenset("b")) == []

    def test_both_empty_empty_coupling(self):
        assert enumerate_couplings_finpow(frozenset(), frozenset()) == [frozenset()]

    def test_projections_always_reproduce_inputs(self):
        rng = random.Random(0)
        atoms = ["a", "b", "c", "d"]
        for _ in range(20):
            x1 = frozenset(rng.sample(atoms, rng.randint(0, 3)))
            x2 = frozenset(rng.sample(atoms, rng.randint(0, 3)))
            couplings = enumerate_couplings_finpow(x1, x2)
            assert bool(couplings) == ((not x1) == (not x2))
            for t in couplings:
                assert {a for a, _ in t} == set(x1) or not x1
                assert {b for _, b in t} == set(x2) or not x2

    def test_cell_cap(self):
        big = frozenset("abcde")
        with pytest.raises(OracleScaleError):
            enumerate_couplings_finpow(big, big)


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
def test_struct_key_total_order_on_sets(atoms):
    s = frozenset(atoms)
    # deterministic, hash-seed independent ordering
    assert sorted(s, key=struct_key) == sorted(s)
