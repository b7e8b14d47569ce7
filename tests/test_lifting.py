import itertools
import random
from fractions import Fraction as F

import pytest

from behametric import lifting
from behametric.functors import (
    Coproduct,
    Const,
    DiagSquare,
    Dist,
    Distribution,
    FinPow,
    Id,
    MaxEval,
    PNormEval,
    Product,
    PseudometricTable,
    Tagged,
)
from behametric.lifting import (
    KANTOROVICH,
    WASSERSTEIN,
    LiftingEngine,
    check_well_behaved,
    duality_gap,
    lift_both,
    lift_dist,
    method_matters,
)
from behametric.suites import random_pseudometric, random_structure, node_catalogue
from behametric.values import INF, TOP_INF, TOP_ONE, ZERO, Value, add_ext, top


def table(carrier, entries, bound):
    wrapped = {
        k: Value(INF if v == "inf" else F(v)) for k, v in entries.items()
    }
    return PseudometricTable(carrier, wrapped, bound)


class TestWorkedExamples:
    def test_diag_square_counterexample(self):
        d = table(["x1", "x2"], {("x1", "x2"): 1}, TOP_INF)
        expr = DiagSquare(Id())
        t1, t2 = ("x1", "x2"), ("x2", "x1")
        assert lift_dist(expr, d, WASSERSTEIN, t1, t2) == Value(F(2))
        assert lift_dist(expr, d, KANTOROVICH, t1, t2).is_zero
        assert duality_gap(expr, d, t1, t2) == Value(F(2))

    def test_hausdorff_successor_sets(self):
        d = table(
            ["x2", "x3", "y2", "y3"],
            {
                ("x2", "y2"): "1/10",
                ("x2", "y3"): "3/5",
                ("x3", "y2"): "1/5",
                ("x3", "y3"): "3/10",
                ("x2", "x3"): "3/10",
                ("y2", "y3"): "1/2",
            },
            TOP_INF,
        )
        expr = FinPow(Id())
        t1, t2 = frozenset({"x2", "x3"}), frozenset({"y2", "y3"})
        for method in (KANTOROVICH, WASSERSTEIN):
            assert lift_dist(expr, d, method, t1, t2) == Value(F(3, 10))

    def test_reflexivity_on_distributions(self):
        d = table(["a", "b"], {("a", "b"): "1/3"}, TOP_ONE)
        p = Distribution({"a": F(1, 4), "b": F(3, 4)})
        for method in (KANTOROVICH, WASSERSTEIN):
            assert lift_dist(Dist(Id()), d, method, p, p).is_zero

    def test_probabilistic_ground_step(self):
        d = table(["u", "z"], {("u", "z"): "9/10"}, TOP_ONE)
        p1 = Distribution({"u": F(9, 20), "z": F(11, 20)})
        p2 = Distribution({"u": F(1, 2), "z": F(1, 2)})
        for method in (KANTOROVICH, WASSERSTEIN):
            assert lift_dist(Dist(Id()), d, method, p1, p2) == Value(F(9, 200))


class TestNodeForms:
    def setup_method(self):
        self.d1 = table(["a", "b", "c"], {("a", "b"): "1/3", ("a", "c"): "2/3", ("b", "c"): "1/3"}, TOP_ONE)

    def test_id_discount(self):
        assert lift_dist(Id(F(9, 10)), self.d1, WASSERSTEIN, "a", "b") == Value(F(3, 10))

    def test_const_lookup(self):
        space = table(["p", "q"], {("p", "q"): "1/2"}, TOP_ONE)
        expr = Const(space, name="k")
        assert lift_dist(expr, self.d1, KANTOROVICH, "p", "q") == Value(F(1, 2))

    def test_coproduct_same_tag(self):
        expr = Coproduct(Id(), Id(F(1, 2)))
        v = lift_dist(expr, self.d1, WASSERSTEIN, Tagged("right", "a"), Tagged("right", "b"))
        assert v == Value(F(1, 6))

    def test_coproduct_mixed_tags_is_top(self):
        expr = Coproduct(Id(), Id())
        v = lift_dist(expr, self.d1, KANTOROVICH, Tagged("left", "a"), Tagged("right", "a"))
        assert v == top(TOP_ONE)

    def test_product_max(self):
        expr = Product(Id(), Id(), MaxEval())
        v = lift_dist(expr, self.d1, WASSERSTEIN, ("a", "a"), ("b", "c"))
        assert v == Value(F(2, 3))

    def test_product_pnorm_weighted_sum(self):
        expr = Product(Id(), Id(), PNormEval(1, F(1, 2), F(1, 2)))
        v = lift_dist(expr, self.d1, WASSERSTEIN, ("a", "a"), ("b", "c"))
        assert v == Value(F(1, 2))  # (1/3 + 2/3) / 2

    def test_product_pnorm_irrational_root_flagged(self):
        expr = Product(Id(), Id(), PNormEval(2, F(1, 2), F(1, 2)))
        v = lift_dist(expr, self.d1, WASSERSTEIN, ("a", "a"), ("b", "c"))
        assert not v.is_exact
        expected = ((F(1, 3) ** 2) / 2 + (F(2, 3) ** 2) / 2) ** 0.5
        assert abs(v.as_float() - expected) < 1e-12

    def test_hausdorff_empty_conventions(self):
        expr = FinPow(Id())
        both = lift_dist(expr, self.d1, WASSERSTEIN, frozenset(), frozenset())
        one = lift_dist(expr, self.d1, WASSERSTEIN, frozenset(), frozenset("a"))
        assert both.is_zero and one == top(TOP_ONE)

    def test_composed_expression(self):
        # distribution over (next state + termination), a discounted step
        unit = PseudometricTable(["✓"], {}, TOP_ONE, check=False)
        expr = Dist(Coproduct(Id(F(9, 10)), Const(unit, name="unit")))
        p1 = Distribution({Tagged("left", "a"): F(1)})
        p2 = Distribution({Tagged("right", "✓"): F(1)})
        for method in (KANTOROVICH, WASSERSTEIN):
            assert lift_dist(expr, self.d1, method, p1, p2) == top(TOP_ONE)


class TestInfiniteGround:
    def test_kantorovich_unbounded_when_components_unbalanced(self):
        d = table(["a", "b"], {("a", "b"): "inf"}, TOP_INF)
        p1 = Distribution({"a": F(1)})
        p2 = Distribution({"b": F(1)})
        for method in (KANTOROVICH, WASSERSTEIN):
            assert lift_dist(Dist(Id()), d, method, p1, p2).is_infinite

    def test_finite_within_components(self):
        d = table(
            ["a", "b", "c"],
            {("a", "b"): 2, ("a", "c"): "inf", ("b", "c"): "inf"},
            TOP_INF,
        )
        p1 = Distribution({"a": F(1, 2), "c": F(1, 2)})
        p2 = Distribution({"b": F(1, 2), "c": F(1, 2)})
        for method in (KANTOROVICH, WASSERSTEIN):
            assert lift_dist(Dist(Id()), d, method, p1, p2) == Value(F(1))


class TestInexactCosts:
    def test_wasserstein_prices_irrational_costs_like_kantorovich(self):
        # the p-norm of (0, 1) and (1, 0) is the irrational sqrt(1/2)
        expr = Dist(Product(Id(), Id(), PNormEval(2, F(1, 2), F(1, 2))))
        p1 = Distribution({("a", "a"): F(1, 2), ("a", "b"): F(1, 2)})
        p2 = Distribution({("b", "b"): F(1, 2), ("b", "a"): F(1, 2)})
        for bound in (TOP_ONE, TOP_INF):
            d = table(["a", "b"], {("a", "b"): 1}, bound)
            w = lift_dist(expr, d, WASSERSTEIN, p1, p2)
            k = lift_dist(expr, d, KANTOROVICH, p1, p2)
            assert not w.is_exact and not k.is_exact
            assert abs(w.as_float() - k.as_float()) < 1e-12
            assert abs(w.as_float() - 0.5**0.5) < 1e-12

    def test_an_unused_irrational_cost_leaves_both_methods_exact(self):
        # (a, a) and (a, b) both ship to (c, c) at the exact cost 1, while
        # the irrational sqrt(1/2) between them is a cost no plan can use
        pair = Product(Id(), Id(), PNormEval(2, F(1, 2), F(1, 2)))
        expr = Dist(pair)
        p1 = Distribution({("a", "a"): F(1, 2), ("a", "b"): F(1, 2)})
        p2 = Distribution({("c", "c"): F(1)})
        ones = {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
        for bound in (TOP_ONE, TOP_INF):
            d = table(["a", "b", "c"], ones, bound)
            assert not lift_dist(pair, d, WASSERSTEIN, ("a", "a"), ("a", "b")).is_exact
            for method in (KANTOROVICH, WASSERSTEIN):
                v = lift_dist(expr, d, method, p1, p2)
                assert v.is_exact and v == Value(F(1)), method
        # seeded instances: K and W agree in value and in exactness, also
        # where an irrational cost lies among the support points and W is exact
        for bound in (TOP_ONE, TOP_INF):
            rng = random.Random(1)
            mixed = 0
            for _ in range(300):
                d = random_pseudometric(rng, bound)
                t1 = random_structure(rng, expr, d.carrier)
                t2 = random_structure(rng, expr, d.carrier)
                k = lift_dist(expr, d, KANTOROVICH, t1, t2)
                w = lift_dist(expr, d, WASSERSTEIN, t1, t2)
                assert k == w and k.is_exact == w.is_exact, (bound, t1, t2, k, w)
                points = set(t1.support()) | set(t2.support())
                mixed += w.is_exact and any(
                    not lift_dist(pair, d, WASSERSTEIN, a, b).is_exact
                    for a, b in itertools.combinations(points, 2)
                )
            assert mixed >= 2, bound


def _has_diag_square(expr):
    """A DiagSquare anywhere in expr, found by walking the node types."""
    if isinstance(expr, DiagSquare):
        return True
    if isinstance(expr, (Dist, FinPow)):
        return _has_diag_square(expr.sub)
    if isinstance(expr, (Product, Coproduct)):
        return _has_diag_square(expr.left) or _has_diag_square(expr.right)
    return False


def _random_expr(rng, bound, depth, diag):
    """A seeded expression over Id leaves, DiagSquare allowed if diag."""
    if depth == 0 or rng.random() < 0.2:
        return Id(F(rng.randint(1, 4), 4))
    nodes = ["dist", "finpow", "product", "coproduct"] + ["diagsquare"] * diag
    kind = rng.choice(nodes)
    sub = lambda: _random_expr(rng, bound, depth - 1, diag)
    if kind == "dist":
        return Dist(sub())
    if kind == "finpow":
        return FinPow(sub())
    if kind == "diagsquare":
        return DiagSquare(sub())
    if kind == "coproduct":
        return Coproduct(sub(), sub())
    c2 = F(1, 2) if bound == TOP_ONE else F(3, 4)
    evaluation = rng.choice([MaxEval(), PNormEval(1, F(1, 2), c2)])
    return Product(sub(), sub(), evaluation)


class TestMethodMatters:
    """The suites lift once where method_matters is False: there the two
    methods must be one computation."""

    def test_catalogue_nodes(self):
        rng = random.Random(31)
        for bound in (TOP_ONE, TOP_INF):
            for name, expr in node_catalogue(bound, rng):
                assert method_matters(expr) == (name == "diagsquare"), (bound, name)

    @pytest.mark.parametrize("wrap", [
        Dist,
        FinPow,
        lambda e: Coproduct(Id(), e),
        lambda e: Coproduct(e, Id()),
        lambda e: Product(Id(), e),
        lambda e: Product(e, Id(), PNormEval(1, F(1, 2), F(3, 4))),
    ], ids=["dist", "finpow", "coproduct-right", "coproduct-left", "product-right", "product-left"])
    def test_diag_square_under_each_node(self, wrap):
        inner = DiagSquare(Id(F(1, 2)))
        for expr in (wrap(inner), wrap(wrap(inner)), wrap(Dist(inner)), wrap(FinPow(Id()))):
            assert method_matters(expr) == _has_diag_square(expr), expr
        assert method_matters(wrap(inner)) and not method_matters(wrap(Id()))

    def test_seeded_nested_expressions(self):
        rng = random.Random(32)
        seen = {True: 0, False: 0}
        for _ in range(400):
            expr = _random_expr(rng, TOP_INF, 4, diag=True)
            assert method_matters(expr) == _has_diag_square(expr), expr
            seen[method_matters(expr)] += 1
        assert min(seen.values()) > 50, seen

    @pytest.mark.parametrize("bound", [TOP_ONE, TOP_INF], ids=["top-1", "top-inf"])
    def test_methods_agree_where_the_method_does_not_matter(self, bound):
        rng = random.Random(33)
        kinds = set()
        for _ in range(60):
            expr = _random_expr(rng, bound, 2, diag=bound.is_infinite)
            if method_matters(expr):
                continue
            kinds |= {type(e) for e in expr.subexprs()}
            for _ in range(4):
                d = random_pseudometric(rng, bound)
                ts = [random_structure(rng, expr, d.carrier) for _ in range(3)]
                k = LiftingEngine(expr, d, KANTOROVICH)
                w = LiftingEngine(expr, d, WASSERSTEIN)
                for t1, t2 in itertools.combinations(ts, 2):
                    vk, vw = k.dist(t1, t2), w.dist(t1, t2)
                    assert vk == vw and vk.is_exact == vw.is_exact, (expr, t1, t2)
        assert {Dist, FinPow, Product, Coproduct} <= kinds

    def test_lift_both_lifts_once_where_the_method_does_not_matter(self, monkeypatch):
        engines = []

        class Counted(LiftingEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self.method)

        monkeypatch.setattr(lifting, "LiftingEngine", Counted)
        d = table(["x1", "x2"], {("x1", "x2"): 1}, TOP_INF)
        k, w, gap = lift_both(FinPow(Id()), d, frozenset({"x1"}), frozenset({"x2"}))
        assert (k, w, gap) == (Value(F(1)), Value(F(1)), ZERO)
        assert engines == [KANTOROVICH]
        engines.clear()
        k, w, gap = lift_both(DiagSquare(Id()), d, ("x1", "x2"), ("x2", "x1"))
        assert (k, w, gap) == (ZERO, Value(F(2)), Value(F(2)))
        assert engines == [KANTOROVICH, WASSERSTEIN]


class TestLiftingProperties:
    def test_monotone_in_ground_metric(self):
        rng = random.Random(21)
        for bound in (TOP_ONE, TOP_INF):
            for name, expr in node_catalogue(bound, rng):
                for _ in range(10):
                    d_small = random_pseudometric(rng, bound, n_atoms=3)
                    # shrink every entry to get d' <= d
                    entries = {
                        (a, b): Value(v.mag if v.is_infinite else v.mag / 2)
                        for a, b, v in d_small.entries()
                    }
                    d_half = PseudometricTable(
                        d_small.carrier, entries, bound, check=False
                    )
                    t1 = random_structure(rng, expr, d_small.carrier)
                    t2 = random_structure(rng, expr, d_small.carrier)
                    for method in (KANTOROVICH, WASSERSTEIN):
                        assert lift_dist(expr, d_half, method, t1, t2) <= lift_dist(
                            expr, d_small, method, t1, t2
                        ), (name, method)

    def test_relabeling_invariance(self):
        rng = random.Random(22)
        mapping = {"a": "Q", "b": "R", "c": "S", "d": "T", "e": "U"}

        def relabel_struct(t):
            if isinstance(t, str):
                return mapping.get(t, t)
            if isinstance(t, Tagged):
                return Tagged(t.tag, relabel_struct(t.value))
            if isinstance(t, tuple):
                return tuple(relabel_struct(x) for x in t)
            if isinstance(t, frozenset):
                return frozenset(relabel_struct(x) for x in t)
            if isinstance(t, Distribution):
                return Distribution({relabel_struct(x): p for x, p in t.items})
            raise TypeError(t)

        for bound in (TOP_ONE, TOP_INF):
            for name, expr in node_catalogue(bound, rng):
                for _ in range(10):
                    d = random_pseudometric(rng, bound)
                    d2 = d.relabel({a: mapping[a] for a in d.carrier})
                    t1 = random_structure(rng, expr, d.carrier)
                    t2 = random_structure(rng, expr, d.carrier)
                    for method in (KANTOROVICH, WASSERSTEIN):
                        assert lift_dist(expr, d, method, t1, t2) == lift_dist(
                            expr, d2, method, relabel_struct(t1), relabel_struct(t2)
                        ), (name, method)

    def test_metric_preservation(self):
        # strictly positive off-diagonal ground distance: lifted distance 0
        # forces equal structures (for the duality-preserving nodes)
        rng = random.Random(23)
        for bound in (TOP_ONE, TOP_INF):
            for name, expr in node_catalogue(bound, rng):
                if name in ("id", "const", "diagsquare"):
                    continue
                for _ in range(20):
                    d = random_pseudometric(rng, bound)
                    # adding a constant off the diagonal keeps the triangle
                    # inequality and makes the ground distance a metric
                    delta = Value(F(1, 8))
                    entries = {
                        (a, b): v if v.is_infinite else min(add_ext(v, delta), top(bound))
                        for a, b, v in d.entries()
                    }
                    strict = PseudometricTable(d.carrier, entries, bound)
                    t1 = random_structure(rng, expr, d.carrier)
                    t2 = random_structure(rng, expr, d.carrier)
                    v = lift_dist(expr, strict, WASSERSTEIN, t1, t2)
                    if v.is_zero:
                        assert t1 == t2, (name, t1, t2)


class TestWellBehaved:
    def test_max_passes_everywhere(self):
        for bound in (TOP_ONE, TOP_INF):
            report = check_well_behaved("max", bound, seed=3)
            assert report.all_ok, report.witnesses

    def test_min_fails_condition2_with_known_witness(self):
        report = check_well_behaved("min", TOP_ONE, seed=3)
        assert not report.condition2_ok
        gzero, gtop = ZERO, top(TOP_ONE)
        expected = frozenset({(gzero, gtop), (gtop, gtop)})
        assert expected in report.witnesses[2]

    def test_min_fails_condition3_with_known_witness(self):
        report = check_well_behaved("min", TOP_ONE, seed=3)
        assert not report.condition3_ok
        expected = frozenset({ZERO, top(TOP_ONE)})
        assert expected in report.witnesses[3]

    def test_min_monotone(self):
        # condition 1 holds even for min; only 2 and 3 break
        for bound in (TOP_ONE, TOP_INF):
            report = check_well_behaved("min", bound, seed=3)
            assert report.condition1_ok
