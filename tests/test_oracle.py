import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest

from behametric.functors import (
    DiagSquare,
    Dist,
    Distribution,
    FinPow,
    Id,
    PseudometricTable,
)
from behametric.lifting import KANTOROVICH, WASSERSTEIN, kantorovich_linear_value, lift_dist
from behametric.oracle import (
    LinearProgram,
    OracleScaleError,
    kantorovich_vertex_oracle,
    lp_vertices,
    solve_max,
    _solve_tree,
    transportation_vertices,
    wasserstein_oracle,
)
from behametric.suites import random_distribution, random_pseudometric, random_structure
from behametric.values import TOP_INF, TOP_ONE, Value, top


def simple_metric(dist, bound=TOP_ONE):
    return PseudometricTable(
        ["a", "b"], {("a", "b"): Value(F(dist))}, bound
    )


class TestWassersteinOracle:
    def test_singleton_sets(self):
        d = simple_metric("1/3")
        v = wasserstein_oracle(FinPow(Id()), d, frozenset("a"), frozenset("b"))
        assert v == Value(F(1, 3))

    def test_one_empty_side_is_top(self):
        d = simple_metric("1/3")
        v = wasserstein_oracle(FinPow(Id()), d, frozenset(), frozenset("b"))
        assert v == top(TOP_ONE)

    def test_diag_square_unique_coupling(self):
        d = simple_metric(1, TOP_INF)
        v = wasserstein_oracle(DiagSquare(Id()), d, ("a", "b"), ("b", "a"))
        assert v == Value(F(2))

    def test_dist_matches_transportation_engine(self):
        d = simple_metric("1/3")
        p1 = Distribution({"a": F(1, 2), "b": F(1, 2)})
        p2 = Distribution({"a": F(1)})
        brute = wasserstein_oracle(Dist(Id()), d, p1, p2)
        engine = lift_dist(Dist(Id()), d, WASSERSTEIN, p1, p2)
        assert brute == engine == Value(F(1, 6))

    def test_dist_disjoint_supports(self):
        # couplings live on the two supports: 4 x 4 cells, not the 8 x 8
        # of their union
        atoms = [str(i) for i in range(8)]
        d = PseudometricTable(
            atoms,
            {(a, b): Value(F(abs(int(a) - int(b)), 8)) for a in atoms for b in atoms if a < b},
            TOP_ONE,
        )
        p1 = Distribution({"0": F(1, 10), "1": F(2, 10), "2": F(3, 10), "3": F(4, 10)})
        p2 = Distribution({"4": F(1, 4), "5": F(1, 4), "6": F(1, 4), "7": F(1, 4)})
        brute = wasserstein_oracle(Dist(Id()), d, p1, p2)
        assert brute == lift_dist(Dist(Id()), d, WASSERSTEIN, p1, p2)

    def test_argument_must_be_id(self):
        d = simple_metric("1/3")
        p = Distribution({"a": F(1)})
        with pytest.raises(OracleScaleError, match="argument Dist"):
            wasserstein_oracle(Dist(Dist(Id())), d, p, p)


class TestTransportationVertices:
    def test_marginals_hold_at_every_vertex(self):
        rng = random.Random(9)
        for _ in range(15):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            supply = [F(rng.randint(1, 4)) for _ in range(m)]
            demand = [F(rng.randint(1, 4)) for _ in range(n)]
            ts, td = sum(supply), sum(demand)
            supply = [s / ts for s in supply]
            demand = [d / td for d in demand]
            count = 0
            for plan in transportation_vertices(supply, demand):
                count += 1
                assert [sum(row) for row in plan] == supply
                assert [sum(col) for col in zip(*plan)] == demand
            assert count >= 1


def _box(n, hi):
    """The rows x_i <= hi of the box [0, hi]^n."""
    return [([F(k == i) for k in range(n)], hi) for i in range(n)]


class TestLpVertexOracle:
    def test_one_variable_box(self):
        lp = LinearProgram([F(1)], _box(1, F(1)))
        assert kantorovich_vertex_oracle(lp) == 1

    def test_counterexample_lp_value_zero(self):
        # one shared test function on {x1, x2}, objective
        # f(x1)+f(x2)-f(x2)-f(x1): identically zero over the whole polytope
        lp = LinearProgram(
            objective=[F(0), F(0)],
            constraints=_box(2, F(1)) + [
                ([F(1), F(-1)], F(1)),
                ([F(-1), F(1)], F(1)),
            ],
        )
        assert kantorovich_vertex_oracle(lp) == 0

    def test_matches_simplex_on_random_lps(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 4)
            obj = [F(rng.randint(-3, 3)) for _ in range(n)]
            cons = []
            for _ in range(rng.randint(0, 4)):
                cons.append(
                    (
                        [F(rng.randint(-2, 2)) for _ in range(n)],
                        F(rng.randint(1, 4)),
                    )
                )
            lp = LinearProgram(obj, _box(n, F(3)) + cons)
            try:
                vertex_best = kantorovich_vertex_oracle(lp)
            except OracleScaleError:
                continue
            value, _ = solve_max(lp)
            assert value == vertex_best

    def test_variable_cap(self):
        lp = LinearProgram([F(1)] * 7, _box(7, F(1)))
        with pytest.raises(OracleScaleError):
            kantorovich_vertex_oracle(lp)

    def test_vertices_are_feasible(self):
        lp = LinearProgram([F(1), F(2)], _box(2, F(1)) + [([F(1), F(1)], F(1))])
        vs = list(lp_vertices(lp))
        assert [F(0), F(0)] in vs and [F(0), F(1)] in vs and [F(1), F(0)] in vs
        for v in vs:
            assert v[0] + v[1] <= 1


def _solve(equations, nvars):
    """The unique solution of the (coefficients, rhs) equations by Fraction
    Gauss-Jordan elimination; None when there is none or it is not unique."""
    aug = [[*coeffs, rhs] for coeffs, rhs in equations]
    for col in range(nvars):
        p = next((r for r in range(col, len(aug)) if aug[r][col]), None)
        if p is None:
            return None
        aug[col], aug[p] = aug[p], aug[col]
        pivot = [v / aug[col][col] for v in aug[col]]
        aug[col] = pivot
        aug = [row if r == col or not row[col] else
               [v - row[col] * w for v, w in zip(row, pivot)] for r, row in enumerate(aug)]
    if any(row[nvars] for row in aug[nvars:]):
        return None
    return tuple(row[nvars] for row in aug[:nvars])


def _reference_vertices(lp):
    """The feasible solutions of every square active set, each system solved
    on its own."""
    n = len(lp.objective)
    planes = [([F(k == i) for k in range(n)], F(0)) for i in range(n)] + lp.constraints
    out = set()
    for active in itertools.combinations(planes, n):
        x = _solve(active, n)
        if x is not None and all(xi >= 0 for xi in x) and all(
            sum(c * xi for c, xi in zip(coeffs, x)) <= rhs for coeffs, rhs in lp.constraints
        ):
            out.add(x)
    return out


def _reference_plans(supply, demand):
    """The nonnegative plans of every (m+n-1)-cell set whose marginal
    equations have one solution."""
    m, n = len(supply), len(demand)
    cells = [(i, j) for i in range(m) for j in range(n)]
    plans = set()
    for basis in itertools.combinations(cells, m + n - 1):
        equations = [([F(i == a) for a, _ in basis], s) for i, s in enumerate(supply)]
        equations += [([F(j == b) for _, b in basis], t) for j, t in enumerate(demand)]
        flow = _solve(equations, len(basis))
        if flow is not None and min(flow) >= 0:
            plan = dict(zip(basis, flow))
            plans.add(tuple(tuple(plan.get((i, j), F(0)) for j in range(n)) for i in range(m)))
    return plans


def _combination_plans(supply, demand):
    """transportation_vertices as a plain loop over every (m+n-1)-cell set
    in itertools.combinations order, each peeled by _solve_tree."""
    m, n = len(supply), len(demand)
    unit = lcm(*(F(x).denominator for x in (*supply, *demand)))
    masses = [int(F(x) * unit) for x in (*supply, *demand)]
    cells = [(i, j) for i in range(m) for j in range(n)]
    plans, seen = [], set()
    for subset in itertools.combinations(cells, m + n - 1):
        flow = _solve_tree(masses, m, subset)
        if flow is None:
            continue
        key = tuple((c, flow[c]) for c in subset if flow[c])
        if key not in seen:
            seen.add(key)
            plan = dict(key)
            plans.append(tuple(
                tuple(F(plan.get((i, j), 0), unit) for j in range(n)) for i in range(m)
            ))
    return plans


def _random_row(rng, n):
    kind = rng.random()
    if kind < 0.15:  # all-zero coefficients
        return [F(0)] * n, F(rng.randint(0, 2))
    rhs = F(0) if kind < 0.35 else F(rng.randint(1, 6), rng.randint(1, 3))
    return [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)], rhs


class TestAgainstSquareSystems:
    """The depth-first integer enumerations find what solving every square
    system on its own finds, each vertex once."""

    def test_lp_vertices(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(0, 3)):
                row = _random_row(rng, n)
                rows.append(row)
                if rng.random() < 0.2:  # a duplicate or a multiple
                    rows.append(rng.choice([row, ([3 * c for c in row[0]], 3 * row[1])]))
            if rng.random() < 0.5:
                rows += _box(n, F(rng.randint(0, 3)))
            lp = LinearProgram([F(0)] * n, rows)
            found = [tuple(v) for v in lp_vertices(lp)]
            assert len(found) == len(set(found))
            assert set(found) == _reference_vertices(lp), rows
            assert all(type(x) is F for v in found for x in v)

    def test_transportation_vertices(self):
        rng = random.Random(6)
        for _ in range(80):
            # integer masses, zeros included, split into demands at random cuts
            supply = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
            supply[0] += 1
            total = sum(supply)
            cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 2)))
            demand = [F(b - a, total) for a, b in zip([0, *cuts], [*cuts, total])]
            supply = [F(s, total) for s in supply]
            found = [tuple(map(tuple, plan)) for plan in transportation_vertices(supply, demand)]
            assert len(found) == len(set(found))
            assert set(found) == _reference_plans(supply, demand), (supply, demand)
            assert all(type(x) is F for plan in found for row in plan for x in row)

    def test_transportation_vertices_prune_only_cycles(self):
        # the walk skips cell sets that hold a cycle; the plain loop over
        # every (m+n-1)-cell set, peeled by _solve_tree, finds the same
        # plans in the same order
        rng = random.Random(8)

        def masses(k):  # zero masses included
            xs = [rng.choice([0, 0, 1, 2, 3]) for _ in range(k)]
            xs[rng.randrange(k)] += 1
            return [F(x, sum(xs)) for x in xs]

        for m, n in itertools.product(range(1, 5), repeat=2):
            for _ in range(4):
                supply, demand = masses(m), masses(n)
                found = [tuple(map(tuple, plan)) for plan in transportation_vertices(supply, demand)]
                assert found == _combination_plans(supply, demand), (supply, demand)

    def test_degenerate_vertex_yielded_once(self):
        # six rows through (1, 1) of the unit square: x1 <= 1 twice, x2 <= 1
        # and three diagonals, so every pair but the twice-written row is an
        # active set of that corner
        rows = _box(2, F(1)) + _box(2, F(1))[:1] + [
            ([F(1), F(1)], F(2)),
            ([F(2), F(1)], F(3)),
            ([F(1), F(2)], F(3)),
        ]
        lp = LinearProgram([F(1), F(1)], rows)
        corner = (F(1), F(1))
        meeting = [a for a in itertools.combinations(rows, 2) if _solve(a, 2) == corner]
        assert len(meeting) == 14
        found = [tuple(v) for v in lp_vertices(lp)]
        assert found.count(corner) == 1
        assert set(found) == {(0, 0), (1, 0), (0, 1), corner}


class TestBudget:
    def test_support_cap(self):
        d = random_pseudometric(random.Random(0), TOP_ONE, n_atoms=5)
        p1 = Distribution({a: F(1, 5) for a in d.carrier})
        p2 = Distribution({d.carrier[0]: F(1)})
        with pytest.raises(OracleScaleError):
            wasserstein_oracle(Dist(Id()), d, p1, p2)


def _both_orientations(points, coeffs, d, bound):
    """The largest |sum coeffs * f| over the vertices of the nonexpansive
    f: points -> [0, hi], with the LP written out here: the larger optimum
    of the two orientations, +coeffs and -coeffs, from one enumeration."""
    pairs = [
        (i, j, d.get(points[i], points[j]))
        for i in range(len(points))
        for j in range(i + 1, len(points))
    ]
    finite = [(i, j, v.as_fraction()) for i, j, v in pairs if not v.is_infinite]
    hi = bound.limit if not bound.is_infinite else sum(q for _, _, q in finite)
    rows = []
    for i, j, q in finite:
        row = [F(0)] * len(points)
        row[i], row[j] = F(1), F(-1)
        rows += [(row, q), ([-c for c in row], q)]
    rows += _box(len(points), hi)
    return max(
        abs(sum(c * x for c, x in zip(coeffs, v)))
        for v in lp_vertices(LinearProgram(coeffs, rows))
    )


class TestKantorovichOrientation:
    """The transport that computes the Kantorovich lifting gives the
    supremum of the absolute value: the larger LP optimum of the two
    orientations."""

    def test_dist_pairs_match_both_orientations(self):
        rng = random.Random(17)
        for _ in range(15):
            d = random_pseudometric(rng, TOP_ONE, n_atoms=rng.randint(2, 4))
            p1 = random_distribution(rng, d.carrier)
            p2 = random_distribution(rng, d.carrier)
            points = sorted(set(p1.support()) | set(p2.support()))
            coeffs = [p1.prob(x) - p2.prob(x) for x in points]
            brute = _both_orientations(points, coeffs, d, TOP_ONE)
            cost = lambda i, j: d.get(points[i], points[j])
            assert kantorovich_linear_value(coeffs, cost) == Value(brute)
            assert lift_dist(Dist(Id()), d, KANTOROVICH, p1, p2) == Value(brute)

    def test_diag_square_pairs_match_both_orientations(self):
        # the diagonal square lives under top = inf only
        rng = random.Random(23)
        finite = 0
        for _ in range(60):
            d = random_pseudometric(rng, TOP_INF, n_atoms=rng.randint(2, 4))
            t1 = random_structure(rng, DiagSquare(Id()), d.carrier)
            t2 = random_structure(rng, DiagSquare(Id()), d.carrier)
            engine = lift_dist(DiagSquare(Id()), d, KANTOROVICH, t1, t2)
            if engine.is_infinite:
                continue
            points = sorted({*t1, *t2})
            coeffs = [t1.count(x) - t2.count(x) for x in points]
            assert engine == Value(_both_orientations(points, coeffs, d, TOP_INF))
            finite += 1
        assert finite >= 30
