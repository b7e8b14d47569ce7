import itertools
import random
from fractions import Fraction as F

import pytest

from behametric import lp
from behametric.lp import TransportationInstance, solve_transportation
from behametric.oracle import (
    LinearProgram,
    kantorovich_vertex_oracle,
    solve_max,
    transportation_vertices,
)
from behametric.values import INF, Value


def _box(n, hi):
    """The rows x_i <= hi of the box [0, hi]^n."""
    return [([F(k == i) for k in range(n)], hi) for i in range(n)]


class TestSolveMax:
    """The tableau simplex that referees the Kantorovich lifting."""

    def test_box_only(self):
        lp = LinearProgram([F(1)], _box(1, F(1)))
        value, witness = solve_max(lp)
        assert value == 1 and witness == [F(1)]

    def test_simple_constraint(self):
        lp = LinearProgram([F(1), F(1)], _box(2, F(1)) + [([F(1), F(1)], F(1))])
        value, _ = solve_max(lp)
        assert value == 1

    def test_kantorovich_lp_value(self):
        # P1 = {a: 1/2, b: 1/2}, P2 = {a: 1, b: 0}, d(a,b) = 1/3, top = 1.
        # Verified against exhaustive vertex enumeration of the polytope
        # {0 <= f <= 1, |f(a) - f(b)| <= 1/3}.
        lp = LinearProgram(
            objective=[F(1, 2) - F(1), F(1, 2)],
            constraints=_box(2, F(1)) + [
                ([F(1), F(-1)], F(1, 3)),
                ([F(-1), F(1)], F(1, 3)),
            ],
        )
        value, witness = solve_max(lp)
        assert value == F(1, 6)
        assert value == kantorovich_vertex_oracle(lp)
        # witness feasibility and exact attainment
        assert all(F(0) <= x <= F(1) for x in witness)
        assert abs(witness[0] - witness[1]) <= F(1, 3)
        assert sum(c * x for c, x in zip(lp.objective, witness)) == value

    @pytest.mark.parametrize(
        "constraints",
        [
            [([F(1)], ">=", F(1, 4))],
            [([F(1)], "=", F(1, 4))],
            [([F(1)], F(-1))],
        ],
        ids=["ge-row", "eq-row", "negative-rhs"],
    )
    def test_rejects_what_the_polytope_cannot_hold(self, constraints):
        with pytest.raises(ValueError, match="constraint 0"):
            LinearProgram([F(1)], constraints)

    def test_zero_width_box_pins_the_variable(self):
        lp = LinearProgram([F(1), F(2)], [([F(1), F(0)], F(0)), ([F(0), F(1)], F(1))])
        assert solve_max(lp) == (F(2), [F(0), F(1)])

    def test_unbounded_lp_is_infinite(self):
        # x1 - x2 <= 1 leaves the ray x1 = x2 -> inf open to 1 + 1 = 2
        assert solve_max(LinearProgram([F(1), F(1)], [([F(1), F(-1)], F(1))])) == (INF, None)
        assert solve_max(LinearProgram([F(1)])) == (INF, None)
        # a nonpositive objective needs no row to stay bounded
        assert solve_max(LinearProgram([F(-1), F(0)])) == (F(0), [F(0), F(0)])

    def test_witness_attains_value_on_random_lps(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 4)
            obj = [F(rng.randint(-3, 3)) for _ in range(n)]
            cons = []
            for _ in range(rng.randint(0, 3)):
                cons.append(
                    (
                        [F(rng.randint(-2, 2)) for _ in range(n)],
                        F(rng.randint(0, 4), rng.randint(1, 3)),
                    )
                )
            lp = LinearProgram(obj, _box(n, F(2)) + cons)
            value, witness = solve_max(lp)
            assert sum(c * x for c, x in zip(obj, witness)) == value
            assert all(F(0) <= x <= F(2) for x in witness)
            for coeffs, rhs in cons:
                assert sum(c * x for c, x in zip(coeffs, witness)) <= rhs


def _cost(mags):
    return [[Value(INF) if m == "inf" else Value(F(m)) for m in row] for row in mags]


class TestTransportation:
    def test_single_point(self):
        inst = TransportationInstance([F(1)], [F(1)], _cost([["1/2"]]))
        value, plan = solve_transportation(inst)
        assert value.is_zero is False and value == Value(F(1, 2))
        assert plan == [[F(1)]]

    def test_identical_marginals_zero(self):
        inst = TransportationInstance(
            [F(1, 2), F(1, 2)],
            [F(1, 2), F(1, 2)],
            _cost([[0, "9/10"], ["9/10", 0]]),
        )
        value, _ = solve_transportation(inst)
        assert value.is_zero

    def test_worked_probabilistic_pair(self):
        # marginals {u: 9/20, z: 11/20} vs {u: 1/2, z: 1/2} over the ground
        # distance with cross cost 9/10: the optimum moves mass 1/20
        inst = TransportationInstance(
            [F(9, 20), F(11, 20)],
            [F(1, 2), F(1, 2)],
            _cost([[0, "9/10"], ["9/10", 0]]),
        )
        value, plan = solve_transportation(inst)
        assert value == Value(F(9, 200))
        # plan is a feasible coupling
        assert [sum(row) for row in plan] == inst.supply
        assert [sum(col) for col in zip(*plan)] == inst.demand

    def test_forbidden_cells_infeasible(self):
        inst = TransportationInstance(
            [F(1)], [F(1)], [[Value(INF)]]
        )
        value, plan = solve_transportation(inst)
        assert value.is_infinite and plan is None

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TransportationInstance([F(1)], [F(1, 2)], _cost([["1/2"]]))

    def test_matches_vertex_oracle_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            supply = [F(rng.randint(1, 5)) for _ in range(m)]
            demand = [F(rng.randint(1, 5)) for _ in range(n)]
            total_s, total_d = sum(supply), sum(demand)
            supply = [s / total_s for s in supply]
            demand = [d / total_d for d in demand]
            cost = [
                [Value(F(rng.randint(0, 8), 8)) for _ in range(n)]
                for _ in range(m)
            ]
            inst = TransportationInstance(supply, demand, cost)
            value, _ = solve_transportation(inst)
            best = min(
                sum(
                    (cost[i][j].as_fraction() * plan[i][j] for i in range(m) for j in range(n)),
                    F(0),
                )
                for plan in transportation_vertices(supply, demand)
            )
            assert value.as_fraction() == best

    def test_zero_value_iff_zero_cost_plan_exists(self):
        rng = random.Random(5)
        for _ in range(30):
            m = n = 2
            supply = [F(1, 2), F(1, 2)]
            demand = [F(1, 4), F(3, 4)]
            cost = [
                [Value(F(rng.choice([0, 0, 1]), 2)) for _ in range(n)]
                for _ in range(m)
            ]
            inst = TransportationInstance(supply, demand, cost)
            value, _ = solve_transportation(inst)
            zero_plan_exists = any(
                all(
                    plan[i][j] == 0 or cost[i][j].is_zero
                    for i in range(m)
                    for j in range(n)
                )
                for plan in transportation_vertices(supply, demand)
            )
            assert value.is_zero == zero_plan_exists


def _random_mass(rng, k):
    # zero entries give zero-mass rows and columns
    weights = [F(rng.choice([0, 0, 1, 2, 3])) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = F(1)
    total = sum(weights)
    return [w / total for w in weights]


def _plan_cost(cost, plan):
    return sum(
        (cost[i][j].as_fraction() * x for i, row in enumerate(plan) for j, x in enumerate(row) if x),
        F(0),
    )


def _oracle_value(supply, demand, cost):
    """Least cost over the vertices that avoid the forbidden cells, or INF."""
    costs = [
        _plan_cost(cost, plan)
        for plan in transportation_vertices(supply, demand)
        if not any(x and cost[i][j].is_infinite for i, row in enumerate(plan) for j, x in enumerate(row))
    ]
    return min(costs) if costs else INF


class TestTransportationSimplex:
    def test_matches_vertex_oracle_with_forbidden_cells(self):
        rng = random.Random(23)
        for _ in range(150):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            supply, demand = _random_mass(rng, m), _random_mass(rng, n)
            cost = [
                [
                    Value(INF) if rng.random() < 0.3 else Value(F(rng.randint(0, 12), 4))
                    for _ in range(n)
                ]
                for _ in range(m)
            ]
            value, plan = solve_transportation(TransportationInstance(supply, demand, cost))
            expected = _oracle_value(supply, demand, cost)
            if expected is INF:
                assert value.is_infinite and plan is None
                continue
            assert value == Value(expected)
            # the plan is an exact coupling of the marginals; _plan_cost
            # raises on mass in a forbidden cell
            assert [sum(row) for row in plan] == supply
            assert [sum(col) for col in zip(*plan)] == demand
            assert all(x >= 0 for row in plan for x in row)
            assert _plan_cost(cost, plan) == expected

    def test_fully_degenerate_instance_terminates(self):
        supply = demand = [F(1, 4)] * 4
        value, plan = solve_transportation(
            TransportationInstance(supply, demand, _cost([["1/2"] * 4] * 4))
        )
        assert value == Value(F(1, 2))
        assert [sum(row) for row in plan] == supply
        assert [sum(col) for col in zip(*plan)] == demand

    def test_every_instance_without_a_finite_plan_is_infinite(self):
        # each row may use only its own column, but the marginals differ
        inf, one = Value(INF), Value(F(1))
        cost = [[one, inf], [inf, one]]
        for supply, demand in (
            ([F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]),
            ([F(1), F(0)], [F(0), F(1)]),
        ):
            value, plan = solve_transportation(TransportationInstance(supply, demand, cost))
            assert value.is_infinite and plan is None
        # every cell carrying mass is forbidden
        value, plan = solve_transportation(
            TransportationInstance([F(0), F(1)], [F(1)], [[one], [inf]])
        )
        assert value.is_infinite and plan is None

    def test_zero_mass_rows_may_touch_forbidden_cells(self):
        inf, half = Value(INF), Value(F(1, 2))
        inst = TransportationInstance([F(0), F(1)], [F(1), F(0)], [[inf, inf], [half, inf]])
        value, plan = solve_transportation(inst)
        assert value == half and plan == [[F(0), F(0)], [F(1), F(0)]]


def _random_cost(rng, m, n, doubles):
    """Costs in quarters, or doubles; about a third of the cells forbidden,
    and now and then every cell."""
    if rng.random() < 0.1:
        return [[Value(INF)] * n for _ in range(m)]

    def cell():
        if rng.random() < 0.3:
            return Value(INF)
        if doubles and rng.random() < 0.5:
            return Value(rng.uniform(0, 3))
        return Value(F(rng.randint(0, 12), 4))

    return [[cell() for _ in range(n)] for _ in range(m)]


def _assert_feasible(inst, plan):
    assert [sum(row) for row in plan] == inst.supply
    assert [sum(col) for col in zip(*plan)] == inst.demand
    assert all(x >= 0 for row in plan for x in row)
    assert not any(
        x and inst.cost[i][j].is_infinite for i, row in enumerate(plan) for j, x in enumerate(row)
    )


class TestWarmStart:
    """A solve after the first starts from the instance's last optimal
    basis; only the costs change in between."""

    @pytest.mark.parametrize("doubles", [False, True], ids=["exact", "double"])
    def test_warm_solve_equals_cold_solve(self, doubles):
        rng = random.Random(37)
        warm = 0
        for _ in range(120):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            # zero masses leave zero-flow cells in every basis
            supply, demand = _random_mass(rng, m), _random_mass(rng, n)
            inst = TransportationInstance(supply, demand, _random_cost(rng, m, n, doubles))
            _, plan = solve_transportation(inst)
            for _ in range(4):
                earlier = plan and (plan, [row[:] for row in plan])
                warm += inst.basis is not None
                inst.cost = _random_cost(rng, m, n, doubles)
                value, plan = solve_transportation(inst)
                cold, _ = solve_transportation(TransportationInstance(supply, demand, inst.cost))
                assert value == cold and type(value.mag) is type(cold.mag)
                if earlier:  # a plan handed back before is left as it was
                    assert earlier[0] == earlier[1]
                if value.is_infinite:
                    assert plan is None
                    continue
                _assert_feasible(inst, plan)
                exact = _plan_cost(inst.cost, plan)
                assert value.mag == (exact if value.is_exact else float(exact))
        assert warm > 300


def _reduced_costs(cost, rows):
    """Each cell's reduced cost c_ij - u_i - v_j on the basis whose row i
    holds the columns rows[i], with u_0 = 0, as a pair (forbidden part,
    finite part) ordered lexicographically: a forbidden cell costs (1, 0),
    any other (0, its exact rational).  The potentials are solved over
    Fractions by sweeping the basic cells until each is known."""
    m, n = len(cost), len(cost[0])
    c = {
        (i, j): (1, F(0)) if v.is_infinite else (0, v.as_fraction())
        for i, row in enumerate(cost) for j, v in enumerate(row)
    }

    def minus(a, b):
        return a[0] - b[0], a[1] - b[1]

    basic = [(i, j) for i in range(m) for j in rows[i]]
    u, v = {0: (0, F(0))}, {}
    for _ in range(m + n):
        for i, j in basic:
            if i in u and j not in v:
                v[j] = minus(c[i, j], u[i])
            elif j in v and i not in u:
                u[i] = minus(c[i, j], v[j])
    assert len(u) == m and len(v) == n, "the basis is no spanning tree"
    return {cell: minus(minus(c[cell], u[cell[0]]), v[cell[1]]) for cell in c}


def _negative_cells(cost, rows):
    """The cells of negative reduced cost, in row-major order."""
    reduced = _reduced_costs(cost, rows)
    return [cell for cell in sorted(reduced) if reduced[cell] < (0, 0)]


def _spy_on_pivots(monkeypatch, inst_of):
    """Check each pivot's entering cell against _negative_cells on the
    instance inst_of() is solving; returns the list of entered cells."""
    entered, pivot = [], lp._pivot_cycle

    def spy(plan, rows, cols, i0, j0):
        negative = _negative_cells(inst_of().cost, rows)
        assert negative and negative[0] == (i0, j0), (negative, (i0, j0))
        entered.append((i0, j0))
        return pivot(plan, rows, cols, i0, j0)

    monkeypatch.setattr(lp, "_pivot_cycle", spy)
    return entered


class TestBlandPricing:
    """The entering cell is the first cell in row-major order whose reduced
    cost is negative, and a solve stops only where no cell has one."""

    @pytest.mark.parametrize("doubles", [False, True], ids=["exact", "double"])
    def test_entering_cells_on_warm_sequences(self, monkeypatch, doubles):
        # the seeded sequences of test_warm_solve_equals_cold_solve
        rng = random.Random(37)
        current = []
        entered = _spy_on_pivots(monkeypatch, lambda: current[-1])
        for _ in range(120):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            supply, demand = _random_mass(rng, m), _random_mass(rng, n)
            inst = TransportationInstance(supply, demand, _random_cost(rng, m, n, doubles))
            current.append(inst)
            for k in range(5):
                if k:
                    inst.cost = _random_cost(rng, m, n, doubles)
                solve_transportation(inst)
                assert _negative_cells(inst.cost, inst.basis[1]) == []
        assert len(entered) > 100

    def test_consecutive_warm_solves_each_pivot(self, monkeypatch):
        # the zero-cost permutation shifts every solve, so each solve moves
        # the basis its last solve left: a walk kept past a pivot would
        # price the new basis by the old tree
        costs = [
            _cost([[0 if j == (i + k) % 3 else 1 for j in range(3)] for i in range(3)])
            for k in range(8)
        ]
        inst = TransportationInstance([F(1, 3)] * 3, [F(1, 3)] * 3, costs[0])
        entered = _spy_on_pivots(monkeypatch, lambda: inst)
        for cost in costs:
            inst.cost, before = cost, len(entered)
            value, plan = solve_transportation(inst)
            assert len(entered) > before
            assert value == Value(F(0)) and _plan_cost(cost, plan) == 0
            _assert_feasible(inst, plan)


def _wide_cost(rng, m, n):
    """A fifth of the cells forbidden; the others doubles from the least
    subnormal to 2**500, or Fractions with 500-bit denominators."""

    def cell():
        r = rng.random()
        if r < 0.2:
            return Value(INF)
        if r < 0.4:
            return Value(F(rng.getrandbits(520), rng.getrandbits(500) | 1 << 499))
        if r < 0.5:
            return Value(5e-324 * rng.randint(0, 2**20))
        if r < 0.8:
            return Value(rng.random() * 2.0 ** rng.randint(-1074, 500))
        return Value(rng.uniform(0, 3))

    return [[cell() for _ in range(n)] for _ in range(m)]


class TestDoubleCosts:
    """A double is priced at its exact binary value: the optimum over the
    transport vertices, rounded once to the nearest double."""

    def test_matches_vertex_oracle_across_the_double_range(self):
        rng = random.Random(41)
        rounded = 0
        for _ in range(80):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            supply, demand = _random_mass(rng, m), _random_mass(rng, n)
            inst = TransportationInstance(supply, demand, _wide_cost(rng, m, n))
            for _ in range(4):  # a cold solve, then warm ones on new costs
                value, plan = solve_transportation(inst)
                expected = _oracle_value(supply, demand, inst.cost)
                if expected is INF:
                    assert value.is_infinite and plan is None
                else:
                    doubles = any(not v.is_exact for row in inst.cost for v in row)
                    assert type(value.mag) is (float if doubles else F)
                    assert value.mag == (float(expected) if doubles else expected)
                    _assert_feasible(inst, plan)
                    assert _plan_cost(inst.cost, plan) == expected
                    rounded += doubles and float(expected) != expected
                inst.cost = _wide_cost(rng, m, n)
        assert rounded > 50
