"""Kantorovich and Wasserstein liftings over the functor grammar.

Both liftings are computed recursively: every node lifts the distance that
recursively lifting its children produced.  Wherever a closed form is known
(identity, constants, coproduct, products, the Hausdorff form on finite sets)
both methods share it; the distribution node solves a transportation problem
(Wasserstein) or the nonexpansive-function LP (Kantorovich); the diagonal
square is the one node where the two genuinely disagree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .functors import (
    Coproduct,
    Const,
    DiagSquare,
    Dist,
    FinPow,
    FunctorExpr,
    Id,
    Product,
    ShapeError,
    combine_product,
    sorted_structs,
)
from .lp import LinearProgram, TransportationInstance, solve_max, solve_transportation
from .values import (
    INF,
    ConfigurationError,
    TopBound,
    Value,
    add_ext,
    dist_e,
    inf_fin,
    scale,
    sup_fin,
    top,
    zero,
)

KANTOROVICH = "kantorovich"
WASSERSTEIN = "wasserstein"
METHODS = (KANTOROVICH, WASSERSTEIN)


class LiftingEngine:
    """Lift one ground pseudometric through one expression, memoized.

    Reuse a single engine when evaluating many structure pairs against the
    same table (the fixed-point loop does exactly that).
    """

    def __init__(self, expr: FunctorExpr, d, method: str = WASSERSTEIN):
        if method not in METHODS:
            raise ConfigurationError(f"unknown lifting method {method!r}")
        self.expr = expr
        self.d = d
        self.method = method
        self.bound = d.bound
        self._memo = {}

    def dist(self, t1, t2) -> Value:
        return self._lift(self.expr, t1, t2)

    # -- recursion ----------------------------------------------------------

    def _lift(self, expr, t1, t2) -> Value:
        # structures are canonical and hashable, so they key the memo as is
        key = (id(expr), t1, t2)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._lift_raw(expr, t1, t2)
        self._memo[key] = self._memo[(id(expr), t2, t1)] = out  # symmetry for free
        return out

    def _lift_raw(self, expr, t1, t2) -> Value:
        if isinstance(expr, Id):
            return scale(self.d.get(t1, t2), expr.discount)
        if isinstance(expr, Const):
            return expr.space.get(t1, t2)
        if isinstance(expr, Coproduct):
            if t1.tag != t2.tag:
                return top(self.bound)
            side = expr.left if t1.tag == "left" else expr.right
            return self._lift(side, t1.value, t2.value)
        if isinstance(expr, Product):
            v1 = self._lift(expr.left, t1[0], t2[0])
            v2 = self._lift(expr.right, t1[1], t2[1])
            return combine_product(expr.eval, v1, v2)
        if isinstance(expr, FinPow):
            return self._hausdorff(expr.sub, t1, t2)
        if isinstance(expr, Dist):
            return self._dist_node(expr.sub, t1, t2)
        if isinstance(expr, DiagSquare):
            return self._diag_node(expr.sub, t1, t2)
        raise ShapeError(f"unknown expression node {expr!r}")

    def _hausdorff(self, sub, s1: frozenset, s2: frozenset) -> Value:
        """max of the two directed max-min distances; the empty set is at
        distance 0 from itself and top from anything else."""
        if not s1 and not s2:
            return zero(self.bound)
        if not s1 or not s2:
            return top(self.bound)
        xs2 = sorted_structs(s2)
        rows = [[self._lift(sub, a, b) for b in xs2] for a in sorted_structs(s1)]
        d1 = sup_fin(inf_fin(row) for row in rows)
        d2 = sup_fin(inf_fin(col) for col in zip(*rows))
        return sup_fin([d1, d2])

    def _dist_node(self, sub, p1, p2) -> Value:
        # the lifted ground distance is a pseudometric, so mass common to
        # both distributions can stay in place at zero cost, and points with
        # equal weight never constrain the optimal test function beyond what
        # the triangle inequality already implies; both reductions are exact
        # and shrink the solver inputs considerably
        union = sorted_structs(set(p1.support()) | set(p2.support()))
        diff = {x: p1.prob(x) - p2.prob(x) for x in union}
        points = [x for x in union if diff[x]]
        if not points:
            return zero(self.bound)
        if self.method == WASSERSTEIN:
            sources = [x for x in points if diff[x] > 0]
            sinks = [x for x in points if diff[x] < 0]
            cost = [[self._lift(sub, a, b) for b in sinks] for a in sources]
            value, _ = solve_transportation(TransportationInstance(
                [diff[x] for x in sources], [-diff[x] for x in sinks], cost
            ))
            return value
        return self._kantorovich(sub, points, [diff[x] for x in points])

    def _diag_node(self, sub, t1, t2) -> Value:
        if self.method == WASSERSTEIN:
            # projections force the single coupling ((a1,b1),(a2,b2))
            return add_ext(
                self._lift(sub, t1[0], t2[0]), self._lift(sub, t1[1], t2[1])
            )
        points = sorted_structs({t1[0], t1[1], t2[0], t2[1]})
        index = {x: i for i, x in enumerate(points)}
        coeffs = [Fraction(0)] * len(points)
        for a in (t1[0], t1[1]):
            coeffs[index[a]] += 1
        for b in (t2[0], t2[1]):
            coeffs[index[b]] -= 1
        return self._kantorovich(sub, points, coeffs)

    def _kantorovich(self, sub, points, coeffs) -> Value:
        """The Kantorovich LP over points, its ground distances lifted
        through sub."""
        ground = {
            (i, j): self._lift(sub, points[i], points[j])
            for i in range(len(points))
            for j in range(i + 1, len(points))
        }
        return kantorovich_linear_value(ground, coeffs, self.bound)


def lift_dist(expr: FunctorExpr, d, method: str, t1, t2) -> Value:
    """One-shot lifted distance between two structures."""
    return LiftingEngine(expr, d, method).dist(t1, t2)


def duality_gap(expr: FunctorExpr, d, t1, t2) -> Value:
    """wasserstein minus kantorovich; nonnegative, and zero on every node
    except possibly the diagonal square."""
    w = lift_dist(expr, d, WASSERSTEIN, t1, t2)
    k = lift_dist(expr, d, KANTOROVICH, t1, t2)
    if w < k:
        raise AssertionError(f"wasserstein {w} below kantorovich {k}")
    return dist_e(w, k)


# ---------------------------------------------------------------------------
# the shared Kantorovich LP: sup of a linear functional over nonexpansive f


def kantorovich_linear_value(ground, coeffs, bound: TopBound) -> Value:
    """sup |sum coeffs[i] * f(i)| over f: points -> [0, top] nonexpansive
    w.r.t. the ground distances (a dict (i, j) -> Value for i < j).

    The coefficients sum to zero, so shifting f by a constant leaves the sum
    unchanged.  Under a finite top every ground distance is at most top, so a
    nonexpansive f >= 0 spreads over at most top and shifts into [0, top]:
    the box never binds and is left out of the LP.  The same shift makes one
    orientation enough, since f -> c - f keeps nonexpansiveness and negates
    the sum.  Under top = inf a component of finite distances whose
    coefficients have a nonzero net shifts without bound; the LP is then
    unbounded and reports the infinite supremum itself.
    """
    assert sum(coeffs) == 0, "Kantorovich coefficients must sum to zero"
    inexact = any(not v.is_exact for v in ground.values())
    finite_pairs = [
        (i, j, v.as_fraction()) for (i, j), v in ground.items() if not v.is_infinite
    ]
    best, _ = solve_max(kantorovich_lp(coeffs, finite_pairs))
    return Value(float(best) if inexact else best, bound)


def kantorovich_lp(coeffs, finite_pairs) -> LinearProgram:
    """max sum coeffs[i] * f(i) over f >= 0 with |f(i) - f(j)| <= q for
    every finite pair (i, j, q)."""
    n = len(coeffs)
    constraints = []
    for i, j, q in finite_pairs:
        row = [Fraction(0)] * n
        row[i], row[j] = Fraction(1), Fraction(-1)
        constraints += [(row, q), ([-c for c in row], q)]
    return LinearProgram(coeffs, constraints)


# ---------------------------------------------------------------------------
# well-behavedness of finite-powerset evaluation functions


@dataclass
class WellBehavedReport:
    eval_name: str
    condition1_ok: bool
    condition2_ok: bool
    condition3_ok: bool
    witnesses: dict = field(default_factory=dict)  # condition -> list
    seed: int = 0

    @property
    def all_ok(self):
        return self.condition1_ok and self.condition2_ok and self.condition3_ok


def _ev_set(name, vs, bound):
    """max (the shipped evaluation) or min (the known bad one); both send
    the empty set to 0 so that condition 3 isolates the {0,1} failure."""
    vs = list(vs)
    if not vs:
        return zero(bound)
    return sup_fin(vs) if name == "max" else inf_fin(vs)


def value_grid(bound: TopBound):
    """Sample points of [0, top]: quartiles of a finite interval, or a
    small unbounded spread including infinity."""
    if bound.is_infinite:
        mags = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]
    else:
        t = bound.limit
        mags = [Fraction(0), t / 4, t / 2, 3 * t / 4, t]
    return [Value(m, bound) for m in mags]


def check_well_behaved(
    eval_name: str, bound: TopBound, seed: int = 0, n_random: int = 50
) -> WellBehavedReport:
    """Finite check of the three conditions for a set evaluation function:
    monotonicity, nonexpansiveness under the two projections of a relation,
    and kernel = sets of zeros.  Universally quantified statements are
    sampled over a value grid plus the known failure witnesses plus seeded
    random subsets; failures are reported as witnesses, not raised.
    """
    if eval_name not in ("max", "min"):
        raise ConfigurationError(f"unknown evaluation {eval_name!r}")
    rng = random.Random(seed)
    grid = value_grid(bound)
    gzero, gtop = grid[0], grid[-1]
    ev = lambda vs: _ev_set(eval_name, vs, bound)
    witnesses = {1: [], 2: [], 3: []}

    def rand_subset(pool, allow_empty=True):
        k = rng.randint(0 if allow_empty else 1, min(4, len(pool)))
        return frozenset(rng.sample(pool, k))

    # condition 1: monotone pairs of value tuples
    mono_samples = []
    for _ in range(n_random):
        size = rng.randint(0, 4)
        lo = [grid[rng.randrange(len(grid))] for _ in range(size)]
        hi = [grid[rng.randrange(rng_index, len(grid))]
              for rng_index in (grid.index(v) for v in lo)]
        mono_samples.append((lo, hi))
    for lo, hi in mono_samples:
        if not ev(lo) <= ev(hi):
            witnesses[1].append((tuple(lo), tuple(hi)))

    # condition 2: d_e of the two projected evaluations vs the evaluated
    # relation of componentwise distances
    relations = [frozenset({(gzero, gtop), (gtop, gtop)})]  # known min breaker
    for _ in range(n_random):
        relations.append(
            rand_subset([(a, b) for a in grid for b in grid])
        )
    for rel in relations:
        pairs = sorted(rel, key=lambda ab: (ab[0].mag, ab[1].mag))
        t1 = [a for a, _ in pairs]
        t2 = [b for _, b in pairs]
        lhs = dist_e(ev(t1), ev(t2))
        rhs = ev([dist_e(a, b) for a, b in pairs])
        if not lhs <= rhs:
            witnesses[2].append(frozenset(rel))

    # condition 3: ev(S) = 0 exactly for subsets of {0}
    subsets = [frozenset({gzero, gtop})]  # known min breaker
    subsets += [frozenset(), frozenset({gzero})]
    for _ in range(n_random):
        subsets.append(rand_subset(grid))
    for s in subsets:
        should_be_zero = s <= {gzero}
        is_zero = ev(sorted(s, key=lambda v: v.mag)).is_zero
        if should_be_zero != is_zero:
            witnesses[3].append(frozenset(s))

    return WellBehavedReport(
        eval_name=eval_name,
        condition1_ok=not witnesses[1],
        condition2_ok=not witnesses[2],
        condition3_ok=not witnesses[3],
        witnesses={k: v for k, v in witnesses.items() if v},
        seed=seed,
    )
