"""Kantorovich and Wasserstein liftings over the functor grammar.

Both liftings are computed recursively: every node lifts the distance that
recursively lifting its children produced, and that distance is a
pseudometric.  Wherever a closed form is known (identity, constants,
coproduct, products, the Hausdorff form on finite sets) both methods share
it.  At the distribution node both methods solve one transportation
problem: by Kantorovich-Rubinstein duality the supremum over nonexpansive
test functions equals the cheapest transport of one distribution onto the
other.  The diagonal square is the one node where the two genuinely
disagree: Wasserstein pays the straight matching its single coupling
forces, while Kantorovich ships the two components straight or crossed,
whichever is cheaper.
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
from .lp import TransportationInstance, solve_transportation
from .values import (
    INF,
    ZERO,
    ConfigurationError,
    TopBound,
    Value,
    add_ext,
    dist_e,
    scale,
    top,
)

KANTOROVICH = "kantorovich"
WASSERSTEIN = "wasserstein"
METHODS = (KANTOROVICH, WASSERSTEIN)


class LiftingEngine:
    """Lift one ground pseudometric through one expression, memoized.

    Reuse a single engine when evaluating many structure pairs against the
    same table (the fixed-point loop does exactly that).  A store, a dict
    that outlives the engine, keeps each `Dist` pair's transportation
    instance from one table to the next, so that its next solve starts from
    its last optimal basis, and each finite set's canonical order; an engine
    without one starts every pair cold and sorts every set it meets.
    """

    def __init__(self, expr: FunctorExpr, d, method: str = WASSERSTEIN, store=None):
        if method not in METHODS:
            raise ConfigurationError(f"unknown lifting method {method!r}")
        self.expr = expr
        self.d = d
        self.method = method
        self.bound = d.bound
        self._memo = {}
        self._store = {} if store is None else store

    def dist(self, t1, t2) -> Value:
        return self.bound.check(self._lift(self.expr, t1, t2))

    # -- recursion ----------------------------------------------------------

    def _lift(self, expr, t1, t2) -> Value:
        # The memo keeps the nodes whose lift costs more than a dict round
        # trip: Product, FinPow, Dist, DiagSquare and a discounted Id, whose
        # scaling is Fraction arithmetic and whose atoms hash in C.  Id(1)
        # and Const read one entry.  A Coproduct lifts its side, which keys
        # the memo itself where needed: its own key would hash a Tagged pair
        # in Python.
        kind = type(expr)
        if kind is Id:
            if expr.unit:
                return self.d.get(t1, t2)
        elif kind is Coproduct:
            if t1.tag != t2.tag:
                return top(self.bound)
            side = expr.left if t1.tag == "left" else expr.right
            return self._lift(side, t1.value, t2.value)
        elif kind is Const:
            return expr.space.get(t1, t2)
        # structures are canonical and hashable, so they key the memo as is
        key = (id(expr), t1, t2)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if kind is Id:
            out = scale(self.d.get(t1, t2), expr.discount)
        else:
            out = self._lift_raw(expr, t1, t2)
        self._memo[key] = self._memo[(id(expr), t2, t1)] = out  # symmetry for free
        return out

    def _lift_raw(self, expr, t1, t2) -> Value:
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
            return ZERO
        if not s1 or not s2:
            return top(self.bound)
        xs2, lift = self._sorted(s2), self._lift
        rows = [[lift(sub, a, b) for b in xs2] for a in self._sorted(s1)]
        return max(max(map(min, rows)), max(map(min, zip(*rows))))

    def _sorted(self, s: frozenset) -> list:
        """The members of s in canonical order, kept in the store by s."""
        xs = self._store.get(s)
        if xs is None:
            xs = self._store[s] = sorted_structs(s)
        return xs

    def _dist_node(self, sub, p1, p2) -> Value:
        # one transportation problem for both methods: the lifted ground
        # distance is a pseudometric, so mass common to both distributions
        # stays in place at zero cost and only the difference ships
        key = (id(sub), p1, p2)
        entry = self._store.get(key)
        if entry is None:
            union = sorted_structs(set(p1.support()) | set(p2.support()))
            entry = self._store[key] = (
                union, _Shipment([p1.prob(x) - p2.prob(x) for x in union])
            )
        union, shipment = entry
        return shipment.value(lambda i, j: self._lift(sub, union[i], union[j]))

    def _diag_node(self, sub, t1, t2) -> Value:
        if self.method == WASSERSTEIN:
            # projections force the single coupling ((a1,b1),(a2,b2))
            return add_ext(
                self._lift(sub, t1[0], t2[0]), self._lift(sub, t1[1], t2[1])
            )
        # t1's components ship onto t2's; a point in both cancels
        points = sorted_structs({*t1, *t2})
        coeffs = [t1.count(x) - t2.count(x) for x in points]
        return kantorovich_linear_value(
            coeffs, lambda i, j: self._lift(sub, points[i], points[j])
        )


def method_matters(expr: FunctorExpr) -> bool:
    """Whether the two methods can lift expr differently: the method is
    read only at the diagonal square (_diag_node)."""
    return any(isinstance(e, DiagSquare) for e in expr.subexprs())


def lift_dist(expr: FunctorExpr, d, method: str, t1, t2) -> Value:
    """One-shot lifted distance between two structures."""
    return LiftingEngine(expr, d, method).dist(t1, t2)


def lift_both(expr: FunctorExpr, d, t1, t2):
    """(kantorovich, wasserstein, gap), one lift per method that matters.
    The gap, wasserstein minus kantorovich, is nonnegative, and zero on
    every node except possibly the diagonal square."""
    k = lift_dist(expr, d, KANTOROVICH, t1, t2)
    w = lift_dist(expr, d, WASSERSTEIN, t1, t2) if method_matters(expr) else k
    if w < k:
        raise AssertionError(f"wasserstein {w} below kantorovich {k}")
    return k, w, dist_e(w, k)


def duality_gap(expr: FunctorExpr, d, t1, t2) -> Value:
    """wasserstein minus kantorovich; see lift_both."""
    return lift_both(expr, d, t1, t2)[2]


# ---------------------------------------------------------------------------
# the Kantorovich lifting of a linear functional, by transport


def kantorovich_linear_value(coeffs, cost) -> Value:
    """sup |sum coeffs[i] * f(i)| over f: points -> [0, top] nonexpansive
    w.r.t. the ground distance cost(i, j), a Value, which is asked only for
    a positive coefficient i and a negative one j.

    Precondition: the ground distance satisfies the triangle inequality.
    The coefficients sum to zero, so by Kantorovich-Rubinstein duality the
    supremum is then the cheapest transport of the positive coefficients
    onto the negative ones, every unit shipped directly at its ground
    distance.  An infinite distance forbids its cell; when every plan needs
    one, the supremum is infinite, since a test function then shifts
    without bound on one side of the infinite gap.  On the diagonal square
    the two unit masses ship straight or crossed, and the duality gap to
    Wasserstein is what crossing saves.
    """
    assert sum(coeffs) == 0, "Kantorovich coefficients must sum to zero"
    return _Shipment(coeffs).value(cost)


class _Shipment:
    """Transport of the positive weights onto the negative ones.  The split
    into sources and sinks and its instance are built once; each solve sets
    the costs, and the instance keeps its last optimal basis."""

    __slots__ = ("sources", "sinks", "inst")

    def __init__(self, weights):
        self.sources = [i for i, w in enumerate(weights) if w > 0]
        self.sinks = [j for j, w in enumerate(weights) if w < 0]
        self.inst = TransportationInstance(
            [weights[i] for i in self.sources], [-weights[j] for j in self.sinks]
        )

    def value(self, cost) -> Value:
        """The cheapest transport at cost(i, j) per unit from i to j."""
        if not self.sources:
            return ZERO
        self.inst.cost = [[cost(i, j) for j in self.sinks] for i in self.sources]
        return solve_transportation(self.inst)


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


def _ev_set(name, vs):
    """max (the shipped evaluation) or min (the known bad one); both send
    the empty set to 0 so that condition 3 isolates the {0,1} failure."""
    return (max if name == "max" else min)(vs, default=ZERO)


def value_grid(bound: TopBound):
    """Sample points of [0, top]: quartiles of a finite interval, or a
    small unbounded spread including infinity."""
    if bound.is_infinite:
        mags = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]
    else:
        t = bound.limit
        mags = [Fraction(0), t / 4, t / 2, 3 * t / 4, t]
    return [Value(m) for m in mags]


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
    ev = lambda vs: _ev_set(eval_name, vs)
    witnesses = {1: [], 2: [], 3: []}

    def rand_subset(pool):
        k = rng.randint(0, min(4, len(pool)))
        return frozenset(rng.sample(pool, k))

    # condition 1: monotone pairs of value tuples
    for _ in range(n_random):
        size = rng.randint(0, 4)
        lo = [grid[rng.randrange(len(grid))] for _ in range(size)]
        hi = [grid[rng.randrange(grid.index(v), len(grid))] for v in lo]
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
