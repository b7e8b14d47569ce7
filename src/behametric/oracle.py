"""Independent references for the lifting computations.

Everything here is meant for tests and the `check` command only: coupling
enumeration for finite sets and the diagonal square, transportation-polytope
vertex enumeration for distributions, and, for the Kantorovich side, which
the engine computes by transport, the nonexpansiveness LP itself, solved by
a tableau simplex and by polytope-vertex enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .functors import (
    Const,
    DiagSquare,
    Dist,
    FinPow,
    Id,
    OracleScaleError,
    enumerate_couplings_diagsquare,
    enumerate_couplings_finpow,
    sorted_structs,
)
from .lifting import lift_dist
from .values import INF, Value, add_ext, scale, top

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_SUPPORT = 4  # support points per distribution in wasserstein_oracle
MAX_BASES = 200000  # candidate active sets in lp_vertices


def _ground_fn(sub, d):
    """Pairwise distance under the node's argument.  Oracles target single
    grammar nodes, so the argument is Id or Const; anything deeper falls
    back to the engine under test and is only a consistency check."""
    if isinstance(sub, Id):
        return lambda a, b: scale(d.get(a, b), sub.discount)
    if isinstance(sub, Const):
        return lambda a, b: sub.space.get(a, b)
    return lambda a, b: lift_dist(sub, d, "wasserstein", a, b)


def wasserstein_oracle(expr, d, t1, t2) -> Value:
    """Exact minimum of the evaluated distance over every coupling,
    enumerated exhaustively; top of the bound when no coupling exists."""
    if isinstance(expr, FinPow):
        ground = _ground_fn(expr.sub, d)
        couplings = enumerate_couplings_finpow(t1, t2)
        if not couplings:
            return top(d.bound)
        values = []
        for cpl in couplings:
            if cpl:
                values.append(max(ground(a, b) for a, b in sorted_structs(cpl)))
            else:
                values.append(Value(ZERO))
        return min(values)
    if isinstance(expr, DiagSquare):
        ground = _ground_fn(expr.sub, d)
        ((a1, b1), (a2, b2)), = enumerate_couplings_diagsquare(t1, t2)
        return add_ext(ground(a1, b1), ground(a2, b2))
    if isinstance(expr, Dist):
        ground = _ground_fn(expr.sub, d)
        points = sorted_structs(set(t1.support()) | set(t2.support()))
        if max(len(t1.support()), len(t2.support())) > MAX_SUPPORT:
            raise OracleScaleError("distribution support exceeds the oracle cap")
        supply = [t1.prob(x) for x in points]
        demand = [t2.prob(x) for x in points]
        best = None
        for plan in transportation_vertices(supply, demand):
            val = Value(ZERO)
            for i, a in enumerate(points):
                for j, b in enumerate(points):
                    w = plan[i][j]
                    if w > 0 and i != j:
                        val = add_ext(val, scale(ground(a, b), w))
            if best is None or val < best:
                best = val
        return best
    raise OracleScaleError(f"no oracle for node {type(expr).__name__}")


def transportation_vertices(supply, demand):
    """All basic feasible solutions of the balanced transportation polytope.

    Vertices correspond to spanning-forest cell subsets of size m+n-1; each
    candidate subset yields at most one plan, solved exactly and kept when
    nonnegative.
    """
    m, n = len(supply), len(demand)
    if sum(supply) != sum(demand):
        raise ValueError("unbalanced instance")
    cells = [(i, j) for i in range(m) for j in range(n)]
    nbasic = m + n - 1
    seen = set()
    for subset in itertools.combinations(cells, min(nbasic, len(cells))):
        plan = _solve_tree(supply, demand, subset)
        if plan is None:
            continue
        key = tuple(tuple(row) for row in plan)
        if key not in seen:
            seen.add(key)
            yield plan
    if m == 0 or n == 0:
        if all(s == 0 for s in supply) and all(dd == 0 for dd in demand):
            yield [[ZERO] * n for _ in range(m)]


def _solve_tree(supply, demand, subset):
    """Solve the flow on a candidate basic cell set; None when the cells do
    not determine a unique nonnegative plan."""
    m, n = len(supply), len(demand)
    # rows: m supply equations + n demand equations (one redundant)
    rows = []
    for i in range(m):
        rows.append(([ONE if ci == i else ZERO for ci, _ in subset], Fraction(supply[i])))
    for j in range(1, n):
        rows.append(([ONE if cj == j else ZERO for _, cj in subset], Fraction(demand[j])))
    sol = _solve_square(rows, len(subset))
    if sol is None or any(x < 0 for x in sol):
        return None
    plan = [[ZERO] * n for _ in range(m)]
    for (i, j), x in zip(subset, sol):
        plan[i][j] = x
    # the dropped demand row must hold too
    if n > 0 and sum(plan[i][0] for i in range(m)) != Fraction(demand[0]):
        return None
    return plan



def _solve_square(rows, nvars):
    """Gaussian elimination for an (possibly overdetermined) exact system;
    returns the unique solution or None (singular / inconsistent)."""
    aug = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    r = 0
    pivots = []
    for c in range(nvars):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            return None  # free variable: not a vertex-determining system
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pr = aug[r]
        inv = ONE / pr[c]
        aug[r] = pr = [v * inv for v in pr]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * pv for v, pv in zip(aug[i], pr)]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    if r < nvars:
        return None
    for i in range(r, len(aug)):
        if aug[i][nvars] != 0:
            return None  # inconsistent
    sol = [ZERO] * nvars
    for row_i, c in enumerate(pivots):
        sol[c] = aug[row_i][nvars]
    return sol


# ---------------------------------------------------------------------------
# the Kantorovich nonexpansiveness LP, solved by simplex and by vertices


def kantorovich_lp(coeffs, finite_pairs) -> LinearProgram:
    """max sum coeffs[i] * f(i) over f >= 0 with |f(i) - f(j)| <= q for
    every finite pair (i, j, q).

    The paper's test functions range over [0, top], but the coefficients
    sum to zero, so shifting f by a constant leaves the objective unchanged,
    and nonexpansiveness bounds the spread of f by the finite distances:
    every optimum shifts into the box, which is left out.  Under top = inf
    a component of finite distances whose coefficients have a nonzero net
    shifts without bound, and the LP is unbounded.
    """
    n = len(coeffs)
    constraints = []
    for i, j, q in finite_pairs:
        row = [ZERO] * n
        row[i], row[j] = ONE, -ONE
        constraints += [(row, q), ([-c for c in row], q)]
    return LinearProgram(coeffs, constraints)


@dataclass
class LinearProgram:
    """max objective . x over x >= 0 and rows coeffs . x <= rhs.

    Each constraint is a (coefficients, rhs) pair with rhs >= 0, so x = 0 is
    always feasible.
    """

    objective: list
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        self.objective = [Fraction(c) for c in self.objective]
        n = len(self.objective)
        cleaned = []
        for k, row in enumerate(self.constraints):
            if len(row) != 2 or len(row[0]) != n or Fraction(row[1]) < 0:
                raise ValueError(
                    f"constraint {k} is {row!r}, not ({n} coefficients, rhs >= 0)"
                )
            cleaned.append(([Fraction(c) for c in row[0]], Fraction(row[1])))
        self.constraints = cleaned


def solve_max(lp: LinearProgram):
    """Solve the LP exactly; returns (optimal value, witness vector), or
    (INF, None) when the objective is unbounded above.

    A one-phase tableau simplex with Bland's rule for termination under
    degeneracy.  Every rhs is nonnegative, so x = 0 satisfies each row, and
    the n active hyperplanes x_i = 0 make it a vertex: the slack columns of
    the rows form a feasible starting basis, and no first phase is needed.
    The witness is
    an optimal vertex, feasible and attaining the value exactly.  An entering
    column with no positive entry is a feasible ray along which the
    objective grows without bound.
    """
    n, m = len(lp.objective), len(lp.constraints)
    tableau = []
    for r, (coeffs, rhs) in enumerate(lp.constraints):
        slack = [ZERO] * m
        slack[r] = ONE
        tableau.append(coeffs + slack + [rhs])
    # last row: the negated reduced costs, and the objective value at the end
    tableau.append([-c for c in lp.objective] + [ZERO] * (m + 1))
    basis = list(range(n, n + m))
    while True:
        cost = tableau[m]
        # Bland: the first improving column enters, the smallest tied basic
        # variable leaves
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = best = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best, leaving = ratio, r
        if leaving is None:
            return INF, None
        _pivot(tableau, basis, leaving, entering)
    x = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r][-1]
    return tableau[m][-1], x


def _pivot(tableau, basis, r, c):
    piv = tableau[r][c]
    row = tableau[r]
    if piv != 1:
        tableau[r] = row = [v / piv for v in row]
    for i, other in enumerate(tableau):
        if i == r:
            continue
        f = other[c]
        if f != 0:
            tableau[i] = [ov - f * rv if rv else ov for ov, rv in zip(other, row)]
    basis[r] = c


def lp_vertices(lp: LinearProgram):
    """All vertices of the LP's feasible region by active-set enumeration
    over the hyperplanes x_i = 0 and the constraint rows."""
    n = len(lp.objective)
    if n > 6:
        raise OracleScaleError("vertex oracle capped at 6 variables")
    hyperplanes = [([ONE if k == i else ZERO for k in range(n)], ZERO) for i in range(n)]
    hyperplanes += lp.constraints
    if comb(len(hyperplanes), n) > MAX_BASES:
        raise OracleScaleError("too many candidate active sets")
    seen = set()
    for extra in itertools.combinations(range(len(hyperplanes)), n):
        sol = _solve_square([hyperplanes[k] for k in extra], n)
        if sol is None:
            continue
        if not _feasible(lp, sol):
            continue
        key = tuple(sol)
        if key not in seen:
            seen.add(key)
            yield sol


def _feasible(lp, x):
    return all(xi >= 0 for xi in x) and all(
        sum(c * xi for c, xi in zip(coeffs, x)) <= rhs for coeffs, rhs in lp.constraints
    )


def kantorovich_vertex_oracle(lp: LinearProgram):
    """Best objective over all basic feasible vertices; the independent
    check for solve_max and for the engine's Kantorovich lifting.  Valid only for bounded LPs, whose optimum sits at
    a vertex: the Kantorovich LPs are bounded once the rows x_i <= top of
    the paper's [0, top] test functions are added."""
    best = None
    for v in lp_vertices(lp):
        obj = sum(c * x for c, x in zip(lp.objective, v))
        if best is None or obj > best:
            best = obj
    if best is None:
        raise OracleScaleError("no vertex found (degenerate input)")
    return best
