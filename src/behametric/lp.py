"""Exact-rational linear programming: two solvers over Fractions.

``solve_max`` serves the Kantorovich nonexpansiveness LP in canonical form:
maximise c . x over x >= 0 and ``A x <= b`` with ``b >= 0``.  The test
functions of the paper range over ``[0, top]``, but their objective has
coefficients summing to zero, so shifting a function by a constant leaves
the objective unchanged; nonexpansiveness bounds its spread by the finite
ground distances, so every optimum shifts into the box and the box is left
out.  ``x = 0`` is then a vertex, one tableau simplex from the slack basis
suffices, with Bland's rule for termination under degeneracy, and an
unbounded LP reports an infinite supremum.  ``solve_transportation`` is a
transportation simplex on the bipartite basis tree for the Wasserstein
couplings: a north-west-corner start, MODI potentials, Bland's rule and
pivots around the tree cycle.  Both are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .values import INF, TopBound, Value, ensure_compatible

ZERO = Fraction(0)
ONE = Fraction(1)


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

    Every rhs is nonnegative, so x = 0 satisfies each row, and the n active
    hyperplanes x_i = 0 make it a vertex: the slack columns of the rows form
    a feasible starting basis, and no first phase is needed.  The witness is
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


@dataclass
class TransportationInstance:
    """Balanced transportation problem: move supply to demand at min cost.

    Costs are Values; an infinite cost forbids the cell.  Supplies and
    demands are nonnegative rationals with equal (unit) totals.
    """

    supply: list
    demand: list
    cost: list  # matrix of Value

    def __post_init__(self):
        self.supply = [Fraction(s) for s in self.supply]
        self.demand = [Fraction(d) for d in self.demand]
        if any(s < 0 for s in self.supply) or any(d < 0 for d in self.demand):
            raise ValueError("negative mass")
        if sum(self.supply) != sum(self.demand):
            raise ValueError(
                f"supply sum {sum(self.supply)} != demand sum {sum(self.demand)}"
            )
        if len(self.cost) != len(self.supply) or any(
            len(row) != len(self.demand) for row in self.cost
        ):
            raise ValueError("cost matrix shape mismatch")
        b = None
        for row in self.cost:
            for v in row:
                if b is None:
                    b = v
                else:
                    ensure_compatible(b, v)

    @property
    def bound(self) -> TopBound:
        return self.cost[0][0].bound


def solve_transportation(inst: TransportationInstance):
    """Minimal-cost coupling; returns (value: Value, plan: matrix | None).

    When every feasible plan must use a forbidden (infinite-cost) cell the
    value is infinite and the plan is None.  An inexact (double) cost is
    priced at its exact binary value, and the optimum is then returned as
    a double, as in ``kantorovich_linear_value``.
    """
    m, n = len(inst.supply), len(inst.demand)
    bound = inst.bound
    # a cell costs the pair (forbidden, finite cost), ordered
    # lexicographically: an exact big-M that uses a forbidden cell only when
    # no plan avoids them all
    big = [[1 if v.is_infinite else 0 for v in row] for row in inst.cost]
    if all(all(row) for row in big):
        if all(s == 0 for s in inst.supply):
            return Value(Fraction(0), bound), [[ZERO] * n for _ in range(m)]
        return Value(INF, bound), None
    small = [
        [ZERO if v.is_infinite else v.as_fraction() for v in row]
        for row in inst.cost
    ]
    inexact = any(not v.is_exact for row in inst.cost for v in row)
    plan, rows, cols = _north_west_corner(inst.supply, inst.demand)
    while True:
        entering = _entering_cell(big, small, rows, cols)
        if entering is None:
            break
        _pivot_cycle(plan, rows, cols, *entering)
    total = ZERO
    for i in range(m):
        for j in rows[i]:
            if plan[i][j]:
                if big[i][j]:
                    return Value(INF, bound), None
                total += plan[i][j] * small[i][j]
    return Value(float(total) if inexact else total, bound), plan


def _north_west_corner(supply, demand):
    """Initial basic plan: a staircase of m + n - 1 cells from (0, 0) to
    (m-1, n-1), degenerate zero-flow cells included, so the basis is always a
    spanning tree of the rows and columns.  rows[i] holds the basic columns of
    row i and cols[j] the basic rows of column j."""
    m, n = len(supply), len(demand)
    plan = [[ZERO] * n for _ in range(m)]
    rows = [set() for _ in range(m)]
    cols = [set() for _ in range(n)]
    left, need = list(supply), list(demand)
    i = j = 0
    while True:
        x = min(left[i], need[j])
        plan[i][j] = x
        left[i] -= x
        need[j] -= x
        rows[i].add(j)
        cols[j].add(i)
        if i == m - 1 and j == n - 1:
            return plan, rows, cols
        if j == n - 1 or (i < m - 1 and left[i] == 0):
            i += 1
        else:
            j += 1


def _entering_cell(big, small, rows, cols):
    """First non-basic cell in row-major order whose reduced cost
    c_ij - u_i - v_j is negative (Bland), or None at the optimum.  The MODI
    potentials solve u_i + v_j = c_ij on the basic cells with u_0 = 0."""
    m, n = len(rows), len(cols)
    ub, us = [0] * m, [ZERO] * m
    vb, vs = [0] * n, [ZERO] * n
    seen = [False] * (m + n)  # rows are nodes 0..m-1, columns m..m+n-1
    seen[0] = True
    stack = [0]
    while stack:
        node = stack.pop()
        if node < m:
            i = node
            for j in rows[i]:
                if not seen[m + j]:
                    seen[m + j] = True
                    vb[j] = big[i][j] - ub[i]
                    vs[j] = small[i][j] - us[i]
                    stack.append(m + j)
        else:
            j = node - m
            for i in cols[j]:
                if not seen[i]:
                    seen[i] = True
                    ub[i] = big[i][j] - vb[j]
                    us[i] = small[i][j] - vs[j]
                    stack.append(i)
    for i in range(m):
        basic = rows[i]
        for j in range(n):
            if j in basic:
                continue
            rb = big[i][j] - ub[i] - vb[j]
            if rb < 0 or (rb == 0 and small[i][j] < us[i] + vs[j]):
                return i, j
    return None


def _pivot_cycle(plan, rows, cols, i0, j0):
    """Enter cell (i0, j0): push the most mass allowed around the cycle it
    closes in the basis tree; the smallest blocking cell leaves (Bland)."""
    m = len(rows)
    target = m + j0
    parent = {i0: None}
    stack = [i0]
    while target not in parent:
        node = stack.pop()
        if node < m:
            nbrs = [m + j for j in rows[node]]
        else:
            nbrs = cols[node - m]
        for nb in nbrs:
            if nb not in parent:
                parent[nb] = node
                stack.append(nb)
    # the tree path from column j0 back to row i0; its cells alternate
    # between losing and gaining mass, starting with a loss in column j0
    path = []
    node = target
    while parent[node] is not None:
        prev = parent[node]
        path.append((prev, node - m) if prev < m else (node, prev - m))
        node = prev
    losing = path[0::2]
    theta = min(plan[i][j] for i, j in losing)
    leaving = min(cell for cell in losing if plan[cell[0]][cell[1]] == theta)
    if theta:
        for i, j in losing:
            plan[i][j] -= theta
        for i, j in path[1::2]:
            plan[i][j] += theta
        plan[i0][j0] = theta
    rows[i0].add(j0)
    cols[j0].add(i0)
    li, lj = leaving
    rows[li].discard(lj)
    cols[lj].discard(li)
