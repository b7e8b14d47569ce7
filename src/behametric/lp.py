"""Exact transportation: move supply to demand at minimum cost.

``solve_transportation`` is a transportation simplex on the bipartite basis
tree: MODI potentials, Bland's rule and pivots around the tree cycle, all
over ints, the masses and the costs each scaled by the LCM of their
denominators.  An instance's first solve starts from the north-west corner;
each later solve starts from the optimal basis of the one before.  An
instance keeps its masses and changes only its costs, so that basis is still
feasible and Bland's rule still terminates from it.  It serves both liftings
of a distribution and the Kantorovich lifting of the diagonal square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .values import INF, Value, over_common_denominator

ZERO = Fraction(0)


@dataclass
class TransportationInstance:
    """Balanced transportation problem: move supply to demand at min cost.

    Costs are Values; an infinite cost forbids the cell.  Supplies and
    demands are nonnegative rationals with equal totals, not necessarily 1:
    the two components of a diagonal square ship a mass of up to 2.  A
    caller may replace the costs between solves but never the masses:
    ``scaled`` holds them times ``unit`` as ints, and ``basis`` the optimal
    basis of the last solve, where the next one starts.
    """

    supply: list
    demand: list
    cost: list  # matrix of Value
    # (plan, rows, cols) as _north_west_corner builds them, flows times unit
    basis: tuple | None = field(default=None, repr=False, compare=False)
    # the basis's plan as Fractions, until a pivot or a cold start moves it
    plan: list | None = field(default=None, init=False, repr=False, compare=False)
    unit: int = field(init=False, repr=False, compare=False)
    scaled: tuple = field(init=False, repr=False, compare=False)  # (supply, demand)

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
        masses, self.unit = over_common_denominator(self.supply + self.demand)
        m = len(self.supply)
        self.scaled = (masses[:m], masses[m:])


def solve_transportation(inst: TransportationInstance):
    """Minimal-cost coupling; returns (value: Value, plan: matrix | None).

    When every feasible plan must use a forbidden (infinite-cost) cell the
    value is infinite and the plan is None.  An inexact (double) cost is
    priced at its exact binary value, its integer ratio, and the optimum is
    then returned as the double nearest to it, or exactly when it lies past
    the double range.  The optimum is unique, so
    where the solve starts moves only the work and which optimal plan comes
    back.  The plan is a fresh matrix of Fractions.
    """
    m, n = len(inst.supply), len(inst.demand)
    finite, den = over_common_denominator(
        [v.mag for row in inst.cost for v in row if not v.is_infinite])
    # the exact big-M of the lexicographic cost (forbidden, finite): the
    # finite part of a reduced cost sums under 2(m + n) costs, below big
    big = 2 * (m + n) * max(finite, default=0) + 1
    finite = iter(finite)
    cost = [[big if v.is_infinite else next(finite) for v in row] for row in inst.cost]
    if inst.basis is None:
        inst.basis, inst.plan = _north_west_corner(*inst.scaled), None
    plan, rows, cols = inst.basis  # pivoted in place
    while True:
        entering = _entering_cell(cost, rows, cols)
        if entering is None:
            break
        _pivot_cycle(plan, rows, cols, *entering)
        inst.plan = None
    flows = [(i, j) for i in range(m) for j in rows[i] if plan[i][j]]
    if any(inst.cost[i][j].is_infinite for i, j in flows):
        return Value(INF), None
    total = sum(plan[i][j] * cost[i][j] for i, j in flows)
    den *= inst.unit
    # every scale is positive, so each comparison and pivot was the rationals'
    # own; int true division rounds correctly, to the double nearest the optimum
    exact = all(v.is_exact for row in inst.cost for v in row)
    try:
        value = Fraction(total, den) if exact else total / den
    except OverflowError:  # an optimum past the double range stays exact
        value = Fraction(total, den)
    if inst.plan is None:
        inst.plan = [[Fraction(x, inst.unit) if x else ZERO for x in row] for row in plan]
    return Value(value), [row[:] for row in inst.plan]


def _north_west_corner(supply, demand):
    """Initial basic plan: a staircase of m + n - 1 cells from (0, 0) to
    (m-1, n-1), degenerate zero-flow cells included, so the basis is always a
    spanning tree of the rows and columns.  rows[i] holds the basic columns of
    row i and cols[j] the basic rows of column j."""
    m, n = len(supply), len(demand)
    plan = [[0] * n for _ in range(m)]
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


def _entering_cell(cost, rows, cols):
    """First non-basic cell in row-major order whose reduced cost
    c_ij - u_i - v_j is negative (Bland), or None at the optimum.  The MODI
    potentials solve u_i + v_j = c_ij on the basic cells with u_0 = 0."""
    m, n = len(rows), len(cols)
    u, v = [0] + [None] * (m - 1), [None] * n  # None until the walk reaches it
    stack = [0]  # rows are nodes 0..m-1, columns m..m+n-1
    while stack:
        node = stack.pop()
        if node < m:
            for j in rows[node]:
                if v[j] is None:
                    v[j] = cost[node][j] - u[node]
                    stack.append(m + j)
        else:
            j = node - m
            for i in cols[j]:
                if u[i] is None:
                    u[i] = cost[i][j] - v[j]
                    stack.append(i)
    # a basic cell's reduced cost is exactly 0, so it never enters
    for i in range(m):
        row, ui = cost[i], u[i]
        for j in range(n):
            if row[j] < ui + v[j]:
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
        for nb in [m + j for j in rows[node]] if node < m else cols[node - m]:
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
