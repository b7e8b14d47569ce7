"""Exact-rational transportation: move supply to demand at minimum cost.

``solve_transportation`` is a transportation simplex on the bipartite basis
tree: MODI potentials, Bland's rule and pivots around the tree cycle, all
over Fractions.  An instance's first solve starts from the north-west
corner; each later solve starts from the optimal basis of the one before.
An instance keeps its masses and changes only its costs, so that basis is
still feasible and Bland's rule still terminates from it.  It serves both
liftings of a distribution and the Kantorovich lifting of the diagonal
square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .values import INF, Value

ZERO = Fraction(0)


@dataclass
class TransportationInstance:
    """Balanced transportation problem: move supply to demand at min cost.

    Costs are Values; an infinite cost forbids the cell.  Supplies and
    demands are nonnegative rationals with equal totals, not necessarily 1:
    the two components of a diagonal square ship a mass of up to 2.  A
    caller may replace the costs between solves but never the masses:
    ``basis`` holds the optimal basis of the last solve, where the next
    one starts.
    """

    supply: list
    demand: list
    cost: list  # matrix of Value
    # (plan, rows, cols) as _north_west_corner builds them
    basis: tuple | None = field(default=None, repr=False, compare=False)

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


def solve_transportation(inst: TransportationInstance):
    """Minimal-cost coupling; returns (value: Value, plan: matrix | None).

    When every feasible plan must use a forbidden (infinite-cost) cell the
    value is infinite and the plan is None.  An inexact (double) cost is
    priced at its exact binary value, and the optimum is then returned as
    a double.  The optimum is unique, so where the solve starts moves only
    the work and which optimal plan comes back.
    """
    m, n = len(inst.supply), len(inst.demand)
    # a cell costs the pair (forbidden, finite cost), ordered
    # lexicographically: an exact big-M that uses a forbidden cell only when
    # no plan avoids them all
    big = [[1 if v.is_infinite else 0 for v in row] for row in inst.cost]
    if all(all(row) for row in big):
        if all(s == 0 for s in inst.supply):
            return Value(ZERO), [[ZERO] * n for _ in range(m)]
        return Value(INF), None
    small = [
        [ZERO if v.is_infinite else v.as_fraction() for v in row]
        for row in inst.cost
    ]
    inexact = any(not v.is_exact for row in inst.cost for v in row)
    if inst.basis is None:
        plan, rows, cols = _north_west_corner(inst.supply, inst.demand)
    else:
        # copied, so that a plan handed back earlier stays as it was
        plan, rows, cols = inst.basis
        plan = [row[:] for row in plan]
        rows, cols = [set(r) for r in rows], [set(c) for c in cols]
    while True:
        entering = _entering_cell(big, small, rows, cols)
        if entering is None:
            break
        _pivot_cycle(plan, rows, cols, *entering)
    inst.basis = plan, rows, cols
    total = ZERO
    for i in range(m):
        for j in rows[i]:
            if plan[i][j]:
                if big[i][j]:
                    return Value(INF), None
                total += plan[i][j] * small[i][j]
    return Value(float(total) if inexact else total), plan


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
