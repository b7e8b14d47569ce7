"""Exact transportation: move supply to demand at minimum cost.

``solve_transportation`` is a transportation simplex on the bipartite basis
tree: MODI potentials, Bland's rule and pivots around the tree cycle, all
over ints, the masses and the costs each scaled by the LCM of their
denominators.  An instance's first solve starts from the north-west corner;
each later solve starts from the optimal basis of the one before.  An
instance keeps its masses and changes only its costs, so that basis is still
feasible and Bland's rule still terminates from it.  A solve reads each
cost's magnitude once.  The instance also keeps its basis's walk, the order
in which the potentials solve from row 0 and the non-basic cells in Bland's
row-major order, until a pivot or a cold start drops it: most warm solves do
not pivot, and pay only for the potentials and the pricing.  It serves both
liftings of a distribution and the Kantorovich lifting of the diagonal
square.
"""

from __future__ import annotations

from fractions import Fraction

from .values import INF, Value, over_common_denominator


class TransportationInstance:
    """Balanced transportation problem: move supply to demand at min cost.

    Supplies and demands are nonnegative rationals with equal totals, not
    necessarily 1: the two components of a diagonal square ship a mass of up
    to 2.  They are kept once, as ints: ``scaled`` holds (supply, demand)
    times ``unit``.  ``cost``, a matrix of Values with one row per supply, is
    set before each solve; an infinite cost forbids the cell.  A caller may
    replace the costs between solves but never the masses.  ``basis``, the
    (plan, rows, cols) of ``_north_west_corner``, is the optimal basis of the
    last solve, where the next one starts: its plan holds the optimal flows
    times ``unit``.  ``walk`` is what a solve reads of that basis (see
    ``_basis_walk``), kept until a pivot or a cold start moves the basis.
    """

    __slots__ = ("scaled", "unit", "cost", "basis", "walk")

    def __init__(self, supply, demand):
        masses, self.unit = over_common_denominator([*supply, *demand])
        if any(x < 0 for x in masses):
            raise ValueError("negative mass")
        m = len(supply)
        self.scaled = supply, demand = masses[:m], masses[m:]
        if sum(supply) != sum(demand):
            raise ValueError(
                f"supply sum {Fraction(sum(supply), self.unit)} != "
                f"demand sum {Fraction(sum(demand), self.unit)}"
            )
        self.cost = self.basis = self.walk = None


def solve_transportation(inst: TransportationInstance) -> Value:
    """The least cost of a coupling under ``inst.cost``, a Value.

    When every feasible plan must use a forbidden (infinite-cost) cell the
    value is infinite.  An inexact (double) cost is priced at its exact
    binary value, its integer ratio, and the optimum is then returned as the
    double nearest to it, or exactly when it lies past the double range.
    The optimum is unique, so where the solve starts moves only the work and
    which optimal plan ``inst.basis[0]`` holds afterwards.
    """
    m, n = map(len, inst.scaled)
    if len(inst.cost) != m or any(len(row) != n for row in inst.cost):
        raise ValueError("cost matrix shape mismatch")
    # each magnitude is read once, row-major: a float is a forbidden cell
    # (INF, scaled as 0 and then set to big) or a double
    cost = [v.mag for row in inst.cost for v in row]
    forbidden, exact = [], True
    for k, x in enumerate(cost):
        if type(x) is float:
            if x == INF:
                forbidden.append(k)
                cost[k] = 0
            else:
                exact = False
    cost, den = over_common_denominator(cost)
    # the exact big-M of the lexicographic cost (forbidden, finite): the
    # finite part of a reduced cost sums under 2(m + n) costs, below big
    big = 2 * (m + n) * max(cost, default=0) + 1
    for k in forbidden:
        cost[k] = big
    if inst.basis is None:
        inst.basis, inst.walk = _north_west_corner(*inst.scaled), None
    plan, rows, cols = inst.basis  # pivoted in place
    while True:
        if inst.walk is None:
            inst.walk = _basis_walk(rows, cols)
        order, nonbasic = inst.walk
        # the MODI potentials solve u_i + v_j = c_ij on the basic cells with
        # u_0 = 0; node i holds u_i and node m + j holds v_j
        pot = [0] * (m + n)
        for k, src, dst in order:
            pot[dst] = cost[k] - pot[src]
        # the first non-basic cell in row-major order whose reduced cost
        # c_ij - u_i - v_j is negative enters (Bland); none: optimal
        for k, i, mj in nonbasic:
            if cost[k] < pot[i] + pot[mj]:
                break
        else:
            break
        _pivot_cycle(plan, rows, cols, i, mj - m)
        inst.walk = None
    flows = [(i, j) for i in range(m) for j in rows[i] if plan[i][j]]
    if forbidden and any(cost[i * n + j] == big for i, j in flows):
        return Value(INF)
    total = sum(plan[i][j] * cost[i * n + j] for i, j in flows)
    den *= inst.unit
    # every scale is positive, so each comparison and pivot was the rationals'
    # own; int true division rounds correctly, to the double nearest the optimum
    try:
        value = Fraction(total, den) if exact else total / den
    except OverflowError:  # an optimum past the double range stays exact
        value = Fraction(total, den)
    return Value(value)


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


def _basis_walk(rows, cols):
    """(order, nonbasic): what a solve reads of the basis tree, built once
    per basis.  order lists the basic cells (k, src, dst) in the order the
    potentials solve from row 0: node dst's potential is cost k minus node
    src's, rows being nodes 0..m-1 and columns m..m+n-1.  nonbasic lists the
    other cells (k, i, m + j) in row-major order.  k = i * n + j is a cell's
    place in the row-major cost list."""
    m, n = len(rows), len(cols)
    order, stack = [], [0]
    seen = [True] + [False] * (m + n - 1)
    while stack:
        node = stack.pop()
        if node < m:
            for j in rows[node]:
                if not seen[m + j]:
                    seen[m + j] = True
                    order.append((node * n + j, node, m + j))
                    stack.append(m + j)
        else:
            j = node - m
            for i in cols[j]:
                if not seen[i]:
                    seen[i] = True
                    order.append((i * n + j, node, i))
                    stack.append(i)
    nonbasic = [(i * n + j, i, m + j) for i in range(m) for j in range(n) if j not in rows[i]]
    return order, nonbasic


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
