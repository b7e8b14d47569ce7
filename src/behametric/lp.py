"""Exact-rational linear programming: two solvers over Fractions.

``solve_max`` is a two-phase tableau simplex with Bland's rule (guaranteed
termination under degeneracy) for general box-bounded LPs; it serves the
Kantorovich nonexpansiveness LP.  ``solve_transportation`` is a
transportation simplex on the bipartite basis tree for the Wasserstein
couplings: a north-west-corner start, MODI potentials, Bland's rule and
pivots around the tree cycle.  Both are exact; the transportation solver
runs once per Wasserstein ``Dist`` node and iteration, so it avoids the
tableau entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .values import INF, TopBound, Value, ensure_compatible

ZERO = Fraction(0)
ONE = Fraction(1)


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    """Generated LPs are box-bounded, so this signals an internal bug."""


@dataclass
class LinearProgram:
    """max/min of objective . x subject to box bounds and linear rows.

    bounds[i] = (lo, hi) with finite rationals, lo <= hi.
    constraints are (coefficients, relation, rhs) with relation in <=, =, >=.
    """

    objective: list
    bounds: list
    constraints: list = field(default_factory=list)
    sense: str = "max"

    def __post_init__(self):
        self.objective = [Fraction(c) for c in self.objective]
        self.bounds = [(Fraction(lo), Fraction(hi)) for lo, hi in self.bounds]
        n = len(self.objective)
        if len(self.bounds) != n:
            raise ValueError("bounds/objective length mismatch")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty box bound [{lo}, {hi}]")
        cleaned = []
        for coeffs, rel, rhs in self.constraints:
            if len(coeffs) != n:
                raise ValueError("constraint length mismatch")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"bad relation {rel!r}")
            cleaned.append(([Fraction(c) for c in coeffs], rel, Fraction(rhs)))
        self.constraints = cleaned
        if self.sense not in ("max", "min"):
            raise ValueError(f"bad sense {self.sense!r}")


def solve_max(lp: LinearProgram):
    """Solve the LP exactly; returns (optimal value, witness vector).

    The witness is an optimal vertex, feasible and attaining the value
    exactly.  Raises Infeasible when no point satisfies the constraints.
    """
    n = len(lp.objective)
    sign = ONE if lp.sense == "max" else -ONE
    obj = [sign * c for c in lp.objective]

    # shift variables so x' = x - lo >= 0; upper bounds become rows
    lows = [lo for lo, _ in lp.bounds]
    rows = []
    for i, (lo, hi) in enumerate(lp.bounds):
        if hi > lo:
            coeffs = [ZERO] * n
            coeffs[i] = ONE
            rows.append((coeffs, "<=", hi - lo))
        else:
            # pinned variable: x' = 0, no row needed
            pass
    for coeffs, rel, rhs in lp.constraints:
        shifted = rhs - sum(c * lo for c, lo in zip(coeffs, lows))
        rows.append((list(coeffs), rel, shifted))
    # pinned variables must still satisfy x' = 0 if bound is degenerate;
    # shifting already fixes them at 0 and the simplex never increases them
    pinned = {i for i, (lo, hi) in enumerate(lp.bounds) if lo == hi}

    value, xprime = _simplex_standard(obj, rows, n, pinned)
    witness = [xp + lo for xp, lo in zip(xprime, lows)]
    return sign * value, witness


def _simplex_standard(obj, rows, n, pinned=frozenset()):
    """max obj.x s.t. rows (<=, =, >=), x >= 0; two-phase, Bland's rule."""
    # normalize rows to nonnegative rhs
    norm = []
    for coeffs, rel, rhs in rows:
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        norm.append((coeffs, rel, rhs))

    m = len(norm)
    n_slack = sum(1 for _, rel, _ in norm if rel in ("<=", ">="))
    n_art = sum(1 for _, rel, _ in norm if rel in (">=", "="))
    width = n + n_slack + n_art
    art_cols = []

    tableau = []
    basis = []
    s_idx, a_idx = n, n + n_slack
    for coeffs, rel, rhs in norm:
        row = [ZERO] * (width + 1)
        for j, c in enumerate(coeffs):
            row[j] = c
        if rel == "<=":
            row[s_idx] = ONE
            basis.append(s_idx)
            s_idx += 1
        elif rel == ">=":
            row[s_idx] = -ONE
            s_idx += 1
            row[a_idx] = ONE
            art_cols.append(a_idx)
            basis.append(a_idx)
            a_idx += 1
        else:
            row[a_idx] = ONE
            art_cols.append(a_idx)
            basis.append(a_idx)
            a_idx += 1
        row[width] = rhs
        tableau.append(row)

    blocked = set(pinned)

    if art_cols:
        phase1 = [ZERO] * width
        for j in art_cols:
            phase1[j] = -ONE
        val = _optimize(tableau, basis, phase1, width, blocked)
        if val != 0:
            raise Infeasible("no feasible point")
        # drive any residual artificial out of the basis
        for r, b in enumerate(basis):
            if b in art_cols:
                pivot_col = None
                for j in range(n + n_slack):
                    if j not in blocked and tableau[r][j] != 0:
                        pivot_col = j
                        break
                if pivot_col is not None:
                    _pivot(tableau, basis, r, pivot_col, width)
                # else the row is redundant; leave the zero artificial basic
        blocked |= set(art_cols)

    phase2 = [ZERO] * width
    for j in range(n):
        phase2[j] = obj[j]
    value = _optimize(tableau, basis, phase2, width, blocked)
    x = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r][width]
    return value, x


def _optimize(tableau, basis, obj, width, blocked):
    """Run simplex iterations with Bland's rule; returns the optimum."""
    m = len(tableau)
    while True:
        # reduced costs: cbar_j = obj_j - sum_r obj_basis[r] * tableau[r][j]
        y = [obj[basis[r]] for r in range(m)]
        entering = -1
        for j in range(width):
            if j in blocked:
                continue
            cbar = obj[j]
            for r in range(m):
                if y[r] != 0 and tableau[r][j] != 0:
                    cbar -= y[r] * tableau[r][j]
            if cbar > 0:
                entering = j
                break  # Bland: first improving column
        if entering < 0:
            value = ZERO
            for r in range(m):
                if y[r] != 0:
                    value += y[r] * tableau[r][width]
            return value
        leaving = -1
        best = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][width] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving < 0:
            raise Unbounded("unbounded direction found")
        _pivot(tableau, basis, leaving, entering, width)


def _pivot(tableau, basis, r, c, width):
    piv = tableau[r][c]
    row = tableau[r]
    if piv != 1:
        tableau[r] = row = [v / piv for v in row]
    for i, other in enumerate(tableau):
        if i == r:
            continue
        f = other[c]
        if f != 0:
            tableau[i] = [ov - f * rv for ov, rv in zip(other, row)]
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
    value is infinite and the plan is None.
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
    return Value(total, bound), plan


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
