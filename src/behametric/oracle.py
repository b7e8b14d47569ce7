"""Brute-force referees for the lifting computations.

Everything here is meant for tests and the `check` command only, and shares
no code with the engine it checks: Wasserstein by coupling enumeration for
finite sets, by the one forced coupling for the diagonal square and by
transportation-polytope vertex enumeration for distributions, and, for the
Kantorovich side, which the engine computes by transport, the
nonexpansiveness LP itself, solved by a tableau simplex and by
polytope-vertex enumeration.  Both enumerations run on Python ints, scaled
here and not by the engine's helpers: transport plans over the LCM of the
masses, and LP vertices by a depth-first walk over the active sets with
fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .functors import DiagSquare, Dist, FinPow, Id, sorted_structs
from .values import INF, Value, add_ext, scale, top

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_COUPLING_CELLS = 16  # candidate cells in enumerate_couplings_finpow
MAX_SUPPORT = 4  # support points per distribution in wasserstein_oracle
MAX_BASES = 200000  # candidate active sets in lp_vertices


class OracleScaleError(ValueError):
    """An instance outside what brute force enumerates."""


def _ground_fn(sub, d):
    """Pairwise distance under the node's argument.  Oracles referee single
    grammar nodes, so the argument is Id."""
    if not isinstance(sub, Id):
        raise OracleScaleError(f"no oracle under argument {type(sub).__name__}")
    return lambda a, b: scale(d.get(a, b), sub.discount)


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
        # the projections force the one coupling ((t1[0], t2[0]), (t1[1], t2[1]))
        ground = _ground_fn(expr.sub, d)
        return add_ext(ground(t1[0], t2[0]), ground(t1[1], t2[1]))
    if isinstance(expr, Dist):
        ground = _ground_fn(expr.sub, d)
        xs, ys = t1.support(), t2.support()
        if max(len(xs), len(ys)) > MAX_SUPPORT:
            raise OracleScaleError("distribution support exceeds the oracle cap")
        best = None
        supply, demand = [t1.prob(x) for x in xs], [t2.prob(y) for y in ys]
        for plan in transportation_vertices(supply, demand):
            val = Value(ZERO)
            for i, a in enumerate(xs):
                for j, b in enumerate(ys):
                    w = plan[i][j]
                    if w > 0:
                        val = add_ext(val, scale(ground(a, b), w))
            if best is None or val < best:
                best = val
        return best
    raise OracleScaleError(f"no oracle for node {type(expr).__name__}")


def enumerate_couplings_finpow(x1: frozenset, x2: frozenset):
    """All T subset of X1 x X2 with full projections.  Empty collection iff
    exactly one side is empty; {emptyset} when both are."""
    if not x1 and not x2:
        return [frozenset()]
    if not x1 or not x2:
        return []
    cells = [(a, b) for a in sorted_structs(x1) for b in sorted_structs(x2)]
    if len(cells) > MAX_COUPLING_CELLS:
        raise OracleScaleError(
            f"{len(cells)} candidate cells exceed the oracle cap {MAX_COUPLING_CELLS}"
        )
    out = []
    for mask in range(1, 1 << len(cells)):
        chosen = [cells[k] for k in range(len(cells)) if mask >> k & 1]
        if {a for a, _ in chosen} == set(x1) and {b for _, b in chosen} == set(x2):
            out.append(frozenset(chosen))
    return out


def transportation_vertices(supply, demand):
    """All basic feasible solutions of the balanced transportation polytope,
    for nonempty supply and demand.

    Vertices correspond to spanning trees of m+n-1 cells; each tree yields
    at most one plan, kept when nonnegative.  The cell sets are walked
    depth-first in ``itertools.combinations`` order, and a cell that would
    close a cycle among the rows and columns already joined is skipped with
    every set that extends it: such a set is no tree.  The masses are scaled
    to ints over their LCM once, and each plan is peeled on ints.
    """
    m, n = len(supply), len(demand)
    if sum(supply) != sum(demand):
        raise ValueError("unbalanced instance")
    masses = [Fraction(x) for x in (*supply, *demand)]
    unit = lcm(*(x.denominator for x in masses))
    masses = [x.numerator * (unit // x.denominator) for x in masses]
    cells = [(i, j) for i in range(m) for j in range(n)]
    size = m + n - 1

    def trees(start, comp, chosen):
        # comp labels each line's component: rows 0..m-1, then the columns
        if len(chosen) == size:
            yield tuple(chosen)
            return
        for c in range(start, len(cells) - size + len(chosen) + 1):
            i, j = cells[c]
            a, b = comp[i], comp[m + j]
            if a != b:
                chosen.append(cells[c])
                yield from trees(c + 1, [a if x == b else x for x in comp], chosen)
                chosen.pop()

    seen = set()
    for subset in trees(0, list(range(m + n)), []):
        flow = _solve_tree(masses, m, subset)
        if flow is None:
            continue
        # the nonzero cells with their flows: the flows alone would merge
        # plans that carry one flow list on different cells
        key = tuple((c, flow[c]) for c in subset if flow[c])
        if key not in seen:
            seen.add(key)
            plan = [[ZERO] * n for _ in range(m)]
            for (i, j), x in key:
                plan[i][j] = Fraction(x, unit)
            yield plan


def _solve_tree(masses, m, cells):
    """The int flow of each cell of a candidate basic cell set, found by
    peeling leaves: a row or column with one cell left sends that cell
    everything it still holds.  masses lists the m row masses, then the
    column masses.  None when peeling stalls on a cycle, a flow turns
    negative, or a mass is left over."""
    # lines 0..m-1 are the rows, m.. the columns
    held = list(masses)
    lines = [[] for _ in held]
    for i, j in cells:
        lines[i].append((i, j))
        lines[m + j].append((i, j))
    leaves = [k for k, cs in enumerate(lines) if len(cs) == 1]
    flow = {}
    while leaves:
        k = leaves.pop()
        if len(lines[k]) != 1:
            continue  # its last cell went with the other end
        (i, j), = lines[k]
        x = held[k]
        if x < 0:
            return None
        flow[i, j] = x
        for end in (i, m + j):
            held[end] -= x
            lines[end].remove((i, j))
            if len(lines[end]) == 1:
                leaves.append(end)
    if any(lines) or any(held):
        return None
    return flow


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
    over the hyperplanes x_i = 0 and the constraint rows.

    Each hyperplane is scaled to ints, and the active sets are walked
    depth-first in lexicographic order, the chosen rows kept in reduced
    echelon form by fraction-free elimination.  A row that reduces to zero
    coefficients makes every active set holding the rows chosen so far
    singular, so that whole subtree is skipped.
    """
    n = len(lp.objective)
    if n > 6:
        raise OracleScaleError("vertex oracle capped at 6 variables")
    if comb(n + len(lp.constraints), n) > MAX_BASES:
        raise OracleScaleError("too many candidate active sets")
    # the hyperplanes' coefficients, then their rhs, over the LCM of their
    # denominators: x_i = 0, then the constraint rows
    rows = [[int(k == i) for k in range(n + 1)] for i in range(n)]
    for coeffs, rhs in lp.constraints:
        unit = lcm(*(c.denominator for c in coeffs), rhs.denominator)
        rows.append([c.numerator * (unit // c.denominator) for c in (*coeffs, rhs)])
    seen = set()

    def walk(echelon, start):
        # echelon: (pivot column, row) pairs; each row is divided by the gcd
        # of its entries, its pivot is positive, the other pivots' columns zero
        if len(echelon) == n:
            # rows p x_c = b with gcd(p, b) = 1, so X over the LCM D of the
            # pivots is the vertex in lowest terms: one key per vertex, and
            # a repeat of a degenerate vertex is not tested again
            den = lcm(*(row[c] for c, row in echelon))
            x = [0] * n
            for c, row in echelon:
                x[c] = row[n] * (den // row[c])
            key = (tuple(x), den)
            if key in seen:
                return
            seen.add(key)
            if all(xi >= 0 for xi in x) and all(
                sum(a * xi for a, xi in zip(row, x)) <= row[n] * den for row in rows[n:]
            ):
                yield [Fraction(xi, den) for xi in x]
            return
        for k in range(start, len(rows) - n + len(echelon) + 1):
            new = rows[k]
            for c, row in echelon:
                f = new[c]
                if f:
                    new = [row[c] * a - f * b for a, b in zip(new, row)]
            pivot = next((c for c in range(n) if new[c]), None)
            if pivot is None:
                continue
            g = gcd(*new) if new[pivot] > 0 else -gcd(*new)
            new = [a // g for a in new]
            reduced = []
            for c, row in echelon:
                f = row[pivot]
                if f:
                    row = [new[pivot] * a - f * b for a, b in zip(row, new)]
                    g = gcd(*row)
                    row = [a // g for a in row]
                reduced.append((c, row))
            reduced.append((pivot, new))
            yield from walk(reduced, k + 1)

    yield from walk([], 0)


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
