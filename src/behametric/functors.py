"""Functor grammar, structure values over finite carriers, pseudometric tables.

Expressions form a small AST: identity with discount, finitely supported
distributions, finite powerset, binary product/coproduct, constant spaces and
the diagonal square X -> X x X.  Structure values are plain hashable Python
data (atoms are strings, pairs are tuples, sets are frozensets, tagged values
use Tagged, distributions use Distribution).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .values import (
    INF,
    ZERO,
    ConfigurationError,
    TopBound,
    Value,
    add_ext,
    exact,
    exceeds,
    over_common_denominator,
    pth_root,
)


class ShapeError(ValueError):
    """A structure value does not match its functor expression.  ``path``,
    set by validate(), locates the failing part and leads the message."""

    def __init__(self, detail, path=None):
        super().__init__(detail if path is None else f"{path}: {detail}")
        self.path, self.detail = path, detail


# ---------------------------------------------------------------------------
# structure values


@dataclass(frozen=True)
class Tagged:
    tag: str  # "left" | "right"
    value: object

    def __post_init__(self):
        if self.tag not in ("left", "right"):
            raise ShapeError(f"bad coproduct tag {self.tag!r}")


class Distribution:
    """Finitely supported probability distribution with positive rational
    weights summing exactly to 1.  Hashable; support kept in canonical order."""

    __slots__ = ("_items", "_map", "_hash")
    _NO_MASS = Fraction(0)  # shared by every miss of prob: Fractions are immutable

    def __init__(self, items):
        pairs = []
        for x, p in dict(items).items():
            p = p if type(p) is Fraction else Fraction(p)
            if p <= 0:
                raise ShapeError(f"nonpositive weight {p} for {x!r}")
            pairs.append((x, p))
        pairs.sort(key=lambda xp: struct_key(xp[0]))
        total = sum(p for _, p in pairs)
        if total != 1:
            raise ShapeError(f"weights sum to {total}, not 1")
        self._items = tuple(pairs)
        self._map = dict(pairs)
        self._hash = None  # computed on first use: memo and store keys hash it

    @property
    def items(self):
        return self._items

    def support(self):
        return [x for x, _ in self._items]

    def prob(self, x) -> Fraction:
        return self._map.get(x, self._NO_MASS)

    def __eq__(self, other):
        return isinstance(other, Distribution) and self._items == other._items

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{x!r}: {p}" for x, p in self._items)
        return f"Distribution({{{body}}})"


def struct_key(t):
    """Canonical total order on structure values, for deterministic
    iteration no matter the process hash seed."""
    if isinstance(t, str):
        return ("atom", t)
    if isinstance(t, Tagged):
        return ("tag", t.tag, struct_key(t.value))
    if isinstance(t, tuple):
        return ("pair", tuple(struct_key(x) for x in t))
    if isinstance(t, frozenset):
        return ("set", tuple(sorted(struct_key(x) for x in t)))
    if isinstance(t, Distribution):
        return ("dist", tuple((struct_key(x), p) for x, p in t.items))
    raise ShapeError(f"unknown structure value {t!r}")


def sorted_structs(xs):
    return sorted(xs, key=struct_key)


# ---------------------------------------------------------------------------
# pseudometric tables


@lru_cache(maxsize=64)
def _offsets(n: int) -> tuple:
    """The entry of positions i < j of a flat table on n atoms is at
    _offsets(n)[i] + j: row i, the entries j = i+1 .. n-1, follows the
    n-1 + ... + n-i entries of rows 0 .. i-1.  Shared by every table of n
    atoms."""
    return tuple(i * n - i * (i + 1) // 2 - i - 1 for i in range(n))


@lru_cache(maxsize=64)
def _positions(carrier: tuple) -> dict:
    """Each atom of carrier to its position.  Shared by every table on an
    equal carrier."""
    return {a: i for i, a in enumerate(carrier)}


class PseudometricTable:
    """Symmetric distance table with zero diagonal on a finite carrier.

    ``_index`` maps an atom to its carrier position.  Each entry above the
    diagonal is stored once, row by row, in ``_flat``: the distance of the
    atoms at positions i < j is ``_flat[_offset[i] + j]``, and the diagonal
    is ZERO.  Each entry given to the constructor is checked against the
    table's TopBound, and a table built with ``check`` has the triangle
    inequality validated too.  The triangle check compares integers, the
    magnitudes scaled by the LCM of their denominators, doubles (float-mode
    entries, irrational p-norm roots) at their exact ratios; flagged triples
    are re-judged as Values, so verdicts and messages are those of Value
    arithmetic: a triple fails when one side ``exceeds`` the sum of the
    other two.  ``updated`` writes the entries an iteration step moved and
    checks nothing: the engine holds each lift to the bound, and the
    iteration checks the tables it returns.
    """

    # a result keeps its last table, so a table holds no per-instance dict
    # and shares its index and offsets with every table on its carrier
    __slots__ = ("carrier", "_index", "bound", "_offset", "_flat")

    def __init__(self, carrier, entries, bound: TopBound, check: bool = True):
        self.carrier = tuple(carrier)
        self._index = _positions(self.carrier)
        if len(self._index) != len(self.carrier):
            raise ShapeError("duplicate carrier atoms")
        self.bound = bound
        n = len(self.carrier)
        self._offset = _offsets(n)
        flat, diag = [None] * (n * (n - 1) // 2), [None] * n
        for (a, b), v in entries.items():
            i, j = self._index.get(a), self._index.get(b)
            if i is None or j is None:
                raise ShapeError(f"unknown atom in entry ({a!r}, {b!r})")
            v = bound.check(v if isinstance(v, Value) else exact(v))
            cells, k = (diag, i) if i == j else (flat, self._offset[min(i, j)] + max(i, j))
            if cells[k] is not None and cells[k] != v:
                key = (a, b) if a <= b else (b, a)
                raise ShapeError(f"conflicting entries for {key}")
            cells[k] = v
        for i, a in enumerate(self.carrier):
            if diag[i] is not None and not diag[i].is_zero:
                raise ShapeError(f"nonzero diagonal at {a!r}")
        self._flat = [ZERO if v is None else v for v in flat]
        if check:
            self._check_triangle()

    def _row(self, i) -> list:
        """The distances from the atom at position i to every atom, in
        carrier order."""
        flat, off = self._flat, self._offset
        start = off[i] + i + 1
        return ([flat[off[k] + i] for k in range(i)] + [ZERO]
                + flat[start:start + len(self.carrier) - i - 1])

    @staticmethod
    def _scaled(rows):
        """The rows of Values in ``rows`` as integers: the finite magnitudes
        scaled by the LCM of their denominators, doubles at their exact
        ratios.  INF counts as an integer above any sum of two finite
        entries of the rows (not as inf: int + inf raises once the scaled
        integers pass 2**1024)."""
        finite, _ = over_common_denominator(
            [v.mag for row in rows for v in row if not v.is_infinite])
        big = 4 * max(finite, default=0) + 1
        scaled = iter(finite)
        return [[big if v.is_infinite else next(scaled) for v in row] for row in rows]

    def _check_triangle(self):
        """ShapeError at the first failing triangle.  Only i < k is visited:
        (i, j, k) and (k, j, i) fail together, so the first failure is the
        first among all permutations."""
        n = len(self.carrier)
        rows = [self._row(i) for i in range(n)]
        mags = self._scaled(rows)
        for i in range(n):
            ri = mags[i]
            for j in range(n):
                dij, rj = ri[j], mags[j]
                for k in range(i + 1, n):
                    if ri[k] > dij + rj[k] and j != i and j != k:
                        d_ik, rhs = rows[i][k], add_ext(rows[i][j], rows[j][k])
                        if exceeds(d_ik, rhs):
                            a, b, c = self.carrier[i], self.carrier[j], self.carrier[k]
                            raise ShapeError(
                                f"triangle inequality fails: d({a},{c})={d_ik} > "
                                f"d({a},{b})+d({b},{c})={rhs}"
                            )

    def updated(self, changes) -> "PseudometricTable":
        """This table with the entries of ``changes``, {k: Value}, set, k
        counted in ``entries()`` order; the Values of the others are shared.
        Nothing is checked: a position names no unknown atom and no
        diagonal, and the caller's Values are held to the bound."""
        new = copy.copy(self)
        flat = new._flat = self._flat[:]
        for k, v in changes.items():
            flat[k] = v
        return new

    def get(self, a, b) -> Value:
        try:
            i, j = self._index[a], self._index[b]
        except KeyError:
            raise ShapeError(f"atoms {a!r}, {b!r} not in carrier") from None
        if i < j:
            return self._flat[self._offset[i] + j]
        if i > j:
            return self._flat[self._offset[j] + i]
        return ZERO

    def entries(self):
        """(a, b, distance) for each pair of atoms a before b in the carrier."""
        for (a, b), v in zip(combinations(self.carrier, 2), self._flat):
            yield a, b, v

    def relabel(self, mapping) -> "PseudometricTable":
        """Rename carrier atoms along a bijection."""
        new_entries = {
            (mapping[a], mapping[b]): v for a, b, v in self.entries()
        }
        return PseudometricTable(
            [mapping[a] for a in self.carrier], new_entries, self.bound, check=False
        )

    def __eq__(self, other):
        return (
            isinstance(other, PseudometricTable)
            and set(self.carrier) == set(other.carrier)
            and all(self.get(a, b) == other.get(a, b) for a, b, _ in self.entries())
        )


# ---------------------------------------------------------------------------
# functor expressions


class FunctorExpr:
    """Base class; nodes are immutable and carry their evaluation choice."""

    def subexprs(self):
        """This node, then the subexpressions of each child in field order
        (preorder); a node's children are its FunctorExpr fields."""
        yield self
        for f in fields(self):
            child = getattr(self, f.name)
            if isinstance(child, FunctorExpr):
                yield from child.subexprs()


@dataclass(frozen=True)
class Id(FunctorExpr):
    discount: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "discount", Fraction(self.discount))
        if not 0 < self.discount <= 1:
            raise ConfigurationError(f"discount {self.discount} not in (0, 1]")

    @cached_property
    def unit(self) -> bool:
        """The discount is 1: lifting reads the table as it is."""
        return self.discount == 1


@dataclass(frozen=True)
class Dist(FunctorExpr):
    sub: FunctorExpr


@dataclass(frozen=True)
class FinPow(FunctorExpr):
    sub: FunctorExpr


@dataclass(frozen=True)
class MaxEval:
    pass


@dataclass(frozen=True)
class PNormEval:
    p: int
    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))
        if self.p < 1:
            raise ConfigurationError("p must be >= 1")
        for c in (self.c1, self.c2):
            if not 0 < c <= 1:
                raise ConfigurationError(f"weight {c} not in (0, 1]")


@dataclass(frozen=True)
class Product(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr
    eval: object = MaxEval()


@dataclass(frozen=True)
class Coproduct(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr


@dataclass(frozen=True)
class Const(FunctorExpr):
    space: PseudometricTable
    name: str = "const"

    def __hash__(self):
        return hash((self.name, self.space.carrier))


@dataclass(frozen=True)
class DiagSquare(FunctorExpr):
    sub: FunctorExpr


def check_expr_bound(expr: FunctorExpr, bound: TopBound) -> None:
    """One consistent TopBound per expression; Const tables must match and
    a p-norm product under a finite top needs c1 + c2 <= 1 to stay in
    range, the sum evaluation of DiagSquare needs top = inf.  The first
    node in preorder that breaks a rule names it."""
    for e in expr.subexprs():
        if isinstance(e, Const) and e.space.bound != bound:
            raise ConfigurationError(
                f"const space {e.name!r} uses {e.space.bound}, expected {bound}"
            )
        if bound.is_infinite:
            continue
        if isinstance(e, Product) and isinstance(e.eval, PNormEval) and e.eval.c1 + e.eval.c2 > 1:
            raise ConfigurationError("p-norm weights must sum to <= 1 under a finite top")
        if isinstance(e, DiagSquare):
            raise ConfigurationError("diagonal square requires top = inf")


# ---------------------------------------------------------------------------
# validation


def validate(expr: FunctorExpr, carrier, t, path="t") -> None:
    """Accept iff t is a well-formed element of F(carrier).  A caller that
    validates many structures on one carrier hands it in as a frozenset,
    which is used as it is."""
    if type(carrier) is not frozenset:
        carrier = frozenset(carrier)

    def in_carrier(x, where):
        if not isinstance(x, str) or x not in carrier:
            raise ShapeError(f"{x!r} is not a carrier atom", where)

    walk_atoms(expr, t, in_carrier, path)


def walk_atoms(expr: FunctorExpr, t, visit, path="t") -> None:
    """Check that t has the shape of expr, and call visit(x, its path) for
    each part x of t at an Id node, in preorder: those are the atoms at
    which a lifting of t reads the ground table.  A part whose shape does
    not fit its node raises ShapeError at its path when the walk gets
    there; visit judges the atoms."""
    if isinstance(expr, Id):
        visit(t, path)
    elif isinstance(expr, Const):
        if not isinstance(t, str) or t not in expr.space.carrier:
            raise ShapeError(f"{t!r} is not an atom of constant space {expr.name!r}", path)
    elif isinstance(expr, Dist):
        if not isinstance(t, Distribution):
            raise ShapeError(f"expected a distribution, got {t!r}", path)
        for x, _ in t.items:
            walk_atoms(expr.sub, x, visit, f"{path}.support[{x!r}]")
    elif isinstance(expr, FinPow):
        if not isinstance(t, frozenset):
            raise ShapeError(f"expected a frozenset, got {t!r}", path)
        for x in sorted_structs(t):
            walk_atoms(expr.sub, x, visit, f"{path}.{x!r}")
    elif isinstance(expr, (Product, DiagSquare)):
        if not (isinstance(t, tuple) and len(t) == 2):
            raise ShapeError(f"expected a pair, got {t!r}", path)
        sides = (expr.left, expr.right) if isinstance(expr, Product) else (expr.sub, expr.sub)
        for k, side in enumerate(sides):
            walk_atoms(side, t[k], visit, f"{path}[{k}]")
    elif isinstance(expr, Coproduct):
        if not isinstance(t, Tagged):
            raise ShapeError(f"expected a tagged value, got {t!r}", path)
        side = expr.left if t.tag == "left" else expr.right
        walk_atoms(side, t.value, visit, f"{path}.{t.tag}")
    else:
        raise ShapeError(f"unknown expression node {expr!r}", path)


def combine_product(ev, v1: Value, v2: Value) -> Value:
    if isinstance(ev, MaxEval):
        return max(v1, v2)
    if isinstance(ev, PNormEval):
        # one root of the exact power sum, doubles at their exact ratios; under a
        # finite top c1 + c2 <= 1, so the root's nearest double is at most top's
        if v1.is_infinite or v2.is_infinite:
            return Value(INF)
        p = ev.p
        root = pth_root(Value(ev.c1 * v1.as_fraction() ** p + ev.c2 * v2.as_fraction() ** p), p)
        if type(root.mag) is Fraction and not (v1.is_exact and v2.is_exact):
            try:  # a double in gives a double out, where one exists
                return Value(float(root.mag))
            except OverflowError:
                pass
        return root
    raise ShapeError(f"unknown product evaluation {ev!r}")

