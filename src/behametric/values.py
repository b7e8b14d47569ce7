"""Magnitudes of distances, their top bound, and the shared numeric rules.

A distance is a magnitude in [0, top], where top is either a finite
positive rational or infinity.  A ``Value`` is the magnitude alone: the
numbers computed on the way to a distance are not all distances (the p-th
powers inside a p-norm product may pass top), so the bound is kept once,
on the table, the engine and the system, and ``TopBound.check`` holds a
distance to it where one is stored or returned.  Finite exact magnitudes
are Fractions; a finite float is a double, whatever the mode: float mode
stores its entries as doubles, and in exact mode only an irrational p-norm
root makes one.  Infinity is the float ``math.inf``: Python orders it
above every Fraction, and it absorbs under + and under * by a positive
scale; the one undefined case, inf - inf, is handled in ``dist_e``.

Each numeric rule is stated here once: ``exceeds`` judges rounding,
``TopBound.float_limit`` is top's double and ``TopBound.value`` its Value,
``pth_root`` takes a root exactly or to the nearest double, and
``over_common_denominator`` writes magnitudes as ints over one
denominator.  A Fraction meeting a double is converted to a double first,
which overflows past ~1.8e308, so ``add_ext`` and ``dist_e`` then stay
exact (``add_ext`` also when two doubles sum past the range), and
makes a factor below ~1e-308 zero (inf * 0.0 is nan), so ``add_ext``,
``dist_e`` and ``scale`` keep inf out of that arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union


class ConfigurationError(ValueError):
    """Raised on a distance outside [0, top] or an invalid setting."""


INF = math.inf
FLOAT_MAX = sys.float_info.max

Magnitude = Union[Fraction, float]


@dataclass(frozen=True)
class TopBound:
    """The maximal element of the value interval; None limit means infinity."""

    limit: Fraction | None

    def __post_init__(self):
        if self.limit is not None and self.limit <= 0:
            raise ConfigurationError("finite top bound must be positive")

    @cached_property
    def float_limit(self) -> float:
        """The double that stands for the limit, computed once; inf when the
        limit is infinite or past the double range, since every double is below it."""
        limit = self.limit
        return INF if limit is None or limit > FLOAT_MAX else float(limit)

    @cached_property
    def value(self) -> "Value":
        """top as a Value, built once and shared by every lift that meets it."""
        return Value(INF if self.limit is None else self.limit)

    @classmethod
    def finite(cls, q) -> "TopBound":
        return cls(Fraction(q))

    @classmethod
    def infinite(cls) -> "TopBound":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.limit is None

    def check(self, v: "Value") -> "Value":
        """v, if it is a distance under this bound; else ConfigurationError.
        Called where a distance is stored (PseudometricTable) or returned
        (LiftingEngine.dist).  A double may reach float_limit."""
        if self.limit is not None:
            if v.is_infinite:
                raise ConfigurationError("infinite value under a finite bound")
            m, limit = v.mag, self.limit
            if type(m) is Fraction and type(limit) is Fraction:
                # cross-multiplied slots, as in Value.__lt__
                over = m._numerator * limit._denominator > limit._numerator * m._denominator
            else:
                # a double meets top's double; the type test skips the ABC one
                over = m > (self.float_limit if type(m) is float else limit)
            if over:
                raise ConfigurationError(f"value {m} exceeds top {limit}")
        return v

    def __repr__(self):
        return "TopBound(inf)" if self.is_infinite else f"TopBound({self.limit})"


TOP_ONE = TopBound.finite(1)
TOP_INF = TopBound.infinite()


def check_tolerance(tol, name: str) -> None:
    """A tolerance is finite and positive: under inf the first step would
    already pass as converged."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ConfigurationError(f"{name} must be finite and positive, got {tol}")


@dataclass(frozen=True)
class NumericMode:
    """exact: all comparisons are exact; float: compared up to tolerance."""

    kind: str  # "exact" | "float"
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind not in ("exact", "float"):
            raise ConfigurationError(f"unknown numeric mode {self.kind!r}")
        if self.kind == "float":
            check_tolerance(self.tolerance, "float-mode tolerance")

    @classmethod
    def exact(cls) -> "NumericMode":
        return cls("exact")

    @classmethod
    def approx(cls, tolerance: float = 1e-9) -> "NumericMode":
        return cls("float", tolerance)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


EXACT = NumericMode.exact()


@dataclass(frozen=True, slots=True)
class Value:
    """A nonnegative magnitude, with no bound of its own.

    ``mag`` is a Fraction (exact), INF, or a finite float.  A finite float
    is a double (a float-mode entry or an irrational p-th root), flags the
    value as inexact and propagates through further arithmetic.  Values
    order by their magnitudes, so INF is greatest.
    """

    mag: Magnitude

    def __post_init__(self):
        m = self.mag
        # a Fraction's sign is its numerator's; Fraction's own m < 0 first
        # runs an ABC isinstance test on the int 0, and a double's type test
        # skips the isinstance one.  nan, unequal to itself, would order
        # below, above and equal to nothing
        if type(m) is Fraction:
            negative = m._numerator < 0
        elif (type(m) is float or isinstance(m, (Fraction, float))) and m == m:
            negative = m < 0
        else:
            raise ConfigurationError(f"bad magnitude {m!r}")
        if negative:
            raise ConfigurationError(f"negative value {m}")

    # -- predicates ---------------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        # the type test spares a Fraction its slow == against a float
        return type(self.mag) is float and self.mag == INF

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.mag, float) or self.mag == INF

    @property
    def is_zero(self) -> bool:
        return self.mag == 0

    # -- conversions --------------------------------------------------------

    def as_float(self) -> float:
        return float(self.mag)

    def as_fraction(self) -> Fraction:
        """The rational of a finite magnitude; a double gives its exact
        binary value, so solvers can price inexact costs exactly."""
        return self.mag if isinstance(self.mag, Fraction) else Fraction(self.mag)

    # -- ordering (a > b and a >= b fall back to b < a and b <= a) -----------
    # A Value against itself answers at once.  Two Fractions cross-multiply
    # their _numerator and _denominator slots (denominators are positive):
    # Fraction's own comparison first runs an ABC isinstance test on the
    # other operand, and its numerator and denominator are Python-level
    # properties over these slots, which every supported CPython has.

    def __lt__(self, other: "Value") -> bool:
        if self is other:
            return False
        a, b = self.mag, other.mag
        if type(a) is Fraction and type(b) is Fraction:
            return a._numerator * b._denominator < b._numerator * a._denominator
        return a < b

    def __le__(self, other: "Value") -> bool:
        if self is other:
            return True
        a, b = self.mag, other.mag
        if type(a) is Fraction and type(b) is Fraction:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        return a <= b

    def __repr__(self):
        return f"Value({format_magnitude(self.mag)})"


ZERO = Value(Fraction(0))


def top(bound: TopBound) -> Value:
    return bound.value


def exact(q) -> Value:
    """Build an exact value from anything Fraction accepts, or INF."""
    return Value(q if q == INF else Fraction(q))


def dist_e(a: Value, b: Value) -> Value:
    """Euclidean distance on [0, inf], with d(x, inf) = inf for x != inf
    and d(inf, inf) = 0."""
    if a is b or a.mag == b.mag:
        return ZERO
    if a.is_infinite or b.is_infinite:
        return Value(INF)
    try:
        return Value(abs(a.mag - b.mag))
    except OverflowError:  # a Fraction past the double range beside a double
        return Value(abs(Fraction(a.mag) - Fraction(b.mag)))


def add_ext(a: Value, b: Value) -> Value:
    """Extended addition: x + inf = inf.  The sum is no distance and may
    pass top; set against a stored distance, which is at most top, it gives
    the triangle verdict that the sum clamped to top would give.  A finite
    sum past the double range is taken exactly."""
    if a.is_infinite or b.is_infinite:
        return Value(INF)
    try:
        s = a.mag + b.mag
    except OverflowError:  # a Fraction past the double range beside a double
        s = INF
    if type(s) is float and s == INF:  # or two doubles whose sum passes it
        s = Fraction(a.mag) + Fraction(b.mag)
    return Value(s)


def scale(v: Value, c: Fraction) -> Value:
    """Multiply by a positive rational c, validated where it was built (an
    Id discount, a p-norm weight, an oracle's plan weight); c * inf = inf."""
    m = v.mag
    if type(m) is float:
        # the double m * c is m * float(c), without Fraction's ABC isinstance tests
        return v if m == INF else Value(m * float(c))
    if c == 1:
        return v
    return Value(m * c)


def _floor_root(n: int, p: int) -> int:
    """floor(n ** (1/p)) of an int n >= 0 of any size, by integer Newton from
    a double's estimate of the root, so that the steps do not grow with p."""
    if n < 2:
        return n
    e = max(0, n.bit_length() // p - 53)  # the estimate is a double times 2**e
    x = (int(2.0 ** (math.log2(n) / p - e)) + 1) << e
    # one step from any x > 0 lands at or above the root (AM-GM), from x so
    # near the root just above it; from there each step falls until the next
    # would not
    x = ((p - 1) * x + n // x ** (p - 1)) // p
    while (y := ((p - 1) * x + n // x ** (p - 1)) // p) < x:
        x = y
    return x


def pth_root(v: Value, p: int) -> Value:
    """p-th root: exact when the magnitude is a Fraction whose numerator and
    denominator are perfect p-th powers, otherwise the double nearest the
    root, so a double in gives a double out."""
    if p < 1:
        raise ConfigurationError("root order must be >= 1")
    m = v.mag
    if p == 1 or v.is_infinite:
        return v
    n, d = m.as_integer_ratio()
    if type(m) is Fraction:
        rn = _floor_root(n, p)
        if rn**p == n and (rd := _floor_root(d, p)) ** p == d:
            return Value(Fraction(rn, rd))
    # the floor root r of n/d * 2**(p*s) has at least 55 bits, so the double
    # nearest the root is that of r/2**s, or of (r + 1/2)/2**s when r is not
    # the root: ties of doubles so near fall on ints; int division rounds right
    s = 54 - (n.bit_length() - d.bit_length() - 1) // p
    a, b = (n << p * s, d) if s >= 0 else (n, d << -p * s)
    r = _floor_root(a // b, p)
    twice = 2 * r + (r**p * b != a)
    try:
        return Value(twice / (1 << s + 1) if s >= 0 else float(twice << -s - 1))
    except OverflowError:
        raise ConfigurationError(
            f"irrational {p}-th root of a {n.bit_length()}-bit magnitude exceeds the float range"
        ) from None


def rounding_slack(x: float) -> float:
    """The gap that rounding to doubles may open next to a finite double x:
    two ulps of x, and never less than 1e-12."""
    return max(1e-12, 2 * math.ulp(x))


def exceeds(a: Value, b: Value) -> bool:
    """a lies above b by more than rounding explains: by any amount when
    both are exact, else by more than rounding_slack(b) in doubles."""
    if not b < a:
        return False
    if a.is_exact and b.is_exact:
        return True
    try:
        return a.as_float() - b.as_float() > rounding_slack(b.as_float())
    except OverflowError:  # a lies past the double range, and b is a double below it
        return True


def over_common_denominator(mags) -> tuple:
    """(ints, den): the finite magnitudes mags as ints over den, the LCM of
    their denominators, one gcd at a time; a double enters at its exact ratio."""
    ratios = [m.as_integer_ratio() for m in mags]
    den = 1
    for _, d in ratios:
        if den % d:
            den = den // math.gcd(den, d) * d
    return [n * (den // d) for n, d in ratios], den


def format_magnitude(m: Magnitude) -> str:
    if isinstance(m, float):
        return repr(m)
    if m.denominator == 1:
        return _decimal(m.numerator)
    return f"{_decimal(m.numerator)}/{_decimal(m.denominator)}"


_CHUNK = 10**4000


def _decimal(n: int) -> str:
    """Decimal text of a nonnegative int of any size: str() refuses past
    Python's 4,300-digit limit, so long ints go 4,000 digits at a time."""
    if n < _CHUNK:
        return str(n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:04000d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))
