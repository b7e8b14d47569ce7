"""The one node where Kantorovich and Wasserstein genuinely differ.

Take the diagonal square functor FX = X x X with the sum evaluation
ev(r1, r2) = r1 + r2, a two-point space with d(x1, x2) = 1, and the pair
t1 = (x1, x2) versus its swap t2 = (x2, x1).

The only coupling whose projections give back t1 and t2 is
((x1, x2), (x2, x1)), so the Wasserstein distance pays the straight
matching, d(x1, x2) + d(x2, x1) = 2.  But every nonexpansive test function f
gives f(x1) + f(x2) - f(x2) - f(x1) = 0, so the Kantorovich distance is 0.
By Kantorovich-Rubinstein duality it is also the cheaper of shipping t1's
components onto t2's straight or crossed, and crossing sends x1 to x1 and
x2 to x2 for free: the duality gap of 2 is the saving from crossing.
"""

from fractions import Fraction as F

from behametric import DiagSquare, Id, PseudometricTable, duality_gap, lift_dist
from behametric import KANTOROVICH, WASSERSTEIN
from behametric.values import TOP_INF, Value

d = PseudometricTable(
    ["x1", "x2"], {("x1", "x2"): Value(F(1))}, TOP_INF
)
expr = DiagSquare(Id())
t1, t2 = ("x1", "x2"), ("x2", "x1")

k = lift_dist(expr, d, KANTOROVICH, t1, t2)
w = lift_dist(expr, d, WASSERSTEIN, t1, t2)

print("diagonal square over d(x1,x2) = 1, t1 = (x1,x2), t2 = (x2,x1)")
print(f"  kantorovich : {k.mag}")
print(f"  wasserstein : {w.mag}")
print(f"  gap         : {duality_gap(expr, d, t1, t2).mag}")
print()
print("K <= W always holds; equality fails here because the diagonal")
print("square forces one shared test function on both components, while")
print("the single admissible coupling pays the full distance twice.")
