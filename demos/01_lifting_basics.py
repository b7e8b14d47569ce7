"""Lift a pseudometric through each node of the functor grammar.

Walks the grammar one node at a time: start from a tiny ground space and
show what the Kantorovich (sup over nonexpansive test functions) and
Wasserstein (inf over couplings) liftings produce.  On every node shown
here the two coincide.
"""

from fractions import Fraction as F

from behametric import (
    Const, Coproduct, Dist, Distribution, FinPow, Id, MaxEval, PNormEval,
    Product, PseudometricTable, Tagged, KANTOROVICH, WASSERSTEIN, lift_dist,
)
from behametric.values import TOP_ONE, Value

# ground space: three points at rational distances, top bound 1
d = PseudometricTable(
    ["a", "b", "c"],
    {
        ("a", "b"): Value(F(1, 3)),
        ("b", "c"): Value(F(1, 3)),
        ("a", "c"): Value(F(2, 3)),
    },
    TOP_ONE,
)

def show(label, expr, t1, t2):
    k = lift_dist(expr, d, KANTOROVICH, t1, t2)
    w = lift_dist(expr, d, WASSERSTEIN, t1, t2)
    print(f"{label:<28} K = {k.mag}   W = {w.mag}")

print("ground distance d(a,b) = 1/3, d(b,c) = 1/3, d(a,c) = 2/3\n")

# identity with a discount scales the distance
show("Id(9/10) on (a, c)", Id(F(9, 10)), "a", "c")

# constant spaces ignore the ground metric entirely
unit = PseudometricTable(["*"], {}, TOP_ONE, check=False)
show("Const(singleton)", Const(unit, name="unit"), "*", "*")

# distributions: optimal transport between the two weightings
p1 = Distribution({"a": F(1, 2), "b": F(1, 2)})
p2 = Distribution({"a": F(1)})
show("Dist on {a:1/2,b:1/2} vs a", Dist(Id()), p1, p2)

# finite sets: the Hausdorff distance
show("FinPow on {a,b} vs {c}", FinPow(Id()), frozenset("ab"), frozenset("c"))

# products: max of the components, or a weighted p-norm
show("Product(max)", Product(Id(), Id(), MaxEval()), ("a", "a"), ("b", "c"))
show("Product(1-norm, 1/2+1/2)",
     Product(Id(), Id(), PNormEval(1, F(1, 2), F(1, 2))), ("a", "a"), ("b", "c"))

# coproducts: same tag compares inside, mixed tags are maximally apart
show("Coproduct same tag", Coproduct(Id(), Id()),
     Tagged("left", "a"), Tagged("left", "b"))
show("Coproduct mixed tags", Coproduct(Id(), Id()),
     Tagged("left", "a"), Tagged("right", "a"))
