"""Seeded random instance generators and the property suites.

The suites back both the test suite and the CLI `check` command: duality
(K = W on duality-preserving nodes), k-le-w (K <= W everywhere), axioms
(lifted distances are pseudometrics), well-behaved (max passes, min fails
with the known witnesses), and oracle (engine vs brute force).  Both methods
share one code path wherever lifting.method_matters is False, every
catalogue node but diagsquare, so axioms and k-le-w lift each instance
there once and count its verdict for both methods, and duality checks only
those nodes.  Until a definitional Kantorovich referee covers each node,
k-le-w and duality hold there by construction (duality's dist keeps its
simplex referee).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .functors import (
    Coproduct,
    Const,
    DiagSquare,
    Dist,
    Distribution,
    FinPow,
    Id,
    MaxEval,
    PNormEval,
    Product,
    PseudometricTable,
    Tagged,
    sorted_structs,
)
from .lifting import (
    KANTOROVICH,
    METHODS,
    WASSERSTEIN,
    LiftingEngine,
    check_well_behaved,
    lift_dist,
    method_matters,
)
from .oracle import (
    LinearProgram,
    kantorovich_lp,
    kantorovich_vertex_oracle,
    solve_max,
    wasserstein_oracle,
)
from .values import (
    INF,
    TOP_INF,
    TOP_ONE,
    TopBound,
    Value,
    add_ext,
)

ATOMS = ("a", "b", "c", "d", "e")


# ---------------------------------------------------------------------------
# generators


@functools.cache
def _multiples(unit: Fraction) -> dict:
    """k -> the Value of k units, None -> INF, for every k the closure can
    sum on five atoms (8 * 4); built once per unit, shared and never written."""
    return {None: Value(INF), **{k: Value(unit * k) for k in range(8 * (len(ATOMS) - 1) + 1)}}


def random_pseudometric(rng: random.Random, bound: TopBound, n_atoms=None) -> PseudometricTable:
    """Random table made triangle-valid by shortest-path closure."""
    n = n_atoms if n_atoms is not None else rng.randint(2, 5)
    atoms = ATOMS[:n]
    if bound.is_infinite:
        unit, pool = Fraction(1, 4), list(range(9)) + [None, None]
    else:
        unit, pool = bound.limit / 8, list(range(9))
    pairs = list(itertools.combinations(range(n), 2))
    raw = [[0] * n for _ in range(n)]  # multiples of unit, None for INF
    for i, j in pairs:
        raw[i][j] = raw[j][i] = rng.choice(pool)
    for mid in range(n):  # min-plus closure
        for i, j in pairs:
            left, right, old = raw[i][mid], raw[mid][j], raw[i][j]
            if None not in (left, right) and (old is None or left + right < old):
                raw[i][j] = raw[j][i] = left + right
    values = _multiples(unit)
    entries = {(atoms[i], atoms[j]): values[raw[i][j]] for i, j in pairs}
    return PseudometricTable(atoms, entries, bound, check=False)


def random_distribution(rng: random.Random, items, max_support=4) -> Distribution:
    support = rng.sample(list(items), rng.randint(1, min(max_support, len(items))))
    weights = [rng.randint(1, 6) for _ in support]
    total = sum(weights)
    return Distribution({x: Fraction(w, total) for x, w in zip(support, weights)})


def random_structure(rng: random.Random, expr, carrier):
    if isinstance(expr, Id):
        return rng.choice(list(carrier))
    if isinstance(expr, Const):
        return rng.choice(list(expr.space.carrier))
    if isinstance(expr, Dist):
        # distributions over substructures; keep supports small
        items = {random_structure(rng, expr.sub, carrier) for _ in range(4)}
        return random_distribution(rng, sorted_structs(items), max_support=4)
    if isinstance(expr, FinPow):
        items = {random_structure(rng, expr.sub, carrier) for _ in range(rng.randint(0, 4))}
        return frozenset(items)
    if isinstance(expr, (Product, DiagSquare)):
        left = expr.left if isinstance(expr, Product) else expr.sub
        right = expr.right if isinstance(expr, Product) else expr.sub
        return (
            random_structure(rng, left, carrier),
            random_structure(rng, right, carrier),
        )
    if isinstance(expr, Coproduct):
        tag = rng.choice(("left", "right"))
        side = expr.left if tag == "left" else expr.right
        return Tagged(tag, random_structure(rng, side, carrier))
    raise ValueError(f"no generator for {expr!r}")


def node_catalogue(bound: TopBound, rng: random.Random):
    """One representative expression per grammar node, over Id leaves."""
    leaf = Id(Fraction(1))
    discounted = Id(Fraction(rng.randint(1, 4), 4))
    const_space = random_pseudometric(rng, bound, n_atoms=3).relabel(
        {"a": "p", "b": "q", "c": "r"}
    )
    nodes = [
        ("id", discounted),
        ("const", Const(const_space, name="k")),
        ("dist", Dist(leaf)),
        ("finpow", FinPow(leaf)),
        ("product-max", Product(leaf, leaf, MaxEval())),
        ("coproduct", Coproduct(leaf, discounted)),
    ]
    if bound.is_infinite:
        nodes.append(("product-pnorm", Product(leaf, leaf, PNormEval(1, Fraction(1, 2), Fraction(3, 4)))))
        nodes.append(("diagsquare", DiagSquare(leaf)))
    else:
        nodes.append(("product-pnorm", Product(leaf, leaf, PNormEval(1, Fraction(1, 2), Fraction(1, 2)))))
    return nodes


# ---------------------------------------------------------------------------
# suite results


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)
    seed: int = 0

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        line = f"{self.name}: {verdict} ({self.checked} checks, seed {self.seed})"
        for f in self.failures[:5]:
            line += f"\n  witness: {f}"
        return line


def _instances(seed, n, k=2):
    """Yield (node name, expr, method_matters(expr), table, [k structures]),
    n per catalogue node."""
    rng = random.Random(seed)
    for bound in (TOP_ONE, TOP_INF):
        for name, expr in node_catalogue(bound, rng):
            matters = method_matters(expr)
            for _ in range(n):
                d = random_pseudometric(rng, bound)
                ts = [random_structure(rng, expr, d.carrier) for _ in range(k)]
                yield name, expr, matters, d, ts


def suite_k_le_w(seed=0, n=50) -> SuiteResult:
    checked = 0
    failures = []
    for name, expr, matters, d, (t1, t2) in _instances(seed, n):
        k = lift_dist(expr, d, KANTOROVICH, t1, t2)
        w = lift_dist(expr, d, WASSERSTEIN, t1, t2) if matters else k
        checked += 1
        if not k <= w:
            failures.append((name, t1, t2, k, w))
    return SuiteResult("k-le-w", not failures, checked, failures, seed)


def _dist_kantorovich_lp(d, p1, p2) -> LinearProgram:
    """The Kantorovich LP of Dist(Id(1)) between p1 and p2 over the union of
    their supports, written out independently of the engine's transport."""
    points = sorted_structs(set(p1.support()) | set(p2.support()))
    finite_pairs = []
    for i, j in itertools.combinations(range(len(points)), 2):
        v = d.get(points[i], points[j])
        if not v.is_infinite:
            finite_pairs.append((i, j, v.as_fraction()))
    return kantorovich_lp([p1.prob(x) - p2.prob(x) for x in points], finite_pairs)


def suite_duality(seed=0, n=50) -> SuiteResult:
    """K = W on the nodes where the method does not matter: one lift, held
    to top by the engine, is both.  At Dist, K is also checked against the
    simplex solution of the Kantorovich LP."""
    checked = 0
    failures = []
    for name, expr, matters, d, (t1, t2) in _instances(seed, n):
        if matters:
            continue
        k = lift_dist(expr, d, KANTOROVICH, t1, t2)
        checked += 1
        if name == "dist":
            best, _ = solve_max(_dist_kantorovich_lp(d, t1, t2))
            if k != Value(best):
                failures.append((name, t1, t2, k, best))
    return SuiteResult("duality", not failures, checked, failures, seed)


def suite_axioms(seed=0, n=50) -> SuiteResult:
    """Reflexivity, symmetry and the triangle inequality of every lifted
    distance, plus monotonicity of the lifting in the ground metric.  Where
    the method does not matter one engine's verdicts count for both."""
    checked = 0
    failures = []
    for name, expr, matters, d, ts in _instances(seed, n, k=3):
        for methods in ((KANTOROVICH,), (WASSERSTEIN,)) if matters else (METHODS,):
            engine = LiftingEngine(expr, d, methods[0])
            found = []
            for t in ts:
                if not engine.dist(t, t).is_zero:
                    found.append(("reflexivity", t))
            for t1, t2 in itertools.combinations(ts, 2):
                v = engine.dist(t1, t2)
                # fresh engine: the memo would make the reversed call a
                # tautology
                if v != lift_dist(expr, d, engine.method, t2, t1):
                    found.append(("symmetry", t1, t2))
            v01 = engine.dist(ts[0], ts[1])
            v12 = engine.dist(ts[1], ts[2])
            v02 = engine.dist(ts[0], ts[2])
            if not v02 <= add_ext(v01, v12):
                found.append(("triangle", ts))
            for method in methods:
                failures += [(name, method, *f) for f in found]
                checked += 1
    return SuiteResult("axioms", not failures, checked, failures, seed)


def suite_well_behaved(seed=0, n=50) -> SuiteResult:
    failures = []
    checked = 0
    for bound in (TOP_ONE, TOP_INF):
        rep_max = check_well_behaved("max", bound, seed=seed, n_random=n)
        rep_min = check_well_behaved("min", bound, seed=seed, n_random=n)
        checked += 2
        if not rep_max.all_ok:
            failures.append(("max should pass", bound, rep_max.witnesses))
        if rep_min.condition2_ok or rep_min.condition3_ok:
            failures.append(("min should fail conditions 2 and 3", bound))
    return SuiteResult("well-behaved", not failures, checked, failures, seed)


def suite_oracle(seed=0, n=30) -> SuiteResult:
    """Engine vs brute force: Hausdorff vs coupling enumeration, the
    transportation simplex vs polytope vertices, and the Kantorovich lifting
    of a distribution vs active-set vertex enumeration of the LP boxed in
    [0, top]."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for bound in (TOP_ONE, TOP_INF):
        finpow = FinPow(Id(Fraction(1)))
        dist = Dist(Id(Fraction(1)))
        for _ in range(n):
            d = random_pseudometric(rng, bound, n_atoms=rng.randint(2, 4))
            s1 = random_structure(rng, finpow, d.carrier)
            s2 = random_structure(rng, finpow, d.carrier)
            engine = lift_dist(finpow, d, WASSERSTEIN, s1, s2)
            brute = wasserstein_oracle(finpow, d, s1, s2)
            checked += 1
            if engine != brute:
                failures.append(("finpow", s1, s2, engine, brute))
            p1 = random_distribution(rng, d.carrier)
            p2 = random_distribution(rng, d.carrier)
            engine = lift_dist(dist, d, WASSERSTEIN, p1, p2)
            brute = wasserstein_oracle(dist, d, p1, p2)
            checked += 1
            if engine != brute:
                failures.append(("dist-w", p1, p2, engine, brute))
            lp = _dist_kantorovich_lp(d, p1, p2)
            m = len(lp.objective)
            if not bound.is_infinite and m <= 4:
                # the oracle solves the paper's LP, over f: points -> [0, top]
                box = [([Fraction(k == i) for k in range(m)], bound.limit) for i in range(m)]
                vertex = kantorovich_vertex_oracle(
                    LinearProgram(lp.objective, lp.constraints + box)
                )
                engine = lift_dist(dist, d, KANTOROVICH, p1, p2)
                checked += 1
                if engine != Value(vertex):
                    failures.append(("dist-k", p1, p2, engine, vertex))
    return SuiteResult("oracle", not failures, checked, failures, seed)


SUITES = {
    "duality": suite_duality,
    "axioms": suite_axioms,
    "k-le-w": suite_k_le_w,
    "well-behaved": suite_well_behaved,
    "oracle": suite_oracle,
}


def run_suite(name, seed=0, n=50) -> SuiteResult:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    return fn(seed=seed, n=n)


# ---------------------------------------------------------------------------
# random probabilistic and metric transition systems, used by the tests


def random_prob_ts(rng: random.Random, max_states=6, c=Fraction(1, 2)):
    from .coalgebra import ProbTS

    n = rng.randint(2, max_states)
    states = tuple(f"s{i}" for i in range(n))
    transitions = {}
    terminate = {}
    for s in states:
        succ = rng.sample(states, rng.randint(1, min(3, n)))
        weights = [rng.randint(0, 6) for _ in succ]
        tweight = rng.randint(0, 4)
        total = sum(weights) + tweight
        if total == 0:
            terminate[s] = Fraction(1)
            transitions[s] = {}
            continue
        transitions[s] = {
            t: Fraction(w, total) for t, w in zip(succ, weights) if w > 0
        }
        terminate[s] = Fraction(tweight, total)
    return ProbTS(states, transitions, terminate, c)


def random_metric_ts(rng: random.Random, max_states=5):
    from .coalgebra import MetricTS

    n = rng.randint(2, max_states)
    states = tuple(f"s{i}" for i in range(n))
    table = random_pseudometric(rng, TOP_INF, n_atoms=rng.randint(2, 4))
    valuation = {
        s: {"r": rng.choice(table.carrier)} for s in states
    }
    tau = {
        s: frozenset(rng.sample(states, rng.randint(0, min(3, n)))) for s in states
    }
    return MetricTS(states, [("r", table)], valuation, tau)
