import dataclasses
import json
import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from behametric.coalgebra import (
    MetricTS,
    ProbTS,
    System,
    from_metric_ts,
    from_prob_ts,
    load_system,
)
from behametric.fixpoint import (
    DistanceMatrix,
    IterationOptions,
    UnconvergedError,
    behavioral_distances,
    bisimilarity_partition,
    format_value,
    kernel_partition,
    matrix_to_csv,
    matrix_to_json,
    same_partition,
    trace_to_csv,
    verify_fixed_point,
)
from behametric.functors import (
    Const,
    Coproduct,
    Dist,
    Distribution,
    FinPow,
    Id,
    PNormEval,
    Product,
    PseudometricTable,
    ShapeError,
    Tagged,
    sorted_structs,
)
from behametric.lifting import KANTOROVICH, WASSERSTEIN, LiftingEngine
from behametric.suites import random_metric_ts, random_prob_ts
from behametric.values import (
    EXACT,
    INF,
    ZERO,
    ConfigurationError,
    NumericMode,
    TOP_INF,
    TOP_ONE,
    TopBound,
    Value,
    dist_e,
    exceeds,
)


def fig1_left(c=F(9, 10), eps=F(1, 20)):
    return ProbTS(
        states=("x", "y", "u", "z"),
        transitions={
            "x": {"u": F(1, 2) - eps, "z": F(1, 2) + eps},
            "y": {"u": F(1, 2), "z": F(1, 2)},
            "u": {"u": F(1)},
            "z": {},
        },
        terminate={"z": F(1)},
        c=c,
    )


def fig1_right():
    import itertools

    vals = {"0": F(0), "2/5": F(2, 5), "7/10": F(7, 10), "1/2": F(1, 2), "1": F(1)}
    entries = {
        (a, b): Value(abs(va - vb))
        for (a, va), (b, vb) in itertools.combinations(vals.items(), 2)
    }
    table = PseudometricTable(list(vals), entries, TOP_INF)
    return MetricTS(
        states=("x1", "x2", "x3", "y1", "y2", "y3"),
        propositions=[("r", table)],
        valuation={
            "x1": {"r": "0"},
            "x2": {"r": "2/5"},
            "x3": {"r": "7/10"},
            "y1": {"r": "0"},
            "y2": {"r": "1/2"},
            "y3": {"r": "1"},
        },
        tau={
            "x1": {"x2", "x3"},
            "x2": {"x2"},
            "x3": {"x3"},
            "y1": {"y2", "y3"},
            "y2": {"y2"},
            "y3": {"y3"},
        },
    )


class TestWorkedExamples:
    def test_probabilistic_distances(self):
        m = behavioral_distances(from_prob_ts(fig1_left()))
        assert m.converged
        assert m.get("u", "z") == Value(F(1))
        assert m.get("x", "y") == Value(F(9, 200))
        assert verify_fixed_point(from_prob_ts(fig1_left()), m)

    def test_metric_ts_distances(self):
        m = behavioral_distances(from_metric_ts(fig1_right()))
        assert m.converged and m.iterations <= 4
        expected = {
            ("x1", "y1"): F(3, 10),
            ("x2", "y2"): F(1, 10),
            ("x2", "y3"): F(3, 5),
            ("x3", "y2"): F(1, 5),
            ("x3", "y3"): F(3, 10),
        }
        for (a, b), q in expected.items():
            assert m.get(a, b) == Value(q)

    def test_single_state(self):
        p = ProbTS(("s",), {}, {"s": F(1)}, F(1, 2))
        m = behavioral_distances(from_prob_ts(p))
        assert m.converged and m.iterations == 1
        assert m.get("s", "s").is_zero

    def test_empty_system(self):
        sys_ = load_system(
            {"kind": "system", "top": "1", "expr": {"dist": "id"},
             "states": [], "alpha": {}}
        )
        m = behavioral_distances(sys_)
        assert m.converged and m.states == ()


class TestIterationBehavior:
    def test_trace_is_monotone(self):
        m = behavioral_distances(
            from_prob_ts(fig1_left()), IterationOptions(trace=True)
        )
        for i in range(1, len(m.trace)):
            for a, b, v in m.trace[i].entries():
                assert m.trace[i - 1].get(a, b) <= v

    def test_unconverged_reported_not_raised(self):
        m = behavioral_distances(
            from_prob_ts(fig1_left(c=F(1, 2), eps=F(1, 20))),
            IterationOptions(max_iter=1),
        )
        assert not m.converged
        assert m.residual.as_float() > 0

    def test_float_mode_converges_with_tolerance(self):
        sys_ = from_prob_ts(fig1_left(), NumericMode.approx(1e-9))
        m = behavioral_distances(sys_)
        assert m.converged
        assert abs(m.get("x", "y").as_float() - 9 / 200) < 1e-8

    def test_mode_tolerance_stops_the_iteration(self):
        p = random_prob_ts(random.Random(0), 4)
        coarse_sys = from_prob_ts(p, NumericMode.approx(1e-3))
        coarse = behavioral_distances(coarse_sys)
        fine_sys = from_prob_ts(p, NumericMode.approx(1e-9))
        fine = behavioral_distances(fine_sys)
        explicit = behavioral_distances(fine_sys, IterationOptions(tol=1e-3))
        assert coarse.iterations == explicit.iterations < fine.iterations
        # verify_fixed_point reads the same tolerance off the mode
        assert verify_fixed_point(coarse_sys, coarse)
        assert not verify_fixed_point(coarse_sys, coarse, tol=1e-9)

    def test_float_mode_slack_scales_with_large_entries(self):
        # under top = inf, entries near 1e5 have ulps above 1e-12: rounding
        # between iterations must not read as a monotonicity or triangle
        # failure
        k = PseudometricTable(
            ["p", "q", "r"],
            {
                ("p", "q"): Value(F(2420000, 7)),
                ("q", "r"): Value(F(3110000, 11)),
                ("p", "r"): Value(F(48390000, 77)),
            },
            TOP_INF,
        )
        left, right = (lambda s: Tagged("left", s)), (lambda a: Tagged("right", a))
        succ = {
            "s0": {left("s0"): 2, left("s3"): 1, left("s1"): 9, right("p"): 4},
            "s1": {left("s0"): 1, left("s3"): 4, left("s2"): 7, right("p"): 4},
            "s2": {left("s4"): 2, left("s2"): 1, left("s1"): 9, right("q"): 4},
            "s3": {left("s1"): 5, left("s0"): 6, left("s2"): 1, right("p"): 4},
            "s4": {left("s1"): 6, left("s2"): 5, left("s4"): 1, right("p"): 4},
        }
        alpha = {
            s: Distribution({x: F(w, 16) for x, w in ws.items()}) for s, ws in succ.items()
        }
        expr = Dist(Coproduct(Id(F(9, 10)), Const(k, name="k")))
        sys_ = System(sorted(succ), expr, alpha, TOP_INF, NumericMode.approx(1e-9))
        m = behavioral_distances(sys_, IterationOptions(max_iter=2000))
        assert m.converged
        assert verify_fixed_point(sys_, m)

    def test_workers_other_than_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            IterationOptions(workers=2)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            IterationOptions(tol=tol)


# an exact entry 11/48 is followed by its p-norm double, just below it
PNORM_DOC = """{"kind": "system", "top": "1", "spaces": {"k": {"carrier": ["p", "q", "r"], "d": [["p", "q", "1/8"], ["p", "r", "1/8"], ["q", "r", "1/4"]]}}, "expr": {"dist": {"coproduct": [{"product": {"left": {"id": {"discount": "2/5"}}, "right": {"id": {"discount": "3/10"}}, "eval": {"pnorm": {"p": 2, "c1": "1/2", "c2": "1/2"}}}}, {"const": "k"}]}}, "states": ["s0", "s1", "s2", "s3"], "alpha": {"s0": {"dist": [[{"left": {"pair": ["s2", "s3"]}}, "1/2"], [{"right": "r"}, "1/2"]]}, "s1": {"dist": [[{"left": {"pair": ["s1", "s1"]}}, "2/5"], [{"left": {"pair": ["s3", "s0"]}}, "1/10"], [{"right": "r"}, "1/2"]]}, "s2": {"dist": [[{"right": "q"}, "1"]]}, "s3": {"dist": [[{"left": {"pair": ["s1", "s0"]}}, "1/3"], [{"right": "p"}, "2/3"]]}}}"""


def pnorm_system(seed, mode, bound=None):
    """Dist or FinPow of Coproduct(Product(Id, Id, p-norm), Const) on 3 or 4
    states, under the given top or else top 1 or inf: irrational roots meet
    exact entries."""
    rng = random.Random(seed)
    bound = bound or rng.choice([TOP_ONE, TOP_INF])
    hi = bound.limit if bound.limit is not None else F(3)
    pos = {a: rng.choice([F(0), hi / 8, hi / 4, hi / 3, hi / 2]) for a in "pqr"}
    k = PseudometricTable(
        "pqr", {(a, b): Value(abs(pos[a] - pos[b])) for a, b in ["pq", "pr", "qr"]}, bound
    )
    discounts = [F(1, 5), F(3, 10), F(2, 5), F(1, 2)]
    ev = PNormEval(rng.choice([2, 3]), rng.choice([F(1, 4), F(1, 2)]), rng.choice([F(1, 4), F(1, 2)]))
    sub = Coproduct(
        Product(Id(rng.choice(discounts)), Id(rng.choice(discounts)), ev), Const(k, name="k")
    )
    outer = rng.choice([Dist, FinPow])
    states = [f"s{i}" for i in range(rng.randint(3, 4))]

    def leaf():
        if rng.random() < 0.6:
            return Tagged("left", (rng.choice(states), rng.choice(states)))
        return Tagged("right", rng.choice("pqr"))

    alpha = {}
    for s in states:
        leaves = sorted_structs({leaf() for _ in range(rng.randint(1, 3))})
        if outer is Dist:
            w = [rng.randint(1, 4) for _ in leaves]
            alpha[s] = Distribution({x: F(wi, sum(w)) for x, wi in zip(leaves, w)})
        else:
            alpha[s] = frozenset(leaves)
    return System(states, outer(sub), alpha, bound, mode)


class TestDoublesInExactMode:
    def test_exact_entry_followed_by_its_double(self):
        sys_ = load_system(PNORM_DOC)
        m = behavioral_distances(sys_)
        assert m.converged and m.iterations == 14
        assert verify_fixed_point(sys_, m)

    def test_pnorm_systems_converge_and_verify(self):
        # seeds 300-499 include exact runs where a double lands just below
        # the exact entry it follows (390, 458) and where rounding alone
        # breaks a triangle by an ulp (318, 450, 485); under top 2 the p-th
        # powers inside the p-norm may pass top, while the root may not
        converged = 0
        for seed in range(300, 500):
            for mode in (EXACT, NumericMode.approx(1e-9)):
                for bound in (None, TopBound.finite(2)):
                    sys_ = pnorm_system(seed, mode, bound)
                    m = behavioral_distances(sys_, IterationOptions(max_iter=100))
                    if m.converged:
                        converged += 1
                        assert verify_fixed_point(sys_, m), (seed, mode, bound)
        assert converged > 750


class TestWarmTransport:
    """Each Dist pair's transport outlives its iteration, and its next solve
    starts from its last optimal basis."""

    @pytest.mark.parametrize("mode", [EXACT, NumericMode.approx(1e-9)], ids=["exact", "float"])
    def test_fewer_pivots_and_the_same_output_as_cold_solves(self, mode, monkeypatch):
        from behametric import lifting, lp

        sys_ = from_prob_ts(random_prob_ts(random.Random(6), 6, F(9, 10)), mode)
        opts = IterationOptions(max_iter=30, trace=True)
        pivots = [0]
        pivot = lp._pivot_cycle

        def counted(*args):
            pivots[0] += 1
            return pivot(*args)

        monkeypatch.setattr(lp, "_pivot_cycle", counted)
        warm = behavioral_distances(sys_, opts)
        warm_pivots = pivots[0]

        solve = lifting.solve_transportation

        def cold(inst):
            inst.basis = None  # start from the north-west corner
            return solve(inst)

        monkeypatch.setattr(lifting, "solve_transportation", cold)
        pivots[0] = 0
        ref = behavioral_distances(sys_, opts)
        assert warm_pivots < pivots[0]
        assert matrix_to_csv(warm) == matrix_to_csv(ref)
        assert trace_to_csv(warm) == trace_to_csv(ref)
        assert matrix_to_json(warm) == matrix_to_json(ref)


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
# the demo systems; lift instances hold a "space" instead
DEMO_SYSTEMS = [
    (path.name, path.read_text())
    for path in sorted(DATA.glob("*.json"))
    if "space" not in json.loads(path.read_text())
]


def jacobi_reference(sys_, opts):
    """Plain Jacobi iteration: every pair re-lifted each step by a fresh
    engine with cold transports, then the clamp and the rounding of
    behavioral_distances.  Returns (trace, iterations, converged, residual)."""
    mode = sys_.mode
    tol = mode.tolerance if opts.tol is None else opts.tol
    pairs = list(combinations(sys_.states, 2))
    table = PseudometricTable(sys_.states, {}, sys_.top, check=False)
    trace = [table]
    residual, converged, iterations = ZERO, not pairs, 0
    for iterations in range(1, opts.max_iter + 1):
        engine = LiftingEngine(sys_.expr, table, opts.method)
        entries, residual = {}, ZERO
        for a, b in pairs:
            v, prev = engine.dist(sys_.alpha[a], sys_.alpha[b]), table.get(a, b)
            step = dist_e(v, prev)
            if v < prev:
                assert not exceeds(prev, v)
                v, step = prev, ZERO
            residual = max(residual, step)
            entries[(a, b)] = v if mode.is_exact else Value(float(v.mag))
        table = PseudometricTable(sys_.states, entries, sys_.top)
        trace.append(table)
        converged = residual.is_zero if mode.is_exact else residual.as_float() < tol
        if converged:
            break
    return trace, iterations, converged, residual


def _typed(v):
    """A Value as (type, magnitude): a double equal to a Fraction differs."""
    return type(v.mag), v.mag


def _typed_entries(table):
    return [(a, b, _typed(v)) for a, b, v in table.entries()]


# points on a line: of their distances 1/10, 7/30 and 2/5 round up to
# doubles, and 1/3, 17/30 and 2/3 round down
LINE = {"p": F(0), "q": F(1, 10), "r": F(1, 3), "s": F(2, 3)}


def line_float_system(seed, reads=True):
    """Float mode on 6 states whose valuations lie on LINE: the lift of a
    pair whose constant part dominates stays an exact Fraction, which the
    table stores as its nearest double.  With reads, each state also has
    one or two successors, read at discount 1/2 (Product of Const and
    FinPow); without, the expression is the Const alone, so the pairs read
    nothing after step 1."""
    rng = random.Random(seed)
    k = PseudometricTable(
        "pqrs", {(a, b): Value(abs(LINE[a] - LINE[b])) for a, b in combinations("pqrs", 2)},
        TOP_INF,
    )
    states = [f"s{i}" for i in range(6)]
    mode = NumericMode.approx(1e-9)
    if not reads:
        return System(states, Const(k, name="k"), {s: rng.choice("pqrs") for s in states},
                      TOP_INF, mode)
    alpha = {s: (rng.choice("pqrs"), frozenset(rng.sample(states, rng.randint(1, 2))))
             for s in states}
    return System(states, Product(Const(k, name="k"), FinPow(Id(F(1, 2)))), alpha, TOP_INF, mode)


class TestIncrementalIteration:
    """A pair is re-lifted only when an entry its lift reads moved, and only
    those pairs are visited; every step still equals a plain Jacobi step
    that re-lifts every pair."""

    def assert_same_as_jacobi(self, sys_, opts):
        opts = dataclasses.replace(opts, trace=True)
        m = behavioral_distances(sys_, opts)
        trace, iterations, converged, residual = jacobi_reference(sys_, opts)
        assert (m.iterations, m.converged) == (iterations, converged)
        assert _typed(m.residual) == _typed(residual)
        assert [_typed_entries(t) for t in m.trace] == [_typed_entries(t) for t in trace]

    @pytest.mark.parametrize("mode", [EXACT, NumericMode.approx(1e-9)], ids=["exact", "float"])
    def test_prob_ts(self, mode):
        for seed in range(12):
            p = random_prob_ts(random.Random(seed), 6, F(9, 10))
            self.assert_same_as_jacobi(from_prob_ts(p, mode), IterationOptions(max_iter=40))

    def test_metric_ts(self):
        for seed in range(30):
            m = random_metric_ts(random.Random(seed), 8)
            self.assert_same_as_jacobi(from_metric_ts(m), IterationOptions())

    def test_pnorm_systems(self):
        # doubles in exact mode: an entry may turn into its equal double
        for seed in range(300, 330):
            for mode in (EXACT, NumericMode.approx(1e-9)):
                self.assert_same_as_jacobi(pnorm_system(seed, mode), IterationOptions(max_iter=60))

    def test_exact_lifts_rounded_both_ways_in_float_mode(self):
        # an unvisited pair whose last lift rounded up or down takes no step
        for seed in range(20):
            self.assert_same_as_jacobi(line_float_system(seed), IterationOptions())

    def test_pairs_that_read_nothing_after_step_1(self):
        for seed in range(5):
            sys_ = line_float_system(seed, reads=False)
            self.assert_same_as_jacobi(sys_, IterationOptions())
            assert behavioral_distances(sys_).iterations == 2

    @pytest.mark.parametrize("name, text", DEMO_SYSTEMS, ids=[n for n, _ in DEMO_SYSTEMS])
    @pytest.mark.parametrize("method", [KANTOROVICH, WASSERSTEIN])
    @pytest.mark.parametrize("mode", [EXACT, NumericMode.approx(1e-9)], ids=["exact", "float"])
    def test_demo_systems(self, name, text, method, mode):
        sys_ = load_system(text, mode=mode, eps=F(1, 20))  # the eps of the CLI examples
        self.assert_same_as_jacobi(sys_, IterationOptions(method=method))

    def test_unmoved_pairs_are_not_lifted(self, monkeypatch):
        from behametric import fixpoint

        lifts = [0]
        lift_pairs = fixpoint._lift_pairs

        def counted(sys_, table, method, pairs, store=None):
            lifts[0] += len(pairs)
            return lift_pairs(sys_, table, method, pairs, store)

        monkeypatch.setattr(fixpoint, "_lift_pairs", counted)
        sys_ = from_metric_ts(random_metric_ts(random.Random(3), 8))
        m = behavioral_distances(sys_)
        pairs = len(sys_.states) * (len(sys_.states) - 1) // 2
        assert m.converged and m.iterations > 2
        assert lifts[0] < pairs * m.iterations


class TestResidualAtEveryCap:
    """An exact step only detects whether a magnitude moved; the residual is
    measured at the cap.  Every cap up to convergence reports the iterations,
    verdict and typed residual of a plain Jacobi run with that cap."""

    def assert_every_cap(self, sys_, last):
        for cap in range(1, last + 1):
            opts = IterationOptions(max_iter=cap)
            m = behavioral_distances(sys_, opts)
            _, iterations, converged, residual = jacobi_reference(sys_, opts)
            assert (m.iterations, m.converged, _typed(m.residual)) == (
                iterations, converged, _typed(residual)), cap

    def test_prob_ts(self):
        # exact ProbTS never converges: every cap ends unconverged
        for seed in range(4):
            sys_ = from_prob_ts(random_prob_ts(random.Random(seed), 4, F(9, 10)), EXACT)
            self.assert_every_cap(sys_, 12)

    def test_metric_ts(self):
        for seed in range(8):
            sys_ = from_metric_ts(random_metric_ts(random.Random(seed), 8))
            self.assert_every_cap(sys_, behavioral_distances(sys_).iterations)

    # (seed, top): 306 and 601 converge at step 2, where a double equal to its
    # Fraction changes an entry but moves nothing; in 34, 203 and 949 an
    # entry moves from a Fraction to a double by less than an ulp of it
    @pytest.mark.parametrize("seed, top", [
        (306, 2), (601, 2), (34, 2), (203, None), (949, 2), (66, None),
    ] + [(seed, None) for seed in range(300, 312)])
    def test_pnorm_systems(self, seed, top):
        sys_ = pnorm_system(seed, EXACT, top and TopBound.finite(top))
        m = behavioral_distances(sys_, IterationOptions(max_iter=60))
        assert m.converged
        self.assert_every_cap(sys_, m.iterations)

    @pytest.mark.parametrize("seed", [306, 601])
    def test_a_type_change_is_no_move(self, seed):
        sys_ = pnorm_system(seed, EXACT, TopBound.finite(2))
        m = behavioral_distances(sys_, IterationOptions(trace=True))
        before, after = m.trace[-2:]
        retyped = [(u, v) for (_, _, u), (_, _, v) in zip(before.entries(), after.entries())
                   if _typed(u) != _typed(v)]
        assert (m.iterations, m.converged, m.residual) == (2, True, ZERO)
        assert retyped and all(u.mag == v.mag for u, v in retyped)


class TestUpdatedTable:
    """PseudometricTable.updated builds each iterate without checking its
    triangles; behavioral_distances judges the table it returns, and each
    table of its trace, as a full build of the same entries does."""

    def base(self):
        pos = {"a": F(0), "b": F(1), "c": F(2), "d": F(3)}
        return PseudometricTable(
            "abcd", {(x, y): Value(abs(pos[x] - pos[y])) for x, y in combinations("abcd", 2)},
            TOP_INF,
        )

    def full_build(self, table, changes, check=True):
        entries = {(a, b): v for a, b, v in table.entries()}
        for (a, b), v in changes.items():
            entries.pop((b, a), None)
            entries[(a, b)] = v
        return PseudometricTable(table.carrier, entries, table.bound, check)

    def scripted(self, monkeypatch, tables, trace):
        """behavioral_distances on four states that each read all four, so
        every pair is lifted at every step, step k lifting each pair to its
        entry in tables[k] and later steps to the last table's."""
        from behametric import fixpoint

        lifts = list(tables)

        def lift_pairs(sys_, table, method, pairs, store=None):
            target = lifts.pop(0) if len(lifts) > 1 else lifts[0]
            return [target.get(a, b) for a, b in pairs]

        monkeypatch.setattr(fixpoint, "_lift_pairs", lift_pairs)
        sys_ = System("abcd", FinPow(Id()), {s: frozenset("abcd") for s in "abcd"}, TOP_INF)
        return behavioral_distances(sys_, IterationOptions(trace=trace))

    @pytest.mark.parametrize("changes", [
        {("a", "d"): Value(F(7))},
        {("b", "c"): Value(F(5)), ("a", "d"): Value(F(5))},
        {("a", "b"): Value(INF)},
        {("c", "d"): Value(F(1, 3)), ("a", "b"): Value(F(1, 3))},
        {("b", "a"): Value(F(1, 3))},
        {("c", "d"): Value(F(1, 3))},
        {(x, y): Value(F(7 if x + y == "ad" else 1)) for x, y in combinations("abcd", 2)},
    ], ids=["long-side", "two-edges", "infinite", "short-sides", "reversed-key", "short-last",
            "every-edge"])
    def test_violation_raises_the_full_build_message(self, monkeypatch, changes):
        table = self.base()
        with pytest.raises(ShapeError) as full:
            self.full_build(table, changes)
        bad = self.full_build(table, changes, check=False)
        # the returned table: the iteration reaches bad and stays
        with pytest.raises(ShapeError) as returned:
            self.scripted(monkeypatch, [bad], trace=False)
        assert str(returned.value) == str(full.value)
        # an intermediate iterate: bad, then every entry raised to bad's largest
        largest = max(v for _, _, v in bad.entries())
        roof = PseudometricTable(bad.carrier, {(a, b): largest for a, b, _ in bad.entries()},
                                 TOP_INF)
        assert self.scripted(monkeypatch, [bad, roof], trace=False).table == roof
        with pytest.raises(ShapeError) as traced:
            self.scripted(monkeypatch, [bad, roof], trace=True)
        assert str(traced.value) == str(full.value)

    def by_pair(self, table, changes):
        """Positional changes keyed by the pairs at those positions."""
        pairs = list(combinations(table.carrier, 2))
        return {pairs[k]: v for k, v in changes.items()}

    def test_accepted_change_matches_the_full_build(self):
        table = self.base()
        changes = {2: Value(F(5, 2)), 3: Value(F(3, 2))}  # (a, d) and (b, c)
        new = table.updated(changes)
        full = self.full_build(table, self.by_pair(table, changes))
        assert list(new.entries()) == list(full.entries())
        assert new.get("a", "d") == Value(F(5, 2)) and new.get("c", "b") == Value(F(3, 2))
        assert table.get("a", "d") == Value(F(3))  # the old table is untouched

    def test_rounding_gap_accepted_as_by_the_full_build(self):
        table = PseudometricTable("abc", {("a", "b"): Value(0.1), ("b", "c"): Value(0.2),
                                          ("a", "c"): Value(0.3)}, TOP_ONE)
        changes = {1: Value(0.30000000000000004)}  # (a, c)
        assert list(table.updated(changes).entries()) == list(
            self.full_build(table, self.by_pair(table, changes)).entries()
        )

    def test_lift_past_top_raised_where_the_engine_returns_it(self, monkeypatch):
        # updated checks nothing, so the bound is held where a lift is returned
        sys_ = from_prob_ts(fig1_left())
        lift = LiftingEngine._lift
        past = (sys_.alpha["x"], sys_.alpha["y"])

        def skewed(engine, expr, t1, t2):
            if expr is engine.expr and (t1, t2) == past:
                return Value(F(3, 2))
            return lift(engine, expr, t1, t2)

        monkeypatch.setattr(LiftingEngine, "_lift", skewed)
        with pytest.raises(ConfigurationError, match="exceeds top") as raised:
            behavioral_distances(sys_)
        assert ("lifting.py", "dist") in [(e.path.name, e.name) for e in raised.traceback]


def _with_entry(m, a, b, v):
    """m with the (a, b) entry replaced, the axioms unchecked."""
    entries = {(x, y): w for x, y, w in m.table.entries()}
    entries[(a, b)] = v
    table = PseudometricTable(m.states, entries, m.table.bound, check=False)
    return dataclasses.replace(m, table=table)


class TestVerifyFixedPoint:
    def test_changed_exact_entry_rejected(self):
        sys_ = from_prob_ts(fig1_left())
        m = behavioral_distances(sys_)
        assert verify_fixed_point(sys_, m)
        bad = _with_entry(m, "x", "y", Value(F(9, 200) + F(1, 10**6)))
        assert not verify_fixed_point(sys_, bad)

    def test_float_entry_moved_past_tol_rejected(self):
        sys_ = from_prob_ts(fig1_left(), NumericMode.approx(1e-9))
        m = behavioral_distances(sys_)
        assert verify_fixed_point(sys_, m, tol=1e-9)
        moved = m.get("x", "y").as_float() + 1e-6
        bad = _with_entry(m, "x", "y", Value(F(moved)))
        assert not verify_fixed_point(sys_, bad, tol=1e-9)

    def test_exact_iterate_stopped_at_max_iter_rejected(self):
        # d(x, y) = 1/2 + c/2 * d(x, y) is reached only in the limit
        p = ProbTS(("x", "y"), {"x": {"x": F(1, 2)}, "y": {"y": F(1)}},
                   {"x": F(1, 2)}, F(1, 2))
        sys_ = from_prob_ts(p)
        m = behavioral_distances(sys_, IterationOptions(max_iter=5))
        assert not m.converged
        assert not verify_fixed_point(sys_, m)


class TestKernel:
    def test_all_separated_in_left_example(self):
        m = behavioral_distances(from_prob_ts(fig1_left()))
        assert len(kernel_partition(m)) == 4

    def test_zero_matrix_single_class(self):
        p = ProbTS(
            ("a", "b"),
            {"a": {"a": F(1)}, "b": {"b": F(1)}},
            {},
            F(1, 2),
        )
        m = behavioral_distances(from_prob_ts(p))
        assert kernel_partition(m) == [("a", "b")]

    def test_duplicate_states_share_class(self):
        p = ProbTS(
            ("a", "b", "t"),
            {"a": {"t": F(1)}, "b": {"t": F(1)}},
            {"t": F(1)},
            F(1, 2),
        )
        m = behavioral_distances(from_prob_ts(p))
        classes = {frozenset(c) for c in kernel_partition(m)}
        assert frozenset({"a", "b"}) in classes

    def test_unconverged_refused(self):
        m = behavioral_distances(
            from_prob_ts(fig1_left(c=F(1, 2))), IterationOptions(max_iter=1)
        )
        with pytest.raises(UnconvergedError):
            kernel_partition(m)


class TestBisimilarity:
    def test_left_example_separates_x_y(self):
        parts = bisimilarity_partition(fig1_left())
        blocks = {frozenset(b) for b in parts}
        assert not any({"x", "y"} <= b for b in blocks)

    def test_two_self_loops_one_block(self):
        p = ProbTS(
            ("a", "b"), {"a": {"a": F(1)}, "b": {"b": F(1)}}, {}, F(1, 2)
        )
        assert bisimilarity_partition(p) == [("a", "b")]

    def test_single_state(self):
        p = ProbTS(("s",), {}, {"s": F(1)}, F(1, 2))
        assert bisimilarity_partition(p) == [("s",)]

    def test_zero_weight_is_no_transition(self):
        # x's explicit zero towards z must not enter its signature
        p = ProbTS(
            ("x", "y", "u", "z"),
            {"x": {"u": 1, "z": 0}, "y": {"u": 1}, "u": {"u": 1}},
            {"z": 1},
            F(1, 2),
        )
        assert p.transitions["x"] == {"u": 1}
        assert bisimilarity_partition(p) == [("z",), ("x", "y", "u")]
        m = behavioral_distances(from_prob_ts(p))
        assert m.get("x", "y").is_zero
        assert same_partition(kernel_partition(m), bisimilarity_partition(p))

    def test_agrees_with_kernel_on_random_systems(self):
        rng = random.Random(77)
        for _ in range(15):
            p = random_prob_ts(rng, max_states=5)
            sys_ = from_prob_ts(p, NumericMode.approx(1e-9))
            m = behavioral_distances(sys_)
            assert m.converged
            assert same_partition(kernel_partition(m), bisimilarity_partition(p))


class TestRendering:
    def test_csv_contains_exact_entries(self):
        m = behavioral_distances(from_prob_ts(fig1_left()))
        csv = matrix_to_csv(m)
        assert "9/200" in csv and csv.splitlines()[0] == "state,x,y,u,z"

    def test_json_metadata(self):
        m = behavioral_distances(from_prob_ts(fig1_left()))
        doc = matrix_to_json(m)
        assert doc["converged"] is True
        assert doc["method"] == "wasserstein"
        assert ["x", "y", "9/200"] in doc["entries"]

    def test_trace_csv(self):
        m = behavioral_distances(
            from_prob_ts(fig1_left()), IterationOptions(trace=True)
        )
        lines = trace_to_csv(m).splitlines()
        assert lines[0] == "iteration,state1,state2,distance"
        assert len(lines) > 6

    @staticmethod
    def _csv_per_cell(m):
        """The CSV with every cell formatted on its own, both triangles."""
        lines = ["state," + ",".join(m.states)]
        for a in m.states:
            row = [format_value(m.table.get(a, b), m.mode) for b in m.states]
            lines.append(a + "," + ",".join(row))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("kind", ["exact", "float", "inf"])
    def test_csv_matches_per_cell_formatting(self, kind):
        # each stored entry is formatted once and mirrored: the text must be
        # that of formatting each cell, for states in any order
        rng = random.Random(23)
        mode = EXACT if kind != "float" else NumericMode.approx(1e-9)
        bound = TOP_ONE if kind == "exact" else TOP_INF
        for n in (1, 2, 5, 9):
            carrier = [f"s{i}" for i in range(n)]
            entries = {}
            for a, b in combinations(carrier, 2):
                if kind == "float":
                    mag = rng.choice([rng.random() * 10 ** rng.randint(-300, 300), INF, 0.0])
                elif kind == "inf":
                    mag = rng.choice([INF, F(rng.randint(0, 40), rng.randint(1, 7)), rng.random()])
                else:
                    den = rng.randint(1, 60)
                    mag = F(rng.randint(0, den), den)
                entries[a, b] = Value(mag)
            if kind == "inf" and n > 2:  # a numerator and denominator past 4,300 digits
                entries["s0", "s1"] = Value(F(10 ** 4400 + 1, 3 * 10 ** 4399))
            table = PseudometricTable(carrier, entries, bound, check=False)
            states = tuple(rng.sample(carrier, n))
            m = DistanceMatrix(states, table, 1, True, ZERO, WASSERSTEIN, mode)
            assert matrix_to_csv(m) == self._csv_per_cell(m), (kind, n)
