"""Acceptance suite: ten end-to-end criteria, one printed verdict each.

Run with -s to see the lines; each test prints
"ACCEPTANCE <n> <name>: pass" on success (pytest failure marks the
criterion failed).
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from behametric.coalgebra import MetricTS, ProbTS, from_metric_ts, from_prob_ts
from behametric.fixpoint import (
    IterationOptions,
    behavioral_distances,
    bisimilarity_partition,
    kernel_partition,
    same_partition,
)
from behametric.functors import DiagSquare, Id, PseudometricTable
from behametric.lifting import (
    KANTOROVICH,
    WASSERSTEIN,
    check_well_behaved,
    lift_dist,
)
from behametric.suites import (
    random_metric_ts,
    random_prob_ts,
    suite_duality,
    suite_k_le_w,
    suite_oracle,
)
from behametric.values import NumericMode, TOP_INF, TOP_ONE, ZERO, Value, top


def report(num, name):
    print(f"\nACCEPTANCE {num} {name}: pass")


# ---------------------------------------------------------------------------
# shared random probabilistic corpus (criteria 9 and 10)


@pytest.fixture(scope="module")
def prob_corpus():
    rng = random.Random(2024)
    corpus = []
    for _ in range(100):
        p = random_prob_ts(rng, max_states=8, c=F(1, 2))
        sys_ = from_prob_ts(p, NumericMode.approx(1e-9))
        m = behavioral_distances(sys_, IterationOptions(trace=True))
        assert m.converged
        corpus.append((p, m))
    return corpus


def test_criterion_1_probabilistic_example():
    start = time.monotonic()
    p = ProbTS(
        states=("x", "y", "u", "z"),
        transitions={
            "x": {"u": F(9, 20), "z": F(11, 20)},
            "y": {"u": F(1, 2), "z": F(1, 2)},
            "u": {"u": F(1)},
            "z": {},
        },
        terminate={"z": F(1)},
        c=F(9, 10),
    )
    m = behavioral_distances(from_prob_ts(p))
    elapsed = time.monotonic() - start
    assert m.converged
    assert m.get("u", "z") == Value(F(1))
    assert m.get("x", "y") == Value(F(9, 200))
    for a, b in itertools.combinations(p.states, 2):
        assert not m.get(a, b).is_infinite
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, "probabilistic example d(u,z)=1, d(x,y)=9/200 under 1s")


def test_criterion_2_metric_ts_example():
    start = time.monotonic()
    vals = {"0": F(0), "2/5": F(2, 5), "7/10": F(7, 10), "1/2": F(1, 2), "1": F(1)}
    entries = {
        (a, b): Value(abs(va - vb))
        for (a, va), (b, vb) in itertools.combinations(vals.items(), 2)
    }
    m_ts = MetricTS(
        states=("x1", "x2", "x3", "y1", "y2", "y3"),
        propositions=[("r", PseudometricTable(list(vals), entries, TOP_INF))],
        valuation={
            "x1": {"r": "0"}, "x2": {"r": "2/5"}, "x3": {"r": "7/10"},
            "y1": {"r": "0"}, "y2": {"r": "1/2"}, "y3": {"r": "1"},
        },
        tau={
            "x1": {"x2", "x3"}, "x2": {"x2"}, "x3": {"x3"},
            "y1": {"y2", "y3"}, "y2": {"y2"}, "y3": {"y3"},
        },
    )
    m = behavioral_distances(from_metric_ts(m_ts))
    elapsed = time.monotonic() - start
    assert m.converged and m.iterations <= 4
    assert m.get("x1", "y1") == Value(F(3, 10))
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(2, "metric TS example d(x1,y1)=3/10 in <=4 iterations under 1s")


def test_criterion_3_duality_counterexample():
    d = PseudometricTable(
        ["x1", "x2"], {("x1", "x2"): Value(F(1))}, TOP_INF
    )
    expr = DiagSquare(Id())
    t1, t2 = ("x1", "x2"), ("x2", "x1")
    assert lift_dist(expr, d, KANTOROVICH, t1, t2) == ZERO
    assert lift_dist(expr, d, WASSERSTEIN, t1, t2) == Value(F(2))
    report(3, "diagonal square: kantorovich 0, wasserstein 2")


def test_criterion_4_k_le_w_500_per_node():
    result = suite_k_le_w(seed=41, n=500)
    per_node_min = 500
    assert result.passed, result.summary()
    assert result.checked >= 7 * per_node_min
    report(4, f"K <= W on {result.checked} instances, zero violations")


def test_criterion_5_duality_500_per_node():
    result = suite_duality(seed=42, n=500)
    assert result.passed, result.summary()
    assert result.checked >= 6 * 500
    report(5, f"K = W exactly on {result.checked} duality-node instances")


def test_criterion_6_oracle_equivalence():
    result = suite_oracle(seed=43, n=40)
    assert result.passed, result.summary()
    report(6, f"engine = brute-force oracle on {result.checked} instances")


def test_criterion_7_pseudometric_axioms_on_200_systems():
    # behavioral_distances checks the triangle inequality of each trace
    # table (exact mode, no slack); re-check every iterate here, with
    # symmetry and the zero diagonal
    rng = random.Random(44)
    checked = 0
    for _ in range(120):
        p = random_prob_ts(rng, max_states=5, c=F(1, 2))
        m = behavioral_distances(
            from_prob_ts(p), IterationOptions(max_iter=5, trace=True)
        )
        for table in m.trace:
            table._check_triangle()
            for a, b, v in table.entries():
                assert table.get(b, a) == v
                assert table.get(a, a).is_zero
        checked += 1
    for _ in range(80):
        mts = random_metric_ts(rng)
        m = behavioral_distances(
            from_metric_ts(mts), IterationOptions(max_iter=50, trace=True)
        )
        assert m.converged
        for table in m.trace:
            table._check_triangle()
        checked += 1
    assert checked >= 200
    report(7, f"axioms hold on every iterate of {checked} random systems")


def test_criterion_8_well_behavedness_witnesses():
    for bound in (TOP_ONE, TOP_INF):
        assert check_well_behaved("max", bound, seed=45).all_ok
    rep = check_well_behaved("min", TOP_ONE, seed=45)
    assert not rep.condition2_ok and not rep.condition3_ok
    gzero, gtop = ZERO, top(TOP_ONE)
    assert frozenset({(gzero, gtop), (gtop, gtop)}) in rep.witnesses[2]
    assert frozenset({gzero, gtop}) in rep.witnesses[3]
    report(8, "max well-behaved; min fails 2 and 3 with the known witnesses")


def test_criterion_9_kernel_equals_bisimilarity(prob_corpus):
    disagreements = 0
    for p, m in prob_corpus:
        if not same_partition(kernel_partition(m, tol=1e-9), bisimilarity_partition(p)):
            disagreements += 1
    assert disagreements == 0
    report(9, f"kernel = bisimilarity on {len(prob_corpus)} random systems")


def test_criterion_10_contraction(prob_corpus):
    c = 0.5
    checked_steps = 0
    for p, m in prob_corpus:
        deltas = []
        for i in range(1, len(m.trace)):
            delta = max(
                (
                    abs(
                        m.trace[i].get(a, b).as_float()
                        - m.trace[i - 1].get(a, b).as_float()
                    )
                    for a, b in itertools.combinations(p.states, 2)
                ),
                default=0.0,
            )
            deltas.append(delta)
        for prev, nxt in zip(deltas, deltas[1:]):
            assert nxt <= c * prev + 1e-12, (p.states, prev, nxt)
            checked_steps += 1
    assert checked_steps > 0
    report(10, f"contraction held across {checked_steps} iteration steps")
