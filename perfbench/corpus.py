"""Seeded, fixed-size input generators and the per-seed corpus choice.

Every input is a function of a generator seed and a size, so a pool member
is stored as two integers and rebuilt on demand.  The program sees the
inputs only as JSON documents parsed by ``coalgebra.load_system``; suite
calls see only a suite name, a seed and a size.

A workload's corpus has one member per *slot*, and each slot fixes a size.
The recorder (``record.py``) assembles several corpora of equal recorded
cost, each with one member from every cost band of every size; a run seed
picks one of them.  Seeds thus get different inputs with about the same
work, and every input a seed can pick has a reference result recorded.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

DISCOUNT = "9/10"
OUT_DEGREE = 3
ATOMS = ("a", "b", "c", "d")


def _rng(*key) -> random.Random:
    # str seeds hash through sha512, so the stream ignores PYTHONHASHSEED
    return random.Random(":".join(str(k) for k in key))


def prob_ts_doc(gen_seed: int, n: int) -> dict:
    """n states, each moving to OUT_DEGREE distinct successors with weights
    1..6 and terminating with weight 0..2 (so some termination mass)."""
    rng = _rng("prob_ts", n, gen_seed)
    states = [f"s{i}" for i in range(n)]
    transitions, terminate = {}, {}
    for s in states:
        succ = rng.sample(states, OUT_DEGREE)
        weights = [rng.randint(1, 6) for _ in succ]
        stop = rng.randint(0, 2)
        total = sum(weights) + stop
        transitions[s] = {t: str(Fraction(w, total)) for t, w in zip(succ, weights)}
        terminate[s] = str(Fraction(stop, total))
    return {
        "kind": "prob_ts",
        "c": DISCOUNT,
        "states": states,
        "transitions": transitions,
        "terminate": terminate,
    }


def _closed_pseudometric(rng: random.Random) -> list:
    """Distances on ATOMS drawn from {1/4, ..., 2, inf}, then closed under
    shortest paths so the triangle inequality holds."""
    inf = None
    d = {}
    for a, b in itertools.combinations(ATOMS, 2):
        k = rng.randint(1, 10)
        d[(a, b)] = d[(b, a)] = inf if k > 8 else Fraction(k, 4)
    for mid in ATOMS:
        for a, b in itertools.permutations(ATOMS, 2):
            if mid in (a, b) or d[(a, mid)] is inf or d[(mid, b)] is inf:
                continue
            via = d[(a, mid)] + d[(mid, b)]
            if d[(a, b)] is inf or via < d[(a, b)]:
                d[(a, b)] = via
    return [
        [a, b, "inf" if d[(a, b)] is inf else str(d[(a, b)])]
        for a, b in itertools.combinations(ATOMS, 2)
    ]


def metric_ts_doc(gen_seed: int, n: int) -> dict:
    """n states valued in one proposition over a 4-atom space with top = inf,
    each with 1..3 successors."""
    rng = _rng("metric_ts", n, gen_seed)
    states = [f"s{i}" for i in range(n)]
    return {
        "kind": "metric_ts",
        "states": states,
        "propositions": {"r": {"carrier": list(ATOMS), "d": _closed_pseudometric(rng)}},
        "valuation": {s: {"r": rng.choice(ATOMS)} for s in states},
        "tau": {s: sorted(rng.sample(states, rng.randint(1, 3))) for s in states},
    }


GENERATORS = {"prob_ts": prob_ts_doc, "metric_ts": metric_ts_doc}


def document_text(kind: str, gen_seed: int, n: int) -> str:
    return json.dumps(GENERATORS[kind](gen_seed, n), sort_keys=True)


def pick(corpora: list, workload: str, seed: int) -> list:
    """One recorded corpus, chosen and ordered by the run seed."""
    rng = _rng("pick", workload, seed)
    chosen = list(rng.choice(corpora))
    rng.shuffle(chosen)
    return chosen
