"""Behavioral distances by fixed-point iteration, kernels, bisimilarity.

Starting from the zero pseudometric, each step lifts the current table
through the system's functor expression and evaluates at the pairs of
transition structures.  After the first step a pair is lifted again only
when an entry its lift reads moved in the step before; the others are not
visited, since a full re-lift would give them a zero step and leave their
entries as they are.  The sequence is monotone nondecreasing; iteration
stops at an exact fixed point (exact mode, whose steps only detect whether
a magnitude moved and measure the residual at the cap alone), at residual
< the mode's tolerance (float mode), or at the iteration cap, in which case
the result is returned unconverged rather than raised.  The lifting maps
pseudometrics to pseudometrics, so the steps are not checked for the
triangle inequality; the table returned and each table of the trace are.
"""

from __future__ import annotations

import io
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .coalgebra import ProbTS, System
from .functors import PseudometricTable, walk_atoms
from .lifting import WASSERSTEIN, LiftingEngine
from .values import (
    ZERO,
    ConfigurationError,
    NumericMode,
    Value,
    check_tolerance,
    dist_e,
    exceeds,
    format_magnitude,
)


@dataclass
class IterationOptions:
    max_iter: int = 10000
    tol: float | None = None  # None: the system's mode.tolerance
    trace: bool = False
    method: str = WASSERSTEIN
    workers: int = 1  # iteration is serial; kept while callers still pass 1

    def __post_init__(self):
        if self.workers != 1:
            raise ValueError("workers must be 1: iteration is serial")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol is not None:
            check_tolerance(self.tol, "tol")


@dataclass(slots=True)
class DistanceMatrix:
    states: tuple
    table: PseudometricTable
    iterations: int
    converged: bool
    residual: Value
    method: str
    mode: NumericMode
    trace: list = field(default_factory=list)

    def get(self, a, b) -> Value:
        return self.table.get(a, b)


def behavioral_distances(sys: System, opts: IterationOptions | None = None) -> DistanceMatrix:
    opts = opts or IterationOptions()
    mode = sys.mode
    tol = mode.tolerance if opts.tol is None else opts.tol
    bound = sys.top
    states = sys.states
    current = PseudometricTable(states, {}, bound, check=False)
    trace = [current] if opts.trace else []
    pairs = list(combinations(states, 2))
    residual = ZERO
    converged = len(pairs) == 0
    iterations = 0
    store = {}  # Dist transports, warm from the step before, and set orders
    reads = _reads(sys)
    todo = range(len(pairs))  # positions of the pairs to lift: at first all
    for iterations in range(1, opts.max_iter + 1):
        fresh = _lift_pairs(sys, current, opts.method, [pairs[k] for k in todo], store)
        flat = current._flat  # pairs is the table's entry order
        changes = {}
        residual = ZERO
        measure = not mode.is_exact or iterations == opts.max_iter  # where a residual is reported
        moved = False
        # Only the pairs lifted again are visited.  Any other pair would lift
        # to its last lift v, and its entry is v or the clamp of v (exact
        # mode), or the double nearest v or the clamp of v (float mode, where
        # a v that rounded up clamps).  So its step would be zero, since
        # mixed arithmetic rounds a Fraction to a double first, and its
        # entry would stay.
        for k, v in zip(todo, fresh):
            prev = flat[k]
            if v < prev:
                # a step down that rounding explains is clamped; any other is a bug
                if exceeds(prev, v):
                    a, b = pairs[k]
                    raise AssertionError(f"iteration not monotone at ({a},{b}): {prev} -> {v}")
                continue
            if measure:
                step = dist_e(v, prev)
                if step > residual:
                    residual = step
            try:
                v = v if mode.is_exact else _round_value(v)
            except OverflowError:
                a, b = pairs[k]
                raise ConfigurationError(f"distance of ({a},{b}) exceeds the float range; "
                                         "compute it in exact mode (--exact)") from None
            if prev < v:
                changes[k] = v
                # a zero step, as the residual counts it, is no move: dist_e
                # takes a Fraction and a double a sub-ulp apart as 0.0
                moved = moved or not dist_e(v, prev).is_zero
            elif type(v.mag) is not type(prev.mag):
                changes[k] = v  # a double equal to a Fraction: no move, but lifts read its type
        current = current.updated(changes)
        if opts.trace:
            trace.append(current)
        # exact: no magnitude moved; float: the largest step is below tol
        converged = not moved if mode.is_exact else residual.as_float() < tol
        if converged:
            break
        # only a pair that reads a moved entry can lift to a new value
        todo = _reading(pairs, reads, [pairs[k] for k in changes])
    for table in trace or [current]:  # the trace ends with current
        table._check_triangle()
    if not pairs:
        iterations = 1 if states else 0
        converged = True
    return DistanceMatrix(
        states, current, iterations, converged, residual, opts.method, mode, trace
    )


def _reads(sys: System) -> dict:
    """State -> the set of carrier atoms at the Id nodes of its structure.
    The lift of a pair (a, b) reads the table only at (x, y) for x in
    reads[a] and y in reads[b]: every node lifts a part of the first
    structure against a part of the second."""
    reads = {}
    for s in sys.states:
        atoms = reads[s] = set()
        walk_atoms(sys.expr, sys.alpha[s], atoms.add)
    return reads


def _reading(pairs, reads, moved_pairs) -> list:
    """The positions in pairs of the pairs whose lift reads the entry of a
    moved pair: (a, b) reads (x, y) for x in reads[a] and y in reads[b]."""
    moved = defaultdict(set)  # atom -> the atoms whose entry with it moved
    for x, y in moved_pairs:
        moved[x].add(y)
        moved[y].add(x)
    # near[b]: each x whose entry with some y in reads[b] moved
    near = {b: set().union(*(moved.get(y, ()) for y in reads[b])) for b in reads}
    return [k for k, (a, b) in enumerate(pairs) if not near[b].isdisjoint(reads[a])]


def _lift_pairs(sys: System, table: PseudometricTable, method: str, pairs, store=None) -> list:
    """One lifting step: the lifted distance of each given state pair, its
    transports kept in store for the next step when one is given."""
    engine = LiftingEngine(sys.expr, table, method, store)
    return [engine.dist(sys.alpha[a], sys.alpha[b]) for a, b in pairs]


def _round_value(v: Value) -> Value:
    """Float mode stores the nearest double of an exact entry; OverflowError past the range."""
    if isinstance(v.mag, float):
        return v
    return Value(float(v.mag))


def verify_fixed_point(sys: System, m: DistanceMatrix, tol: float | None = None) -> bool:
    """One further lifting step changes nothing (exact) / less than tol,
    by default the system's mode.tolerance."""
    tol = sys.mode.tolerance if tol is None else tol
    pairs = list(combinations(sys.states, 2))
    for (a, b), v in zip(pairs, _lift_pairs(sys, m.table, m.method, pairs)):
        prev = m.table.get(a, b)
        if sys.mode.is_exact:
            if prev < v or exceeds(prev, v):
                return False
        elif dist_e(_round_value(v), prev).as_float() >= tol:
            return False
    return True


# ---------------------------------------------------------------------------
# kernels and bisimilarity


class UnconvergedError(RuntimeError):
    pass


def kernel_partition(m: DistanceMatrix, tol: float | None = None):
    """Equivalence classes of distance zero (exact) or <= tol (float, by
    default the matrix's mode.tolerance); transitivity comes with the
    triangle inequality."""
    tol = m.mode.tolerance if tol is None else tol
    if not m.converged:
        raise UnconvergedError("kernel of an unconverged matrix is undefined")

    def close(a, b):
        v = m.table.get(a, b)
        if m.mode.is_exact:
            return v.is_zero
        return v.as_float() <= tol

    blocks = []
    for s in m.states:
        for block in blocks:
            if close(s, block[0]):
                block.append(s)
                break
        else:
            blocks.append([s])
    return [tuple(b) for b in blocks]


def bisimilarity_partition(p: ProbTS):
    """Partition refinement: split by (per-block probability, termination
    probability) signatures until stable."""
    block_of = {s: 0 for s in p.states}
    nblocks = 1 if p.states else 0
    while True:
        signatures = {}
        for s in p.states:
            mass = {}
            for tgt, w in p.transitions.get(s, {}).items():
                key = block_of[tgt]
                mass[key] = mass.get(key, Fraction(0)) + w
            sig = (
                tuple(sorted(mass.items())),
                Fraction(p.terminate.get(s, 0)),
                block_of[s],
            )
            signatures.setdefault(sig, []).append(s)
        new_block_of = {}
        for idx, sig in enumerate(sorted(signatures)):
            for s in signatures[sig]:
                new_block_of[s] = idx
        if len(signatures) == nblocks:
            break
        block_of = new_block_of
        nblocks = len(signatures)
    out = {}
    for s in p.states:
        out.setdefault(block_of[s], []).append(s)
    return [tuple(out[k]) for k in sorted(out)]


def same_partition(p1, p2) -> bool:
    return {frozenset(b) for b in p1} == {frozenset(b) for b in p2}


# ---------------------------------------------------------------------------
# rendering


def format_value(v: Value, mode: NumericMode) -> str:
    if mode.is_exact and v.is_exact:
        return format_magnitude(v.mag)
    return repr(v.as_float())


def matrix_to_csv(m: DistanceMatrix) -> str:
    text = {(a, a): format_value(ZERO, m.mode) for a in m.states}
    for a, b, v in m.table.entries():  # each stored entry formatted once
        text[a, b] = text[b, a] = format_value(v, m.mode)
    out = io.StringIO()
    out.write("state," + ",".join(m.states) + "\n")
    for a in m.states:
        out.write(a + "," + ",".join([text[a, b] for b in m.states]) + "\n")
    return out.getvalue()


def matrix_to_json(m: DistanceMatrix) -> dict:
    return {
        "states": list(m.states),
        "entries": [
            [a, b, format_value(v, m.mode)] for a, b, v in m.table.entries()
        ],
        "iterations": m.iterations,
        "converged": m.converged,
        "residual": format_value(m.residual, m.mode),
        "method": m.method,
        "mode": m.mode.kind,
    }


def trace_to_csv(m: DistanceMatrix) -> str:
    out = io.StringIO()
    out.write("iteration,state1,state2,distance\n")
    for k, table in enumerate(m.trace):
        for a, b, v in table.entries():
            out.write(f"{k},{a},{b},{format_value(v, m.mode)}\n")
    return out.getvalue()
