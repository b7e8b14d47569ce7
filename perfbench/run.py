#!/usr/bin/env python3
"""Benchmark of behavioral-distance computation: four seeded workloads.

    python3 perfbench/run.py --workload prob_float --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up generates the run seed's corpus, serialises it to JSON and loads
every document (or, on ``check_suites``, warms up each suite); it is timed
SETUP_REPEATS times and again before each untraced round.  The timed
phase solves the whole corpus in rounds for about ``--seconds``.  Every
output is checked against the references in ``reference.json`` outside
the timed phase.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics from the
traced ones; it then re-runs one traced round in a child process under
another PYTHONHASHSEED and fails (exit 1) unless every count matches.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
FLOAT_TOL = 1e-9
SCALES = ("full", "tiny")


class BenchError(Exception):
    """The benchmark cannot run or its counts do not repeat."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "prob_ts", "metric_ts" or "suite"
    exact: bool
    max_iter: int
    capped: bool  # the iteration cap, not convergence, ends every solve
    slots: dict  # scale -> one key per corpus slot: n, or [suite, n]
    corpora: dict  # scale -> corpora recorded, so candidates per slot


_SUITE_SLOTS = [[s, n] for s, n in (
    ("axioms", 10), ("duality", 10), ("k-le-w", 10), ("well-behaved", 50), ("oracle", 1),
) for _ in range(3)]

# Why each workload exists is in BENCHMARK.json and README.md.  Each uses
# one size, so the median solve falls in a narrow cost band.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prob_float", "prob_ts", False, 10000, False,
            {"full": [6] * 5, "tiny": [3, 3]}, {"full": 6, "tiny": 2},
        ),
        Workload(
            "prob_exact", "prob_ts", True, 50, True,
            {"full": [4] * 7, "tiny": [3, 3]}, {"full": 6, "tiny": 2},
        ),
        Workload(
            "metric_exact", "metric_ts", True, 10000, False,
            {"full": [30] * 4, "tiny": [5, 5]}, {"full": 6, "tiny": 2},
        ),
        Workload(
            "check_suites", "suite", True, 0, False,
            {"full": _SUITE_SLOTS, "tiny": [[s, 1] for s, _ in _SUITE_SLOTS[::3]]},
            {"full": 6, "tiny": 2},
        ),
    )
}


# ---------------------------------------------------------------------------
# the program under test


def import_program():
    """Import behametric from this checkout's src/ and nowhere else."""
    if not (SRC / "behametric" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'behametric'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import behametric
    import behametric.cli
    import behametric.coalgebra
    import behametric.fixpoint
    import behametric.suites
    import behametric.values

    if Path(behametric.__file__).resolve().parent != SRC / "behametric":
        raise BenchError(f"imported behametric from {behametric.__file__}, not {SRC}")
    return behametric


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"{REFERENCE.name} is missing; run record.py")
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def setup(bm, w: Workload, members):
    """Build what the timed phase consumes: loaded systems, or the suite
    calls after one warm-up call per suite at n = 1."""
    if w.kind == "suite":
        for name in sorted({m["suite"] for m in members}):
            bm.suites.run_suite(name, seed=0, n=1)
        return [(m["suite"], m["seed"], m["n"]) for m in members]
    mode = bm.values.EXACT if w.exact else bm.values.NumericMode.approx(FLOAT_TOL)
    return [
        bm.coalgebra.load_system(corpus.document_text(w.kind, m["seed"], m["n"]), mode=mode)
        for m in members
    ]


def solve_round(bm, w: Workload, inputs):
    """Solve (and render) every input once; returns wall time, per-solve
    times and the outputs."""
    clock = time.perf_counter
    solve_s, outputs = [], []
    start = clock()
    if w.kind == "suite":
        for name, seed, n in inputs:
            t = clock()
            result = bm.suites.run_suite(name, seed=seed, n=n)
            solve_s.append(clock() - t)
            outputs.append(result)
    else:
        opts = bm.fixpoint.IterationOptions(max_iter=w.max_iter, tol=FLOAT_TOL, workers=1)
        for system in inputs:
            t = clock()
            matrix = bm.fixpoint.behavioral_distances(system, opts)
            solve_s.append(clock() - t)
            outputs.append((matrix, bm.cli.matrix_to_csv(matrix)))
    return clock() - start, solve_s, outputs


# ---------------------------------------------------------------------------
# references and the correctness gate


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def float_entries(matrix) -> list:
    return [repr(v.as_float()) for _, _, v in matrix.table.entries()]


def reference_of(bm, w: Workload, output) -> dict:
    """What record.py stores for one member's output."""
    if w.kind == "suite":
        return {"passed": output.passed, "checked": output.checked}
    matrix, csv = output
    ref = {"iterations": matrix.iterations, "converged": matrix.converged}
    if w.exact:
        ref["csv_sha256"] = sha256(csv)
    else:
        ref["entries"] = float_entries(matrix)
    return ref


def _prob_ts(bm, doc):
    return bm.coalgebra.ProbTS(
        doc["states"],
        {s: {t: Fraction(p) for t, p in tr.items()} for s, tr in doc["transitions"].items()},
        {s: Fraction(p) for s, p in doc["terminate"].items()},
        Fraction(doc["c"]),
    )


def check_member(bm, w: Workload, member, system, output) -> list:
    """Failed checks of one member's output (empty when correct)."""
    if w.kind == "suite":
        bad = [] if output.passed else ["suite failed"]
        if output.checked != member["checked"]:
            bad.append(f"checked {output.checked}, reference {member['checked']}")
        return bad
    fp = bm.fixpoint
    matrix, csv = output
    bad = []
    if w.exact:
        if sha256(csv) != member["csv_sha256"]:
            bad.append("csv differs from the reference")
        if matrix.converged and not fp.verify_fixed_point(system, matrix):
            bad.append("not a fixed point")
        return bad
    if not fp.verify_fixed_point(system, matrix, FLOAT_TOL):
        bad.append("not a fixed point within tol")
    c = Fraction(corpus.DISCOUNT)
    slack = FLOAT_TOL * float(c / (1 - c))
    got = float_entries(matrix)
    if len(got) != len(member["entries"]) or any(
        abs(float(a) - float(b)) > slack for a, b in zip(got, member["entries"])
    ):
        bad.append("entries differ from the reference by more than tol*c/(1-c)")
    if matrix.converged:
        doc = corpus.prob_ts_doc(member["seed"], member["n"])
        kernel = fp.kernel_partition(matrix, FLOAT_TOL)
        if not fp.same_partition(kernel, fp.bisimilarity_partition(_prob_ts(bm, doc))):
            bad.append("kernel differs from bisimilarity")
    return bad


def converged(w: Workload, output) -> bool:
    return w.kind == "suite" or output[0].converged


def gate(bm, w: Workload, members, inputs, rounds):
    """Count failed solves across all rounds.  Each member is checked once;
    its outputs in later rounds must render identically.  Returns
    (attempted, failed, failed or unconverged, messages)."""
    first = rounds[0][2]
    attempted = failed = unsolved = 0
    messages = []
    for i, member in enumerate(members):
        bad = check_member(bm, w, member, inputs[i], first[i])
        label = member.get("suite", w.kind)
        messages += [f"{label} n={member['n']} seed={member['seed']}: {b}" for b in bad]
        for _, _, outputs in rounds:
            attempted += 1
            same = w.kind == "suite" or outputs[i][1] == first[i][1]
            wrong = bool(bad) or not same
            done = converged(w, outputs[i])
            failed += wrong or (not done and not w.capped)
            unsolved += wrong or not done
    return attempted, failed, unsolved, messages


# ---------------------------------------------------------------------------
# per-layer metrics from one traced round

# metrics that must repeat exactly across rounds, runs and hash seeds
COUNTS = (
    "lp.transport_calls", "lp.transport_cells", "lp.transport_max_cells",
    "lp.solve_max_calls", "lp.solve_max_rows", "lifting.kantorovich_calls",
    "functors.table_builds", "lifting.engines", "lifting.dist_calls",
    "fixpoint.calls", "fixpoint.iterations", "fixpoint.converged_share",
    "values.max_den_bits", "values.mean_den_bits", "coalgebra.load_calls",
    "oracle.calls", "suites.checks",
)

# metric -> span name it is built from; missing when that span's hooks are
REQUIRES = {
    "lp.transport_calls": "lp.transport", "lp.transport_s": "lp.transport",
    "lp.transport_cells": "lp.transport", "lp.transport_max_cells": "lp.transport",
    "lp.solve_max_calls": "lp.solve_max", "lp.solve_max_s": "lp.solve_max",
    "lp.solve_max_rows": "lp.solve_max",
    "lifting.kantorovich_calls": "lifting.kantorovich",
    "lifting.kantorovich_s": "lifting.kantorovich",
    "functors.table_builds": "functors.table", "functors.table_s": "functors.table",
    "lifting.engines": "lifting.engine", "lifting.dist_calls": "lifting.engine",
    "fixpoint.calls": "fixpoint.solve", "fixpoint.round_s": "fixpoint.round",
    "coalgebra.load_calls": "coalgebra.load", "coalgebra.load_s": "coalgebra.load",
    "oracle.calls": "oracle.wasserstein", "oracle.s": "oracle.wasserstein",
    "suites.gen_s": "suites.gen", "cli.render_s": "cli.render",
}

UNITS = {("_s", ".s"): "s", ("_share",): "share", ("_bits",): "bits", ("_mb",): "MB"}


def unit_of(metric: str) -> str:
    for suffixes, unit in UNITS.items():
        if metric.endswith(suffixes):
            return unit
    return "count"


def round_layers(w: Workload, spans, outputs, wall: float) -> dict:
    by_name, self_s = tracing.summarize(spans)

    def get(name, field):
        return by_name.get(name, [0, 0.0, 0, 0])[field]

    out = {
        "lp.transport_calls": get("lp.transport", 0),
        "lp.transport_s": get("lp.transport", 1),
        "lp.transport_cells": get("lp.transport", 2),
        "lp.transport_max_cells": get("lp.transport", 3),
        "lp.solve_max_calls": get("lp.solve_max", 0),
        "lp.solve_max_s": get("lp.solve_max", 1),
        "lp.solve_max_rows": get("lp.solve_max", 2),
        "lifting.kantorovich_calls": get("lifting.kantorovich", 0),
        "lifting.kantorovich_s": get("lifting.kantorovich", 1),
        "functors.table_builds": get("functors.table", 0),
        "functors.table_s": get("functors.table", 1),
        "lifting.engines": get("lifting.engine", 0),
        "lifting.dist_calls": get("lifting.dist", 0),
        "lifting.self_s": self_s.get("lifting", 0.0),
        "fixpoint.calls": get("fixpoint.solve", 0),
        "fixpoint.self_s": self_s.get("fixpoint", 0.0),
        "fixpoint.round_s": get("fixpoint.round", 1),
        "oracle.calls": get("oracle.wasserstein", 0) + get("oracle.vertex", 0),
        "oracle.s": get("oracle.wasserstein", 1) + get("oracle.vertex", 1),
        "suites.gen_s": get("suites.gen", 1),
        "cli.render_s": get("cli.render", 1),
        "trace.covered_share": sum(self_s.values()) / wall,
    }
    if w.kind == "suite":
        out["fixpoint.iterations"] = 0
        out["fixpoint.converged_share"] = 0.0
        out["values.max_den_bits"] = out["values.mean_den_bits"] = 0
        out["suites.checks"] = sum(r.checked for r in outputs)
    else:
        matrices = [m for m, _ in outputs]
        bits = [
            v.mag.denominator.bit_length()
            for m in matrices
            for _, _, v in m.table.entries()
            if isinstance(v.mag, Fraction)
        ]
        out["fixpoint.iterations"] = sum(m.iterations for m in matrices)
        out["fixpoint.converged_share"] = sum(m.converged for m in matrices) / len(matrices)
        out["values.max_den_bits"] = max(bits, default=0)
        out["values.mean_den_bits"] = sum(bits) / len(bits) if bits else 0
        out["suites.checks"] = 0
    return out


def setup_layers(spans) -> dict:
    by_name, _ = tracing.summarize(spans)
    calls, seconds = by_name.get("coalgebra.load", [0, 0.0])[:2]
    return {"coalgebra.load_calls": calls, "coalgebra.load_s": seconds}


def _counts(layers: dict) -> dict:
    return {k: layers[k] for k in COUNTS if k in layers}


def _median_layers(samples: list) -> dict:
    """Counts must agree across samples; everything else is the median."""
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        if key in COUNTS:
            if len(set(values)) != 1:
                raise BenchError(f"count {key} differs between traced rounds: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out


# ---------------------------------------------------------------------------
# one run


def traced_setup(bm, w, members):
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        inputs = setup(bm, w, members)
    return inputs, setup_layers(tracer.spans), hooks.missing


def traced_round(bm, w, inputs):
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        wall, solve_s, outputs = solve_round(bm, w, inputs)
    return (wall, solve_s, outputs), round_layers(w, tracer.spans, outputs, wall), hooks.missing


def tail(samples: list):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def counts_only(w: Workload, seed: int, scale: str) -> dict:
    bm = import_program()
    members = corpus.pick(load_reference()[w.name][scale]["corpora"], w.name, seed)
    inputs, setup_l, _ = traced_setup(bm, w, members)
    _, round_l, _ = traced_round(bm, w, inputs)
    return _counts({**setup_l, **round_l})


def other_hash_seed() -> str:
    return "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"


def child_counts(w: Workload, seed: int, scale: str, budget: float) -> dict:
    """Counts of one traced round in a fresh process with another hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=other_hash_seed())
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
        "--seed", str(seed), "--seconds", "0", "--scale", scale, "--counts",
    ]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"count check timed out after {budget:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"count check failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        log=print) -> dict:
    started = time.perf_counter()
    w = WORKLOADS[workload]
    bm = import_program()
    members = corpus.pick(load_reference()[w.name][scale]["corpora"], w.name, seed)

    setup_s, setup_samples, missing = [], [], {}

    def timed_setup():
        t = time.perf_counter()
        inputs = setup(bm, w, members)
        setup_s.append(time.perf_counter() - t)
        return inputs

    for _ in range(SETUP_REPEATS):
        if trace:
            inputs, layers, missing = traced_setup(bm, w, members)
            setup_samples.append(layers)
        else:
            inputs = timed_setup()

    rounds, traced_rounds, traced_samples = [], [], []
    phase = time.perf_counter()
    while True:
        if trace and (len(rounds) + len(traced_rounds)) % 2 == 1:
            result, layers, missing = traced_round(bm, w, inputs)
            traced_rounds.append(result)
            traced_samples.append(layers)
        else:
            # set up afresh before each untraced round, so that set-up
            # samples span the run like the rounds do (outside wall_s)
            inputs = timed_setup()
            rounds.append(solve_round(bm, w, inputs))
        # stop where the next round would end further past --seconds than
        # stopping now falls short of it
        elapsed = time.perf_counter() - phase
        longest = max(wall for wall, _, _ in rounds + traced_rounds)
        if elapsed + longest / 2 >= seconds and (not trace or traced_rounds):
            break

    attempted, failed, unsolved, messages = gate(bm, w, members, inputs, rounds + traced_rounds)
    for message in messages:
        log(f"FAILED {message}")
    solve_s = [s for _, times, _ in rounds for s in times]
    log(f"workload {w.name}, seed {seed}, scale {scale}, {len(members)} inputs per round, "
        f"{len(rounds)} untraced and {len(traced_rounds)} traced rounds, "
        f"{len(solve_s)} timed solves")
    found = tail(solve_s)
    if found:
        log(f"solve_tail_s (p{found[0]} of {len(solve_s)} solves): {found[1]:.6f} s")
    else:
        log(f"solve_tail_s: omitted, {len(solve_s)} solves leave fewer than ten beyond p75")

    if trace:
        metrics = {**_median_layers(setup_samples), **_median_layers(traced_samples)}
        untraced = statistics.median(wall for wall, _, _ in rounds)
        traced = statistics.median(wall for wall, _, _ in traced_rounds)
        metrics["trace.overhead_share"] = traced / untraced - 1
        metrics["failed_share"] = unsolved / attempted
        gone = {m for m, span in REQUIRES.items() if span in missing}
        for span, targets in missing.items():
            log(f"missing hook target {', '.join(targets)}: "
                f"{', '.join(sorted(m for m in gone if REQUIRES[m] == span))} not measured")
        metrics = {k: v for k, v in metrics.items() if k not in gone}
        mine = _counts(metrics)
        theirs = child_counts(w, seed, scale, max(30.0, 170 - (time.perf_counter() - started)))
        theirs = {k: v for k, v in theirs.items() if k not in gone}
        if mine != theirs:
            diff = {k: (mine.get(k), theirs.get(k)) for k in mine.keys() | theirs.keys()
                    if mine.get(k) != theirs.get(k)}
            raise BenchError(f"counts differ under another PYTHONHASHSEED: {diff}")
        log(f"counts repeat in a child process under PYTHONHASHSEED={other_hash_seed()}")
    else:
        metrics = {
            "wall_s": statistics.median(wall for wall, _, _ in rounds),
            "solve_p50_s": statistics.median(solve_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        log(f"failed_share: {unsolved / attempted:.4f} share "
            f"({unsolved} of {attempted} solves failed or did not converge)")
    for name, value in metrics.items():
        log(f"{name}: {value:.6g} {unit_of(name)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="tiny runs the smoke-test corpus")
    parser.add_argument("--counts", action="store_true",
                        help="print only the counts of one traced round")
    args = parser.parse_args(argv)
    os.environ.pop("BEHAMETRIC_THREADS", None)
    w = WORKLOADS[args.workload]
    try:
        if args.counts:
            print(json.dumps(counts_only(w, args.seed, args.scale)))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
