"""Command-line interface.

Commands: dist (distance matrix of a system), lift (one lifted distance),
check (property suites), trace (per-iteration matrices).  Exit codes: 0
success, 1 validation error, 2 check failure, 3 non-convergence under
--strict.
"""

import argparse
import json
import sys

from .coalgebra import load_lift_instance, load_system, parse_weight
from .fixpoint import (
    IterationOptions,
    behavioral_distances,
    format_value,
    matrix_to_csv,
    matrix_to_json,
    trace_to_csv,
)
from .lifting import KANTOROVICH, WASSERSTEIN, lift_both, lift_dist
from .suites import SUITES, run_suite
from .values import NumericMode, Value, format_magnitude

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
EXIT_UNCONVERGED = 3


def _mode_from(args) -> NumericMode:
    if args.exact:
        return NumericMode.exact()
    return NumericMode.approx(args.float_tol if args.float_tol is not None else 1e-9)


def _add_system_flags(p):
    p.add_argument("system", help="system JSON file")
    p.add_argument("--c", help='discount override, e.g. "9/10"')
    p.add_argument("--eps", help='value for the symbolic "eps" in weights')
    p.add_argument(
        "--method",
        choices=(KANTOROVICH, WASSERSTEIN),
        default=WASSERSTEIN,
    )
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--strict", action="store_true", help="exit 3 when unconverged")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    g.add_argument(
        "--float",
        dest="float_tol",
        metavar="TOL",
        type=float,
        default=None,
        help="float mode with the given tolerance (default 1e-9)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="behametric",
        description="behavioral distances for finite coalgebras via "
        "Kantorovich/Wasserstein functor liftings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="compute the behavioral distance matrix")
    _add_system_flags(p_dist)
    p_dist.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p_dist.add_argument("--out", help="write to a file instead of stdout")

    p_lift = sub.add_parser("lift", help="lift a ground distance once")
    p_lift.add_argument("file", help="lift-instance JSON file")
    p_lift.add_argument(
        "--method",
        choices=(KANTOROVICH, WASSERSTEIN),
        default=WASSERSTEIN,
    )
    p_lift.add_argument(
        "--both", action="store_true", help="print both methods and the gap"
    )

    p_check = sub.add_parser("check", help="run property suites")
    p_check.add_argument(
        "suite",
        nargs="?",
        default="all",
        help=f"one of: all, {', '.join(sorted(SUITES))}",
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--n", type=int, default=50, help="instances per node, at least 1")

    p_trace = sub.add_parser("trace", help="print per-iteration matrices as CSV")
    _add_system_flags(p_trace)
    p_trace.add_argument("--out", help="write to a file instead of stdout")

    return parser


def _load(args):
    with open(args.system, encoding="utf-8") as fh:
        doc = fh.read()
    mode = _mode_from(args)
    eps = parse_weight(args.eps, path="--eps") if args.eps else None
    c = parse_weight(args.c, path="--c") if args.c else None
    return load_system(doc, mode=mode, eps=eps, c=c)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dist(args) -> int:
    system = _load(args)
    opts = IterationOptions(max_iter=args.max_iter, method=args.method)
    matrix = behavioral_distances(system, opts)
    if args.json:
        text = json.dumps(matrix_to_json(matrix), ensure_ascii=False, indent=2) + "\n"
    else:
        text = matrix_to_csv(matrix)
    _emit(text, args.out)
    if not matrix.converged:
        sys.stderr.write(
            f"warning: no fixed point within {matrix.iterations} iterations "
            f"(residual {format_value(matrix.residual, matrix.mode)})\n"
        )
        if args.strict:
            return EXIT_UNCONVERGED
    return EXIT_OK


def cmd_lift(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        inst = load_lift_instance(fh.read())

    def show(v: Value) -> str:
        return format_magnitude(v.mag)

    if args.both:
        k, w, gap = lift_both(inst.expr, inst.space, inst.t1, inst.t2)
        print(f"kantorovich {show(k)}")
        print(f"wasserstein {show(w)}")
        print(f"gap {show(gap)}")
    else:
        v = lift_dist(inst.expr, inst.space, args.method, inst.t1, inst.t2)
        print(f"{args.method} {show(v)}")
    return EXIT_OK


def cmd_check(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        result = run_suite(name, seed=args.seed, n=args.n)
        print(result.summary())
        ok = ok and result.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_trace(args) -> int:
    system = _load(args)
    opts = IterationOptions(max_iter=args.max_iter, method=args.method, trace=True)
    matrix = behavioral_distances(system, opts)
    _emit(trace_to_csv(matrix), args.out)
    if not matrix.converged and args.strict:
        return EXIT_UNCONVERGED
    return EXIT_OK


COMMANDS = {"dist": cmd_dist, "lift": cmd_lift, "check": cmd_check, "trace": cmd_trace}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # SchemaError, ShapeError and ConfigurationError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except RecursionError:
        # json reads nesting deeper than the loader and the lifting recurse through
        sys.stderr.write(
            f"error: nesting too deep for Python's recursion limit of {sys.getrecursionlimit()}\n"
        )
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
