#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload prob_float ...]
                                [--trace 0] [--out FILE]

Runs are sequential, one process each, with BENCHMARK.json's run_seconds.
For every metric it prints the median and the spread, (Q3 - Q1) / median
with the quartiles of ``statistics.quantiles(values, n=4)``, next to the
metric's bound.  ``--out`` writes the same figures as JSON, together with
the machine's core count and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: outputs incorrect\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    report = {}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, args.trace))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        report[workload] = {k: summary([r[k] for r in runs]) for k in runs[0]}
        for name, s in report[workload].items():
            bound = bounds.get(name)
            print(f"{workload:13} {name:26} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  + (f"  (bound {bound})" if bound is not None else ""), flush=True)
    if args.out:
        doc = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "run_seconds": SPEC["run_seconds"],
            "seeds": args.seeds,
            "trace": args.trace,
            "workloads": report,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
