#!/usr/bin/env python3
"""Record the corpora and their reference outputs into reference.json.

    python3 perfbench/record.py                 # every workload, both scales
    python3 perfbench/record.py prob_exact      # just one workload

Run it from the root of a checkout, at the commit whose outputs become the
reference; a later commit must then reproduce them (exact results byte for
byte, float results within tol*c/(1-c)).

For every slot key (a size, or a suite and its size) the recorder solves
candidates with generator seeds 0, 1, 2, ..., takes the median of
TIMING_REPEATS solve times, sorts them and cuts them into one cost band per
slot with that key.  It then deals the candidates, dearest first, to the
corpus with the least total so far that still lacks a member of that
band, dealing the bands that hold the median solve first.  Every corpus
thus holds one member per band, and the corpora cost about the same, in
total and at the median.  Oracle suite seeds slower than ORACLE_LIGHT_S are skipped: on
about 40% of seeds at n = 1 the oracle enumerates the vertices of a
4-point Kantorovich LP (about 5 s against 0.05 s), and a mix of those
would swamp the workload.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ORACLE_LIGHT_S = 1.0
TIMING_REPEATS = 3


def candidates(bm, w: run.Workload, key, count: int) -> list:
    out = []
    gen_seed = 0
    while len(out) < count:
        member = {"seed": gen_seed, "n": key}
        if w.kind == "suite":
            member = {"suite": key[0], "seed": gen_seed, "n": key[1]}
        gen_seed += 1
        inputs = run.setup(bm, w, [member])
        wall, _, outputs = run.solve_round(bm, w, inputs)
        if member.get("suite") == "oracle" and wall > ORACLE_LIGHT_S:
            print(f"  skip oracle seed {member['seed']}: {wall:.2f} s", flush=True)
            continue
        walls = [wall] + [run.solve_round(bm, w, inputs)[0] for _ in range(TIMING_REPEATS - 1)]
        ref = run.reference_of(bm, w, outputs[0])
        if not (ref.get("passed", True) and (ref.get("converged", True) or w.capped)):
            raise run.BenchError(f"{w.name} {member}: unusable reference {ref}")
        member.update(ref, time_s=round(statistics.median(walls), 4))
        out.append(member)
        print(f"  {member}"[:160], flush=True)
    return out


def deal(bands: list) -> list:
    """One corpus per band member.  Candidates go dearest first to the
    cheapest corpus that still lacks a member of their band: first the
    bands that hold the median solve, balancing their subtotal, then the
    rest, balancing the total."""
    by_cost = sorted(range(len(bands)), key=lambda b: statistics.median(
        m["time_s"] for m in bands[b]))
    middle = {by_cost[(len(bands) - 1) // 2], by_cost[len(bands) // 2]}
    corpora = [[None] * len(bands) for _ in bands[0]]
    totals = [0.0] * len(corpora)
    for stage in (middle, set(range(len(bands))) - middle):
        ranked = sorted(
            ((m["time_s"], b, m) for b in stage for m in bands[b]),
            key=lambda item: -item[0],
        )
        for time_s, b, member in ranked:
            k = min((k for k, c in enumerate(corpora) if c[b] is None), key=totals.__getitem__)
            corpora[k][b] = member
            totals[k] += time_s
    return corpora


def cut_bands(keys: list, size: int, pools: dict) -> list:
    """Sort each key's pool by time and cut it into one band per slot."""
    bands = [None] * len(keys)
    for key, pool in pools.items():
        positions = [i for i, k in enumerate(keys) if json.dumps(k) == key]
        pool = sorted(pool, key=lambda m: m["time_s"])
        for j, pos in enumerate(positions):
            bands[pos] = pool[j * size:(j + 1) * size]
    return bands


def record(bm, w: run.Workload, scale: str) -> dict:
    keys = w.slots[scale]
    size = w.corpora[scale]
    pools = {
        json.dumps(k): candidates(bm, w, k, size * keys.count(k))
        for k in {json.dumps(k): k for k in keys}.values()
    }
    corpora = deal(cut_bands(keys, size, pools))
    print(f"  corpus totals: {[round(sum(m['time_s'] for m in c), 3) for c in corpora]}, "
          f"medians: {[round(statistics.median(m['time_s'] for m in c), 3) for c in corpora]}")
    return {"corpora": corpora}


def main(argv) -> int:
    bm = run.import_program()
    names = argv or sorted(run.WORKLOADS)
    data = run.load_reference() if run.REFERENCE.is_file() else {}
    data["python"] = platform.python_version()
    for name in names:
        w = run.WORKLOADS[name]
        data[name] = {}
        for scale in run.SCALES:
            print(f"{name} ({scale})", flush=True)
            data[name][scale] = record(bm, w, scale)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
