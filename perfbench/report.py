"""Run every workload once and print its metrics as a table.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--trace 0|1] [--seed N] [--seconds S]

With ``--trace 0`` it prints setup_s, run_s, cpu_s and peak_rss_mb of each
workload with the operations attempted and failed.  With ``--trace 1`` it
prints the per-layer metrics, runs each workload again with the next seed,
and checks that every ``.per_unit`` count repeats exactly across the two
seeds; it also compares those counts with the ones the seed commit made.
Exits 1 when a run fails, a check fails or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent



def seed_commit_counts():
    """The ``.per_unit`` counts of each workload at the commit that
    introduced this benchmark, from ``baseline_seed.json``."""
    base = json.loads((HERE / "baseline_seed.json").read_text(encoding="utf-8"))
    return {
        w: {n: v for n, v in layer.items() if n.endswith(".per_unit")}
        for w, layer in base["per_layer"].items()
    }


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2])
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    args = parser.parse_args()

    results = {w: run(w, args.seed, args.seconds, args.trace) for w in workloads.NAMES}
    ok = all(r is not None and r["correct"] for r in results.values())
    names = []
    for r in results.values():
        for k in (r or {}).get("metrics", {}):
            if k not in names:
                names.append(k)
    width = max(len(n) for n in names) if names else 10
    print(f"{'metric':{width}s} {'unit':>10s} " + " ".join(f"{w:>14s}" for w in workloads.NAMES))
    for n in names:
        unit = next(r["metrics"][n]["unit"] for r in results.values() if r)
        cells = [
            f"{r['metrics'][n]['value']:14.6g}" if r else f"{'-':>14s}"
            for r in results.values()
        ]
        print(f"{n:{width}s} {unit:>10s} " + " ".join(cells))
    for key in ("attempted", "failed", "correct"):
        cells = [f"{str(r[key]) if r else '-':>14s}" for r in results.values()]
        print(f"{key:{width}s} {'':>10s} " + " ".join(cells))

    if args.trace == 1:
        for w in workloads.NAMES:
            first = results[w]
            again = run(w, args.seed + 1, args.seconds, 1)
            if first is None or again is None:
                ok = False
                continue
            ok = ok and again["correct"]
            for n, m in first["metrics"].items():
                if n.endswith(".per_unit") and m["value"] != again["metrics"][n]["value"]:
                    print(f"{w}: {n} is {m['value']} at seed {args.seed} "
                          f"but {again['metrics'][n]['value']} at seed {args.seed + 1}")
                    ok = False
            for n, expected in seed_commit_counts().get(w, {}).items():
                got = first["metrics"][n]["value"]
                verdict = "as at the seed commit" if got == expected else "seed commit had"
                print(f"{w}: {n} = {got} ({verdict} {expected})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
