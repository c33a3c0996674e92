"""g2flow benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: coflow_ee2, static_ee1, laplacian_n2, sweep_ee2 (see
workloads.py for what each one stresses and why).

With ``--trace 0`` it reports the end-to-end metrics, measured with
tracing off: ``setup_s`` (median of fresh-interpreter set-ups), ``run_s``
and ``cpu_s`` (medians over the timed runs) and ``peak_rss_mb``.  With
``--trace 1`` it reports the per-layer metrics of a traced run and what the
tracing costs.  The last stdout line is the JSON result; the line before it
records the environment.  Exits 2 when the checkout has no ``src/g2flow``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
DEADLINE_S = 170  # the whole benchmark must end within 180 s
# Cleared so that every commit runs with numpy's default BLAS threading;
# setting them would hide the CPU cost that cpu_s exists to expose.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def declared_units(kind):
    """Name to unit of every metric BENCHMARK.json declares under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "g2flow" / "__init__.py").is_file():
        sys.stderr.write(f"no g2flow sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + DEADLINE_S
    load_before = list(os.getloadavg())
    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", str(ROOT), "--work", str(work)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        sys.stderr.write(worker.stderr)
        if worker.returncode != 0:
            sys.stderr.write(f"worker exited {worker.returncode}\n")
            return 1
        res = json.loads(worker.stdout.strip().splitlines()[-1])

        if args.trace == 0:
            cfg_path = work / f"{args.workload}.json"
            setups = []
            for _ in range(SETUP_PROBES):
                probe = subprocess.run(
                    [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(cfg_path)],
                    env=env, capture_output=True, text=True,
                    timeout=max(1.0, deadline - time.monotonic()),
                    check=True,
                )
                setups.append(json.loads(probe.stdout)["setup_s"])
            values = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(res["run_s"]),
                "cpu_s": statistics.median(res["cpu_s"]),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            detail = {"runs": len(res["run_s"]), "run_s": res["run_s"], "cpu_s": res["cpu_s"],
                      "setup_s": setups}
        else:
            values = res["metrics"]
            detail = {"untraced_run_s": res["run_s"]}
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(f"timed out: {exc}\n")
        return 1
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"set-up probe failed: {exc.stderr}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK_DIR.rmdir()

    units = declared_units("end_to_end" if args.trace == 0 else "per_layer")
    if set(values) != set(units):
        sys.stderr.write(f"measured metrics {sorted(set(values) ^ set(units))} "
                         "are not the ones BENCHMARK.json declares\n")
        return 1
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    for problem in res["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    environment = dict(res["environment"], loadavg_before=load_before,
                       loadavg_after=list(os.getloadavg()), cleared=list(THREAD_VARS))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "units": res["units"],
                      "detail": detail, "environment": environment}))
    print(json.dumps({
        "correct": not res["problems"] and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
