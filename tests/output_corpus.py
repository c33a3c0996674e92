"""Compare every output of this checkout with another's on a fixed corpus.

Usage (from the root of a checkout):

    python -m tests.output_corpus OTHER_CHECKOUT

Each config of the corpus runs through ``python -m g2flow.cli`` in both
checkouts (each on its own ``src``): with ``--validate-only`` and without,
under default warnings and under ``PYTHONWARNINGS=error::RuntimeWarning``.
The corpus: the four benchmark workload configs at seeds 0 and 7,
``ee1_static``, ``ee2_family``, ``linearize``, DeTurck rk4 and rkf45 runs
of both flows, both output formats of both flows (with a monitor off, and a
start that halts at t = 0), the pinned A = 0.5 ``newton`` halts, a mixed-A
sweep, ``np``, and the hostile configs (A = 1e300 and 1e308, perturbations
of 1e100 and 1e300, linearize steps of 1e200 and 1e308, sweeps with a
hostile cell).  Every difference in exit code, stdout, stderr or the bytes
of an output file is printed, after the run's directories and the
checkouts' roots are replaced by placeholders.  Exits 0 when there is none,
1 otherwise.  The inputs are written once, so both checkouts read the same
files, and two runs go at a time.  Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WARNINGS = ("default", "error::RuntimeWarning")
TIMEOUT_S = 120
JOBS = 2  # runs at a time: each is one single-threaded process


def _workloads():
    """The benchmark's input builders (standard library only)."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flow(experiment, integrator, **sections):
    return {"schema_version": 1, "experiment": experiment,
            "flow": {"integrator": integrator, **sections.pop("flow", {})}, **sections}


def _corpus(inputs):
    """Write the corpus under ``inputs``: (name, CLI argv without
    ``--output-dir``) per config."""
    workloads = _workloads()
    corpus = []
    for seed in (0, 7):
        for name in workloads.NAMES:
            argv, _ = workloads.write_inputs(name, seed, inputs / f"{name}-{seed}")
            corpus.append((f"{name}-seed{seed}", argv))
    n2 = str(workloads.N2_ALGEBRA)
    n2_phi = str(inputs / "laplacian_n2-0" / "phi_n2.json")
    short = {"method": "rk4", "dt": 0.01, "t_end": 0.2}
    gauge = {"enabled": True, "c1": 0.5, "c2": -0.25}
    # The standard psi, closed on ee1, plus a term that is not.
    psi_not_closed = inputs / "psi_not_closed.json"
    psi = json.loads((ROOT / "src" / "g2flow" / "fixtures" / "psi_standard.json").read_text())
    psi["terms"].append({"idx": [2, 3, 4, 6], "coef": 0.01})
    psi_not_closed.write_text(json.dumps(psi) + "\n", encoding="utf-8")

    def laplacian(integrator, **flow):
        return _flow("custom", integrator, algebra_file=n2, initial=n2_phi,
                     flow={"flow_kind": "laplacian_flow", **flow},
                     perturbation={"seed": 3, "magnitude": 0.2, "subspace": "coclosed"})

    configs = {
        "ee1_static": {"schema_version": 1, "experiment": "ee1_static"},
        "ee1_static-csv": {"schema_version": 1, "experiment": "ee1_static", "samples": 7,
                           "perturbation": {"magnitude": 2.0}, "output": {"format": "csv"}},
        "ee2_family": {"schema_version": 1, "experiment": "ee2_family"},
        "ee2_family-csv": {"schema_version": 1, "experiment": "ee2_family",
                           "output": {"format": "csv"}},
        "linearize": {"schema_version": 1, "experiment": "linearize"},
        "linearize-exact": {"schema_version": 1, "experiment": "linearize",
                            "perturbation": {"subspace": "exact"}},
        "np": {"schema_version": 1, "experiment": "np", "np": {"tau0": 1.0},
               "flow": {"A": 0.5, "integrator": {"dt": 1e-3, "t_end": 0.5}}},
        "np-jsonl": {"schema_version": 1, "experiment": "np", "np": {"tau0": 2.0, "c0": 1.5},
                     "flow": {"integrator": {"dt": 1e-3, "t_end": 0.2}},
                     "output": {"format": "jsonl"}},
        "coflow-deturck-rk4": _flow("ee2_flow", short, flow={"deturck": gauge},
                                    perturbation={"seed": 2, "magnitude": 0.1}),
        "coflow-deturck-rkf45": _flow("ee2_flow", dict(short, method="rkf45"),
                                      flow={"deturck": gauge},
                                      perturbation={"seed": 2, "magnitude": 0.1}),
        "laplacian-deturck-rk4": laplacian(short, deturck=gauge),
        "laplacian-deturck-rkf45": laplacian(dict(short, method="rkf45"), deturck=gauge),
        "coflow-csv-trT-off": _flow("ee2_flow", short, flow={"monitors": {
            "record_every": 3, "trT": False}}, output={"format": "csv"}),
        "laplacian-jsonl-volume-off": dict(laplacian(short, monitors={
            "record_every": 1, "volume": False}), output={"format": "jsonl"}),
        "laplacian-csv-rkf45": dict(laplacian({"method": "rkf45", "dt": 0.05, "t_end": 1.0}),
                                    output={"format": "csv"}),
        "coflow-halt-between-records": _flow("ee2_flow", short, flow={
            "monitors": {"record_every": 7}, "halt": {"max_rhs_norm": 1e-3}}),
        "laplacian-not-closed-at-t0": _flow("custom", short, algebra_file="ee1",
                                            flow={"flow_kind": "laplacian_flow"},
                                            output={"format": "csv"}),
        "coflow-not-closed-at-t0": _flow("custom", short, algebra_file="ee1",
                                         initial=str(psi_not_closed)),
        "newton-A0.5-rk4": _flow("ee2_flow", {"method": "rk4", "dt": 0.01, "t_end": 1.0},
                                 flow={"A": 0.5}, perturbation={"seed": 0, "magnitude": 0.2}),
        "newton-A0.5-rkf45": _flow("ee2_flow", {"method": "rkf45", "dt": 0.01, "t_end": 1.0},
                                   flow={"A": 0.5}, perturbation={"seed": 0, "magnitude": 0.2}),
        "sweep-mixed-A": _flow("sweep", short, perturbation={"magnitude": 0.05}, sweep={
            "experiment": "ee2_flow",
            "axes": {"flow.A": [0.0, 0.25, 0.5], "perturbation.seed": [1, 2]}}),
        "sweep-laplacian-seeds": _flow("sweep", short, algebra_file=n2, initial=n2_phi, flow={
            "flow_kind": "laplacian_flow", "monitors": {"record_every": 2}},
            perturbation={"magnitude": 0.2, "subspace": "coclosed"}, output={"format": "csv"},
            sweep={"experiment": "custom", "axes": {"perturbation.seed": [0, 5, 9]}}),
        "ee1_static-1e100": {"schema_version": 1, "experiment": "ee1_static", "samples": 5,
                             "perturbation": {"magnitude": 1e100}},
        "ee1_static-1e300": {"schema_version": 1, "experiment": "ee1_static", "samples": 5,
                             "perturbation": {"magnitude": 1e300}},
        "ee1_static-A1e308": {"schema_version": 1, "experiment": "ee1_static", "samples": 5,
                              "flow": {"A": 1e308}},
        "linearize-1e200": {"schema_version": 1, "experiment": "linearize",
                            "linearize": {"eps": 1e200}},
        "linearize-1e308": {"schema_version": 1, "experiment": "linearize",
                            "linearize": {"eps": 1e308}},
        "linearize-A1e308": {"schema_version": 1, "experiment": "linearize",
                             "flow": {"A": 1e308}},
        "sweep-hostile-A": _flow("sweep", {"dt": 0.01, "t_end": 0.1}, sweep={
            "experiment": "ee2_flow", "axes": {"flow.A": [0.0, 1e308]}}),
        "sweep-hostile-magnitude": _flow("sweep", {"dt": 0.01, "t_end": 0.1}, sweep={
            "experiment": "ee2_flow", "axes": {"perturbation.magnitude": [0.05, 1e300]}}),
        "huge-dt-rk4": _flow("ee2_flow", {"method": "rk4", "dt": 1e-300, "t_end": 1.0}),
    }
    for A in (1e300, 1e308):
        for method in ("rk4", "rkf45"):
            configs[f"ee2_flow-A{A:g}-{method}"] = _flow(
                "ee2_flow", {"method": method, "dt": 0.01, "t_end": 0.1}, flow={"A": A})
    for name, cfg in configs.items():
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        corpus.append((name, ["run", str(path)]))
    return corpus


def _run(checkout, argv, out, warnings):
    """One CLI run in ``checkout``: (exit code, stdout, stderr, {file: bytes})."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONWARNINGS=warnings)
    if warnings == "default":
        del env["PYTHONWARNINGS"]
    out.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "g2flow.cli", *argv, "--output-dir", str(out)],
                          cwd=checkout, env=env, capture_output=True, timeout=TIMEOUT_S)
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def _normalised(result, replacements):
    code, stdout, stderr, files = result

    def norm(data):
        for old, new in replacements:
            data = data.replace(old, new)
        return data

    return code, norm(stdout), norm(stderr), {k: norm(v) for k, v in files.items()}


def _first_difference(a, b):
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = a[:at].count(b"\n") + 1
    return f"byte {at} (line {line}; {len(a)} against {len(b)} bytes)"


def _differences(mine, theirs):
    out = []
    if mine[0] != theirs[0]:
        out.append(f"exit code {mine[0]} here, {theirs[0]} there")
    for label, a, b in (("stdout", mine[1], theirs[1]), ("stderr", mine[2], theirs[2])):
        if a != b:
            out.append(f"{label} differs at {_first_difference(a, b)}")
    for name in sorted(set(mine[3]) | set(theirs[3])):
        a, b = mine[3].get(name), theirs[3].get(name)
        if a is None or b is None:
            out.append(f"file {name} only {'there' if a is None else 'here'}")
        elif a != b:
            out.append(f"file {name} differs at {_first_difference(a, b)}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with (holding src/g2flow)")
    args = parser.parse_args(argv)
    checkouts = {"here": ROOT, "there": args.other.resolve()}
    if not (checkouts["there"] / "src" / "g2flow" / "__init__.py").is_file():
        parser.error(f"no src/g2flow under {checkouts['there']}")
    with tempfile.TemporaryDirectory(prefix="g2flow-corpus-") as tmp:
        tmp = Path(tmp)
        corpus = _corpus(tmp / "inputs")
        jobs = []
        for name, cli_argv in corpus:
            for validate in (False, True):
                for warnings in WARNINGS:
                    label = f"{name}{' --validate-only' if validate else ''} [{warnings}]"
                    argv = cli_argv + (["--validate-only"] if validate else [])
                    jobs.append((label, argv, warnings))

        def compare(index):
            label, argv, warnings = jobs[index]
            results = []
            for side, checkout in checkouts.items():
                out = tmp / side / str(index)
                # The inputs name files of this checkout, so both roots read
                # the same.
                replacements = [(str(p).encode(), f"<{key}>".encode()) for key, p in (
                    ("out", out), ("inputs", tmp / "inputs"), ("checkout", checkout),
                    ("checkout", ROOT))]
                results.append(_normalised(_run(checkout, argv, out, warnings), replacements))
            return label, results[0][0], _differences(*results)

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            outcomes = list(pool.map(compare, range(len(jobs))))
    differing = 0
    for label, code, differences in outcomes:
        if differences:
            differing += 1
            print(f"DIFFERS {label}")
            for line in differences:
                print(f"    {line}")
    print(f"{len(outcomes)} runs of {len(corpus)} configs: {len(outcomes) - differing} identical, "
          f"{differing} differ ({checkouts['here']} against {checkouts['there']})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
