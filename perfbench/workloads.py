"""The four benchmark workloads: inputs made from a seed, and their oracles.

Each workload runs through the public CLI entry point ``g2flow.cli.main``.
The input builders use only the standard library, so ``run.py`` can import
this module without loading numpy.  The oracles hold for every seed; they
import the library lazily and run outside any timed region.

Why these four:

* ``coflow_ee2``   the canonical modified coflow (A = 0), rk4, one record per
  step; almost all of its time is warm-seeded phi-from-psi recovery.
* ``static_ee1``   independent samples of the ee1 static cone: cold-seeded
  recoveries and one RHS each, no integrator, almost no output.
* ``laplacian_n2`` Laplacian flow of a closed positive 3-form on a 2-step
  nilpotent algebra: no recovery at all (the bypass workload for every
  recovery change), time in exterior/liealg/flows and CSV output, memory
  growing with the horizon.
* ``sweep_ee2``    an 8-cell sweep at ``--jobs 2``: the only workload that
  measures the experiments pool and per-cell config and fixture loading.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
N2_ALGEBRA = HERE / "n2.json"

NAMES = ("coflow_ee2", "static_ee1", "laplacian_n2", "sweep_ee2")

# Terms of the standard positive 3-form, in the order of its fixture.
_STANDARD_PHI = (
    ((1, 2, 3), 1.0),
    ((1, 4, 5), 1.0),
    ((1, 6, 7), 1.0),
    ((2, 4, 6), 1.0),
    ((2, 5, 7), -1.0),
    ((3, 4, 7), -1.0),
    ((3, 5, 6), -1.0),
)

CLOSEDNESS_TOL = 1e-6  # the flow's default halt.closedness_tol
STATIC_RHS_TOL = 1e-8  # the static-cone finding on ee1
SWEEP_JOBS = 2
COFLOW_T_END = 1.0
LAPLACIAN_T_END = 5.0  # long enough that retained states dominate memory


def _n2_phi(seed):
    """A seeded closed positive 3-form on n2 (de6 = e12, de7 = e13).

    Each term of the standard form is scaled by a positive factor, which
    keeps it positive.  On n2 the only terms with a nonzero differential are
    e257 and e356, whose differentials cancel, so the form stays closed
    exactly when those two factors are equal.
    """
    rng = random.Random(seed)
    scale = [rng.uniform(0.8, 1.25) for _ in _STANDARD_PHI]
    scale[6] = scale[4]
    terms = [
        {"idx": list(idx), "coef": sign * s} for (idx, sign), s in zip(_STANDARD_PHI, scale)
    ]
    return {"degree": 3, "terms": terms}


def write_inputs(name, seed, work):
    """Write the workload's config (and any form file) under ``work``.

    Returns (argv for ``g2flow.cli.main`` without ``--output-dir``,
    path of the config file).
    """
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    verb = "run"
    extra = []
    if name == "coflow_ee2":
        cfg = {
            "schema_version": 1,
            "experiment": "ee2_flow",
            "flow": {
                "A": 0.0,
                "integrator": {"method": "rk4", "dt": 0.01, "t_end": COFLOW_T_END},
                "monitors": {"record_every": 1},
            },
            "perturbation": {"seed": seed, "magnitude": 0.05, "subspace": "coclosed"},
            "output": {"format": "jsonl"},
        }
    elif name == "static_ee1":
        cfg = {
            "schema_version": 1,
            "experiment": "ee1_static",
            "samples": 100,
            "perturbation": {"seed": seed, "magnitude": 0.25},
            "output": {"format": "jsonl"},
        }
    elif name == "laplacian_n2":
        form_path = work / "phi_n2.json"
        form_path.write_text(json.dumps(_n2_phi(seed), indent=1) + "\n", encoding="utf-8")
        cfg = {
            "schema_version": 1,
            "experiment": "custom",
            "algebra_file": str(N2_ALGEBRA),
            "initial": str(form_path),
            "flow": {
                "flow_kind": "laplacian_flow",
                "integrator": {"method": "rk4", "dt": 0.01, "t_end": LAPLACIAN_T_END},
                "monitors": {"record_every": 1},
            },
            "perturbation": {"seed": seed, "magnitude": 0.0, "subspace": "full"},
            "output": {"format": "csv"},
        }
    elif name == "sweep_ee2":
        verb = "sweep"
        extra = ["--jobs", str(SWEEP_JOBS)]
        cfg = {
            "schema_version": 1,
            "experiment": "sweep",
            "algebra_file": "ee2",
            "flow": {"integrator": {"method": "rk4", "dt": 0.01, "t_end": 0.2}},
            "perturbation": {"seed": seed, "magnitude": 0.05},
            "sweep": {
                "experiment": "ee2_flow",
                # A <= 0.5: cells at A = 1 halt in Newton after several seconds.
                "axes": {
                    "flow.A": [0.0, 0.5],
                    "perturbation.seed": [4 * seed + i for i in range(4)],
                },
            },
        }
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    cfg_path = work / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return [verb, str(cfg_path)] + extra, cfg_path


def units_of_work(name, summary):
    """Denominator of the ``.per_unit`` metrics: integrator steps, samples or cells."""
    if name in ("coflow_ee2", "laplacian_n2"):
        return summary["termination"]["steps"]
    if name == "static_ee1":
        return summary["samples"]
    return summary["cells"]


# --------------------------------------------------------------------------
# Input checks (before timing) and oracles (after timing)
# --------------------------------------------------------------------------


def check_inputs(name, cfg_path):
    """The library's own checks on the workload's inputs; returns a list of
    problems (empty when the inputs are sound)."""
    from g2flow.errors import PositivityError
    from g2flow.experiments import check_fixture, config_from_dict, load_config
    from g2flow.fixtures import load_algebra, load_form
    from g2flow.g2core import G2Structure
    from g2flow.liealg import differential

    cfg, violations = config_from_dict(load_config(cfg_path))
    if violations:
        return [f"config: {v}" for v in violations]
    report = check_fixture(cfg.algebra_file)
    problems = []
    if not (report["ok"] and report.get("unimodular")):
        problems.append(f"algebra {cfg.algebra_file}: check_fixture failed: {report}")
    if name == "laplacian_n2":
        L = load_algebra(cfg.algebra_file)
        phi = load_form(cfg.initial)
        dphi = differential(L, phi).coeffs
        if any(float(c) != 0.0 for c in dphi):
            problems.append(f"initial 3-form is not closed: max |d phi| = {abs(dphi).max()}")
        try:
            G2Structure.from_phi(phi)
        except PositivityError as exc:
            problems.append(f"initial 3-form is not positive: {exc}")
    return problems


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _check_completed(summary, t_end, problems):
    term = summary["termination"]
    if term["status"] != "completed" or term["reason"] != "t_end":
        problems.append(f"run did not complete: {term}")
    if abs(summary["final_t"] - t_end) > 1e-9:
        problems.append(f"final t {summary['final_t']} != t_end {t_end}")


def oracle(name, payload, out_dir):
    """Check one run's stdout payload and files; returns a list of problems."""
    out_dir = Path(out_dir)
    if payload.get("status") != "ok":
        return [f"status {payload.get('status')!r}"]
    summary = payload["summary"]
    problems = []
    if name == "coflow_ee2":
        _check_coflow(summary, out_dir / "ee2_flow.jsonl", problems)
    elif name == "static_ee1":
        records = _read_jsonl(out_dir / "ee1_static.jsonl")
        samples = [r for r in records if r["record"] == "sample"]
        if not summary["passed"]:
            problems.append("summary.passed is false")
        if len(samples) != summary["samples"]:
            problems.append(f"{len(samples)} sample records for {summary['samples']} samples")
        worst = max(r["rhs_norm"] for r in samples)
        if worst > STATIC_RHS_TOL:
            problems.append(f"sample rhs norm {worst:.3e} > {STATIC_RHS_TOL:.0e}")
    elif name == "laplacian_n2":
        _check_laplacian(summary, out_dir / "custom.csv", problems)
    else:
        with open(out_dir / "sweep_out" / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        bad = [c["index"] for c in manifest["cells"] if c["status"] != "ok"]
        if len(manifest["cells"]) != 8 or bad:
            problems.append(f"{len(manifest['cells'])} cells, not ok: {bad}")
    return problems


def _check_coflow(summary, path, problems):
    """Completion, closedness of every record, and an independent recovery
    of every recorded psi: the residual must meet the Newton tolerance and
    the recorded volume and torsion trace must match the recovered structure."""
    import numpy as np

    from g2flow.conventions import NEWTON_TOL
    from g2flow.exterior import Form
    from g2flow.fixtures import load_algebra, standard_phi
    from g2flow.g2core import phi_of_psi, torsion_trace

    _check_completed(summary, COFLOW_T_END, problems)
    records = _read_jsonl(path)
    if len(records) != summary["termination"]["steps"] + 1:
        problems.append(f"{len(records)} records for {summary['termination']['steps']} steps")
    worst_closed = max(r["closedness"] for r in records)
    if worst_closed > CLOSEDNESS_TOL:
        problems.append(f"closedness {worst_closed:.3e} > {CLOSEDNESS_TOL:.0e}")
    L = load_algebra("ee2")
    seed = standard_phi()
    worst_res = 0.0
    for rec in records:
        psi = Form(4, np.asarray(rec["psi"]))
        s = phi_of_psi(psi, seed)
        seed = s.phi
        worst_res = max(worst_res, float(np.linalg.norm(s.psi.coeffs - psi.coeffs)))
        if abs(s.volume - rec["volume"]) > 1e-9 * s.volume:
            problems.append(f"t={rec['t']}: volume {rec['volume']} != recovered {s.volume}")
            break
        if abs(torsion_trace(L, s) - rec["trT"]) > 1e-9 * max(1.0, abs(rec["trT"])):
            problems.append(f"t={rec['t']}: trT {rec['trT']} disagrees with recovery")
            break
    if worst_res > NEWTON_TOL:
        problems.append(f"recovery residual {worst_res:.3e} > {NEWTON_TOL:.0e}")


def _check_laplacian(summary, path, problems):
    """Completion, exact closedness, and nondecreasing volume (the Laplacian
    flow of a closed G2-structure never shrinks the volume)."""
    import csv

    _check_completed(summary, LAPLACIAN_T_END, problems)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != summary["termination"]["steps"] + 1:
        problems.append(f"{len(rows)} rows for {summary['termination']['steps']} steps")
    closed = [float(r["closedness"]) for r in rows]
    if any(c != 0.0 for c in closed):
        problems.append(f"closedness is not exactly 0 (max {max(closed):.3e})")
    volume = [float(r["volume"]) for r in rows]
    drops = [i for i in range(1, len(volume)) if volume[i] < volume[i - 1]]
    if drops:
        problems.append(f"volume decreases at record {drops[0]}")
