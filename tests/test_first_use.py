"""A run pays only for what it uses: the exterior wedge tables are built on
first use, and a start that draws nothing makes no random generator."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from g2flow import config_from_dict, experiments, run_experiment

from .conftest import N2_ALGEBRA, closed_n2_phi

ROOT = Path(__file__).parents[1]
FIVE_RK4_STEPS = {"method": "rk4", "dt": 0.01, "t_end": 0.05}

# Runs the config file argv[1] through the CLI in a fresh interpreter, and
# prints whether ``import numpy`` alone loaded numpy.random, whether it was
# loaded after the run, and the wedge tables the process built: a table was
# built exactly when asking for it afterwards is a cache hit.
_PROBE = """
import contextlib, io, json, sys
import numpy
eager = "numpy.random" in sys.modules
from g2flow import cli, exterior
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", sys.argv[1], "--output-dir", sys.argv[2]])
random_loaded = "numpy.random" in sys.modules
built = []
for k in range(8):
    for l in range(8 - k):
        hits = exterior.wedge_table.cache_info().hits
        exterior.wedge_table(k, l)
        if exterior.wedge_table.cache_info().hits > hits:
            built.append([k, l])
print(json.dumps({"code": code, "eager": eager, "random": random_loaded, "built": built}))
"""


def _laplacian_n2(magnitude=0.0):
    """A custom Laplacian flow on n2 from a closed start: 5 rk4 steps."""
    start = closed_n2_phi(np.random.default_rng(4)).coeffs.tolist()
    return {"schema_version": 1, "experiment": "custom", "algebra_file": str(N2_ALGEBRA),
            "initial": start,
            "flow": {"flow_kind": "laplacian_flow", "integrator": FIVE_RK4_STEPS},
            "perturbation": {"seed": 2, "magnitude": magnitude}}


def _coflow_ee2(magnitude=0.05):
    """The modified coflow on ee2 from a drawn start: 5 rk4 steps."""
    return {"schema_version": 1, "experiment": "ee2_flow",
            "flow": {"integrator": FIVE_RK4_STEPS},
            "perturbation": {"seed": 3, "magnitude": magnitude}}


def _probe(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    return report


class TestWedgeTablesOnFirstUse:
    # d of degree k reads the table (2, k - 1); the torsion trace and B
    # read (4, 3).  The coflow takes d of 3- and 4-forms, the Laplacian
    # flow also of 2-forms (d of the 3-form's codifferential).
    @pytest.mark.parametrize("raw, tables", [
        (_coflow_ee2(), [[2, 2], [2, 3], [4, 3]]),
        (_laplacian_n2(), [[2, 1], [2, 2], [2, 3], [4, 3]]),
    ], ids=["coflow_ee2", "laplacian_n2"])
    def test_a_run_builds_only_the_tables_it_reads(self, tmp_path, raw, tables):
        assert _probe(tmp_path, raw)["built"] == tables


class TestNoGeneratorWithoutADraw:
    def test_an_undrawn_laplacian_run_leaves_numpy_random_unloaded(self, tmp_path):
        report = _probe(tmp_path, _laplacian_n2())
        if report["eager"]:
            pytest.skip("this numpy loads numpy.random on import")
        assert not report["random"]

    @staticmethod
    def _parent_flow_start(cfg, L, loaded):
        """``experiments._flow_start`` making its generator for every start."""
        degree = 4 if cfg.flow.flow_kind == "modified_coflow" else 3
        base = experiments._initial_form(cfg, degree, loaded)
        rng = np.random.default_rng(cfg.perturbation.seed)
        form, scale, halvings, _ = experiments.sample_initial(L, base, cfg.perturbation, rng)
        return experiments._FlowStart(base, scale, halvings, form)

    @pytest.mark.parametrize("raw", [
        _coflow_ee2(), _coflow_ee2(magnitude=0.0), _laplacian_n2(), _laplacian_n2(magnitude=0.2),
    ], ids=["coflow-drawn", "coflow-undrawn", "laplacian-undrawn", "laplacian-drawn"])
    def test_a_run_writes_what_a_run_with_a_generator_always_writes(
            self, tmp_path, monkeypatch, raw):
        cfg, violations = config_from_dict(raw)
        assert violations == []
        states = []  # the generator state each start is sampled with
        sample = experiments.sample_initial

        def sampling(L, base, pcfg, rng):
            states.append(None if rng is None else rng.bit_generator.state)
            return sample(L, base, pcfg, rng)

        monkeypatch.setattr(experiments, "sample_initial", sampling)
        lazy = run_experiment(cfg, output_dir=tmp_path / "lazy")
        monkeypatch.setattr(experiments, "_flow_start", self._parent_flow_start)
        always = run_experiment(cfg, output_dir=tmp_path / "always")
        assert lazy.status == always.status == "ok"
        assert lazy.summary == always.summary
        assert Path(lazy.files[0]).read_bytes() == Path(always.files[0]).read_bytes()
        seeded = np.random.default_rng(cfg.perturbation.seed).bit_generator.state
        drawn = cfg.perturbation.magnitude > 0
        assert states == [seeded if drawn else None, seeded]
