"""End-to-end tests of the command-line front end (in-process)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from g2flow.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from g2flow.fixtures import fixtures_dir

from .oracles import np_closed_form_oracle

ROOT = Path(__file__).resolve().parent.parent


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_main_builds_its_parser_once():
    from g2flow import cli

    assert cli._build_parser() is cli._build_parser()


class TestCheck:
    def test_default_bundle_passes(self, capsys):
        code, out, err = _run(capsys, ["check"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["ok"] is True
        assert [a["name"] for a in report["algebras"]] == ["torus", "ee1", "ee2"]
        assert all(a["ok"] and a["unimodular"] for a in report["algebras"])
        forms = {f["name"]: f for f in report["forms"]}
        assert forms["phi_standard"]["degree"] == 3
        assert forms["psi_standard"]["degree"] == 4

    def test_corrupted_fixture_fails(self, capsys):
        code, out, err = _run(capsys, ["check", "ee1_corrupted"])
        assert code == EXIT_CONFIG
        report = json.loads(out)
        assert report["ok"] is False
        assert report["algebras"][0]["jacobi_ok"] is False

    def test_explicit_path_accepted(self, capsys, tmp_path):
        src = fixtures_dir() / "ee2.json"
        dst = tmp_path / "my_algebra.json"
        shutil.copy(src, dst)
        code, out, _ = _run(capsys, ["check", str(dst)])
        assert code == EXIT_OK
        assert json.loads(out)["algebras"][0]["ok"] is True


def _algebra(term=None, entry=None):
    term = {"idx": [1, 7], "coef": 1.0} if term is None else term
    entry = {"one_form": 6, "terms": [term]} if entry is None else entry
    return {"dim": 7, "d": [entry]}


def _form(term=None, degree=4):
    term = {"idx": [4, 5, 6, 7], "coef": 1.0} if term is None else term
    return {"degree": degree, "terms": [term]}


# Fixture files whose JSON shape is wrong, by kind; each must end in a
# config error, never a traceback or a silently different structure.
MALFORMED_FIXTURES = {
    "algebra-null-coef": ("algebra", _algebra(term={"idx": [1, 7], "coef": None})),
    "algebra-scalar-idx": ("algebra", _algebra(term={"idx": 5, "coef": 1.0})),
    "algebra-float-index": ("algebra", _algebra(term={"idx": [1, 7.9], "coef": 1.0})),
    "algebra-list-entry": ("algebra", _algebra(entry=[6, [1, 7], 1.0])),
    "algebra-bool-generator": ("algebra", _algebra(entry={"one_form": True, "terms": []})),
    "algebra-list-file": ("algebra", [_algebra()]),
    "form-null-coef": ("form", _form(term={"idx": [4, 5, 6, 7], "coef": None})),
    "form-scalar-idx": ("form", _form(term={"idx": 5, "coef": 1.0})),
    "form-float-index": ("form", _form(term={"idx": [4, 5, 6, 7.5], "coef": 1.0})),
    "form-list-term": ("form", _form(term=[4, 5, 6, 7])),
    "form-null-degree": ("form", _form(degree=None)),
    "form-list-file": ("form", [_form()]),
}


class TestMalformedFixtures:
    @pytest.mark.parametrize(
        "kind, payload", MALFORMED_FIXTURES.values(), ids=MALFORMED_FIXTURES.keys()
    )
    def test_exit_config_from_run_and_check(self, capsys, tmp_path, monkeypatch, kind, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        cfg = {"schema_version": 1, "experiment": "custom", "algebra_file": "ee1",
               "initial": "psi_standard"}
        if kind == "algebra":
            cfg["algebra_file"] = str(bad)
            message = "config error: algebra_file: malformed algebra file ("
            check = ["check", str(bad)]
        else:
            cfg["initial"] = str(bad)
            message = "config error: initial: malformed form fixture ("
            check = ["check", "torus"]
        code, _, err = _run(capsys, ["run", _config(tmp_path, cfg), "--validate-only"])
        assert code == EXIT_CONFIG
        assert message in err
        if kind == "form":
            # check reads the reference forms from the fixture directory
            override = tmp_path / "fx"
            override.mkdir()
            for name in ("torus.json", "psi_standard.json"):
                shutil.copy(fixtures_dir() / name, override / name)
            shutil.copy(bad, override / "phi_standard.json")
            monkeypatch.setenv("G2FLOW_FIXTURES", str(override))
        code, out, _ = _run(capsys, check)
        assert code == EXIT_CONFIG
        assert json.loads(out)["ok"] is False


    @pytest.mark.parametrize("algebra", ["skew", "ee1_corrupted"])
    def test_a_non_unimodular_algebra_is_refused_before_the_run(self, capsys, tmp_path,
                                                                 algebra):
        # d e^7 = e^{17} passes Jacobi but is not unimodular; ee1_corrupted
        # is neither.  Both are refused by --validate-only, before any work.
        skew = {"dim": 7, "d": [{"one_form": 7, "terms": [{"idx": [1, 7], "coef": 1.0}]}]}
        cfg = {"schema_version": 1, "experiment": "custom", "initial": "psi_standard",
               "algebra_file": _config(tmp_path, skew, "skew.json") if algebra == "skew"
               else algebra}
        for extra in (["--validate-only"], ["--output-dir", str(tmp_path)]):
            code, out, err = _run(capsys, ["run", _config(tmp_path, cfg)] + extra)
            assert (code, out) == (EXIT_CONFIG, "")
            assert "config error: algebra_file: the algebra is not unimodular" in err

    @pytest.mark.parametrize("kind", ["algebra", "form"])
    def test_directory_named_like_a_fixture_is_unknown(self, capsys, tmp_path, kind):
        folder = tmp_path / "dir.json"
        folder.mkdir()
        cfg = {"schema_version": 1, "experiment": "custom", "algebra_file": "ee1",
               "initial": "psi_standard"}
        cfg["algebra_file" if kind == "algebra" else "initial"] = str(folder)
        code, out, err = _run(capsys, ["run", _config(tmp_path, cfg), "--validate-only"])
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"unknown {kind} fixture" in err
        if kind == "algebra":
            code, out, _ = _run(capsys, ["check", str(folder)])
            assert code == EXIT_CONFIG
            report = json.loads(out)
            assert report["ok"] is False
            assert "unknown algebra fixture" in report["algebras"][0]["error"]


class TestRunVerb:
    def test_minimal_static_experiment(self, capsys, tmp_path):
        cfg = _config(tmp_path, {"schema_version": 1, "experiment": "ee1_static", "samples": 3})
        code, out, err = _run(capsys, ["run", cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert err == ""
        payload = json.loads(out)
        assert payload["experiment"] == "ee1_static"
        assert payload["status"] == "ok"
        assert payload["summary"]["passed"] is True
        for f in payload["files"]:
            assert (tmp_path / f).exists() or f.startswith(str(tmp_path))

    def test_config_violations_go_to_stderr(self, capsys, tmp_path):
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "ee2_flow",
                "flow": {"integrator": {"dt": 0}},
                "output": {"format": "xml"},
            },
        )
        code, out, err = _run(capsys, ["run", cfg])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "config error: flow.integrator.dt must be > 0" in err
        assert "config error: output.format must be one of jsonl|csv, got 'xml'" in err

    def test_unknown_algebra_lists_known_names(self, capsys, tmp_path):
        cfg = _config(
            tmp_path,
            {"schema_version": 1, "experiment": "ee2_flow", "algebra_file": "heis"},
        )
        code, _, err = _run(capsys, ["run", cfg])
        assert code == EXIT_CONFIG
        assert "unknown algebra fixture 'heis'" in err
        for name in ("torus", "ee1", "ee2"):
            assert name in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["run", str(tmp_path / "absent.json")])
        assert code == EXIT_CONFIG
        assert "config file not found" in err

    def test_parse_error_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1\n "experiment": "np"}')
        code, _, err = _run(capsys, ["run", str(path)])
        assert code == EXIT_CONFIG
        assert "config parse error at line 2, column" in err

    def test_validate_only_echoes_defaults(self, capsys, tmp_path):
        cfg = _config(tmp_path, {"schema_version": 1, "experiment": "ee1_static"})
        code, out, _ = _run(capsys, ["run", cfg, "--validate-only"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] is True
        norm = payload["normalized"]
        assert norm["flow"]["integrator"]["dt"] == 0.001
        assert norm["flow"]["integrator"]["method"] == "rk4"
        assert norm["flow"]["A"] == 0.0
        assert norm["perturbation"]["magnitude"] == 0.25
        assert norm["samples"] == 100
        # Validation must not produce output files.
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_flow_run_writes_trajectory(self, capsys, tmp_path):
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "ee2_flow",
                "perturbation": {"magnitude": 0.2, "seed": 5},
                "flow": {"integrator": {"dt": 1e-3, "t_end": 0.01}},
            },
        )
        code, out, _ = _run(capsys, ["run", cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "ok"
        traj_file = tmp_path / "ee2_flow.jsonl"
        assert traj_file.exists()
        records = [json.loads(l) for l in traj_file.read_text().splitlines()]
        assert list(records[0].keys()) == [
            "t", "psi", "trT", "volume", "closedness", "rhs_norm", "dist_ref",
        ]
        assert len(records[0]["psi"]) == 35

    def test_empty_perturbation_subspace_runs_unperturbed(self, capsys, tmp_path):
        # The torus has no exact 4-forms: the perturbation has no direction.
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "ee2_flow",
                "algebra_file": "torus",
                "perturbation": {"magnitude": 0.1, "subspace": "exact"},
                "flow": {"integrator": {"dt": 1e-2, "t_end": 0.05}},
            },
        )
        code, out, err = _run(capsys, ["run", cfg, "--output-dir", str(tmp_path)])
        assert (code, err) == (EXIT_OK, "")
        summary = json.loads(out)["summary"]
        assert summary["perturbation_scale"] == 0.0
        assert summary["termination"]["reason"] == "t_end"

    def test_seed_changes_output_and_same_seed_reproduces(self, capsys, tmp_path):
        cfg = _config(
            tmp_path,
            {"schema_version": 1, "experiment": "ee1_static", "samples": 2},
        )
        blobs = {}
        for tag, seed in (("a", "1"), ("b", "1"), ("c", "2")):
            outdir = tmp_path / tag
            code, _, _ = _run(
                capsys, ["run", cfg, "--output-dir", str(outdir), "--seed", seed]
            )
            assert code == EXIT_OK
            blobs[tag] = (outdir / "ee1_static.jsonl").read_bytes()
        assert blobs["a"] == blobs["b"]  # identical config+seed: bitwise equal
        assert blobs["a"] != blobs["c"]  # different seed: different samples

    def test_format_override(self, capsys, tmp_path):
        cfg = _config(
            tmp_path, {"schema_version": 1, "experiment": "ee1_static", "samples": 2}
        )
        code, _, _ = _run(
            capsys,
            ["run", cfg, "--output-dir", str(tmp_path), "--format", "csv"],
        )
        assert code == EXIT_OK
        header = (tmp_path / "ee1_static.csv").read_text().splitlines()[0]
        assert header.startswith("record,index,rhs_norm")

    def test_negative_seed_exits_config(self, capsys, tmp_path):
        for payload, extra in (({"perturbation": {"seed": -1}}, []), ({}, ["--seed", "-1"])):
            cfg = _config(tmp_path, {"schema_version": 1, "experiment": "ee2_flow", **payload})
            code, _, err = _run(capsys, ["run", cfg, "--output-dir", str(tmp_path)] + extra)
            assert code == EXIT_CONFIG
            assert "config error: perturbation.seed must be >= 0" in err

    def test_non_finite_initial_exits_config(self, capsys, tmp_path):
        for bad in (float("nan"), float("inf"), float("-inf")):
            cfg = _config(
                tmp_path,
                {"schema_version": 1, "experiment": "ee2_flow", "initial": [bad] + [0.0] * 34},
            )
            code, _, err = _run(capsys, ["run", cfg, "--output-dir", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert "config error: initial must be a fixture name or a list of 35" in err

    def test_integer_beyond_float_range_exits_config(self, capsys, tmp_path):
        huge = 10**400  # valid JSON, but no float holds it
        cases = (
            ({"experiment": "ee2_flow", "flow": {"A": huge}}, "flow.A must be a number"),
            (
                {"experiment": "ee2_flow", "initial": [huge] + [0] * 34},
                "initial must be a fixture name or a list of 35 numbers",
            ),
            (
                {"experiment": "sweep", "sweep": {"experiment": "np", "axes": {"np.c0": [huge]}}},
                "sweep cell 0: np.c0 must be a number",
            ),
        )
        for payload, message in cases:
            cfg = _config(tmp_path, {"schema_version": 1, **payload})
            code, out, err = _run(capsys, ["run", cfg, "--validate-only"])
            assert code == EXIT_CONFIG
            assert out == ""
            assert err == f"config error: {message}\n"

    def test_output_path_that_is_a_directory_exits_config(self, capsys, tmp_path):
        (tmp_path / "taken").mkdir()
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "ee1_static",
                "samples": 1,
                "output": {"path": "taken"},
            },
        )
        code, out, err = _run(capsys, ["run", cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert "config error: output file " in err and "is a directory" in err

    def test_output_dir_that_is_a_file_exits_config(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        sweep = {"experiment": "np", "axes": {"np.c0": [1]}}
        for payload, verb in (
            ({"experiment": "ee1_static", "samples": 1}, "run"),
            ({"experiment": "sweep", "sweep": sweep}, "sweep"),
        ):
            cfg = _config(tmp_path, {"schema_version": 1, **payload})
            code, out, err = _run(capsys, [verb, cfg, "--output-dir", str(taken)])
            assert code == EXIT_CONFIG
            assert out == ""
            assert "config error: output directory " in err and "is not a directory" in err


# A step so large that the first stage overflows: (a) the Laplacian flow's
# B matrix goes non-finite, (b) the coflow's stage vector itself does.
OVERFLOWING_FLOWS = {
    "laplacian-n2": (
        {"algebra_file": "perfbench/n2.json", "initial": "phi_standard",
         "flow": {"flow_kind": "laplacian_flow"}},
        "positivity",
    ),
    "coflow-ee1": (
        {"algebra_file": "ee1", "initial": "psi_standard", "flow": {"A": 3.0}},
        "nonfinite",
    ),
}


def _overflowing_config(overrides, method):
    """A custom run of an OVERFLOWING_FLOWS case whose first step is 1.7e308."""
    cfg = {"schema_version": 1, "experiment": "custom",
           "perturbation": {"magnitude": 0.0}, "output": {"format": "jsonl"}}
    cfg.update(overrides)
    if cfg["algebra_file"].endswith(".json"):
        cfg["algebra_file"] = str(ROOT / cfg["algebra_file"])
    cfg["flow"] = dict(cfg["flow"], integrator={"method": method, "dt": 1.7e308,
                                                 "t_end": 1.7e308})
    return cfg


def _run_with_warnings_as_errors(argv):
    """The CLI in a subprocess with RuntimeWarnings as errors."""
    return _run_in_subprocess(argv, "error::RuntimeWarning")


def _run_in_subprocess(argv, warnings):
    """The CLI in a subprocess under the ``PYTHONWARNINGS`` filter
    ``warnings`` ("" for Python's default filters)."""
    env = dict(os.environ, PYTHONWARNINGS=warnings,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "g2flow.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=60)


class TestOverflowingStep:
    @pytest.mark.parametrize(
        "overrides, reason", OVERFLOWING_FLOWS.values(), ids=OVERFLOWING_FLOWS.keys()
    )
    def test_ends_in_a_halt_with_summary_and_record(self, capsys, tmp_path, overrides, reason):
        cfg = _overflowing_config(overrides, "rk4")
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = _run(capsys, ["run", _config(tmp_path, cfg),
                                           "--output-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        payload = json.loads(out)
        assert payload["status"] == "halted"
        term = payload["summary"]["termination"]
        assert (term["reason"], term["steps"], term["t"]) == (reason, 0, 0.0)
        assert payload["summary"]["records"] >= 1
        (path,) = payload["files"]
        records = [json.loads(line) for line in open(path)]
        assert len(records) == payload["summary"]["records"]
        assert records[0]["t"] == 0.0

    @pytest.mark.parametrize(
        "case, method",
        [(case, "rk4") for case in OVERFLOWING_FLOWS] + [("coflow-ee1", "rkf45")],
    )
    def test_halts_alike_with_warnings_as_errors(self, capsys, tmp_path, case, method):
        # The stage arithmetic (coflow-ee1) or the B of the first stage
        # (laplacian-n2) overflows.  Where RuntimeWarnings are errors that
        # raises, and the run must still end in the halt it reports with
        # the overflow silenced.
        cfg = _config(tmp_path, _overflowing_config(OVERFLOWING_FLOWS[case][0], method))
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = _run(capsys, ["run", cfg, "--output-dir", str(tmp_path / "quiet")])
        assert code == EXIT_NUMERICAL
        want = json.loads(out)["summary"]["termination"]
        assert want["reason"] == OVERFLOWING_FLOWS[case][1]
        proc = _run_with_warnings_as_errors(["run", cfg, "--output-dir", str(tmp_path / "loud")])
        assert (proc.returncode, proc.stderr) == (EXIT_NUMERICAL, "")
        assert json.loads(proc.stdout)["summary"]["termination"] == want

    def test_an_overflowing_recovery_halts_with_warnings_as_errors(self, tmp_path):
        # The first stage's dual 3-form has a finite B whose determinant
        # overflows.  No determinant is taken on the way to the halt but
        # the one for its message, under np.errstate, so a run with
        # RuntimeWarnings as errors halts as one with default warnings does.
        cfg = {"schema_version": 1, "experiment": "ee2_flow",
               "flow": {"A": 3, "integrator": {"method": "rk4", "dt": 1e150, "t_end": 1e160}},
               "perturbation": {"seed": 1, "magnitude": 0.2}}
        proc = _run_with_warnings_as_errors(
            ["run", _config(tmp_path, cfg), "--output-dir", str(tmp_path)]
        )
        assert (proc.returncode, proc.stderr) == (EXIT_NUMERICAL, "")
        term = json.loads(proc.stdout)["summary"]["termination"]
        assert (term["reason"], term["steps"]) == ("newton", 0)
        assert term["detail"] == ("4-form is not positive (its dual 3-form: 3-form is not "
                                  "positively oriented (det B = -inf))")


# Experiment inputs whose stacked states, or right-hand sides, overflow, and
# the halt each must end in, whatever the warning filters; the halt is all
# it prints.
HOSTILE_EXPERIMENTS = {
    "ee1_static-1e100": (
        {"schema_version": 1, "experiment": "ee1_static", "samples": 5,
         "perturbation": {"magnitude": 1e100}},
        "could not find a positive perturbation within 40 halvings of magnitude 1e+100",
    ),
    "ee1_static-1e300": (
        {"schema_version": 1, "experiment": "ee1_static", "samples": 5,
         "perturbation": {"magnitude": 1e300}},
        "could not find a positive perturbation within 40 halvings of magnitude 1e+300",
    ),
    "linearize-1e200": (
        {"schema_version": 1, "experiment": "linearize", "linearize": {"eps": 1e200}},
        "4-form is not positive (its dual 3-form: 3-form is not positively oriented "
        "(det B = -inf))",
    ),
    "linearize-1e308": (
        {"schema_version": 1, "experiment": "linearize", "linearize": {"eps": 1e308}},
        "4-form is not positive (its dual 3-form: 3-form is not positively oriented "
        "(det B = nan))",
    ),
    # A finite flow.A whose right-hand side overflows: 2 A phi is not finite.
    "ee1_static-A1e308": (
        {"schema_version": 1, "experiment": "ee1_static", "samples": 5, "flow": {"A": 1e308}},
        "the right-hand side left the finite range",
    ),
    "linearize-A1e308": (
        {"schema_version": 1, "experiment": "linearize", "flow": {"A": 1e308}},
        "the right-hand side left the finite range",
    ),
}


@pytest.mark.parametrize("warnings", ["", "error::RuntimeWarning"], ids=["default", "errors"])
@pytest.mark.parametrize(
    "cfg, message", HOSTILE_EXPERIMENTS.values(), ids=HOSTILE_EXPERIMENTS.keys()
)
def test_hostile_experiment_inputs_end_in_a_halt(tmp_path, cfg, message, warnings):
    # The recovery overflows on the rows of a stack and on forms alone.
    # Where RuntimeWarnings are errors that raises, and the run must still
    # end in the halt of default warnings; no kernel ever prints a warning.
    proc = _run_in_subprocess(
        ["run", _config(tmp_path, cfg), "--output-dir", str(tmp_path)], warnings
    )
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr == f"numerical halt: {message}\n"


def _flow_at(A, method="rk4"):
    return {"schema_version": 1, "experiment": "ee2_flow", "flow": {
        "A": A, "integrator": {"method": method, "dt": 0.01, "t_end": 0.1}}}


# Flow runs whose right-hand side at the start is not finite (A = 1e308) or
# has a norm that is not (A = 1e300), alone and as a sweep cell beside a
# good one.
HOSTILE_FLOWS = {
    "ee2_flow-A1e300": _flow_at(1e300),
    "ee2_flow-A1e308-rkf45": _flow_at(1e308, "rkf45"),
    "sweep-A": {**_flow_at(0.0), "experiment": "sweep",
                "sweep": {"experiment": "ee2_flow", "axes": {"flow.A": [0.0, 1e308]}}},
}


@pytest.mark.parametrize("warnings", ["", "error::RuntimeWarning"], ids=["default", "errors"])
@pytest.mark.parametrize("cfg", HOSTILE_FLOWS.values(), ids=HOSTILE_FLOWS.keys())
def test_a_start_whose_right_hand_side_overflows_halts_quietly(tmp_path, cfg, warnings):
    # The row halts nonfinite on its t = 0 record, whose rhs_norm is null;
    # no file holds a value that is not JSON, and a good cell of the same
    # sweep is written as its run alone writes it.
    proc = _run_in_subprocess(
        ["run", _config(tmp_path, cfg), "--output-dir", str(tmp_path / "out")], warnings
    )
    assert (proc.returncode, proc.stderr) == (EXIT_NUMERICAL, "")
    files = sorted((tmp_path / "out").rglob("*.jsonl"))
    for path in files:
        assert "Infinity" not in path.read_text() and "NaN" not in path.read_text()
    records = [json.loads(line) for line in files[-1].read_text().splitlines()]
    assert len(records) == 1 and records[0]["t"] == 0.0 and records[0]["rhs_norm"] is None
    summary = json.loads(proc.stdout)["summary"]
    if cfg["experiment"] == "sweep":
        manifest = json.loads(Path(summary["manifest"]).read_text())
        assert [c["status"] for c in manifest["cells"]] == ["ok", "halted"]
        summary = manifest["cells"][1]["summary"]
        alone = _run_in_subprocess(
            ["run", _config(tmp_path, _flow_at(0.0), "good.json"),
             "--output-dir", str(tmp_path / "good")], warnings)
        assert alone.returncode == EXIT_OK
        assert files[0].read_bytes() == (tmp_path / "good" / "ee2_flow.jsonl").read_bytes()
    term = summary["termination"]
    assert (term["reason"], term["t"], term["steps"]) == ("nonfinite", 0.0, 0)
    assert term["detail"] == "the right-hand side left the finite range"


# An rk4 step of 1e-300 over a horizon of 1: about 1e300 steps, were the
# step not floored as rkf45's is.
TINY_RK4_STEP = {"schema_version": 1, "experiment": "ee2_flow",
                 "flow": {"integrator": {"method": "rk4", "dt": 1e-300, "t_end": 1.0}}}


def test_a_tiny_rk4_step_halts_at_the_start(tmp_path):
    # In a subprocess, whose timeout fails the test where the run would hang.
    proc = _run_with_warnings_as_errors(
        ["run", _config(tmp_path, TINY_RK4_STEP), "--output-dir", str(tmp_path)]
    )
    assert (proc.returncode, proc.stderr) == (EXIT_NUMERICAL, "")
    term = json.loads(proc.stdout)["summary"]["termination"]
    assert (term["reason"], term["t"], term["steps"]) == ("step_underflow", 0.0, 0)
    assert term["detail"] == "step size fell to 1.000e-300"


class TestNpVerb:
    def test_worked_example(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys,
            [
                "np", "--tau0", "1.0", "--t-end", "0.5", "--dt", "1e-3",
                "--output-dir", str(tmp_path),
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["summary"]["c_final"] == pytest.approx(0.140625, rel=1e-9)
        csv_path = tmp_path / "np.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,c,vol,rhs"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(np_closed_form_oracle(0.5, 1.0), rel=1e-9)

    def test_blow_down_exits_numerical(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys,
            ["np", "--tau0", "1.0", "--t-end", "2.0", "--output-dir", str(tmp_path)],
        )
        assert code == EXIT_NUMERICAL
        payload = json.loads(out)
        assert payload["status"] == "halted"
        assert payload["summary"]["blow_down_time"] == pytest.approx(0.8, abs=2e-3)

    def test_invalid_parameters_exit_config(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, ["np", "--tau0", "nan", "--output-dir", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "config error: np.tau0 must be finite" in err

    def test_jsonl_format(self, capsys, tmp_path):
        code, _, _ = _run(
            capsys,
            [
                "np", "--tau0", "0.5", "--t-end", "0.1", "--dt", "1e-2",
                "--output-dir", str(tmp_path), "--format", "jsonl",
            ],
        )
        assert code == EXIT_OK
        records = [
            json.loads(l) for l in (tmp_path / "np.jsonl").read_text().splitlines()
        ]
        assert list(records[0].keys()) == ["t", "c", "vol", "rhs"]
        assert len(records) == 11


class TestSweepVerb:
    def test_verb_requires_sweep_experiment(self, capsys, tmp_path):
        cfg = _config(tmp_path, {"schema_version": 1, "experiment": "np"})
        code, _, err = _run(capsys, ["sweep", cfg])
        assert code == EXIT_CONFIG
        assert "config error: the 'sweep' verb needs experiment = 'sweep', got 'np'" in err

    def test_parallel_sweep_writes_manifest(self, capsys, tmp_path):
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "sweep",
                "flow": {"integrator": {"t_end": 0.5, "dt": 1e-3}},
                "sweep": {
                    "experiment": "np",
                    "axes": {"np.tau0": [0.5, 1.0], "np.c0": [1.0, 2.0]},
                },
            },
        )
        code, out, _ = _run(
            capsys, ["sweep", cfg, "--output-dir", str(tmp_path), "--jobs", "2"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"]["cells"] == 4
        assert payload["summary"]["halted_cells"] == 0
        manifest = json.loads((tmp_path / "sweep_out" / "manifest.json").read_text())
        assert [c["overrides"] for c in manifest["cells"]] == [
            {"np.c0": 1.0, "np.tau0": 0.5},
            {"np.c0": 1.0, "np.tau0": 1.0},
            {"np.c0": 2.0, "np.tau0": 0.5},
            {"np.c0": 2.0, "np.tau0": 1.0},
        ]
        for i in range(4):
            assert (tmp_path / "sweep_out" / f"cell_{i:03d}.jsonl").exists()

    def test_cells_inherit_the_swept_experiments_defaults(self, capsys, tmp_path):
        # No algebra_file: the ee2_flow cells take ee2, its default.
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "sweep",
                "flow": {"integrator": {"t_end": 0.02, "dt": 1e-2}},
                "sweep": {"experiment": "ee2_flow", "axes": {"flow.A": [0.0, 0.5]}},
            },
        )
        code, out, err = _run(capsys, ["sweep", cfg, "--output-dir", str(tmp_path)])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["summary"]["cells"] == 2
        code, out, _ = _run(capsys, ["sweep", cfg, "--validate-only"])
        assert code == EXIT_OK
        assert json.loads(out)["normalized"]["algebra_file"] == "ee2"

    def test_sweep_is_deterministic_across_job_counts(self, capsys, tmp_path):
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "sweep",
                "flow": {"integrator": {"t_end": 0.2, "dt": 1e-3}},
                "sweep": {"experiment": "np", "axes": {"np.tau0": [0.5, 0.7, 0.9]}},
            },
        )
        blobs = {}
        for tag, jobs in (("serial", "1"), ("parallel", "3")):
            outdir = tmp_path / tag
            code, _, _ = _run(
                capsys, ["sweep", cfg, "--output-dir", str(outdir), "--jobs", jobs]
            )
            assert code == EXIT_OK
            blobs[tag] = [
                (outdir / "sweep_out" / f"cell_{i:03d}.jsonl").read_bytes() for i in range(3)
            ]
        assert blobs["serial"] == blobs["parallel"]

    def test_ee2_flow_sweep_is_deterministic_across_job_counts(self, capsys, tmp_path):
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "sweep",
                "algebra_file": "ee2",
                "flow": {"integrator": {"t_end": 0.1, "dt": 0.01}},
                "perturbation": {"magnitude": 0.05},
                "sweep": {
                    "experiment": "ee2_flow",
                    "axes": {"flow.A": [0.0, 0.5], "perturbation.seed": [0, 1]},
                },
            },
        )
        blobs = {}
        for tag, jobs in (("serial", "1"), ("parallel", "3")):
            outdir = tmp_path / tag
            code, out, _ = _run(
                capsys, ["sweep", cfg, "--output-dir", str(outdir), "--jobs", jobs]
            )
            assert code == EXIT_OK
            assert json.loads(out)["summary"]["lockstep_groups"] == [[0, 1, 2, 3]]
            blobs[tag] = [
                (outdir / "sweep_out" / name).read_bytes()
                for name in ("manifest.json", *(f"cell_{i:03d}.jsonl" for i in range(4)))
            ]
        manifest = json.loads(blobs["serial"][0])
        assert [c["status"] for c in manifest["cells"]] == ["ok"] * 4
        # The manifest names the cell files under each run's own directory.
        blobs["serial"][0] = blobs["serial"][0].replace(b"serial", b"parallel")
        assert blobs["serial"] == blobs["parallel"]

    def test_sweep_that_fails_to_sample_a_start_halts_as_its_cell_does(self, capsys, tmp_path):
        # The second cell's start is not positive: the zero form, or no
        # perturbation of magnitude 1e300 within 40 halvings.  That cell
        # halts in the manifest with the message its run alone prints; the
        # first cell is written as its run alone writes it, and the sweep
        # exits as a halt does.
        from g2flow import standard_psi

        for axis, values in (
            ("initial", [list(standard_psi().coeffs), [0.0] * 35]),
            ("perturbation.magnitude", [0.05, 1e300]),
        ):
            sweep = {
                "schema_version": 1,
                "experiment": "sweep",
                "algebra_file": "ee2",
                "flow": {"integrator": {"t_end": 0.1, "dt": 0.05}},
                "sweep": {"experiment": "ee2_flow", "axes": {axis: values}},
            }
            out_dir = tmp_path / axis
            code, out, err = _run(
                capsys, ["sweep", _config(tmp_path, sweep), "--output-dir", str(out_dir / "s")]
            )
            assert (code, err) == (EXIT_NUMERICAL, "")
            assert sorted(p.name for p in (out_dir / "s" / "sweep_out").iterdir()) == [
                "cell_000.jsonl", "manifest.json"
            ]
            manifest = json.loads((out_dir / "s" / "sweep_out" / "manifest.json").read_text())
            assert json.loads(out)["summary"]["halted_cells"] == 1
            alone = []
            for i, value in enumerate(values):
                cell = {**sweep, "experiment": "ee2_flow"}
                del cell["sweep"]
                if axis == "initial":
                    cell["initial"] = value
                else:
                    cell["perturbation"] = {"magnitude": value}
                alone.append(_run(capsys, ["run", _config(tmp_path, cell, "cell.json"),
                                           "--output-dir", str(out_dir / str(i))]))
            good, bad = manifest["cells"]
            assert alone[0][0] == EXIT_OK and good["status"] == "ok"
            assert good["summary"] == json.loads(alone[0][1])["summary"]
            assert (out_dir / "s" / "sweep_out" / "cell_000.jsonl").read_bytes() == (
                out_dir / "0" / "ee2_flow.jsonl"
            ).read_bytes()
            code, out, err = alone[1]
            assert (code, out) == (EXIT_NUMERICAL, "") and err.startswith("numerical halt: ")
            assert bad == {"index": 1, "overrides": {axis: values[1]}, "path": None,
                           "status": "halted", "summary": {"error": err[16:-1]}}

    def test_sweep_whose_runner_halts_keeps_its_other_cells(self, capsys, tmp_path):
        # An ee1_static cell whose right-hand side overflows halts alone.
        sweep = {"schema_version": 1, "experiment": "sweep", "samples": 3,
                 "sweep": {"experiment": "ee1_static", "axes": {"flow.A": [0.0, 1e308]}}}
        code, out, err = _run(
            capsys, ["sweep", _config(tmp_path, sweep), "--output-dir", str(tmp_path)]
        )
        assert (code, err) == (EXIT_NUMERICAL, "")
        cells = json.loads(Path(json.loads(out)["summary"]["manifest"]).read_text())["cells"]
        assert [c["status"] for c in cells] == ["ok", "halted"]
        assert cells[0]["summary"]["passed"] is True
        assert cells[1]["summary"] == {"error": "the right-hand side left the finite range"}


class TestLinearizeVerb:
    def test_verb_requires_linearize_experiment(self, capsys, tmp_path):
        cfg = _config(tmp_path, {"schema_version": 1, "experiment": "np"})
        code, _, err = _run(capsys, ["linearize", cfg])
        assert code == EXIT_CONFIG
        assert "needs experiment = 'linearize'" in err

    def test_linearize_report(self, capsys, tmp_path):
        cfg = _config(tmp_path, {"schema_version": 1, "experiment": "linearize"})
        code, out, _ = _run(
            capsys, ["linearize", cfg, "--output-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "linearize.json").read_text())
        assert report["n_directions"] == 31
        assert max(abs(v) for row in report["matrix"] for v in row) <= 1e-6
        assert report["asymmetry_norm"] <= 1e-6

    def test_non_static_base_exits_numerical(self, capsys, tmp_path):
        # A valid config whose base point is not static must exit 3, not 2.
        cfg = _config(
            tmp_path,
            {
                "schema_version": 1,
                "experiment": "linearize",
                "algebra_file": "ee2",
                "flow": {"A": 1.0},
            },
        )
        code, _, err = _run(capsys, ["linearize", cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert "numerical halt:" in err
        assert "not static" in err


class TestClosedBase:
    @pytest.mark.parametrize(
        "verb, experiment", [("run", "ee1_static"), ("linearize", "linearize")]
    )
    def test_base_that_is_not_closed_exits_numerical(self, capsys, tmp_path, verb, experiment):
        # The coflow right-hand side is an exact form, which equals the flow
        # only on a closed 4-form: any other base halts, naming closedness.
        from g2flow import standard_psi

        psi = standard_psi().coeffs + 1e-3 * np.arange(35)
        payload = {"schema_version": 1, "experiment": experiment, "initial": psi.tolist()}
        cfg = _config(tmp_path, payload)
        code, _, err = _run(capsys, [verb, cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert err.startswith("numerical halt: closedness: the initial 4-form is not closed")
        assert not list(tmp_path.glob(f"{experiment}.*"))


class TestFixtureOverride:
    def test_env_var_redirects_fixture_lookup(self, capsys, tmp_path, monkeypatch):
        override = tmp_path / "fx"
        override.mkdir()
        # The override directory must carry every fixture the verb touches:
        # the checked algebra plus the two reference forms.
        for name in ("torus.json", "phi_standard.json", "psi_standard.json"):
            shutil.copy(fixtures_dir() / name, override / name)
        monkeypatch.setenv("G2FLOW_FIXTURES", str(override))
        code, out, _ = _run(capsys, ["check", "torus"])
        assert code == EXIT_OK
        code, out, _ = _run(capsys, ["check", "ee1"])
        assert code == EXIT_CONFIG
        report = json.loads(out)
        entry = report["algebras"][0]
        assert entry["ok"] is False
        assert str(override) in entry["error"]  # names the searched directory
