"""Golden tests of the config schema: violations, echoes and sweep cells.

Each case's outcome (violation list, fully-defaulted echo, and for valid
sweeps the expanded cells) is compared with ``tests/golden_config.json``
through ``json.dumps`` without ``sort_keys``, so the order of violations
and of echo keys is pinned too.  After a deliberate change of a message,
regenerate the file with ``PYTHONPATH=src python -m tests.test_config_golden``
and review the diff.  The README's block of config defaults is checked
against the live echo, and its library quickstart is run as written.
"""

import json
import re
from pathlib import Path

import pytest

from g2flow import config_from_dict
from g2flow.experiments import expand_sweep
from g2flow.fixtures import fixtures_dir

GOLDEN = Path(__file__).with_name("golden_config.json")
README = Path(__file__).parents[1] / "README.md"

_INF = float("inf")


def _cfg(experiment, **extra):
    return {"schema_version": 1, "experiment": experiment, **extra}


CASES = {
    # The minimal config of every experiment.
    **{
        f"minimal_{name}": _cfg(name)
        for name in ("ee1_static", "ee2_family", "ee2_flow", "np", "sweep", "linearize", "custom")
    },
    # An unknown field, a wrong type and a forbidden null in every section.
    "error_at_every_level": _cfg(
        "ee1_static",
        bogus=1,
        algebra_file=None,
        samples="many",
        initial=7,
        flow={
            "bogus": 1,
            "flow_kind": 3,
            "A": None,
            "deturck": {"bogus": 1, "enabled": "yes", "c1": None, "c2": True},
            "integrator": {"bogus": 1, "method": None, "dt": "fast", "t_end": -1.0},
            "monitors": {"bogus": 1, "record_every": 2.5, "trT": None, "volume": 1},
            "halt": {"bogus": 1, "closedness_tol": None, "max_rhs_norm": "big"},
        },
        perturbation={"bogus": 1, "magnitude": None, "seed": 1.5, "subspace": 4},
        np={"bogus": 1, "tau0": None, "c0": "one", "vol0": False},
        linearize={"bogus": 1, "eps": None, "static_tol": True},
        sweep={"bogus": 1, "experiment": None, "axes": None},
        output={"bogus": 1, "path": 3, "format": None},
    ),
    "config_is_null": None,
    "config_is_a_list": [],
    "config_is_a_string": "ee1_static",
    "sections_not_objects": _cfg(
        "ee2_flow", flow=5, perturbation=[], np="x", linearize=True, sweep=1.0, output="o"
    ),
    "nested_sections_not_objects": _cfg(
        "ee2_flow", flow={"deturck": 1, "integrator": [], "monitors": "m", "halt": 2}
    ),
    "null_sections_take_defaults": _cfg(
        "ee2_flow", flow=None, perturbation=None, np=None, linearize=None, sweep=None, output=None
    ),
    "null_nested_sections_take_defaults": _cfg(
        "ee2_flow", flow={"deturck": None, "integrator": None, "monitors": None, "halt": None}
    ),
    "top_level_order": {"zzz": 1, "aaa": 2},
    "unsupported_schema_version": {"schema_version": 2, "experiment": "np", "extra": 1},
    "experiment_not_a_string": {"schema_version": 1, "experiment": 5},
    "experiment_null": {"schema_version": 1, "experiment": None},
    "experiment_unknown": _cfg("warp_drive", flow={"A": "x"}),
    # Valid nulls and int-to-float promotion.
    "valid_nulls": _cfg(
        "ee2_flow",
        samples=None,
        initial=None,
        flow={"halt": {"max_rhs_norm": None}},
        output={"path": None},
    ),
    "np_null_algebra_file": _cfg("np", algebra_file=None, np={"tau0": 2, "c0": 3}),
    "ints_become_floats": _cfg(
        "ee2_flow",
        flow={"A": 1, "integrator": {"dt": 1, "t_end": 2}, "halt": {"max_rhs_norm": 5}},
        perturbation={"magnitude": 0},
    ),
    "inline_initial": _cfg("ee2_flow", initial=[0] * 34 + [1.5]),
    "inline_initial_wrong_length": _cfg("ee2_flow", initial=[1.0, 2.0]),
    "inline_initial_with_bool": _cfg("ee2_flow", initial=[True] + [0.0] * 34),
    "inline_initial_non_finite": _cfg("ee2_flow", initial=[float("nan")] + [0.0] * 34),
    "inline_initial_infinite": _cfg("ee2_flow", initial=[_INF] + [0.0] * 34),
    "negative_seed": _cfg("ee2_flow", perturbation={"seed": -1}),
    "bools_are_not_numbers": _cfg("ee2_flow", samples=True, flow={"A": False}),
    # Integer literals beyond the float range.
    "huge_integers": _cfg(
        "ee2_flow",
        initial=[10**400] + [0] * 34,
        flow={"A": 10**400, "integrator": {"dt": -(10**400)}},
    ),
    # Range and cross-field checks.
    "range_errors": _cfg(
        "ee2_flow",
        samples=0,
        flow={
            "flow_kind": "ricci",
            "A": _INF,
            "deturck": {"c1": _INF, "c2": -_INF},
            "integrator": {"method": "euler", "dt": -1.0, "t_end": 0.0, "rel_tol": 0.0},
            "monitors": {"record_every": 0},
            "halt": {"closedness_tol": 0.0, "max_rhs_norm": 0.0},
        },
        perturbation={"magnitude": -0.1, "subspace": "sideways"},
        output={"format": "xml"},
    ),
    "np_range_errors": _cfg("np", np={"tau0": _INF, "c0": -1.0, "vol0": 0.0}),
    "linearize_range_errors": _cfg("linearize", linearize={"eps": 0.0, "static_tol": -1.0}),
    "family_needs_plain_flow": _cfg("ee2_family", flow={"A": 0.5}),
    "unknown_algebra": _cfg("ee2_flow", algebra_file="heis7"),
    "unknown_initial_fixture": _cfg("ee2_flow", initial="no_such_form"),
    "initial_degree_mismatch": _cfg("ee2_flow", initial="phi_standard"),
    "laplacian_draws_closed_3_forms": _cfg(
        "custom",
        algebra_file="ee1",
        flow={"flow_kind": "laplacian_flow"},
        perturbation={"magnitude": 0.1},
    ),
    "linearize_needs_coflow": _cfg("linearize", flow={"flow_kind": "laplacian_flow"}),
    "static_needs_coflow": _cfg(
        "ee1_static",
        flow={"flow_kind": "laplacian_flow"},
        perturbation={"magnitude": 0.1, "subspace": "full"},
    ),
    "static_phi_needs_coflow": _cfg(
        "ee1_static",
        initial="phi_standard",
        flow={"flow_kind": "laplacian_flow"},
        perturbation={"magnitude": 0.0},
    ),
    "family_needs_coflow": _cfg("ee2_family", flow={"flow_kind": "laplacian_flow"}),
    # Both right-hand sides hold on closed forms only: drawn or probed
    # directions stay in a closed subspace.
    "coflow_draws_need_closed_subspace": _cfg(
        "ee2_flow", perturbation={"magnitude": 0.1, "subspace": "full"}
    ),
    "laplacian_draws_need_closed_subspace": _cfg(
        "custom",
        algebra_file="ee1",
        flow={"flow_kind": "laplacian_flow"},
        perturbation={"magnitude": 0.1, "subspace": "full"},
    ),
    "linearize_needs_closed_subspace": _cfg("linearize", perturbation={"subspace": "full"}),
    "static_full_subspace_draws_nothing": _cfg(
        "ee1_static", perturbation={"magnitude": 0.0, "subspace": "full"}
    ),
    # Sweeps.
    "sweep_ee2_flow": _cfg(
        "sweep",
        algebra_file="ee2",
        flow={"integrator": {"dt": 0.01, "t_end": 0.2}},
        perturbation={"magnitude": 0.05},
        output={"path": "runs", "format": "csv"},
        sweep={
            "experiment": "ee2_flow",
            "axes": {"perturbation.seed": [1, 2], "flow.A": [0.0, 0.5]},
        },
    ),
    "sweep_np": _cfg(
        "sweep", sweep={"experiment": "np", "axes": {"np.tau0": [0.5, 1], "np.c0": [2.0]}}
    ),
    # A sweep takes the defaults of the experiment it sweeps.
    "sweep_inherits_null_algebra_file": _cfg(
        "sweep", sweep={"experiment": "ee1_static", "axes": {"perturbation.seed": [0]}}
    ),
    "sweep_ee2_flow_inherits_algebra_file": _cfg(
        "sweep", sweep={"experiment": "ee2_flow", "axes": {"flow.A": [0.0, 0.5]}}
    ),
    "sweep_invalid_cell": _cfg(
        "sweep", sweep={"experiment": "np", "axes": {"np.tau0": [0.5, -_INF, "x"]}}
    ),
    "sweep_huge_integer_cell": _cfg(
        "sweep", sweep={"experiment": "np", "axes": {"np.tau0": [1, 10**400]}}
    ),
    "sweep_reserved_root": _cfg(
        "sweep", sweep={"experiment": "np", "axes": {"output.format": ["csv"]}}
    ),
    "sweep_axis_into_leaf": _cfg(
        "sweep", sweep={"experiment": "np", "axes": {"np.tau0.x": [1.0]}}
    ),
    "sweep_bad_axes": _cfg(
        "sweep", sweep={"experiment": "sweep", "axes": {"": [1.0], "np.c0": [], "np.tau0": 2}}
    ),
    "sweep_axes_not_object": _cfg("sweep", sweep={"experiment": "np", "axes": [1]}),
    "sweep_too_many_cells": _cfg(
        "sweep", sweep={"experiment": "np", "axes": {"np.tau0": list(range(1, 1002))}}
    ),
}


def outcome(raw):
    """Violations, echo and (for a valid sweep) the expanded cells of a config.

    The fixture directory named by lookup errors reads ``<fixtures>``.
    """
    cfg, violations = config_from_dict(raw)
    violations = [v.replace(str(fixtures_dir()), "<fixtures>") for v in violations]
    out = {"violations": violations, "echo": None if cfg is None else cfg.to_dict()}
    if cfg is not None and cfg.experiment == "sweep":
        out["cells"] = [[overrides, cell.to_dict()] for overrides, cell in expand_sweep(cfg)]
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_config_outcome_matches_golden(golden, name):
    assert json.dumps(outcome(CASES[name])) == json.dumps(golden[name])


def test_readme_defaults_match_live_echo():
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"Main sections with their defaults[^\n]*\n\n```json\n(.*?)\n```", text, re.S
    )
    assert match, "README lost its block of config defaults"
    documented = json.loads(match.group(1))
    cfg, violations = config_from_dict(_cfg("ee1_static"))
    assert violations == []
    assert json.dumps(documented) == json.dumps(cfg.to_dict())



def test_readme_library_quickstart_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Quickstart \(library\)\n\n```python\n(.*?)\n```", text, re.S)
    assert match, "README lost its library quickstart"
    exec(compile(match.group(1), "README.md quickstart", "exec"), {})
    static_norm, completed = capsys.readouterr().out.splitlines()
    assert float(static_norm) <= 1e-10
    assert completed == "completed 1.0"

if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: outcome(raw) for name, raw in CASES.items()}, indent=1) + "\n",
        encoding="utf-8",
    )
