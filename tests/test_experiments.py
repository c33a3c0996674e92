"""Tests for the experiment config schema, sweep expansion, and drivers."""

import dataclasses
import json
import math
import typing
from pathlib import Path

import numpy as np
import pytest

from g2flow import (
    ConfigError,
    coflow_rhs,
    config_from_dict,
    family_coefficient_law,
    family_monomial_pattern,
    family_stretch_factors,
    FlowConfig,
    G2FlowError,
    G2Structure,
    load_algebra,
    run_experiment,
    validate_config,
)
from g2flow.conventions import NEWTON_MAX_ITER, NEWTON_TOL
from g2flow.g2core import _phi_of_psi
from g2flow.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    PerturbationConfig,
    _E1357,
    check_fixture,
    expand_sweep,
    sample_initial,
)
from g2flow.fixtures import ee2_diagonal_phi

from .conftest import N2_ALGEBRA, closed_n2_phi
from .oracles import (
    FAMILY_LINES,
    STATIC_FAMILY_MEMBER,
    coframe_pattern_oracle,
    family_coefficient_oracle,
    family_lambda_oracle,
)


# d e^7 = e^{17}: a Lie algebra (d^2 = 0) that is not unimodular.
NON_UNIMODULAR_ALGEBRA = {"dim": 7, "d": [{"one_form": 7, "terms": [{"idx": [1, 7], "coef": 1.0}]}]}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _minimal(experiment="ee1_static", **extra):
    raw = {"schema_version": 1, "experiment": experiment}
    raw.update(extra)
    return raw


class TestFamilyHelpers:
    def test_stretch_factors_match_oracle(self, rng):
        for _ in range(5):
            c = rng.uniform(0.5, 2.0, size=7)
            lam = family_stretch_factors(c)
            assert np.allclose(lam, family_lambda_oracle(c), rtol=1e-12)
            # Defining property: the product over each index triple is c^2.
            for line, cl in zip(FAMILY_LINES, c):
                prod = np.prod([lam[i - 1] for i in line])
                assert prod == pytest.approx(cl**2, rel=1e-12)

    def test_unit_point_maps_to_unit_stretches(self):
        assert np.allclose(family_stretch_factors(np.ones(7)), np.ones(7), atol=1e-14)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(G2FlowError, match="7 positive reals"):
            family_stretch_factors(np.ones(6))
        with pytest.raises(G2FlowError, match="7 positive reals"):
            family_stretch_factors([1, 1, -1, 1, 1, 1, 1])

    def test_law_and_pattern_match_oracles(self, rng):
        # The oracle composes the stretch solve internally, the library law
        # takes the stretch factors directly.
        for _ in range(5):
            x = rng.uniform(0.5, 2.0, size=7)
            assert family_coefficient_law(family_stretch_factors(x)) == pytest.approx(
                family_coefficient_oracle(x), rel=1e-12
            )
            assert family_monomial_pattern(x) == pytest.approx(
                coframe_pattern_oracle(x), rel=1e-13
            )

    def test_pattern_is_coframe_component_of_law(self, rng):
        # Dividing the leading coefficient by the coframe volume
        # factor l1 l3 l5 l7 turns the law into the monomial pattern.
        for _ in range(5):
            lam = rng.uniform(0.5, 2.0, size=7)
            coframe = family_coefficient_law(lam) / (lam[0] * lam[2] * lam[4] * lam[6])
            assert coframe == pytest.approx(family_monomial_pattern(lam), rel=1e-12)

    def test_pattern_on_coefficients_agrees_only_at_unit_point(self):
        # Evaluating the monomial pattern directly on the family
        # coefficients (instead of the stretch factors) gives a different
        # function; the two agree at the unit point, where both equal 2.
        ones = np.ones(7)
        assert family_coefficient_law(family_stretch_factors(ones)) == pytest.approx(2.0)
        assert family_monomial_pattern(ones) == pytest.approx(2.0)
        c = np.array([1.3, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        law = family_coefficient_law(family_stretch_factors(c))
        direct = family_monomial_pattern(c)
        assert abs(law - direct) > 1e-2

    def test_law_predicts_leading_rhs_coefficient(self, ee2, rng):
        # On a diagonal family member the plain coflow right-hand
        # side is supported on the single top multi-index, with coefficient
        # given by the monomial law in the stretch factors.
        for _ in range(3):
            c = rng.uniform(0.5, 2.0, size=7)
            state = G2Structure.from_phi(ee2_diagonal_phi(c))
            rhs = coflow_rhs(ee2, state, 0.0).coeffs
            law = family_coefficient_law(family_stretch_factors(c))
            assert rhs[_E1357] == pytest.approx(law, rel=1e-10)
            rest = np.delete(rhs, _E1357)
            assert np.max(np.abs(rest)) <= 1e-10 * max(1.0, abs(law))

    def test_static_member_annihilates_law_and_rhs(self, ee2):
        c = np.asarray(STATIC_FAMILY_MEMBER)
        assert abs(family_coefficient_law(family_stretch_factors(c))) <= 1e-12
        state = G2Structure.from_phi(ee2_diagonal_phi(c))
        assert np.linalg.norm(coflow_rhs(ee2, state, 0.0).coeffs) <= 1e-12


class TestConfigFromDict:
    def test_minimal_config_gets_defaults(self):
        cfg, violations = config_from_dict(_minimal())
        assert violations == []
        echo = cfg.to_dict()
        assert echo["experiment"] == "ee1_static"
        assert echo["algebra_file"] == "ee1"
        assert echo["samples"] == 100
        assert echo["perturbation"]["magnitude"] == 0.25
        assert echo["perturbation"]["subspace"] == "coclosed"
        assert echo["flow"]["integrator"]["dt"] == 0.001
        assert echo["flow"]["integrator"]["method"] == "rk4"
        assert echo["flow"]["A"] == 0.0
        assert echo["output"]["format"] == "jsonl"
        assert echo["schema_version"] == 1

    def test_missing_schema_version(self):
        cfg, violations = config_from_dict({"experiment": "np"})
        assert cfg is None
        assert "schema_version is required (current version 1)" in violations

    def test_unsupported_schema_version(self):
        _, violations = config_from_dict({"schema_version": 2, "experiment": "np"})
        assert "unsupported schema_version 2 (supported: 1)" in violations

    def test_missing_experiment(self):
        _, violations = config_from_dict({"schema_version": 1})
        assert (
            "experiment is required; one of "
            "ee1_static|ee2_family|ee2_flow|np|sweep|linearize|custom" in violations
        )

    def test_unknown_experiment(self):
        _, violations = config_from_dict(_minimal("warp_drive"))
        assert any(v.startswith("experiment must be one of") for v in violations)

    def test_all_violations_reported_together(self):
        raw = _minimal(
            "ee2_flow",
            samples=0,
            flow={"integrator": {"dt": -1.0}},
            perturbation={"subspace": "sideways"},
            output={"format": "xml"},
        )
        _, violations = config_from_dict(raw)
        assert "flow.integrator.dt must be > 0" in violations
        assert (
            "perturbation.subspace must be one of coclosed|exact|full, got 'sideways'"
            in violations
        )
        assert "output.format must be one of jsonl|csv, got 'xml'" in violations
        assert "samples must be an integer >= 1" in violations
        assert len(violations) == 4

    def test_unknown_fields_are_flagged(self):
        raw = _minimal("np", extra=1, flow={"speed": 2}, np={"tau0": 1.0, "gamma": 3})
        _, violations = config_from_dict(raw)
        assert "unknown field 'extra'" in violations
        assert "flow: unknown field 'speed'" in violations
        assert "np: unknown field 'gamma'" in violations

    def test_family_experiment_requires_plain_flow(self):
        _, violations = config_from_dict(_minimal("ee2_family", flow={"A": 0.5}))
        assert violations == [
            "ee2_family requires flow.A = 0 (the coefficient law is the A=0 one)"
        ]

    def test_a_non_unimodular_algebra_is_refused_at_validation(self, tmp_path):
        # d e^7 = e^{17} passes Jacobi, but ad(e_7) has trace 1; every
        # experiment but np takes a flow right-hand side on the algebra.
        path = _write(tmp_path, "skew.json", NON_UNIMODULAR_ALGEBRA)
        report = check_fixture(path)
        assert report["jacobi_ok"] and not report["unimodular"]
        message = (
            "algebra_file: the algebra is not unimodular, and the flow right-hand "
            "sides need a unimodular algebra"
        )
        for experiment in ("ee1_static", "ee2_family", "ee2_flow", "linearize", "custom"):
            cfg, violations = config_from_dict(_minimal(experiment, algebra_file=path))
            assert (cfg, violations) == (None, [message])
        sweep = _minimal("sweep", algebra_file=path,
                         sweep={"experiment": "ee2_flow", "axes": {"flow.A": [0.0, 0.5]}})
        _, violations = config_from_dict(sweep)
        assert violations == [f"sweep cell 0: {message}", f"sweep cell 1: {message}"]
        assert config_from_dict(_minimal("np", algebra_file=path))[1] == []

    def test_unknown_algebra_names_known_fixtures(self):
        _, violations = config_from_dict(_minimal("ee2_flow", algebra_file="heis7"))
        assert len(violations) == 1
        assert violations[0].startswith("algebra_file: ")
        for name in ("torus", "ee1", "ee2"):
            assert name in violations[0]

    def test_laplacian_perturbation_needs_a_closed_subspace(self):
        def violations(subspace, magnitude=0.1):
            raw = _minimal(
                "custom",
                algebra_file="ee1",
                flow={"flow_kind": "laplacian_flow"},
                perturbation={"magnitude": magnitude, "subspace": subspace},
            )
            return config_from_dict(raw)[1]

        assert violations("coclosed") == violations("exact") == []
        assert violations("full", magnitude=0.0) == []  # draws nothing
        assert violations("full") == [
            "perturbation.subspace must be 'coclosed' or 'exact' where directions are "
            "drawn or probed (full directions leave the closed forms)"
        ]

    def test_linearize_requires_coflow(self):
        raw = _minimal("linearize", flow={"flow_kind": "laplacian_flow"})
        _, violations = config_from_dict(raw)
        assert "linearize requires flow.flow_kind = modified_coflow" in violations

    def test_initial_fixture_degree_must_match_flow(self):
        _, violations = config_from_dict(_minimal("ee2_flow", initial="phi_standard"))
        assert violations == [
            "initial has degree 3; flow_kind 'modified_coflow' needs degree 4"
        ]

    def test_np_section_validated_only_for_np(self):
        raw = _minimal("np", np={"tau0": 1.0, "c0": -1.0})
        _, violations = config_from_dict(raw)
        assert violations == ["np.c0 must be > 0"]
        # The same section is ignored for experiments that do not read it.
        cfg, violations = config_from_dict(_minimal("ee1_static", np={"c0": -1.0}))
        assert violations == []

    def test_explicit_initial_vector(self):
        coeffs = [0.0] * 35
        cfg, violations = config_from_dict(
            _minimal("ee2_flow", initial=coeffs, algebra_file="ee2")
        )
        assert violations == []
        assert cfg.initial == coeffs
        _, violations = config_from_dict(_minimal("ee2_flow", initial=[1.0, 2.0]))
        assert "initial must be a fixture name or a list of 35 numbers" in violations


def _leaves(cls, path=""):
    """(dotted path, field, value type) of every leaf of a config dataclass."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        label = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _leaves(hints[f.name], label)
        else:
            kinds = [t for t in typing.get_args(hints[f.name]) if t is not type(None)]
            yield label, f, kinds[0] if kinds else hints[f.name]


def _nested(dotted, value):
    """The JSON object that sets one dotted path."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


class TestRuleWalk:
    def test_every_checked_float_rejects_non_finite_values(self):
        float_leaves = [label for label, _, kind in _leaves(ExperimentConfig) if kind is float]
        assert len(float_leaves) == 14
        for label in float_leaves:
            root = label.split(".")[0]
            # The np and linearize sections are checked only for their experiment.
            experiment = root if root in EXPERIMENTS else "ee2_flow"
            for bad in (math.nan, math.inf, -math.inf):
                _, violations = config_from_dict(_minimal(experiment, **_nested(label, bad)))
                assert len(violations) == 1, (label, bad, violations)
                assert violations[0].startswith(f"{label} must be "), (label, violations)

    def test_flow_rules_read_through_the_config_carry_the_flow_prefix(self):
        # A value of each type that breaks every rule of that type.
        bad_values = {float: -math.inf, int: -1, str: "bogus"}
        ruled = [(label, kind) for label, f, kind in _leaves(FlowConfig) if "rule" in f.metadata]
        assert len(ruled) == 11
        for label, kind in ruled:
            flow = FlowConfig()
            *parents, name = label.split(".")
            section = flow
            for part in parents:
                section = getattr(section, part)
            setattr(section, name, bad_values[kind])
            expected = flow.violations()
            assert len(expected) == 1 and expected[0].startswith(f"{label} "), expected
            _, violations = config_from_dict(
                _minimal("ee2_flow", flow=_nested(label, bad_values[kind]))
            )
            assert violations == ["flow." + expected[0]]


class TestValidateConfig:
    def test_ok_report_echoes_defaults(self, tmp_path):
        path = _write(tmp_path, "ok.json", _minimal("np", np={"tau0": 0.5}))
        report = validate_config(path)
        assert report.ok
        assert report.violations == []
        assert report.normalized["np"]["tau0"] == 0.5
        assert report.normalized["np"]["c0"] == 1.0
        assert report.normalized["flow"]["integrator"]["t_end"] == 1.0

    def test_parse_error_carries_location(self, tmp_path):
        path = _write(tmp_path, "broken.json", '{"schema_version": 1,\n  "experiment" }')
        report = validate_config(path)
        assert not report.ok
        assert report.normalized is None
        assert len(report.violations) == 1
        assert report.violations[0].startswith("config parse error at line 2, column ")

    def test_violations_reported(self, tmp_path):
        path = _write(
            tmp_path, "bad.json", _minimal("ee2_flow", flow={"integrator": {"dt": 0}})
        )
        report = validate_config(path)
        assert not report.ok
        assert report.violations == ["flow.integrator.dt must be > 0"]


class TestExpandSweep:
    def _sweep_cfg(self, axes, inner="np"):
        raw = _minimal("sweep", sweep={"experiment": inner, "axes": axes})
        cfg, violations = config_from_dict(raw)
        assert violations == [], violations
        return cfg

    def test_cartesian_product_in_sorted_key_order(self):
        cfg = self._sweep_cfg({"np.tau0": [0.5, 1.0, 2.0], "np.c0": [1.0, 2.0]})
        cells = expand_sweep(cfg)
        assert len(cells) == 6
        overrides = [o for o, _ in cells]
        # "np.c0" sorts before "np.tau0" and is the slow axis.
        assert overrides[0] == {"np.c0": 1.0, "np.tau0": 0.5}
        assert overrides[1] == {"np.c0": 1.0, "np.tau0": 1.0}
        assert overrides[3] == {"np.c0": 2.0, "np.tau0": 0.5}
        for o, cell in cells:
            assert cell.experiment == "np"
            assert cell.np_section.tau0 == o["np.tau0"]
            assert cell.np_section.c0 == o["np.c0"]

    def test_reserved_roots_cannot_be_swept(self):
        for axis in ("output.format", "sweep.experiment", "experiment", "schema_version"):
            cfg = self._sweep_cfg({"np.tau0": [1.0]})
            cfg.sweep_section.axes = {axis: ["x"]}
            with pytest.raises(ConfigError, match="sweep axes cannot override"):
                expand_sweep(cfg)

    def test_invalid_cell_names_its_index(self):
        raw = _minimal(
            "sweep", sweep={"experiment": "np", "axes": {"np.tau0": [0.5, -1e400]}}
        )
        cfg, violations = config_from_dict(raw)
        assert cfg is None
        assert violations == ["sweep cell 1: np.tau0 must be finite"]

    def test_cell_count_limit(self, monkeypatch):
        from g2flow import experiments

        reads = []
        read = experiments.config_from_dict
        monkeypatch.setattr(
            experiments, "config_from_dict", lambda raw: reads.append(1) or read(raw)
        )
        # The limit is found from the axis lengths, before any cell config
        # is read, so a bad cell of an oversized grid is not reported.
        for axes in (
            {"np.tau0": [float(i) for i in range(1, 1002)]},
            {
                "np.tau0": [-1e400] + [float(i) for i in range(1, 7)],
                "np.c0": [float(i) for i in range(1, 12)],
                "np.vol0": [float(i) for i in range(1, 14)],
            },
        ):
            _, violations = read(_minimal("sweep", sweep={"experiment": "np", "axes": axes}))
            assert violations == ["sweep has 1001 cells, exceeding the 1000 limit"]
        assert reads == []

    def test_nested_sweep_rejected(self):
        raw = _minimal("sweep", sweep={"experiment": "sweep", "axes": {"np.tau0": [1.0]}})
        _, violations = config_from_dict(raw)
        assert len(violations) == 1
        assert violations[0].startswith("sweep.experiment must be one of")

    def test_empty_axes_rejected(self):
        raw = _minimal("sweep", sweep={"experiment": "np"})
        _, violations = config_from_dict(raw)
        assert violations == ["sweep.axes must define at least one axis"]


class TestSampleInitial:
    def test_coclosed_sample_is_coclosed_and_positive(self, ee2):
        base = G2Structure.from_phi(ee2_diagonal_phi(np.ones(7))).psi
        pcfg = PerturbationConfig(magnitude=0.2, subspace="coclosed")
        rng = np.random.default_rng(3)
        form, scale, halvings, state = sample_initial(ee2, base, pcfg, rng)
        assert form.degree == 4
        recovered, residual = _phi_of_psi(form, NEWTON_TOL, NEWTON_MAX_ITER)
        assert state.phi_coeffs.tobytes() == recovered.phi_coeffs.tobytes()
        assert residual <= NEWTON_TOL
        assert 0.0 < scale <= 0.2
        assert np.linalg.norm(form.coeffs - base.coeffs) == pytest.approx(scale, rel=1e-12)
        d4 = ee2.differential_matrix(4)
        assert np.max(np.abs(d4 @ form.coeffs)) <= 1e-12
        assert halvings >= 0

    def test_zero_magnitude_returns_base(self, ee1):
        from g2flow import standard_psi

        base = standard_psi()
        form, scale, halvings, state = sample_initial(
            ee1, base, PerturbationConfig(magnitude=0.0), np.random.default_rng(0)
        )
        assert form is base and np.array_equal(state.psi.coeffs, base.coeffs)
        assert scale == 0.0 and halvings == 0

    def test_same_seed_reproduces_sample(self, ee1):
        from g2flow import standard_psi

        base = standard_psi()
        pcfg = PerturbationConfig(magnitude=0.25, subspace="coclosed")
        a, _, _, _ = sample_initial(ee1, base, pcfg, np.random.default_rng(42))
        b, _, _, _ = sample_initial(ee1, base, pcfg, np.random.default_rng(42))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_laplacian_flow_sample_returns_its_structure(self, ee1):
        from g2flow import G2Structure, standard_phi

        base = standard_phi()
        pcfg = PerturbationConfig(magnitude=0.1)
        form, scale, _, state = sample_initial(ee1, base, pcfg, np.random.default_rng(5))
        assert isinstance(state, G2Structure) and state.phi is form
        # The drawn direction is a closed 3-form.
        assert scale > 0.0
        assert np.linalg.norm(form.coeffs - base.coeffs) == pytest.approx(scale, rel=1e-12)
        d3 = ee1.differential_matrix(3)
        assert np.linalg.norm(d3 @ (form.coeffs - base.coeffs)) <= 1e-12 * scale


class TestCheckFixture:
    def test_valid_fixtures(self):
        for name in ("torus", "ee1", "ee2"):
            report = check_fixture(name)
            assert report["ok"], report
            assert report["jacobi_ok"]
            assert report["unimodular"]
            assert report["jacobi_max_residual"] <= 1e-12

    def test_corrupted_fixture_fails_jacobi(self):
        report = check_fixture("ee1_corrupted")
        assert not report["ok"]
        assert not report["jacobi_ok"]
        assert report["jacobi_max_residual"] > 0.1

    def test_unknown_fixture_reports_error(self):
        report = check_fixture("nope")
        assert not report["ok"]
        assert "unknown" in report["error"]


class TestRunExperiment:
    def test_ee1_static_driver(self, tmp_path):
        cfg, violations = config_from_dict(_minimal("ee1_static", samples=3))
        assert violations == []
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.status == "ok"
        assert result.summary["passed"] is True
        assert result.summary["samples"] == 3
        assert result.summary["max_sample_rhs_norm"] <= 1e-8
        assert result.summary["reference_rhs_norm"] <= 1e-10
        (out,) = result.files
        lines = [json.loads(l) for l in open(out)]
        kinds = [rec["record"] for rec in lines]
        assert kinds[0] == "reference"
        assert kinds[-1] == "summary"
        assert kinds[1:-1] == ["sample"] * 3

    def test_ee1_static_recovers_each_sample_once(self, tmp_path, monkeypatch):
        from g2flow import flows, g2core

        calls, rows = [], []
        # The closed form of one 4-form runs in every one-form recovery:
        # phi_of_psi's and the one-row evaluation's.
        closed_form, recover_stack = g2core._closed_form, flows.stack_from_psi

        def counting_closed_form(psi, bad=None):
            if bad is None:  # one 4-form, not a stack
                calls.append(1)
            return closed_form(psi, bad)

        def counting_rows(psi, *args, **kwargs):
            rows.append(len(psi))
            return recover_stack(psi, *args, **kwargs)

        monkeypatch.setattr(g2core, "_closed_form", counting_closed_form)
        monkeypatch.setattr(flows, "_closed_form", counting_closed_form)
        monkeypatch.setattr(flows, "stack_from_psi", counting_rows)
        cfg, _ = config_from_dict(_minimal("ee1_static", samples=3))
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.summary["passed"] is True
        # The reference alone; the three samples are one stacked recovery.
        assert len(calls) == 1
        assert rows == [3]

        # At magnitude 3 most samples are marked and raise alone.  The closed
        # form of one 4-form then runs once for the reference, once for each
        # marked row and once for each halving after a raise: a raised row
        # is not recovered again as its halving 0.
        marked = []

        def marking_rows(psi):
            stack, bad = recover_stack(psi)
            marked.append(int(bad.sum()))
            return stack, bad

        calls.clear()
        monkeypatch.setattr(flows, "stack_from_psi", marking_rows)
        raw = _minimal("ee1_static", samples=100, perturbation={"magnitude": 3.0})
        cfg, _ = config_from_dict(raw)
        result = run_experiment(cfg, output_dir=tmp_path)
        halvings = [r["halvings"] for r in map(json.loads, open(result.files[0]))
                    if r["record"] == "sample"]
        assert sum(h > 0 for h in halvings) > 50
        assert len(calls) == 1 + sum(marked) + sum(halvings)

    @pytest.mark.parametrize("magnitude", [0.25, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ee1_static_samples_match_one_by_one(self, tmp_path, ee1, seed, magnitude):
        from g2flow import standard_psi

        raw = _minimal("ee1_static", samples=30,
                       perturbation={"seed": seed, "magnitude": magnitude})
        cfg, _ = config_from_dict(raw)
        result = run_experiment(cfg, output_dir=tmp_path)
        samples = [r for r in map(json.loads, open(result.files[0])) if r["record"] == "sample"]
        # The same draws one by one, as sample_initial makes them.
        rng = np.random.default_rng(seed)
        halvings = []
        for rec in samples:
            _, scale, h, state = sample_initial(ee1, standard_psi(), cfg.perturbation, rng)
            assert (rec["scale"], rec["halvings"]) == (scale, h)
            want = float(np.linalg.norm(coflow_rhs(ee1, state).coeffs))
            # rounding-level values; the larger states of magnitude 3 round more
            assert rec["rhs_norm"] == pytest.approx(want, rel=1e-12,
                                                    abs=1e-14 if magnitude < 1 else 1e-12)
            halvings.append(h)
        if magnitude > 1:
            assert max(halvings) >= 1

    def test_ee1_static_linear_algebra_calls_grow_with_stacks_not_samples(self, tmp_path,
                                                                          monkeypatch):
        from g2flow import flows
        from g2flow.experiments import _STACK_ROWS

        counts = {}
        for name in ("det", "inv", "cholesky"):
            def counting(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for n in (1, _STACK_ROWS, 100):
            counts.clear()
            cfg, _ = config_from_dict(_minimal("ee1_static", samples=n))
            assert run_experiment(cfg, output_dir=tmp_path).summary["passed"] is True
            # The reference state on its own, then each stack of samples:
            # one factorisation and one inverse of B for each of the two
            # structures of a recovery (of chi and of phi), and no
            # determinant.  One by one, with a generic star, 100 samples
            # took 505 det, 202 inv and 202 cholesky.
            calls = 1 + -(-n // _STACK_ROWS)
            assert counts == {"inv": 2 * calls, "cholesky": 2 * calls}
        # At magnitude 3 most samples are halved one by one, and the stacked
        # recovery still runs once per stack: halved rows are not restacked.
        stacks = []
        recover_stack = flows.stack_from_psi

        def counting_stacks(psi):
            stacks.append(len(psi))
            return recover_stack(psi)

        monkeypatch.setattr(flows, "stack_from_psi", counting_stacks)
        raw = _minimal("ee1_static", samples=100, perturbation={"seed": 0, "magnitude": 3.0})
        cfg, _ = config_from_dict(raw)
        run_experiment(cfg, output_dir=tmp_path)
        assert stacks == [_STACK_ROWS] * 4

    @pytest.mark.parametrize(
        "experiment, overrides, stacks",
        [
            ("ee2_family", {}, 1),
            ("ee2_family", {"samples": 100}, 4),
            ("linearize", {"perturbation": {"subspace": "coclosed"}}, 1),
            ("linearize", {"perturbation": {"subspace": "exact"}}, 1),
        ],
        ids=["ee2_family-20", "ee2_family-100", "linearize-coclosed", "linearize-exact"],
    )
    def test_linear_algebra_calls_grow_with_stacks_not_rows(
        self, tmp_path, monkeypatch, experiment, overrides, stacks
    ):
        counts = {}
        for name in ("det", "inv", "cholesky"):
            def counting(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        cfg, _ = config_from_dict(_minimal(experiment, **overrides))
        assert run_experiment(cfg, output_dir=tmp_path).status == "ok"
        if experiment == "ee2_family":
            # One induced metric per stack of up to _STACK_ROWS members.
            # One by one, 20 members took 20 cholesky and 20 inv.
            calls = stacks
        else:
            # The base point's recovery (two structures), the factor of the
            # directions' L2 Gram matrix and its inverse, and one stacked
            # recovery of the 2m states, whether m is 31 or 6.  One by one,
            # the 62 and 12 states took 127 and 27 of each.
            calls = 2 + 1 + 2 * stacks
        assert counts == {"inv": calls, "cholesky": calls}

    def test_ee2_family_rows_match_one_by_one(self, tmp_path, ee2):
        # 30 members: a stack of 25 and one of 5.  Each row's right-hand
        # side is the one G2Structure.from_phi and coflow_rhs give the
        # member alone, bit for bit.
        raw = _minimal("ee2_family", samples=30, perturbation={"seed": 3})
        cfg, _ = config_from_dict(raw)
        result = run_experiment(cfg, output_dir=tmp_path)
        records = [json.loads(line) for line in open(result.files[0])]
        assert [rec["index"] for rec in records] == list(range(30))
        for rec in records:
            c = np.array([rec[f"c{j}"] for j in range(1, 8)])
            rhs = coflow_rhs(ee2, G2Structure.from_phi(ee2_diagonal_phi(c)), 0.0).coeffs
            assert rec["coeff_computed"] == float(rhs[_E1357])
            assert rec["off_max"] == float(np.max(np.abs(np.delete(rhs, _E1357))))

    def test_ee2_family_redoes_a_marked_member_by_the_public_functions(
        self, tmp_path, monkeypatch
    ):
        # A member that fails a check of the stack is evaluated alone by
        # the one-row function, which raises what G2Structure.from_phi
        # raises on it alone.
        from g2flow import flows

        induced, structure_alone = flows._induced, flows._structure_alone

        def marking_the_third(x, bad=None):
            out = induced(x, bad)
            if bad is not None:
                bad[2] = True
            return out

        cfg, _ = config_from_dict(_minimal("ee2_family", samples=4))
        want = run_experiment(cfg, output_dir=tmp_path / "want")
        monkeypatch.setattr(flows, "_induced", marking_the_third)
        built = []
        monkeypatch.setattr(
            flows,
            "_structure_alone",
            lambda degree, phi: built.append(1) or structure_alone(degree, phi),
        )
        got = run_experiment(cfg, output_dir=tmp_path / "got")
        assert len(built) == 1
        assert Path(got.files[0]).read_bytes() == Path(want.files[0]).read_bytes()

    def test_ee1_static_builds_the_subspace_basis_once(self, tmp_path, monkeypatch):
        from g2flow import experiments

        calls = []
        directions = experiments.closed_directions

        def counting(L, k):
            calls.append(1)
            return directions(L, k)

        monkeypatch.setattr(experiments, "closed_directions", counting)
        cfg, _ = config_from_dict(_minimal("ee1_static", samples=5))
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.summary["passed"] is True
        assert len(calls) == 1

    def test_ee2_family_driver(self, tmp_path):
        cfg, violations = config_from_dict(_minimal("ee2_family", samples=4))
        assert violations == []
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.status == "ok"
        assert result.summary["passed"] is True
        assert result.summary["max_law_rel_err"] <= 1e-8
        assert result.summary["max_off_component"] <= 1e-8
        # The first row is pinned to the unit member, where the direct
        # pattern agrees with the law; generically it does not.
        assert result.summary["direct_pattern_agreements"] == 1

    def test_np_driver_with_csv(self, tmp_path):
        raw = _minimal("np", np={"tau0": 1.0}, output={"format": "csv"})
        raw["flow"] = {"integrator": {"dt": 1e-3, "t_end": 0.5}}
        cfg, violations = config_from_dict(raw)
        assert violations == []
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.status == "ok"
        assert result.summary["c_final"] == pytest.approx(0.140625, rel=1e-9)
        (out,) = result.files
        assert open(out).readline().strip() == "t,c,vol,rhs"

    def test_linearize_driver(self, tmp_path):
        cfg, violations = config_from_dict(_minimal("linearize"))
        assert violations == []
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.status == "ok"
        (out,) = result.files
        report = json.loads(open(out).read())
        assert report["subspace"] == "coclosed"
        assert report["n_directions"] == 31
        assert max(abs(e) for e in report["eigenvalues"]) <= 1e-6
        assert report["asymmetry_norm"] <= 1e-6

    def test_bad_algebra_in_a_hand_built_config_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        for name in ("no_such_algebra", str(bad)):
            (message,) = config_from_dict(_minimal("ee2_flow", algebra_file=name))[1]
            cfg = ExperimentConfig(experiment="ee2_flow", algebra_file=name)
            with pytest.raises(ConfigError) as exc:
                run_experiment(cfg, output_dir=tmp_path)
            assert exc.value.violations == [message]

    def test_sweep_driver_writes_manifest(self, tmp_path):
        raw = _minimal(
            "sweep",
            flow={"integrator": {"t_end": 0.5}},
            sweep={"experiment": "np", "axes": {"np.tau0": [0.5, 1.0]}},
        )
        cfg, violations = config_from_dict(raw)
        assert violations == []
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.status == "ok"
        manifest = json.loads((tmp_path / "sweep_out" / "manifest.json").read_text())
        assert len(manifest["cells"]) == 2
        assert manifest["cells"][0]["overrides"] == {"np.tau0": 0.5}
        assert [c["status"] for c in manifest["cells"]] == ["ok", "ok"]
        for i, cell in enumerate(manifest["cells"]):
            assert cell["path"].endswith(f"cell_{i:03d}.jsonl")
            assert (tmp_path / "sweep_out" / f"cell_{i:03d}.jsonl").exists()


# The sweep of the sweep_ee2 benchmark workload at seed 0.
SWEEP_EE2 = _minimal(
    "sweep",
    algebra_file="ee2",
    flow={"integrator": {"method": "rk4", "dt": 0.01, "t_end": 0.2}},
    perturbation={"seed": 0, "magnitude": 0.05},
    sweep={"experiment": "ee2_flow",
           "axes": {"flow.A": [0.0, 0.5], "perturbation.seed": [0, 1, 2, 3]}},
)
# Its A = 0.5 rows halt in recovery at steps 55 and 60, between records.
HALTING_SWEEP = _minimal(
    "sweep",
    algebra_file="ee2",
    flow={"integrator": {"method": "rk4", "dt": 0.01, "t_end": 1.0}},
    perturbation={"magnitude": 0.2},
    sweep={"experiment": "ee2_flow", "axes": {"flow.A": [0.0, 0.5], "perturbation.seed": [0, 1]}},
)


class TestLockstepSweeps:
    """Sweep cells that share a time grid step as one ensemble and write
    what each cell's config writes when it runs alone."""

    @staticmethod
    def _sweep_matches_cells_alone(tmp_path, raw):
        cfg, violations = config_from_dict(raw)
        assert violations == []
        result = run_experiment(cfg, output_dir=tmp_path / "sweep")
        manifest = json.loads((tmp_path / "sweep" / "sweep_out" / "manifest.json").read_text())
        for i, (_, cell_cfg) in enumerate(expand_sweep(cfg)):
            cell_cfg.output.path = str(tmp_path / "alone" / f"cell_{i:03d}.jsonl")
            alone = run_experiment(cell_cfg)
            assert manifest["cells"][i]["summary"] == json.loads(json.dumps(alone.summary))
            with open(alone.files[0], "rb") as a, open(manifest["cells"][i]["path"], "rb") as b:
                assert a.read() == b.read(), i
        return result, manifest

    def test_sweep_ee2_cells_match_runs_alone(self, tmp_path):
        result, _ = self._sweep_matches_cells_alone(tmp_path, SWEEP_EE2)
        assert result.summary["lockstep_groups"] == [list(range(8))]
        assert result.status == "ok"

    def test_halting_rows_match_runs_alone(self, tmp_path):
        result, manifest = self._sweep_matches_cells_alone(tmp_path, HALTING_SWEEP)
        assert result.summary["lockstep_groups"] == [[0, 1, 2, 3]]
        terms = [cell["summary"]["termination"] for cell in manifest["cells"]]
        assert [(t["reason"], t["steps"]) for t in terms] == [
            ("t_end", 100), ("t_end", 100), ("newton", 55), ("newton", 60)
        ]

    def test_cells_group_by_method_and_deturck(self, tmp_path):
        raw = _minimal(
            "sweep",
            algebra_file="ee2",
            flow={"integrator": {"dt": 0.02, "t_end": 0.1}},
            perturbation={"magnitude": 0.05},
            sweep={"experiment": "ee2_flow", "axes": {
                "flow.A": [0.0, 0.5],
                "flow.deturck.enabled": [False, True],
                "flow.integrator.method": ["rk4", "rkf45"],
            }},
        )
        result, _ = self._sweep_matches_cells_alone(tmp_path, raw)
        # The cells of each method and DeTurck setting share a group.
        assert result.summary["lockstep_groups"] == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_cells_group_by_flow_kind(self, tmp_path):
        raw = _minimal(
            "sweep",
            algebra_file="ee1",
            flow={"integrator": {"dt": 0.05, "t_end": 0.1}},
            perturbation={"magnitude": 0.0, "subspace": "full"},
            sweep={"experiment": "custom", "axes": {
                "flow.A": [0.0, 0.5], "flow.flow_kind": ["modified_coflow", "laplacian_flow"]
            }},
        )
        result, _ = self._sweep_matches_cells_alone(tmp_path, raw)
        assert result.summary["lockstep_groups"] == [[0, 2], [1, 3]]

    def test_laplacian_flow_cells_match_runs_alone(self, tmp_path):
        # Seeded closed starts on n2, stepped by rkf45 as one group.  A
        # perturbation of a 3-form is drawn from the closed 3-forms, so the
        # perturbed cells stay closed and reach t_end too.
        from g2flow.exterior import BASIS

        starts = []
        for seed in (0, 1, 2):
            phi = closed_n2_phi(np.random.default_rng(seed))
            terms = [{"idx": list(BASIS[3][k]), "coef": phi.coeffs[k]}
                     for k in np.flatnonzero(phi.coeffs)]
            starts.append(_write(tmp_path, f"phi_{seed}.json", {"degree": 3, "terms": terms}))
        raw = _minimal(
            "sweep",
            algebra_file=str(N2_ALGEBRA),
            flow={"flow_kind": "laplacian_flow",
                  "integrator": {"method": "rkf45", "dt": 0.05, "t_end": 1.0}},
            perturbation={"subspace": "coclosed"},
            sweep={"experiment": "custom", "axes": {
                "initial": starts, "perturbation.magnitude": [0.0, 0.1]
            }},
        )
        result, manifest = self._sweep_matches_cells_alone(tmp_path, raw)
        assert result.summary["lockstep_groups"] == [list(range(6))]
        terms = [cell["summary"]["termination"] for cell in manifest["cells"]]
        assert [t["reason"] for t in terms] == ["t_end"] * 6
        assert len({t["steps"] for t in terms[::2]}) > 1  # the rows drift apart

    def test_laplacian_flow_draws_on_n2_reach_t_end(self, tmp_path):
        # Draws from the closed 3-forms around the standard form, which is
        # closed on n2: every seed's start is closed, and rk4 runs it to t_end.
        raw = _minimal(
            "sweep",
            algebra_file=str(N2_ALGEBRA),
            flow={"flow_kind": "laplacian_flow",
                  "integrator": {"method": "rk4", "dt": 0.01, "t_end": 0.5}},
            perturbation={"magnitude": 0.3},
            sweep={"experiment": "custom", "axes": {"perturbation.seed": list(range(6))}},
        )
        result, manifest = self._sweep_matches_cells_alone(tmp_path, raw)
        assert result.status == "ok"
        summaries = [cell["summary"] for cell in manifest["cells"]]
        assert [s["termination"]["reason"] for s in summaries] == ["t_end"] * 6
        assert [s["perturbation_halvings"] for s in summaries] == [0] * 6
        assert all(s["perturbation_scale"] == 0.3 for s in summaries)

    def test_sweep_ee2_loads_its_algebra_once(self, tmp_path, monkeypatch):
        # Validation expands the sweep once and checks the algebra the eight
        # cells share once (1 load; 8 when each cell checked its own), and
        # the run runs those cells with one more load.  When the run
        # expanded the sweep again it took 2 expansions and 17 loads.
        from g2flow import experiments

        loads, expanded = [], []
        load, expand = experiments.load_algebra, experiments.expand_sweep

        def expanding(cfg, *checked):
            cells = expand(cfg, *checked)  # validates every cell
            expanded.append(1)
            return cells

        monkeypatch.setattr(
            experiments, "load_algebra", lambda name: loads.append(bool(expanded)) or load(name)
        )
        monkeypatch.setattr(experiments, "expand_sweep", expanding)
        cfg, _ = config_from_dict(SWEEP_EE2)
        assert run_experiment(cfg, output_dir=tmp_path).status == "ok"
        assert expanded == [1]
        assert (loads.count(False), loads.count(True)) == (1, 1)

    def test_a_hand_built_sweep_is_expanded_by_its_run(self, tmp_path):
        cfg, _ = config_from_dict(SWEEP_EE2)
        kept = run_experiment(cfg, output_dir=tmp_path / "kept")
        built = dataclasses.replace(cfg)  # a new config that validation never saw
        assert not hasattr(built, "_cells")
        again = run_experiment(built, output_dir=tmp_path / "built")
        for a, b in zip(kept.files, again.files):
            assert Path(a).read_bytes().replace(b"kept", b"built") == Path(b).read_bytes()

    def test_sweep_ee2_loads_its_base_form_and_basis_once(self, tmp_path, monkeypatch):
        # Eight cells share the standard psi and the coclosed directions of
        # ee2: one fixture read and one SVD of d per run.
        from g2flow import experiments

        cfg, _ = config_from_dict(SWEEP_EE2)
        forms, svds = [], []
        load, svd = experiments.load_form, np.linalg.svd
        monkeypatch.setattr(
            experiments, "load_form", lambda name: forms.append(name) or load(name)
        )
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.status == "ok" and result.summary["cells"] == 8
        assert forms == ["psi_standard"]
        assert svds == [1]

    def test_sweep_ee2_recovers_in_stacks_of_eight(self, tmp_path, monkeypatch):
        from g2flow import experiments, flows

        rows, after_sampling = [], []
        stack, recover, run = flows.stack_from_psi, flows._structure_alone, experiments.integrate

        def integrating(*args, **kwargs):
            monkeypatch.setattr(
                flows,
                "_structure_alone",
                lambda degree, psi: after_sampling.append(1) or recover(degree, psi),
            )
            return run(*args, **kwargs)

        monkeypatch.setattr(flows, "stack_from_psi", lambda y: rows.append(len(y)) or stack(y))
        monkeypatch.setattr(experiments, "integrate", integrating)
        cfg, _ = config_from_dict(SWEEP_EE2)
        assert run_experiment(cfg, output_dir=tmp_path).status == "ok"
        # The starts, then 20 steps of four stages and two records, one
        # stacked recovery each, less the first stages that reuse a record
        # or the starts.
        assert 0 < len(rows) <= 81 and set(rows) == {8}
        assert after_sampling == []
