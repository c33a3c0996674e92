"""Tests for flow right-hand sides, integration, halts, and linearization."""

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from g2flow import (
    ConfigError,
    DIM,
    DegreeError,
    FlowConfig,
    Form,
    G2FlowError,
    G2Structure,
    IntegratorConfig,
    PositivityError,
    RecoveryError,
    closed_directions,
    coflow_rhs,
    config_from_dict,
    deturck_term,
    deturck_vector,
    differential,
    exact_directions,
    hodge_laplacian,
    integrate,
    laplacian_flow_rhs,
    lie_derivative,
    linearize,
    phi_of_psi,
    run_experiment,
    standard_phi,
    standard_psi,
    torsion_trace,
    volume_monotonicity_criterion,
)
from g2flow.conventions import NEWTON_TOL
from g2flow.experiments import PerturbationConfig, sample_initial
from g2flow.exterior import BASIS, DIMS, Metric
from g2flow.fixtures import ee2_diagonal_phi
from g2flow.flows import (
    RECORD_FIELDS,
    DeTurckConfig,
    HaltConfig,
    MonitorConfig,
    _rkf45_attempt,
    _stacked_rhs,
)
from g2flow.liealg import Connection, LieAlgebraStructure, hodge_laplacian_matrix, levi_civita

from .conftest import closed_n2_phi, coclosed_sample

STATIC_MEMBER = np.array([np.sqrt(2.0), 1.0, np.sqrt(2.0), 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)])


def _rhs0(L, s):
    return coflow_rhs(L, s, 0.0)


def ee2_flow_run(tmp_path, A, integrator, magnitude, seed):
    """Result of an ee2_flow experiment run; unnamed fields keep their defaults."""
    raw = {
        "schema_version": 1,
        "experiment": "ee2_flow",
        "flow": {"A": A, "integrator": integrator},
        "perturbation": {"seed": seed, "magnitude": magnitude},
    }
    cfg, violations = config_from_dict(raw)
    assert violations == []
    return run_experiment(cfg, output_dir=tmp_path)


class TestFlowConfig:
    def test_default_is_valid(self):
        assert FlowConfig().violations() == []

    def test_bad_dt_message(self):
        cfg = FlowConfig(integrator=IntegratorConfig(dt=0.0))
        assert cfg.violations() == ["integrator.dt must be > 0"]

    def test_bad_method_message(self):
        cfg = FlowConfig(integrator=IntegratorConfig(method="euler"))
        assert cfg.violations() == [
            "integrator.method must be one of rk4|rkf45, got 'euler'"
        ]

    def test_bad_flow_kind_message(self):
        cfg = FlowConfig(flow_kind="ricci")
        assert cfg.violations() == [
            "flow_kind must be one of modified_coflow|laplacian_flow, got 'ricci'"
        ]

    def test_all_violations_collected(self):
        cfg = FlowConfig(
            flow_kind="ricci",
            A=float("nan"),
            deturck=DeTurckConfig(c1=float("inf")),
            integrator=IntegratorConfig(method="euler", dt=-1.0, t_end=0.0, rel_tol=0.0),
            monitors=MonitorConfig(record_every=0),
            halt=HaltConfig(closedness_tol=-1.0, max_rhs_norm=0.0),
        )
        got = cfg.violations()
        expected = [
            "flow_kind must be one of modified_coflow|laplacian_flow, got 'ricci'",
            "A must be finite",
            "deturck.c1 must be finite",
            "integrator.method must be one of rk4|rkf45, got 'euler'",
            "integrator.dt must be > 0",
            "integrator.t_end must be > 0",
            "integrator.rel_tol must be > 0",
            "monitors.record_every must be an integer >= 1",
            "halt.closedness_tol must be > 0",
            "halt.max_rhs_norm must be > 0 when set",
        ]
        assert got == expected

    def test_ensure_valid_raises(self):
        with pytest.raises(ConfigError, match="integrator.dt must be > 0"):
            FlowConfig(integrator=IntegratorConfig(dt=float("nan"))).ensure_valid()


class TestCoflowRhs:
    def test_reference_state_is_static(self, ee1):
        # The standard structure is a stationary point of the plain
        # coflow on this algebra.
        s = phi_of_psi(standard_psi())
        assert np.linalg.norm(coflow_rhs(ee1, s, 0.0).coeffs) <= 1e-10

    def test_parameter_dependence_is_affine(self, ee1, ee2, rng):
        # The A-dependence enters only through 2 A d(phi).
        for L in (ee1, ee2):
            _, s = coclosed_sample(L, rng, magnitude=0.2)
            dphi = differential(L, s.phi)
            base = coflow_rhs(L, s, 0.0)
            for A in (1.0, -2.5, 0.3):
                diff = coflow_rhs(L, s, A) - base
                err = np.max(np.abs(diff.coeffs - 2.0 * A * dphi.coeffs))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(dphi.coeffs)))

    def test_rhs_is_closed(self, ee1, ee2, rng):
        # Laplacian(psi) is d delta psi for coclosed psi and the
        # correction is exact, so the right-hand side is a closed 4-form.
        for L in (ee1, ee2):
            d4 = L.differential_matrix(4)
            for A in (0.0, 1.0):
                for _ in range(3):
                    _, s = coclosed_sample(L, rng, magnitude=0.25)
                    rhs = coflow_rhs(L, s, A)
                    assert np.max(np.abs(d4 @ rhs.coeffs)) <= 1e-12

    @pytest.mark.parametrize("subspace", ["coclosed", "exact"])
    def test_exact_form_matches_the_laplacian_on_closed_samples(self, ee1, ee2, subspace):
        # On a closed psi the right-hand side d(delta psi + 2 (A - trT) phi)
        # is the four-star Hodge Laplacian of psi plus 2 (A - trT) d(phi),
        # one state at a time and as one stack.
        pcfg = PerturbationConfig(seed=0, magnitude=0.25, subspace=subspace)
        for L in (ee1, ee2):
            rng = np.random.default_rng(11)
            draws = [sample_initial(L, standard_psi(), pcfg, rng) for _ in range(50)]
            psi = np.array([form.coeffs for form, *_ in draws])
            for A in (0.0, 0.5):
                _, rows, _, _, alone = _stacked_rhs(L, "modified_coflow", 4, A, psi)
                assert not alone
                for (form, _, _, s), row in zip(draws, rows):
                    dphi = differential(L, s.phi).coeffs
                    want = hodge_laplacian(L, s.metric, form).coeffs
                    want = want + 2.0 * (A - torsion_trace(L, s)) * dphi
                    scale = 1e-12 * max(1.0, float(np.linalg.norm(want)))
                    assert np.linalg.norm(coflow_rhs(L, s, A).coeffs - want) <= scale
                    assert np.linalg.norm(row - want) <= scale

    def test_takes_two_stars(self, ee2, rng, monkeypatch):
        # One star of d(phi) and one of the 7-form in the torsion trace.
        _, s = coclosed_sample(ee2, rng, magnitude=0.2)
        stars = _count_stars(monkeypatch)
        coflow_rhs(ee2, s, 0.5)
        assert sorted(stars) == [4, 7]


def _count_stars(monkeypatch):
    """Record the degree of every Metric.star_coeffs call from now on."""
    stars = []
    star_coeffs = Metric.star_coeffs

    def counting(self, k, coeffs):
        stars.append(k)
        return star_coeffs(self, k, coeffs)

    monkeypatch.setattr(Metric, "star_coeffs", counting)
    return stars


class TestLaplacianFlowRhs:
    def test_matches_laplacian_of_phi(self, n2):
        # On a closed phi the right-hand side d delta phi is its full
        # Hodge Laplacian; the n2 forms are closed positive 3-forms.
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = G2Structure.from_phi(closed_n2_phi(rng))
            assert np.linalg.norm(differential(n2, s.phi).coeffs) == 0.0
            got = laplacian_flow_rhs(n2, s).coeffs
            want = hodge_laplacian(n2, s.metric, s.phi).coeffs
            assert np.linalg.norm(want) > 0.1
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_takes_one_star_besides_the_cached_psi(self, n2, monkeypatch):
        s = G2Structure.from_phi(closed_n2_phi(np.random.default_rng(0)))
        s.psi  # the record needs psi anyway; the first rk4 stage shares it
        stars = _count_stars(monkeypatch)
        laplacian_flow_rhs(n2, s)
        assert stars == [5]

    def test_torus_is_static(self, torus):
        s = G2Structure.from_phi(standard_phi())
        assert np.max(np.abs(laplacian_flow_rhs(torus, s).coeffs)) == 0.0


class TestDeTurck:
    def test_zero_constants_vanish(self, ee1, rng):
        _, s = coclosed_sample(ee1, rng, magnitude=0.2)
        flat = Connection(np.zeros((DIM, DIM, DIM)))
        assert np.linalg.norm(deturck_vector(ee1, s, flat, 0.0, 0.0)) == 0.0

    def test_levi_civita_reference_vanishes(self, ee2, rng):
        # The difference tensor against the structure's own
        # Levi-Civita connection is zero.
        _, s = coclosed_sample(ee2, rng, magnitude=0.2)
        ref = levi_civita(ee2, s.metric)
        assert np.linalg.norm(deturck_vector(ee2, s, ref, 1.0, 2.0)) <= 1e-14

    def test_flat_reference_vanishes_on_unimodular(self, ee1, ee2, rng):
        # With the frame-flat reference both contractions of the
        # symmetrized difference tensor are ad-traces, which vanish on a
        # unimodular algebra; the default gauge term is a no-op there.
        flat = Connection(np.zeros((DIM, DIM, DIM)))
        for L in (ee1, ee2):
            _, s = coclosed_sample(L, rng, magnitude=0.2)
            assert np.linalg.norm(deturck_vector(L, s, flat, 1.0, 0.0)) <= 1e-14
            assert np.linalg.norm(deturck_vector(L, s, flat, 0.0, 1.0)) <= 1e-14

    def test_general_reference_acts_linearly(self, ee2, rng):
        psi, s = coclosed_sample(ee2, rng, magnitude=0.2)
        ref = Connection(rng.normal(size=(DIM, DIM, DIM)))
        va = deturck_vector(ee2, s, ref, 1.0, 0.0)
        vb = deturck_vector(ee2, s, ref, 0.0, 1.0)
        vab = deturck_vector(ee2, s, ref, 2.0, 3.0)
        assert np.linalg.norm(va) > 1e-3
        assert np.linalg.norm(vb) > 1e-3
        assert np.linalg.norm(vab - 2.0 * va - 3.0 * vb) <= 1e-12
        term = deturck_term(ee2, psi, ref, 1.0, 0.5)
        assert term.degree == 4
        assert np.linalg.norm(term.coeffs) > 1e-3
        # The Lie derivative of the flowing form along the vector of its structure.
        v = deturck_vector(ee2, s, ref, 1.0, 0.5)
        assert term.coeffs.tobytes() == lie_derivative(ee2, v, psi).coeffs.tobytes()

    def test_enabled_flat_gauge_reproduces_plain_flow(self, ee2, rng):
        # On a unimodular algebra the built-in (frame-flat) gauge reference
        # contributes nothing, so enabling it must not change the trajectory.
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.15)
        integ = IntegratorConfig(dt=1e-3, t_end=0.01)
        plain = integrate(ee2, FlowConfig(integrator=integ), psi)
        gauged = integrate(
            ee2,
            FlowConfig(deturck=DeTurckConfig(enabled=True, c1=1.0, c2=0.5), integrator=integ),
            psi,
        )
        assert np.max(np.abs(plain.final.psi.coeffs - gauged.final.psi.coeffs)) <= 1e-12


class TestVolumeMonotonicity:
    def test_matches_volume_derivative(self, ee1, ee2, rng):
        # Finite-differencing the volume along the flow direction
        # gives dV/dt = (1/2) * criterion * V; in particular the volume grows
        # exactly when the criterion is positive.
        h = 1e-6
        checked = 0
        for L in (ee1, ee2):
            for A in (0.0, 1.0, -0.5):
                psi, s = coclosed_sample(L, rng, magnitude=0.3)
                crit = volume_monotonicity_criterion(L, s, A)
                vol = s.volume
                f = coflow_rhs(L, s, A).coeffs
                vp = phi_of_psi(Form(4, psi.coeffs + h * f)).volume
                vm = phi_of_psi(Form(4, psi.coeffs - h * f)).volume
                dvdt = (vp - vm) / (2.0 * h)
                if abs(crit) < 1e-4:
                    continue  # sign is ambiguous at the stationary locus
                assert dvdt / (crit * vol) == pytest.approx(0.5, rel=1e-4)
                assert (dvdt > 0) == (crit > 0)
                checked += 1
        assert checked >= 4


DEGREES = range(1, DIM)


class TestDirectionBases:
    # The bases of every degree from 1 to 6 on the abelian, the two
    # solvable and the nilpotent algebra.
    def test_coclosed_directions_are_closed_and_orthonormal(self, torus, ee1, ee2, n2):
        for L in (torus, ee1, ee2, n2):
            for k in DEGREES:
                d = L.differential_matrix(k)
                dirs = closed_directions(L, k)
                assert {f.degree for f in dirs} == {k}
                assert len(dirs) == DIMS[k] - np.linalg.matrix_rank(d)
                mat = np.column_stack([f.coeffs for f in dirs])
                assert np.all(np.linalg.norm(d @ mat, axis=0) <= 1e-12)  # |x| = 1
                assert np.max(np.abs(mat.T @ mat - np.eye(len(dirs)))) <= 1e-12

    def test_exact_directions_are_closed_and_inside_coclosed(self, torus, ee1, ee2, n2):
        # d of a (k-1)-form is closed because d squares to zero, so the
        # exact directions sit inside the span of the closed ones; what is
        # left over, the cohomology, is as large as the kernel of the Hodge
        # Laplacian of any metric (here the identity), an independent oracle.
        for L in (torus, ee1, ee2, n2):
            for k in DEGREES:
                below, d = L.differential_matrix(k - 1), L.differential_matrix(k)
                exact = exact_directions(L, k)
                closed = np.column_stack([f.coeffs for f in closed_directions(L, k)])
                assert len(exact) == np.linalg.matrix_rank(below)
                laplacian = hodge_laplacian_matrix(L, Metric.identity(), k)
                harmonic = DIMS[k] - np.linalg.matrix_rank(laplacian)
                assert closed.shape[1] - len(exact) == harmonic
                if not exact:
                    continue
                mat = np.column_stack([f.coeffs for f in exact])
                assert {f.degree for f in exact} == {k}
                assert np.max(np.abs(mat.T @ mat - np.eye(len(exact)))) <= 1e-12
                assert np.max(np.abs(d @ mat)) <= 1e-12
                assert np.linalg.norm(mat - closed @ (closed.T @ mat)) <= 1e-12
                # genuinely in the image of d on (k-1)-forms
                sol, *_ = np.linalg.lstsq(below, mat, rcond=None)
                assert np.linalg.norm(below @ sol - mat) <= 1e-12

    def test_torus_has_no_exact_directions(self, torus):
        for k in range(DIM + 1):
            assert exact_directions(torus, k) == []
            assert len(closed_directions(torus, k)) == DIMS[k]


class TestIntegrate:
    def test_static_state_stays_put(self, ee1):
        # Long run at the stationary state: the trajectory must not drift.
        cfg = FlowConfig(integrator=IntegratorConfig(dt=1e-2, t_end=10.0))
        traj = integrate(ee1, cfg, standard_psi())
        assert traj.termination["status"] == "completed"
        assert traj.termination["reason"] == "t_end"
        assert traj.final.diagnostics["dist_ref"] <= 1e-8
        assert traj.final.diagnostics["closedness"] <= 1e-10
        # 1000 steps recorded every 10, plus the initial snapshot.
        assert traj.termination["steps"] == 1000
        assert len(traj.states) == 101

    def test_record_shares_recovery_and_rhs_with_next_step(self, ee2, rng, monkeypatch):
        """With a record every step, rk4 costs four recoveries and four
        right-hand sides per step (plus the start's recovery and right-hand
        side, for the initial snapshot): a record and the next step's first
        stage share both.  One row runs the kernels of one form: the
        closed-form recovery and ``_coflow_rhs``."""
        import g2flow.flows

        psi, _ = coclosed_sample(ee2, rng, magnitude=0.2)
        counts = {"recoveries": 0, "rhs": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            g2flow.flows, "_closed_form", counting("recoveries", g2flow.flows._closed_form)
        )
        monkeypatch.setattr(
            g2flow.flows, "_coflow_rhs", counting("rhs", g2flow.flows._coflow_rhs)
        )
        cfg = FlowConfig(
            integrator=IntegratorConfig(dt=1e-3, t_end=0.01),
            monitors=MonitorConfig(record_every=1),
        )
        traj = integrate(ee2, cfg, psi)
        assert traj.termination["steps"] == 10
        assert counts == {"recoveries": 41, "rhs": 41}

    @pytest.mark.parametrize("flow_kind, per_evaluation", [
        ("modified_coflow", 2), ("laplacian_flow", 1),
    ])
    def test_each_metric_is_factorised_once(self, ee2, n2, rng, monkeypatch, flow_kind,
                                            per_evaluation):
        """A Laplacian evaluation factorises and inverts its B once; a coflow
        recovery does so for the structures of chi and of phi.  No
        determinant is taken, and records take no linear algebra: 10
        recorded rk4 steps make 41 evaluations, the start's included (see
        the test above)."""
        if flow_kind == "modified_coflow":
            L, start = ee2, coclosed_sample(ee2, rng, magnitude=0.2)[0]
        else:
            L, start = n2, closed_n2_phi(rng)
        counts = {"det": 0, "inv": 0, "cholesky": 0}
        for name in counts:
            def counting(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        cfg = FlowConfig(
            flow_kind=flow_kind,
            integrator=IntegratorConfig(dt=1e-3, t_end=0.01),
            monitors=MonitorConfig(record_every=1),
        )
        traj = integrate(L, cfg, start)
        assert (traj.termination["steps"], len(traj.states)) == (10, 11)
        n = 41 * per_evaluation
        assert counts == {"det": 0, "inv": n, "cholesky": n}

    def test_rk4_and_rkf45_agree(self, ee2, rng):
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.2)
        results = {}
        for method in ("rk4", "rkf45"):
            cfg = FlowConfig(
                integrator=IntegratorConfig(method=method, dt=1e-3, t_end=0.1, rel_tol=1e-10)
            )
            traj = integrate(ee2, cfg, psi)
            assert traj.termination["status"] == "completed"
            results[method] = traj.final.psi.coeffs
        assert np.max(np.abs(results["rk4"] - results["rkf45"])) <= 1e-8

    def test_closedness_preserved_along_run(self, ee2, rng):
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.25)
        cfg = FlowConfig(
            integrator=IntegratorConfig(dt=1e-3, t_end=0.05),
            monitors=MonitorConfig(record_every=5),
        )
        traj = integrate(ee2, cfg, psi)
        assert traj.termination["status"] == "completed"
        worst = max(s.diagnostics["closedness"] for s in traj.states)
        assert worst <= 1e-10

    def test_deterministic_records(self, ee2, rng):
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(integrator=IntegratorConfig(dt=1e-3, t_end=0.02))
        a = integrate(ee2, cfg, psi).records()
        b = integrate(ee2, cfg, psi).records()
        assert json.dumps(a) == json.dumps(b)

    def test_reference_anchors_distance(self, ee2, rng):
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(integrator=IntegratorConfig(dt=1e-3, t_end=0.01))
        traj = integrate(ee2, cfg, psi, reference=standard_psi())
        expected = float(np.linalg.norm(psi.coeffs - standard_psi().coeffs))
        assert traj.states[0].diagnostics["dist_ref"] == pytest.approx(expected, rel=1e-12)

    def test_disabled_monitors_record_none(self, ee1):
        cfg = FlowConfig(
            integrator=IntegratorConfig(dt=1e-2, t_end=0.05),
            monitors=MonitorConfig(record_every=1, trT=False, volume=False, dist_ref=False),
        )
        traj = integrate(ee1, cfg, standard_psi())
        rec = traj.final.record()
        assert rec["trT"] is None
        assert rec["volume"] is None
        assert rec["dist_ref"] is None
        assert rec["closedness"] is not None
        assert rec["rhs_norm"] is not None

    def test_wrong_initial_type_raises(self, ee1):
        # Each flow takes the form it flows: a 4-form for the coflow, a
        # 3-form for the Laplacian flow, alone or in a list.
        message = "{} flows a {}-form; a start has degree {}"
        with pytest.raises(DegreeError, match=message.format("modified_coflow", 4, 3)):
            integrate(ee1, FlowConfig(), standard_phi())
        laplacian = FlowConfig(flow_kind="laplacian_flow")
        with pytest.raises(DegreeError, match=message.format("laplacian_flow", 3, 4)):
            integrate(ee1, laplacian, [standard_phi(), standard_psi()])

    @pytest.mark.parametrize(
        "flow_kind, start, error, message",
        [
            ("modified_coflow", -standard_psi(), RecoveryError,
             "4-form is not positive (its dual 3-form: 3-form is not positively oriented"),
            ("laplacian_flow", -standard_phi(), PositivityError,
             "3-form is not positively oriented"),
        ],
    )
    def test_a_start_that_is_not_positive_raises_its_recovery_error(
        self, torus, flow_kind, start, error, message
    ):
        # The error its recovery raises, before any step; in an ensemble
        # too, where the other start is positive.
        cfg = FlowConfig(flow_kind=flow_kind)
        good = standard_psi() if flow_kind == "modified_coflow" else standard_phi()
        for starts in (start, [good, start]):
            with pytest.raises(error, match=re.escape(message)):
                integrate(torus, cfg, starts)

    def test_invalid_config_raises(self, ee1):
        with pytest.raises(ConfigError, match="integrator.dt must be > 0"):
            integrate(ee1, FlowConfig(integrator=IntegratorConfig(dt=-1.0)), standard_psi())

    def test_torus_laplacian_flow_completes(self, torus):
        cfg = FlowConfig(flow_kind="laplacian_flow", integrator=IntegratorConfig(dt=1e-2, t_end=1.0))
        traj = integrate(torus, cfg, standard_phi())
        assert traj.termination["status"] == "completed"
        assert traj.final.diagnostics["dist_ref"] == 0.0
        assert traj.final.form.degree == 3 and traj.final.psi.degree == 4

    def test_rk4_runs_build_no_operator_matrices(self, ee2, n2, monkeypatch):
        """The right-hand sides and records apply the star and the Laplacian
        matrix-free: 5 rk4 steps of either flow form no star matrix, no Gram
        matrix and no Laplacian matrix."""
        import g2flow.liealg

        coflow_start = coclosed_sample(ee2, np.random.default_rng(0), magnitude=0.1)[0]
        laplacian_start = standard_phi()
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(Metric, "star_matrix", counting("star", Metric.star_matrix))
        monkeypatch.setattr(Metric, "gram", counting("gram", Metric.gram))
        lap_matrix = counting("laplacian", g2flow.liealg.hodge_laplacian_matrix)
        for name, module in list(sys.modules.items()):
            if name.startswith("g2flow") and hasattr(module, "hodge_laplacian_matrix"):
                monkeypatch.setattr(module, "hodge_laplacian_matrix", lap_matrix)
        integrator = IntegratorConfig(dt=1e-2, t_end=0.05)
        for L, kind, start in (
            (ee2, "modified_coflow", coflow_start),
            (n2, "laplacian_flow", laplacian_start),
        ):
            cfg = FlowConfig(
                flow_kind=kind, integrator=integrator, monitors=MonitorConfig(record_every=1)
            )
            traj = integrate(L, cfg, start)
            assert traj.termination["reason"] == "t_end" and traj.termination["steps"] == 5
        assert calls == []
        # The counters see the matrix path when it is taken.
        g2flow.liealg.hodge_laplacian_matrix(ee2, Metric.identity(), 3)
        assert calls[0] == "laplacian" and "star" in calls
        calls.clear()
        Metric.identity().gram(3)
        assert calls[0] == "gram"

    def test_recorded_states_hold_no_structure_or_metric(self, ee2, n2):
        def held(obj):
            if isinstance(obj, dict):
                return [v for x in obj.values() for v in held(x)]
            if isinstance(obj, (list, tuple)):
                return [v for x in obj for v in held(x)]
            return [obj] + (held(vars(obj)) if hasattr(obj, "__dict__") else [])

        coflow_start = coclosed_sample(ee2, np.random.default_rng(1), magnitude=0.1)[0]
        integrator = IntegratorConfig(dt=1e-2, t_end=0.03)
        for L, kind, start in (
            (ee2, "modified_coflow", coflow_start),
            (n2, "laplacian_flow", standard_phi()),
        ):
            cfg = FlowConfig(flow_kind=kind, integrator=integrator)
            traj = integrate(L, cfg, start)
            for state in traj.states:
                assert set(vars(state)) == {"t", "form", "psi", "diagnostics"}
                assert not any(
                    isinstance(v, (G2Structure, Metric)) for v in held(state)
                )
                assert state.psi.degree == 4

    def test_rkf45_proposes_steps_from_its_acceptance_scale(self, tmp_path):
        # A step is accepted when err <= rel_tol * max(1, |y|), and the next
        # step is sized from the same scale (|psi| is about 2.6 here; sizing
        # from rel_tol alone took 13 steps).
        summary = ee2_flow_run(tmp_path, 0.0, {"method": "rkf45", "t_end": 1.0}, 0.05, 1).summary
        assert summary["termination"]["reason"] == "t_end"
        assert summary["termination"]["steps"] == 12

    def test_rkf45_error_estimate_is_fifth_order(self, ee2):
        """Halving the step divides the embedded error estimate by about
        2^5 (the local error of the fourth-order solution is O(h^5))."""
        f = lambda y: coflow_rhs(ee2, phi_of_psi(Form(4, y)), 0.0).coeffs  # noqa: E731
        for seed in (0, 3, 7):
            pcfg = PerturbationConfig(magnitude=0.1, seed=seed)
            form, *_ = sample_initial(ee2, standard_psi(), pcfg, np.random.default_rng(seed))
            coarse = _rkf45_attempt(f, form.coeffs, 0.04)[1]
            fine = _rkf45_attempt(f, form.coeffs, 0.02)[1]
            assert 24.0 <= coarse / fine <= 40.0


class TestHalts:
    def test_initial_closedness_violation(self, ee1, monkeypatch):
        # A generic 4-form is not closed; the run must stop before stepping.
        # Its start is evaluated as any start is, but d chi is the flow only
        # on closed forms, so the record's rhs_norm is null.
        from g2flow import flows

        psi = Form(4, standard_psi().coeffs + 1e-3 * np.arange(35, dtype=float))
        calls = []
        rhs = flows._coflow_rhs  # the kernel of every coflow right-hand side
        monkeypatch.setattr(flows, "_coflow_rhs", lambda *a: calls.append(1) or rhs(*a))
        traj = integrate(ee1, FlowConfig(), psi)
        term = traj.termination
        assert term["status"] == "halted"
        assert term["reason"] == "closedness"
        assert term["t"] == 0.0
        assert term["detail"] == "initial state violates the closedness tolerance"
        assert len(traj.states) == 1
        record = traj.final.record()
        assert record["rhs_norm"] is None
        assert record["closedness"] > FlowConfig().halt.closedness_tol
        assert calls == [1]

    def test_closed_start_is_checked_with_the_monitor_off(self, ee1):
        # The right-hand side equals the flow only on closed forms, so the
        # t = 0 check does not hang on the closedness monitor.
        psi = Form(4, standard_psi().coeffs + 1e-3 * np.arange(35, dtype=float))
        cfg = FlowConfig(monitors=MonitorConfig(closedness=False))
        traj = integrate(ee1, cfg, psi)
        term = traj.termination
        assert (term["status"], term["reason"], term["t"]) == ("halted", "closedness", 0.0)
        assert len(traj.states) == 1
        assert traj.final.record()["closedness"] is None

    def test_laplacian_flow_requires_closed_start(self, ee1):
        # The standard 3-form is not closed on this algebra, so the closed-form
        # guard trips immediately for the 3-form flow as well.
        cfg = FlowConfig(flow_kind="laplacian_flow")
        traj = integrate(ee1, cfg, standard_phi())
        assert traj.termination["status"] == "halted"
        assert traj.termination["reason"] == "closedness"
        assert traj.termination["t"] == 0.0

    def test_rhs_norm_threshold(self, ee2, rng):
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(
            integrator=IntegratorConfig(dt=1e-3, t_end=1.0),
            monitors=MonitorConfig(record_every=1),
            halt=HaltConfig(max_rhs_norm=1e-6),
        )
        traj = integrate(ee2, cfg, psi)
        term = traj.termination
        assert term["status"] == "halted"
        assert term["reason"] == "rhs_blowup"
        assert term["detail"].startswith("rhs_norm ")
        # The offending snapshot is kept so the cause is inspectable.
        assert traj.final.diagnostics["rhs_norm"] > 1e-6

    def test_step_underflow(self, ee2, rng):
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(
            integrator=IntegratorConfig(method="rkf45", dt=1e-3, t_end=1.0, rel_tol=1e-300)
        )
        traj = integrate(ee2, cfg, psi)
        term = traj.termination
        assert term["status"] == "halted"
        assert term["reason"] == "step_underflow"
        assert term["t"] == 0.0
        assert term["detail"].startswith("step size fell to ")

    @staticmethod
    def _halting_ee2_run(tmp_path, method):
        return ee2_flow_run(tmp_path, 0.5, {"method": method, "dt": 0.01, "t_end": 1.0}, 0.2, 0)

    def test_rkf45_recovery_stall_names_its_residual(self, tmp_path):
        # NEWTON_TOL is an absolute gate: this run stalls at the forward
        # map's rounding floor, just above it.
        term = self._halting_ee2_run(tmp_path, "rkf45").summary["termination"]
        assert term["status"] == "halted" and term["reason"] == "newton"
        match = re.fullmatch(r"recovery correction stalled \(residual (\S+)\)", term["detail"])
        assert match, term["detail"]
        assert NEWTON_TOL < float(match.group(1)) <= 1e-10

    def test_rk4_halts_when_the_dual_3_form_stops_being_positive(self, tmp_path):
        result = self._halting_ee2_run(tmp_path, "rk4")
        summary, term = result.summary, result.summary["termination"]
        assert term["status"] == "halted" and term["reason"] == "newton"
        assert term["steps"] == 55
        # The halt falls between records (every 10 steps); the trajectory
        # still ends on the last accepted state.
        assert summary["final_t"] == term["t"]
        last = json.loads(Path(result.files[0]).read_text().splitlines()[-1])
        assert last["t"] == term["t"]
        assert term["detail"].startswith("4-form is not positive (its dual 3-form: ")

    def test_recovery_failure_on_huge_step(self, ee2, rng):
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(integrator=IntegratorConfig(dt=1e4, t_end=1e5))
        traj = integrate(ee2, cfg, psi)
        term = traj.termination
        assert term["status"] == "halted"
        assert term["reason"] in ("newton", "positivity")
        assert term["detail"] != ""


def _alone(L, cfg, starts, A):
    """Each start integrated on its own, with its own A."""
    return [
        integrate(L, dataclasses.replace(cfg, A=a), start) for start, a in zip(starts, A)
    ]


def _coframe_change(N, k):
    """Matrix taking the k-form coefficients in the coframe e to those in
    the coframe f with e^i = sum_a N[i, a] f^a: the k x k minors of N."""
    out = np.empty((DIMS[k], DIMS[k]))
    for p, J in enumerate(BASIS[k]):
        cols = [j - 1 for j in J]
        for q, I in enumerate(BASIS[k]):
            out[p, q] = np.linalg.det(N[np.ix_([i - 1 for i in I], cols)])
    return out


def _changed_coframe(L, form, seed):
    """The algebra L and the 3- or 4-form written in the generic coframe
    f = M e, M = 1 + 0.3 R: the same flow, with dense, non-integer
    structure constants."""
    M = np.eye(DIM) + 0.3 * np.random.default_rng(seed).standard_normal((DIM, DIM))
    N = np.linalg.inv(M)
    two = _coframe_change(N, 2)
    d1 = [Form(2, two @ sum(M[a, k] * L.d1[k].coeffs for k in range(DIM))) for a in range(DIM)]
    changed = _coframe_change(N, form.degree) @ form.coeffs
    return LieAlgebraStructure(d1=tuple(d1)), Form(form.degree, changed)


class TestEnsembles:
    """``integrate`` over a list of starts steps them in lockstep; each row's
    trajectory is the one its start gets alone."""

    CFG = FlowConfig(
        integrator=IntegratorConfig(dt=0.02, t_end=0.3),
        monitors=MonitorConfig(record_every=4),
    )

    @staticmethod
    def _starts(L, seeds, magnitude):
        out = []
        for seed in seeds:
            pcfg = PerturbationConfig(magnitude=magnitude, seed=seed)
            out.append(sample_initial(L, standard_psi(), pcfg, np.random.default_rng(seed))[0])
        return out

    def test_rows_match_their_runs_alone(self, ee2):
        # At A = 1 the rows lose positivity at steps 13 and 12, between
        # records; the other rows step on to t_end.
        starts = self._starts(ee2, (2, 5, 2, 5), 0.1)
        A = [0.0, 0.0, 1.0, 1.0]
        rows = integrate(ee2, self.CFG, starts, A=A)
        alone = _alone(ee2, self.CFG, starts, A)
        assert [t.termination["reason"] for t in rows] == ["t_end", "t_end", "newton", "newton"]
        assert [t.termination["steps"] for t in rows] == [15, 15, 13, 12]
        for row, want in zip(rows, alone):
            assert row.termination == want.termination
            assert row.records() == want.records()
            # the halt-time record of a halt between records
            assert row.final.t == want.termination["t"]

    def test_rows_match_on_dense_structure_constants(self, ee2):
        # The rows of d each sum many non-integer terms here, so a stacked
        # d must round every row as the form alone does.
        L, psi = _changed_coframe(ee2, standard_psi(), seed=4)
        assert (np.abs(L.differential_matrix(3)) > 1e-3).sum(axis=1).min() >= 3
        assert (np.abs(L.differential_matrix(4)) > 1e-3).sum(axis=1).min() >= 3
        assert np.abs(L.d1[0].coeffs - np.round(L.d1[0].coeffs)).max() > 0.1
        starts = []
        for seed in (0, 1, 2):
            pcfg = PerturbationConfig(magnitude=0.1, seed=seed)
            starts.append(sample_initial(L, psi, pcfg, np.random.default_rng(seed))[0])
        A = [0.0, 0.25, 0.5]
        rows = integrate(L, self.CFG, starts, A=A)
        assert [t.termination["reason"] for t in rows] == ["t_end"] * 3
        for row, want in zip(rows, _alone(L, self.CFG, starts, A)):
            assert row.termination == want.termination
            assert row.records() == want.records()

    def test_rows_are_stacked(self, ee2, monkeypatch):
        from g2flow import flows

        rows, one_form = [], []
        stack, recover = flows.stack_from_psi, flows._structure_alone
        monkeypatch.setattr(flows, "stack_from_psi", lambda y: rows.append(len(y)) or stack(y))
        starts = self._starts(ee2, (0, 1, 2), 0.05)
        counting = lambda degree, psi: one_form.append(1) or recover(degree, psi)  # noqa: E731
        monkeypatch.setattr(flows, "_structure_alone", counting)
        trajectories = integrate(ee2, self.CFG, starts, A=[0.0, 0.5, 0.25])
        assert [t.termination["reason"] for t in trajectories] == ["t_end"] * 3
        # The starts, then four stages in each of 15 steps, less the first
        # stages of steps 1, 5, 9 and 13 (they reuse the starts and the
        # records), plus the records at steps 4, 8, 12 and 15.
        assert rows == [3] * (1 + 15 * 4 - 4 + 4)
        assert one_form == []
        # One row takes the closed form of one form, and passes its gate.
        rows.clear()
        closed_forms, closed_form = [], flows._closed_form
        monkeypatch.setattr(
            flows, "_closed_form", lambda psi: closed_forms.append(1) or closed_form(psi)
        )
        (single,) = integrate(ee2, self.CFG, starts[:1])
        assert rows == [] and len(one_form) == len(closed_forms) == 1 + 15 * 4 - 4 + 4
        assert single.records() == integrate(ee2, self.CFG, starts[0]).records()

    def test_a_start_that_is_not_closed_halts_alone(self, ee2, monkeypatch):
        from g2flow import flows

        psi = Form(4, standard_psi().coeffs + 1e-3 * np.arange(35, dtype=float))
        starts = [psi] + self._starts(ee2, (0, 1), 0.05)
        # Every 3-form whose right-hand side is evaluated, and every 4-form
        # that is recovered, one by one or stacked.
        seen = []
        rhs, closed_form, stack = flows._coflow_rhs, flows._closed_form, flows.stack_from_psi
        monkeypatch.setattr(
            flows,
            "_coflow_rhs",
            lambda L, g, phi, A: seen.extend(np.atleast_2d(phi)) or rhs(L, g, phi, A),
        )
        monkeypatch.setattr(flows, "_closed_form", lambda y: seen.append(y) or closed_form(y))
        monkeypatch.setattr(flows, "stack_from_psi", lambda y: seen.extend(y) or stack(y))
        rows = integrate(ee2, self.CFG, starts)
        # The start is evaluated once, in the stack of the starts, and never
        # stepped.
        phi = phi_of_psi(psi).phi_coeffs
        assert sum(np.array_equal(y, psi.coeffs) for y in seen) == 1
        assert sum(np.array_equal(y, phi) for y in seen) == 1
        term = rows[0].termination
        assert (term["reason"], term["t"], len(rows[0].states)) == ("closedness", 0.0, 1)
        assert rows[0].final.record()["rhs_norm"] is None
        for row, want in zip(rows, _alone(ee2, self.CFG, starts, [0.0] * 3)):
            assert row.records() == want.records()
            assert row.termination == want.termination

    def test_one_row_is_a_single_start(self, ee2):
        (psi,) = self._starts(ee2, (0,), 0.05)
        short = IntegratorConfig(t_end=0.01)
        for cfg, start in (
            (FlowConfig(integrator=IntegratorConfig(method="rkf45", t_end=0.01)), psi),
            (FlowConfig(integrator=short, deturck=DeTurckConfig(enabled=True)), psi),
            (FlowConfig(integrator=short, flow_kind="laplacian_flow"), phi_of_psi(psi).phi),
        ):
            (row,) = integrate(ee2, cfg, [start])
            _same_bits(row, integrate(ee2, cfg, start))

    def test_rkf45_rows_drift_apart_and_match_their_runs_alone(self, ee2, monkeypatch):
        # Each row sizes its own steps from dt 1e-12.  At A = 1 the second
        # row stalls in Newton; at A = 1e10 the third runs into a singularity
        # at t ~ 2.9e-11, where its step falls below the floor.  Both are
        # rejected on the way; the rows end at different t.
        from g2flow import flows

        (calm,) = self._starts(ee2, (0,), 0.05)
        (rough,) = self._starts(ee2, (3,), 0.2)
        starts, A = [calm, rough, calm], [0.0, 1.0, 1e10]
        cfg = FlowConfig(
            integrator=IntegratorConfig(method="rkf45", dt=1e-12, t_end=0.3),
            monitors=MonitorConfig(record_every=3),
        )
        recovered, attempts = [], []
        stack, recover = flows.stack_from_psi, flows._structure_alone
        attempt = flows._rkf45_attempt

        def stacked(y):
            out = stack(y)
            recovered.append(int((~out[1]).sum()))  # a marked row is recovered again alone
            return out

        monkeypatch.setattr(flows, "stack_from_psi", stacked)
        monkeypatch.setattr(
            flows, "_structure_alone", lambda degree, y: recovered.append(1) or recover(degree, y)
        )
        monkeypatch.setattr(
            flows, "_rkf45_attempt", lambda f, y, h: attempts.append(len(y)) or attempt(f, y, h)
        )
        rows = integrate(ee2, cfg, starts, A=A)
        in_ensemble, recovered[:] = sum(recovered), []
        alone, rejected = [], []
        for start, a in zip(starts, A):
            attempts.clear()
            alone.append(integrate(ee2, dataclasses.replace(cfg, A=a), start))
            rejected.append(len(attempts) - alone[-1].termination["steps"])
        terms = [t.termination for t in rows]
        assert [(t["reason"], t["steps"]) for t in terms] == [
            ("t_end", 20), ("newton", 57), ("step_underflow", 37)
        ]
        assert len({t["t"] for t in terms}) == 3
        # Attempts that took no step: rejections, and a halted row's last attempt.
        assert rejected == [0, 34, 35]
        for row, want in zip(rows, alone):
            _same_bits(row, want)
        # The same recoveries as the rows alone: a retried attempt re-evaluates
        # its first stage in the ensemble too.
        assert in_ensemble == sum(recovered)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("flow_kind", ["modified_coflow", "laplacian_flow"])
    def test_deturck_rows_match_their_runs_alone(self, ee2, n2, flow_kind, method):
        if flow_kind == "modified_coflow":
            L, starts = ee2, self._starts(ee2, (0, 1, 2), 0.1)
        else:
            rngs = [np.random.default_rng(seed) for seed in (0, 1, 2)]
            L, starts = n2, [closed_n2_phi(rng) for rng in rngs]
        cfg = dataclasses.replace(
            self.CFG,
            flow_kind=flow_kind,
            deturck=DeTurckConfig(enabled=True, c1=0.7, c2=-0.4),
            integrator=IntegratorConfig(method=method, dt=0.02, t_end=0.3),
        )
        A = [0.0, 0.3, 0.6]
        rows = integrate(L, cfg, starts, A=A)
        assert [t.termination["reason"] for t in rows] == ["t_end"] * 3
        for row, want in zip(rows, _alone(L, cfg, starts, A)):
            _same_bits(row, want)

    @pytest.mark.parametrize(
        "method, stacked, reasons",
        [
            ("rk4", 15 * 4 - 4 + 4, ["t_end"] * 3),
            # A start scaled by 1e-4 moves about 460 times as fast: a stage
            # of its first attempt is not positive.  The stack marks it, and
            # it halts as it does alone.
            ("rkf45", 30, ["t_end"] * 3 + ["positivity"]),
        ],
    )
    def test_laplacian_rows_match_their_runs_alone(
        self, n2, monkeypatch, method, stacked, reasons
    ):
        from g2flow import flows

        phis = [closed_n2_phi(np.random.default_rng(seed)) for seed in (0, 1, 2)]
        if method == "rkf45":
            phis.append(1e-4 * phis[0])
        starts = phis
        cfg = dataclasses.replace(
            self.CFG, flow_kind="laplacian_flow", integrator=IntegratorConfig(method, 0.02, 0.3)
        )
        calls, induced = [], flows._induced

        def counting(x, bad=None):
            calls.append((1 if bad is None else len(x), bad))
            return induced(x, bad)

        monkeypatch.setattr(flows, "_induced", counting)
        rows = integrate(n2, cfg, starts)
        assert [t.termination["reason"] for t in rows] == reasons
        n = len(starts)
        sizes = [size for size, _ in calls]
        marked = [0 if bad is None else int(bad.sum()) for _, bad in calls]
        # The stack of the starts, then the stacks of the steps.
        assert sum(size > 1 for size in sizes) == 1 + stacked
        if method == "rk4":
            # As in test_rows_are_stacked; no call takes one form.
            assert sizes == [n] * (1 + stacked) and sum(marked) == 0
        else:
            # After the stack of the starts, the sixth stage of the first
            # attempt marks the scaled row, which is redone alone and halts.
            # The other rows drift apart in t, and the last one left steps
            # alone.
            assert (sizes[5:7], marked[5:7]) == ([n, 1], [1, 0])
            assert sum(marked) == 1 and sizes.count(1) == 8
        for row, want in zip(rows, _alone(n2, cfg, starts, [0.0] * n)):
            _same_bits(row, want)

    def test_laplacian_rows_match_on_dense_structure_constants(self, n2):
        phis = [closed_n2_phi(np.random.default_rng(seed)) for seed in (0, 1, 2)]
        changed = [_changed_coframe(n2, phi, seed=4) for phi in phis]
        L = changed[0][0]
        assert (np.abs(L.differential_matrix(3)) > 1e-3).sum(axis=1).min() >= 3
        assert (np.abs(L.differential_matrix(4)) > 1e-3).sum(axis=1).min() >= 3
        starts = [phi for _, phi in changed]
        for method in ("rk4", "rkf45"):
            cfg = dataclasses.replace(
                self.CFG,
                flow_kind="laplacian_flow",
                integrator=IntegratorConfig(method, 0.02, 0.3),
            )
            rows = integrate(L, cfg, starts)
            assert [t.termination["reason"] for t in rows] == ["t_end"] * 3
            for row, want in zip(rows, _alone(L, cfg, starts, [0.0] * 3)):
                _same_bits(row, want)

    @pytest.mark.parametrize("flow_kind", ["modified_coflow", "laplacian_flow"])
    def test_rows_whose_stage_overflows_halt_as_alone(self, ee2, n2, flow_kind):
        # A step of 1e307: the first stage is finite, but the B of each row
        # overflows, which raises here, where RuntimeWarnings are errors.
        # The stack marks the rows, and each halts as it does alone.
        if flow_kind == "modified_coflow":
            L, starts, reason = ee2, self._starts(ee2, (1, 2), 0.1), "newton"
        else:
            rngs = [np.random.default_rng(seed) for seed in (1, 2)]
            L, starts = n2, [closed_n2_phi(rng) for rng in rngs]
            reason = "positivity"
        cfg = FlowConfig(flow_kind=flow_kind, integrator=IntegratorConfig(dt=1e307, t_end=1e308))
        rows = integrate(L, cfg, starts)
        assert [(t.termination["reason"], t.termination["steps"]) for t in rows] == [(reason, 0)] * 2
        for row, want in zip(rows, _alone(L, cfg, starts, [0.0] * 2)):
            _same_bits(row, want)

    def test_a_single_start_reads_A_from_its_config(self, ee2):
        (start,) = self._starts(ee2, (0,), 0.05)
        with pytest.raises(G2FlowError, match="one value per row"):
            integrate(ee2, self.CFG, start, A=0.5)
        (row,) = integrate(ee2, self.CFG, [start], A=[0.5])
        alone = integrate(ee2, dataclasses.replace(self.CFG, A=0.5), start)
        assert row.records() == alone.records()


def _public_api_rows(monkeypatch):
    """Make the evaluator build every one-form row through the public API:
    the structure from ``phi_of_psi`` or ``G2Structure.from_phi`` (in place
    of the one-row function ``_structure_alone``), the right-hand side from
    ``coflow_rhs`` or ``laplacian_flow_rhs`` plus ``deturck_term``, its
    norm from ``np.linalg.norm``, and the recorded torsion trace from
    ``torsion_trace``.  This is the oracle of the lean one-form path."""
    from g2flow import flows

    def structure_alone(degree, x):
        if degree == 4:
            return phi_of_psi(Form(4, x))
        return G2Structure.from_phi(Form(3, x))

    structure_rhs = flows._structure_rhs
    public = []  # set while a public function evaluates its structure

    def rhs(L, flow_kind, s, A):
        if np.ndim(s.phi_coeffs) > 1 or public:  # a stack, or the public call's own
            return structure_rhs(L, flow_kind, s, A)
        public.append(flow_kind)
        try:
            if flow_kind == "modified_coflow":
                out = coflow_rhs(L, s, A)
            else:
                out = laplacian_flow_rhs(L, s)
        finally:
            public.pop()
        return out.coeffs, torsion_trace(L, s), np.linalg.norm(out.coeffs)

    def keep(self, i, y, s, rhs, trT, norm):
        gauge = self.config.deturck
        if gauge.enabled:
            form = Form(4, y) if self.degree == 4 else s.phi
            term = deturck_term(self.L, form, self.nabla0, gauge.c1, gauge.c2)
            rhs = (Form(self.degree, rhs) + term).coeffs
            norm = np.linalg.norm(rhs)
        self.rows[i] = (y.tobytes(), s, rhs, trT, norm)
        return rhs

    monkeypatch.setattr(flows, "_structure_alone", structure_alone)
    monkeypatch.setattr(flows, "_structure_rhs", rhs)
    monkeypatch.setattr(flows._Evaluator, "_keep", keep)


def _lean_and_public(monkeypatch, run):
    """``run()`` on the lean one-form path, then on the public API."""
    lean = run()
    _public_api_rows(monkeypatch)
    return lean, run()


def _same_bits(a, b):
    """Two trajectories with the same termination and the same records,
    compared by the repr of every float."""
    assert a.termination == b.termination
    assert repr(a.records()) == repr(b.records())


class TestLeanPath:
    """A single row is evaluated on arrays, and its structure is built only
    at record time; the public functions are its oracle, bit for bit."""

    @staticmethod
    def _coflow_start(L, psi, seed=1):
        pcfg = PerturbationConfig(magnitude=0.1, seed=seed)
        return sample_initial(L, psi, pcfg, np.random.default_rng(seed))[0]

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize(
        "flow_kind, A",
        [("modified_coflow", 0.0), ("modified_coflow", 0.7), ("laplacian_flow", 0.0)],
    )
    def test_matches_the_public_api_on_dense_structure_constants(
        self, ee2, n2, monkeypatch, flow_kind, A, method
    ):
        if flow_kind == "modified_coflow":
            L, psi = _changed_coframe(ee2, standard_psi(), seed=4)
            start = self._coflow_start(L, psi)
        else:
            L, start = _changed_coframe(n2, closed_n2_phi(np.random.default_rng(2)), seed=4)
        assert (np.abs(L.differential_matrix(3)) > 1e-3).sum(axis=1).min() >= 3
        cfg = FlowConfig(
            flow_kind=flow_kind,
            A=A,
            integrator=IntegratorConfig(method=method, dt=0.02, t_end=0.3),
            monitors=MonitorConfig(record_every=4),
        )
        lean, public = _lean_and_public(monkeypatch, lambda: integrate(L, cfg, start))
        assert lean.termination["reason"] == "t_end"
        _same_bits(lean, public)

    @pytest.mark.parametrize(
        "flow_kind, method, dt, reason, detail",
        [
            ("laplacian_flow", "rk4", 1e307, "positivity",
             "induced bilinear form is not positive definite"),
            ("laplacian_flow", "rkf45", 1.7e308, "positivity",
             "3-form is not positively oriented (det B = nan)"),
            ("laplacian_flow", "rk4", 1.7e308, "nonfinite",
             "a stage of the step left the finite range"),
            ("modified_coflow", "rk4", 1.7e308, "nonfinite",
             "a stage of the step left the finite range"),
            ("modified_coflow", "rk4", 1e307, "newton",
             "4-form is not positive (its dual 3-form: 3-form is not positively oriented "
             "(det B = nan))"),
        ],
    )
    def test_failed_stages_halt_as_through_the_public_api(
        self, ee2, n2, monkeypatch, flow_kind, method, dt, reason, detail
    ):
        if flow_kind == "modified_coflow":
            L, start = ee2, self._coflow_start(ee2, standard_psi())
        else:
            L, start = n2, closed_n2_phi(np.random.default_rng(3))
        cfg = FlowConfig(
            flow_kind=flow_kind, integrator=IntegratorConfig(method=method, dt=dt, t_end=1.79e308)
        )

        def run():
            # The first stage overflows on purpose.
            with np.errstate(over="ignore", invalid="ignore"):
                return integrate(L, cfg, start)

        lean, public = _lean_and_public(monkeypatch, run)
        term = lean.termination
        assert (term["reason"], term["detail"], term["steps"]) == (reason, detail, 0)
        _same_bits(lean, public)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("flow_kind", ["modified_coflow", "laplacian_flow"])
    def test_deturck_runs_match_the_public_api(self, ee2, n2, monkeypatch, flow_kind, method):
        if flow_kind == "modified_coflow":
            L, start = ee2, self._coflow_start(ee2, standard_psi())
        else:
            L, start = n2, closed_n2_phi(np.random.default_rng(3))
        cfg = FlowConfig(
            flow_kind=flow_kind,
            A=0.3,
            deturck=DeTurckConfig(enabled=True, c1=0.7, c2=-0.4),
            integrator=IntegratorConfig(method=method, dt=0.02, t_end=0.3),
            monitors=MonitorConfig(record_every=3),
        )
        lean, public = _lean_and_public(monkeypatch, lambda: integrate(L, cfg, start))
        assert lean.termination["reason"] == "t_end"
        _same_bits(lean, public)

    def test_pinned_rkf45_newton_halt_matches_the_public_api(self, tmp_path, monkeypatch):
        # rkf45 ee2_flow at A = 0.5, magnitude 0.2, dt 0.01, seed 0 stalls
        # in Newton at step 42: its corrections run on the fallback path.
        # The stall sits at the recovery's rounding floor, just above
        # NEWTON_TOL, so the step moves with the last bits of the recovery
        # (step 41 with a generic star and one det/cholesky/inv set per metric).
        runs = []

        def run():
            out = tmp_path / str(len(runs))
            result = ee2_flow_run(out, 0.5, {"method": "rkf45", "dt": 0.01, "t_end": 1.0}, 0.2, 0)
            runs.append(Path(result.files[0]).read_bytes())
            return result.summary

        lean, public = _lean_and_public(monkeypatch, run)
        term = lean["termination"]
        assert (term["reason"], term["steps"]) == ("newton", 42)
        residual = re.fullmatch(r"recovery correction stalled \(residual (.*)\)", term["detail"])
        assert NEWTON_TOL < float(residual.group(1)) <= 1e-10
        assert lean == public and runs[0] == runs[1]

    @pytest.mark.parametrize("A", [0.0, 0.7])
    def test_stacked_rows_match_the_public_api_on_dense_structure_constants(self, ee2, A):
        # The stacked evaluation that the ensembles and the experiments
        # share, on 4-form rows (recovered) and on 3-form rows (the coflow
        # of a given phi, as in ee2_family): each row is bit for bit what
        # the public functions give its form alone, and a row that fails a
        # check is evaluated alone, holds zeros and returns the error the
        # public functions raise on it.
        L, psi = _changed_coframe(ee2, standard_psi(), seed=4)
        starts = [self._coflow_start(L, psi, seed) for seed in range(6)]
        for degree, alone_state in (
            (4, lambda row: phi_of_psi(Form(4, row))),
            (3, lambda row: G2Structure.from_phi(Form(3, row))),
        ):
            x = np.array([f.coeffs if degree == 4 else phi_of_psi(f).phi_coeffs for f in starts])
            x[2] = -x[2]  # det B < 0
            _, rhs, trT, norms, alone = _stacked_rhs(L, "modified_coflow", degree, A, x)
            assert list(alone) == [2]
            assert not rhs[2].any() and norms[2] == 0.0
            with pytest.raises(type(alone[2]), match=re.escape(str(alone[2]))):
                alone_state(x[2])
            for r in (0, 1, 3, 4, 5):
                state = alone_state(x[r])
                one = coflow_rhs(L, state, A).coeffs
                assert rhs[r].tobytes() == one.tobytes()
                assert trT[r] == torsion_trace(L, state)
                assert norms[r] == np.linalg.norm(one)

    @pytest.mark.parametrize(
        "flow_kind, degree",
        [("modified_coflow", 4), ("modified_coflow", 3), ("laplacian_flow", 3)],
    )
    def test_one_row_takes_the_kernels_of_one_form(self, ee2, monkeypatch, flow_kind, degree):
        # One row is evaluated alone, by the kernels of one form: no stacked
        # recovery and no stacked factorisation.  It is bit for bit row 0
        # of a stack of two.
        from g2flow import flows, g2core

        L, psi = _changed_coframe(ee2, standard_psi(), seed=4)
        starts = [self._coflow_start(L, psi, seed) for seed in range(2)]
        x = np.array([f.coeffs if degree == 4 else phi_of_psi(f).phi_coeffs for f in starts])
        stack, rhs, trT, norms, alone = _stacked_rhs(L, flow_kind, degree, 0.7, x)
        assert not alone
        calls = []
        with monkeypatch.context() as m:
            m.setattr(flows, "stack_from_psi", lambda y: calls.append("stack_from_psi"))
            m.setattr(g2core, "_cholesky_rows", lambda b: calls.append("_cholesky_rows"))
            none, rhs1, trT1, norms1, alone1 = _stacked_rhs(L, flow_kind, degree, 0.7, x[:1])
        assert calls == [] and none is None and list(alone1) == [0]
        one, want = alone1[0], stack.row(0)
        assert rhs1.shape == (1, 35) and rhs1[0].tobytes() == rhs[0].tobytes()
        assert trT1[0] == trT[0] and norms1[0] == norms[0]
        assert (trT[0] is None) == (flow_kind == "laplacian_flow")
        for name in ("phi_coeffs", "psi_coeffs"):
            assert getattr(one, name).tobytes() == getattr(want, name).tobytes()
        assert one.metric.g.tobytes() == want.metric.g.tobytes()
        assert one.metric.inv.tobytes() == want.metric.inv.tobytes()
        assert one.volume == want.volume

    @pytest.mark.parametrize("caller", ["ensemble", "ee1_static", "ee2_family", "linearize"])
    def test_a_marked_row_goes_through_the_one_row_function_once(
        self, ee2, tmp_path, monkeypatch, caller
    ):
        # Whichever caller stacks the rows, a row the stack marks (the
        # second row of its first stack, and at magnitude 3 most ee1_static
        # samples) is evaluated alone inside the stacked evaluation, once,
        # and the output is that of the unmarked stack.
        from g2flow import flows

        def run():
            if caller == "ensemble":
                starts = TestEnsembles._starts(ee2, (0, 1, 2), 0.05)
                return [repr(t.records()) for t in integrate(ee2, TestEnsembles.CFG, starts)]
            raw = {"schema_version": 1, "experiment": caller}
            if caller == "ee1_static":
                raw["perturbation"] = {"seed": 0, "magnitude": 3.0}
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            result = run_experiment(config_from_dict(raw)[0], output_dir=out)
            return [Path(f).read_bytes() for f in result.files]

        want = run()
        marked, alone = [], []
        stack_from_psi, induced, structure_alone = (
            flows.stack_from_psi, flows._induced, flows._structure_alone
        )

        def mark(x, bad):
            if not marked:
                bad[1] = True
            marked.extend(row.tobytes() for row in x[bad])

        def stacked_4(y):
            structure, bad = stack_from_psi(y)
            mark(y, bad)
            return structure, bad

        def stacked_3(x, bad=None):
            out = induced(x, bad)
            if bad is not None:
                mark(x, bad)
            return out

        monkeypatch.setattr(flows, "stack_from_psi", stacked_4)
        monkeypatch.setattr(flows, "_induced", stacked_3)
        monkeypatch.setattr(
            flows,
            "_structure_alone",
            lambda degree, x: alone.append(x.tobytes()) or structure_alone(degree, x),
        )
        assert run() == want
        assert len(marked) == len(set(marked)) >= (50 if caller == "ee1_static" else 1)
        # linearize also evaluates its base alone.
        base = [standard_psi().coeffs.tobytes()] if caller == "linearize" else []
        assert sorted(alone) == sorted(marked + base)

    @pytest.mark.parametrize("subspace", ["coclosed", "exact"])
    def test_linearize_states_match_the_public_api(self, ee1, ee2, monkeypatch, subspace):
        # The 2m states psi +- eps b_j of linearize are one stack; each
        # row's right-hand side is the one phi_of_psi and coflow_rhs give
        # the state alone, bit for bit.
        from g2flow import flows

        stacks, stacked = [], flows._stacked_rhs
        monkeypatch.setattr(
            flows, "_stacked_rhs", lambda *args: stacks.append(args) or stacked(*args)
        )
        directions = closed_directions if subspace == "coclosed" else exact_directions
        for L, base, A in (
            (ee1, standard_psi(), 0.3),
            (ee2, G2Structure.from_phi(ee2_diagonal_phi(STATIC_MEMBER)).psi, 0.0),
        ):
            stacks.clear()
            report = linearize(L, base, directions(L, 4), A=A, static_tol=1.0)
            ((_, kind, degree, a, states),) = stacks
            assert (kind, degree, a) == ("modified_coflow", 4, A)
            basis = np.array([d.coeffs for d in report.directions])
            want = [base.coeffs + sign * report.eps * b for b in basis for sign in (1, -1)]
            assert np.array_equal(states, want)
            _, rhs, _, _, alone = stacked(L, kind, degree, a, states)
            assert not alone
            for psi, row in zip(states, rhs):
                one = coflow_rhs(L, phi_of_psi(Form(4, psi)), A).coeffs
                assert row.tobytes() == one.tobytes()

    def test_linearize_redoes_marked_states_alone(self, ee2, monkeypatch):
        # A residual gate of 0 makes the stack mark the states; each is
        # redone by the one-row function (at the gate of phi_of_psi, which
        # the patch leaves alone) and gives the matrix of the unmarked
        # stack, bit for bit.
        from g2flow import flows, g2core

        base = G2Structure.from_phi(ee2_diagonal_phi(STATIC_MEMBER)).psi
        dirs = closed_directions(ee2, 4)
        want = linearize(ee2, base, dirs, A=0.0).matrix
        monkeypatch.setattr(g2core, "NEWTON_TOL", 0.0)
        redone, structure_alone = [], flows._structure_alone
        monkeypatch.setattr(
            flows,
            "_structure_alone",
            lambda degree, psi: redone.append(1) or structure_alone(degree, psi),
        )
        got = linearize(ee2, base, dirs, A=0.0).matrix
        assert len(redone) > len(dirs)
        assert got.tobytes() == want.tobytes()

    def test_structures_are_built_per_record_not_per_stage(self, ee2, n2, monkeypatch):
        """Inside ``integrate``, after the start: no Metric is validated, no
        G2Structure is built but the one each evaluation carries its row in
        (as many with a record every step as with records at the ends only),
        neither ``G2Structure.from_phi`` nor the public ``torsion_trace`` is
        called, and no Form is built: a record is a row of arrays.  One row
        of each flow, and a stack."""
        from g2flow import flows

        counts = {"Form": 0, "Metric": 0, "G2Structure": 0, "from_phi": 0, "torsion_trace": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for cls in (Form, Metric):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(G2Structure, "__init__", counting("G2Structure", G2Structure.__init__))
        from_phi = G2Structure.from_phi
        monkeypatch.setattr(
            G2Structure, "from_phi", classmethod(lambda cls, phi: counting("from_phi", from_phi)(phi))
        )
        monkeypatch.setattr(flows, "torsion_trace", counting("torsion_trace", flows.torsion_trace))
        coflow_starts = TestEnsembles._starts(ee2, (0, 1, 2), 0.05)
        phi = closed_n2_phi(np.random.default_rng(0))
        # The laplacian_n2 benchmark run over one time unit, 100 rk4 steps,
        # and 15 coflow steps of one row and of a stack of three.
        laplacian = FlowConfig(flow_kind="laplacian_flow", integrator=IntegratorConfig(dt=0.01))
        coflow = TestEnsembles.CFG
        structures = []
        for L, cfg, start in (
            (n2, laplacian, lambda: phi),
            (ee2, coflow, lambda: coflow_starts[0]),
            (ee2, coflow, lambda: coflow_starts),
        ):
            for record_every in (1, 1000):
                monitors = dataclasses.replace(cfg.monitors, record_every=record_every)
                start_state = start()
                for name in counts:
                    counts[name] = 0
                runs = integrate(L, dataclasses.replace(cfg, monitors=monitors), start_state)
                runs = runs if isinstance(runs, list) else [runs]
                assert all(run.termination["reason"] == "t_end" for run in runs)
                records = sum(len(run.t) for run in runs)
                steps = runs[0].termination["steps"]
                assert records == len(runs) * (2 if record_every > 1 else steps + 1)
                assert counts["Form"] == 0
                assert counts["Metric"] == counts["from_phi"] == counts["torsion_trace"] == 0
                structures.append(counts["G2Structure"])
        assert structures[0::2] == structures[1::2]
        assert structures[0] == 401  # the start's, and one per rk4 stage


class TestRecordedTorsionTrace:
    """A coflow record reads trT off the right-hand side evaluated for its
    row, and a Laplacian record takes it on the row's arrays; either equals
    the public ``torsion_trace`` of the recorded state bit for bit."""

    CFG = FlowConfig(
        integrator=IntegratorConfig(dt=0.02, t_end=0.3),
        monitors=MonitorConfig(record_every=2),
    )

    @staticmethod
    def _assert_public_trT(L, trajectory, state_of):
        assert trajectory.termination["reason"] == "t_end"
        assert len(trajectory.states) == 9
        for state in trajectory.states:
            want = torsion_trace(L, state_of(state))
            assert state.diagnostics["trT"].hex() == want.hex()

    def test_one_coflow_row_and_one_laplacian_row(self, ee2, n2):
        # Each on its algebra and on the algebra in a generic coframe, where
        # the differential is dense.
        for L, psi in ((ee2, standard_psi()), _changed_coframe(ee2, standard_psi(), seed=4)):
            start = TestLeanPath._coflow_start(L, psi)
            trajectory = integrate(L, dataclasses.replace(self.CFG, A=0.4), start)
            self._assert_public_trT(L, trajectory, lambda s: phi_of_psi(s.psi))
            assert all(s.diagnostics["trT"] != 0.0 for s in trajectory.states)
        phi = closed_n2_phi(np.random.default_rng(2))
        cfg = dataclasses.replace(self.CFG, flow_kind="laplacian_flow")
        for L, phi in ((n2, phi), _changed_coframe(n2, phi, seed=4)):
            trajectory = integrate(L, cfg, phi)
            self._assert_public_trT(L, trajectory, lambda s: G2Structure.from_phi(s.form))

    def test_rows_of_a_stack_with_a_marked_row(self, ee2, monkeypatch):
        # Eight rows in lockstep on ee2 in a generic coframe.  A residual
        # gate inside the spread of the closed form's residuals (about 1e-14
        # here) makes the stack mark some rows, which are then redone one by
        # one (by the gate of phi_of_psi).
        from g2flow import flows, g2core

        L, psi = _changed_coframe(ee2, standard_psi(), seed=4)
        monkeypatch.setattr(g2core, "NEWTON_TOL", 1.2e-14)
        marked, stack = [], flows.stack_from_psi

        def marking(y):
            structure, bad = stack(y)
            marked.append((len(y), int(bad.sum())))
            return structure, bad

        monkeypatch.setattr(flows, "stack_from_psi", marking)
        starts = [TestLeanPath._coflow_start(L, psi, seed) for seed in range(8)]
        rows = integrate(L, self.CFG, starts, A=[0.05 * i for i in range(8)])
        assert {n for n, _ in marked} == {8}
        assert any(0 < m < 8 for _, m in marked)
        for trajectory in rows:
            self._assert_public_trT(L, trajectory, lambda s: phi_of_psi(s.psi))


class TestTrajectoryIO:
    """Flow experiments write their trajectories through the shared record
    writer; these pin its JSONL and CSV schemas on experiment output."""

    @staticmethod
    def _run(tmp_path, experiment, fmt, name=None):
        raw = {
            "schema_version": 1,
            "experiment": experiment,
            "algebra_file": "ee2",
            "flow": {
                "integrator": {"dt": 1e-3, "t_end": 0.01},
                "monitors": {"record_every": 5, "volume": False},
            },
            "perturbation": {"seed": 3, "magnitude": 0.2},
            "output": {"path": name or f"{experiment}.{fmt}", "format": fmt},
        }
        cfg, violations = config_from_dict(raw)
        assert violations == []
        result = run_experiment(cfg, output_dir=tmp_path)
        assert result.status == "ok"
        return Path(result.files[0]), result.summary["records"]

    def test_jsonl_schema(self, tmp_path):
        path, records = self._run(tmp_path, "ee2_flow", "jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == records == 3
        for line in lines:
            rec = json.loads(line)
            assert list(rec.keys()) == list(RECORD_FIELDS)
            assert len(rec["psi"]) == 35
            assert all(isinstance(c, float) for c in rec["psi"])
            assert rec["volume"] is None  # disabled monitor serializes as null
            assert rec["closedness"] is not None

    def test_csv_schema(self, tmp_path):
        path, records = self._run(tmp_path, "custom", "csv")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        expected = (
            ["t"]
            + [f"psi_{i:02d}" for i in range(35)]
            + ["trT", "volume", "closedness", "rhs_norm", "dist_ref"]
        )
        assert header == expected
        assert len(lines) == 1 + records
        # repr round-trip: each row reproduces the floats of the JSONL mirror
        jsonl, _ = self._run(tmp_path, "custom", "jsonl")
        for line, row in zip(jsonl.read_text().splitlines(), lines[1:]):
            rec, row = json.loads(line), row.split(",")
            assert float(row[0]) == rec["t"]
            for i in range(35):
                assert float(row[1 + i]) == rec["psi"][i]
            assert float(row[header.index("trT")]) == rec["trT"]
            assert row[header.index("volume")] == ""  # disabled monitor is blank

    def test_identical_runs_write_identical_files(self, tmp_path):
        paths = [self._run(tmp_path, "ee2_flow", "jsonl", f"run_{tag}.jsonl")[0] for tag in "ab"]
        assert paths[0].read_bytes() == paths[1].read_bytes()


GOLDEN_FLOWS = json.loads((Path(__file__).parent / "golden_flows.json").read_text())
GOLDEN_TOL = 1e-13  # |new - golden| / max(|golden|, 1), per record entry


def golden_flow_deviation(name, tmp_path):
    """Largest |x - x_golden| / max(|x_golden|, 1) over the records of the
    seed-0 benchmark config ``name``, run afresh, against the records
    ``tests/golden_flows.json`` keeps of it (written with a generic star and
    one det/cholesky/inv set per metric)."""
    case = GOLDEN_FLOWS[name]
    raw = json.loads(json.dumps(case["config"]))
    if "initial" in case:
        (tmp_path / raw["initial"]).write_text(json.dumps(case["initial"]))
        raw["initial"] = str(tmp_path / raw["initial"])
        raw["algebra_file"] = str(Path(__file__).parents[1] / raw["algebra_file"])
    raw["output"] = {"format": "jsonl"}
    cfg, violations = config_from_dict(raw)
    assert violations == []
    result = run_experiment(cfg, output_dir=tmp_path)
    assert result.status == "ok"
    rows = []
    for line in Path(result.files[0]).read_text().splitlines():
        rec = json.loads(line)
        rows.append([rec["t"]] + rec["psi"] + [rec[k] for k in RECORD_FIELDS[2:]])
    golden = case["records"]
    assert len(rows) == len(golden)
    worst = 0.0
    for row, gold in zip(rows, golden):
        for x, x0 in zip(row, gold):
            assert (x is None) == (x0 is None)
            if x is not None:
                worst = max(worst, abs(x - x0) / max(abs(x0), 1.0))
    return worst


class TestGoldenFlows:
    """The seed-0 coflow and Laplacian benchmark runs stay within
    ``GOLDEN_TOL`` of the records of their generic-star evaluation."""

    @pytest.mark.parametrize("name", ["coflow_ee2", "laplacian_n2"])
    def test_records_agree_with_the_golden_run(self, tmp_path, name):
        assert golden_flow_deviation(name, tmp_path) <= GOLDEN_TOL


class TestLinearize:
    def test_reference_point_has_zero_linearization(self, ee1):
        # Every nearby invariant coclosed structure is also static,
        # so the flow map has vanishing derivative in coclosed directions.
        dirs = closed_directions(ee1, 4)
        report = linearize(ee1, standard_psi(), dirs, A=0.0, eps=1e-3)
        assert report.matrix.shape == (len(dirs), len(dirs))
        assert np.max(np.abs(report.matrix)) <= 1e-6
        assert np.max(np.abs(report.eigenvalues)) <= 1e-6
        assert report.asymmetry_norm <= 1e-6

    def test_refinement_keeps_zero_matrix(self, ee1):
        # Halving eps must leave the zero matrix in place: entry changes stay
        # within a quadratic-in-eps budget instead of exploding as 1/eps.
        base = standard_psi()
        dirs = closed_directions(ee1, 4)
        eps = 2e-3
        coarse = linearize(ee1, base, dirs, A=0.0, eps=eps)
        fine = linearize(ee1, base, dirs, A=0.0, eps=eps / 2.0)
        assert np.max(np.abs(fine.matrix)) <= 1e-6
        assert np.max(np.abs(coarse.matrix - fine.matrix)) <= 1.0 * eps**2

    def test_quadratic_refinement_at_curved_static_point(self, ee2):
        # At a static point with a genuinely nonzero linearization
        # the central-difference matrix M(eps) = M0 + C eps^2 + ..., so
        # successive halvings shrink the increment by a factor of four.
        static = G2Structure.from_phi(ee2_diagonal_phi(STATIC_MEMBER))
        assert np.linalg.norm(_rhs0(ee2, static).coeffs) <= 1e-10
        dirs = closed_directions(ee2, 4)
        mats = {}
        for eps in (2e-3, 1e-3, 5e-4):
            mats[eps] = linearize(ee2, static.psi, dirs, A=0.0, eps=eps).matrix
        assert np.max(np.abs(mats[1e-3])) > 1.0  # genuinely nonzero
        d_coarse = np.max(np.abs(mats[2e-3] - mats[1e-3]))
        d_fine = np.max(np.abs(mats[1e-3] - mats[5e-4]))
        assert d_coarse / d_fine == pytest.approx(4.0, rel=0.2)

    def test_directions_are_l2_orthonormal(self, ee1):
        base = standard_psi()
        report = linearize(ee1, base, closed_directions(ee1, 4), A=0.0, eps=1e-3)
        structure = phi_of_psi(base)
        gram = structure.metric.gram(4) * structure.volume
        mat = np.column_stack([d.coeffs for d in report.directions])
        assert np.max(np.abs(mat.T @ gram @ mat - np.eye(mat.shape[1]))) <= 1e-10

    def test_non_static_base_raises(self, ee2, rng):
        psi, _ = coclosed_sample(ee2, rng, magnitude=0.25)
        with pytest.raises(G2FlowError, match="not static"):
            linearize(ee2, psi, closed_directions(ee2, 4), A=0.0)

    def test_degenerate_directions_raise(self, ee1):
        dirs = closed_directions(ee1, 4)
        with pytest.raises(G2FlowError, match="degenerate direction set"):
            linearize(ee1, standard_psi(), [dirs[0], dirs[0]], A=0.0)

    def test_requires_coclosed_state(self, ee1):
        # The base is the coflow's flowing form, a 4-form.
        with pytest.raises(DegreeError, match="expects a 4-form base point, got degree 3"):
            linearize(ee1, standard_phi(), [], A=0.0)

    def test_empty_directions_raise(self, ee1):
        with pytest.raises(G2FlowError, match="non-empty"):
            linearize(ee1, standard_psi(), [], A=0.0)
