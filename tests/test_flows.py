"""Tests for flow right-hand sides, integration, halts, and linearization."""

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from g2flow import (
    CoclosedState,
    ConfigError,
    DIM,
    FlowConfig,
    Form,
    G2FlowError,
    G2Structure,
    IntegratorConfig,
    coclosed_directions,
    coflow_rhs,
    config_from_dict,
    deturck_term,
    deturck_vector,
    differential,
    exact_directions,
    hodge_laplacian,
    integrate,
    laplacian_flow_rhs,
    linearize,
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
    coflow_rhs_stack,
    steps_in_lockstep,
)
from g2flow.g2core import stack_from_psi
from g2flow.liealg import Connection, LieAlgebraStructure, levi_civita

from .conftest import closed_n2_phi, coclosed_sample

STATIC_MEMBER = np.array([np.sqrt(2.0), 1.0, np.sqrt(2.0), 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)])


def _rhs0(L, state):
    return coflow_rhs(L, state, 0.0)


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
        state = CoclosedState.from_psi(standard_psi())
        assert np.linalg.norm(coflow_rhs(ee1, state, 0.0).coeffs) <= 1e-10

    def test_parameter_dependence_is_affine(self, ee1, ee2, rng):
        # The A-dependence enters only through 2 A d(phi).
        for L in (ee1, ee2):
            state = coclosed_sample(L, rng, magnitude=0.2)
            dphi = differential(L, state.recovered.phi)
            base = coflow_rhs(L, state, 0.0)
            for A in (1.0, -2.5, 0.3):
                diff = coflow_rhs(L, state, A) - base
                err = np.max(np.abs(diff.coeffs - 2.0 * A * dphi.coeffs))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(dphi.coeffs)))

    def test_rhs_is_closed(self, ee1, ee2, rng):
        # Laplacian(psi) is d delta psi for coclosed psi and the
        # correction is exact, so the right-hand side is a closed 4-form.
        for L in (ee1, ee2):
            d4 = L.differential_matrix(4)
            for A in (0.0, 1.0):
                for _ in range(3):
                    state = coclosed_sample(L, rng, magnitude=0.25)
                    rhs = coflow_rhs(L, state, A)
                    assert np.max(np.abs(d4 @ rhs.coeffs)) <= 1e-12

    def test_accepts_structure_or_state(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.1)
        via_state = coflow_rhs(ee2, state, 0.7)
        via_struct = coflow_rhs(ee2, state.recovered, 0.7)
        assert np.max(np.abs(via_state.coeffs - via_struct.coeffs)) <= 1e-12

    @pytest.mark.parametrize("subspace", ["coclosed", "exact"])
    def test_exact_form_matches_the_laplacian_on_closed_samples(self, ee1, ee2, subspace):
        # On a closed psi the right-hand side d(delta psi + 2 (A - trT) phi)
        # is the four-star Hodge Laplacian of psi plus 2 (A - trT) d(phi),
        # one state at a time and as one stack.
        pcfg = PerturbationConfig(seed=0, magnitude=0.25, subspace=subspace)
        for L in (ee1, ee2):
            rng = np.random.default_rng(11)
            states = [sample_initial(L, standard_psi(), pcfg, rng)[3] for _ in range(50)]
            stack, bad = stack_from_psi(np.array([st.psi.coeffs for st in states]))
            assert not bad.any()
            for A in (0.0, 0.5):
                rows = coflow_rhs_stack(L, stack, A)
                for st, row in zip(states, rows):
                    s = st.recovered
                    dphi = differential(L, s.phi).coeffs
                    want = hodge_laplacian(L, s.metric, st.psi).coeffs
                    want = want + 2.0 * (A - torsion_trace(L, s)) * dphi
                    scale = 1e-12 * max(1.0, float(np.linalg.norm(want)))
                    assert np.linalg.norm(coflow_rhs(L, st, A).coeffs - want) <= scale
                    assert np.linalg.norm(row - want) <= scale

    def test_takes_two_stars(self, ee2, rng, monkeypatch):
        # One star of d(phi) and one of the 7-form in the torsion trace.
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        stars = _count_stars(monkeypatch)
        coflow_rhs(ee2, state, 0.5)
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
        state = coclosed_sample(ee1, rng, magnitude=0.2)
        flat = Connection(np.zeros((DIM, DIM, DIM)))
        assert np.linalg.norm(deturck_vector(ee1, state, flat, 0.0, 0.0)) == 0.0

    def test_levi_civita_reference_vanishes(self, ee2, rng):
        # The difference tensor against the structure's own
        # Levi-Civita connection is zero.
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        ref = levi_civita(ee2, state.recovered.metric)
        assert np.linalg.norm(deturck_vector(ee2, state, ref, 1.0, 2.0)) <= 1e-14

    def test_flat_reference_vanishes_on_unimodular(self, ee1, ee2, rng):
        # With the frame-flat reference both contractions of the
        # symmetrized difference tensor are ad-traces, which vanish on a
        # unimodular algebra; the default gauge term is a no-op there.
        flat = Connection(np.zeros((DIM, DIM, DIM)))
        for L in (ee1, ee2):
            state = coclosed_sample(L, rng, magnitude=0.2)
            assert np.linalg.norm(deturck_vector(L, state, flat, 1.0, 0.0)) <= 1e-14
            assert np.linalg.norm(deturck_vector(L, state, flat, 0.0, 1.0)) <= 1e-14

    def test_general_reference_acts_linearly(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        ref = Connection(rng.normal(size=(DIM, DIM, DIM)))
        va = deturck_vector(ee2, state, ref, 1.0, 0.0)
        vb = deturck_vector(ee2, state, ref, 0.0, 1.0)
        vab = deturck_vector(ee2, state, ref, 2.0, 3.0)
        assert np.linalg.norm(va) > 1e-3
        assert np.linalg.norm(vb) > 1e-3
        assert np.linalg.norm(vab - 2.0 * va - 3.0 * vb) <= 1e-12
        term = deturck_term(ee2, state, ref, 1.0, 0.5)
        assert term.degree == 4
        assert np.linalg.norm(term.coeffs) > 1e-3

    def test_enabled_flat_gauge_reproduces_plain_flow(self, ee2, rng):
        # On a unimodular algebra the built-in (frame-flat) gauge reference
        # contributes nothing, so enabling it must not change the trajectory.
        state = coclosed_sample(ee2, rng, magnitude=0.15)
        integ = IntegratorConfig(dt=1e-3, t_end=0.01)
        plain = integrate(ee2, FlowConfig(integrator=integ), state)
        gauged = integrate(
            ee2,
            FlowConfig(deturck=DeTurckConfig(enabled=True, c1=1.0, c2=0.5), integrator=integ),
            state,
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
                state = coclosed_sample(L, rng, magnitude=0.3)
                crit = volume_monotonicity_criterion(L, state, A)
                vol = state.recovered.volume
                f = coflow_rhs(L, state, A).coeffs
                vp = CoclosedState.from_psi(Form(4, state.psi.coeffs + h * f)).recovered.volume
                vm = CoclosedState.from_psi(Form(4, state.psi.coeffs - h * f)).recovered.volume
                dvdt = (vp - vm) / (2.0 * h)
                if abs(crit) < 1e-4:
                    continue  # sign is ambiguous at the stationary locus
                assert dvdt / (crit * vol) == pytest.approx(0.5, rel=1e-4)
                assert (dvdt > 0) == (crit > 0)
                checked += 1
        assert checked >= 4


class TestDirectionBases:
    def test_coclosed_directions_are_closed_and_orthonormal(self, ee1, ee2):
        for L in (ee1, ee2):
            d4 = L.differential_matrix(4)
            dirs = coclosed_directions(L)
            assert len(dirs) == 35 - np.linalg.matrix_rank(d4)
            mat = np.column_stack([d.coeffs for d in dirs])
            assert np.max(np.abs(d4 @ mat)) <= 1e-12
            assert np.max(np.abs(mat.T @ mat - np.eye(len(dirs)))) <= 1e-12

    def test_exact_directions_are_closed_and_inside_coclosed(self, ee1, ee2):
        # d of a 3-form is closed because d squares to zero, so the
        # exact directions sit inside the span of the closed ones.
        for L in (ee1, ee2):
            d3 = L.differential_matrix(3)
            d4 = L.differential_matrix(4)
            exact = exact_directions(L)
            assert len(exact) == np.linalg.matrix_rank(d3)
            closed = np.column_stack([d.coeffs for d in coclosed_directions(L)])
            for e in exact:
                assert np.max(np.abs(d4 @ e.coeffs)) <= 1e-12
                resid = e.coeffs - closed @ (closed.T @ e.coeffs)
                assert np.linalg.norm(resid) <= 1e-12
                # genuinely in the image of d on 3-forms
                sol, *_ = np.linalg.lstsq(d3, e.coeffs, rcond=None)
                assert np.linalg.norm(d3 @ sol - e.coeffs) <= 1e-12

    def test_torus_has_no_exact_directions(self, torus):
        assert exact_directions(torus) == []
        assert len(coclosed_directions(torus)) == 35


class TestIntegrate:
    def test_static_state_stays_put(self, ee1):
        # Long run at the stationary state: the trajectory must not drift.
        state = CoclosedState.from_psi(standard_psi())
        cfg = FlowConfig(integrator=IntegratorConfig(dt=1e-2, t_end=10.0))
        traj = integrate(ee1, cfg, state)
        assert traj.termination["status"] == "completed"
        assert traj.termination["reason"] == "t_end"
        assert traj.final.diagnostics["dist_ref"] <= 1e-8
        assert traj.final.diagnostics["closedness"] <= 1e-10
        # 1000 steps recorded every 10, plus the initial snapshot.
        assert traj.termination["steps"] == 1000
        assert len(traj.states) == 101

    def test_record_shares_recovery_and_rhs_with_next_step(self, ee2, rng, monkeypatch):
        """With a record every step, rk4 costs four recoveries and four
        right-hand sides per step (plus the initial snapshot's right-hand
        side): a record and the next step's first stage share both, and the
        initial state is not recovered again.  One row runs the kernels of
        one form: the closed-form recovery and ``_coflow_rhs``."""
        import g2flow.flows

        state = coclosed_sample(ee2, rng, magnitude=0.2)
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
        traj = integrate(ee2, cfg, state)
        assert traj.termination["steps"] == 10
        assert counts == {"recoveries": 40, "rhs": 41}

    @pytest.mark.parametrize("flow_kind, per_evaluation", [
        ("modified_coflow", 2), ("laplacian_flow", 1),
    ])
    def test_each_metric_is_factorised_once(self, ee2, n2, rng, monkeypatch, flow_kind,
                                            per_evaluation):
        """A Laplacian evaluation factorises and inverts its B once; a coflow
        recovery does so for the structures of chi and of phi.  No
        determinant is taken, and records take no linear algebra: 10
        recorded rk4 steps make 40 evaluations (see the test above)."""
        if flow_kind == "modified_coflow":
            L, start = ee2, coclosed_sample(ee2, rng, magnitude=0.2)
        else:
            L, start = n2, G2Structure.from_phi(closed_n2_phi(rng))
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
        n = 40 * per_evaluation
        assert counts == {"det": 0, "inv": n, "cholesky": n}

    def test_rk4_and_rkf45_agree(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        results = {}
        for method in ("rk4", "rkf45"):
            cfg = FlowConfig(
                integrator=IntegratorConfig(method=method, dt=1e-3, t_end=0.1, rel_tol=1e-10)
            )
            traj = integrate(ee2, cfg, state)
            assert traj.termination["status"] == "completed"
            results[method] = traj.final.psi.coeffs
        assert np.max(np.abs(results["rk4"] - results["rkf45"])) <= 1e-8

    def test_closedness_preserved_along_run(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.25)
        cfg = FlowConfig(
            integrator=IntegratorConfig(dt=1e-3, t_end=0.05),
            monitors=MonitorConfig(record_every=5),
        )
        traj = integrate(ee2, cfg, state)
        assert traj.termination["status"] == "completed"
        worst = max(s.diagnostics["closedness"] for s in traj.states)
        assert worst <= 1e-10

    def test_deterministic_records(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(integrator=IntegratorConfig(dt=1e-3, t_end=0.02))
        a = integrate(ee2, cfg, state).records()
        b = integrate(ee2, cfg, state).records()
        assert json.dumps(a) == json.dumps(b)

    def test_reference_anchors_distance(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(integrator=IntegratorConfig(dt=1e-3, t_end=0.01))
        traj = integrate(ee2, cfg, state, reference=standard_psi())
        expected = float(np.linalg.norm(state.psi.coeffs - standard_psi().coeffs))
        assert traj.states[0].diagnostics["dist_ref"] == pytest.approx(expected, rel=1e-12)

    def test_disabled_monitors_record_none(self, ee1):
        state = CoclosedState.from_psi(standard_psi())
        cfg = FlowConfig(
            integrator=IntegratorConfig(dt=1e-2, t_end=0.05),
            monitors=MonitorConfig(record_every=1, trT=False, volume=False, dist_ref=False),
        )
        traj = integrate(ee1, cfg, state)
        rec = traj.final.record()
        assert rec["trT"] is None
        assert rec["volume"] is None
        assert rec["dist_ref"] is None
        assert rec["closedness"] is not None
        assert rec["rhs_norm"] is not None

    def test_wrong_initial_type_raises(self, ee1):
        cfg = FlowConfig()
        with pytest.raises(G2FlowError, match="CoclosedState"):
            integrate(ee1, cfg, G2Structure.from_phi(standard_phi()))

    def test_invalid_config_raises(self, ee1):
        state = CoclosedState.from_psi(standard_psi())
        with pytest.raises(ConfigError, match="integrator.dt must be > 0"):
            integrate(ee1, FlowConfig(integrator=IntegratorConfig(dt=-1.0)), state)

    def test_torus_laplacian_flow_completes(self, torus):
        cfg = FlowConfig(flow_kind="laplacian_flow", integrator=IntegratorConfig(dt=1e-2, t_end=1.0))
        traj = integrate(torus, cfg, G2Structure.from_phi(standard_phi()))
        assert traj.termination["status"] == "completed"
        assert traj.final.diagnostics["dist_ref"] == 0.0
        assert traj.final.form.degree == 3 and traj.final.psi.degree == 4

    def test_rk4_runs_build_no_operator_matrices(self, ee2, n2, monkeypatch):
        """The right-hand sides and records apply the star and the Laplacian
        matrix-free: 5 rk4 steps of either flow form no star matrix, no Gram
        matrix and no Laplacian matrix."""
        import g2flow.liealg

        coflow_start = coclosed_sample(ee2, np.random.default_rng(0), magnitude=0.1)
        laplacian_start = G2Structure.from_phi(standard_phi())
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

        coflow_start = coclosed_sample(ee2, np.random.default_rng(1), magnitude=0.1)
        integrator = IntegratorConfig(dt=1e-2, t_end=0.03)
        for L, kind, start in (
            (ee2, "modified_coflow", coflow_start),
            (n2, "laplacian_flow", G2Structure.from_phi(standard_phi())),
        ):
            cfg = FlowConfig(flow_kind=kind, integrator=integrator)
            traj = integrate(L, cfg, start)
            for state in traj.states:
                assert set(vars(state)) == {"t", "form", "psi", "diagnostics"}
                assert not any(
                    isinstance(v, (G2Structure, CoclosedState, Metric)) for v in held(state)
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
        f = lambda y: coflow_rhs(ee2, CoclosedState.from_psi(Form(4, y)), 0.0).coeffs  # noqa: E731
        for seed in (0, 3, 7):
            pcfg = PerturbationConfig(magnitude=0.1, seed=seed)
            form, *_ = sample_initial(ee2, standard_psi(), pcfg, np.random.default_rng(seed))
            coarse = _rkf45_attempt(f, form.coeffs, 0.04)[1]
            fine = _rkf45_attempt(f, form.coeffs, 0.02)[1]
            assert 24.0 <= coarse / fine <= 40.0


class TestHalts:
    def test_initial_closedness_violation(self, ee1, monkeypatch):
        # A generic 4-form is not closed; the run must stop before stepping,
        # and before any right-hand side: d chi is the flow only on closed
        # forms, so the record's rhs_norm is null.
        from g2flow import flows

        psi = Form(4, standard_psi().coeffs + 1e-3 * np.arange(35, dtype=float))
        state = CoclosedState.from_psi(psi)
        calls = []
        rhs = flows._coflow_rhs  # the kernel of every coflow right-hand side
        monkeypatch.setattr(flows, "_coflow_rhs", lambda *a: calls.append(1) or rhs(*a))
        traj = integrate(ee1, FlowConfig(), state)
        term = traj.termination
        assert term["status"] == "halted"
        assert term["reason"] == "closedness"
        assert term["t"] == 0.0
        assert term["detail"] == "initial state violates the closedness tolerance"
        assert len(traj.states) == 1
        record = traj.final.record()
        assert record["rhs_norm"] is None
        assert record["closedness"] > FlowConfig().halt.closedness_tol
        assert calls == []

    def test_closed_start_is_checked_with_the_monitor_off(self, ee1):
        # The right-hand side equals the flow only on closed forms, so the
        # t = 0 check does not hang on the closedness monitor.
        psi = Form(4, standard_psi().coeffs + 1e-3 * np.arange(35, dtype=float))
        cfg = FlowConfig(monitors=MonitorConfig(closedness=False))
        traj = integrate(ee1, cfg, CoclosedState.from_psi(psi))
        term = traj.termination
        assert (term["status"], term["reason"], term["t"]) == ("halted", "closedness", 0.0)
        assert len(traj.states) == 1
        assert traj.final.record()["closedness"] is None

    def test_laplacian_flow_requires_closed_start(self, ee1):
        # The standard 3-form is not closed on this algebra, so the closed-form
        # guard trips immediately for the 3-form flow as well.
        cfg = FlowConfig(flow_kind="laplacian_flow")
        traj = integrate(ee1, cfg, G2Structure.from_phi(standard_phi()))
        assert traj.termination["status"] == "halted"
        assert traj.termination["reason"] == "closedness"
        assert traj.termination["t"] == 0.0

    def test_rhs_norm_threshold(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(
            integrator=IntegratorConfig(dt=1e-3, t_end=1.0),
            monitors=MonitorConfig(record_every=1),
            halt=HaltConfig(max_rhs_norm=1e-6),
        )
        traj = integrate(ee2, cfg, state)
        term = traj.termination
        assert term["status"] == "halted"
        assert term["reason"] == "rhs_blowup"
        assert term["detail"].startswith("rhs_norm ")
        # The offending snapshot is kept so the cause is inspectable.
        assert traj.final.diagnostics["rhs_norm"] > 1e-6

    def test_step_underflow(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(
            integrator=IntegratorConfig(method="rkf45", dt=1e-3, t_end=1.0, rel_tol=1e-300)
        )
        traj = integrate(ee2, cfg, state)
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
        state = coclosed_sample(ee2, rng, magnitude=0.2)
        cfg = FlowConfig(integrator=IntegratorConfig(dt=1e4, t_end=1e5))
        traj = integrate(ee2, cfg, state)
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
            out.append(sample_initial(L, standard_psi(), pcfg, np.random.default_rng(seed))[3])
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
            starts.append(sample_initial(L, psi, pcfg, np.random.default_rng(seed))[3])
        A = [0.0, 0.25, 0.5]
        rows = integrate(L, self.CFG, starts, A=A)
        assert [t.termination["reason"] for t in rows] == ["t_end"] * 3
        for row, want in zip(rows, _alone(L, self.CFG, starts, A)):
            assert row.termination == want.termination
            assert row.records() == want.records()

    def test_rows_are_stacked(self, ee2, monkeypatch):
        from g2flow import flows

        rows, one_form = [], []
        stack, recover = flows.stack_from_psi, CoclosedState.from_psi
        monkeypatch.setattr(flows, "stack_from_psi", lambda y: rows.append(len(y)) or stack(y))
        starts = self._starts(ee2, (0, 1, 2), 0.05)
        counting = classmethod(lambda cls, psi: one_form.append(1) or recover(psi))
        monkeypatch.setattr(CoclosedState, "from_psi", counting)
        trajectories = integrate(ee2, self.CFG, starts, A=[0.0, 0.5, 0.25])
        assert [t.termination["reason"] for t in trajectories] == ["t_end"] * 3
        # Four stages in each of 15 steps, less the first stages of steps 1,
        # 5, 9 and 13 (they reuse the starts and the records), plus the
        # records at steps 4, 8, 12 and 15.
        assert rows == [3] * (15 * 4 - 4 + 4)
        assert one_form == []
        # One row takes the closed form of one form, and passes its gate.
        rows.clear()
        closed_forms, closed_form = [], flows._closed_form
        monkeypatch.setattr(
            flows, "_closed_form", lambda psi: closed_forms.append(1) or closed_form(psi)
        )
        (single,) = integrate(ee2, self.CFG, starts[:1])
        assert rows == [] and one_form == [] and len(closed_forms) == 15 * 4 - 4 + 4
        assert single.records() == integrate(ee2, self.CFG, starts[0]).records()

    def test_a_start_that_is_not_closed_halts_alone(self, ee2, monkeypatch):
        from g2flow import flows

        psi = Form(4, standard_psi().coeffs + 1e-3 * np.arange(35, dtype=float))
        starts = [CoclosedState.from_psi(psi)] + self._starts(ee2, (0, 1), 0.05)
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
        phi = starts[0].recovered.phi.coeffs
        assert not any(np.array_equal(y, psi.coeffs) or np.array_equal(y, phi) for y in seen)
        term = rows[0].termination
        assert (term["reason"], term["t"], len(rows[0].states)) == ("closedness", 0.0, 1)
        assert rows[0].final.record()["rhs_norm"] is None
        for row, want in zip(rows, _alone(ee2, self.CFG, starts, [0.0] * 3)):
            assert row.records() == want.records()
            assert row.termination == want.termination

    def test_only_lockstep_configs_step_as_ensembles(self, ee2):
        # rkf45 sizes each row's steps, and DeTurck and Laplacian-flow rows
        # have no stacked evaluation; one row of each still integrates.
        starts = self._starts(ee2, (0, 1), 0.05)
        short = IntegratorConfig(t_end=0.01)
        for cfg in (
            FlowConfig(integrator=IntegratorConfig(method="rkf45", t_end=0.01)),
            FlowConfig(integrator=short, deturck=DeTurckConfig(enabled=True)),
            FlowConfig(integrator=short, flow_kind="laplacian_flow"),
        ):
            assert not steps_in_lockstep(cfg)
            with pytest.raises(G2FlowError, match="only rk4 modified-coflow runs"):
                integrate(ee2, cfg, starts)
            (row,) = integrate(ee2, cfg, starts[:1])
            assert row.records() == integrate(ee2, cfg, starts[0]).records()
        assert steps_in_lockstep(self.CFG)

    def test_a_single_start_reads_A_from_its_config(self, ee2):
        (start,) = self._starts(ee2, (0,), 0.05)
        with pytest.raises(G2FlowError, match="one value per row"):
            integrate(ee2, self.CFG, start, A=0.5)
        (row,) = integrate(ee2, self.CFG, [start], A=[0.5])
        alone = integrate(ee2, dataclasses.replace(self.CFG, A=0.5), start)
        assert row.records() == alone.records()


def _public_api_rows(monkeypatch):
    """Make the evaluator build every one-form row through the public API:
    the structure from ``CoclosedState.from_psi`` or ``G2Structure.from_phi``
    and the right-hand side from ``coflow_rhs`` or ``laplacian_flow_rhs``
    plus ``deturck_term``.  This is the oracle of the lean one-form path."""
    from g2flow import flows
    from g2flow.errors import PositivityError, RecoveryError

    def rhs(self, i, y):
        entry = self._rows[i]
        s = entry.structure()
        if self.coflow:
            # coflow_rhs and deturck_term read no residual.
            state = CoclosedState(psi=Form(4, y), recovered=s, residual=0.0)
            out = coflow_rhs(self.L, state, self.A[i])
        else:
            state = s
            out = laplacian_flow_rhs(self.L, s)
        gauge = self.config.deturck
        if gauge.enabled:
            out = out + deturck_term(self.L, state, self.nabla0, gauge.c1, gauge.c2)
        entry.rhs = out.coeffs
        return entry.rhs

    def one(self, i, y, out):
        try:
            if self.coflow:
                s = CoclosedState.from_psi(Form(4, y)).recovered
            else:
                s = G2Structure.from_phi(Form(3, y))
        except (PositivityError, RecoveryError) as exc:
            reason = "positivity" if isinstance(exc, PositivityError) else "newton"
            self.failed[i] = (reason, str(exc))
            return
        self._rows[i] = flows._Row(y.tobytes(), s.phi.coeffs, s.metric, structure=s)
        out[:] = self._rhs(i, y)

    monkeypatch.setattr(flows._Evaluator, "_rhs", rhs)
    monkeypatch.setattr(flows._Evaluator, "_one", one)


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
        return sample_initial(L, psi, pcfg, np.random.default_rng(seed))[3]

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
            L, phi = _changed_coframe(n2, closed_n2_phi(np.random.default_rng(2)), seed=4)
            start = G2Structure.from_phi(phi)
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
            L, start = n2, G2Structure.from_phi(closed_n2_phi(np.random.default_rng(3)))
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
            L, start = n2, G2Structure.from_phi(closed_n2_phi(np.random.default_rng(3)))
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

    def test_structures_are_built_per_record_not_per_stage(self, n2, monkeypatch):
        # The laplacian_n2 benchmark run over one time unit: 100 rk4 steps,
        # 400 stages and 101 records.
        counts = {"Form": 0, "Metric": 0}
        for cls in (Form, Metric):
            init = cls.__post_init__

            def counting(self, init=init, name=cls.__name__):
                counts[name] += 1
                init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        start = G2Structure.from_phi(closed_n2_phi(np.random.default_rng(0)))
        cfg = FlowConfig(
            flow_kind="laplacian_flow",
            integrator=IntegratorConfig(dt=0.01, t_end=1.0),
            monitors=MonitorConfig(record_every=1),
        )
        counts.update(Form=0, Metric=0)
        traj = integrate(n2, cfg, start)
        records = len(traj.states)
        assert (traj.termination["steps"], records) == (100, 101)
        # phi and psi = star phi of each record's structure but the start's,
        # which holds both already; no Metric.
        assert counts == {"Form": 2 * records - 2, "Metric": 0}


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
        base = CoclosedState.from_psi(standard_psi())
        dirs = coclosed_directions(ee1)
        report = linearize(ee1, _rhs0, base, dirs, eps=1e-3)
        assert report.matrix.shape == (len(dirs), len(dirs))
        assert np.max(np.abs(report.matrix)) <= 1e-6
        assert np.max(np.abs(report.eigenvalues)) <= 1e-6
        assert report.asymmetry_norm <= 1e-6

    def test_refinement_keeps_zero_matrix(self, ee1):
        # Halving eps must leave the zero matrix in place: entry changes stay
        # within a quadratic-in-eps budget instead of exploding as 1/eps.
        base = CoclosedState.from_psi(standard_psi())
        dirs = coclosed_directions(ee1)
        eps = 2e-3
        coarse = linearize(ee1, _rhs0, base, dirs, eps=eps)
        fine = linearize(ee1, _rhs0, base, dirs, eps=eps / 2.0)
        assert np.max(np.abs(fine.matrix)) <= 1e-6
        assert np.max(np.abs(coarse.matrix - fine.matrix)) <= 1.0 * eps**2

    def test_quadratic_refinement_at_curved_static_point(self, ee2):
        # At a static point with a genuinely nonzero linearization
        # the central-difference matrix M(eps) = M0 + C eps^2 + ..., so
        # successive halvings shrink the increment by a factor of four.
        base = CoclosedState.from_phi(ee2_diagonal_phi(STATIC_MEMBER))
        assert np.linalg.norm(_rhs0(ee2, base).coeffs) <= 1e-10
        dirs = coclosed_directions(ee2)
        mats = {}
        for eps in (2e-3, 1e-3, 5e-4):
            mats[eps] = linearize(ee2, _rhs0, base, dirs, eps=eps).matrix
        assert np.max(np.abs(mats[1e-3])) > 1.0  # genuinely nonzero
        d_coarse = np.max(np.abs(mats[2e-3] - mats[1e-3]))
        d_fine = np.max(np.abs(mats[1e-3] - mats[5e-4]))
        assert d_coarse / d_fine == pytest.approx(4.0, rel=0.2)

    def test_directions_are_l2_orthonormal(self, ee1):
        base = CoclosedState.from_psi(standard_psi())
        report = linearize(ee1, _rhs0, base, coclosed_directions(ee1), eps=1e-3)
        structure = base.recovered
        gram = structure.metric.gram(4) * structure.volume
        mat = np.column_stack([d.coeffs for d in report.directions])
        assert np.max(np.abs(mat.T @ gram @ mat - np.eye(mat.shape[1]))) <= 1e-10

    def test_non_static_base_raises(self, ee2, rng):
        state = coclosed_sample(ee2, rng, magnitude=0.25)
        with pytest.raises(G2FlowError, match="not static"):
            linearize(ee2, _rhs0, state, coclosed_directions(ee2))

    def test_degenerate_directions_raise(self, ee1):
        base = CoclosedState.from_psi(standard_psi())
        dirs = coclosed_directions(ee1)
        with pytest.raises(G2FlowError, match="degenerate direction set"):
            linearize(ee1, _rhs0, base, [dirs[0], dirs[0]])

    def test_requires_coclosed_state(self, ee1):
        with pytest.raises(G2FlowError, match="CoclosedState"):
            linearize(ee1, _rhs0, G2Structure.from_phi(standard_phi()), [])

    def test_empty_directions_raise(self, ee1):
        base = CoclosedState.from_psi(standard_psi())
        with pytest.raises(G2FlowError, match="non-empty"):
            linearize(ee1, _rhs0, base, [])
