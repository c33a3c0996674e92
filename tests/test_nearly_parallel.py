"""Tests for the scalar conformal-factor reduction of the coflow."""

import numpy as np
import pytest

from g2flow import (
    ConfigError,
    G2FlowError,
    NPParams,
    config_from_dict,
    np_closed_form,
    np_rhs,
    np_solve,
    run_experiment,
)

from .oracles import np_closed_form_oracle


class TestParams:
    def test_rejects_nonpositive_c0(self):
        with pytest.raises(ConfigError, match="c0 must be > 0"):
            NPParams(tau0=1.0, c0=0.0)
        with pytest.raises(ConfigError, match="c0 must be > 0"):
            NPParams(tau0=1.0, c0=-2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigError, match="tau0 must be finite"):
            NPParams(tau0=float("nan"))
        with pytest.raises(ConfigError, match="A must be finite"):
            NPParams(tau0=1.0, A=float("inf"))


class TestRhs:
    def test_rejects_nonpositive_factor(self):
        params = NPParams(tau0=1.0)
        with pytest.raises(G2FlowError, match="positive"):
            np_rhs(0.0, params)
        with pytest.raises(G2FlowError, match="positive"):
            np_rhs(-1.0, params)

    def test_plain_case_value(self):
        # At A = 0 the rate is -(5/2) tau0^2 sqrt(c).
        params = NPParams(tau0=0.7)
        for c in (0.25, 1.0, 4.0):
            assert np_rhs(c, params) == pytest.approx(-2.5 * 0.49 * np.sqrt(c), rel=1e-14)

    def test_stationary_torsion_constant(self):
        # tau0 = (4/5) A freezes the unit factor.
        params = NPParams(tau0=0.8, A=1.0)
        assert abs(np_rhs(1.0, params)) <= 1e-15
        # ...and only the unit factor: elsewhere the rate keeps sign(c - 1).
        for c, sign in ((0.5, -1.0), (0.9, -1.0), (1.1, 1.0), (3.0, 1.0)):
            assert np.sign(np_rhs(c, params)) == sign

    def test_factorized_form(self):
        # The expanded rate equals c^{3/4} tau0 (2A - (5/2) c^{-1/4} tau0).
        params = NPParams(tau0=1.3, A=-0.4)
        for c in (0.3, 1.7):
            compact = c**0.75 * params.tau0 * (2.0 * params.A - 2.5 * c**-0.25 * params.tau0)
            assert np_rhs(c, params) == pytest.approx(compact, rel=1e-14)


class TestClosedForm:
    def test_worked_value(self):
        # tau0 = 1, c0 = 1: c(1/2) = (1 - 5/8)^2 = 0.140625.
        params = NPParams(tau0=1.0)
        assert np_closed_form(0.5, params) == pytest.approx(0.140625, abs=1e-15)
        assert np_closed_form_oracle(0.5, 1.0) == 0.140625

    def test_floors_at_zero_after_blow_down(self):
        params = NPParams(tau0=1.0)
        assert np_closed_form(0.8, params) == pytest.approx(0.0, abs=1e-15)
        assert np_closed_form(5.0, params) == 0.0

    def test_vectorized_against_oracle(self):
        params = NPParams(tau0=0.6, c0=2.0)
        t = np.linspace(0.0, 1.5, 17)
        want = np.array([np_closed_form_oracle(x, 0.6, 2.0) for x in t])
        assert np.allclose(np_closed_form(t, params), want, atol=1e-15)


class TestSolve:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigError, match="t_end must be > 0"):
            np_solve(NPParams(tau0=1.0), t_end=0.0)
        with pytest.raises(ConfigError, match="dt must be > 0"):
            np_solve(NPParams(tau0=1.0), t_end=1.0, dt=-1e-3)

    @pytest.mark.parametrize("tau0", [0.5, 1.0, 2.0])
    def test_matches_closed_form(self, tau0):
        # Integrate to 80% of the finite blow-down time and compare.
        params = NPParams(tau0=tau0)
        t_end = 0.8 * 0.8 / tau0**2
        traj = np_solve(params, t_end=t_end, dt=1e-4)
        assert traj.status == "completed"
        assert traj.closed_form_max_rel_err is not None
        assert traj.closed_form_max_rel_err <= 1e-6

    def test_volume_power_law(self):
        # Vol_t = c_t^{7/4} Vol_0: log-log slope is exactly 7/4 and
        # the volume decreases strictly in the plain case.
        params = NPParams(tau0=1.0)
        traj = np_solve(params, t_end=0.5, dt=1e-3, vol0=2.0)
        assert np.all(np.diff(traj.vol) < 0.0)
        slopes = np.diff(np.log(traj.vol)) / np.diff(np.log(traj.c))
        assert np.max(np.abs(slopes - 1.75)) <= 1e-8
        assert np.allclose(traj.vol, 2.0 * traj.c**1.75, rtol=1e-14)

    @pytest.mark.parametrize("mu", [0.9, 1.1])
    def test_rate_keeps_initial_sign(self, mu):
        # With the stationary torsion constant the unit factor
        # separates growth from decay; starting at mu keeps sign(mu - 1).
        params = NPParams(tau0=0.8, A=1.0, c0=mu)
        traj = np_solve(params, t_end=1.0, dt=1e-3)
        assert traj.status == "completed"
        assert np.all(np.sign(traj.rhs) == np.sign(mu - 1.0))

    def test_stationary_run_is_constant(self):
        params = NPParams(tau0=0.8, A=1.0, c0=1.0)
        traj = np_solve(params, t_end=1.0, dt=1e-2)
        assert np.max(np.abs(traj.c - 1.0)) <= 1e-12

    def test_blow_down_is_reported(self):
        # tau0 = 1, c0 = 1 reaches zero at t = 0.8 exactly.
        params = NPParams(tau0=1.0)
        traj = np_solve(params, t_end=2.0, dt=1e-3)
        assert traj.status == "blow_down"
        assert traj.blow_down_time == pytest.approx(0.8, abs=2e-3)
        assert traj.c[-1] <= 1e-4
        assert traj.rhs[-1] <= 0.0
        assert traj.t[-1] == traj.blow_down_time

    def test_completed_run_has_no_blow_down_time(self):
        traj = np_solve(NPParams(tau0=0.5), t_end=0.1, dt=1e-3)
        assert traj.status == "completed"
        assert traj.blow_down_time is None

    def test_nonzero_A_skips_closed_form_report(self):
        traj = np_solve(NPParams(tau0=0.5, A=1.0), t_end=0.1, dt=1e-3)
        assert traj.closed_form_max_rel_err is None

    def test_records_every_step(self):
        traj = np_solve(NPParams(tau0=0.5), t_end=0.05, dt=1e-3)
        assert len(traj.t) == 51
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(0.05, abs=1e-12)
        assert np.allclose(np.diff(traj.t), 1e-3, atol=1e-12)

    def test_csv_columns(self, tmp_path):
        raw = {
            "schema_version": 1,
            "experiment": "np",
            "flow": {"integrator": {"t_end": 0.01, "dt": 1e-3}},
            "output": {"format": "csv"},
        }
        cfg, violations = config_from_dict(raw)
        assert violations == []
        (path,) = run_experiment(cfg, output_dir=tmp_path).files
        traj = np_solve(NPParams(tau0=1.0), t_end=0.01, dt=1e-3)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "t,c,vol,rhs"
        assert lines[1:] == [
            ",".join(repr(float(v)) for v in row)
            for row in zip(traj.t, traj.c, traj.vol, traj.rhs)
        ]
