"""Positive 3-forms, induced metrics, duals, closed-form recovery, torsion."""

import time

import numpy as np
import pytest

from g2flow import (
    Form,
    G2Structure,
    full_torsion,
    hodge_laplacian,
    metric_from_phi,
    phi_of_psi,
    standard_phi,
    standard_psi,
    torsion_trace,
)
from g2flow.conventions import NEWTON_MAX_ITER, NEWTON_TOL
from g2flow.errors import (
    DegreeError,
    G2FlowError,
    PositivityError,
    RecoveryError,
    UnimodularityError,
)
from g2flow.exterior import DIM, Metric, star
from g2flow.g2core import _phi_of_psi, b_matrix, dual_jacobian
from g2flow.fixtures import ee2_diagonal_phi

from .conftest import (
    coclosed_sample,
    conditioned_positive_phi,
    conditioned_spd,
    random_form,
    random_positive_phi,
)
from .oracles import (
    ExactMetric,
    b_matrix_oracle,
    closed_form_oracle,
    dict_of_coeffs,
    family_lambda_oracle,
    fd_dual_jacobian,
    metric_oracle,
    newton_phi_of_psi,
)


class TestBMatrix:
    def test_reference_value_is_six_identity(self, phi_bar):
        assert np.allclose(b_matrix(phi_bar), 6.0 * np.eye(DIM), atol=1e-13)

    def test_matches_contraction_oracle(self, rng):
        for _ in range(5):
            phi = random_positive_phi(rng)
            want = b_matrix_oracle(dict_of_coeffs(3, phi.coeffs))
            assert np.allclose(b_matrix(phi), want, atol=1e-10)

    def test_flat_tables_equal_tensordot_bitwise(self, rng, phi_bar):
        """The flattened contractions reproduce the tensordot forms bit for
        bit, also on forms with exact zeros of both signs."""
        from g2flow.exterior import CONTRACT, DIMS
        from g2flow.g2core import _P223

        p223 = _P223.reshape(DIMS[2], DIMS[2], DIMS[3])
        phis = [phi_bar] + [random_positive_phi(rng) for _ in range(20)]
        phis += [Form(3, p.coeffs * (rng.random(DIMS[3]) < 0.5)) for p in phis[1:]]
        for phi in phis:
            u = np.tensordot(CONTRACT[3], phi.coeffs, axes=(1, 0))
            p = np.tensordot(p223, phi.coeffs, axes=(2, 0))
            assert b_matrix(phi).tobytes() == (u @ p @ u.T).tobytes()

    def test_wrong_degree_rejected(self, psi_bar):
        with pytest.raises(DegreeError):
            b_matrix(psi_bar)


class TestMetricFromPhi:
    def test_reference_metric_is_identity(self, phi_bar):
        g = metric_from_phi(phi_bar)
        assert np.max(np.abs(g.g - np.eye(DIM))) <= 1e-14
        assert abs(g.vol.coeffs[0] - 1.0) <= 1e-14

    def test_matches_normalized_oracle(self, rng):
        for _ in range(5):
            phi = random_positive_phi(rng)
            got = metric_from_phi(phi).g
            want = metric_oracle(dict_of_coeffs(3, phi.coeffs))
            assert np.allclose(got, want, atol=1e-10)

    def test_scaling_weight(self, phi_bar, rng):
        """phi -> s phi rescales the metric by s^{2/3}."""
        phi = random_positive_phi(rng)
        g1 = metric_from_phi(phi).g
        for s in (0.5, 2.0, 3.0):
            gs = metric_from_phi(Form(3, s * phi.coeffs)).g
            assert np.allclose(gs, s ** (2.0 / 3.0) * g1, atol=1e-12)

    def test_negative_form_rejected(self, phi_bar):
        with pytest.raises(PositivityError):
            metric_from_phi(Form(3, -phi_bar.coeffs))

    def test_random_far_form_rejected(self):
        bad = Form.monomial((1, 2, 3))
        with pytest.raises(PositivityError):
            metric_from_phi(bad)

    def test_diagonal_family_metric_is_squared_stretch(self, rng):
        """The diagonal family member with coefficients c has metric
        diag(lambda^2) with the stretch factors solving the line products."""
        for _ in range(4):
            c = rng.uniform(0.5, 2.0, size=7)
            lam = family_lambda_oracle(c)
            g = metric_from_phi(ee2_diagonal_phi(c)).g
            assert np.allclose(g, np.diag(lam**2), atol=1e-10)


class TestStructure:
    def test_reference_dual(self, phi_bar, psi_bar):
        s = G2Structure.from_phi(phi_bar)
        assert np.array_equal(s.psi.coeffs, psi_bar.coeffs)
        assert abs(s.volume - 1.0) <= 1e-14

    def test_dual_is_metric_star(self, rng):
        phi = random_positive_phi(rng)
        s = G2Structure.from_phi(phi)
        assert np.allclose(s.psi.coeffs, star(s.metric, phi).coeffs, atol=1e-12)

    def test_reference_star_runtime(self, phi_bar):
        g = Metric.identity()
        star(g, phi_bar)  # warm the cached block
        t0 = time.perf_counter()
        psi = star(g, phi_bar)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-3
        assert np.array_equal(psi.coeffs, standard_psi().coeffs)


def _conditioned_structures(rng, n):
    """n structures of random positive 3-forms whose metrics have condition
    numbers spread log-uniformly over [1, 1e4], with those numbers."""
    out = []
    for _ in range(n):
        s = G2Structure.from_phi(conditioned_positive_phi(rng, 10.0 ** rng.uniform(0.0, 4.0)))
        out.append((s, np.linalg.cond(s.metric.g)))
    return out


def _same_metric_bits(a, b):
    assert a.g.tobytes() == b.g.tobytes() and a.inv.tobytes() == b.inv.tobytes()
    assert (a.det, a.sqrt_det) == (b.det, b.sqrt_det)


class TestDualIdentity:
    """star phi is read off B's factors by (iota_v phi) ^ phi = 2 v^flat ^ psi;
    the generic star and the exact rational star are its oracles."""

    def test_matches_the_generic_and_the_exact_star(self, rng):
        # The forward error of either star grows with cond(g): about
        # 2 cond(g) eps relative at worst over such samples.
        for i, (s, cond) in enumerate(_conditioned_structures(rng, 40)):
            phi = s.phi.coeffs
            scale = 1e-15 * cond * np.abs(s.psi.coeffs).max()
            assert np.abs(s.psi.coeffs - s.metric.star_coeffs(3, phi)).max() <= scale
            if i < 3:
                exact = ExactMetric(s.metric.g).star(3, phi)
                assert np.abs(s.psi.coeffs - exact).max() <= scale

    def test_metric_caches_match_the_matrix(self, rng):
        for s, cond in _conditioned_structures(rng, 20):
            g = s.metric.g
            assert np.abs(s.metric.inv @ g - np.eye(DIM)).max() <= 1e-15 * cond
            assert s.metric.det == pytest.approx(np.linalg.det(g), rel=1e-15 * cond)
            assert s.metric.sqrt_det == pytest.approx(np.sqrt(s.metric.det), rel=1e-15)

    def test_stacked_rows_get_the_bits_of_one_form(self, rng):
        from g2flow.g2core import _induced

        phis = np.array([s.phi.coeffs for s, _ in _conditioned_structures(rng, 9)])
        bad = np.zeros(len(phis), dtype=bool)
        metric, psi = _induced(phis, bad)
        assert not bad.any()
        for r, phi in enumerate(phis):
            one, one_psi = _induced(phi)
            _same_metric_bits(metric._row(r), one)
            assert psi[r].tobytes() == one_psi.tobytes()

    def test_closed_form_matches_the_generic_star_recovery(self, rng):
        from g2flow.g2core import _closed_form

        for s, cond in _conditioned_structures(rng, 15):
            phi, metric, back = _closed_form(s.psi.coeffs)
            want_phi, want_g = closed_form_oracle(s.psi.coeffs)
            assert np.abs(phi - want_phi).max() <= 1e-15 * cond * np.abs(want_phi).max()
            assert np.abs(metric.g - want_g).max() <= 1e-14 * cond * np.abs(want_g).max()
            assert back.tobytes() == G2Structure.from_phi(Form(3, phi)).psi.coeffs.tobytes()

    def test_stacked_recovery_rows_get_the_bits_of_one_form(self, rng):
        from g2flow.g2core import _closed_form, stack_from_psi

        psis = np.array([s.psi.coeffs for s, _ in _conditioned_structures(rng, 9)])
        stack, bad = stack_from_psi(psis)
        for r, psi in enumerate(psis):
            phi, metric, _ = _closed_form(psi)
            assert stack.phi_coeffs[r].tobytes() == phi.tobytes()
            _same_metric_bits(stack.metric._row(r), metric)

    def test_the_standard_structure_is_exact(self, phi_bar, psi_bar):
        s = G2Structure.from_phi(phi_bar)
        assert np.array_equal(s.metric.g, np.eye(DIM))
        assert np.array_equal(s.metric.inv, np.eye(DIM))
        rec = phi_of_psi(psi_bar)
        assert np.array_equal(rec.phi.coeffs, phi_bar.coeffs)
        assert np.array_equal(rec.psi.coeffs, psi_bar.coeffs)


class TestRecovery:
    def test_roundtrip_from_true_seed(self, rng):
        for _ in range(5):
            phi = random_positive_phi(rng)
            s = G2Structure.from_phi(phi)
            rec = phi_of_psi(s.psi, phi)
            assert np.allclose(rec.phi.coeffs, phi.coeffs, atol=1e-10)

    def test_roundtrip_from_perturbed_seed(self, rng):
        phi = random_positive_phi(rng)
        s = G2Structure.from_phi(phi)
        seed = Form(3, phi.coeffs + 0.05 * rng.standard_normal(35))
        rec = phi_of_psi(s.psi, seed)
        assert np.allclose(rec.phi.coeffs, phi.coeffs, atol=1e-9)

    def test_negative_psi_rejected(self, psi_bar):
        with pytest.raises(RecoveryError, match="det B"):
            phi_of_psi(Form(4, -psi_bar.coeffs))

    def test_degenerate_dual_rejected(self):
        """e4567 reads as the 3-form e123, whose B matrix is singular."""
        with pytest.raises(RecoveryError, match="det B"):
            phi_of_psi(Form.monomial((4, 5, 6, 7)))

    def test_correction_budget_enforced(self, rng):
        s = G2Structure.from_phi(random_positive_phi(rng))
        closed = phi_of_psi(s.psi, tol=np.inf)
        residual = float(np.linalg.norm(closed.psi.coeffs - s.psi.coeffs))
        assert residual > 0.0
        with pytest.raises(RecoveryError) as info:
            phi_of_psi(s.psi, tol=0.5 * residual, max_iter=0)
        assert info.value.residual == residual

    def test_coclosed_state_residuals(self, phi_bar, rng):
        # The residual |star phi - psi| that the recovery ends on: zero at
        # the dual of the standard form, within the gate at another one.
        exact = G2Structure.from_phi(phi_bar)
        assert _phi_of_psi(exact.psi, NEWTON_TOL, NEWTON_MAX_ITER)[1] == 0.0
        rebuilt = G2Structure.from_phi(random_positive_phi(rng))
        assert _phi_of_psi(rebuilt.psi, NEWTON_TOL, NEWTON_MAX_ITER)[1] <= 1e-10


class TestRecoveryOracles:
    def test_closed_form_matches_newton(self, rng):
        """Wherever Newton from the standard seed converges, the closed form
        (with its corrections) recovers the same phi within tolerance; near
        the standard form it needs no correction at all."""
        compared = 0
        corrected = {0.05: 0, 0.3: 0}
        for magnitude in (0.05, 0.3):
            for _ in range(100):
                try:
                    s = G2Structure.from_phi(random_positive_phi(rng, scale=magnitude))
                except PositivityError:
                    continue
                ref = newton_phi_of_psi(s.psi, standard_phi())
                if ref is None:
                    continue
                rec = phi_of_psi(s.psi)
                rel = np.linalg.norm(rec.phi.coeffs - ref.phi.coeffs) / np.linalg.norm(
                    ref.phi.coeffs
                )
                assert rel <= 1e-9
                assert np.linalg.norm(rec.psi.coeffs - s.psi.coeffs) <= NEWTON_TOL
                compared += 1
                try:
                    phi_of_psi(s.psi, max_iter=0)
                except RecoveryError:
                    corrected[magnitude] += 1
        assert compared >= 100
        assert corrected[0.05] == 0
        assert corrected[0.3] >= 1  # the correction path was exercised

    def test_dual_jacobian_matches_finite_differences(self, rng):
        for magnitude in (0.05, 0.3):
            for _ in range(5):
                try:
                    s = G2Structure.from_phi(random_positive_phi(rng, scale=magnitude))
                except PositivityError:
                    continue
                fd = fd_dual_jacobian(s.phi.coeffs, np.zeros(35), s.psi.coeffs)
                assert np.linalg.norm(dual_jacobian(s) - fd) <= 1e-4 * np.linalg.norm(fd)


class TestTorsion:
    def test_reference_trace_on_ee1(self, ee1, phi_bar):
        """For d phi = e^{167} wedge data the trace reduces to
        (1/4) star(d phi ^ phi): a single top-form coefficient."""
        from g2flow.liealg import differential
        from g2flow.exterior import wedge

        s = G2Structure.from_phi(phi_bar)
        top = wedge(differential(ee1, s.phi), s.phi)
        want = 0.25 * top.coeffs[0] / s.volume
        assert np.isclose(torsion_trace(ee1, s), want, atol=1e-14)

    def test_full_torsion_trace_consistency(self, ee1, ee2, rng):
        """The metric trace of the full torsion tensor equals the scalar
        torsion trace; this calibrates the pairing constant."""
        for L in (ee1, ee2):
            for _ in range(3):
                phi = random_positive_phi(rng, scale=0.05)
                s = G2Structure.from_phi(phi)
                t = full_torsion(L, s)
                assert np.isclose(t.trace(s.metric), torsion_trace(L, s), atol=1e-9)

    def test_scaling_quarter_power(self, ee1, ee2, rng):
        """psi -> c psi rescales the torsion trace by c^{-1/4}."""
        for L in (ee1, ee2):
            for _ in range(5):
                psi, s = coclosed_sample(L, rng, magnitude=0.2)
                base = torsion_trace(L, s)
                for c in (0.5, 2.0, 5.0):
                    scaled = phi_of_psi(Form(4, c * psi.coeffs))
                    got = torsion_trace(L, scaled)
                    assert np.isclose(got, c ** (-0.25) * base, rtol=1e-8, atol=1e-12)

    def test_torus_torsion_free(self, torus, phi_bar):
        s = G2Structure.from_phi(phi_bar)
        assert torsion_trace(torus, s) == 0.0
        assert full_torsion(torus, s).norm_squared(s.metric) <= 1e-20


class TestLaplacian:
    def test_matches_matrix_assembly(self, torus, ee1, ee2, n2, rng):
        # The chain of coefficient products against the assembled matrix: at
        # a G2 metric, and in every degree on every algebra for metrics of
        # both orientations with condition numbers up to 1e4.
        from g2flow.liealg import hodge_laplacian_matrix

        s = G2Structure.from_phi(random_positive_phi(rng))
        got = hodge_laplacian(ee2, s.metric, s.psi)
        want = hodge_laplacian_matrix(ee2, s.metric, 4) @ s.psi.coeffs
        assert np.allclose(got.coeffs, want, atol=1e-12)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for cond in (1.0, 1e2, 1e4):
                for orientation in (1, -1):
                    g = Metric(conditioned_spd(rng, cond), orientation)
                    for k in range(DIM + 1):
                        a = random_form(rng, k)
                        for L in (torus, ee1, ee2, n2):
                            want = hodge_laplacian_matrix(L, g, k) @ a.coeffs
                            got = hodge_laplacian(L, g, a).coeffs
                            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_non_unimodular_algebra_raises(self):
        from g2flow.liealg import LieAlgebraStructure

        # d e^1 = e^{12}: ad(e_2) has nonzero trace.
        L = LieAlgebraStructure.from_dict(
            {"dim": 7, "d": [{"one_form": 1, "terms": [{"idx": [1, 2], "coef": 1.0}]}]}
        )
        for k in range(DIM + 1):
            with pytest.raises(UnimodularityError):
                hodge_laplacian(L, Metric.identity(), Form.zero(k))

    def test_torus_harmonic(self, torus, phi_bar):
        s = G2Structure.from_phi(phi_bar)
        assert np.max(np.abs(hodge_laplacian(torus, s.metric, s.phi).coeffs)) == 0.0


def _coclosed_stack(L, magnitude, n=40, seed=5):
    """n rows of the reference 4-form plus seeded unit coclosed directions."""
    from g2flow.flows import closed_directions

    basis = np.column_stack([f.coeffs for f in closed_directions(L, 4)])
    direction = np.random.default_rng(seed).standard_normal((n, basis.shape[1])) @ basis.T
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return standard_psi().coeffs + magnitude * direction


def _assert_rows_close(got, want, rtol=1e-14):
    scale = max(1.0, float(np.linalg.norm(want)))
    assert float(np.linalg.norm(np.asarray(got) - want)) <= rtol * scale


class TestStackedRecovery:
    """The stacked recovery and right-hand side against the per-state path."""

    @pytest.mark.parametrize("tol", [NEWTON_TOL, 1e-15], ids=["newton-tol", "tight"])
    @pytest.mark.parametrize("magnitude", [0.05, 0.3])
    @pytest.mark.parametrize("name", ["ee1", "ee2"])
    def test_matches_per_state(self, request, monkeypatch, name, magnitude, tol):
        from g2flow import g2core
        from g2flow.flows import _stacked_rhs, coflow_rhs
        from g2flow.g2core import stack_from_psi

        L = request.getfixturevalue(name)
        psi = _coclosed_stack(L, magnitude)
        monkeypatch.setattr(g2core, "NEWTON_TOL", tol)
        stack, bad = stack_from_psi(psi)

        def closed_form_misses(row):
            try:
                phi_of_psi(Form(4, row), tol=tol, max_iter=0)
            except RecoveryError:
                return True
            return False

        # A row is marked exactly when the per-state closed form misses the
        # gate, i.e. when the per-state path needs a Newton correction.
        assert bad.tolist() == [closed_form_misses(row) for row in psi]
        if tol < NEWTON_TOL:
            # Closed-form residuals sit at about 1e-15, so a tighter gate
            # marks some rows and keeps others.
            assert 0 < bad.sum() < len(psi)
        residual = np.linalg.norm(stack.metric.star_coeffs(3, stack.phi_coeffs) - psi, axis=1)
        _, rhs, _, _, alone = _stacked_rhs(L, "modified_coflow", 4, 0.5, psi)
        assert list(alone) == np.flatnonzero(bad).tolist()
        for i in np.flatnonzero(~bad):
            s, s_residual = _phi_of_psi(Form(4, psi[i]), tol, NEWTON_MAX_ITER)
            _assert_rows_close(stack.phi_coeffs[i], s.phi.coeffs)
            _assert_rows_close(stack.metric.g[i], s.metric.g)
            assert abs(residual[i] - s_residual) <= 1e-14
            _assert_rows_close(rhs[i], coflow_rhs(L, s, 0.5).coeffs)

    def test_a_non_positive_row_is_marked_and_the_others_kept(self, ee1):
        from g2flow.g2core import stack_from_psi

        psi = _coclosed_stack(ee1, 0.05, n=5)
        mixed = psi.copy()
        mixed[2] = -psi[2]  # its dual 3-form has det B < 0
        stack, bad = stack_from_psi(mixed)
        assert bad.tolist() == [False, False, True, False, False]
        kept, kept_bad = stack_from_psi(np.delete(psi, 2, axis=0))
        assert not kept_bad.any()
        for got, want in ((stack.phi_coeffs, kept.phi_coeffs), (stack.metric.g, kept.metric.g)):
            np.testing.assert_allclose(np.delete(got, 2, axis=0), want, rtol=1e-14, atol=0)
        # Redone on its own, the row raises what one recovery raises.
        with pytest.raises(RecoveryError, match=r"^4-form is not positive \(its dual 3-form: "
                           r"3-form is not positively oriented \(det B = -"):
            phi_of_psi(Form(4, mixed[2]))

    def test_rows_marked_before_the_witness_leave_it_one_factorisation(self, monkeypatch):
        from g2flow.g2core import _induced

        phis = np.array([random_positive_phi(np.random.default_rng(i)).coeffs for i in range(6)])
        phis[[1, 4]] *= -1.0  # det B < 0
        calls = []
        cholesky = np.linalg.cholesky

        def counting(g):
            calls.append(len(g))
            return cholesky(g)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        bad = np.zeros(len(phis), dtype=bool)
        metric, _ = _induced(phis, bad)
        assert bad.tolist() == [False, True, False, False, True, False]
        assert calls == [6]
        assert np.array_equal(metric.g[[1, 4]], [np.eye(7)] * 2)

    def test_one_indefinite_row_costs_a_bisection_not_a_row_loop(self, monkeypatch):
        # A row with det > 0 that is not positive definite fails the stacked
        # factorisation; halving the stack finds it in 1 + 2 log2(n) tries
        # (one by one took 1 + n).
        from g2flow.g2core import _cholesky_rows

        g = np.array([np.eye(7)] * 32)
        g[19] = np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        calls = []
        cholesky = np.linalg.cholesky

        def counting(m):
            calls.append(len(m))
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        assert np.flatnonzero(~_cholesky_rows(g)[1]).tolist() == [19]
        assert sorted(calls, reverse=True) == [32, 16, 16, 8, 8, 4, 4, 2, 2, 1, 1]

    def test_a_non_finite_right_hand_side_raises_as_one_row_does(self, ee2):
        # Structure constants of 1e300 leave every structure positive and
        # finite, and send d of d phi's star past the finite range.  The
        # public functions quietly raise the halt of a row on it; the stacked
        # evaluation, of a stack or of one row, quietly gives norms that are
        # not finite, on which its callers halt.
        from g2flow.flows import _raise_row_error, _stacked_rhs, coflow_rhs, laplacian_flow_rhs
        from g2flow.liealg import LieAlgebraStructure

        huge = LieAlgebraStructure(tuple(Form(2, 1e300 * f.coeffs) for f in ee2.d1))
        phi = np.array([ee2_diagonal_phi(np.full(7, c)).coeffs for c in (1.0, 1.2)])
        # The diagonal family is coclosed, so the Laplacian flow needs a
        # generic positive 3-form to have a right-hand side at all.
        generic = G2Structure.from_phi(Form(3, phi[0] + 0.1 * np.sin(np.arange(35))))
        for public in (
            lambda: coflow_rhs(huge, G2Structure.from_phi(Form(3, phi[1]))),
            lambda: laplacian_flow_rhs(huge, generic),
        ):
            with pytest.raises(G2FlowError, match="the right-hand side left the finite range"):
                public()
        for x in (phi, phi[1:]):
            _, _, _, norms, alone = _stacked_rhs(huge, "modified_coflow", 3, 0.0, x)
            assert not np.isfinite(norms).any()
            with pytest.raises(G2FlowError, match="the right-hand side left the finite range"):
                _raise_row_error(alone, norms)
