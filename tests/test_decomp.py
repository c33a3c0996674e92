"""Tests for form-space projectors and the 4-form variation split."""

import numpy as np
import pytest

from g2flow import (
    DIM,
    DIMS,
    Form,
    G2FlowError,
    G2Structure,
    SymTensor,
    decompose_variation,
    i_phi,
    metric_variation,
    phi_of_psi,
    project2,
    project3,
    projector_matrices2,
    projector_matrices3,
    standard_phi,
    star,
    variation_form,
    wedge,
)
from g2flow.conventions import IPHI_KAPPA1

from .conftest import random_positive_phi, random_spd


class TestSymTensor:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="7x7"):
            SymTensor(np.eye(3))

    def test_rejects_asymmetric(self):
        h = np.zeros((DIM, DIM))
        h[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            SymTensor(h)

    def test_trace_against_metric(self, rng):
        # Trace is g^{ij} h_ij; for h = g it equals the dimension.
        structure = G2Structure.from_phi(random_positive_phi(rng))
        g = structure.metric
        assert SymTensor(g.g).trace(g) == pytest.approx(DIM, abs=1e-12)
        h = random_spd(rng)
        expected = float(np.trace(g.inv @ h))
        assert SymTensor(h).trace(g) == pytest.approx(expected, rel=1e-13)


class TestIPhi:
    def test_metric_insertion_is_kappa1_phi(self, phi_bar, rng):
        # Inserting the metric itself rescales phi by the frozen
        # constant: each of the three indices of phi is acted on by the
        # identity, and the convention doubles the derivation action.
        structure = G2Structure.from_phi(phi_bar)
        out = i_phi(structure, structure.metric.g)
        assert np.array_equal(out.coeffs, IPHI_KAPPA1 * phi_bar.coeffs)
        # Same identity at a generic positive structure.
        structure = G2Structure.from_phi(random_positive_phi(rng))
        out = i_phi(structure, structure.metric.g)
        err = np.max(np.abs(out.coeffs - IPHI_KAPPA1 * structure.phi.coeffs))
        assert err <= 1e-12 * np.max(np.abs(structure.phi.coeffs))

    def test_linear_in_tensor(self, phi_bar, rng):
        structure = G2Structure.from_phi(phi_bar)
        a = random_spd(rng)
        b = random_spd(rng)
        lhs = i_phi(structure, 2.0 * a + 3.0 * b)
        rhs = 2.0 * i_phi(structure, a) + 3.0 * i_phi(structure, b)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12

    def test_accepts_raw_array(self, phi_bar):
        structure = G2Structure.from_phi(phi_bar)
        raw = i_phi(structure, np.eye(DIM))
        wrapped = i_phi(structure, SymTensor(np.eye(DIM)))
        assert np.array_equal(raw.coeffs, wrapped.coeffs)


class TestVariationSplit:
    def test_roundtrip_from_parameters(self, phi_bar, rng):
        # The split is a linear isomorphism, so parameters survive
        # a forward-then-inverse pass to roundoff.
        structure = G2Structure.from_phi(phi_bar)
        for _ in range(5):
            alpha = Form(1, rng.normal(size=DIMS[1]))
            h = SymTensor(random_spd(rng) - np.eye(DIM))
            sigma = variation_form(structure, alpha, h)
            parts = decompose_variation(structure, sigma)
            assert np.max(np.abs(parts.alpha.coeffs - alpha.coeffs)) <= 1e-11
            assert np.max(np.abs(parts.h.h - h.h)) <= 1e-11
            assert parts.reconstruction_residual <= 1e-11

    def test_roundtrip_from_form(self, rng):
        structure = G2Structure.from_phi(random_positive_phi(rng))
        sigma = Form(4, rng.normal(size=DIMS[4]))
        parts = decompose_variation(structure, sigma)
        back = variation_form(structure, parts.alpha, parts.h)
        assert np.max(np.abs(back.coeffs - sigma.coeffs)) <= 1e-10

    def test_dual_form_decomposes_conformally(self, phi_bar):
        # With h = g/3 the tensor part contributes
        # 3 * (1/6) * star(i_phi(g/3)) = (1/2) star(2 phi) = psi,
        # so sigma = psi splits as alpha = 0, h = g/3.
        structure = G2Structure.from_phi(phi_bar)
        parts = decompose_variation(structure, structure.psi)
        assert np.max(np.abs(parts.alpha.coeffs)) <= 1e-12
        assert np.max(np.abs(parts.h.h - structure.metric.g / 3.0)) <= 1e-12

    def test_rejects_wrong_degree(self, phi_bar):
        structure = G2Structure.from_phi(phi_bar)
        with pytest.raises(G2FlowError, match="4-form"):
            decompose_variation(structure, Form.zero(3))


class TestMetricVariation:
    def test_conformal_direction(self, phi_bar):
        # h = s g gives sigma = 3 s psi, hence
        # psi_t = (1 + 3 t s) psi, phi_t = (1 + 3 t s)^{3/4} phi,
        # g_t = (1 + 3 t s)^{1/2} g and dg/dt = (3/2) s g, matching the law
        # (1/2) tr(h) g - 2 h = (7/2) s g - 2 s g.
        structure = G2Structure.from_phi(phi_bar)
        s = 0.37
        law = metric_variation(structure, s * structure.metric.g)
        assert np.max(np.abs(law - 1.5 * s * structure.metric.g)) <= 1e-13
        sigma = variation_form(structure, Form.zero(1), s * structure.metric.g)
        assert np.max(np.abs(sigma.coeffs - 3.0 * s * structure.psi.coeffs)) <= 1e-12

    def test_matches_finite_difference(self, phi_bar, rng):
        # Perturb psi along the variation of a random h, recover
        # phi, and differentiate the induced metric; the law is the exact
        # derivative, so central differences converge quadratically.
        structure = G2Structure.from_phi(phi_bar)
        h = 0.5 * (lambda m: m + m.T)(rng.normal(size=(DIM, DIM)))
        law = metric_variation(structure, h)
        sigma = variation_form(structure, Form.zero(1), h)

        def metric_at(t):
            psi_t = Form(4, structure.psi.coeffs + t * sigma.coeffs)
            return phi_of_psi(psi_t, structure.phi).metric.g

        errors = []
        for t in (1e-3, 1e-4):
            fd = (metric_at(t) - metric_at(-t)) / (2.0 * t)
            errors.append(np.max(np.abs(fd - law)))
        assert errors[1] <= 1e-5
        # Quadratic convergence: shrinking t by 10 shrinks the error by ~100.
        assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.05)


def _check_projector_family(projectors, gram, ranks, total_dim):
    acc = np.zeros((total_dim, total_dim))
    for p, rank in zip(projectors, ranks):
        assert np.trace(p) == pytest.approx(rank, abs=1e-10)
        assert np.linalg.matrix_rank(p, tol=1e-8) == rank
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        # Orthogonal for the induced metric: G P is symmetric.
        gp = gram @ p
        assert np.max(np.abs(gp - gp.T)) <= 1e-11
        acc += p
    for i, p in enumerate(projectors):
        for q in projectors[i + 1 :]:
            assert np.max(np.abs(p @ q)) <= 1e-12
    assert np.max(np.abs(acc - np.eye(total_dim))) <= 1e-11


class TestTwoFormProjectors:
    def test_ranks_and_algebra(self, phi_bar, rng):
        for phi in (phi_bar, random_positive_phi(rng)):
            structure = G2Structure.from_phi(phi)
            p7, p14 = projector_matrices2(structure)
            _check_projector_family(
                (p7, p14), structure.metric.gram(2), (7, 14), DIMS[2]
            )

    def test_defining_equations(self, phi_bar, rng):
        structure = G2Structure.from_phi(phi_bar)
        g = structure.metric
        a = Form(2, rng.normal(size=DIMS[2]))
        a7, a14 = project2(structure, a)
        assert np.max(np.abs(a7.coeffs + a14.coeffs - a.coeffs)) <= 1e-12
        # 14-part satisfies a ^ phi = -star a.
        lhs = wedge(a14, structure.phi)
        rhs = star(g, a14)
        assert np.max(np.abs(lhs.coeffs + rhs.coeffs)) <= 1e-11
        # 7-part is spanned by star(beta ^ psi) over 1-forms beta.
        beta = Form(1, rng.normal(size=DIMS[1]))
        span_elt = star(g, wedge(beta, structure.psi))
        s7, s14 = project2(structure, span_elt)
        assert np.max(np.abs(s7.coeffs - span_elt.coeffs)) <= 1e-11
        assert np.max(np.abs(s14.coeffs)) <= 1e-11

    def test_rejects_wrong_degree(self, phi_bar):
        with pytest.raises(G2FlowError, match="2-form"):
            project2(G2Structure.from_phi(phi_bar), Form.zero(3))


class TestThreeFormProjectors:
    def test_ranks_and_algebra(self, phi_bar, rng):
        for phi in (phi_bar, random_positive_phi(rng)):
            structure = G2Structure.from_phi(phi)
            p1, p7, p27 = projector_matrices3(structure)
            _check_projector_family(
                (p1, p7, p27), structure.metric.gram(3), (1, 7, 27), DIMS[3]
            )

    def test_defining_equations(self, phi_bar, rng):
        structure = G2Structure.from_phi(phi_bar)
        # phi spans the 1-dimensional piece.
        f1, f7, f27 = project3(structure, structure.phi)
        assert np.max(np.abs(f1.coeffs - structure.phi.coeffs)) <= 1e-11
        assert np.max(np.abs(f7.coeffs)) <= 1e-11
        assert np.max(np.abs(f27.coeffs)) <= 1e-11
        # 27-part wedges to zero against both phi and psi.
        a = Form(3, rng.normal(size=DIMS[3]))
        _, _, a27 = project3(structure, a)
        assert np.max(np.abs(wedge(a27, structure.phi).coeffs)) <= 1e-11
        assert np.max(np.abs(wedge(a27, structure.psi).coeffs)) <= 1e-11
        # 7-part is spanned by star(beta ^ phi).
        beta = Form(1, rng.normal(size=DIMS[1]))
        span_elt = star(structure.metric, wedge(beta, structure.phi))
        s1, s7, s27 = project3(structure, span_elt)
        assert np.max(np.abs(s7.coeffs - span_elt.coeffs)) <= 1e-11
        assert np.max(np.abs(s1.coeffs)) <= 1e-11
        assert np.max(np.abs(s27.coeffs)) <= 1e-11

    def test_rejects_wrong_degree(self, phi_bar):
        with pytest.raises(G2FlowError, match="3-form"):
            project3(G2Structure.from_phi(phi_bar), Form.zero(2))

