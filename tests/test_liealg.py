"""Lie algebra layer: structure equations, d, codifferential, connections."""

import numpy as np
import pytest

from g2flow.errors import DegreeError, UnimodularityError
from g2flow.exterior import DIM, DIMS, Form, Metric, inner, insertion_matrix, wedge
from g2flow.liealg import (
    Connection,
    LieAlgebraStructure,
    codifferential,
    differential,
    green_identity_check,
    hodge_laplacian_matrix,
    jacobi_check,
    levi_civita,
    lie_derivative,
)
from g2flow import load_algebra

from .conftest import random_form, random_spd
from .oracles import coeffs_of_dict, d_oracle, dict_of_coeffs, koszul_oracle, oracle_basis


def _non_unimodular():
    """d e^1 = e^{12}: ad(e_2) has nonzero trace."""
    return LieAlgebraStructure.from_dict(
        {"dim": 7, "d": [{"one_form": 1, "terms": [{"idx": [1, 2], "coef": 1.0}]}]}
    )


def _d1_dicts(L):
    return [dict_of_coeffs(2, f.coeffs) for f in L.d1]


class TestSchema:
    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebraStructure.from_dict({"dim": 6, "d": []})

    def test_bad_one_form_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebraStructure.from_dict(
                {"dim": 7, "d": [{"one_form": 9, "terms": []}]}
            )

    def test_duplicate_one_form_rejected(self):
        entry = {"one_form": 1, "terms": [{"idx": [1, 2], "coef": 1.0}]}
        with pytest.raises(ValueError):
            LieAlgebraStructure.from_dict({"dim": 7, "d": [entry, entry]})

    def test_bad_index_pair_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebraStructure.from_dict(
                {"dim": 7, "d": [{"one_form": 1, "terms": [{"idx": [1, 2, 3], "coef": 1.0}]}]}
            )

    def test_dict_roundtrip(self, ee1, ee2):
        for L in (ee1, ee2):
            back = LieAlgebraStructure.from_dict(L.to_dict())
            for f, g in zip(L.d1, back.d1):
                assert np.allclose(f.coeffs, g.coeffs)


class TestDifferential:
    def test_torus_differential_vanishes(self, torus, rng):
        for k in range(1, DIM):
            assert np.max(np.abs(torus.differential_matrix(k))) == 0.0

    @pytest.mark.parametrize("k", range(DIM + 1))
    def test_matches_leibniz_oracle(self, torus, ee1, ee2, n2, rng, k):
        seeded = LieAlgebraStructure(tuple(random_form(rng, 2) for _ in range(DIM)))
        for L in (torus, ee1, ee2, load_algebra("ee1_corrupted"), n2, seeded):
            mat = L.differential_matrix(k)
            assert mat.shape == (DIMS[k + 1] if k < DIM else 0, DIMS[k])
            for col, idx in enumerate(oracle_basis(k)):
                want = d_oracle(_d1_dicts(L), {idx: 1.0}, k)
                assert np.array_equal(mat[:, col], coeffs_of_dict(k + 1, want))
            if k < DIM:
                a = random_form(rng, k)
                want = d_oracle(_d1_dicts(L), dict_of_coeffs(k, a.coeffs), k)
                got = differential(L, a)
                assert np.allclose(got.coeffs, coeffs_of_dict(k + 1, want), atol=1e-12)

    def test_each_degree_is_built_on_first_use_and_kept(self, rng):
        L = LieAlgebraStructure(tuple(random_form(rng, 2) for _ in range(DIM)))
        first = L.differential_matrix(3)
        assert list(L._differentials) == [3]
        assert L.differential_matrix(3) is first and not first.flags.writeable
        d1 = np.array([form.coeffs for form in L.d1])
        for k in (4, 0, 7, 3):
            assert L.differential_matrix(k).tobytes() == insertion_matrix(d1, k).tobytes()
        assert sorted(L._differentials) == [0, 3, 4, 7]

    def test_d_squared_is_zero_as_matrices(self, torus, ee1, ee2):
        for L in (torus, ee1, ee2):
            for k in range(1, DIM - 1):
                prod = L.differential_matrix(k + 1) @ L.differential_matrix(k)
                assert np.max(np.abs(prod)) <= 1e-12

    def test_top_degree_differential_is_zero(self, ee1, rng):
        assert np.max(np.abs(differential(ee1, random_form(rng, DIM)).coeffs)) == 0.0

    def test_leibniz_rule(self, ee2, rng):
        a, b = random_form(rng, 2), random_form(rng, 3)
        lhs = differential(ee2, wedge(a, b))
        rhs = wedge(differential(ee2, a), b) + wedge(a, differential(ee2, b))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


class TestJacobi:
    def test_fixtures_pass(self, torus, ee1, ee2):
        for L in (torus, ee1, ee2):
            report = jacobi_check(L)
            assert report.ok
            assert report.max_residual <= 1e-12
            assert len(report.per_generator) == DIM

    def test_corrupted_fixture_fails(self):
        bad = load_algebra("ee1_corrupted")
        report = jacobi_check(bad)
        assert not report.ok
        assert report.max_residual > 0.1

    def test_bracket_jacobi_identity_brute_force(self, ee1, ee2, rng):
        for L in (ee1, ee2):
            for _ in range(5):
                u, v, w = (rng.standard_normal(DIM) for _ in range(3))
                cyc = (
                    L.bracket(u, L.bracket(v, w))
                    + L.bracket(v, L.bracket(w, u))
                    + L.bracket(w, L.bracket(u, v))
                )
                assert np.max(np.abs(cyc)) <= 1e-10

    def test_structure_constants_antisymmetric(self, ee1, ee2):
        for L in (ee1, ee2):
            c = L.structure_constants
            assert np.allclose(c, -np.transpose(c, (1, 0, 2)))


class TestUnimodularity:
    def test_fixtures_unimodular(self, torus, ee1, ee2):
        assert torus.is_unimodular() and ee1.is_unimodular() and ee2.is_unimodular()

    def test_counterexample_detected(self):
        assert not _non_unimodular().is_unimodular()

    def test_trace_computed_once_and_tolerance_still_applies(self):
        L = _non_unimodular()
        assert not L.is_unimodular()
        worst = L._max_trace
        assert worst > 0.0
        assert L.is_unimodular(tol=2.0 * worst) and not L.is_unimodular(tol=0.5 * worst)
        assert L._max_trace is worst

    def test_codifferential_requires_unimodularity(self, rng):
        with pytest.raises(UnimodularityError):
            codifferential(_non_unimodular(), Metric.identity(), random_form(rng, 2))


class TestCodifferential:
    def test_adjoint_to_differential(self, ee1, ee2, rng):
        """<d a, b> = <a, delta b> in the metric inner product, the defining
        property that pins the codifferential sign on each degree."""
        for L in (ee1, ee2):
            g = Metric(random_spd(rng))
            for k in range(1, DIM + 1):
                a = random_form(rng, k - 1)
                b = random_form(rng, k)
                lhs = inner(g, differential(L, a), b)
                rhs = inner(g, a, codifferential(L, g, b))
                assert np.isclose(lhs, rhs, atol=1e-9), (k, lhs, rhs)

    def test_degree_zero_rejected(self, ee1):
        with pytest.raises(DegreeError):
            codifferential(ee1, Metric.identity(), Form.zero(0))

    def test_codifferential_squared_is_zero(self, ee2, rng):
        g = Metric(random_spd(rng))
        a = random_form(rng, 4)
        dd = codifferential(ee2, g, codifferential(ee2, g, a))
        assert np.max(np.abs(dd.coeffs)) <= 1e-10


class TestLaplacian:
    def test_matrix_matches_operator_composition(self, ee1, ee2, rng):
        for L in (ee1, ee2):
            g = Metric(random_spd(rng))
            for k in (2, 3, 4):
                a = random_form(rng, k)
                via_matrix = hodge_laplacian_matrix(L, g, k) @ a.coeffs
                direct = differential(L, codifferential(L, g, a)) + codifferential(
                    L, g, differential(L, a)
                )
                assert np.allclose(via_matrix, direct.coeffs, atol=1e-10)

    def test_self_adjoint_and_nonnegative(self, ee2, rng):
        g = Metric(random_spd(rng))
        for k in (2, 3, 4):
            lap = hodge_laplacian_matrix(ee2, g, k)
            gram = g.gram(k)
            sym = gram @ lap
            assert np.allclose(sym, sym.T, atol=1e-9)
            chol = np.linalg.cholesky(gram)
            m = chol.T @ lap @ np.linalg.inv(chol).T
            eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
            assert eigs.min() >= -1e-9

    def test_torus_laplacian_vanishes(self, torus):
        g = Metric.identity()
        for k in (2, 3, 4):
            assert np.max(np.abs(hodge_laplacian_matrix(torus, g, k))) == 0.0


class TestConnection:
    def test_levi_civita_matches_koszul_oracle(self, ee1, ee2, rng):
        for L in (ee1, ee2):
            g = Metric(random_spd(rng))
            got = levi_civita(L, g).gamma
            want = koszul_oracle(L.structure_constants, g.g)
            assert np.allclose(got, want, atol=1e-10)

    def test_metric_compatibility(self, ee2, rng):
        g = Metric(random_spd(rng))
        gamma = levi_civita(ee2, g).gamma
        # g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) = 0
        gg = np.einsum("ijm,mk->ijk", gamma, g.g)
        assert np.allclose(gg, -np.transpose(gg, (0, 2, 1)), atol=1e-10)

    def test_torsion_free(self, ee2, rng):
        g = Metric(random_spd(rng))
        gamma = levi_civita(ee2, g).gamma
        asym = gamma - np.transpose(gamma, (1, 0, 2))
        assert np.allclose(asym, ee2.structure_constants, atol=1e-10)

    def test_covariant_derivative_leibniz(self, ee2, rng):
        g = Metric(random_spd(rng))
        nabla = levi_civita(ee2, g)
        a, b = random_form(rng, 1), random_form(rng, 2)
        for i in range(DIM):
            lhs = nabla.covariant_derivative(i, wedge(a, b))
            rhs = wedge(nabla.covariant_derivative(i, a), b) + wedge(
                a, nabla.covariant_derivative(i, b)
            )
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)

    def test_form_action_is_the_covariant_derivative(self, ee2, rng):
        nabla = levi_civita(ee2, Metric(random_spd(rng)))
        for k in range(DIM + 1):
            stack = nabla.form_action(k)
            assert stack.shape == (DIM, DIMS[k], DIMS[k])
            for i in range(DIM):
                cols = [nabla.covariant_derivative(i, Form(k, e)).coeffs for e in np.eye(DIMS[k])]
                assert np.array_equal(stack[i], np.transpose(cols))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Connection(np.zeros((DIM, DIM)))


class TestLieDerivative:
    def test_commutes_with_differential(self, ee1, ee2, rng):
        for L in (ee1, ee2):
            v = rng.standard_normal(DIM)
            for k in (1, 2, 3):
                a = random_form(rng, k)
                lhs = lie_derivative(L, v, differential(L, a))
                rhs = differential(L, lie_derivative(L, v, a))
                assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)

    def test_product_rule(self, ee2, rng):
        v = rng.standard_normal(DIM)
        a, b = random_form(rng, 1), random_form(rng, 2)
        lhs = lie_derivative(ee2, v, wedge(a, b))
        rhs = wedge(lie_derivative(ee2, v, a), b) + wedge(a, lie_derivative(ee2, v, b))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


class TestGreenIdentity:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exact_forms_recovered(self, ee1, ee2, k):
        for L in (ee1, ee2):
            report = green_identity_check(L, Metric.identity(), k)
            assert report.ok
            assert report.max_residual <= 1e-10

    def test_random_metric(self, ee2, rng):
        g = Metric(random_spd(rng))
        for k in (2, 3, 4):
            report = green_identity_check(ee2, g, k)
            assert report.ok, (k, report.max_residual)

    def test_torus_vacuous(self, torus):
        report = green_identity_check(torus, Metric.identity(), 3)
        assert report.ok
        assert report.image_dim == 0

    def test_requires_unimodularity(self):
        with pytest.raises(UnimodularityError):
            green_identity_check(_non_unimodular(), Metric.identity(), 3)
