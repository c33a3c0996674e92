"""Exterior-algebra kernel against independent sparse-dictionary oracles."""

import numpy as np
import pytest

from g2flow import g2core
from g2flow.errors import DegreeError, MetricError
from g2flow.exterior import (
    BASIS,
    BASIS_POS,
    COMPL_INDEX,
    COMPL_SIGN,
    DIM,
    DIMS,
    Form,
    Metric,
    _mask,
    _merge_sign_bits,
    contract,
    derivation_matrix,
    form_norm,
    inner,
    sort_sign,
    star,
    wedge,
    wedge_table,
)

from .conftest import conditioned_spd, random_form, random_spd
from .oracles import (
    ExactMetric,
    coeffs_of_dict,
    complement_tables_oracle,
    derivation_oracle,
    dict_contract,
    dict_of_coeffs,
    dict_wedge,
    dual_tables_oracle,
    exterior_powers,
    gram_minors,
    laplace_exterior_powers,
    merge_sign,
    oracle_basis,
    perm_parity,
    star_oracle,
    wedge_tables_oracle,
)


class TestBasis:
    def test_dimensions_are_binomials(self):
        import math

        assert DIMS == tuple(math.comb(DIM, k) for k in range(DIM + 1))

    def test_lexicographic_and_consistent_with_oracle(self):
        for k in range(DIM + 1):
            assert list(BASIS[k]) == oracle_basis(k)
            assert sorted(BASIS[k]) == list(BASIS[k])

    def test_positions_invert_basis(self):
        for k in range(DIM + 1):
            for pos, idx in enumerate(BASIS[k]):
                assert BASIS_POS[k][idx] == pos


class TestSigns:
    def test_sort_sign_matches_inversion_parity(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 8))
            seq = tuple(rng.permutation(np.arange(1, 8))[:k].tolist())
            sign, sorted_idx = sort_sign(seq)
            assert sorted_idx == tuple(sorted(seq))
            assert sign == perm_parity(list(seq))

    def test_sort_sign_zero_on_repeats(self):
        sign, _ = sort_sign((1, 3, 3))
        assert sign == 0

    def test_merge_sign_counts_transpositions(self, rng):
        for _ in range(200):
            perm = rng.permutation(np.arange(1, 8))
            k = int(rng.integers(0, 8))
            left = tuple(sorted(perm[:k].tolist()))
            right = tuple(sorted(perm[k:].tolist()))
            sign, merged = merge_sign(left, right)
            assert sign == perm_parity(list(left + right))
            assert merged == tuple(sorted(left + right))
            assert _merge_sign_bits(_mask(left), _mask(right)) == sign


class TestSignTables:
    """The bit-mask tables against the merge_sign tables, byte for byte."""

    def test_all_wedge_tables_equal_the_oracle(self):
        for (k, l), want in wedge_tables_oracle().items():
            got = wedge_table(k, l)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (k, l)
            assert not got.flags.writeable

    def test_complement_tables_equal_the_oracle(self):
        index, sign = complement_tables_oracle()
        for k in range(DIM + 1):
            assert COMPL_INDEX[k].dtype == index[k].dtype
            assert COMPL_INDEX[k].tobytes() == index[k].tobytes()
            assert COMPL_SIGN[k].dtype == sign[k].dtype
            assert COMPL_SIGN[k].tobytes() == sign[k].tobytes()

    def test_dual_tables_equal_the_oracle(self):
        index, sign = dual_tables_oracle()
        assert g2core._DUAL_INDEX.dtype == index.dtype
        assert g2core._DUAL_INDEX.tobytes() == index.tobytes()
        assert g2core._DUAL_SIGN.dtype == sign.dtype
        assert g2core._DUAL_SIGN.tobytes() == sign.tobytes()

    def test_no_table_past_the_top_degree(self):
        with pytest.raises(DegreeError):
            wedge_table(4, 4)


class TestForm:
    def test_from_terms_roundtrip(self, rng):
        terms = {(1, 3, 5): 2.0, (2, 4, 6): -1.5}
        f = Form.from_terms(3, terms)
        assert [(tuple(i), c) for i, c in f.terms()] == [((1, 3, 5), 2.0), ((2, 4, 6), -1.5)]

    def test_monomial_places_single_coefficient(self):
        f = Form.monomial((1, 3, 5, 7))
        assert f.degree == 4
        assert f.coeffs[BASIS_POS[4][(1, 3, 5, 7)]] == 1.0
        assert np.count_nonzero(f.coeffs) == 1

    def test_monomial_unsorted_input_picks_up_sign(self):
        assert Form.monomial((3, 1, 5)).coeffs[BASIS_POS[3][(1, 3, 5)]] == -1.0

    def test_arithmetic(self, rng):
        a = random_form(rng, 2)
        b = random_form(rng, 2)
        assert np.allclose((a + b - a).coeffs, b.coeffs)
        assert np.allclose((-a).coeffs, -a.coeffs)
        assert np.allclose((2.0 * a).coeffs, (a * 2.0).coeffs)
        assert np.allclose((a / 2.0).coeffs, 0.5 * a.coeffs)

    def test_degree_mismatch_raises(self, rng):
        with pytest.raises(DegreeError):
            random_form(rng, 2) + random_form(rng, 3)


class TestWedge:
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (1, 6)])
    def test_matches_dictionary_oracle(self, rng, k, l):
        a = random_form(rng, k)
        b = random_form(rng, l)
        got = wedge(a, b)
        want = dict_wedge(dict_of_coeffs(k, a.coeffs), dict_of_coeffs(l, b.coeffs))
        assert np.allclose(got.coeffs, coeffs_of_dict(k + l, want), atol=1e-12)

    def test_graded_commutativity(self, rng):
        for k, l in [(1, 2), (2, 2), (3, 3), (1, 1), (2, 4)]:
            a, b = random_form(rng, k), random_form(rng, l)
            lhs = wedge(a, b).coeffs
            rhs = ((-1.0) ** (k * l)) * wedge(b, a).coeffs
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_associativity(self, rng):
        a, b, c = random_form(rng, 1), random_form(rng, 2), random_form(rng, 3)
        lhs = wedge(wedge(a, b), c).coeffs
        rhs = wedge(a, wedge(b, c)).coeffs
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_flat_table_equals_tensordot_bitwise(self, rng):
        for k in range(DIM + 1):
            for l in range(DIM + 1 - k):
                # half the coefficients zeroed (with both signs of zero)
                a = Form(k, random_form(rng, k).coeffs * (rng.random(DIMS[k]) < 0.5))
                b = random_form(rng, l)
                want = b.coeffs @ np.tensordot(a.coeffs, wedge_table(k, l), axes=(0, 0))
                assert wedge(a, b).coeffs.tobytes() == want.tobytes()

    def test_degree_overflow_raises(self, rng):
        with pytest.raises(DegreeError):
            wedge(random_form(rng, 4), random_form(rng, 4))


class TestContract:
    def test_matches_dictionary_oracle(self, rng):
        for k in range(1, DIM + 1):
            a = random_form(rng, k)
            v = rng.standard_normal(DIM)
            want = {}
            for i in range(1, DIM + 1):
                for idx, c in dict_contract(i, dict_of_coeffs(k, a.coeffs)).items():
                    want[idx] = want.get(idx, 0.0) + v[i - 1] * c
            assert np.allclose(contract(v, a).coeffs, coeffs_of_dict(k - 1, want), atol=1e-12)

    def test_antiderivation_rule(self, rng):
        a, b = random_form(rng, 2), random_form(rng, 3)
        v = rng.standard_normal(DIM)
        lhs = contract(v, wedge(a, b)).coeffs
        rhs = (wedge(contract(v, a), b) + wedge(a, contract(v, b))).coeffs
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_double_contraction_vanishes(self, rng):
        a = random_form(rng, 4)
        v = rng.standard_normal(DIM)
        assert np.max(np.abs(contract(v, contract(v, a)).coeffs)) < 1e-12

    def test_degree_zero_raises(self):
        with pytest.raises(DegreeError):
            contract(np.ones(DIM), Form.zero(0))


class TestMetric:
    def test_gram_matches_minor_determinants(self, rng):
        g = Metric(random_spd(rng))
        ginv = np.linalg.inv(g.g)
        for k in range(DIM + 1):
            assert np.allclose(g.gram(k), gram_minors(ginv, k), atol=1e-10)

    def test_spd_enforcement(self):
        bad = np.eye(DIM)
        bad[0, 0] = -1.0
        with pytest.raises(MetricError):
            Metric(bad).require_spd()
        with pytest.raises(MetricError):
            Metric(np.triu(np.ones((DIM, DIM))))

    def test_volume_is_sqrt_det(self, rng):
        g = Metric(random_spd(rng))
        v = g.vol
        assert v.degree == DIM
        assert np.isclose(v.coeffs[0], np.sqrt(np.linalg.det(g.g)))

    def test_rejects_non_finite_entries(self):
        for bad in (np.inf, -np.inf, np.nan):
            g = np.eye(DIM)
            g[0, 0] = bad
            with pytest.raises(MetricError, match="metric entries must be finite"):
                Metric(g)

    def test_nan_eigenvalue_is_not_positive_definite(self, monkeypatch):
        g = Metric.identity()
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(DIM, np.nan))
        with pytest.raises(MetricError, match="not positive definite"):
            g.require_spd()

    def test_caches_only_inverse_volume_and_second_powers(self, rng):
        g = Metric(random_spd(rng))
        for k in range(DIM + 1):
            star(g, random_form(rng, k))
            gram = g.gram(k)
            assert gram is not g.gram(k) and np.array_equal(gram, gram.T)
        # No Gram or star cache: the star transforms at most three indices,
        # by g^{-1} or by g, with the second compounds of both kept.
        assert set(vars(g)) == {
            "g", "orientation", "_spd_checked", "min_eigenvalue",
            "inv", "det", "sqrt_det", "_inv2t", "_g2t",
        }
        for cached, m in ((g._inv2t, g.inv), (g._g2t, g.g)):
            assert cached.shape == (DIMS[2], DIMS[2]) and not cached.flags.writeable
            assert np.allclose(cached.T, gram_minors(m, 2), atol=1e-12)


class TestStar:
    def test_matrix_free_star_matches_star_matrix(self):
        # star on one vector against star_matrix, the same kernel on the identity.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for cond in (1.0, 1e2, 1e4):
                for orientation in (1, -1):
                    g = Metric(conditioned_spd(rng, cond), orientation)
                    for k in range(DIM + 1):
                        a = random_form(rng, k)
                        want = g.star_matrix(k) @ a.coeffs
                        got = star(g, a).coeffs
                        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_matches_exact_rational_star(self):
        """Star and Gram against exact rational arithmetic on the float
        metric, in every degree and both orientations, up to cond 1e4."""
        rng = np.random.default_rng(11)
        misses = []
        for cond in (1.0, 1e2, 1e4):
            g = Metric(conditioned_spd(rng, cond))
            exact = ExactMetric(g.g)
            for k in range(DIM + 1):
                want = exact.gram(k)
                err = np.linalg.norm(g.gram(k) - want) / np.linalg.norm(want)
                if err > 1e-12:
                    misses.append(("gram", cond, k, err))
                for orientation in (1, -1):
                    a = random_form(rng, k)
                    want = exact.star(k, a.coeffs, orientation)
                    got = star(Metric(g.g, orientation), a).coeffs
                    err = np.linalg.norm(got - want) / np.linalg.norm(want)
                    if err > 1e-12:
                        misses.append(("star", cond, k, orientation, err))
        assert misses == []

    def test_matches_pairing_oracle_identity_metric(self, rng):
        g = Metric.identity()
        for k in range(DIM + 1):
            a = random_form(rng, k)
            assert np.allclose(star(g, a).coeffs, star_oracle(np.eye(DIM), k, a.coeffs), atol=1e-12)

    def test_matches_pairing_oracle_random_metric(self, rng):
        g_mat = random_spd(rng)
        g = Metric(g_mat)
        for k in range(DIM + 1):
            a = random_form(rng, k)
            assert np.allclose(star(g, a).coeffs, star_oracle(g_mat, k, a.coeffs), atol=1e-10)

    def test_involution(self, rng):
        g = Metric(random_spd(rng))
        for k in range(DIM + 1):
            a = random_form(rng, k)
            back = star(g, star(g, a))
            assert np.allclose(back.coeffs, a.coeffs, atol=1e-10)

    def test_defining_pairing(self, rng):
        g = Metric(random_spd(rng))
        for k in range(DIM + 1):
            a, b = random_form(rng, k), random_form(rng, k)
            lhs = wedge(b, star(g, a)).coeffs[0]
            rhs = inner(g, b, a) * g.vol.coeffs[0]
            assert np.isclose(lhs, rhs, atol=1e-10)

    def test_norm_nonnegative(self, rng):
        g = Metric(random_spd(rng))
        a = random_form(rng, 3)
        assert form_norm(g, a) >= 0.0
        assert np.isclose(form_norm(g, a) ** 2, inner(g, a, a), atol=1e-10)


class TestExteriorPowers:
    def test_entries_are_minor_determinants(self, rng):
        m = rng.standard_normal((DIM, DIM))
        powers = exterior_powers(m)
        for k in (0, 1, 2, 3, 5, 7):
            for _ in range(6):
                i = int(rng.integers(DIMS[k]))
                j = int(rng.integers(DIMS[k]))
                rows = [a - 1 for a in BASIS[k][i]]
                cols = [b - 1 for b in BASIS[k][j]]
                want = 1.0 if k == 0 else np.linalg.det(m[np.ix_(rows, cols)])
                assert np.isclose(powers[k][i, j], want, atol=1e-10)

    def test_functoriality(self, rng):
        a = rng.standard_normal((DIM, DIM))
        b = rng.standard_normal((DIM, DIM))
        pa, pb, pab = exterior_powers(a), exterior_powers(b), exterior_powers(a @ b)
        for k in range(DIM + 1):
            assert np.allclose(pab[k], pa[k] @ pb[k], atol=1e-8)

    def test_batch_matches_scalar(self, rng):
        mats = rng.standard_normal((5, DIM, DIM))
        batched = exterior_powers(mats)
        for n in range(5):
            single = exterior_powers(mats[n])
            for k in range(DIM + 1):
                assert batched[k].shape == (5, DIMS[k], DIMS[k])
                assert batched[k][n].tobytes() == single[k].tobytes()

    def test_bitwise_equal_to_laplace_recursion(self):
        """200 seeded matrices, half of them with column scales spread over
        12 decades and some with exact (signed) zeros, single and batched."""
        rng = np.random.default_rng(7)
        mats = rng.standard_normal((200, DIM, DIM))
        mats[1::2] *= 10.0 ** rng.uniform(-6.0, 6.0, (100, 1, DIM))
        mats[::5][rng.random((40, DIM, DIM)) < 0.4] = -0.0
        mats[::7][rng.random((29, DIM, DIM)) < 0.3] = 0.0
        batched = exterior_powers(mats)
        for n, m in enumerate(mats):
            want = laplace_exterior_powers(m)
            single = exterior_powers(m)
            for k in range(DIM + 1):
                assert np.array_equal(single[k], want[k])
                assert single[k].tobytes() == want[k].tobytes()  # signs of zeros too
                assert batched[k][n].tobytes() == want[k].tobytes()

    def test_degree_one_does_not_alias_input(self, rng):
        m = rng.standard_normal((DIM, DIM))
        powers = exterior_powers(m)
        m[0, 0] += 1.0
        assert powers[1][0, 0] == m[0, 0] - 1.0

    def test_rejects_wrong_shape(self):
        for shape in ((DIM, DIM - 1), (2, 2, DIM, DIM), (DIM,)):
            with pytest.raises(ValueError):
                exterior_powers(np.ones(shape))


class TestDerivationMatrix:
    def test_degree_one_is_the_action(self, rng):
        action = rng.standard_normal((DIM, DIM))
        assert np.allclose(derivation_matrix(action, 1), action)

    def test_leibniz_on_wedges(self, rng):
        action = rng.standard_normal((DIM, DIM))
        d1 = derivation_matrix(action, 1)
        d2 = derivation_matrix(action, 2)
        d3 = derivation_matrix(action, 3)
        a, b = random_form(rng, 1), random_form(rng, 2)
        lhs = d3 @ wedge(a, b).coeffs
        rhs = (wedge(Form(1, d1 @ a.coeffs), b) + wedge(a, Form(2, d2 @ b.coeffs))).coeffs
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("k", range(DIM + 1))
    def test_matches_slot_replacement_oracle(self, rng, k):
        sparse = rng.standard_normal((DIM, DIM)) * (rng.random((DIM, DIM)) < 0.5)
        for action in (rng.standard_normal((DIM, DIM)), -sparse):
            mat = derivation_matrix(action, k)
            assert mat.shape == (DIMS[k], DIMS[k])
            for col, idx in enumerate(oracle_basis(k)):
                want = coeffs_of_dict(k, derivation_oracle(action, {idx: 1.0}))
                assert np.array_equal(mat[:, col], want)

    def test_identity_action_scales_by_degree(self):
        for k in range(1, DIM + 1):
            assert np.allclose(derivation_matrix(np.eye(DIM), k), k * np.eye(DIMS[k]))
