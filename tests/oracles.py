"""Independent reference implementations used to freeze expected values.

Everything here is written against sparse dictionaries keyed by increasing
index tuples, with its own sign bookkeeping, so it shares no code path with
the package's dense table-driven kernels.  Tests compare the two.  The
sign tables built by ``merge_sign`` over index tuples are the byte-for-byte
reference for the package's bit-mask tables (wedge, complement, dual).  The
slot-by-slot Laplace recursion for exterior powers builds its own index
lists and is the bitwise reference for the gather kernel ``exterior_powers``,
its batched form, which ``_dual_batch`` uses.  ``ExactMetric`` computes the
Gram matrices and the star in exact rational arithmetic.  Two exceptions
sit at the end.  ``closed_form_oracle`` is the closed-form recovery with a
generic star (``Metric.star_coeffs``) and a determinant, factorisation and
inverse per metric, the reference for the kernel that reads star phi off B.
The Newton recovery is the reference for the inverse map psi -> phi, so it
iterates the package's forward map phi -> star_{g(phi)} phi.  The record
writers at the very end, ``csv.writer`` and ``json.dumps`` over record
dicts, are the byte-for-byte reference for the experiments' output files.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from itertools import combinations
from math import isqrt

import numpy as np

DIM = 7


def oracle_basis(k):
    """Increasing index tuples of length k over 1..7, lexicographic."""
    return list(combinations(range(1, DIM + 1), k))


def perm_parity(seq):
    """Permutation sign by brute-force inversion counting."""
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def dict_of_coeffs(k, coeffs):
    """Sparse dict {index tuple: coefficient} from a dense vector."""
    basis = oracle_basis(k)
    return {idx: float(c) for idx, c in zip(basis, coeffs) if c != 0.0}


def coeffs_of_dict(k, d):
    basis = oracle_basis(k)
    out = np.zeros(len(basis))
    for i, idx in enumerate(basis):
        out[i] = d.get(idx, 0.0)
    return out


def dict_wedge(a, b):
    """Wedge of sparse dicts; concatenates indices and sorts with parity."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            merged = ia + ib
            if len(set(merged)) != len(merged):
                continue
            sign = perm_parity(list(merged))
            key = tuple(sorted(merged))
            out[key] = out.get(key, 0.0) + sign * ca * cb
    return {k: v for k, v in out.items() if v != 0.0}


def dict_contract(i, a):
    """Interior product with frame vector e_i on a sparse dict."""
    out = {}
    for idx, c in a.items():
        if i not in idx:
            continue
        pos = idx.index(i)
        key = idx[:pos] + idx[pos + 1 :]
        out[key] = out.get(key, 0.0) + ((-1.0) ** pos) * c
    return out


def merge_sign(left, right):
    """Sign of merging two increasing index tuples into one increasing tuple.

    Returns (0, ()) when the tuples share an index.
    """
    if set(left) & set(right):
        return 0, ()
    swaps = sum(1 for a in left for b in right if a > b)
    return (-1 if swaps % 2 else 1), tuple(sorted(left + right))


def wedge_tables_oracle():
    """{(k, l): table} of every degree pair, merge_sign over each pair of
    basis tuples: table[a, b, c] is the sign of basis_k[a] ^ basis_l[b] on
    basis_{k+l}[c] (the reference for ``exterior.wedge_table``)."""
    pos = [{idx: p for p, idx in enumerate(oracle_basis(n))} for n in range(DIM + 1)]
    tables = {}
    for k in range(DIM + 1):
        for l in range(DIM + 1 - k):
            table = np.zeros((len(pos[k]), len(pos[l]), len(pos[k + l])))
            for a, lhs in enumerate(oracle_basis(k)):
                for b, rhs in enumerate(oracle_basis(l)):
                    sign, merged = merge_sign(lhs, rhs)
                    if sign:
                        table[a, b, pos[k + l][merged]] = sign
            tables[k, l] = table
    return tables


def complement_tables_oracle():
    """(index, sign) per degree k: the position of each basis k-tuple's
    complement and the sign of the tuple followed by it (the reference for
    ``exterior.COMPL_INDEX`` and ``COMPL_SIGN``)."""
    full = set(range(1, DIM + 1))
    comp_index, comp_sign = [], []
    for k in range(DIM + 1):
        pos = {idx: p for p, idx in enumerate(oracle_basis(DIM - k))}
        ci = np.empty(len(oracle_basis(k)), dtype=np.intp)
        cs = np.empty(len(oracle_basis(k)))
        for a, idx in enumerate(oracle_basis(k)):
            comp = tuple(sorted(full - set(idx)))
            sign, _ = merge_sign(idx, comp)
            ci[a] = pos[comp]
            cs[a] = sign
        comp_index.append(ci)
        comp_sign.append(cs)
    return tuple(comp_index), tuple(comp_sign)


def dual_tables_oracle():
    """(index, sign) of ``g2core._DUAL_INDEX`` and ``_DUAL_SIGN``: for each
    4-tuple q with complement {k} + b (k its lowest index), the flat
    position (k - 1) * 21 + pos(b) and half the sign of e^k ^ e^q ^ e^b."""
    full = set(range(1, DIM + 1))
    pos2 = {idx: p for p, idx in enumerate(oracle_basis(2))}
    index, sign = [], []
    for q in oracle_basis(4):
        k, *rest = sorted(full - set(q))
        s1, kq = merge_sign((k,), q)
        s2, _ = merge_sign(kq, tuple(rest))
        index.append((k - 1) * len(pos2) + pos2[tuple(rest)])
        sign.append(0.5 * s1 * s2)
    return np.array(index), np.array(sign)


def gram_minors(ginv, k):
    """Gram matrix on degree k: determinants of k x k minors of the inverse
    metric."""
    basis = oracle_basis(k)
    n = len(basis)
    out = np.zeros((n, n))
    for i, I in enumerate(basis):
        rows = [a - 1 for a in I]
        for j, J in enumerate(basis):
            cols = [b - 1 for b in J]
            sub = ginv[np.ix_(rows, cols)]
            out[i, j] = 1.0 if k == 0 else np.linalg.det(sub)
    return out


def laplace_exterior_powers(matrix):
    """All exterior powers of one 7x7 matrix by the slot-by-slot recursion.

    Degree k is built from degree k-1 by a Laplace expansion of every minor
    along its first column, accumulated one pull-out slot at a time into a
    zero matrix (+ for even slots, - for odd).  The package's gather kernel
    sums the same signed products in the same order, so the two agree bit
    for bit.
    """
    matrix = np.asarray(matrix, dtype=float)
    pos = [{idx: p for p, idx in enumerate(oracle_basis(k))} for k in range(DIM + 1)]
    powers = [np.ones((1, 1)), matrix.copy()]
    for k in range(2, DIM + 1):
        basis = oracle_basis(k)
        cols_first = matrix[:, [idx[0] - 1 for idx in basis]]
        cols_rest = powers[k - 1][:, [pos[k - 1][idx[1:]] for idx in basis]]
        out = np.zeros((len(basis), len(basis)))
        for s in range(k):
            rows_first = [idx[s] - 1 for idx in basis]
            rows_rest = [pos[k - 1][idx[:s] + idx[s + 1 :]] for idx in basis]
            term = cols_first[rows_first] * cols_rest[rows_rest]
            if s % 2:
                out -= term
            else:
                out += term
        powers.append(out)
    return powers


def _gather_tables():
    # Laplace expansion of each k x k minor along its first column: entry
    # (r, c) of the k-th power is the sum over the k slots s of row monomial
    # r of (-1)^s m[r_s, c_1] P_{k-1}[r without r_s, c without c_1].  Per
    # degree, two flat (k, C(7,k)^2) index tables: one into the 98 entries
    # of [m, -m] (odd slots read the negated half), one into P_{k-1}.
    bases = [oracle_basis(k) for k in range(DIM + 1)]
    pos = [{idx: p for p, idx in enumerate(b)} for b in bases]
    from_m, from_prev = [None, None], [None, None]
    for k in range(2, DIM + 1):
        rows = bases[k]
        slot_row = np.array([[idx[s] - 1 for idx in rows] for s in range(k)], dtype=np.intp)
        slot_rest = np.array(
            [[pos[k - 1][idx[:s] + idx[s + 1 :]] for idx in rows] for s in range(k)],
            dtype=np.intp,
        )
        col_first = np.array([idx[0] - 1 for idx in rows], dtype=np.intp)
        col_rest = np.array([pos[k - 1][idx[1:]] for idx in rows], dtype=np.intp)
        half = (np.arange(k) % 2 * DIM * DIM)[:, None, None]
        from_m.append((half + slot_row[:, :, None] * DIM + col_first).reshape(k, -1))
        from_prev.append((slot_rest[:, :, None] * len(bases[k - 1]) + col_rest).reshape(k, -1))
    return from_m, from_prev


_GATHER_M, _GATHER_PREV = _gather_tables()


def exterior_powers(matrix):
    """Matrices of the induced maps on all exterior powers, by gathers.

    ``matrix`` sends e^j to sum_i matrix[i, j] e^i; entry [I, J] of the k-th
    output is the minor det(matrix[I, J]).  Takes one 7x7 matrix or an
    (N, 7, 7) stack and returns a list indexed by degree whose entry k has
    shape (C(7,k), C(7,k)), after the leading N axis for a stack.  Degree k
    is one gather from [m, -m], one from degree k-1, a product and a sum
    over the k slots of the Laplace expansion: the same signed products in
    the same order as ``laplace_exterior_powers``, batched.  The k-th power
    of g^{-1} is the Gram matrix on k-forms; ``_dual_batch`` takes it for a
    stack of metrics.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim not in (2, 3) or matrix.shape[-2:] != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} matrix or a stack of them, got {matrix.shape}")
    flat = matrix.reshape(-1, DIM * DIM)
    signed = np.concatenate([flat, -flat], axis=1)
    powers = [np.ones((len(flat), 1)), signed[:, : DIM * DIM]]
    for k in range(2, DIM + 1):
        # mode="clip" only skips the bounds check: the tables are in range.
        terms = signed.take(_GATHER_M[k], axis=1, mode="clip")
        terms *= powers[k - 1].take(_GATHER_PREV[k], axis=1, mode="clip")
        powers.append(terms.sum(axis=1))
    lead = matrix.shape[:-2]
    return [p.reshape(lead + (isqrt(p.shape[-1]),) * 2) for p in powers]


def star_oracle(g, k, coeffs):
    """Hodge star from the pairing beta ^ star(alpha) = <beta, alpha> vol.

    Returns the dense coefficient vector of the (7-k)-form; positively
    oriented frame assumed.
    """
    ginv = np.linalg.inv(g)
    gram = gram_minors(ginv, k)
    weighted = gram @ np.asarray(coeffs, dtype=float)
    sqrt_det = np.sqrt(np.linalg.det(g))
    basis_k = oracle_basis(k)
    basis_c = oracle_basis(DIM - k)
    out = np.zeros(len(basis_c))
    for i, I in enumerate(basis_k):
        comp = tuple(sorted(set(range(1, DIM + 1)) - set(I)))
        sign = perm_parity(list(I + comp))
        out[basis_c.index(comp)] = sign * sqrt_det * weighted[i]
    return out


def _exact_inverse(m):
    """Inverse and determinant of a square matrix of Fractions by
    Gauss-Jordan elimination with exact pivots."""
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows], det


class ExactMetric:
    """A metric's inverse, determinant and Gram matrices in exact rational
    arithmetic (``fractions.Fraction`` on the float entries of g).

    The Gram matrix on k-forms holds the k x k minors of the exact inverse,
    each expanded along its first column from the minors one degree down.
    Only sqrt(det g) is taken in floating point, at the end of ``star``.
    """

    def __init__(self, g):
        exact = [[Fraction(float(x)) for x in row] for row in np.asarray(g)]
        inv, self.det = _exact_inverse(exact)
        minors = [{((), ()): Fraction(1)}]
        for k in range(1, DIM + 1):
            prev, cur = minors[-1], {}
            for rows in oracle_basis(k):
                for cols in oracle_basis(k):
                    total = Fraction(0)
                    for s, r in enumerate(rows):
                        term = inv[r - 1][cols[0] - 1] * prev[rows[:s] + rows[s + 1 :], cols[1:]]
                        total += -term if s % 2 else term
                    cur[rows, cols] = total
            minors.append(cur)
        self.grams = [
            [[minors[k][r, c] for c in oracle_basis(k)] for r in oracle_basis(k)]
            for k in range(DIM + 1)
        ]

    def gram(self, k):
        return np.array([[float(x) for x in row] for row in self.grams[k]])

    def star(self, k, coeffs, orientation=1):
        """Coefficients of star(a) for the k-form a with float coefficients
        ``coeffs``: sign(I, I^c) * orientation * sqrt(det g) * (G_k a)_I at I^c."""
        a = [Fraction(float(x)) for x in coeffs]
        weighted = [sum((x * y for x, y in zip(row, a)), Fraction(0)) for row in self.grams[k]]
        vol = orientation * float(np.sqrt(float(self.det)))
        basis_c = oracle_basis(DIM - k)
        out = np.zeros(len(basis_c))
        for I, w in zip(oracle_basis(k), weighted):
            comp = tuple(sorted(set(range(1, DIM + 1)) - set(I)))
            out[basis_c.index(comp)] = perm_parity(list(I + comp)) * vol * float(w)
        return out


def b_matrix_oracle(phi_dict):
    """Symmetric bilinear form b with b_ij = coefficient of e^{1..7} in
    (contract_i phi) ^ (contract_j phi) ^ phi."""
    top = tuple(range(1, DIM + 1))
    out = np.zeros((DIM, DIM))
    for i in range(1, DIM + 1):
        ci = dict_contract(i, phi_dict)
        for j in range(i, DIM + 1):
            cj = dict_contract(j, phi_dict)
            w = dict_wedge(dict_wedge(ci, cj), phi_dict)
            out[i - 1, j - 1] = out[j - 1, i - 1] = w.get(top, 0.0)
    return out


def metric_oracle(phi_dict):
    """Induced metric: kappa * b * det(b)^{-1/9}, kappa = 6^{-2/9}."""
    b = b_matrix_oracle(phi_dict)
    det = np.linalg.det(b)
    if det <= 0:
        raise ValueError("not a positive 3-form")
    return 6.0 ** (-2.0 / 9.0) * b * det ** (-1.0 / 9.0)


def d_oracle(d1_dicts, a_dict, k):
    """Exterior differential by the Leibniz rule from generator images.

    ``d1_dicts[i]`` is the sparse 2-form d e^{i+1}; monomial e^{i1...ik}
    differentiates to sum_s (-1)^{s-1} e^{i1} ^ .. ^ d e^{is} ^ .. ^ e^{ik}.
    """
    out = {}
    for idx, c in a_dict.items():
        for s, i in enumerate(idx):
            rest_front = {tuple(idx[:s]): 1.0} if s else {(): 1.0}
            rest_back = {tuple(idx[s + 1 :]): 1.0} if s < len(idx) - 1 else {(): 1.0}
            term = dict_wedge(dict_wedge(rest_front, d1_dicts[i - 1]), rest_back)
            for key, val in term.items():
                out[key] = out.get(key, 0.0) + ((-1.0) ** s) * c * val
    return {k2: v for k2, v in out.items() if v != 0.0}


def derivation_oracle(action, a_dict):
    """Derivation extending a linear map of 1-forms to a sparse form.

    ``action[i, j]`` is the coefficient of e^{i+1} in the image of e^{j+1}.
    Each slot of each monomial is replaced in turn by every e^i the action
    sends it to, and the result is sorted with its parity.
    """
    out = {}
    for idx, c in a_dict.items():
        for slot, j in enumerate(idx):
            for i in range(1, DIM + 1):
                coef = action[i - 1, j - 1]
                replaced = idx[:slot] + (i,) + idx[slot + 1 :]
                if coef == 0.0 or len(set(replaced)) != len(replaced):
                    continue
                key = tuple(sorted(replaced))
                out[key] = out.get(key, 0.0) + perm_parity(replaced) * c * coef
    return out


def koszul_oracle(structure_constants, g):
    """Levi-Civita connection coefficients on a Lie algebra with a
    left-invariant metric: 2 g(nabla_i e_j, e_k) =
    g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j).

    ``structure_constants[i, j, l]`` is the e_l component of [e_i, e_j].
    Returns gamma[i, j, k] = (nabla_i e_j)^k.
    """
    c = structure_constants
    rhs = np.zeros((DIM, DIM, DIM))
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                rhs[i, j, k] = 0.5 * (
                    np.dot(c[i, j], g[:, k]) - np.dot(c[j, k], g[:, i]) + np.dot(c[k, i], g[:, j])
                )
    ginv = np.linalg.inv(g)
    return np.einsum("ijm,mk->ijk", rhs, ginv)


# --------------------------------------------------------------------------
# Diagonal family law (frozen from an exact symbolic derivation)
# --------------------------------------------------------------------------

FAMILY_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))


def family_lambda_oracle(c):
    """Stretch factors lambda with prod_{i in line} lambda_i = c_line^2."""
    m = np.zeros((7, 7))
    for a, line in enumerate(FAMILY_LINES):
        for i in line:
            m[a, i - 1] = 1.0
    return np.exp(np.linalg.solve(m, 2.0 * np.log(np.asarray(c, dtype=float))))


def family_coefficient_oracle(c):
    """Expected e^{1357} coefficient of the A=0 coflow right-hand side on
    the diagonal family member with coefficients c:
    2 (l2 l4 l7 + l2 l5 l6 - l3 l4 l6) / l1 in the stretch factors."""
    l = family_lambda_oracle(c)
    return 2.0 * (l[1] * l[3] * l[6] + l[1] * l[4] * l[5] - l[2] * l[3] * l[5]) / l[0]


def coframe_pattern_oracle(x):
    """2 (x2 x4 x7 + x2 x5 x6 - x3 x4 x6) / (x1^2 x3 x5 x7): in the stretch
    factors this is the right-hand-side component in the metric-orthonormal
    coframe; evaluated directly in c it matches the computed coefficient
    only at the unit point."""
    x = np.asarray(x, dtype=float)
    return (
        2.0
        * (x[1] * x[3] * x[6] + x[1] * x[4] * x[5] - x[2] * x[3] * x[5])
        / (x[0] ** 2 * x[2] * x[4] * x[6])
    )


# A non-unit family member on the zero locus of the stretch-factor law:
# lambda = (2^{1/3}, 2^{-1/6}, 2^{5/6}, 2^{-1/6}, 2^{-1/6}, 2^{1/3}, 2^{1/3})
# gives l2 l4 l7 + l2 l5 l6 - l3 l4 l6 = 1 + 1 - 2 = 0.
STATIC_FAMILY_MEMBER = (
    np.sqrt(2.0),
    1.0,
    np.sqrt(2.0),
    1.0,
    1.0,
    np.sqrt(2.0),
    np.sqrt(2.0),
)


def np_closed_form_oracle(t, tau0, c0=1.0):
    """A = 0 scalar solution (sqrt(c0) - (5/4) tau0^2 t)^2."""
    root = np.sqrt(c0) - 1.25 * tau0**2 * np.asarray(t, dtype=float)
    return np.where(root > 0.0, root, 0.0) ** 2


# --------------------------------------------------------------------------
# Newton recovery of phi from psi (reference for the closed form)
# --------------------------------------------------------------------------


def _dual_batch(xs):
    """Dual 4-forms of a batch of 3-forms (rows of ``xs``), unvalidated.

    Returns None when any member leaves the positive orbit, so callers can
    fall back to the checked scalar path.
    """
    from g2flow.conventions import METRIC_KAPPA
    from g2flow.exterior import COMPL_INDEX, COMPL_SIGN, CONTRACT, DIMS
    from g2flow.g2core import _P223

    u = np.tensordot(xs, CONTRACT[3], axes=(1, 1))  # (n, 7, D2)
    p = (xs @ _P223.T).reshape(-1, DIMS[2], DIMS[2])
    b = u @ p @ u.transpose(0, 2, 1)
    det_b = np.linalg.det(b)
    if not np.all(det_b > 0.0):
        return None
    g = METRIC_KAPPA * b * det_b[:, None, None] ** (-1.0 / 9.0)
    g = 0.5 * (g + g.transpose(0, 2, 1))
    det_g = np.linalg.det(g)
    if not np.all(det_g > 0.0):
        return None
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        return None
    gram3 = exterior_powers(ginv)[3]
    gram3 = 0.5 * (gram3 + gram3.transpose(0, 2, 1))
    weighted = (gram3 @ xs[:, :, None])[:, :, 0]
    duals = np.empty((xs.shape[0], DIMS[4]))
    duals[:, COMPL_INDEX[3]] = COMPL_SIGN[3][None, :] * np.sqrt(det_g)[:, None] * weighted
    return duals


def closed_form_oracle(psi):
    """Closed-form recovery of the 3-form whose dual is the 4-form psi
    (coefficients), through metrics built as matrices: psi read as the
    3-form chi on the dual space induces g_chi (B, det B, a Cholesky
    witness), s = det(g_chi)^{3/8}, g = s^{2/3} g_chi^{-1} by an inverse,
    and phi = star_g psi by ``Metric.star_coeffs``.  Returns (phi, g(phi)),
    or raises ValueError where a metric is not positive."""
    from g2flow.conventions import METRIC_KAPPA
    from g2flow.exterior import COMPL_INDEX, COMPL_SIGN, Metric

    def induced(x):
        b = b_matrix_oracle(dict_of_coeffs(3, x))
        det_b = np.linalg.det(b)
        if not det_b > 0.0:
            raise ValueError(f"not a positive 3-form (det B = {det_b:.3e})")
        g = METRIC_KAPPA * b * det_b ** (-1.0 / 9.0)
        g = 0.5 * (g + g.T)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ValueError("induced bilinear form is not positive definite") from None
        return g

    psi = np.asarray(psi, dtype=float)
    g_chi = induced(COMPL_SIGN[3] * psi[COMPL_INDEX[3]])
    s = np.linalg.det(g_chi) ** 0.375
    g = s ** (2.0 / 3.0) * np.linalg.inv(g_chi)
    phi = Metric(0.5 * (g + g.T)).star_coeffs(4, psi)
    return phi, induced(phi)


def _newton_residual(x, psi_coeffs):
    from g2flow.exterior import Form
    from g2flow.g2core import G2Structure

    structure = G2Structure.from_phi(Form(3, x))
    return structure.psi.coeffs - psi_coeffs, structure


def fd_dual_jacobian(x, f0, psi_coeffs):
    """Forward-difference Jacobian of phi -> star phi - psi at ``x``."""
    eps = 1e-7 * (1.0 + np.abs(x))
    duals = _dual_batch(x[None, :] + np.diag(eps))
    if duals is not None and np.all(np.isfinite(duals)):
        return (duals - (f0 + psi_coeffs)[None, :]).T / eps[None, :]
    jac = np.empty((len(f0), len(x)))
    for j in range(len(x)):
        xp = x.copy()
        xp[j] += eps[j]
        jac[:, j] = (_newton_residual(xp, psi_coeffs)[0] - f0) / eps[j]
    return jac


def newton_phi_of_psi(psi, seed, tol=1e-12, max_iter=50):
    """Seeded Newton iteration on F(phi) = star_{g(phi)} phi - psi.

    Chord strategy: the finite-difference Jacobian is kept while the
    residual contracts tenfold per step, with a halving line search.
    Returns the recovered G2Structure, or None when the seed is not
    positive, the iteration stalls, or ``max_iter`` steps do not reach
    ``tol``.
    """
    from g2flow.errors import PositivityError

    x = np.array(seed.coeffs, dtype=float)
    try:
        f, structure = _newton_residual(x, psi.coeffs)
    except PositivityError:
        return None
    res = float(np.linalg.norm(f))
    jac = None
    jac_fresh = False
    for _ in range(max_iter):
        if res <= tol:
            return structure
        if jac is None:
            jac = fd_dual_jacobian(x, f, psi.coeffs)
            jac_fresh = True
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            return None
        accepted = False
        scale = 1.0
        for _ in range(10):
            try:
                f_new, structure_new = _newton_residual(x - scale * step, psi.coeffs)
            except PositivityError:
                scale *= 0.5
                continue
            res_new = float(np.linalg.norm(f_new))
            if res_new < res:
                x = x - scale * step
                if res_new > 0.1 * res:
                    jac = None
                f, structure, res = f_new, structure_new, res_new
                jac_fresh = False
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            if not jac_fresh:
                jac = None  # stale chord Jacobian; retry once with a fresh one
                continue
            return None
    return structure if res <= tol else None


# --------------------------------------------------------------------------
# Record writers (reference for the experiments' output files)
# --------------------------------------------------------------------------

FLOW_FIELDS = ("t", "psi", "trT", "volume", "closedness", "rhs_norm", "dist_ref")
PSI_COLUMNS = [f"psi_{i:02d}" for i in range(35)]


def write_records_oracle(path, fmt, records, fieldnames):
    """Record dicts as JSON lines (``json.dumps`` of each, keys in
    ``fieldnames`` order) or a CSV through ``csv.writer`` with a header row;
    floats through repr, None as null or an empty field."""
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps({k: rec.get(k) for k in fieldnames if k in rec}) + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fieldnames)
            for rec in records:
                row = []
                for key in fieldnames:
                    val = rec.get(key)
                    row.append("" if val is None else (repr(val) if isinstance(val, float) else val))
                writer.writerow(row)


def write_flow_oracle(path, fmt, records):
    """Flow record dicts (t, psi as a list, the monitors) as
    ``write_records_oracle`` writes them; the CSV flattens psi into
    psi_00..psi_34."""
    fieldnames = list(FLOW_FIELDS)
    records = [dict(rec) for rec in records]
    if fmt == "csv":
        for rec in records:
            rec.update(zip(PSI_COLUMNS, rec.pop("psi")))
        fieldnames[1:2] = PSI_COLUMNS
    write_records_oracle(path, fmt, records, fieldnames)
