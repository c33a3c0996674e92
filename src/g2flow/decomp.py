"""Irreducible module decompositions of forms at a G2 structure.

At a positive 3-form phi with dual psi the form spaces split into
irreducible pieces

    Lambda^2 = Omega^2_7 + Omega^2_14,
    Lambda^3 = Omega^3_1 + Omega^3_7 + Omega^3_27,

with Omega^2_7 spanned by star(beta ^ psi) over 1-forms beta,
Omega^2_14 cut out by  a ^ phi = -star a,  Omega^3_1 = R phi,
Omega^3_7 spanned by star(beta ^ phi), and Omega^3_27 cut out by
a ^ phi = a ^ psi = 0.  Projections are assembled as matrices from these
defining equations and are orthogonal for the induced metric.

The module also houses the symmetric-tensor insertion map i_phi and the
4-form variation split

    sigma = alpha ^ phi + 3 star itilde(h),    itilde = i_phi / kappa_1,

a linear isomorphism from (alpha, h) in R^7 x S^2 onto 4-forms at any
positive structure; its inverse feeds the metric-variation law
dg = (1/2) tr_g(h) g - 2 h.  Each function takes the G2Structure it works at.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conventions import VARIATION_IPHI_WEIGHT
from .errors import G2FlowError
from .exterior import DIM, DIMS, Form, derivation_matrix, star, wedge, wedge_table

__all__ = [
    "SymTensor",
    "VariationParts",
    "i_phi",
    "decompose_variation",
    "variation_form",
    "metric_variation",
    "project2",
    "project3",
    "projector_matrices2",
    "projector_matrices3",
]


@dataclass(eq=False)
class SymTensor:
    """Symmetric 7x7 frame 2-tensor; trace is taken against a metric."""

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.shape != (DIM, DIM):
            raise ValueError(f"symmetric tensor must be {DIM}x{DIM}, got {h.shape}")
        if not np.allclose(h, h.T, atol=1e-12, rtol=0.0):
            raise ValueError("tensor must be symmetric")
        h = 0.5 * (h + h.T)
        h.flags.writeable = False
        self.h = h

    def trace(self, metric):
        """Metric trace g^{ij} h_ij."""
        return float(np.einsum("ij,ij->", metric.inv, self.h))


@dataclass(eq=False)
class VariationParts:
    """Output of the variation split: sigma = alpha ^ phi + 3 star itilde(h)."""

    alpha: Form
    h: SymTensor
    reconstruction_residual: float


def _as_sym(h):
    if isinstance(h, SymTensor):
        return h
    return SymTensor(h)


def wedge_matrix(form, k):
    """Matrix of a |-> a ^ form on k-forms (k + form.degree <= 7)."""
    return np.tensordot(wedge_table(k, form.degree), form.coeffs, axes=(1, 0)).T


def i_phi(structure, h):
    """Insertion of a symmetric 2-tensor into phi, a 3-form.

    Realized as twice the derivation extension of the endomorphism with one
    index raised (h g^{-1}) acting on phi; for h = g this returns
    IPHI_KAPPA1 * phi, the frozen component-convention constant.
    """
    h = _as_sym(h)
    action = h.h @ structure.metric.inv
    return Form(3, 2.0 * derivation_matrix(action, 3) @ structure.phi.coeffs)


def _sym_basis():
    basis = []
    for i in range(DIM):
        for j in range(i, DIM):
            b = np.zeros((DIM, DIM))
            b[i, j] = b[j, i] = 1.0
            basis.append(b)
    return basis


_SYM_BASIS = _sym_basis()


@lru_cache(maxsize=64)
def _variation_matrix(structure):
    """35x35 matrix of (alpha, h) -> alpha ^ phi + 3 star itilde(h)."""
    phi = structure.phi
    star3 = structure.metric.star_matrix(3)
    cols = np.empty((DIMS[4], DIMS[1] + len(_SYM_BASIS)))
    cols[:, : DIMS[1]] = wedge_matrix(phi, 1)
    ginv = structure.metric.inv
    weight = 3.0 * VARIATION_IPHI_WEIGHT * 2.0  # 3 * itilde on the derivation form
    for col, b in enumerate(_SYM_BASIS):
        image = derivation_matrix(b @ ginv, 3) @ phi.coeffs
        cols[:, DIMS[1] + col] = weight * (star3 @ image)
    return cols


def variation_form(structure, alpha, h):
    """Forward variation map alpha ^ phi + 3 star itilde(h) as a 4-form."""
    h = _as_sym(h)
    return wedge(alpha, structure.phi) + (3.0 * VARIATION_IPHI_WEIGHT) * star(
        structure.metric, i_phi(structure, h)
    )


def decompose_variation(structure, sigma):
    """Split a 4-form variation into its (alpha, h) parametrization.

    The parametrization is a linear isomorphism at every positive structure,
    so the solve is exact up to roundoff; the reconstruction residual is
    reported on the output.  A singular matrix signals a corrupted structure.
    """
    if sigma.degree != 4:
        raise G2FlowError(f"variation must be a 4-form, got degree {sigma.degree}")
    mat = _variation_matrix(structure)
    try:
        x = np.linalg.solve(mat, sigma.coeffs)
    except np.linalg.LinAlgError:
        raise G2FlowError(
            "variation parametrization is singular; state is not a valid "
            "positive structure"
        ) from None
    alpha = Form(1, x[: DIMS[1]])
    h = np.zeros((DIM, DIM))
    for coef, b in zip(x[DIMS[1] :], _SYM_BASIS):
        h += coef * b
    h = SymTensor(h)
    residual = float(np.linalg.norm(mat @ x - sigma.coeffs))
    return VariationParts(alpha=alpha, h=h, reconstruction_residual=residual)


def metric_variation(structure, h):
    """First-order metric change (1/2) tr_g(h) g - 2 h induced by the split."""
    h = _as_sym(h)
    return 0.5 * h.trace(structure.metric) * structure.metric.g - 2.0 * h.h


def _orthogonal_projector(basis, gram):
    """Projector onto the column span of ``basis``, orthogonal for ``gram``."""
    gu = gram @ basis
    return basis @ np.linalg.solve(basis.T @ gu, gu.T)


def _nullspace(mat, dim_expected):
    _, s, vt = np.linalg.svd(mat)
    tol = max(mat.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    ns = vt[np.sum(s > tol) :].T
    if ns.shape[1] != dim_expected:
        raise G2FlowError(
            f"defining equations cut out dimension {ns.shape[1]}, "
            f"expected {dim_expected}; structure is degenerate"
        )
    return ns


@lru_cache(maxsize=64)
def projector_matrices2(structure):
    """(P7, P14): orthogonal projectors onto the 2-form pieces."""
    g = structure.metric
    gram2 = g.gram(2)
    span7 = g.star_matrix(5) @ wedge_matrix(structure.psi, 1)
    p7 = _orthogonal_projector(span7, gram2)
    ker14 = _nullspace(wedge_matrix(structure.phi, 2) + g.star_matrix(2), 14)
    p14 = _orthogonal_projector(ker14, gram2)
    for p in (p7, p14):
        p.flags.writeable = False
    return p7, p14


@lru_cache(maxsize=64)
def projector_matrices3(structure):
    """(P1, P7, P27): orthogonal projectors onto the 3-form pieces."""
    g = structure.metric
    gram3 = g.gram(3)
    p1 = _orthogonal_projector(structure.phi.coeffs[:, None], gram3)
    span7 = g.star_matrix(4) @ wedge_matrix(structure.phi, 1)
    p7 = _orthogonal_projector(span7, gram3)
    ker27 = _nullspace(
        np.vstack([wedge_matrix(structure.phi, 3), wedge_matrix(structure.psi, 3)]),
        27,
    )
    p27 = _orthogonal_projector(ker27, gram3)
    for p in (p1, p7, p27):
        p.flags.writeable = False
    return p1, p7, p27


def project2(structure, a):
    """Split a 2-form into its 7- and 14-dimensional pieces."""
    if a.degree != 2:
        raise G2FlowError(f"expected a 2-form, got degree {a.degree}")
    p7, p14 = projector_matrices2(structure)
    return Form(2, p7 @ a.coeffs), Form(2, p14 @ a.coeffs)


def project3(structure, a):
    """Split a 3-form into its 1-, 7- and 27-dimensional pieces."""
    if a.degree != 3:
        raise G2FlowError(f"expected a 3-form, got degree {a.degree}")
    p1, p7, p27 = projector_matrices3(structure)
    return Form(3, p1 @ a.coeffs), Form(3, p7 @ a.coeffs), Form(3, p27 @ a.coeffs)
