"""G2 structures on the 7-dimensional algebra: metric, star pair, torsion.

A positive 3-form phi induces a metric through the bilinear form
(iota_i phi) ^ (iota_j phi) ^ phi = B_ij e^{1..7} and the normalization
g = kappa B (det B)^{-1/9}; at the standard form

    phi = e123 + e145 + e167 + e246 - e257 - e347 - e356

this gives exactly the identity metric and volume e^{1234567}.  The dual
4-form is psi = star phi.  Flows evolve psi, so the inverse map (recovering
phi from psi) is needed on every step; a positive 4-form fixes its metric
algebraically, so it is a closed form with an optional Newton correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conventions import (
    CODIFF_SIGN,
    METRIC_KAPPA,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    TORSION_PAIRING,
)
from .errors import DegreeError, PositivityError, RecoveryError
from .exterior import (
    COMPL_INDEX,
    COMPL_SIGN,
    CONTRACT,
    DIM,
    DIMS,
    WEDGE,
    Form,
    Metric,
    star,
    wedge,
)
from .liealg import _require_unimodular, differential, levi_civita

# _P223[(a, b), c]: coefficient of e^{1..7} in (2-form basis a) ^ (2-form
# basis b) ^ (3-form basis c); _IOTA3[(i, a), c]: coefficient of 2-form basis
# a in iota_{e_{i+1}} (3-form basis c).  Flattened once, so B takes two
# matrix-vector and two small matrix products.
_P223 = np.einsum("abd,dce->abc", WEDGE[2, 2], WEDGE[4, 3]).reshape(DIMS[2] ** 2, DIMS[3])
_IOTA3 = np.ascontiguousarray(CONTRACT[3].transpose(0, 2, 1)).reshape(DIM * DIMS[2], DIMS[3])


def b_matrix(phi):
    """Bilinear form B with (iota_i phi) ^ (iota_j phi) ^ phi = B_ij e^{1..7}."""
    if phi.degree != 3:
        raise DegreeError(f"expected a 3-form, got degree {phi.degree}")
    u = (_IOTA3 @ phi.coeffs).reshape(DIM, DIMS[2])  # u[i] = iota_i phi
    p = (_P223 @ phi.coeffs).reshape(DIMS[2], DIMS[2])
    return u @ p @ u.T


def metric_from_phi(phi):
    """Metric induced by a positive 3-form (its volume is ``Metric.vol``).

    Raises PositivityError when phi is not positively oriented or the
    candidate metric fails to be positive definite.
    """
    b = b_matrix(phi)
    det_b = float(np.linalg.det(b))
    if det_b <= 0.0:
        raise PositivityError(
            f"3-form is not positively oriented (det B = {det_b:.3e})"
        )
    g = METRIC_KAPPA * b * det_b ** (-1.0 / 9.0)
    g = 0.5 * (g + g.T)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise PositivityError("induced bilinear form is not positive definite") from None
    metric = Metric(g)
    metric._spd_checked = True  # Cholesky above is the definiteness witness
    return metric


@dataclass(eq=False)
class G2Structure:
    """Positive 3-form with its induced metric; treat as immutable."""

    phi: Form
    metric: Metric

    @classmethod
    def from_phi(cls, phi):
        return cls(phi=phi, metric=metric_from_phi(phi))

    @cached_property
    def psi(self):
        """Dual 4-form star(phi)."""
        return star(self.metric, self.phi)

    @property
    def volume(self):
        """Scalar volume sqrt(det g) of the unit frame box."""
        return self.metric.sqrt_det


# Tries per correction step, halving it each time, before recovery stalls.
_CORRECTION_HALVINGS = 10


def dual_jacobian(structure):
    """Matrix of the derivative of phi -> star_{g(phi)} phi at a structure.

    On the type decomposition the derivative is star((4/3) P1 + P7 - P27)
    (Hitchin 2000; Bryant 2005): the metric variation scales the 1-part,
    leaves the 7-part alone and reverses the 27-part.
    """
    from .decomp import projector_matrices3  # decomp imports this module

    p1, p7, p27 = projector_matrices3(structure)
    return structure.metric.star_matrix(3) @ ((4.0 / 3.0) * p1 + p7 - p27)


def phi_of_psi(psi, seed=None, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
    """Recover the positive 3-form whose dual 4-form is psi.

    Closed form: read psi through the inverse volume as a 3-form chi on the
    dual space; its induced metric is g_chi = s^{2/3} g^{-1} with
    s = sqrt(det g), so s = det(g_chi)^{3/8}, g = s^{2/3} g_chi^{-1} and
    phi = star_g psi.  The result is rebuilt with ``G2Structure.from_phi``,
    which rechecks positivity, and ``star phi`` must match psi to ``tol``;
    otherwise up to ``max_iter`` Newton corrections with the analytic
    Jacobian ``dual_jacobian`` are applied, each halved until it lowers the
    residual.  ``seed`` is accepted for compatibility and ignored.
    """
    if psi.degree != 4:
        raise DegreeError(f"expected a 4-form, got degree {psi.degree}")
    try:
        g_chi = metric_from_phi(Form(3, COMPL_SIGN[3] * psi.coeffs[COMPL_INDEX[3]]))
    except PositivityError as exc:
        raise RecoveryError(f"4-form is not positive (its dual 3-form: {exc})") from exc
    s = g_chi.det**0.375
    metric = Metric(s ** (2.0 / 3.0) * g_chi.inv)
    metric._spd_checked = True  # a positive multiple of an SPD inverse
    try:
        structure = G2Structure.from_phi(star(metric, psi))
    except PositivityError as exc:
        raise RecoveryError(f"recovered 3-form is not positive: {exc}") from exc
    f = structure.psi.coeffs - psi.coeffs
    res = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if res <= tol:
            return structure
        try:
            step = np.linalg.solve(dual_jacobian(structure), f)
        except np.linalg.LinAlgError:
            raise RecoveryError(
                f"singular Jacobian in recovery correction (residual {res:.2e})", residual=res
            ) from None
        for _ in range(_CORRECTION_HALVINGS):
            try:
                trial = G2Structure.from_phi(Form(3, structure.phi.coeffs - step))
            except PositivityError:
                step = 0.5 * step
                continue
            f_new = trial.psi.coeffs - psi.coeffs
            res_new = float(np.linalg.norm(f_new))
            if res_new < res:
                break
            step = 0.5 * step
        else:
            raise RecoveryError(f"recovery correction stalled (residual {res:.2e})", residual=res)
        structure, f, res = trial, f_new, res_new
    if res <= tol:
        return structure
    raise RecoveryError(
        f"recovery residual {res:.3e} above tolerance {tol:.1e} after {max_iter} corrections",
        residual=res,
    )


@dataclass(eq=False)
class CoclosedState:
    """Evolving 4-form with its recovered structure.

    ``residual`` is the Euclidean norm of star_{g(phi)} phi - psi at the
    recovered phi; the closedness of psi is a separate diagnostic tracked by
    the flow layer.
    """

    psi: Form
    recovered: G2Structure
    residual: float

    @classmethod
    def from_psi(cls, psi, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
        """Recover the structure of psi in closed form (see ``phi_of_psi``)."""
        structure = phi_of_psi(psi, tol=tol, max_iter=max_iter)
        residual = float(np.linalg.norm(structure.psi.coeffs - psi.coeffs))
        return cls(psi=psi, recovered=structure, residual=residual)

    @classmethod
    def from_phi(cls, phi):
        """State whose psi is exactly the dual of phi (zero residual)."""
        structure = G2Structure.from_phi(phi)
        return cls(psi=structure.psi, recovered=structure, residual=0.0)


def _structure_of(state):
    return state.recovered if isinstance(state, CoclosedState) else state


def torsion_trace(L, state):
    """Scalar torsion trace (1/4) star(d phi ^ phi) of a structure or state."""
    s = _structure_of(state)
    return _torsion_trace(s, differential(L, s.phi))


def _torsion_trace(s, dphi):
    """``torsion_trace`` of the structure s given its d phi."""
    return 0.25 * float(star(s.metric, wedge(dphi, s.phi)).coeffs[0])


@dataclass(eq=False)
class TorsionTensor:
    """Full torsion as a frame 2-tensor t[i, j]."""

    t: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        if t.shape != (DIM, DIM):
            raise ValueError(f"torsion tensor must be {DIM}x{DIM}, got {t.shape}")
        t.flags.writeable = False
        self.t = t

    def trace(self, metric):
        """Metric trace g^{ij} T_ij."""
        return float(np.einsum("ij,ij->", metric.inv, self.t))

    def norm_squared(self, metric):
        """|T|^2 = g^{ik} g^{jl} T_ij T_kl."""
        return float(np.einsum("ik,jl,ij,kl->", metric.inv, metric.inv, self.t, self.t))


def full_torsion(L, state):
    """Full torsion tensor T_ij = (1/4) <nabla_i phi, iota_j psi>.

    The pairing constant is calibrated so the metric trace agrees with
    ``torsion_trace``; the trace-consistency test enforces it.
    """
    s = _structure_of(state)
    conn = levi_civita(L, s.metric)
    nabla_phi = np.einsum("iab,b->ia", conn.form_action(3), s.phi.coeffs)
    iota_psi = np.einsum("iab,a->ib", CONTRACT[4], s.psi.coeffs)
    gram3 = s.metric.gram(3)
    t = TORSION_PAIRING * (nabla_phi @ gram3 @ iota_psi.T)
    return TorsionTensor(t)


def hodge_laplacian(L, g, a):
    """Hodge Laplacian (d delta + delta d) of an invariant form, applied as
    four stars and four differentials with delta = CODIFF_SIGN star d star
    (``liealg.hodge_laplacian_matrix`` is the same operator as a matrix)."""
    _require_unimodular(L)
    k, d = a.degree, L.differential_matrix
    out = np.zeros(DIMS[k])
    if k >= 1:  # d delta a
        delta_a = g.star_coeffs(DIM - k + 1, d(DIM - k) @ g.star_coeffs(k, a.coeffs))
        out += CODIFF_SIGN[k] * (d(k - 1) @ delta_a)
    if k < DIM:  # delta d a
        star_da = g.star_coeffs(k + 1, d(k) @ a.coeffs)
        out += CODIFF_SIGN[k + 1] * g.star_coeffs(DIM - k, d(DIM - k - 1) @ star_da)
    return Form(k, out)
