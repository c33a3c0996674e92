"""G2 structures on the 7-dimensional algebra: metric, star pair, torsion.

A positive 3-form phi induces a metric through the bilinear form
(iota_i phi) ^ (iota_j phi) ^ phi = B_ij e^{1..7} and the normalization
g = kappa B (det B)^{-1/9}; at the standard form

    phi = e123 + e145 + e167 + e246 - e257 - e347 - e356

this gives exactly the identity metric and volume e^{1234567}.  The dual
4-form is psi = star phi.  Flows evolve psi, so the inverse map (recovering
phi from psi) is needed on every step; a positive 4-form fixes its metric
algebraically, so it is a closed form with an optional Newton correction.

The kernels (B, the induced metric, the closed-form recovery, the torsion
trace) take the coefficients of one form or a stack of forms in rows, with
one metric per row.  ``stack_from_psi`` recovers independent 4-forms in one
pass: every check of one recovery runs over the whole stack, and a row that
fails one comes back marked, to be redone one by one by
``CoclosedState.from_psi`` (Newton corrections, errors and messages are its
own).  Scalar powers are taken per row as for one form,
so a stacked row gets the arithmetic of its one-form evaluation.

The kernels build their metrics trusted (``Metric._trusted``): no copy and
no second validation.  The rule is that a kernel may do so only for a
matrix it has itself made finite, exactly symmetric and factorised by
Cholesky.  ``_induced_metric`` symmetrizes B's multiple and factorises it;
the closed form's metric is a positive multiple of such a metric's
symmetrized inverse.  A stack is screened row by row, and one metric whose
entries are not finite raises the MetricError that ``Metric`` raises.
Every other Metric is validated when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conventions import (
    CODIFF_SIGN,
    METRIC_KAPPA,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    TORSION_PAIRING,
)
from .errors import DegreeError, MetricError, PositivityError, RecoveryError
from .exterior import (
    COMPL_INDEX,
    COMPL_SIGN,
    CONTRACT,
    DIM,
    DIMS,
    WEDGE,
    Form,
    Metric,
    _cached,
    _per_row,
    _wedge,
    star,
)
from .liealg import _require_unimodular, levi_civita

# _P223[(a, b), c]: coefficient of e^{1..7} in (2-form basis a) ^ (2-form
# basis b) ^ (3-form basis c); _IOTA3[(i, a), c]: coefficient of 2-form basis
# a in iota_{e_{i+1}} (3-form basis c).  Flattened once, so B takes two
# matrix-vector and two small matrix products.
_P223 = np.einsum("abd,dce->abc", WEDGE[2, 2], WEDGE[4, 3]).reshape(DIMS[2] ** 2, DIMS[3])
_IOTA3 = np.ascontiguousarray(CONTRACT[3].transpose(0, 2, 1)).reshape(DIM * DIMS[2], DIMS[3])
_IDENTITY = np.eye(DIM)


def b_matrix(phi):
    """Bilinear form B with (iota_i phi) ^ (iota_j phi) ^ phi = B_ij e^{1..7}."""
    if phi.degree != 3:
        raise DegreeError(f"expected a 3-form, got degree {phi.degree}")
    return _b(phi.coeffs)


def _b(x):
    """``b_matrix`` of 3-form coefficients: one form, or a stack in rows."""
    lead = x.shape[:-1]
    u = (x @ _IOTA3.T).reshape(lead + (DIM, DIMS[2]))  # u[..., i, :] = iota_i phi
    p = (x @ _P223.T).reshape(lead + (DIMS[2], DIMS[2]))
    return u @ p @ u.swapaxes(-1, -2)


def _power(x, p):
    """x ** p of one value, or of each value of a stack by the same scalar
    power: numpy's vectorised power can differ from it in the last bit, and
    a row of a stack is to get the bits it gets alone."""
    if isinstance(x, np.ndarray):
        return np.array([v**p for v in x.tolist()])
    return x**p


def _norms(x):
    """Euclidean norm of a vector or of each row of a stack, as
    np.linalg.norm takes it of one vector: the square root of one dot
    product (an axis norm sums the squares in another order)."""
    return np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _screen(ok, bad, value, safe):
    """A check on a stack of rows: mark the rows where ``ok`` fails in the
    boolean array ``bad`` and put ``safe`` in their entries of ``value``, so
    that the rest of the stack evaluates on harmless data; the caller redoes
    those rows one by one.  Returns value."""
    if not np.all(ok):
        ok = np.asarray(ok)
        bad |= ~ok
        value = np.where(ok.reshape(ok.shape + (1,) * (value.ndim - ok.ndim)), value, safe)
    return value


def _finite(x, bad, safe):
    """The finiteness check that building a Form or Metric of x makes, on
    each row of a stack (one row, with ``bad`` None, is checked where its
    Form or Metric is built)."""
    if bad is None:
        return x
    return _screen(np.isfinite(x).all(axis=tuple(range(1, x.ndim))), bad, x, safe)


def _has_cholesky(g):
    """Whether each matrix of the stack g has a Cholesky factor: one
    factorisation of the stack, and where that fails, of each half in turn,
    so one matrix without a factor costs about 2 log2(n) factorisations."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return np.zeros(1, dtype=bool)
        half = len(g) // 2
        return np.concatenate([_has_cholesky(g[:half]), _has_cholesky(g[half:])])
    return np.ones(len(g), dtype=bool)


def _checked_metric(g, bad):
    """The trusted Metric of a kernel's g: exactly symmetric, with a
    Cholesky witness, and on a stack screened finite row by row; one metric
    is checked for finite entries here, raising as ``Metric`` does."""
    if bad is None and not np.isfinite(g).all():
        raise MetricError("metric entries must be finite")
    return Metric._trusted(g)


def metric_from_phi(phi):
    """Metric induced by a positive 3-form (its volume is ``Metric.vol``).

    Raises PositivityError when phi is not positively oriented or the
    candidate metric fails to be positive definite.
    """
    if phi.degree != 3:
        raise DegreeError(f"expected a 3-form, got degree {phi.degree}")
    return _induced_metric(phi.coeffs)


def _induced_metric(x, bad=None):
    """``metric_from_phi`` of 3-form coefficients: one form, raising as it
    does, or a stack in rows with one metric per row, whose failing rows
    are marked in ``bad`` instead (see ``_screen``)."""
    b = _b(x)
    det_b = np.linalg.det(b)
    if bad is None:
        det_b = float(det_b)
        if not det_b > 0.0:  # also catches NaN
            raise PositivityError(f"3-form is not positively oriented (det B = {det_b:.3e})")
    else:
        det_b = _screen(det_b > 0.0, bad, det_b, 1.0)
    g = METRIC_KAPPA * b * _per_row(_power(det_b, -1.0 / 9.0), 2)
    g = _finite(0.5 * (g + g.swapaxes(-1, -2)), bad, _IDENTITY)
    if bad is None:
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise PositivityError("induced bilinear form is not positive definite") from None
    else:
        # Rows already marked get the identity first: their indefinite
        # placeholder would fail the stacked factorisation and send it row
        # by row.
        g = np.where(bad[:, None, None], _IDENTITY, g)
        g = _screen(_has_cholesky(g), bad, g, _IDENTITY)
    return _checked_metric(g, bad)


@dataclass(eq=False)
class G2Structure:
    """Positive 3-form with its induced metric; treat as immutable."""

    phi: Form
    metric: Metric

    @classmethod
    def from_phi(cls, phi):
        return cls(phi=phi, metric=metric_from_phi(phi))

    @_cached
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
    phi = star_g psi.  The metric of phi is induced again, which rechecks
    positivity, and ``star phi`` must match psi to ``tol``; otherwise up
    to ``max_iter`` Newton corrections with the analytic Jacobian
    ``dual_jacobian`` are applied, each halved until it lowers the
    residual.  ``seed`` is accepted for compatibility and ignored.
    """
    return _phi_of_psi(psi, tol, max_iter)[0]


def _phi_of_psi(psi, tol, max_iter):
    """``phi_of_psi`` with the residual |star phi - psi| it ends on."""
    if psi.degree != 4:
        raise DegreeError(f"expected a 4-form, got degree {psi.degree}")
    phi, metric = _closed_form(psi.coeffs)
    structure = G2Structure(phi=Form(3, phi), metric=metric)
    f = structure.psi.coeffs - psi.coeffs
    res = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if res <= tol:
            return structure, res
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
        return structure, res
    raise RecoveryError(
        f"recovery residual {res:.3e} above tolerance {tol:.1e} after {max_iter} corrections",
        residual=res,
    )


def _closed_form(psi, bad=None):
    """The closed form of ``phi_of_psi`` on 4-form coefficients: one form,
    raising as phi_of_psi does, or a stack in rows (see ``_screen``).
    Returns the 3-form coefficients and their induced metric."""
    chi = COMPL_SIGN[3] * psi.take(COMPL_INDEX[3], axis=-1)
    try:
        g_chi = _induced_metric(chi, bad)
    except PositivityError as exc:
        raise RecoveryError(f"4-form is not positive (its dual 3-form: {exc})") from exc
    s = _power(g_chi.det, 0.375)
    # A positive multiple of the symmetrized inverse of a checked metric.
    g = _finite(_per_row(_power(s, 2.0 / 3.0), 2) * g_chi.inv, bad, _IDENTITY)
    metric = _checked_metric(g, bad)
    phi = _finite(metric.star_coeffs(4, psi), bad, 0.0)
    try:
        return phi, _induced_metric(phi, bad)
    except PositivityError as exc:
        raise RecoveryError(f"recovered 3-form is not positive: {exc}") from exc


@dataclass(eq=False)
class StructureStack:
    """G2 structures stacked in rows: 3-forms ``phi`` (n, 35) and one
    ``metric`` holding the n induced metrics.  The rows that
    ``stack_from_psi`` marks hold finite placeholders.  Treat as immutable."""

    phi: np.ndarray
    metric: Metric


def stack_from_psi(psi):
    """``CoclosedState.from_psi`` for each 4-form row of ``psi`` (n, 35), by
    the closed form in one pass.  Returns (stack, bad): ``bad`` marks the
    rows that fail a check or whose residual exceeds ``NEWTON_TOL``; they hold
    placeholders, and ``CoclosedState.from_psi`` on such a row applies the
    Newton corrections or raises as it does for one form."""
    bad = np.zeros(len(psi), dtype=bool)
    psi = _finite(psi, bad, 0.0)
    phi, metric = _closed_form(psi, bad)
    back = _finite(metric.star_coeffs(3, phi), bad, 0.0)
    bad |= ~(_norms(back - psi) <= NEWTON_TOL)  # the residual gate of phi_of_psi
    return StructureStack(phi=phi, metric=metric), bad


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
        structure, residual = _phi_of_psi(psi, tol, max_iter)
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
    phi = s.phi.coeffs
    return float(_torsion_trace(s.metric, phi, _d(L, 3, phi)))


def _torsion_trace(metric, phi, dphi):
    """``torsion_trace`` of 3-form coefficients phi with their d phi and
    metric: one form, or stacks in rows (one value per row)."""
    return 0.25 * metric.star_coeffs(DIM, _wedge(4, 3, dphi, phi))[..., 0]


def _d(L, k, x):
    """The differential of k-form coefficients: one form, or a stack in rows.

    Each row is its own vector-matrix product: one matrix product over the
    stack sums each row's terms in another order, so on an algebra whose
    differential rows add several non-integer terms a stacked row would not
    round as the form alone does."""
    return (x[..., None, :] @ L.differential_matrix(k).T)[..., 0, :]


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
    (``liealg.hodge_laplacian_matrix`` is the same operator as a matrix).
    The flows evaluate it on closed forms as d delta alone; this full
    operator is their oracle."""
    _require_unimodular(L)
    k, x = a.degree, a.coeffs
    out = np.zeros(DIMS[k])
    if k >= 1:  # d delta a
        delta_a = g.star_coeffs(DIM - k + 1, _d(L, DIM - k, g.star_coeffs(k, x)))
        out += CODIFF_SIGN[k] * _d(L, k - 1, delta_a)
    if k < DIM:  # delta d a
        star_da = g.star_coeffs(k + 1, _d(L, k, x))
        out += CODIFF_SIGN[k + 1] * g.star_coeffs(DIM - k, _d(L, DIM - k - 1, star_da))
    return Form(k, out)
