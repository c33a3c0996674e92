"""G2 structures on the 7-dimensional algebra: metric, star pair, torsion.

A positive 3-form phi induces a metric through the bilinear form
(iota_i phi) ^ (iota_j phi) ^ phi = B_ij e^{1..7} and the normalization
g = kappa B (det B)^{-1/9}; at the standard form

    phi = e123 + e145 + e167 + e246 - e257 - e347 - e356

this gives exactly the identity metric and volume e^{1234567}.  The dual
4-form is psi = star phi.  Flows evolve psi, so the inverse map (recovering
phi from psi) is needed on every step; a positive 4-form fixes its metric
algebraically, so it is a closed form with an optional Newton correction.

No Hodge star is taken of a structure's own form.  B is formed from
up[i, b], the pairing of (iota_i phi) ^ phi with the basis 2-form b, as
B = up u^T (u[i, :] = iota_i phi).  Since iota_v phi lies in Lambda^2_7,
(iota_v phi) ^ phi = 2 star(iota_v phi) = 2 v^flat ^ psi (Bryant, "Some
remarks on G2-structures", 2005, section 2), so row k of g^{-1} up pairs
2 e^k ^ psi with the basis 2-forms: psi_q = (1/2) s_q (g^{-1} up)[k_q, b_q]
for a fixed split {k_q} + b_q of the complement of q and a fixed sign s_q
(``_dual``).  The same identity gives the recovery in closed form: psi read
as the 3-form chi on the dual space induces g_chi = s^{2/3} g^{-1} with
s = sqrt(det g) = det(g_chi)^{3/8}, and phi = star_g psi is
s^{-1/3} star_{g_chi} chi read back through the signed complement, so g
itself, its inverse and its degree-4 star are never built
(``_closed_form``).  The generic ``Metric.star_coeffs`` stays for every
other form (d phi, d psi, the type decomposition, linearization) and is the
identity's oracle in the tests.

One factorisation per metric: one Cholesky factor L of the symmetrized B
is the positivity witness, since kappa > 0; det B = prod L_ii^2, and with
r = (det B)^{1/9}, g = (kappa / r) B, g^{-1} = (r / kappa) B^{-1} from one
inverse of B, det g = kappa^7 r^2 and sqrt(det g) = kappa^{7/2} r
(``_induced``).  A Laplacian-flow evaluation thus takes one ``cholesky``
and one ``inv``, a coflow recovery two of each (the structures of chi and
of phi), and neither takes a determinant: det B is taken only on the
failure path, for the message that tells an orientation failure
(det B <= 0) from an indefinite B, under ``np.errstate`` so an overflow
there halts the flow instead of raising a RuntimeWarning.  A B whose
entries are not finite is screened before it is factorised.

The kernels (B, the induced metric and dual, the closed-form recovery, the
torsion trace) take the coefficients of one form or a stack of forms in
rows, with one metric per row.  ``stack_from_psi`` recovers independent
4-forms in one pass: every check of one recovery runs over the whole
stack, and a row that fails one comes back marked, to be redone one by one
by ``CoclosedState.from_psi`` (Newton corrections, errors and messages are
its own).  Scalar powers and the product of the factor's diagonal are taken
per row as for one form, so a stacked row gets the arithmetic of its
one-form evaluation.

The kernels build their metrics trusted (``Metric._trusted``): no copy and
no second validation, with the inverse, det and sqrt(det) of the same
factorisation as the metric's caches.  The rule is that a kernel may do so
only for a matrix it has itself made finite, exactly symmetric and
factorised by Cholesky.  A stack is screened row by row, and one metric
whose entries are not finite raises the MetricError that ``Metric`` raises.
Every other Metric is validated when it is built.
"""

from __future__ import annotations

import math
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
    BASIS,
    BASIS_POS,
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
    merge_sign,
    star,
)
from .liealg import _require_unimodular, levi_civita

# _P223[(a, b), c]: coefficient of e^{1..7} in (2-form basis a) ^ (2-form
# basis b) ^ (3-form basis c); _IOTA3[(i, a), c]: coefficient of 2-form basis
# a in iota_{e_{i+1}} (3-form basis c).  Each row holds at most one sign, so
# B takes two signed gathers of the coefficients (_GATHER_*: the source
# coefficient and its sign, 0 where the row is empty) and two small matrix
# products.
_P223 = np.einsum("abd,dce->abc", WEDGE[2, 2], WEDGE[4, 3]).reshape(DIMS[2] ** 2, DIMS[3])
_IOTA3 = np.ascontiguousarray(CONTRACT[3].transpose(0, 2, 1)).reshape(DIM * DIMS[2], DIMS[3])
_GATHER_P = (np.abs(_P223).argmax(axis=1), _P223.sum(axis=1))
_GATHER_IOTA = (np.abs(_IOTA3).argmax(axis=1), _IOTA3.sum(axis=1))
_IDENTITY = np.eye(DIM)


def b_matrix(phi):
    """Bilinear form B with (iota_i phi) ^ (iota_j phi) ^ phi = B_ij e^{1..7}."""
    if phi.degree != 3:
        raise DegreeError(f"expected a 3-form, got degree {phi.degree}")
    return _b_parts(phi.coeffs)[1]


def _b_parts(x):
    """(up, B) of 3-form coefficients, one form or a stack in rows:
    up[..., i, b] is the coefficient of e^{1..7} in
    (iota_i phi) ^ phi ^ (2-form basis b), and B = up u^T with
    u[..., i, :] = iota_i phi."""
    lead = x.shape[:-1]
    u = (x.take(_GATHER_IOTA[0], axis=-1) * _GATHER_IOTA[1]).reshape(lead + (DIM, DIMS[2]))
    p = (x.take(_GATHER_P[0], axis=-1) * _GATHER_P[1]).reshape(lead + (DIMS[2], DIMS[2]))
    up = u @ p
    return up, up @ u.swapaxes(-1, -2)


def _build_dual_tables():
    # psi_q = (1/2) s_q w[k, b], w = g^{-1} up, where {k} + b (k first) is
    # the complement of the 4-index q and s_q the sign of e^k ^ e^q ^ e^b.
    full = set(range(1, DIM + 1))
    index, sign = [], []
    for q in BASIS[4]:
        k, *rest = sorted(full - set(q))
        s1, kq = merge_sign((k,), q)
        s2, _ = merge_sign(kq, tuple(rest))
        index.append((k - 1) * DIMS[2] + BASIS_POS[2][tuple(rest)])
        sign.append(0.5 * s1 * s2)
    return np.array(index), np.array(sign)


_DUAL_INDEX, _DUAL_SIGN = _build_dual_tables()
# The B of the standard form and its Cholesky factor: the placeholder of a
# marked row of a stack, whose metric is then exactly the identity.
_B_STANDARD = 6.0 * _IDENTITY
_FACTOR_STANDARD = np.sqrt(6.0) * _IDENTITY
_KAPPA7 = METRIC_KAPPA**7
_KAPPA7_SQRT = METRIC_KAPPA**3.5


def _dual(up, ginv):
    """psi = star phi of 3-form coefficients from their ``up`` (see
    ``_b_parts``) and g^{-1}: one form, or stacks in rows.  By the identity
    (iota_v phi) ^ phi = 2 v^flat ^ psi, row k of g^{-1} up pairs
    2 e^k ^ psi with the basis 2-forms."""
    w = ginv @ up
    return w.reshape(w.shape[:-2] + (-1,)).take(_DUAL_INDEX, axis=-1) * _DUAL_SIGN


def _power(x, p):
    """x ** p of one value, or of each value of a stack by the same scalar
    power: numpy's vectorised power can differ from it in the last bit, and
    a row of a stack is to get the bits it gets alone."""
    if isinstance(x, np.ndarray):
        return np.array([v**p for v in x.tolist()])
    return x**p


def _det_of_factor(factor):
    """det B = prod_i L_ii^2 of a Cholesky factor L, or of each factor of a
    stack, multiplied in the same order for a row as for one matrix."""
    diag = factor.reshape(factor.shape[:-2] + (-1,))[..., :: DIM + 1]
    squares = (diag * diag).tolist()
    if diag.ndim == 1:
        return math.prod(squares)
    return np.array([math.prod(row) for row in squares])


_DET_STANDARD = _det_of_factor(_FACTOR_STANDARD)


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


def _cholesky_rows(b):
    """Cholesky factors of a stack of matrices and a mask of those that
    have one: one factorisation of the stack, and where that fails, of each
    half in turn, so one matrix without a factor costs about 2 log2(n)
    factorisations.  A matrix without one gets the standard form's factor."""
    try:
        return np.linalg.cholesky(b), np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return _FACTOR_STANDARD[None], np.zeros(1, dtype=bool)
        (f1, ok1), (f2, ok2) = _cholesky_rows(b[: len(b) // 2]), _cholesky_rows(b[len(b) // 2 :])
        return np.concatenate([f1, f2]), np.concatenate([ok1, ok2])


def _positivity_error(b):
    """The PositivityError of a B with no usable Cholesky factor.  Only
    here is det B taken, for the message: its sign tells an orientation
    failure from an indefinite form."""
    with np.errstate(all="ignore"):
        det_b = float(np.linalg.det(b))
    if not det_b > 0.0:  # also catches NaN
        return PositivityError(f"3-form is not positively oriented (det B = {det_b:.3e})")
    return PositivityError("induced bilinear form is not positive definite")


def metric_from_phi(phi):
    """Metric induced by a positive 3-form (its volume is ``Metric.vol``).

    Raises PositivityError when phi is not positively oriented or the
    candidate metric fails to be positive definite.
    """
    if phi.degree != 3:
        raise DegreeError(f"expected a 3-form, got degree {phi.degree}")
    return _induced(phi.coeffs)[0]


def _induced(x, bad=None):
    """The induced metric of 3-form coefficients and their dual 4-form
    psi = star phi: one form, raising as ``metric_from_phi`` does, or a
    stack in rows with one metric per row, whose failing rows are marked in
    ``bad`` instead (see ``_screen``) and hold the standard structure's
    metric.

    One Cholesky factor L of the symmetrized B is the positivity witness
    (kappa > 0), and det B = prod L_ii^2; with r = (det B)^{1/9},
    g = (kappa / r) B, g^{-1} = (r / kappa) B^{-1} from one inverse,
    det g = kappa^7 r^2 and sqrt(det g) = kappa^{7/2} r become the metric's
    caches, and psi is read off g^{-1} up (``_dual``)."""
    up, b = _b_parts(x)
    b = b + b.swapaxes(-1, -2)
    b *= 0.5
    if bad is None:
        if not np.isfinite(b).all():
            raise _positivity_error(b)
        try:
            factor = np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            raise _positivity_error(b) from None
        det_b = _det_of_factor(factor)
        if not 0.0 < det_b < math.inf:
            raise _positivity_error(b)
    else:
        # A row with a non-positive diagonal entry has no factor: marking it
        # first leaves the stacked factorisation one call.
        diag = np.diagonal(b, axis1=-2, axis2=-1)
        ok = np.isfinite(b).all(axis=(-2, -1)) & (diag > 0.0).all(axis=-1) & ~bad
        b = _screen(ok, bad, b, _B_STANDARD)
        factor, ok = _cholesky_rows(b)
        b = _screen(ok, bad, b, _B_STANDARD)
        det_b = _det_of_factor(factor)
        ok = (det_b > 0.0) & (det_b < math.inf)
        b = _screen(ok, bad, b, _B_STANDARD)
        det_b = _screen(ok, bad, det_b, _DET_STANDARD)
    r = _power(det_b, 1.0 / 9.0)
    g = b * _per_row(METRIC_KAPPA / r, 2)
    ginv = np.linalg.inv(b)
    ginv = (ginv + ginv.swapaxes(-1, -2)) * _per_row(0.5 * r / METRIC_KAPPA, 2)
    if bad is None:
        if not np.isfinite(g).all():
            raise MetricError("metric entries must be finite")
    else:
        ok = np.isfinite(g).all(axis=(-2, -1)) & np.isfinite(ginv).all(axis=(-2, -1))
        g = _screen(ok, bad, g, _IDENTITY)
        ginv = _screen(ok, bad, ginv, _IDENTITY)
    metric = Metric._trusted(g, ginv, _KAPPA7 * r * r, _KAPPA7_SQRT * r)
    return metric, _finite(_dual(up, ginv), bad, 0.0)


@dataclass(eq=False)
class G2Structure:
    """Positive 3-form with its induced metric; treat as immutable."""

    phi: Form
    metric: Metric

    @classmethod
    def from_phi(cls, phi):
        """The structure of a positive 3-form, with psi read off B (see
        ``_induced``)."""
        if phi.degree != 3:
            raise DegreeError(f"expected a 3-form, got degree {phi.degree}")
        metric, psi = _induced(phi.coeffs)
        structure = cls(phi=phi, metric=metric)
        structure.psi = Form(4, psi)
        return structure

    @_cached
    def psi(self):
        """Dual 4-form star(phi); set by the kernels that build a structure,
        and starred by the metric for one built from a given (phi, metric)."""
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
    phi, metric, back = _closed_form(psi.coeffs)
    structure = G2Structure(phi=Form(3, phi), metric=metric)
    structure.psi = Form(4, back)
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
    Returns the 3-form coefficients, their induced metric and their dual
    4-form star phi, which the residual gate compares with psi.

    With g = s^{2/3} g_chi^{-1} and s = det(g_chi)^{3/8}, phi = star_g psi
    is s^{-1/3} = det(g_chi)^{-1/8} times star_{g_chi} chi read back
    through the signed complement, so g itself is never built: the two
    structures (of chi and of phi) cost one factorisation and one inverse
    each."""
    chi = COMPL_SIGN[3] * psi.take(COMPL_INDEX[3], axis=-1)
    try:
        g_chi, star_chi = _induced(chi, bad)
    except PositivityError as exc:
        raise RecoveryError(f"4-form is not positive (its dual 3-form: {exc})") from exc
    phi = COMPL_SIGN[3] * star_chi.take(COMPL_INDEX[3], axis=-1)
    phi = _finite(_per_row(_power(g_chi.det, -0.125)) * phi, bad, 0.0)
    try:
        metric, back = _induced(phi, bad)
    except PositivityError as exc:
        raise RecoveryError(f"recovered 3-form is not positive: {exc}") from exc
    return phi, metric, back


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
    phi, metric, back = _closed_form(psi, bad)
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
