"""Left-invariant Cartan calculus on a 7-dimensional Lie algebra.

A Lie algebra enters as the differentials of the basis 1-forms (seven
2-forms).  The exterior differential of every degree is
d = sum_j de^j ^ iota_{e_j}, the graded-Leibniz extension of d on 1-forms,
built by ``exterior.insertion_matrix``; d^2 = 0 is equivalent to the Jacobi
identity and is checked, never assumed.  The codifferential, Levi-Civita
connection and Hodge Laplacian act on invariant forms with constant
coefficients, so the whole complex is finite dimensional.

Algebra files use the JSON schema::

    {"dim": 7, "name": "...", "d": [
        {"one_form": 6, "terms": [{"idx": [1, 7], "coef": 1.0}]},
        ...]}

Entries may be omitted for closed basis 1-forms; ``idx`` pairs must be
strictly increasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conventions import CODIFF_SIGN, PINV_RCOND
from .errors import DegreeError, UnimodularityError
from .exterior import (
    CONTRACT,
    DIM,
    DIMS,
    Form,
    contract,
    derivation_matrix,
    form_from_json,
    insertion_matrix,
    star,
)


@dataclass(eq=False)
class LieAlgebraStructure:
    """Structure equations: ``d1[i]`` is the differential of e^{i+1}.

    The bracket follows d(alpha)(X, Y) = -alpha([X, Y]); a coefficient +1 of
    e^{ij} in d1[k] therefore means [e_i, e_j] = -e_{k+1}.  The matrices of d,
    the structure constants and the largest adjoint trace are built on first
    use; treat instances as immutable.
    """

    d1: tuple
    name: str = ""

    def __post_init__(self):
        d1 = tuple(self.d1)
        if len(d1) != DIM:
            raise ValueError(f"need {DIM} differentials, got {len(d1)}")
        for form in d1:
            if not isinstance(form, Form) or form.degree != 2:
                raise DegreeError("each basis differential must be a 2-form")
        self.d1 = d1

    # ---------------------------------------------------------------- schema

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or not isinstance(data.get("d", []), list):
            raise ValueError("an algebra must be a JSON object whose d is a list of entries")
        if data.get("dim") != DIM:
            raise ValueError(f"algebra dimension must be {DIM}, got {data.get('dim')!r}")
        d1 = [Form.zero(2) for _ in range(DIM)]
        seen = set()
        for entry in data.get("d", []):
            if not isinstance(entry, dict):
                raise ValueError(f"each entry of d must be an object, got {entry!r}")
            i = entry.get("one_form")
            if type(i) is not int or not 1 <= i <= DIM:
                raise ValueError(f"one_form must be an integer in 1..{DIM}, got {i!r}")
            if i in seen:
                raise ValueError(f"duplicate entry for one_form {i}")
            seen.add(i)
            d1[i - 1] = form_from_json(2, entry.get("terms", []))
        return cls(d1=tuple(d1), name=str(data.get("name", "")))

    @classmethod
    def from_json_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        entries = []
        for i, form in enumerate(self.d1, start=1):
            terms = [{"idx": list(idx), "coef": coef} for idx, coef in form.terms()]
            if terms:
                entries.append({"one_form": i, "terms": terms})
        data = {"dim": DIM, "d": entries}
        if self.name:
            data["name"] = self.name
        return data

    # ------------------------------------------------------------- structure

    @cached_property
    def _differentials(self):
        d1 = np.array([form.coeffs for form in self.d1])
        mats = tuple(insertion_matrix(d1, k) for k in range(DIM + 1))
        for mat in mats:
            mat.flags.writeable = False
        return mats

    @cached_property
    def structure_constants(self):
        """c[i, j, k] with [e_{i+1}, e_{j+1}] = sum_k c[i, j, k] e_{k+1}."""
        # -d e^{k+1}(e_{i+1}, e_{j+1}), contracting e_{i+1} first, then e_{j+1}
        d1 = np.array([form.coeffs for form in self.d1])
        c = -np.tensordot(CONTRACT[2], d1, axes=(1, 1))
        c.flags.writeable = False
        return c

    def bracket(self, u, v):
        """Bracket of two vectors given by frame components."""
        return np.einsum("ijk,i,j->k", self.structure_constants, u, v)

    def differential_matrix(self, k):
        """Matrix of d from k-forms to (k+1)-forms (zero-width for k = 7)."""
        return self._differentials[k]

    @cached_property
    def _max_trace(self):
        return float(np.max(np.abs(np.einsum("ikk->i", self.structure_constants))))

    def is_unimodular(self, tol=1e-12):
        """True when every adjoint map is traceless."""
        return self._max_trace <= tol


@dataclass
class JacobiReport:
    ok: bool
    max_residual: float
    per_generator: tuple


def differential(L, a):
    """Exterior differential of an invariant form.

    Degree-7 input returns the zero 7-form: the vanishing 8-form has no
    representation of its own in this truncated complex.
    """
    if a.degree >= DIM:
        return Form.zero(DIM)
    return Form(a.degree + 1, L.differential_matrix(a.degree) @ a.coeffs)


def jacobi_check(L, tol=1e-12):
    """Check d(d e^i) = 0 for every generator; equivalent to Jacobi."""
    residuals = tuple(float(np.max(np.abs(differential(L, form).coeffs))) for form in L.d1)
    worst = max(residuals)
    return JacobiReport(ok=worst <= tol, max_residual=worst, per_generator=residuals)


def _require_unimodular(L):
    if not L.is_unimodular():
        raise UnimodularityError(
            "codifferential adjointness requires a unimodular algebra"
        )


def codifferential(L, g, a):
    """Adjoint of d for the metric g, realized as a signed star d star."""
    if a.degree == 0:
        raise DegreeError("codifferential requires degree >= 1")
    _require_unimodular(L)
    return CODIFF_SIGN[a.degree] * star(g, differential(L, star(g, a)))


def codifferential_matrix(L, g, k):
    """Matrix of the codifferential from k-forms to (k-1)-forms."""
    if k == 0:
        raise DegreeError("codifferential requires degree >= 1")
    _require_unimodular(L)
    s1 = g.star_matrix(k)
    dmat = L.differential_matrix(DIM - k)
    s2 = g.star_matrix(DIM - k + 1)
    return CODIFF_SIGN[k] * (s2 @ dmat @ s1)


def hodge_laplacian_matrix(L, g, k):
    """Matrix of d delta + delta d on invariant k-forms."""
    out = np.zeros((DIMS[k], DIMS[k]))
    if k >= 1:
        out += L.differential_matrix(k - 1) @ codifferential_matrix(L, g, k)
    if k <= DIM - 1:
        out += codifferential_matrix(L, g, k + 1) @ L.differential_matrix(k)
    return out


@dataclass(eq=False)
class Connection:
    """Frame connection coefficients: gamma[i, j, k] = Gamma^k_{ij}, the
    coefficient of e_{k+1} in nabla_{e_{i+1}} e_{j+1}."""

    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)
        if gamma.shape != (DIM, DIM, DIM):
            raise ValueError(f"gamma must be {DIM}x{DIM}x{DIM}, got {gamma.shape}")
        gamma.flags.writeable = False
        self.gamma = gamma

    def form_action(self, k):
        """Stack of matrices, built on each call: entry i is nabla_{e_{i+1}} on
        k-forms, extending nabla_{e_i} e^j = -Gamma^j_{im} e^m as a derivation."""
        return np.stack([derivation_matrix(-gamma_i, k) for gamma_i in self.gamma])

    def covariant_derivative(self, i, a):
        """nabla along the i-th frame vector (i in 0..6) of an invariant form."""
        return Form(a.degree, derivation_matrix(-self.gamma[i], a.degree) @ a.coeffs)


def levi_civita(L, g):
    """Levi-Civita connection of an invariant metric via the Koszul formula.

    For invariant fields 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X)
    + g([Z,X],Y).
    """
    g.require_spd()
    c = L.structure_constants
    gb = np.einsum("ijm,ml->ijl", c, g.g)  # gb[i,j,l] = g([e_i,e_j], e_l)
    k = 0.5 * (gb - np.transpose(gb, (2, 0, 1)) + np.transpose(gb, (1, 2, 0)))
    # k[i,j,l] = g(nabla_i e_j, e_l); raise the last index
    gamma = np.einsum("ijl,lk->ijk", k, g.inv)
    return Connection(gamma)


def lie_derivative(L, v, a):
    """Cartan formula L_v = d iota_v + iota_v d for an invariant vector v."""
    if a.degree == 0:
        return Form(0, np.zeros(1))
    term1 = differential(L, contract(v, a))
    term2 = contract(v, differential(L, a)) if a.degree < DIM else Form.zero(a.degree)
    return term1 + term2


@dataclass
class GreenReport:
    ok: bool
    max_residual: float
    image_dim: int


def _green_operator(L, g, k, rcond):
    """Pseudo-inverse of the Laplacian on k-forms, correct for the Gram
    inner product (the Laplacian is self-adjoint there, not in coefficients)."""
    lap = hodge_laplacian_matrix(L, g, k)
    chol = np.linalg.cholesky(g.gram(k))
    chol_inv_t = np.linalg.inv(chol).T
    sym = chol.T @ lap @ chol_inv_t
    sym = 0.5 * (sym + sym.T)
    green_sym = np.linalg.pinv(sym, rcond=rcond, hermitian=True)
    return chol_inv_t @ green_sym @ chol.T


def green_identity_check(L, g, k, rcond=PINV_RCOND, tol=1e-10):
    """Verify psi = d G delta psi on the exact invariant k-forms.

    G is the Green operator (pseudo-inverse of the Laplacian) one degree
    below, the domain of the final d.  Vacuously true when d has zero image
    in degree k.
    """
    if not 1 <= k <= DIM:
        raise DegreeError(f"degree must be in 1..{DIM}, got {k}")
    _require_unimodular(L)
    dmat = L.differential_matrix(k - 1)
    u, s, _ = np.linalg.svd(dmat)
    rank = int(np.sum(s > (s[0] * 1e-12 if s.size and s[0] > 0 else np.inf)))
    if rank == 0:
        return GreenReport(ok=True, max_residual=0.0, image_dim=0)
    image = u[:, :rank]
    green = _green_operator(L, g, k - 1, rcond)
    delta = codifferential_matrix(L, g, k)
    recon = dmat @ green @ delta @ image
    residual = float(np.max(np.abs(recon - image)))
    return GreenReport(ok=residual <= tol, max_residual=residual, image_dim=rank)
