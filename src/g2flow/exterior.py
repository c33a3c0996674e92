"""Exterior algebra over a fixed oriented 7-dimensional inner-product space.

A k-form is stored densely as a coefficient vector over the C(7,k) strictly
increasing multi-indices in lexicographic order.  Every operation (wedge,
interior product, metric inner product, Hodge star) reduces to signed sums of
coefficient products against sign tables, so identities with integer inputs
hold to machine precision and golden cases hold exactly.  The wedge tables
are built on first use by bit arithmetic (``wedge_table``); a process reads
a few of the 36.

Conventions
-----------
* Basis 1-forms are named e^1 .. e^7; ``e13`` style shorthand in docstrings
  means e^1 ^ e^3.
* Monomials of equal degree are orthonormal for the identity metric; for a
  general metric g the Gram matrix on k-forms is the k-th compound (minor
  determinant matrix) of g^{-1}.  Applied to coefficients, the k-th
  compound of a matrix m transforms each of the k indices of the form by m.
* The positive orientation is e^{1234567}; a Metric carries an orientation
  sign that flips the volume form and the star.
* The star never forms a compound matrix.  On k <= 3 forms it raises the k
  indices with g^{-1}; on k >= 4 forms, since star star = 1 in dimension 7,
  it lowers the 7-k indices of the signed complement with g.  Degree 2 and
  3 work on the layout of contractions (iota_{e_i} a)_b, transforming i by
  m and b by the lower compound (m itself, or the 21 x 21 second compound,
  which a Metric caches for g and for g^{-1}).
* A Metric caches its inverse, determinant, volume, smallest eigenvalue and
  those two second compounds, and nothing else.  The caches are plain
  instance attributes set on first access (``_cached``):
  ``functools.cached_property`` takes a lock on every first access on
  Python 3.10 and 3.11, which the flows would pay on each stage's metric.
  A kernel that has factorised the metric itself may set three of them
  when it builds the metric (``Metric._trusted``): ``inv`` (symmetric),
  ``det`` and ``sqrt_det``, all from that one factorisation.  Every other
  cache is computed from g on first access.
  ``Metric.star_coeffs`` applies the star to a vector or to a stack of
  them; ``star_matrix`` (the star of the identity) and ``gram`` (read off
  it by the defining pairing) are built on each call, for the callers that
  need a matrix.
* A Metric may also hold a stack of metrics, g of shape (n, 7, 7), one per
  row of the coefficient stacks it stars: the index transforms, the second
  compounds, inverse and determinant all broadcast over that leading axis,
  so independent states share each call (``g2core.stack_from_psi``).
* Operators of the form a -> sum_j K_j ^ iota_{e_{j+1}} a, for seven 1- or
  2-forms K_j, are built by ``insertion_matrix`` from the wedge and
  contraction tables.  With 1-forms K_j = A(e^{j+1}) it is the derivation
  extending a linear map A of 1-forms (``derivation_matrix``); with 2-forms
  K_j = d e^{j+1} it is the differential of a Lie algebra.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeError, MetricError

DIM = 7


def _build_bases():
    bases = []
    for k in range(DIM + 1):
        bases.append(tuple(itertools.combinations(range(1, DIM + 1), k)))
    return tuple(bases)


#: BASIS[k] lists the increasing multi-indices of degree k in lexicographic order.
BASIS = _build_bases()
#: BASIS_POS[k] maps a multi-index tuple to its position in BASIS[k].
BASIS_POS = tuple({idx: p for p, idx in enumerate(b)} for b in BASIS)
#: DIMS[k] = C(7, k).
DIMS = tuple(len(b) for b in BASIS)


def sort_sign(seq):
    """Sort an index sequence, returning (parity sign, sorted tuple).

    Returns (0, ()) when the sequence has a repeated index.
    """
    lst = list(seq)
    sign = 1
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
            elif lst[j] == lst[j + 1]:
                return 0, ()
    return sign, tuple(lst)


class MultiIndex(tuple):
    """Strictly increasing tuple of axis labels in 1..7 naming a basis monomial."""

    def __new__(cls, indices):
        idx = tuple(int(i) for i in indices)
        if any(not 1 <= i <= DIM for i in idx):
            raise ValueError(f"indices must lie in 1..{DIM}, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        return super().__new__(cls, idx)

    @property
    def degree(self):
        return len(self)

    @property
    def position(self):
        """Position of this monomial within the lexicographic basis of its degree."""
        return BASIS_POS[len(self)][tuple(self)]


def _mask(idx):
    """The 7-bit mask of a multi-index: bit i - 1 is set for each index i."""
    return sum(1 << (i - 1) for i in idx)


def _merge_sign_bits(lhs, rhs):
    """Sign of e^lhs ^ e^rhs against the increasing order of lhs | rhs, for
    disjoint masks: each bit j of rhs passes the popcount(lhs >> j) bits of
    lhs above it."""
    swaps = 0
    while rhs:
        low = rhs & -rhs
        swaps += (lhs >> (low.bit_length() - 1)).bit_count()
        rhs ^= low
    return -1 if swaps & 1 else 1


# _MASKS[k][a] is the mask of BASIS[k][a]; _MASK_POS[k] maps it back to a.
_MASKS = tuple(tuple(_mask(idx) for idx in b) for b in BASIS)
_MASK_POS = tuple({mask: a for a, mask in enumerate(masks)} for masks in _MASKS)


@functools.cache
def wedge_table(k, l):
    """Sign table of the wedge of degrees k and l, built on first use
    (read-only): entry [a, b, c] is the sign of basis_k[a] ^ basis_l[b] on
    basis_{k+l}[c].  A product is zero where the masks meet, and otherwise
    lands on the mask lhs | rhs."""
    if min(k, l) < 0 or k + l > DIM:
        raise DegreeError(f"no wedge table for degrees {k} and {l} in dimension {DIM}")
    pos = _MASK_POS[k + l]
    flat, signs = [], []
    for a, lhs in enumerate(_MASKS[k]):
        for b, rhs in enumerate(_MASKS[l]):
            if not lhs & rhs:
                flat.append((a * DIMS[l] + b) * DIMS[k + l] + pos[lhs | rhs])
                signs.append(_merge_sign_bits(lhs, rhs))
    table = np.zeros((DIMS[k], DIMS[l], DIMS[k + l]))
    table.put(flat, signs)
    table.flags.writeable = False
    return table


def _build_contraction_tables():
    tables = {}
    for k in range(1, DIM + 1):
        table = np.zeros((DIM, DIMS[k], DIMS[k - 1]))
        for a, idx in enumerate(BASIS[k]):
            for pos, i in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1 :]
                table[i - 1, a, BASIS_POS[k - 1][rest]] = -1.0 if pos % 2 else 1.0
        tables[k] = table
    return tables


def _build_complements():
    full = (1 << DIM) - 1
    comp_index, comp_sign = [], []
    for k in range(DIM + 1):
        comps = [full ^ mask for mask in _MASKS[k]]
        comp_index.append(np.array([_MASK_POS[DIM - k][c] for c in comps], dtype=np.intp))
        signs = [_merge_sign_bits(mask, c) for mask, c in zip(_MASKS[k], comps)]
        comp_sign.append(np.array(signs, dtype=float))
    return tuple(comp_index), tuple(comp_sign)


def _build_power_tables():
    # Degree 1 <= j <= 3 is laid out flat as the (7, C(7,j-1)) array of the
    # contractions u[i, b] = (iota_{e_{i+1}} a)_b (CONTRACT[j]; the sign is 0
    # where b already holds i), degree 0 as itself; pick[j][a] is the flat
    # position of basis_j[a] = (i, rest) in the layout.
    src, sign, pick = [[0]], [[1.0]], [[0]]
    for j in (1, 2, 3):
        table = CONTRACT[j].transpose(0, 2, 1).reshape(-1, DIMS[j])
        src.append(np.abs(table).argmax(axis=1))
        sign.append(table.sum(axis=1))
        pick.append([(idx[0] - 1) * DIMS[j - 1] + BASIS_POS[j - 1][idx[1:]] for idx in BASIS[j]])
    layout = [(np.asarray(s), np.asarray(g), np.asarray(p)) for s, g, p in zip(src, sign, pick)]
    # The star of degree k works in degree j = min(k, 7-k).  For k <= 3 the
    # layout is read from the coefficients and the result is written to the
    # complements with their signs; for k >= 4 the layout is read from the
    # complements with their signs and the result is read out in order.
    star = []
    for k in range(DIM + 1):
        j = min(k, DIM - k)
        s, g, p = layout[j]
        if k == j:
            back = np.argsort(COMPL_INDEX[k])
            star.append((s, g, p[back], COMPL_SIGN[k][back]))
        else:
            star.append((COMPL_INDEX[j][s], COMPL_SIGN[j][s] * g, p, np.ones(DIMS[j])))
    return tuple(layout), tuple(star)


#: CONTRACT[k][i, a, b] = sign of iota_{e_{i+1}} basis_k[a] on basis_{k-1}[b].
CONTRACT = _build_contraction_tables()
COMPL_INDEX, COMPL_SIGN = _build_complements()
# _LAYOUT[j] = (source, sign, pick) of degree j <= 3; _STAR_TABLES[k] =
# (source, sign, pick, output sign) of the star on degree k.
_LAYOUT, _STAR_TABLES = _build_power_tables()
# Rows: the layouts of the 21 basis 2-forms.
_BASIS2_LAYOUT = np.eye(DIMS[2]).take(_LAYOUT[2][0], axis=1) * _LAYOUT[2][1]


@dataclass(frozen=True, eq=False)
class Form:
    """Dense k-form: ``coeffs[p]`` multiplies the p-th lexicographic monomial."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 <= self.degree <= DIM:
            raise DegreeError(f"degree must be in 0..{DIM}, got {self.degree}")
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.shape != (DIMS[self.degree],):
            raise ValueError(
                f"degree {self.degree} needs {DIMS[self.degree]} coefficients, "
                f"got shape {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, degree):
        return cls(degree, np.zeros(DIMS[degree]))

    @classmethod
    def monomial(cls, indices, coef=1.0):
        """``coef * e^indices`` with indices given in any order (sign adjusted)."""
        sign, idx = sort_sign(indices)
        if sign == 0 and len(tuple(indices)) > 0:
            raise ValueError(f"repeated index in {tuple(indices)}")
        coeffs = np.zeros(DIMS[len(idx)])
        coeffs[BASIS_POS[len(idx)][idx]] = sign * coef
        return cls(len(idx), coeffs)

    @classmethod
    def from_terms(cls, degree, terms):
        """Build from a {multi-index tuple: coefficient} mapping."""
        coeffs = np.zeros(DIMS[degree])
        for idx, coef in terms.items():
            mi = MultiIndex(idx)
            if mi.degree != degree:
                raise DegreeError(f"term {tuple(mi)} has degree {mi.degree}, expected {degree}")
            coeffs[mi.position] += coef
        return cls(degree, coeffs)

    def terms(self, tol=0.0):
        """Yield (MultiIndex, coefficient) for entries with |coef| > tol."""
        for pos, idx in enumerate(BASIS[self.degree]):
            if abs(self.coeffs[pos]) > tol:
                yield MultiIndex(idx), float(self.coeffs[pos])

    def norm(self):
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        self._check_same_degree(other)
        return Form(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same_degree(other)
        return Form(self.degree, self.coeffs - other.coeffs)

    def __neg__(self):
        return Form(self.degree, -self.coeffs)

    def __mul__(self, scalar):
        return Form(self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Form(self.degree, self.coeffs / float(scalar))

    def _check_same_degree(self, other):
        if not isinstance(other, Form):
            raise TypeError(f"expected Form, got {type(other).__name__}")
        if self.degree != other.degree:
            raise DegreeError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __repr__(self):
        parts = [f"{c:+g}*e{''.join(map(str, i))}" for i, c in self.terms()] or ["0"]
        return f"Form({self.degree}: {' '.join(parts)})"


def _transform(j, m, m2t, u):
    """Transform every index of degree-j layouts (j <= 3, the last axis of
    ``u``) by the symmetric matrix m: m on the contracted index i and the
    (j-1)-th power on the rest.  ``m2t`` is the transposed second power of
    m, needed for j = 3 only.  Leading axes broadcast: one matrix for every
    layout, or one per row of a stack (m of shape (n, 7, 7))."""
    if j == 0:
        return u
    if j == 1:
        return (u[..., None, :] @ m)[..., 0, :]
    u = u.reshape(u.shape[:-1] + (DIM, DIMS[j - 1]))
    out = m @ (u @ (m if j == 2 else m2t))
    return out.reshape(out.shape[:-2] + (-1,))


def _second_power_t(m):
    """Transposed second exterior power of the symmetric m (one matrix, or
    a stack of them) as (21, 21) matrices (read-only): row a holds the
    transformed basis 2-form a."""
    mat = _transform(2, m[..., None, :, :], None, _BASIS2_LAYOUT).take(_LAYOUT[2][2], axis=-1)
    mat.flags.writeable = False
    return mat


class _cached:
    """A property computed on first access and kept in the instance's
    ``__dict__`` under its own name, which then shadows it: what
    ``functools.cached_property`` does, without its lock."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _scalar_or_rows(x):
    """A float for one metric, the array of row values for a stack."""
    return float(x) if x.ndim == 0 else x


def _per_row(values, axes=1):
    """Values of a stack (an array, one per row) shaped to scale the rows,
    which have ``axes`` more axes; one value stays as it is."""
    return values.reshape(values.shape + (1,) * axes) if isinstance(values, np.ndarray) else values


@dataclass(eq=False)
class Metric:
    """Symmetric positive-definite inner product on the 7-dimensional space.

    ``g`` is one 7 x 7 matrix, or a stack of shape (n, 7, 7): one metric per
    row of the coefficient stacks it stars, with one orientation for all.
    On a stack, ``det``, ``sqrt_det`` and ``min_eigenvalue`` are arrays of
    row values and ``star_coeffs`` stars row i by metric i; ``vol``,
    ``gram`` and ``star_matrix`` need one metric.  Instances cache derived
    data (inverse, determinant, the second compounds of g and g^{-1});
    treat them as immutable after construction.
    """

    g: np.ndarray
    orientation: int = 1
    _spd_checked: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        g = np.array(self.g, dtype=float)
        if g.ndim not in (2, 3) or g.shape[-2:] != (DIM, DIM):
            raise MetricError(f"metric must be {DIM}x{DIM} or a stack of them, got {g.shape}")
        if not np.isfinite(g).all():
            raise MetricError("metric entries must be finite")
        gt = g.swapaxes(-1, -2)
        if np.abs(g - gt).max() > 1e-12:
            raise MetricError("metric must be symmetric")
        if self.orientation not in (1, -1):
            raise MetricError(f"orientation must be +1 or -1, got {self.orientation}")
        g = 0.5 * (g + gt)
        g.flags.writeable = False
        self.g = g

    @classmethod
    def _trusted(cls, g, inv, det, sqrt_det):
        """The positively oriented Metric of g (one matrix or a stack) that
        a kernel has already checked: finite, exactly symmetric, with a
        Cholesky factor as the definiteness witness.  The kernel also gives
        the symmetric inverse, det and sqrt(det) it has from that factor
        (floats, or arrays of row values), which become the metric's caches.
        Nothing is copied or validated again; the arrays become read-only."""
        metric = cls.__new__(cls)
        g.flags.writeable = False
        inv.flags.writeable = False
        metric.g = g
        metric.orientation = 1
        metric._spd_checked = True
        metric.inv, metric.det, metric.sqrt_det = inv, det, sqrt_det
        return metric

    def _row(self, r):
        """Row r of a stacked trusted metric as a trusted metric of its own,
        sharing the row's caches."""
        return Metric._trusted(self.g[r], self.inv[r], float(self.det[r]), float(self.sqrt_det[r]))

    @classmethod
    def identity(cls, orientation=1):
        return cls(np.eye(DIM), orientation)

    @classmethod
    def diagonal(cls, entries, orientation=1):
        return cls(np.diag(np.asarray(entries, dtype=float)), orientation)

    def require_spd(self):
        if self._spd_checked:
            return
        lowest = np.min(self.min_eigenvalue)
        if not lowest > 0.0:  # also catches NaN
            raise MetricError(f"metric is not positive definite (min eigenvalue {lowest:.3e})")
        self._spd_checked = True

    @_cached
    def min_eigenvalue(self):
        return _scalar_or_rows(np.linalg.eigvalsh(self.g)[..., 0])

    @_cached
    def inv(self):
        inv = np.linalg.inv(self.g)
        inv = 0.5 * (inv + inv.swapaxes(-1, -2))
        inv.flags.writeable = False
        return inv

    @_cached
    def det(self):
        return _scalar_or_rows(np.linalg.det(self.g))

    @_cached
    def sqrt_det(self):
        self.require_spd()
        return _scalar_or_rows(np.sqrt(self.det))

    @_cached
    def vol(self):
        """Riemannian volume form, orientation sign included."""
        return Form(DIM, [self.orientation * self.sqrt_det])

    @_cached
    def _inv2t(self):
        return _second_power_t(self.inv)

    @_cached
    def _g2t(self):
        return _second_power_t(self.g)

    def gram(self, k):
        """Gram matrix of the induced inner product on k-forms, built on each call.

        Read off the star by the defining pairing e^I ^ star(e^J) =
        G[I, J] vol: row I is the I^c row of ``star_matrix(k)`` times
        sign(I, I^c) / (orientation * sqrt(det g)).  So for k <= 3 it is the
        k-th power of g^{-1}, and for k >= 4 Jacobi's complementary-minor
        identity on the (7-k)-th power of g.
        """
        scale = COMPL_SIGN[k] / (self.orientation * self.sqrt_det)
        mat = self.star_matrix(k)[COMPL_INDEX[k]] * scale[:, None]
        return 0.5 * (mat + mat.T)

    def star_coeffs(self, k, coeffs):
        """Hodge star of k-form coefficients (a vector, or a stack in rows),
        as the coefficients of a (7-k)-form; a stacked metric stars each
        row by its own metric.

        For k <= 3: (star a)_{I^c} = sign(I, I^c) * orientation * sqrt(det g)
        * (G_k a)_I, with G_k a the raised coefficients.  For k >= 4, since
        star star = 1 in dimension 7, the complement is gathered with its
        signs, its 7-k indices are lowered by g and the result is divided by
        orientation * sqrt(det g).
        """
        self.require_spd()
        src, sign, pick, out_sign = _STAR_TABLES[k]
        vol = self.orientation * self.sqrt_det
        if k <= DIM - k:
            m, m2t, scale = self.inv, self._inv2t if k == 3 else None, vol
        else:
            m, m2t, scale = self.g, self._g2t if k == 4 else None, 1.0 / vol
        u = coeffs.take(src, axis=-1)
        u *= sign * _per_row(scale)
        out = _transform(min(k, DIM - k), m, m2t, u).take(pick, axis=-1)
        out *= out_sign
        return out

    def star_matrix(self, k):
        """Matrix of the Hodge star from k-forms to (7-k)-forms: ``star_coeffs``
        applied to the identity, built on each call (the flow's hot path
        applies ``star_coeffs`` instead)."""
        return self.star_coeffs(k, np.eye(DIMS[k])).T


def _is_finite_number(value):
    """A JSON number that a float holds: no bool, NaN, inf or huge integer."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def form_from_json(degree, terms):
    """Form of a fixture term list ``[{"idx": [i, ...], "coef": c}, ...]``;
    repeated multi-indices add up.  Raises ValueError unless ``degree`` and
    every index are plain integers (a bool or float is not), each term is an
    object with ``degree`` indices, and each coef is a finite number."""
    if type(degree) is not int or not 0 <= degree <= DIM:
        raise ValueError(f"degree must be an integer in 0..{DIM}, got {degree!r}")
    if not isinstance(terms, list):
        raise ValueError(f"terms must be a list, got {terms!r}")
    coeffs = {}
    for term in terms:
        if not isinstance(term, dict):
            raise ValueError(f"each term must be an object, got {term!r}")
        idx, coef = term.get("idx"), term.get("coef")
        if not (isinstance(idx, list) and len(idx) == degree and all(type(i) is int for i in idx)):
            raise ValueError(f"idx must list {degree} integers, got {idx!r}")
        if not _is_finite_number(coef):
            raise ValueError(f"coef must be a finite number, got {coef!r}")
        coeffs[tuple(idx)] = coeffs.get(tuple(idx), 0.0) + coef
    return Form.from_terms(degree, coeffs)


def wedge(a, b):
    """Exterior product; raises DegreeError when the degrees sum past 7."""
    k, l = a.degree, b.degree
    if k + l > DIM:
        raise DegreeError(f"wedge of degrees {k} and {l} exceeds dimension {DIM}")
    return Form(k + l, _wedge(k, l, a.coeffs, b.coeffs))


def _wedge(k, l, a, b):
    """``wedge`` on coefficients: one k-form and one l-form, or stacks of
    them wedged row by row."""
    flat = wedge_table(k, l).reshape(DIMS[k], -1)
    partial = (a @ flat).reshape(a.shape[:-1] + (DIMS[l], DIMS[k + l]))
    return (b[..., None, :] @ partial)[..., 0, :]


def contract(v, a):
    """Interior product of the vector v (components in the e_i frame) into a."""
    if a.degree == 0:
        raise DegreeError("interior product requires degree >= 1")
    v = np.asarray(v, dtype=float)
    if v.shape != (DIM,):
        raise ValueError(f"vector must have shape ({DIM},), got {v.shape}")
    partial = np.tensordot(v, CONTRACT[a.degree], axes=(0, 0))
    return Form(a.degree - 1, a.coeffs @ partial)


def inner(g, a, b):
    """Metric inner product of two forms of equal degree."""
    if a.degree != b.degree:
        raise DegreeError(f"degree mismatch: {a.degree} vs {b.degree}")
    return float(a.coeffs @ g.gram(a.degree) @ b.coeffs)


def star(g, a):
    """Hodge star of a, defined by b ^ star(a) = inner(b, a) vol for all b."""
    return Form(DIM - a.degree, g.star_coeffs(a.degree, a.coeffs))


def form_norm(g, a):
    """Pointwise metric norm sqrt(inner(a, a))."""
    return float(np.sqrt(max(inner(g, a, a), 0.0)))


def insertion_matrix(K, k):
    """Matrix on k-forms of a -> sum_j K_j ^ iota_{e_{j+1}} a, where row j of
    ``K`` holds the coefficients of the 1- or 2-form K_j.  The insertions are
    added one by one in order of j, the slot order of the Leibniz rule, so
    each entry rounds as the slot-by-slot sum does.  At k = 0, or where the
    degree would pass 7, the matrix is zero with the shape the degrees give."""
    K = np.asarray(K, dtype=float)
    p = DIMS.index(K.shape[1])  # 7 coefficients for 1-forms, 21 for 2-forms
    n = k + p - 1
    if k == 0 or n > DIM:
        return np.zeros((DIMS[n] if n <= DIM else 0, DIMS[k]))
    wedged = np.tensordot(K, wedge_table(p, k - 1), axes=(1, 0))  # [j, b, c]
    return np.einsum("jab,jbc->jca", CONTRACT[k], wedged).sum(axis=0)


def derivation_matrix(action, k):
    """Extend a linear action on 1-forms to k-forms as a derivation.

    ``action[i, j]`` is the coefficient of e^{i+1} in the image of e^{j+1}.
    Returns the matrix of sum_s  e^{j_1} ^ .. ^ action(e^{j_s}) ^ .. ^ e^{j_k}
    on the degree-k basis, which is the insertion of the images K = action^T.
    """
    return insertion_matrix(np.transpose(action), k)
