"""Geometric flow engine: right-hand sides, time integration, linearization.

Two flows are supported on left-invariant data:

* ``laplacian_flow``:    d phi / dt = Laplacian(phi),  flowing the 3-form;
* ``modified_coflow``:   d psi / dt = Laplacian(psi) + 2 d((A - trT) phi),
  flowing the dual 4-form, with real parameter A (A = 0 is the plain case).

The state of a flow is the closed form it flows: a start, a stage and a
record are coefficient vectors of that form, and everything that needs a
structure (the right-hand sides, the torsion, the DeTurck vector) takes the
G2Structure recovered from it (``_structure_alone``, stacked in
``_stacked_rhs``).  Both flows move a closed form inside its cohomology
class, where the Laplacian is d delta, so each right-hand side is the
differential of one form (see ``coflow_rhs`` and ``laplacian_flow_rhs``);
that equals the flow only on closed input, so ``integrate`` halts a start
that is not closed at t = 0.  For the coflow, each evaluation recovers phi
from psi in closed form, so every step revalidates positivity and checks
the recovery residual.  An optional DeTurck correction adds the Lie
derivative along V^i = c1 g^{pq} T^i_{pq} + c2 g^{ki} T^j_{jk}, where T is
the (lower-index symmetrized) difference between the Levi-Civita
connection and a reference connection.

Integrators: classic fixed-step rk4 (default dt 1e-3) and adaptive
Fehlberg rkf45 (default rel_tol 1e-8), which accepts a step when its error
estimate is below rel_tol * max(1, |y|) and sizes the next step from that
same scale.  Trajectories halt - never project - when closedness drifts,
positivity or recovery fails, a step of either method underflows
(1e-14 max(1, t)), or a state, a stage or a right-hand side (or its norm)
stops being finite; the termination record carries the cause, and a halt
between records still ends the trajectory on a record of the state at the
halt time.  An overflow halts its row (``nonfinite``) without a warning,
also where RuntimeWarnings are errors.

``integrate`` also takes a list of starts: an ensemble whose rows share
the config apart from A (one per row), under any flow, method and DeTurck
setting.  One start is an ensemble of one row: there is one time loop, in
which each row keeps its own t, step count and step size (rk4 rows stay
on one grid, rkf45 rows drift apart).  Every row of a stage, the starts
included, is evaluated on coefficient arrays by the one evaluation that
the experiments share (``_stacked_rhs``), and kept as (key, G2Structure,
rhs, trT, norm) with its DeTurck term.  Several rows are one stack; a
single row, and a row the stack marks, is evaluated alone by the kernels
of one form that the public functions wrap.  Every kernel rounds a row as
the public functions do on the form alone, d included on any structure
constants, so each row's trajectory is bit for bit the one its start gets
alone and the one the public functions give.  Rows are independent: a row
that halts freezes with the records it gets alone while the others step
on.

A Trajectory is a list of FlowState records and the termination record.
A stage builds no Form (but for DeTurck), and its metric is built trusted
by its kernel (see ``g2core``).  A record builds the Forms of its
FlowState and reads everything else off its row: the coflow's trT is the
one its right-hand side took, the Laplacian flow's is taken on the row's
arrays (0.0 where d phi is exactly zero).  A FlowState holds t, the
flowing form, psi (star phi for the Laplacian flow) and the diagnostics,
and no structure or metric.  The experiments write ``Trajectory.records()``
through their shared record writer.

``closed_directions(L, k)`` and ``exact_directions(L, k)`` are orthonormal
bases of the closed and the exact k-forms in any degree, each from one SVD
of d; they are the directions the experiments draw perturbations of either
flow from and that ``linearize`` probes.  ``linearize`` probes a static
point of the coflow with central finite differences along a direction basis
orthonormalized in the L2 inner product (pointwise metric inner product
times the constant volume), its 2m perturbed states evaluated as one stack
(``_stacked_rhs``), and reports the raw matrix, the eigenvalues of its
symmetrization, and the asymmetry norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .conventions import CODIFF_SIGN, NEWTON_MAX_ITER, NEWTON_TOL
from .errors import ConfigError, DegreeError, G2FlowError, PositivityError, RecoveryError
from .exterior import DIM, Form, _per_row
from .g2core import (
    G2Structure,
    _closed_form,
    _corrected,
    _d,
    _induced,
    _norms,
    _torsion_trace,
    full_torsion,
    stack_from_psi,
    torsion_trace,
)
from .liealg import Connection, _require_unimodular, lie_derivative

__all__ = [
    "FlowConfig",
    "DeTurckConfig",
    "IntegratorConfig",
    "MonitorConfig",
    "HaltConfig",
    "FlowState",
    "Trajectory",
    "SpectrumReport",
    "coflow_rhs",
    "laplacian_flow_rhs",
    "deturck_vector",
    "deturck_term",
    "integrate",
    "linearize",
    "closed_directions",
    "exact_directions",
    "volume_monotonicity_criterion",
]

FLOW_KINDS = ("modified_coflow", "laplacian_flow")
INTEGRATOR_METHODS = ("rk4", "rkf45")


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


# Range and choice rules.  A config field declares at most one, as its
# metadata: a (test, message) pair under "rule"; the message may name the
# offending value as {0!r}.  ``rule_violations`` checks them all.  A None
# value passes where the field's default is None ("when set").


def _is_positive(value):
    return math.isfinite(value) and value > 0


FINITE = {"rule": (math.isfinite, "must be finite")}
POSITIVE = {"rule": (_is_positive, "must be > 0")}
NON_NEGATIVE = {"rule": (lambda v: math.isfinite(v) and v >= 0, "must be >= 0")}
POSITIVE_WHEN_SET = {"rule": (_is_positive, "must be > 0 when set")}
POSITIVE_INT = {"rule": (lambda v: isinstance(v, int) and v >= 1, "must be an integer >= 1")}
# The reader already reports a value that is no integer as "must be an integer".
NON_NEGATIVE_INT = {"rule": (lambda v: isinstance(v, int) and v >= 0, "must be >= 0")}


def one_of(choices):
    """The rule that a value is one of ``choices``."""
    return {"rule": (choices.__contains__, f"must be one of {'|'.join(choices)}, got {{0!r}}")}


def rule_violations(config, path=""):
    """Every rule declared on the fields of the dataclass ``config`` and of
    its sections, in declaration order; each message starts with the field's
    dotted path below ``path`` (a field's JSON name is its metadata "key",
    else its attribute name).  A section whose metadata holds a "when"
    predicate is checked only where the predicate holds for ``config``."""
    out = []
    for f in fields(config):
        value = getattr(config, f.name)
        key = f.metadata.get("key", f.name)
        label = f"{path}.{key}" if path else key
        if is_dataclass(value):
            when = f.metadata.get("when")
            if when is None or when(config):
                out += rule_violations(value, label)
        elif "rule" in f.metadata and not (value is None and f.default is None):
            test, message = f.metadata["rule"]
            if not test(value):
                out.append(f"{label} {message.format(value)}")
    return out


@dataclass
class DeTurckConfig:
    """Gauge-fixing correction; disabled by default (invariant flows on
    unimodular algebras need no gauge fixing), constants are inputs."""

    enabled: bool = False
    c1: float = field(default=0.0, metadata=FINITE)
    c2: float = field(default=0.0, metadata=FINITE)


@dataclass
class IntegratorConfig:
    method: str = field(default="rk4", metadata=one_of(INTEGRATOR_METHODS))
    dt: float = field(default=1e-3, metadata=POSITIVE)
    t_end: float = field(default=1.0, metadata=POSITIVE)
    rel_tol: float = field(default=1e-8, metadata=POSITIVE)


@dataclass
class MonitorConfig:
    """Which diagnostics are evaluated at record times (disabled ones are
    emitted as null) and how many accepted steps separate records."""

    record_every: int = field(default=10, metadata=POSITIVE_INT)
    trT: bool = True
    volume: bool = True
    closedness: bool = True
    rhs_norm: bool = True
    dist_ref: bool = True


@dataclass
class HaltConfig:
    """Halt thresholds; closedness drift past the tolerance stops the run
    (projecting back would mask right-hand-side bugs)."""

    closedness_tol: float = field(default=1e-6, metadata=POSITIVE)
    max_rhs_norm: float | None = field(default=None, metadata=POSITIVE_WHEN_SET)


@dataclass
class FlowConfig:
    flow_kind: str = field(default="modified_coflow", metadata=one_of(FLOW_KINDS))
    A: float = field(default=0.0, metadata=FINITE)
    deturck: DeTurckConfig = field(default_factory=DeTurckConfig)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    monitors: MonitorConfig = field(default_factory=MonitorConfig)
    halt: HaltConfig = field(default_factory=HaltConfig)

    def violations(self):
        return rule_violations(self)

    def ensure_valid(self):
        violations = self.violations()
        if violations:
            raise ConfigError(violations)
        return self


# --------------------------------------------------------------------------
# Right-hand sides
# --------------------------------------------------------------------------


def coflow_rhs(L, s, A=0.0):
    """Modified coflow right-hand side d(delta psi + 2 (A - trT) phi) at s.

    On a closed psi this is Laplacian(psi) + 2 (A - trT) d(phi), and it is
    affine in A: the A-dependence is exactly 2 A d(phi).
    """
    return Form(4, _coflow_rhs(L, s.metric, s.phi_coeffs, A)[0])


def _coflow_rhs(L, metric, phi, A):
    """``coflow_rhs`` of coefficients, one structure or stacks in rows, with
    the torsion trace it takes on the way: (rhs, trT).

    On a closed psi = star phi, delta d psi = 0 and delta psi =
    CODIFF_SIGN[4] star d phi, so the right-hand side is d chi with
    chi = CODIFF_SIGN[4] star d phi + 2 (A - trT) phi: two stars (d phi and
    the torsion trace) in place of the four of the Hodge Laplacian.
    """
    _require_unimodular(L)
    dphi = _d(L, 3, phi)
    trace = _torsion_trace(metric, phi, dphi)
    chi = CODIFF_SIGN[4] * metric.star_coeffs(4, dphi) + _per_row(2.0 * (A - trace)) * phi
    return _d(L, 3, chi), trace


def laplacian_flow_rhs(L, s):
    """Laplacian flow right-hand side at s: on a closed phi its Hodge
    Laplacian d delta phi = CODIFF_SIGN[3] d star d psi, with psi = star phi
    the structure's cached dual 4-form (one star besides it)."""
    return Form(3, _laplacian_rhs(L, s.metric, s.psi_coeffs))


def _laplacian_rhs(L, metric, psi):
    """``laplacian_flow_rhs`` of the coefficients of psi = star phi and
    the metric of phi."""
    _require_unimodular(L)
    return CODIFF_SIGN[3] * _d(L, 2, metric.star_coeffs(5, _d(L, 4, psi)))


# The halt detail of a right-hand side, or of its norm, that is not finite.
NONFINITE_RHS = "the right-hand side left the finite range"


def _structure_rhs(L, flow_kind, s, A):
    """(rhs, trT, norm) under ``flow_kind`` at A of a structure, one or a
    stack in rows: trT is the torsion trace the coflow takes, else None, and
    norm the norm of each rhs row.  An overflow leaves a norm that is not
    finite, on which the callers halt (``NONFINITE_RHS``), so it is quiet."""
    with np.errstate(over="ignore", invalid="ignore"):
        if flow_kind == "modified_coflow":
            rhs, trT = _coflow_rhs(L, s.metric, s.phi_coeffs, A)
        else:
            rhs, trT = _laplacian_rhs(L, s.metric, s.psi_coeffs), None
        return rhs, trT, _norms(rhs)


def _structure_alone(degree, x):
    """The structure of one flowing form's coefficients by the kernels of
    one form: a 4-form's as ``phi_of_psi`` recovers it (its closed form,
    Newton-corrected where it fails the residual gate, or its error); a
    3-form's induced one."""
    if degree == 3:
        return G2Structure(x, *_induced(x))
    if degree == 4:
        return _corrected(G2Structure(*_closed_form(x)), x, NEWTON_TOL, NEWTON_MAX_ITER)[0]
    raise DegreeError(f"expected a 3-form or a 4-form, got degree {degree}")


def _stacked_rhs(L, flow_kind, degree, A, x):
    """The structures and right-hand sides of the n >= 1 rows of ``x``,
    (n, 35) coefficients of 4-forms (recovered) or of 3-forms (with their
    induced metrics), under ``flow_kind`` at ``A`` (a number, or a list of
    one per row).  Two or more rows are one stack, whose checks mark the
    rows that fail one; one row, and each marked row, is evaluated alone
    by the kernels of one form (``_structure_alone``: half the cost of a
    stack of one).  Returns (stack, rhs, trT, norms, alone): ``stack`` is
    None for one row and holds zeros in marked rows, so that their
    right-hand sides cannot overflow; trT holds None for the Laplacian flow;
    norms is not finite where a row left the finite range; ``alone`` maps
    each row evaluated alone to its structure, or to the PositivityError or
    RecoveryError it raised (its rhs row and norm are then zero).  Every row
    rounds as it does alone, and a structure shares the rows of x."""
    alone = {}
    if len(x) == 1:
        stack, rhs, trT, norms, todo = None, np.zeros(x.shape), [None], np.zeros(1), (0,)
    else:
        # The stack marks every row that leaves the finite range.
        with np.errstate(over="ignore", invalid="ignore"):
            if degree == 4:
                stack, bad = stack_from_psi(x)
            else:
                bad = np.zeros(len(x), dtype=bool)
                stack = G2Structure(x, *_induced(x, bad))
        if bad.any():
            stack.phi_coeffs = np.where(bad[:, None], 0.0, stack.phi_coeffs)
            stack.psi_coeffs = np.where(bad[:, None], 0.0, stack.psi_coeffs)
        rhs, trT, norms = _structure_rhs(L, flow_kind, stack, A)
        trT = [None] * len(x) if trT is None else trT
        todo = np.flatnonzero(bad).tolist()
    for r in todo:
        try:
            s = alone[r] = _structure_alone(degree, x[r])
        except (PositivityError, RecoveryError) as exc:
            alone[r] = exc
            continue
        a = A[r] if isinstance(A, list) else A
        rhs[r], trT[r], norms[r] = _structure_rhs(L, flow_kind, s, a)
    return stack, rhs, trT, norms, alone


def _raise_row_error(alone, norms):
    """Raise the first failure among the rows of ``_stacked_rhs``, in row
    order: the error of a row evaluated alone, or a right-hand side whose
    norm is not finite."""
    for r, norm in enumerate(norms.tolist()):
        if isinstance(alone.get(r), G2FlowError):
            raise alone[r]
        if not math.isfinite(norm):
            raise G2FlowError(NONFINITE_RHS)


def deturck_vector(L, s, nabla0, c1, c2):
    """Gauge vector V^i = c1 g^{pq} T^i_{pq} + c2 g^{ki} T^j_{jk} at s.

    T is the difference between the structure's Levi-Civita connection and
    the reference ``nabla0``, symmetrized in its lower index pair (the
    frame-flat reference carries torsion on a nonabelian algebra).
    """
    from .liealg import levi_civita

    diff = levi_civita(L, s.metric).gamma - nabla0.gamma
    tsym = 0.5 * (diff + diff.transpose(1, 0, 2))  # tsym[p, q, i] = T^i_{pq}
    ginv = s.metric.inv
    v = c1 * np.einsum("pq,pqi->i", ginv, tsym)
    v += c2 * ginv @ np.einsum("jkj->k", tsym)
    return v


def deturck_term(L, form, nabla0, c1, c2):
    """Lie derivative of the flowing form (a 4-form psi or a 3-form phi)
    along the gauge vector of its structure."""
    v = deturck_vector(L, _structure_alone(form.degree, form.coeffs), nabla0, c1, c2)
    return lie_derivative(L, v, form)


def volume_monotonicity_criterion(L, s, A=0.0):
    """Sign criterion |T|^2 + trT (4A - 3 trT) at s for volume growth under
    the modified coflow; positive iff the volume is instantaneously
    increasing."""
    trT = torsion_trace(L, s)
    normsq = full_torsion(L, s).norm_squared(s.metric)
    return normsq + trT * (4.0 * A - 3.0 * trT)


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------

RECORD_FIELDS = ("t", "psi", "trT", "volume", "closedness", "rhs_norm", "dist_ref")


@dataclass(eq=False)
class FlowState:
    """Snapshot along a flow: time, flowing form, its dual 4-form, diagnostics.

    ``psi`` is the flowing form itself for the coflow and star(phi) for the
    Laplacian flow, taken while the step's metric was live; a snapshot keeps
    no structure or metric.  ``diagnostics`` holds the monitor values (None
    when a monitor is off): trT, volume, closedness, rhs_norm, dist_ref.
    """

    t: float
    form: Form
    psi: Form
    diagnostics: dict

    def record(self):
        """Record dict in the trajectory output schema."""
        rec = {"t": self.t, "psi": [float(c) for c in self.psi.coeffs]}
        for key in RECORD_FIELDS[2:]:
            rec[key] = self.diagnostics.get(key)
        return rec


@dataclass(eq=False)
class Trajectory:
    """Monitor-time snapshots plus a termination record.

    ``termination`` = {status: completed|halted, reason, t, steps, detail}.
    """

    flow_kind: str
    states: list
    termination: dict

    @property
    def final(self):
        return self.states[-1]

    def records(self):
        return [s.record() for s in self.states]


class _Evaluator:
    """Shared right-hand-side evaluator of the rows of an ensemble.

    The state of a row is a pure function of its flowing coefficients, so
    ``rows[i]`` keeps row i's last evaluation, a start's included, as (key,
    structure, rhs, trT, norm): the bytes of the coefficients it was
    evaluated at, their G2Structure, the right-hand side, the torsion trace
    (None for the Laplacian flow, whose right-hand side takes none) and the
    right-hand side's norm.  A record time and the next step's first stage
    share one evaluation; a retried rkf45 attempt evaluates its first stage
    again, since the row keeps only its last stage.

    The rows a call evaluates, however many, go through ``_stacked_rhs``
    (so a row gets the bits, Newton corrections and errors of its public-API
    evaluation), and a DeTurck row adds its Lie derivative; no Form is built
    but for DeTurck.  A row whose evaluation fails is entered in ``failed``
    as (halt reason, error); calls skip it, with zero entries, until the
    caller takes it out.  A right-hand side whose norm is not finite fails
    its row (``nonfinite``) with the row's evaluation kept, for its record.
    """

    def __init__(self, L, config, A):
        self.L = L
        self.config = config
        self.A = A
        self.kind = config.flow_kind
        self.nabla0 = Connection(np.zeros((DIM, DIM, DIM)))
        self.degree = 4 if self.kind == "modified_coflow" else 3
        self.dmat = L.differential_matrix(self.degree)
        self.rows = [None] * len(A)
        self.failed = {}

    def f(self, rows, y):
        """Right-hand sides of the ``rows`` at ``y`` (one row of y each)."""
        out = np.zeros(y.shape)
        todo = []
        for j, i in enumerate(rows):
            if i in self.failed:
                continue
            kept = self.rows[i]
            if kept is not None and y[j].tobytes() == kept[0]:
                out[j] = kept[2]
            elif np.isfinite(y[j]).all():
                todo.append(j)
            else:
                error = G2FlowError("a stage of the step left the finite range")
                self.failed[i] = ("nonfinite", error)
        if todo:
            A = [self.A[rows[j]] for j in todo]
            x = y.take(todo, axis=0)  # a copy, which the structures may share
            stack, rhs, trT, norms, alone = _stacked_rhs(self.L, self.kind, self.degree, A, x)
            for r, j in enumerate(todo):
                s = alone.get(r) or stack.row(r)
                if isinstance(s, G2FlowError):
                    reason = "positivity" if isinstance(s, PositivityError) else "newton"
                    self.failed[rows[j]] = (reason, s)
                else:
                    out[j] = self._keep(rows[j], y[j], s, rhs[r], trT[r], norms[r])
        return out

    def _keep(self, i, y, s, rhs, trT, norm):
        """Keep row i's evaluation at y: its structure s, rhs plus the DeTurck
        term when enabled, trT and the norm.  Returns the right-hand side, or
        0.0 where its norm is not finite and the row fails."""
        gauge = self.config.deturck
        if gauge.enabled:
            v = deturck_vector(self.L, s, self.nabla0, gauge.c1, gauge.c2)
            form = Form(4, y) if self.degree == 4 else s.phi
            with np.errstate(over="ignore", invalid="ignore"):
                rhs = rhs + lie_derivative(self.L, v, form).coeffs
                norm = _norms(rhs)
        self.rows[i] = (y.tobytes(), s, rhs, trT, norm)
        if math.isfinite(norm):
            return rhs
        self.failed[i] = ("nonfinite", G2FlowError(NONFINITE_RHS))
        return 0.0

    def closedness(self, y):
        return float(np.linalg.norm(self.dmat @ y))


def _quietly(fn):
    """fn(), the arithmetic of a stage or a step (y + h k).  Where
    RuntimeWarnings are errors an overflow there raises; fn is then run
    again under np.errstate, since the evaluator and the step check halt on
    a non-finite stage or step (``nonfinite``).  Otherwise no errstate is
    entered: each costs about a microsecond."""
    try:
        return fn()
    except RuntimeWarning:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn()


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(_quietly(lambda: y + (0.5 * h) * k1))
    k3 = f(_quietly(lambda: y + (0.5 * h) * k2))
    k4 = f(_quietly(lambda: y + h * k3))
    return _quietly(lambda: y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


# Fehlberg 4(5) tableau; propagation uses the fifth-order weights.
_RKF_C = (0.0, 0.25, 0.375, 12.0 / 13.0, 1.0, 0.5)
_RKF_A = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)
_RKF_ERR = tuple(b5 - b4 for b5, b4 in zip(_RKF_B5, _RKF_B4))


def _rkf45_attempt(f, y, h):
    """One Fehlberg attempt from the rows of y with step h (a number or a
    column): the fifth-order rows and each row's error estimate norm."""

    def combine(start, weights):
        for w, k in zip(weights, ks):
            start = start + (h * w) * k
        return start

    ks = []
    for row in _RKF_A:
        ks.append(f(_quietly(lambda: combine(y.copy(), row))))
    err = _quietly(lambda: _norms(combine(np.zeros_like(y), _RKF_ERR)))
    return _quietly(lambda: combine(y.copy(), _RKF_B5)), err


def integrate(L, config, start, reference=None, A=None):
    """Integrate the configured flow from the flowing form ``start``.

    ``start`` is a 4-form psi for the coflow and a 3-form phi for the
    Laplacian flow (another degree raises DegreeError).  Its structure is
    recovered as every later state's is, so a start that is not positive
    raises the PositivityError or RecoveryError of its recovery before any
    step.  ``reference`` (a form, defaults to the start) anchors the
    dist_ref diagnostic.  Returns a Trajectory whose termination record
    distinguishes a completed run from halts caused by closedness drift,
    positivity loss, recovery failure, step underflow, or non-finite values.

    A list ``start`` is an ensemble of rows, under any config, whose
    stages are evaluated as one stack.  ``reference`` and ``A`` are then
    lists with one entry per row (``A`` defaults to ``config.A`` for every
    row; a single start reads ``config.A`` only), and a list of
    Trajectories comes back.  Each row's trajectory is the one ``integrate``
    gives its start alone, bit for bit: rk4 rows share one time grid,
    rkf45 rows size their own steps and drift apart in t, and a row that
    halts freezes while the others step on unchanged.
    """
    if not isinstance(start, list):
        if A is not None:
            raise G2FlowError("A= takes one value per row of a list of starts")
        return _integrate_rows(L, config, [start], [reference], [config.A])[0]
    n = len(start)
    A = [config.A] * n if A is None else A
    return _integrate_rows(L, config, start, reference or [None] * n, A)


def _integrate_rows(L, config, starts, references, A):
    """The time loop of ``integrate`` over the rows of an ensemble: each
    pass makes one step attempt for every active row, and an rkf45 row
    whose attempt is rejected stays at its t with a smaller step."""
    config.ensure_valid()
    n = len(starts)
    cfg_int = config.integrator
    rkf45 = cfg_int.method == "rkf45"
    evaluator = _Evaluator(L, config, [float(a) for a in A])
    coflow = evaluator.degree == 4
    for start in starts:
        if start.degree != evaluator.degree:
            kind, degree = config.flow_kind, evaluator.degree
            raise DegreeError(f"{kind} flows a {degree}-form; a start has degree {start.degree}")
    y = np.array([start.coeffs for start in starts])
    ref = np.array([y[i] if r is None else r.coeffs for i, r in enumerate(references)])

    t_end = cfg_int.t_end
    t_stop = t_end - 1e-12 * max(1.0, t_end)  # end of the horizon up to rounding
    t = [0.0] * n
    steps = [0] * n
    dt = [cfg_int.dt] * n
    states = [[] for _ in range(n)]
    ends = [None] * n
    mon = config.monitors
    tol = config.halt.closedness_tol
    max_rhs = config.halt.max_rhs_norm

    def snapshot(i, rhs_norm=True):
        """Record row i at its t with the monitor values; ``rhs_norm``
        False leaves its right-hand side unread (and the value null).  The
        torsion trace is the one the coflow right-hand side took, else it is
        taken here on the row's arrays: (1/4) star(d phi ^ phi), which is
        0.0 where d phi is exactly zero."""
        _, s, _, trT, norm = evaluator.rows[i]
        if mon.trT and trT is None:
            dphi = _d(L, 3, s.phi_coeffs)
            trT = _torsion_trace(s.metric, s.phi_coeffs, dphi) if dphi.any() else 0.0
        diag = {
            "trT": float(trT) if mon.trT else None,
            "volume": s.volume if mon.volume else None,
            "closedness": closed[i] if mon.closedness else None,
            "rhs_norm": float(norm) if mon.rhs_norm and rhs_norm else None,
            "dist_ref": float(np.linalg.norm(y[i] - ref[i])) if mon.dist_ref else None,
        }
        psi = Form(4, y[i]) if coflow else s.psi
        states[i].append(FlowState(t[i], psi if coflow else s.phi, psi, diag))

    def end(i, reason, detail="", status="halted"):
        """End row i; ``detail`` is a message, or the error that gives it."""
        ends[i] = dict(status=status, reason=reason, t=t[i], steps=steps[i], detail=str(detail))

    def record(rows):
        """Snapshot the rows at their t; a row whose evaluation fails halts."""
        evaluator.f(rows, y if len(rows) == n else y[rows])
        for i in rows:
            if i in evaluator.failed:
                end(i, *evaluator.failed.pop(i))
            else:
                snapshot(i)

    # closed[i] is the closedness residual of y[i], kept as y[i] moves.
    # Every start is evaluated, and one that is not positive raises.  The
    # right-hand sides are exact forms that equal the flows only on closed
    # input, so a start that is not closed halts, whatever the closedness
    # monitor says, on a record that leaves its right-hand side unread; so
    # does a start whose right-hand side left the finite range.
    closed = [evaluator.closedness(row) for row in y]
    evaluator.f(range(n), y)
    for i in range(n):
        halt = evaluator.failed.pop(i, None)
        if halt and halt[0] != "nonfinite":
            raise halt[1]
        if closed[i] > tol:
            halt = ("closedness", "initial state violates the closedness tolerance")
        snapshot(i, rhs_norm=not halt)
        if halt:
            end(i, *halt)

    while True:
        for i in range(n):
            if ends[i] is None and t[i] >= t_stop:
                end(i, "t_end", status="completed")
        active = [i for i in range(n) if ends[i] is None]
        if not active:
            break
        h = [min(dt[i], t_end - t[i]) for i in active]
        # A column of step sizes, or one number where the rows share it (as
        # rk4 rows always do): the same arithmetic, with less overhead.
        step = h[0] if len(set(h)) == 1 else np.array(h)[:, None]
        f = functools.partial(evaluator.f, active)
        y0 = y if len(active) == n else y[active]
        if rkf45:
            y_new, err = _rkf45_attempt(f, y0, step)
            err = err.tolist()
            scale = (cfg_int.rel_tol * np.maximum(1.0, _norms(y0))).tolist()
        else:
            y_new = _rk4_step(f, y0, step)
        due = []
        for r, i in enumerate(active):
            if i in evaluator.failed:
                end(i, *evaluator.failed.pop(i))
                continue
            # Step control after Hairer, Norsett and Wanner, Solving ODEs I,
            # II.4, on Python floats.  An attempt whose error estimate is not
            # finite is neither retried nor resized.
            retry = rkf45 and err[r] > scale[r] and math.isfinite(err[r])
            if retry:
                h[r] *= max(0.2, 0.9 * (scale[r] / err[r]) ** 0.2)
            if h[r] < 1e-14 * max(1.0, t[i]):
                end(i, "step_underflow", f"step size fell to {h[r]:.3e}")
            elif retry:
                dt[i] = h[r]
            elif not np.isfinite(y_new[r]).all():
                end(i, "nonfinite", "state left the finite range")
            else:
                if rkf45 and err[r] <= scale[r]:
                    factor = 0.9 * (scale[r] / max(err[r], 1e-300)) ** 0.2
                    dt[i] = h[r] * min(5.0, max(0.2, factor))
                t[i] += h[r]
                steps[i] += 1
                y[i] = y_new[r]
                closed[i] = evaluator.closedness(y[i])
                if closed[i] > tol:
                    end(i, "closedness", f"closedness residual {closed[i]:.3e} exceeded tolerance")
                elif steps[i] % mon.record_every == 0 or t[i] >= t_stop:
                    due.append(i)
        if due:
            record(due)
        for i in due:
            norm = states[i][-1].diagnostics["rhs_norm"]
            if ends[i] is None and max_rhs is not None and norm is not None and norm > max_rhs:
                end(i, "rhs_blowup", f"rhs_norm {norm:.3e}")
    # A halt between records ends on a record of the state at the halt time
    # (the last accepted step), unless its own evaluation failed.
    last = [i for i in range(n) if states[i][-1].t != ends[i]["t"]]
    evaluator.f(last, y[last])
    for i in last:
        if evaluator.failed.pop(i, None) is None:
            snapshot(i)
    return [
        Trajectory(flow_kind=config.flow_kind, states=states[i], termination=ends[i])
        for i in range(n)
    ]


# --------------------------------------------------------------------------
# Direction bases and linearization
# --------------------------------------------------------------------------


def _svd_split(m):
    """(u, rank, vt) of the full SVD of m and its numerical rank: the first
    rank columns of u span the image of m, the rows of vt from rank on its
    kernel."""
    u, s, vt = np.linalg.svd(m)
    return u, int(np.sum(s > max(m.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0))), vt


def closed_directions(L, k):
    """Orthonormal basis (coefficient Euclidean) of the closed k-forms, the
    kernel of d on k-forms."""
    _, rank, vt = _svd_split(L.differential_matrix(k))
    return [Form(k, row) for row in vt[rank:]]


def exact_directions(L, k):
    """Orthonormal basis (coefficient Euclidean) of the exact k-forms, d of
    the (k-1)-forms (none for k = 0)."""
    if k == 0:
        return []
    u, rank, _ = _svd_split(L.differential_matrix(k - 1))
    return [Form(k, col) for col in u.T[:rank]]


@dataclass(eq=False)
class SpectrumReport:
    """Finite-difference linearization at a static point.

    ``matrix`` is the raw finite-difference matrix in the orthonormalized
    direction basis; ``eigenvalues`` belong to its symmetrization
    (1/2)(M + M^T); ``asymmetry_norm`` = Frobenius norm of M - M^T is always
    reported rather than averaged away.
    """

    directions: list
    matrix: np.ndarray
    eigenvalues: np.ndarray
    asymmetry_norm: float
    eps: float


def linearize(L, base, directions, A=0.0, eps=1e-5, static_tol=1e-8):
    """Central finite-difference linearization of the modified coflow at
    parameter ``A`` at a static 4-form ``base`` (another degree raises
    DegreeError), whose structure is recovered once.

    ``directions`` are 4-forms spanning the probed subspace.  They are
    orthonormalized in the L2 inner product (pointwise metric inner product
    times the constant volume); a rank-deficient set raises, as does a base
    point that is not static to ``static_tol`` or whose right-hand side
    leaves the finite range.  The 2m perturbed states are recovered and evaluated as
    one stack (``_stacked_rhs``, which evaluates a state the stack marks
    alone); the first state that raises there, or whose right-hand side
    leaves the finite range, raises here.
    """
    if base.degree != 4:
        raise DegreeError(f"linearize expects a 4-form base point, got degree {base.degree}")
    structure = _structure_alone(4, base.coeffs)
    base_norm = float(_structure_rhs(L, "modified_coflow", structure, A)[2])
    if not math.isfinite(base_norm):
        raise G2FlowError(NONFINITE_RHS)
    if base_norm > static_tol:
        raise G2FlowError(
            f"base point is not static: rhs norm {base_norm:.3e} exceeds {static_tol:.1e}"
        )
    if not directions:
        raise G2FlowError("directions must be a non-empty list of 4-forms")
    gram = structure.metric.gram(4) * structure.volume
    dmat = np.column_stack([d.coeffs for d in directions])
    overlap = dmat.T @ gram @ dmat
    try:
        chol = np.linalg.cholesky(overlap)
    except np.linalg.LinAlgError:
        raise G2FlowError("degenerate direction set (L2 Gram matrix is singular)") from None
    basis = dmat @ np.linalg.inv(chol).T  # columns are L2-orthonormal
    m = basis.shape[1]
    # Rows psi + eps b_j and psi - eps b_j, in turn for each direction b_j.
    psi = base.coeffs
    probes = np.stack([psi + eps * basis.T, psi - eps * basis.T], axis=1).reshape(2 * m, -1)
    _, rhs, _, norms, alone = _stacked_rhs(L, "modified_coflow", 4, A, probes)
    _raise_row_error(alone, norms)
    project = basis.T @ gram
    matrix = np.empty((m, m))
    for j in range(m):
        matrix[:, j] = project @ ((rhs[2 * j] - rhs[2 * j + 1]) / (2.0 * eps))
    sym = 0.5 * (matrix + matrix.T)
    return SpectrumReport(
        directions=[Form(4, basis[:, j]) for j in range(m)],
        matrix=matrix,
        eigenvalues=np.linalg.eigvalsh(sym),
        asymmetry_norm=float(np.linalg.norm(matrix - matrix.T)),
        eps=eps,
    )
