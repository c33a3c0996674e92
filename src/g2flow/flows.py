"""Geometric flow engine: right-hand sides, time integration, linearization.

Two flows are supported on left-invariant data:

* ``laplacian_flow``:    d phi / dt = Laplacian(phi),  flowing the 3-form;
* ``modified_coflow``:   d psi / dt = Laplacian(psi) + 2 d((A - trT) phi),
  flowing the dual 4-form, with real parameter A (A = 0 is the plain case).

Both flows move a closed form inside its cohomology class, where the
Laplacian is d delta, so each right-hand side is evaluated as the
differential of one form (see ``coflow_rhs`` and ``laplacian_flow_rhs``);
that equals the flow only on closed input, and ``integrate`` halts a start
that is not closed before evaluating any.  The flow variable is the
coefficient vector of the flowing form.  For the coflow, each
right-hand-side evaluation recovers phi from psi in closed form, so every
step revalidates positivity and checks the recovery residual.  An optional
DeTurck correction adds the Lie derivative along V^i = c1 g^{pq} T^i_{pq}
+ c2 g^{ki} T^j_{jk}, where T is the (lower-index symmetrized) difference
between the Levi-Civita connection and a reference connection.

Integrators: classic fixed-step rk4 (default dt 1e-3) and adaptive
Fehlberg rkf45 (default rel_tol 1e-8), which accepts a step when its error
estimate is below rel_tol * max(1, |y|) and sizes the next step from that
same scale.  Trajectories halt - never project - when closedness drifts,
positivity or recovery fails, a step underflows, or values stop being
finite; the termination record carries the cause, and a halt between
records still ends the trajectory on a record of the state at the halt
time.

``integrate`` also takes a list of starts: an ensemble whose rows share
the config apart from A (one per row) and step in lockstep on one time
grid.  Several rows need an rk4 coflow config without DeTurck
(``steps_in_lockstep``, the one rule the sweep groups cells by).  One start
is an ensemble of one row: there is one time loop.

Every row of a stage is evaluated on coefficient arrays: the evaluator
keeps one kind of entry per row, its 3-form phi and checked metric (psi =
star phi where known) and its right-hand side.  Several rows are recovered
and evaluated as one stack (``g2core.stack_from_psi`` and
``coflow_rhs_stack``); a single row goes through the kernels of one form
(the closed form and residual gate of ``phi_of_psi`` for the coflow, the
induced metric for the Laplacian flow, then the right-hand-side kernels
that ``coflow_rhs`` and ``laplacian_flow_rhs`` wrap).  A coflow row that
misses the gate, and a row the stack marks, is redone by
``CoclosedState.from_psi``, with its Newton corrections and errors.  Every
kernel rounds a row as the public functions do on the form alone, d
included on any structure constants, so each row's trajectory is bit for
bit the one its start gets alone and the one the public functions give.
Rows are independent: a row that halts freezes with the records it gets
alone while the others step on.

A Trajectory is a list of FlowState records and the termination record.
Form and G2Structure objects are built only at record time (and for
DeTurck); a stage's metric is built trusted by its kernel (see
``g2core``).  Each snapshot takes what the output needs while the step's
metric is live: t, the flowing form, psi (star phi for the Laplacian
flow) and the diagnostics.  It keeps no structure or metric, so only the
current step's operators are alive at any time.  The experiments write
``Trajectory.records()`` through their shared record writer.

``linearize`` probes a static point with central finite differences along a
direction basis orthonormalized in the L2 inner product (pointwise metric
inner product times the constant volume), reports the raw matrix, the
eigenvalues of its symmetrization, and the asymmetry norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .conventions import CODIFF_SIGN, NEWTON_TOL
from .errors import ConfigError, G2FlowError, PositivityError, RecoveryError
from .exterior import DIM, Form, _per_row
from .g2core import (
    CoclosedState,
    G2Structure,
    _closed_form,
    _d,
    _induced,
    _structure_of,
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
    "coflow_rhs_stack",
    "laplacian_flow_rhs",
    "deturck_vector",
    "deturck_term",
    "integrate",
    "steps_in_lockstep",
    "linearize",
    "exact_directions",
    "coclosed_directions",
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


def coflow_rhs(L, state, A=0.0):
    """Modified coflow right-hand side d(delta psi + 2 (A - trT) phi).

    On a closed psi this is Laplacian(psi) + 2 (A - trT) d(phi), and it is
    affine in A: the A-dependence is exactly 2 A d(phi).
    """
    s = _structure_of(state)
    return Form(4, _coflow_rhs(L, s.metric, s.phi.coeffs, A))


def coflow_rhs_stack(L, stack, A=0.0):
    """``coflow_rhs`` of every row of a ``g2core.StructureStack`` in one
    pass: the (n, 35) array of right-hand-side coefficients.  Raises the
    ValueError of ``coflow_rhs`` when a row is not finite."""
    return _finite_coeffs(_coflow_rhs(L, stack.metric, stack.phi, A))


def _finite_coeffs(x):
    """x, after the finiteness check that building a Form of each of its
    rows makes (raising the same ValueError)."""
    if not np.isfinite(x).all():
        raise ValueError("coefficients must be finite")
    return x


def _coflow_rhs(L, metric, phi, A):
    """``coflow_rhs`` of coefficients: one structure, or stacks in rows.

    On a closed psi = star phi, delta d psi = 0 and delta psi =
    CODIFF_SIGN[4] star d phi, so the right-hand side is d chi with
    chi = CODIFF_SIGN[4] star d phi + 2 (A - trT) phi: two stars (d phi and
    the torsion trace) in place of the four of the Hodge Laplacian.
    """
    _require_unimodular(L)
    dphi = _d(L, 3, phi)
    trace = _torsion_trace(metric, phi, dphi)
    chi = CODIFF_SIGN[4] * metric.star_coeffs(4, dphi) + _per_row(2.0 * (A - trace)) * phi
    return _d(L, 3, chi)


def laplacian_flow_rhs(L, state):
    """Laplacian flow right-hand side: on a closed phi its Hodge Laplacian
    d delta phi = CODIFF_SIGN[3] d star d psi, with psi = star phi the
    structure's cached dual 4-form (one star besides it)."""
    s = _structure_of(state)
    return Form(3, _laplacian_rhs(L, s.metric, s.psi.coeffs))


def _laplacian_rhs(L, metric, psi):
    """``laplacian_flow_rhs`` of the coefficients of psi = star phi and
    the metric of phi."""
    _require_unimodular(L)
    return CODIFF_SIGN[3] * _d(L, 2, metric.star_coeffs(5, _d(L, 4, psi)))


def deturck_vector(L, state, nabla0, c1, c2):
    """Gauge vector V^i = c1 g^{pq} T^i_{pq} + c2 g^{ki} T^j_{jk}.

    T is the difference between the structure's Levi-Civita connection and
    the reference ``nabla0``, symmetrized in its lower index pair (the
    frame-flat reference carries torsion on a nonabelian algebra).
    """
    from .liealg import levi_civita

    s = _structure_of(state)
    diff = levi_civita(L, s.metric).gamma - nabla0.gamma
    tsym = 0.5 * (diff + diff.transpose(1, 0, 2))  # tsym[p, q, i] = T^i_{pq}
    ginv = s.metric.inv
    v = c1 * np.einsum("pq,pqi->i", ginv, tsym)
    v += c2 * ginv @ np.einsum("jkj->k", tsym)
    return v


def deturck_term(L, state, nabla0, c1, c2):
    """Lie derivative of the flowing form along the gauge vector."""
    v = deturck_vector(L, state, nabla0, c1, c2)
    form = state.psi if isinstance(state, CoclosedState) else _structure_of(state).phi
    return lie_derivative(L, v, form)


def volume_monotonicity_criterion(L, state, A=0.0):
    """Sign criterion |T|^2 + trT (4A - 3 trT) for volume growth under the
    modified coflow; positive iff the volume is instantaneously increasing."""
    s = _structure_of(state)
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


class _Row:
    """What the evaluator keeps of one row at the flowing coefficients it
    was last evaluated at (``key``, their bytes): the 3-form ``phi`` and
    its checked ``metric``, ``psi`` = star phi where it is known, the
    right-hand side ``rhs`` once evaluated, and the G2Structure once a
    record or DeTurck asks for it."""

    __slots__ = ("key", "phi", "metric", "psi", "rhs", "_structure")

    def __init__(self, key, phi, metric, psi=None, rhs=None, structure=None):
        self.key = key
        self.phi = phi
        self.metric = metric
        self.psi = psi
        self.rhs = rhs
        self._structure = structure

    def structure(self):
        """The G2Structure of the row, built on first use."""
        if self._structure is None:
            self._structure = G2Structure(phi=Form(3, self.phi), metric=self.metric)
            if self.psi is not None:
                self._structure.psi = Form(4, self.psi)
        return self._structure


class _Evaluator:
    """Shared right-hand-side evaluator of the rows of an ensemble.

    The state of a row is a pure function of its flowing coefficients, so
    each row keeps a ``_Row`` of its last evaluation: a record time, the
    next step's first stage and every retried rkf45 attempt share one
    recovery and one right-hand side.  Row i starts out holding the
    structure of ``states[i]`` at ``y[i]``.

    Every row is evaluated on coefficient arrays and trusted metrics; a
    Form or G2Structure is built only when a record or DeTurck asks for the
    row's structure.  An ensemble of two or more rows (see
    ``steps_in_lockstep``) recovers and evaluates the rows of a call as
    one stack (``stack_from_psi`` and ``coflow_rhs_stack``).  A single row
    goes through the kernels of one form: the coflow through the closed
    form and the residual gate of ``phi_of_psi``, then ``_coflow_rhs``; the
    Laplacian flow through ``_induced`` (its metric and psi = star phi) and
    ``_laplacian_rhs``.  A coflow row that misses the gate or fails the closed form, and every
    row the stack marks, falls back to ``CoclosedState.from_psi``, so a
    row gets the bits, Newton corrections and errors of its public-API
    evaluation.  A row whose evaluation fails is entered in ``failed`` with
    its halt reason and detail; calls skip it, with zero entries, until the
    caller takes it out.
    """

    def __init__(self, L, config, A, y, states):
        self.L = L
        self.config = config
        self.A = A
        self.coflow = config.flow_kind == "modified_coflow"
        self.stacked = len(states) > 1
        self.nabla0 = Connection(np.zeros((DIM, DIM, DIM)))
        self.dmat = L.differential_matrix(4 if self.coflow else 3)
        self._rows = []
        for row, state in zip(y, states):
            s = _structure_of(state)
            self._rows.append(_Row(row.tobytes(), s.phi.coeffs, s.metric, structure=s))
        self.failed = {}

    def f(self, rows, y):
        """Right-hand sides of the ``rows`` at ``y`` (one row of y each)."""
        out = np.zeros(y.shape)
        todo = []
        for j, i in enumerate(rows):
            if i in self.failed:
                continue
            entry = self._rows[i]
            if y[j].tobytes() == entry.key:
                out[j] = self._rhs(i, y[j]) if entry.rhs is None else entry.rhs
            elif np.isfinite(y[j]).all():
                todo.append(j)
            else:
                self.failed[i] = ("nonfinite", "a stage of the step left the finite range")
        if self.stacked and len(todo) > 1:
            stack, bad = stack_from_psi(y[todo])
            rhs = coflow_rhs_stack(self.L, stack, np.array([self.A[rows[j]] for j in todo]))
            for r, j in enumerate(todo):
                if bad[r]:
                    self._one(rows[j], y[j], out[j])
                else:
                    metric = stack.metric._row(r)
                    self._rows[rows[j]] = _Row(y[j].tobytes(), stack.phi[r], metric, rhs=rhs[r])
                    out[j] = rhs[r]
        else:
            for j in todo:
                self._one(rows[j], y[j], out[j])
        return out

    def _one(self, i, y, out):
        """Evaluate row i at y by the kernels of one form into ``out``."""
        try:
            self._rows[i] = self._recover(y) if self.coflow else self._induce(y)
        except (PositivityError, RecoveryError) as exc:
            reason = "positivity" if isinstance(exc, PositivityError) else "newton"
            self.failed[i] = (reason, str(exc))
            return
        out[:] = self._rhs(i, y)

    @staticmethod
    def _recover(psi):
        """The row of a 4-form: the closed form when it passes the residual
        gate of ``phi_of_psi``, else ``CoclosedState.from_psi`` (its Newton
        corrections, or its error)."""
        try:
            phi, metric, back = _closed_form(psi)
        except RecoveryError:
            pass
        else:
            if float(np.linalg.norm(back - psi)) <= NEWTON_TOL:
                return _Row(psi.tobytes(), phi, metric, back)
        s = CoclosedState.from_psi(Form(4, psi)).recovered
        return _Row(psi.tobytes(), s.phi.coeffs, s.metric, structure=s)

    @staticmethod
    def _induce(phi):
        """The row of a 3-form, with its induced metric and psi = star phi."""
        phi = phi.copy()  # y is a stage array the integrator writes to
        metric, psi = _induced(phi)
        return _Row(phi.tobytes(), phi, metric, psi)

    def _rhs(self, i, y):
        """The right-hand side of row i at its coefficients y, kept for reuse."""
        entry = self._rows[i]
        cfg = self.config
        if self.coflow:
            rhs = _coflow_rhs(self.L, entry.metric, entry.phi, self.A[i])
        else:
            # A start's psi is read off its structure when first needed.
            psi = entry.structure().psi.coeffs if entry.psi is None else entry.psi
            rhs = _laplacian_rhs(self.L, entry.metric, psi)
        rhs = _finite_coeffs(rhs)
        if cfg.deturck.enabled:
            s = entry.structure()
            v = deturck_vector(self.L, s, self.nabla0, cfg.deturck.c1, cfg.deturck.c2)
            form = Form(4, y) if self.coflow else s.phi
            rhs = _finite_coeffs(rhs + lie_derivative(self.L, v, form).coeffs)
        entry.rhs = rhs
        return rhs

    def rhs(self, i):
        """The right-hand side of row i at its last evaluated coefficients."""
        return self._rows[i].rhs

    def structure(self, i):
        """The G2 structure of row i at its last evaluated coefficients."""
        return self._rows[i].structure()

    def closedness(self, y):
        return float(np.linalg.norm(self.dmat @ y))


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + (0.5 * h) * k1)
    k3 = f(y + (0.5 * h) * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _rkf45_attempt(f, y, h):
    ks = []
    for row in _RKF_A:
        yi = y.copy()
        for a, k in zip(row, ks):
            yi = yi + (h * a) * k
        ks.append(f(yi))
    y5 = y.copy()
    err = np.zeros_like(y)
    for b5, b4, k in zip(_RKF_B5, _RKF_B4, ks):
        y5 = y5 + (h * b5) * k
        err = err + (h * (b5 - b4)) * k
    return y5, float(np.linalg.norm(err))


def steps_in_lockstep(config):
    """Whether starts under ``config`` may step as one ensemble: rk4
    modified-coflow runs without DeTurck, whose stages are evaluated as one
    stack (rkf45 sizes each row's steps from its own error)."""
    return (
        config.flow_kind == "modified_coflow"
        and config.integrator.method == "rk4"
        and not config.deturck.enabled
    )


def integrate(L, config, state0, reference=None, A=None):
    """Integrate the configured flow from ``state0``.

    ``state0`` is a CoclosedState for the coflow or a G2Structure for the
    Laplacian flow; ``reference`` (a form, defaults to the initial one)
    anchors the dist_ref diagnostic.  Returns a Trajectory whose termination
    record distinguishes a completed run from halts caused by closedness
    drift, positivity loss, recovery failure, step underflow, or non-finite
    values.

    A list ``state0`` is an ensemble of rows stepped in lockstep on one
    time grid; two or more rows need a config that ``steps_in_lockstep``.
    ``reference`` and ``A`` are then lists with one entry per row (``A``
    defaults to ``config.A`` for every row; a single start reads
    ``config.A`` only), and a list of Trajectories comes back.  Each row's
    trajectory is the one ``integrate`` gives its start alone, bit for bit:
    a row that halts freezes, and the others step on unchanged.
    """
    if not isinstance(state0, list):
        if A is not None:
            raise G2FlowError("A= takes one value per row of a list of starts")
        return _integrate_rows(L, config, [state0], [reference], [config.A])[0]
    n = len(state0)
    A = [config.A] * n if A is None else A
    return _integrate_rows(L, config, state0, reference or [None] * n, A)


def _integrate_rows(L, config, starts, references, A):
    """The time loop of ``integrate`` over the rows of an ensemble."""
    config.ensure_valid()
    n = len(starts)
    if n > 1 and not steps_in_lockstep(config):
        raise G2FlowError("only rk4 modified-coflow runs without DeTurck step as an ensemble")
    coflow = config.flow_kind == "modified_coflow"
    cfg_int = config.integrator
    if coflow and not all(isinstance(s, CoclosedState) for s in starts):
        raise G2FlowError("modified_coflow expects a CoclosedState initial state")
    if not coflow:
        starts = [_structure_of(s) for s in starts]
    y = np.array([(s.psi if coflow else s.phi).coeffs for s in starts])
    ref = np.array([y[i] if r is None else r.coeffs for i, r in enumerate(references)])
    evaluator = _Evaluator(L, config, [float(a) for a in A], y, starts)

    t_end = cfg_int.t_end
    t_stop = t_end - 1e-12 * max(1.0, t_end)  # end of the horizon up to rounding
    t = 0.0
    steps = 0
    dt = cfg_int.dt
    states = [[] for _ in range(n)]
    ends = [None] * n
    mon = config.monitors
    tol = config.halt.closedness_tol
    max_rhs = config.halt.max_rhs_norm

    def snapshot(i, t, rhs_norm=True):
        """Record row i at time t with the monitor values; ``rhs_norm``
        False leaves its right-hand side unread (and the value null)."""
        s = evaluator.structure(i)
        rhs = evaluator.rhs(i) if mon.rhs_norm and rhs_norm else None
        diag = {
            "trT": torsion_trace(L, s) if mon.trT else None,
            "volume": s.volume if mon.volume else None,
            "closedness": closed[i] if mon.closedness else None,
            "rhs_norm": None if rhs is None else float(np.linalg.norm(rhs)),
            "dist_ref": float(np.linalg.norm(y[i] - ref[i])) if mon.dist_ref else None,
        }
        psi = Form(4, y[i]) if coflow else s.psi
        states[i].append(FlowState(t=t, form=psi if coflow else s.phi, psi=psi, diagnostics=diag))

    def end(i, reason, detail="", status="halted"):
        ends[i] = {"status": status, "reason": reason, "t": t, "steps": steps, "detail": detail}

    def record(rows):
        """Snapshot the rows at t; returns those that go on (a row whose
        recovery fails halts)."""
        evaluator.f(rows, y if len(rows) == n else y[rows])
        going = []
        for i in rows:
            if i in evaluator.failed:
                end(i, *evaluator.failed.pop(i))
            else:
                snapshot(i, t)
                going.append(i)
        return going

    # The right-hand sides are exact forms that equal the flows only on
    # closed input, so a start that is not closed halts, whatever the
    # closedness monitor says, before a right-hand side is evaluated.
    # closed[i] is the closedness residual of y[i], kept as y[i] moves.
    closed = [evaluator.closedness(row) for row in y]
    for i in range(n):
        if closed[i] > tol:
            snapshot(i, t, rhs_norm=False)
            end(i, "closedness", "initial state violates the closedness tolerance")
    active = record([i for i in range(n) if ends[i] is None])

    while active:
        if t >= t_stop:
            for i in active:
                end(i, "t_end", status="completed")
            break
        h = min(dt, t_end - t)
        f = functools.partial(evaluator.f, active)
        if cfg_int.method == "rk4":
            y_new = _rk4_step(f, y if len(active) == n else y[active], h)
        else:  # one row
            scale = cfg_int.rel_tol * max(1.0, float(np.linalg.norm(y)))
            while True:
                y_new, err = _rkf45_attempt(f, y, h)
                accepted = err <= scale
                if evaluator.failed or accepted or not np.isfinite(err):
                    break
                h *= max(0.2, 0.9 * (scale / err) ** 0.2)
                if h < 1e-14 * max(1.0, t):
                    break
            if not evaluator.failed and h < 1e-14 * max(1.0, t):
                end(0, "step_underflow", f"step size fell to {h:.3e}")
                break
            if accepted:
                dt = h * min(5.0, max(0.2, 0.9 * (scale / max(err, 1e-300)) ** 0.2))
        going = []
        for i, row in zip(active, y_new):
            if i in evaluator.failed:
                end(i, *evaluator.failed.pop(i))
            elif not np.all(np.isfinite(row)):
                end(i, "nonfinite", "state left the finite range")
            else:
                going.append((i, row))
        t += h
        steps += 1
        active = []
        for i, row in going:
            y[i] = row
            closed[i] = evaluator.closedness(y[i])
            if closed[i] > tol:
                end(i, "closedness", f"closedness residual {closed[i]:.3e} exceeded tolerance")
            else:
                active.append(i)
        if active and (steps % mon.record_every == 0 or t >= t_stop):
            active = record(active)
            for i in active[:]:
                norm = states[i][-1].diagnostics["rhs_norm"]
                if max_rhs is not None and norm is not None and norm > max_rhs:
                    end(i, "rhs_blowup", f"rhs_norm {norm:.3e}")
                    active.remove(i)
    for i in range(n):
        if states[i][-1].t != ends[i]["t"]:
            # A halt between records ends on a record of the state at the
            # halt time (the last accepted step), unless its own recovery
            # failed.
            evaluator.f([i], y[[i]])
            if evaluator.failed.pop(i, None) is None:
                snapshot(i, ends[i]["t"])
    return [
        Trajectory(flow_kind=config.flow_kind, states=states[i], termination=ends[i])
        for i in range(n)
    ]


# --------------------------------------------------------------------------
# Direction bases and linearization
# --------------------------------------------------------------------------


def exact_directions(L):
    """Orthonormal basis (coefficient Euclidean) of d(invariant 3-forms)."""
    d3 = L.differential_matrix(3)
    u, s, _ = np.linalg.svd(d3)
    rank = int(np.sum(s > max(d3.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)))
    return [Form(4, u[:, i]) for i in range(rank)]


def coclosed_directions(L):
    """Orthonormal basis (coefficient Euclidean) of the closed 4-forms."""
    d4 = L.differential_matrix(4)
    _, s, vt = np.linalg.svd(d4)
    rank = int(np.sum(s > max(d4.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)))
    return [Form(4, vt[i]) for i in range(rank, vt.shape[0])]


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


def linearize(L, rhs, state, directions, eps=1e-5, static_tol=1e-8):
    """Central finite-difference linearization of ``rhs`` at a static state.

    ``rhs(L, state) -> Form`` is the flow map; ``directions`` are 4-forms
    spanning the probed subspace.  They are orthonormalized in the L2 inner
    product (pointwise metric inner product times the constant volume);
    a rank-deficient set raises, as does a base point that is not static to
    ``static_tol``.
    """
    if not isinstance(state, CoclosedState):
        raise G2FlowError("linearize expects a CoclosedState base point")
    base_norm = float(np.linalg.norm(rhs(L, state).coeffs))
    if base_norm > static_tol:
        raise G2FlowError(
            f"base point is not static: rhs norm {base_norm:.3e} exceeds {static_tol:.1e}"
        )
    if not directions:
        raise G2FlowError("directions must be a non-empty list of 4-forms")
    structure = state.recovered
    gram = structure.metric.gram(4) * structure.volume
    dmat = np.column_stack([d.coeffs for d in directions])
    overlap = dmat.T @ gram @ dmat
    try:
        chol = np.linalg.cholesky(overlap)
    except np.linalg.LinAlgError:
        raise G2FlowError("degenerate direction set (L2 Gram matrix is singular)") from None
    basis = dmat @ np.linalg.inv(chol).T  # columns are L2-orthonormal
    m = basis.shape[1]
    matrix = np.empty((m, m))
    project = basis.T @ gram
    for j in range(m):
        plus = CoclosedState.from_psi(Form(4, state.psi.coeffs + eps * basis[:, j]))
        minus = CoclosedState.from_psi(Form(4, state.psi.coeffs - eps * basis[:, j]))
        deriv = (rhs(L, plus).coeffs - rhs(L, minus).coeffs) / (2.0 * eps)
        matrix[:, j] = project @ deriv
    sym = 0.5 * (matrix + matrix.T)
    return SpectrumReport(
        directions=[Form(4, basis[:, j]) for j in range(m)],
        matrix=matrix,
        eigenvalues=np.linalg.eigvalsh(sym),
        asymmetry_norm=float(np.linalg.norm(matrix - matrix.T)),
        eps=eps,
    )
