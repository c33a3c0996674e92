"""Scalar reduction of the coflow on conformal scalings psi_t = c_t psi_0.

When the base structure satisfies d(phi) = tau0 * psi with constant tau0,
the whole flow collapses to one ODE for the conformal factor:

    dc/dt = c^{3/4} tau0 (2A - (5/2) c^{-1/4} tau0).

Facts wired into the solver and its report:

* stationary factor: tau0 = (4/5) A makes c = 1 a fixed point;
* A = 0 closed form: c_t = (sqrt(c0) - (5/4) tau0^2 t)^2 (the c0 = 1 case
  is the familiar (1 - (5/4) tau0^2 t)^2), reaching zero in finite time;
* volume law: Vol_t = c_t^{7/4} Vol_0.

The module is deliberately pure scalar mathematics: no concrete invariant
structure with d(phi) = tau0 psi is constructed here, only the reduced
dynamics, so it doubles as an independent cross-check on the tensor engine's
scaling behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conventions import BLOWDOWN_THRESHOLD
from .errors import ConfigError, G2FlowError
from .flows import FINITE, POSITIVE, _rk4_step, rule_violations

__all__ = ["NPParams", "NPTrajectory", "np_rhs", "np_closed_form", "np_solve"]


@dataclass(frozen=True)
class NPParams:
    """Torsion constant tau0, coflow parameter A, initial factor c0 > 0."""

    tau0: float = field(metadata=FINITE)
    A: float = field(default=0.0, metadata=FINITE)
    c0: float = field(default=1.0, metadata=POSITIVE)

    def __post_init__(self):
        violations = rule_violations(self)
        if violations:
            raise ConfigError(violations)


def np_rhs(c, params):
    """Scalar coflow rate c^{3/4} tau0 (2A - (5/2) c^{-1/4} tau0).

    Evaluated in the expanded form 2 A tau0 c^{3/4} - (5/2) tau0^2 sqrt(c),
    which is the same function without the removable negative power.
    """
    if c <= 0.0:
        raise G2FlowError(f"conformal factor must be positive, got {c}")
    return 2.0 * params.A * params.tau0 * c**0.75 - 2.5 * params.tau0**2 * np.sqrt(c)


def np_closed_form(t, params):
    """A = 0 solution c_t = (sqrt(c0) - (5/4) tau0^2 t)^2, floored at zero."""
    root = np.sqrt(params.c0) - 1.25 * params.tau0**2 * np.asarray(t, dtype=float)
    return np.where(root > 0.0, root, 0.0) ** 2


@dataclass(eq=False)
class NPTrajectory:
    """Recorded scalar run: arrays over time plus the comparison report.

    ``closed_form_max_rel_err`` is populated for A = 0 runs (None otherwise);
    ``status`` is "completed" or "blow_down" with the halt time recorded.
    """

    params: NPParams
    t: np.ndarray
    c: np.ndarray
    vol: np.ndarray
    rhs: np.ndarray
    status: str
    blow_down_time: float | None
    closed_form_max_rel_err: float | None


def np_solve(params, t_end, dt=1e-4, vol0=1.0):
    """Integrate the scalar ODE with fixed-step rk4, recording every step.

    Halts with status "blow_down" when the factor falls to the blow-down
    threshold (or an intermediate stage leaves the positive range); for
    A = 0 the report carries the maximum relative error against the closed
    form over the recorded times.
    """
    violations = []
    if not (np.isfinite(t_end) and t_end > 0):
        violations.append("t_end must be > 0")
    if not (np.isfinite(dt) and dt > 0):
        violations.append("dt must be > 0")
    if violations:
        raise ConfigError(violations)

    def f(c):
        return np_rhs(c, params)

    ts = [0.0]
    cs = [params.c0]
    rhss = [f(params.c0)]
    t, c = 0.0, params.c0
    status, blow_time = "completed", None
    while t < t_end - 1e-12 * max(1.0, t_end):
        h = min(dt, t_end - t)
        try:
            c_new = _rk4_step(f, c, h)
        except G2FlowError:
            status, blow_time = "blow_down", t
            break
        t += h
        if c_new <= BLOWDOWN_THRESHOLD:
            status, blow_time = "blow_down", t
            ts.append(t)
            cs.append(max(c_new, 0.0))
            rhss.append(0.0)
            break
        c = c_new
        ts.append(t)
        cs.append(c)
        rhss.append(f(c))
    ts = np.array(ts)
    cs = np.array(cs)
    vols = vol0 * cs**1.75
    rel_err = None
    if params.A == 0.0:
        exact = np_closed_form(ts, params)
        mask = exact > 0.0
        if np.any(mask):
            rel_err = float(np.max(np.abs(cs[mask] - exact[mask]) / exact[mask]))
    return NPTrajectory(
        params=params,
        t=ts,
        c=cs,
        vol=vols,
        rhs=np.array(rhss),
        status=status,
        blow_down_time=blow_time,
        closed_form_max_rel_err=rel_err,
    )
