"""Shared fixtures: algebras, reference forms, seeded sampling helpers."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

SUITE_BUDGET_SECONDS = 120.0
# The benchmark's 2-step nilpotent algebra (de6 = e12, de7 = e13), on which
# the standard 3-form is closed.
N2_ALGEBRA = Path(__file__).parents[1] / "perfbench" / "n2.json"


def pytest_configure(config):
    config._suite_started = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    """Enforce the suite wall-clock budget whenever the gate is in the run."""
    gated = any(
        "test_acceptance" in getattr(item, "nodeid", "")
        for item in getattr(session, "items", [])
    )
    if not gated:
        return
    elapsed = time.perf_counter() - session.config._suite_started
    ok = elapsed < SUITE_BUDGET_SECONDS
    verdict = "PASS" if ok else "FAIL"
    sys.stderr.write(
        f"\nACCEPTANCE 12 {verdict} suite runtime "
        f"({elapsed:.1f}s of {SUITE_BUDGET_SECONDS:.0f}s budget)\n"
    )
    if not ok:
        session.exitstatus = 1

from g2flow import (
    CoclosedState,
    Form,
    G2Structure,
    load_algebra,
    standard_phi,
    standard_psi,
)


@pytest.fixture(scope="session")
def torus():
    return load_algebra("torus")


@pytest.fixture(scope="session")
def ee1():
    return load_algebra("ee1")


@pytest.fixture(scope="session")
def ee2():
    return load_algebra("ee2")


@pytest.fixture(scope="session")
def n2():
    return load_algebra(N2_ALGEBRA)


@pytest.fixture(scope="session")
def phi_bar():
    return standard_phi()


@pytest.fixture(scope="session")
def psi_bar():
    return standard_psi()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)


def random_spd(rng, scale=0.3):
    """Random symmetric positive-definite 7x7 matrix near the identity."""
    a = rng.standard_normal((7, 7)) * scale
    return np.eye(7) + a @ a.T


def conditioned_spd(rng, cond):
    """Random symmetric positive-definite 7x7 matrix with condition number
    ``cond``: a random rotation of log-spaced eigenvalues."""
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    return (q * np.geomspace(1.0, cond, 7)) @ q.T


def random_positive_phi(rng, scale=0.1):
    """Random positive 3-form: a small perturbation of the reference form."""
    return Form(3, standard_phi().coeffs + scale * rng.standard_normal(35))


def conditioned_positive_phi(rng, cond):
    """Random positive 3-form whose induced metric has condition number
    ``cond``: the standard form pulled back by a conditioned_spd matrix a
    of condition sqrt(cond) (its metric is a^2)."""
    from .oracles import exterior_powers

    a = conditioned_spd(rng, np.sqrt(cond))
    return Form(3, exterior_powers(a)[3] @ standard_phi().coeffs)


def closed_n2_phi(rng):
    """Seeded closed positive 3-form on the n2 algebra (de6 = e12,
    de7 = e13): each term of the standard form scaled by a factor in
    [0.8, 1.25], which keeps it positive.  Only e257 and e356 have a nonzero
    differential there (both terms carry the sign -1), and they cancel while
    their factors are equal."""
    from g2flow.exterior import BASIS

    coeffs = standard_phi().coeffs.copy()
    terms = np.flatnonzero(coeffs)
    coeffs[terms] *= rng.uniform(0.8, 1.25, size=len(terms))
    e257, e356 = BASIS[3].index((2, 5, 7)), BASIS[3].index((3, 5, 6))
    coeffs[e356] = coeffs[e257]
    return Form(3, coeffs)


def random_form(rng, degree, scale=1.0):
    from g2flow.exterior import DIMS

    return Form(degree, scale * rng.standard_normal(DIMS[degree]))


def coclosed_sample(L, rng, magnitude=0.25, max_halvings=40):
    """Positivity-validated random coclosed 4-form near the reference one.

    Draws a unit direction in the closed-4-form subspace and halves the
    magnitude until the recovery of its 3-form succeeds.
    """
    from g2flow.errors import PositivityError, RecoveryError
    from g2flow.flows import coclosed_directions

    basis = np.column_stack([f.coeffs for f in coclosed_directions(L)])
    z = rng.standard_normal(basis.shape[1])
    direction = basis @ z
    direction /= np.linalg.norm(direction)
    base = standard_psi().coeffs
    scale = magnitude
    for _ in range(max_halvings + 1):
        candidate = Form(4, base + scale * direction)
        try:
            return CoclosedState.from_psi(candidate)
        except (PositivityError, RecoveryError):
            scale *= 0.5
    raise AssertionError("no positive coclosed sample found")
