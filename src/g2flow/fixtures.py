"""Bundled fixtures: algebra files, reference forms, structure families.

Algebra and form fixtures live in ``g2flow/fixtures/*.json``; the directory
can be overridden with the ``G2FLOW_FIXTURES`` environment variable, which
lets a deployment swap in its own algebra files under the same names.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .exterior import Form, form_from_json
from .liealg import LieAlgebraStructure

ENV_VAR = "G2FLOW_FIXTURES"

ALGEBRA_NAMES = ("torus", "ee1", "ee2", "ee1_corrupted")
FORM_NAMES = ("phi_standard", "psi_standard")


def fixtures_dir():
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "fixtures"


def _resolve(name_or_path, kind):
    path = Path(name_or_path)
    if path.suffix == ".json" and path.is_file():
        return path
    candidate = fixtures_dir() / f"{name_or_path}.json"
    if candidate.is_file():
        return candidate
    known = ALGEBRA_NAMES if kind == "algebra" else FORM_NAMES
    raise FileNotFoundError(
        f"unknown {kind} fixture {name_or_path!r}; known names: {', '.join(known)} "
        f"(searched {fixtures_dir()})"
    )


def load_algebra(name_or_path):
    """Load a Lie algebra by fixture name or explicit JSON path."""
    return LieAlgebraStructure.from_json_file(_resolve(name_or_path, "algebra"))


def load_form(name_or_path):
    """Load a form fixture ({"degree": k, "terms": [{"idx": .., "coef": ..}]})."""
    with open(_resolve(name_or_path, "form"), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"a form fixture must be a JSON object, got {type(data).__name__}")
    return form_from_json(data.get("degree"), data.get("terms"))


_STANDARD_SIGNS = {
    (1, 2, 3): 1.0,
    (1, 4, 5): 1.0,
    (1, 6, 7): 1.0,
    (2, 4, 6): 1.0,
    (2, 5, 7): -1.0,
    (3, 4, 7): -1.0,
    (3, 5, 6): -1.0,
}


def standard_phi():
    """The reference positive 3-form (identity metric, volume e^{1234567})."""
    return Form.from_terms(3, _STANDARD_SIGNS)


def standard_psi():
    """Dual 4-form of the reference structure."""
    return Form.from_terms(
        4,
        {
            (4, 5, 6, 7): 1.0,
            (2, 3, 6, 7): 1.0,
            (2, 3, 4, 5): 1.0,
            (1, 3, 5, 7): 1.0,
            (1, 3, 4, 6): -1.0,
            (1, 2, 5, 6): -1.0,
            (1, 2, 4, 7): -1.0,
        },
    )


def diagonal_family_phi(coeffs):
    """Standard-shaped 3-form with per-term coefficients (c_1 .. c_7).

    Term order matches the standard form: e123, e145, e167, e246, -e257,
    -e347, -e356.  All-ones input returns the standard form.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (7,):
        raise ValueError(f"need 7 family coefficients, got shape {c.shape}")
    terms = {}
    for (idx, sign), scale in zip(_STANDARD_SIGNS.items(), c):
        terms[idx] = sign * scale
    return Form.from_terms(3, terms)


def ee2_diagonal_phi(c):
    """Diagonal coclosed family on ee2: squared coefficients (c_i^2)."""
    c = np.asarray(c, dtype=float)
    return diagonal_family_phi(c * c)
