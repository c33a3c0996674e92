"""Experiment orchestration: JSON configs, named experiments, sweeps.

A config is a JSON object with an explicit ``schema_version`` (currently 1).
Validation never stops at the first problem: it returns the complete list of
violations, and a valid config is echoed back fully defaulted, so every
implicit value is visible.  Given the same config and seed, every experiment
writes bitwise-identical output files.

Randomness (perturbation sampling) uses numpy's ``default_rng`` — the PCG64
generator — seeded from ``perturbation.seed``, so runs are reproducible
bitwise within this implementation and statistically comparable across
implementations of the same sampling recipe.

Experiments:

* ``ee1_static``   — the reference structure plus random coclosed samples,
  each checked for a vanishing coflow right-hand side;
* ``ee2_family``   — the diagonal coclosed family: tabulates the computed
  right-hand-side coefficient against the closed-form stretch-factor law
  (and against the same monomial pattern evaluated directly in the family
  coefficients, which agrees only at the unit point);
* ``ee2_flow``     — time integration of the coflow on the second algebra;
* ``np``           — the nearly-parallel scalar reduction;
* ``linearize``    — finite-difference spectrum at a static point;
* ``custom``       — integrate the configured flow on any algebra/initial;
* ``sweep``        — a cartesian grid of overrides on top of a base
  experiment, run concurrently, one output file per cell plus a manifest.
"""

from __future__ import annotations

import concurrent.futures
import copy
import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, G2FlowError, PositivityError, RecoveryError
from .exterior import BASIS, DIMS, Form
from .fixtures import ee2_diagonal_phi, load_algebra, load_form
from .flows import (
    FlowConfig,
    coclosed_directions,
    coflow_rhs,
    exact_directions,
    integrate,
    linearize,
)
from .g2core import CoclosedState, G2Structure
from .liealg import jacobi_check
from .nearly_parallel import NPParams, np_solve

__all__ = [
    "SCHEMA_VERSION",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "ValidationReport",
    "config_from_dict",
    "load_config",
    "validate_config",
    "run_experiment",
    "family_stretch_factors",
    "family_coefficient_law",
    "family_monomial_pattern",
]

SCHEMA_VERSION = 1
EXPERIMENTS = ("ee1_static", "ee2_family", "ee2_flow", "np", "sweep", "linearize", "custom")
SUBSPACES = ("coclosed", "exact", "full")
OUTPUT_FORMATS = ("jsonl", "csv")

_DEFAULT_ALGEBRA = {
    "ee1_static": "ee1",
    "ee2_family": "ee2",
    "ee2_flow": "ee2",
    "linearize": "ee1",
}
_DEFAULT_SAMPLES = {"ee1_static": 100, "ee2_family": 20}
_MAX_SWEEP_CELLS = 1000


# --------------------------------------------------------------------------
# Diagonal coclosed family on the second algebra
# --------------------------------------------------------------------------

# Index triples of the seven reference 3-form terms; the 7x7 incidence
# matrix below sends log stretch factors to log family coefficients.
_FAMILY_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))
_FAMILY_INCIDENCE = np.zeros((7, 7))
for _a, _line in enumerate(_FAMILY_LINES):
    for _i in _line:
        _FAMILY_INCIDENCE[_a, _i - 1] = 1.0

_E1357 = BASIS[4].index((1, 3, 5, 7))


def family_stretch_factors(c):
    """Per-axis metric stretch factors lambda of the diagonal family member.

    The member with coefficients c is the pullback of the reference 3-form
    under diag(lambda) with prod_{i in line} lambda_i = c_line^2 for each of
    the seven index triples; the induced metric is diag(lambda^2).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (7,) or np.any(c <= 0):
        raise G2FlowError("family coefficients must be 7 positive reals")
    return np.exp(np.linalg.solve(_FAMILY_INCIDENCE, 2.0 * np.log(c)))


def family_coefficient_law(lam):
    """Closed-form e^{1357} coefficient of the A=0 coflow right-hand side
    on the diagonal family, as a Laurent monomial law in the stretch
    factors: 2 (l2 l4 l7 + l2 l5 l6 - l3 l4 l6) / l1."""
    l = np.asarray(lam, dtype=float)
    return 2.0 * (l[1] * l[3] * l[6] + l[1] * l[4] * l[5] - l[2] * l[3] * l[5]) / l[0]


def family_monomial_pattern(x):
    """The same monomial pattern as the orthonormal-coframe component of the
    law: 2 (x2 x4 x7 + x2 x5 x6 - x3 x4 x6) / (x1^2 x3 x5 x7).

    Applied to the stretch factors this is the right-hand-side component in
    the metric-orthonormal coframe; applied directly to the family
    coefficients it is a different function that agrees with the law only
    at the unit point.
    """
    x = np.asarray(x, dtype=float)
    return (
        2.0
        * (x[1] * x[3] * x[6] + x[1] * x[4] * x[5] - x[2] * x[3] * x[5])
        / (x[0] ** 2 * x[2] * x[4] * x[6])
    )


# --------------------------------------------------------------------------
# Config schema
# --------------------------------------------------------------------------


@dataclass
class PerturbationConfig:
    magnitude: float = 0.0
    seed: int = 0
    subspace: str = "coclosed"

    def violations(self, prefix="perturbation"):
        out = []
        if not (np.isfinite(self.magnitude) and self.magnitude >= 0):
            out.append(f"{prefix}.magnitude must be >= 0")
        if not isinstance(self.seed, int):
            out.append(f"{prefix}.seed must be an integer")
        if self.subspace not in SUBSPACES:
            out.append(
                f"{prefix}.subspace must be one of {'|'.join(SUBSPACES)}, got {self.subspace!r}"
            )
        return out


@dataclass
class OutputConfig:
    path: str | None = None
    format: str = "jsonl"

    def violations(self, prefix="output"):
        out = []
        if self.format not in OUTPUT_FORMATS:
            out.append(
                f"{prefix}.format must be one of {'|'.join(OUTPUT_FORMATS)}, got {self.format!r}"
            )
        return out


@dataclass
class NPSection:
    tau0: float = 1.0
    c0: float = 1.0
    vol0: float = 1.0

    def violations(self, prefix="np"):
        out = []
        if not np.isfinite(self.tau0):
            out.append(f"{prefix}.tau0 must be finite")
        if not (np.isfinite(self.c0) and self.c0 > 0):
            out.append(f"{prefix}.c0 must be > 0")
        if not (np.isfinite(self.vol0) and self.vol0 > 0):
            out.append(f"{prefix}.vol0 must be > 0")
        return out


@dataclass
class LinearizeSection:
    eps: float = 1e-5
    static_tol: float = 1e-8

    def violations(self, prefix="linearize"):
        out = []
        if not (np.isfinite(self.eps) and self.eps > 0):
            out.append(f"{prefix}.eps must be > 0")
        if not (np.isfinite(self.static_tol) and self.static_tol > 0):
            out.append(f"{prefix}.static_tol must be > 0")
        return out


@dataclass
class SweepSection:
    experiment: str = "custom"
    axes: dict = field(default_factory=dict)

    def violations(self, prefix="sweep"):
        out = []
        if self.experiment not in EXPERIMENTS or self.experiment == "sweep":
            choices = "|".join(e for e in EXPERIMENTS if e != "sweep")
            out.append(f"{prefix}.experiment must be one of {choices}, got {self.experiment!r}")
        if not isinstance(self.axes, dict):
            out.append(f"{prefix}.axes must be an object mapping config paths to value lists")
        else:
            for key, values in self.axes.items():
                if not isinstance(key, str) or not key:
                    out.append(f"{prefix}.axes keys must be non-empty dotted config paths")
                if not isinstance(values, list) or not values:
                    out.append(f"{prefix}.axes[{key!r}] must be a non-empty list of values")
        return out


@dataclass
class ExperimentConfig:
    experiment: str
    algebra_file: str | None = None
    initial: object = None  # fixture name or 35-coefficient list
    samples: int | None = None
    flow: FlowConfig = field(default_factory=FlowConfig)
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)
    np_section: NPSection = field(default_factory=NPSection)
    linearize_section: LinearizeSection = field(default_factory=LinearizeSection)
    sweep_section: SweepSection = field(default_factory=SweepSection)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self):
        """Fully-defaulted echo of the config (every implicit value made
        explicit), suitable for re-ingestion."""
        flow = self.flow
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "algebra_file": self.algebra_file,
            "initial": self.initial,
            "samples": self.samples,
            "flow": {
                "flow_kind": flow.flow_kind,
                "A": flow.A,
                "deturck": {
                    "enabled": flow.deturck.enabled,
                    "c1": flow.deturck.c1,
                    "c2": flow.deturck.c2,
                },
                "integrator": {
                    "method": flow.integrator.method,
                    "dt": flow.integrator.dt,
                    "t_end": flow.integrator.t_end,
                    "rel_tol": flow.integrator.rel_tol,
                },
                "monitors": {
                    "record_every": flow.monitors.record_every,
                    "trT": flow.monitors.trT,
                    "volume": flow.monitors.volume,
                    "closedness": flow.monitors.closedness,
                    "rhs_norm": flow.monitors.rhs_norm,
                    "dist_ref": flow.monitors.dist_ref,
                },
                "halt": {
                    "closedness_tol": flow.halt.closedness_tol,
                    "max_rhs_norm": flow.halt.max_rhs_norm,
                },
            },
            "perturbation": {
                "magnitude": self.perturbation.magnitude,
                "seed": self.perturbation.seed,
                "subspace": self.perturbation.subspace,
            },
            "np": {
                "tau0": self.np_section.tau0,
                "c0": self.np_section.c0,
                "vol0": self.np_section.vol0,
            },
            "linearize": {
                "eps": self.linearize_section.eps,
                "static_tol": self.linearize_section.static_tol,
            },
            "sweep": {
                "experiment": self.sweep_section.experiment,
                "axes": copy.deepcopy(self.sweep_section.axes),
            },
            "output": {"path": self.output.path, "format": self.output.format},
        }


class _SectionReader:
    """Pulls typed values out of one JSON object, collecting violations
    instead of raising, and flagging unknown keys."""

    def __init__(self, raw, name, violations):
        self.raw = raw if isinstance(raw, dict) else None
        self.name = name
        self.violations = violations
        if raw is not None and not isinstance(raw, dict):
            violations.append(f"{name} must be an object" if name else "config must be an object")

    def check_unknown(self, allowed):
        if self.raw is None:
            return
        for key in self.raw:
            if key not in allowed:
                where = f"{self.name}: " if self.name else ""
                self.violations.append(f"{where}unknown field {key!r}")

    def sub(self, key):
        raw = None if self.raw is None else self.raw.get(key)
        name = f"{self.name}.{key}" if self.name else key
        return _SectionReader(raw, name, self.violations)

    def _label(self, key):
        return f"{self.name}.{key}" if self.name else key

    def value(self, key, default):
        if self.raw is None or key not in self.raw:
            return default
        return self.raw[key]

    def number(self, key, default):
        val = self.value(key, default)
        if val is None and default is None:
            return None
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.violations.append(f"{self._label(key)} must be a number")
            return default
        return float(val)

    def integer(self, key, default):
        val = self.value(key, default)
        if val is None and default is None:
            return None
        if isinstance(val, bool) or not isinstance(val, int):
            self.violations.append(f"{self._label(key)} must be an integer")
            return default
        return val

    def boolean(self, key, default):
        val = self.value(key, default)
        if not isinstance(val, bool):
            self.violations.append(f"{self._label(key)} must be true or false")
            return default
        return val

    def string(self, key, default):
        val = self.value(key, default)
        if val is None and default is None:
            return None
        if not isinstance(val, str):
            self.violations.append(f"{self._label(key)} must be a string")
            return default
        return val


def _read_flow(reader):
    cfg = FlowConfig()
    reader.check_unknown({"flow_kind", "A", "deturck", "integrator", "monitors", "halt"})
    cfg.flow_kind = reader.string("flow_kind", cfg.flow_kind)
    cfg.A = reader.number("A", cfg.A)
    det = reader.sub("deturck")
    det.check_unknown({"enabled", "c1", "c2"})
    cfg.deturck.enabled = det.boolean("enabled", cfg.deturck.enabled)
    cfg.deturck.c1 = det.number("c1", cfg.deturck.c1)
    cfg.deturck.c2 = det.number("c2", cfg.deturck.c2)
    integ = reader.sub("integrator")
    integ.check_unknown({"method", "dt", "t_end", "rel_tol"})
    cfg.integrator.method = integ.string("method", cfg.integrator.method)
    cfg.integrator.dt = integ.number("dt", cfg.integrator.dt)
    cfg.integrator.t_end = integ.number("t_end", cfg.integrator.t_end)
    cfg.integrator.rel_tol = integ.number("rel_tol", cfg.integrator.rel_tol)
    mon = reader.sub("monitors")
    mon.check_unknown({"record_every", "trT", "volume", "closedness", "rhs_norm", "dist_ref"})
    cfg.monitors.record_every = mon.integer("record_every", cfg.monitors.record_every)
    for name in ("trT", "volume", "closedness", "rhs_norm", "dist_ref"):
        setattr(cfg.monitors, name, mon.boolean(name, getattr(cfg.monitors, name)))
    halt = reader.sub("halt")
    halt.check_unknown({"closedness_tol", "max_rhs_norm"})
    cfg.halt.closedness_tol = halt.number("closedness_tol", cfg.halt.closedness_tol)
    cfg.halt.max_rhs_norm = halt.number("max_rhs_norm", cfg.halt.max_rhs_norm)
    return cfg


def _read_initial(reader, violations):
    raw = reader.value("initial", None)
    if raw is None or isinstance(raw, str):
        return raw
    if isinstance(raw, list):
        if len(raw) != DIMS[3] or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw
        ):
            violations.append(f"initial must be a fixture name or a list of {DIMS[3]} numbers")
            return None
        return [float(v) for v in raw]
    violations.append(f"initial must be a fixture name or a list of {DIMS[3]} numbers")
    return None


def config_from_dict(raw):
    """Build an ExperimentConfig from a parsed JSON object.

    Returns (config-or-None, violations).  The config is fully defaulted;
    it is None exactly when violations is non-empty.
    """
    violations = []
    top = _SectionReader(raw, "", violations)
    if top.raw is None:
        return None, violations
    top.check_unknown(
        {
            "schema_version",
            "experiment",
            "algebra_file",
            "initial",
            "samples",
            "flow",
            "perturbation",
            "np",
            "linearize",
            "sweep",
            "output",
        }
    )
    version = top.value("schema_version", None)
    if version is None:
        violations.append(f"schema_version is required (current version {SCHEMA_VERSION})")
    elif version != SCHEMA_VERSION:
        violations.append(
            f"unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})"
        )
    experiment = top.string("experiment", None)
    if experiment is None:
        violations.append(f"experiment is required; one of {'|'.join(EXPERIMENTS)}")
    elif experiment not in EXPERIMENTS:
        violations.append(
            f"experiment must be one of {'|'.join(EXPERIMENTS)}, got {experiment!r}"
        )

    cfg = ExperimentConfig(experiment=experiment or "custom")
    cfg.algebra_file = top.string("algebra_file", _DEFAULT_ALGEBRA.get(experiment))
    cfg.initial = _read_initial(top, violations)
    cfg.samples = top.integer("samples", _DEFAULT_SAMPLES.get(experiment))
    cfg.flow = _read_flow(top.sub("flow"))

    pert = top.sub("perturbation")
    pert.check_unknown({"magnitude", "seed", "subspace"})
    if experiment == "ee1_static" and cfg.perturbation.magnitude == 0.0:
        cfg.perturbation.magnitude = 0.25
    cfg.perturbation.magnitude = pert.number("magnitude", cfg.perturbation.magnitude)
    cfg.perturbation.seed = pert.integer("seed", cfg.perturbation.seed)
    cfg.perturbation.subspace = pert.string("subspace", cfg.perturbation.subspace)

    npsec = top.sub("np")
    npsec.check_unknown({"tau0", "c0", "vol0"})
    cfg.np_section.tau0 = npsec.number("tau0", cfg.np_section.tau0)
    cfg.np_section.c0 = npsec.number("c0", cfg.np_section.c0)
    cfg.np_section.vol0 = npsec.number("vol0", cfg.np_section.vol0)

    lin = top.sub("linearize")
    lin.check_unknown({"eps", "static_tol"})
    cfg.linearize_section.eps = lin.number("eps", cfg.linearize_section.eps)
    cfg.linearize_section.static_tol = lin.number("static_tol", cfg.linearize_section.static_tol)

    sweep = top.sub("sweep")
    sweep.check_unknown({"experiment", "axes"})
    cfg.sweep_section.experiment = sweep.string("experiment", cfg.sweep_section.experiment)
    axes = sweep.value("axes", cfg.sweep_section.axes)
    cfg.sweep_section.axes = axes if isinstance(axes, dict) else cfg.sweep_section.axes
    if not isinstance(axes, dict):
        violations.append("sweep.axes must be an object mapping config paths to value lists")

    out = top.sub("output")
    out.check_unknown({"path", "format"})
    cfg.output.path = out.string("path", cfg.output.path)
    cfg.output.format = out.string("format", cfg.output.format)

    violations += cfg.flow.violations()
    violations += cfg.perturbation.violations()
    violations += cfg.output.violations()
    if experiment == "np":
        violations += cfg.np_section.violations()
    if experiment == "linearize":
        violations += cfg.linearize_section.violations()
    if cfg.samples is not None and (not isinstance(cfg.samples, int) or cfg.samples < 1):
        violations.append("samples must be an integer >= 1")
    violations += _semantic_violations(cfg, experiment)
    if violations:
        return None, violations
    return cfg, []


def _semantic_violations(cfg, experiment):
    """Cross-field checks: referenced fixtures exist, degrees line up,
    experiment-specific constraints."""
    out = []
    if experiment is None or experiment not in EXPERIMENTS:
        return out
    if experiment == "np":
        return out
    if experiment == "ee2_family":
        if cfg.flow.A != 0.0:
            out.append("ee2_family requires flow.A = 0 (the coefficient law is the A=0 one)")
        if cfg.algebra_file is None:
            out.append("algebra_file is required")
        else:
            out += _check_algebra(cfg.algebra_file)
        return out
    if experiment == "sweep":
        out += cfg.sweep_section.violations()
        if not out and not cfg.sweep_section.axes:
            out.append("sweep.axes must define at least one axis")
        if not out:
            try:
                cells = expand_sweep(cfg)
            except ConfigError as exc:
                out += exc.violations
            else:
                if len(cells) > _MAX_SWEEP_CELLS:
                    out.append(
                        f"sweep has {len(cells)} cells, exceeding the {_MAX_SWEEP_CELLS} limit"
                    )
        return out
    if cfg.algebra_file is None:
        out.append(f"algebra_file is required for experiment {experiment!r}")
    else:
        out += _check_algebra(cfg.algebra_file)
    needed_degree = 4 if cfg.flow.flow_kind == "modified_coflow" else 3
    if isinstance(cfg.initial, str):
        try:
            form = load_form(cfg.initial)
        except FileNotFoundError as exc:
            out.append(f"initial: {exc}")
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            out.append(f"initial: malformed form fixture ({exc})")
        else:
            if (
                experiment in ("ee1_static", "ee2_flow", "custom", "linearize")
                and form.degree != needed_degree
            ):
                out.append(
                    f"initial has degree {form.degree}; flow_kind "
                    f"{cfg.flow.flow_kind!r} needs degree {needed_degree}"
                )
    if (
        cfg.flow.flow_kind == "laplacian_flow"
        and cfg.perturbation.magnitude > 0
        and cfg.perturbation.subspace != "full"
    ):
        out.append(
            "perturbation.subspace must be 'full' for laplacian_flow "
            "(coclosed/exact sample 4-form directions)"
        )
    if experiment == "linearize" and cfg.flow.flow_kind != "modified_coflow":
        out.append("linearize requires flow.flow_kind = modified_coflow")
    return out


def _check_algebra(name_or_path):
    try:
        load_algebra(name_or_path)
    except FileNotFoundError as exc:
        return [f"algebra_file: {exc}"]
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return [f"algebra_file: malformed algebra file ({exc})"]
    return []


def load_config(path):
    """Parse a JSON config file; parse errors carry line/column context."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None


@dataclass(eq=False)
class ValidationReport:
    ok: bool
    violations: list
    normalized: dict | None

    def to_dict(self):
        return {"ok": self.ok, "violations": self.violations, "normalized": self.normalized}


def validate_config(path):
    """Validate a config file: fully-defaulted echo or the complete list of
    violations (never just the first)."""
    try:
        raw = load_config(path)
    except ConfigError as exc:
        return ValidationReport(ok=False, violations=exc.violations, normalized=None)
    cfg, violations = config_from_dict(raw)
    if violations:
        return ValidationReport(ok=False, violations=violations, normalized=None)
    return ValidationReport(ok=True, violations=[], normalized=cfg.to_dict())


# --------------------------------------------------------------------------
# Sweep expansion
# --------------------------------------------------------------------------


def _set_dotted(target, dotted, value):
    parts = dotted.split(".")
    cur = target
    for part in parts[:-1]:
        nxt = cur.get(part)
        if nxt is None:
            nxt = cur[part] = {}
        if not isinstance(nxt, dict):
            raise ConfigError([f"sweep axis {dotted!r} does not address a config object"])
        cur = nxt
    cur[parts[-1]] = value


def expand_sweep(cfg):
    """Cartesian product of the sweep axes applied to the base config.

    Axis keys are dotted config paths ("flow.A", "perturbation.seed",
    "initial", ...), iterated in sorted key order; returns a list of
    (overrides, cell_config) in deterministic order.  Invalid cells raise
    ConfigError with messages prefixed by the cell index.
    """
    base = cfg.to_dict()
    base["experiment"] = cfg.sweep_section.experiment
    base["sweep"] = {"experiment": "custom", "axes": {}}
    base["output"] = {"path": None, "format": cfg.output.format}
    for key in cfg.sweep_section.axes:
        root = key.split(".", 1)[0]
        if root in ("output", "sweep", "experiment", "schema_version"):
            raise ConfigError([f"sweep axes cannot override {root!r}"])
    keys = sorted(cfg.sweep_section.axes)
    grids = [cfg.sweep_section.axes[k] for k in keys]
    cells = []
    indices = [0] * len(keys)
    total = 1
    for g in grids:
        total *= len(g)
    for n in range(total):
        rem, combo = n, []
        for g in reversed(grids):
            rem, pos = divmod(rem, len(g))
            combo.append(pos)
        combo.reverse()
        overrides = {k: grids[i][combo[i]] for i, k in enumerate(keys)}
        cell_raw = copy.deepcopy(base)
        for key, value in overrides.items():
            _set_dotted(cell_raw, key, value)
        cell_cfg, violations = config_from_dict(cell_raw)
        if violations:
            raise ConfigError([f"sweep cell {n}: {v}" for v in violations])
        cells.append((overrides, cell_cfg))
    return cells


# --------------------------------------------------------------------------
# Running experiments
# --------------------------------------------------------------------------


@dataclass(eq=False)
class ExperimentResult:
    experiment: str
    status: str  # "ok" | "halted"
    summary: dict
    files: list


def _resolve_output(cfg, output_dir, default_name):
    path = Path(cfg.output.path) if cfg.output.path else Path(default_name)
    if output_dir is not None and not path.is_absolute():
        path = Path(output_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_records(path, fmt, records, fieldnames):
    """Emit report-style records as JSON lines or a CSV with fixed columns;
    absent values are null/empty.  Floats go through repr for bitwise-stable
    round-trips."""
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps({k: rec.get(k) for k in fieldnames if k in rec}) + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fieldnames)
            for rec in records:
                row = []
                for key in fieldnames:
                    val = rec.get(key)
                    row.append("" if val is None else (repr(val) if isinstance(val, float) else val))
                writer.writerow(row)


def _perturbation_basis(L, subspace):
    if subspace == "coclosed":
        forms = coclosed_directions(L)
    elif subspace == "exact":
        forms = exact_directions(L)
    else:
        return np.eye(DIMS[4])
    return np.column_stack([f.coeffs for f in forms])


def sample_initial(L, base, pcfg, rng, flow_kind="modified_coflow", max_halvings=40):
    """One positivity-validated random perturbation of the base form.

    Draws a unit direction in the configured subspace, scales it by
    ``pcfg.magnitude``, and halves the scale until the perturbed form defines
    a positive structure (3-form check for the Laplacian flow, 4-form
    recovery for the coflow).  Returns (form, scale_used, halvings, state)
    with ``state`` the structure the check built (a CoclosedState or a
    G2Structure), so callers need not recover the form again.
    """
    state_of = CoclosedState.from_psi if flow_kind == "modified_coflow" else G2Structure.from_phi
    if pcfg.magnitude == 0.0:
        return base, 0.0, 0, state_of(base)
    if flow_kind == "modified_coflow":
        basis = _perturbation_basis(L, pcfg.subspace)
    else:
        basis = np.eye(DIMS[3])
    z = rng.standard_normal(basis.shape[1])
    direction = basis @ z
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return base, 0.0, 0, state_of(base)
    direction /= norm
    scale = pcfg.magnitude
    for halvings in range(max_halvings + 1):
        candidate = Form(base.degree, base.coeffs + scale * direction)
        try:
            return candidate, scale, halvings, state_of(candidate)
        except (PositivityError, RecoveryError):
            scale *= 0.5
    raise G2FlowError(
        f"could not find a positive perturbation within {max_halvings} halvings "
        f"of magnitude {pcfg.magnitude}"
    )


def _initial_form(cfg, degree):
    if cfg.initial is None:
        name = "psi_standard" if degree == 4 else "phi_standard"
        return load_form(name)
    if isinstance(cfg.initial, str):
        return load_form(cfg.initial)
    return Form(degree, np.asarray(cfg.initial, dtype=float))


def _run_ee1_static(cfg, path):
    """Reference structure plus ``samples`` random coclosed perturbations,
    each checked for a vanishing coflow right-hand side."""
    L = load_algebra(cfg.algebra_file)
    rng = np.random.default_rng(cfg.perturbation.seed)
    base = _initial_form(cfg, 4)
    state = CoclosedState.from_psi(base)
    standard_rhs = float(np.linalg.norm(coflow_rhs(L, state, cfg.flow.A).coeffs))
    records = [
        {
            "record": "reference",
            "index": None,
            "rhs_norm": standard_rhs,
            "scale": None,
            "halvings": None,
        }
    ]
    n = cfg.samples or 100
    max_rhs = 0.0
    for i in range(n):
        _, scale, halvings, sample_state = sample_initial(L, base, cfg.perturbation, rng)
        rhs = float(np.linalg.norm(coflow_rhs(L, sample_state, cfg.flow.A).coeffs))
        max_rhs = max(max_rhs, rhs)
        records.append(
            {"record": "sample", "index": i, "rhs_norm": rhs, "scale": scale, "halvings": halvings}
        )
    tolerance = 1e-8
    passed = standard_rhs <= 1e-10 and max_rhs <= tolerance
    records.append(
        {
            "record": "summary",
            "index": None,
            "rhs_norm": max_rhs,
            "scale": None,
            "halvings": None,
            "samples": n,
            "reference_rhs_norm": standard_rhs,
            "tolerance": tolerance,
            "passed": passed,
        }
    )
    fieldnames = [
        "record",
        "index",
        "rhs_norm",
        "scale",
        "halvings",
        "samples",
        "reference_rhs_norm",
        "tolerance",
        "passed",
    ]
    _write_records(path, cfg.output.format, records, fieldnames)
    summary = {
        "reference_rhs_norm": standard_rhs,
        "samples": n,
        "max_sample_rhs_norm": max_rhs,
        "tolerance": tolerance,
        "passed": passed,
    }
    return ExperimentResult(
        experiment="ee1_static",
        status="ok" if passed else "halted",
        summary=summary,
        files=[str(path)],
    )


def _run_ee2_family(cfg, path):
    """Tabulate the diagonal-family right-hand-side coefficient.

    Per row: family coefficients c, the computed e^{1357} component of the
    A=0 coflow right-hand side, the closed-form stretch-factor law, the
    same monomial pattern evaluated directly in c, and the largest
    off-component.  The first row is the unit point; the rest are uniform
    draws from [0.5, 2]^7.
    """
    L = load_algebra(cfg.algebra_file)
    rng = np.random.default_rng(cfg.perturbation.seed)
    n = cfg.samples or 20
    records = []
    max_law_err = 0.0
    max_off = 0.0
    direct_agrees = 0
    for i in range(n):
        c = np.ones(7) if i == 0 else rng.uniform(0.5, 2.0, size=7)
        state = G2Structure.from_phi(ee2_diagonal_phi(c))
        rhs = coflow_rhs(L, state, 0.0).coeffs
        computed = float(rhs[_E1357])
        off = float(np.max(np.abs(np.delete(rhs, _E1357))))
        lam = family_stretch_factors(c)
        law = float(family_coefficient_law(lam))
        direct = float(family_monomial_pattern(c))
        law_err = abs(computed - law)
        direct_err = abs(computed - direct)
        scale = max(1.0, abs(computed))
        max_law_err = max(max_law_err, law_err / scale)
        max_off = max(max_off, off / scale)
        if direct_err <= 1e-8 * scale:
            direct_agrees += 1
        rec = {"index": i}
        for j in range(7):
            rec[f"c{j + 1}"] = float(c[j])
        rec.update(
            {
                "coeff_computed": computed,
                "coeff_law": law,
                "law_err": law_err,
                "coeff_direct": direct,
                "direct_err": direct_err,
                "off_max": off,
            }
        )
        records.append(rec)
    fieldnames = ["index"] + [f"c{j + 1}" for j in range(7)] + [
        "coeff_computed",
        "coeff_law",
        "law_err",
        "coeff_direct",
        "direct_err",
        "off_max",
    ]
    _write_records(path, cfg.output.format, records, fieldnames)
    summary = {
        "samples": n,
        "max_law_rel_err": max_law_err,
        "max_off_component": max_off,
        "direct_pattern_agreements": direct_agrees,
        "passed": max_law_err <= 1e-8 and max_off <= 1e-8,
    }
    return ExperimentResult(
        experiment="ee2_family",
        status="ok" if summary["passed"] else "halted",
        summary=summary,
        files=[str(path)],
    )


def _run_flow(cfg, path, experiment):
    """Integrate the configured flow (ee2_flow and custom)."""
    L = load_algebra(cfg.algebra_file)
    base = _initial_form(cfg, 4 if cfg.flow.flow_kind == "modified_coflow" else 3)
    rng = np.random.default_rng(cfg.perturbation.seed)
    _, scale, halvings, state0 = sample_initial(
        L, base, cfg.perturbation, rng, cfg.flow.flow_kind
    )
    trajectory = integrate(L, cfg.flow, state0, reference=base)
    if cfg.output.format == "jsonl":
        trajectory.write_jsonl(path)
    else:
        trajectory.write_csv(path)
    term = trajectory.termination
    summary = {
        "termination": term,
        "perturbation_scale": scale,
        "perturbation_halvings": halvings,
        "records": len(trajectory.states),
        "final_t": trajectory.final.t,
    }
    return ExperimentResult(
        experiment=experiment,
        status="ok" if term["status"] == "completed" else "halted",
        summary=summary,
        files=[str(path)],
    )


def _run_np(cfg, path):
    """Nearly-parallel scalar reduction run."""
    params = NPParams(tau0=cfg.np_section.tau0, A=cfg.flow.A, c0=cfg.np_section.c0)
    traj = np_solve(
        params,
        cfg.flow.integrator.t_end,
        dt=cfg.flow.integrator.dt,
        vol0=cfg.np_section.vol0,
    )
    if cfg.output.format == "csv":
        traj.write_csv(path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(traj.t, traj.c, traj.vol, traj.rhs):
                fh.write(
                    json.dumps(
                        {"t": float(row[0]), "c": float(row[1]), "vol": float(row[2]),
                         "rhs": float(row[3])}
                    )
                    + "\n"
                )
    summary = {
        "status": traj.status,
        "blow_down_time": traj.blow_down_time,
        "closed_form_max_rel_err": traj.closed_form_max_rel_err,
        "t_final": float(traj.t[-1]),
        "c_final": float(traj.c[-1]),
    }
    return ExperimentResult(
        experiment="np",
        status="ok" if traj.status == "completed" else "halted",
        summary=summary,
        files=[str(path)],
    )


def _run_linearize(cfg, path):
    """Finite-difference spectrum at a static point; writes a JSON report."""
    L = load_algebra(cfg.algebra_file)
    base = _initial_form(cfg, 4)
    state = CoclosedState.from_psi(base)
    subspace = cfg.perturbation.subspace
    if subspace == "coclosed":
        directions = coclosed_directions(L)
    elif subspace == "exact":
        directions = exact_directions(L)
    else:
        directions = [Form(4, row) for row in np.eye(DIMS[4])]
    report = linearize(
        L,
        lambda lie, st: coflow_rhs(lie, st, cfg.flow.A),
        state,
        directions,
        eps=cfg.linearize_section.eps,
        static_tol=cfg.linearize_section.static_tol,
    )
    payload = {
        "experiment": "linearize",
        "algebra_file": cfg.algebra_file,
        "subspace": subspace,
        "eps": report.eps,
        "n_directions": len(report.directions),
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "asymmetry_norm": report.asymmetry_norm,
        "matrix": [[float(v) for v in row] for row in report.matrix],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary = {
        "n_directions": payload["n_directions"],
        "eigenvalue_min": min(payload["eigenvalues"]),
        "eigenvalue_max": max(payload["eigenvalues"]),
        "asymmetry_norm": payload["asymmetry_norm"],
    }
    return ExperimentResult(experiment="linearize", status="ok", summary=summary, files=[str(path)])


def _run_sweep(cfg, output_dir, jobs):
    """Run the grid concurrently; every cell writes its own file, and a
    manifest records the override-to-file mapping with per-cell outcomes."""
    cells = expand_sweep(cfg)
    sweep_dir = _resolve_output(cfg, output_dir, "sweep_out")
    sweep_dir.mkdir(parents=True, exist_ok=True)
    ext = "jsonl" if cfg.output.format == "jsonl" else "csv"
    base_exp = cfg.sweep_section.experiment
    if base_exp == "linearize":
        ext = "json"

    def run_cell(item):
        index, (overrides, cell_cfg) = item
        cell_path = sweep_dir / f"cell_{index:03d}.{ext}"
        cell_cfg.output.path = str(cell_path)
        result = _dispatch(cell_cfg, None, jobs=1)
        return index, overrides, result

    outcomes = [None] * len(cells)
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        for index, overrides, result in pool.map(run_cell, enumerate(cells)):
            outcomes[index] = (overrides, result)
    manifest = {
        "experiment": base_exp,
        "axes": cfg.sweep_section.axes,
        "cells": [
            {
                "index": i,
                "overrides": overrides,
                "path": result.files[0],
                "status": result.status,
                "summary": result.summary,
            }
            for i, (overrides, result) in enumerate(outcomes)
        ],
    }
    manifest_path = sweep_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    any_halted = any(result.status != "ok" for _, result in outcomes)
    summary = {
        "cells": len(cells),
        "halted_cells": sum(1 for _, r in outcomes if r.status != "ok"),
        "manifest": str(manifest_path),
    }
    files = [str(manifest_path)] + [r.files[0] for _, r in outcomes]
    return ExperimentResult(
        experiment="sweep",
        status="halted" if any_halted else "ok",
        summary=summary,
        files=files,
    )


def _dispatch(cfg, output_dir, jobs):
    ext = cfg.output.format
    if cfg.experiment == "ee1_static":
        return _run_ee1_static(cfg, _resolve_output(cfg, output_dir, f"ee1_static.{ext}"))
    if cfg.experiment == "ee2_family":
        return _run_ee2_family(cfg, _resolve_output(cfg, output_dir, f"ee2_family.{ext}"))
    if cfg.experiment in ("ee2_flow", "custom"):
        return _run_flow(
            cfg, _resolve_output(cfg, output_dir, f"{cfg.experiment}.{ext}"), cfg.experiment
        )
    if cfg.experiment == "np":
        return _run_np(cfg, _resolve_output(cfg, output_dir, f"np.{ext}"))
    if cfg.experiment == "linearize":
        return _run_linearize(cfg, _resolve_output(cfg, output_dir, "linearize.json"))
    if cfg.experiment == "sweep":
        return _run_sweep(cfg, output_dir, jobs)
    raise ConfigError([f"experiment must be one of {'|'.join(EXPERIMENTS)}"])


def run_experiment(cfg, output_dir=None, jobs=1):
    """Run a validated config; deterministic given (config, seed).

    Relative output paths are resolved under ``output_dir`` when given.
    Returns an ExperimentResult whose status is "ok" or "halted"; config
    problems raise ConfigError, numerical failures raise G2FlowError
    subclasses.
    """
    violations = cfg.flow.violations()
    if violations:
        raise ConfigError(violations)
    return _dispatch(cfg, output_dir, jobs)


def check_fixture(name_or_path):
    """Validate one algebra fixture: loadability, d^2 = 0 (Jacobi) and
    unimodularity; returns a plain dict report."""
    report = {"name": str(name_or_path), "ok": False}
    try:
        L = load_algebra(name_or_path)
    except (FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as exc:
        report["error"] = str(exc)
        return report
    jac = jacobi_check(L)
    report.update(
        {
            "jacobi_ok": jac.ok,
            "jacobi_max_residual": jac.max_residual,
            "unimodular": L.is_unimodular(),
        }
    )
    report["ok"] = jac.ok
    return report
