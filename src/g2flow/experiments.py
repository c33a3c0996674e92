"""Experiment orchestration: JSON configs, named experiments, sweeps.

A config is a JSON object with an explicit ``schema_version`` (currently 1).
Validation never stops at the first problem: it returns the complete list of
violations, and a valid config is echoed back fully defaulted, so every
implicit value is visible.  Given the same config and seed, every experiment
writes bitwise-identical output files.

Randomness (perturbation sampling) uses numpy's ``default_rng`` — the PCG64
generator — seeded from ``perturbation.seed``, so runs are reproducible
bitwise within this implementation and statistically comparable across
implementations of the same sampling recipe; a flow run that draws nothing
(``magnitude`` 0) makes no generator.  The degree of the base form
decides what a draw needs: directions come from the closed (``coclosed``)
or exact forms of that degree (``flows.closed_directions`` and
``flows.exact_directions``; closed psi for the coflow, closed phi for the
Laplacian flow), and a 4-form is checked by its recovery (``phi_of_psi``),
a 3-form by its induced metric.  ``linearize`` probes the same 4-form
bases.  A flow run hands ``integrate`` the sampled form itself.

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
  experiment, one output file per cell plus a manifest.

A single run is a sweep of one cell: both go through ``_run_cells``, which
loads each distinct algebra once per run.  Flow cells on the same algebra
whose flow sections agree apart from flow.A (``_lockstep_groups``) step
together as the rows of one ``integrate`` ensemble; the other cells run
one after another through ``_RUNNERS``.  A numerical halt raised by one
cell's sampling or runner halts that cell only; a single run raises it.

``ee1_static``, ``ee2_family`` and ``linearize`` evaluate their states as
stacks, through the one stacked evaluation of the flow engine
(``flows._stacked_rhs``): the samples of the first two in blocks of up to
``_STACK_ROWS`` rows, the perturbed states of ``linearize`` as one stack.
A row that fails a check there is evaluated alone there, and the callers
only read the errors and the norms: an ``ee1_static`` sample whose
evaluation alone raised is sampled again by the halving loop of
``sample_initial`` from its first halving, and every caller raises on a
right-hand side that left the finite range; ``ee2_family`` and
``linearize`` raise the first failure, in row order.
"""

from __future__ import annotations

import collections
import copy
import csv
import functools
import itertools
import json
import math
import typing
import weakref
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, G2FlowError, PositivityError, RecoveryError
from .exterior import BASIS, DIMS, Form, _is_finite_number
from .fixtures import ee2_diagonal_phi, load_algebra, load_form
from .flows import (
    FINITE,
    MONITORS,
    NON_NEGATIVE,
    NON_NEGATIVE_INT,
    POSITIVE,
    POSITIVE_INT,
    RECORD_FIELDS,
    NONFINITE_RHS,
    FlowConfig,
    _raise_row_error,
    _stacked_rhs,
    _structure_rhs,
    closed_directions,
    exact_directions,
    integrate,
    linearize,
    one_of,
    rule_violations,
)
from .g2core import G2Structure, _norms, phi_of_psi
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

_MAX_SWEEP_CELLS = 1000
# Rows per stacked evaluation of sampled states.  The temporaries of a
# stack grow by about 20 KB a row; at 25 rows they leave the peak memory of
# a run where one-by-one evaluation has it, and larger stacks are no faster.
_STACK_ROWS = 25
# Halvings of a sampled perturbation's scale before sampling gives up.
_MAX_HALVINGS = 40
_PSI_COLUMNS = [f"psi_{i:02d}" for i in range(DIMS[4])]


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
#
# The schema is the dataclasses below and the flow sections of FlowConfig:
# each field is read, type-checked, range-checked and echoed from its
# declaration, in declaration order.  Field metadata carries the field's
# range or choice "rule" (see flows.rule_violations), the JSON "key" where it
# differs from the attribute name, a "read" function for the fields that are
# not plain float/int/bool/str leaves, and for the experiment-specific
# sections the "when" condition under which their rules are checked.

# Defaults that depend on the experiment, keyed by dotted config path.
_EXPERIMENT_DEFAULTS = {
    "ee1_static": {"algebra_file": "ee1", "samples": 100, "perturbation.magnitude": 0.25},
    "ee2_family": {"algebra_file": "ee2", "samples": 20},
    "ee2_flow": {"algebra_file": "ee2"},
    "linearize": {"algebra_file": "ee1"},
}

# Accepted JSON types of a leaf, by annotation, and the message otherwise.
_LEAF_TYPES = {
    float: ((int, float), "must be a number"),
    int: ((int,), "must be an integer"),
    bool: ((bool,), "must be true or false"),
    str: ((str,), "must be a string"),
}


def _read_initial(value, label, violations):
    """A form fixture name, or an inline list of 35 finite coefficients."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, list) and len(value) == DIMS[3] and all(map(_is_finite_number, value)):
        return [float(v) for v in value]
    violations.append(f"{label} must be a fixture name or a list of {DIMS[3]} numbers")
    return None


def _read_axes(value, label, violations):
    if isinstance(value, dict):
        return value
    violations.append(f"{label} must be an object mapping config paths to value lists")
    return {}


def _experiment_section(cls, key):
    """A section under JSON ``key`` that every config may hold, but whose
    rules are checked only for the experiment of the same name."""
    return field(
        default_factory=cls, metadata={"key": key, "when": lambda cfg: cfg.experiment == key}
    )


@dataclass
class PerturbationConfig:
    magnitude: float = field(default=0.0, metadata=NON_NEGATIVE)
    seed: int = field(default=0, metadata=NON_NEGATIVE_INT)
    subspace: str = field(default="coclosed", metadata=one_of(SUBSPACES))


@dataclass
class OutputConfig:
    path: str | None = None
    format: str = field(default="jsonl", metadata=one_of(OUTPUT_FORMATS))


@dataclass
class NPSection:
    tau0: float = field(default=1.0, metadata=FINITE)
    c0: float = field(default=1.0, metadata=POSITIVE)
    vol0: float = field(default=1.0, metadata=POSITIVE)


@dataclass
class LinearizeSection:
    eps: float = field(default=1e-5, metadata=POSITIVE)
    static_tol: float = field(default=1e-8, metadata=POSITIVE)


@dataclass
class SweepSection:
    experiment: str = field(
        default="custom", metadata=one_of(tuple(e for e in EXPERIMENTS if e != "sweep"))
    )
    axes: dict = field(default_factory=dict, metadata={"read": _read_axes})


@dataclass
class ExperimentConfig:
    experiment: str
    algebra_file: str | None = None
    initial: object = field(default=None, metadata={"read": _read_initial})
    samples: int | None = field(default=None, metadata=POSITIVE_INT)
    flow: FlowConfig = field(default_factory=FlowConfig)
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)
    np_section: NPSection = _experiment_section(NPSection, "np")
    linearize_section: LinearizeSection = _experiment_section(LinearizeSection, "linearize")
    sweep_section: SweepSection = _experiment_section(SweepSection, "sweep")
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self):
        """Fully-defaulted echo of the config (every implicit value made
        explicit), suitable for re-ingestion."""
        return {"schema_version": SCHEMA_VERSION, **_echo(self)}


def _key(f):
    return f.metadata.get("key", f.name)


# Resolved field annotations of a section class (they are strings here).
_hints = functools.cache(typing.get_type_hints)


def _echo(section):
    out = {}
    for f in fields(section):
        value = getattr(section, f.name)
        out[_key(f)] = _echo(value) if is_dataclass(value) else copy.deepcopy(value)
    return out


def _check_unknown(cls, raw, path, violations, also=()):
    known = {_key(f) for f in fields(cls)}.union(also)
    where = f"{path}: " if path else ""
    violations += [f"{where}unknown field {key!r}" for key in raw if key not in known]


def _read_leaf(hint, value, default, label, violations):
    """Type-check one JSON value; null is accepted only when the default is None."""
    if value is None and default is None:
        return None
    kind = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    types, message = _LEAF_TYPES[kind]
    if isinstance(value, types) and (kind is bool or not isinstance(value, bool)):
        try:
            return float(value) if kind is float else value
        except OverflowError:  # an integer beyond the float range
            pass
    violations.append(f"{label} {message}")
    return default


def _read_fields(cls, raw, path, violations, defaults):
    """Field values of a ``cls`` read from the JSON object ``raw``; absent
    fields take ``defaults[dotted path]`` or else the declared default."""
    hints = _hints(cls)
    values = {}
    for f in fields(cls):
        key = _key(f)
        label = f"{path}.{key}" if path else key
        if is_dataclass(hints[f.name]):
            values[f.name] = _read_section(
                hints[f.name], raw.get(key), label, violations, defaults
            )
            continue
        if label in defaults:
            default = defaults[label]
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = None if f.default is MISSING else f.default
        if key not in raw:
            values[f.name] = default
        elif "read" in f.metadata:
            values[f.name] = f.metadata["read"](raw[key], label, violations)
        else:
            values[f.name] = _read_leaf(hints[f.name], raw[key], default, label, violations)
    return values


def _read_section(cls, raw, path, violations, defaults):
    """A ``cls`` read from one JSON object; null reads as an empty object."""
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        violations.append(f"{path} must be an object")
        raw = {}
    _check_unknown(cls, raw, path, violations)
    return cls(**_read_fields(cls, raw, path, violations, defaults))


def config_from_dict(raw, checked=None):
    """Build an ExperimentConfig from a parsed JSON object.

    Returns (config-or-None, violations).  The config is fully defaulted;
    it is None exactly when violations is non-empty.  ``checked`` maps each
    algebra_file this validation has checked to its violations; a sweep
    passes one to all its cells, so each distinct algebra loads once.
    """
    if not isinstance(raw, dict):
        return None, ["config must be an object"]
    violations = []
    _check_unknown(ExperimentConfig, raw, "", violations, also=("schema_version",))
    version = raw.get("schema_version")
    if version is None:
        violations.append(f"schema_version is required (current version {SCHEMA_VERSION})")
    elif version != SCHEMA_VERSION:
        violations.append(
            f"unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})"
        )
    # A non-string experiment is reported by the field reader.
    experiment = raw.get("experiment")
    if experiment is None:
        violations.append(f"experiment is required; one of {'|'.join(EXPERIMENTS)}")
    elif isinstance(experiment, str) and experiment not in EXPERIMENTS:
        violations.append(
            f"experiment must be one of {'|'.join(EXPERIMENTS)}, got {experiment!r}"
        )
    cfg = ExperimentConfig(**_read_fields(ExperimentConfig, raw, "", violations, _defaults(raw)))
    violations += rule_violations(cfg)
    violations += _semantic_violations(cfg, {} if checked is None else checked)
    if violations:
        return None, violations
    return cfg, []


def _defaults(raw):
    """The experiment-dependent defaults of a raw config; a sweep takes those
    of the experiment it sweeps, so its cells inherit them."""
    experiment = raw.get("experiment")
    if experiment == "sweep":
        section = raw.get("sweep")
        experiment = section.get("experiment") if isinstance(section, dict) else None
    return _EXPERIMENT_DEFAULTS.get(experiment, {}) if isinstance(experiment, str) else {}


def _semantic_violations(cfg, checked):
    """Cross-field checks: referenced fixtures exist, degrees line up,
    experiment-specific constraints.  ``checked`` is ``config_from_dict``'s."""
    out = []
    experiment = cfg.experiment
    if experiment is None or experiment not in EXPERIMENTS:
        return out
    if experiment == "np":
        return out
    if (
        experiment in ("ee1_static", "ee2_family", "linearize")
        and cfg.flow.flow_kind != "modified_coflow"
    ):
        out.append(f"{experiment} requires flow.flow_kind = modified_coflow")
    if experiment == "ee2_family":
        if cfg.flow.A != 0.0:
            out.append("ee2_family requires flow.A = 0 (the coefficient law is the A=0 one)")
        if cfg.algebra_file is None:
            out.append("algebra_file is required")
        else:
            out += _check_algebra(cfg.algebra_file, checked)
        return out
    if experiment == "sweep":
        axes = cfg.sweep_section.axes
        for key, values in axes.items():
            if not isinstance(key, str) or not key:
                out.append("sweep.axes keys must be non-empty dotted config paths")
            if not isinstance(values, list) or not values:
                out.append(f"sweep.axes[{key!r}] must be a non-empty list of values")
        # The cells are expanded only from a sound sweep section.
        if out or rule_violations(cfg.sweep_section):
            return out
        # The limit is checked on the axis lengths, before any cell is built.
        n_cells = math.prod(map(len, axes.values()))
        if not axes:
            out.append("sweep.axes must define at least one axis")
        elif n_cells > _MAX_SWEEP_CELLS:
            out.append(f"sweep has {n_cells} cells, exceeding the {_MAX_SWEEP_CELLS} limit")
        else:
            # The cells stay with the config, and a run of it runs them: a
            # sweep is expanded, and its cells validated, once.
            try:
                cfg._cells = expand_sweep(cfg, checked)
            except ConfigError as exc:
                out += exc.violations
        return out
    if cfg.algebra_file is None:
        out.append(f"algebra_file is required for experiment {experiment!r}")
    else:
        out += _check_algebra(cfg.algebra_file, checked)
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
    # Both flows hold on closed forms only: drawn (magnitude > 0) or
    # probed (linearize) directions stay in a closed subspace.
    if cfg.perturbation.subspace == "full" and (
        cfg.perturbation.magnitude > 0 or experiment == "linearize"
    ):
        out.append(
            "perturbation.subspace must be 'coclosed' or 'exact' where directions are "
            "drawn or probed (full directions leave the closed forms)"
        )
    return out


def _load_algebra(name_or_path):
    """``load_algebra``, with a missing or malformed file raised as a
    ConfigError."""
    try:
        return load_algebra(name_or_path)
    except FileNotFoundError as exc:
        raise ConfigError([f"algebra_file: {exc}"]) from None
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError([f"algebra_file: malformed algebra file ({exc})"]) from None


def _check_algebra(name_or_path, checked):
    """The violations of an algebra that flow right-hand sides are taken
    on: it must load, and be unimodular.  An algebra in ``checked`` (name
    -> violations) is not loaded again; a new one is entered there."""
    if name_or_path not in checked:
        checked[name_or_path] = _algebra_violations(name_or_path)
    return checked[name_or_path]


def _algebra_violations(name_or_path):
    try:
        L = _load_algebra(name_or_path)
    except ConfigError as exc:
        return exc.violations
    if not L.is_unimodular():
        return [
            "algebra_file: the algebra is not unimodular, and the flow right-hand "
            "sides need a unimodular algebra"
        ]
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


def expand_sweep(cfg, checked=None):
    """Cartesian product of the sweep axes applied to the base config.

    Axis keys are dotted config paths ("flow.A", "perturbation.seed",
    "initial", ...), iterated in sorted key order; returns a list of
    (overrides, cell_config) in deterministic order.  Invalid cells raise
    one ConfigError with all their messages, prefixed by the cell index.
    The cells share ``checked`` (see ``config_from_dict``).
    """
    checked = {} if checked is None else checked
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
    cells, violations = [], []
    for n, combo in enumerate(itertools.product(*grids)):
        overrides = dict(zip(keys, combo))
        cell_raw = copy.deepcopy(base)
        for key, value in overrides.items():
            _set_dotted(cell_raw, key, value)
        cell_cfg, cell_violations = config_from_dict(cell_raw, checked)
        violations += [f"sweep cell {n}: {v}" for v in cell_violations]
        cells.append((overrides, cell_cfg))
    if violations:
        raise ConfigError(violations)
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


def _output_name(cfg, index=None):
    """Default output file name: ``<experiment>.<format>`` for a run and
    ``cell_NNN.<format>`` for cell ``index`` of a sweep (``linearize``
    writes a JSON report whatever the format)."""
    stem = cfg.experiment if index is None else f"cell_{index:03d}"
    return f"{stem}.{'json' if cfg.experiment == 'linearize' else cfg.output.format}"


def _output_path(cfg, output_dir, default_name):
    path = Path(cfg.output.path) if cfg.output.path else Path(default_name)
    if output_dir is not None and not path.is_absolute():
        path = Path(output_dir) / path
    return path


def _make_dir(path):
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError([f"output directory {str(path)!r} is not a directory"]) from None


def _resolve_output(cfg, output_dir, default_name):
    path = _output_path(cfg, output_dir, default_name)
    if path.is_dir():
        raise ConfigError([f"output file {str(path)!r} is a directory"])
    _make_dir(path.parent)
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


# The perturbation bases of each algebra by (subspace, degree), kept while
# the algebra lives: a run loads each algebra once, so it computes each
# basis once, not once per cell or per sample.
_BASES = weakref.WeakKeyDictionary()


def _perturbation_basis(L, subspace, degree):
    """Columns spanning the degree-k forms of a perturbation subspace, the
    closed ones (``coclosed``) or the exact ones, from which draws and
    probes are taken (read-only, shared by every draw on the algebra L)."""
    bases = _BASES.setdefault(L, {})
    key = (subspace, degree)
    if key not in bases:
        directions = closed_directions if subspace == "coclosed" else exact_directions
        columns = [f.coeffs for f in directions(L, degree)]
        # An empty subspace (the exact forms of an abelian algebra) has no columns.
        basis = np.column_stack(columns) if columns else np.zeros((DIMS[degree], 0))
        basis.flags.writeable = False
        bases[key] = basis
    return bases[key]


def sample_initial(L, base, pcfg, rng):
    """One positivity-validated random perturbation of the base form.

    Draws a unit direction in the configured subspace of the base form's
    degree, scales it by ``pcfg.magnitude``, and halves the scale until the
    perturbed form defines a positive structure (the 3-form check of a
    3-form, the recovery of a 4-form).  Returns (form, scale_used,
    halvings, state) with ``state`` the G2Structure the check built.
    """
    state_of = phi_of_psi if base.degree == 4 else G2Structure.from_phi
    if pcfg.magnitude == 0.0:
        return base, 0.0, 0, state_of(base)
    basis = _perturbation_basis(L, pcfg.subspace, base.degree)
    direction = _unit_directions(basis, rng.standard_normal(basis.shape[1]))
    if not direction.any():
        return base, 0.0, 0, state_of(base)
    return _halve_until_positive(base, direction, pcfg.magnitude, state_of)


def _halve_until_positive(base, direction, magnitude, state_of, first=0):
    """The first of base + scale * direction, scale = magnitude, magnitude/2,
    ..., on which ``state_of`` succeeds: (form, scale, halvings, state).
    The loop starts at ``first`` halvings, past candidates known to fail."""
    scale = magnitude * 0.5**first
    for halvings in range(first, _MAX_HALVINGS + 1):
        candidate = Form(base.degree, base.coeffs + scale * direction)
        try:
            return candidate, scale, halvings, state_of(candidate)
        except (PositivityError, RecoveryError):
            scale *= 0.5
    raise G2FlowError(
        f"could not find a positive perturbation within {_MAX_HALVINGS} halvings "
        f"of magnitude {magnitude}"
    )


def _unit_directions(basis, z):
    """The directions basis @ z (one, or one per row of z) scaled to unit
    length; a zero direction stays zero."""
    direction = z @ basis.T
    norm = _norms(direction)[..., None]
    return np.divide(direction, norm, out=np.zeros_like(direction), where=norm != 0.0)


def _sample_directions(L, pcfg, rng, n):
    """The unit directions of ``n`` coflow draws of ``sample_initial``, as
    one (n, k) block of the same random stream (zero rows where it draws
    none)."""
    if pcfg.magnitude == 0.0:
        return np.zeros((n, DIMS[4]))
    basis = _perturbation_basis(L, pcfg.subspace, 4)
    return _unit_directions(basis, rng.standard_normal((n, basis.shape[1])))


def _row_blocks(n):
    """Slices of at most ``_STACK_ROWS`` rows that cover n rows in order."""
    return [slice(start, start + _STACK_ROWS) for start in range(0, n, _STACK_ROWS)]


def _initial_form(cfg, degree, loaded=None):
    """The configured initial form: a fixture (the standard psi or phi by
    default) or an inline coefficient list.  A fixture already in
    ``loaded`` (name -> Form) is not read again; one read is entered there."""
    if isinstance(cfg.initial, list):
        return Form(degree, np.asarray(cfg.initial, dtype=float))
    name = cfg.initial
    if name is None:
        name = "psi_standard" if degree == 4 else "phi_standard"
    if loaded is None:
        return load_form(name)
    if name not in loaded:
        loaded[name] = load_form(name)
    return loaded[name]


def _require_closed(L, form, tol):
    """Halt on a base form that is not closed to ``tol``: the right-hand
    sides are exact forms, which equal the flow only on closed input."""
    residual = float(np.linalg.norm(L.differential_matrix(form.degree) @ form.coeffs))
    if residual > tol:
        raise G2FlowError(
            f"closedness: the initial {form.degree}-form is not closed "
            f"(|d| = {residual:.3e} exceeds halt.closedness_tol = {tol:.1e})"
        )


def _run_ee1_static(cfg, L, path):
    """Reference structure plus ``samples`` random coclosed perturbations,
    each checked for a vanishing coflow right-hand side."""
    rng = np.random.default_rng(cfg.perturbation.seed)
    base = _initial_form(cfg, 4)
    _require_closed(L, base, cfg.flow.halt.closedness_tol)
    standard_rhs = float(_structure_rhs(L, "modified_coflow", phi_of_psi(base), cfg.flow.A)[2])

    def record(kind, rhs_norm, index=None, scale=None, halvings=None, **summary):
        return dict(record=kind, index=index, rhs_norm=rhs_norm, scale=scale,
                    halvings=halvings, **summary)

    records = [record("reference", standard_rhs)]
    n = cfg.samples
    direction = _sample_directions(L, cfg.perturbation, rng, n)
    scales = np.where(direction.any(axis=1), cfg.perturbation.magnitude, 0.0)
    max_rhs = 0.0
    for rows in _row_blocks(n):
        psi = base.coeffs + scales[rows, None] * direction[rows]
        _, _, _, norms, alone = _stacked_rhs(L, "modified_coflow", 4, cfg.flow.A, psi)
        for i, r in zip(range(n)[rows], norms.tolist()):
            scale, h = scales[i], 0
            if isinstance(alone.get(i - rows.start), G2FlowError):
                # A row whose evaluation alone raised is sampled as
                # sample_initial samples it, right-hand side included, from
                # its first halving: the row was its candidate at halving 0.
                _, scale, h, state = _halve_until_positive(
                    base, direction[i], scales[i], phi_of_psi, first=1
                )
                r = float(_structure_rhs(L, "modified_coflow", state, cfg.flow.A)[2])
            max_rhs = max(max_rhs, r)
            records.append(record("sample", r, i, float(scale), h))
    if not all(math.isfinite(rec["rhs_norm"]) for rec in records):
        raise G2FlowError(NONFINITE_RHS)
    tolerance = 1e-8
    passed = standard_rhs <= 1e-10 and max_rhs <= tolerance
    records.append(record("summary", max_rhs, samples=n, reference_rhs_norm=standard_rhs,
                          tolerance=tolerance, passed=passed))
    # The summary record carries every column, in order.
    _write_records(path, cfg.output.format, records, list(records[-1]))
    summary = {
        "reference_rhs_norm": standard_rhs,
        "samples": n,
        "max_sample_rhs_norm": max_rhs,
        "tolerance": tolerance,
        "passed": passed,
    }
    return passed, summary


def _run_ee2_family(cfg, L, path):
    """Tabulate the diagonal-family right-hand-side coefficient.

    Per row: family coefficients c, the computed e^{1357} component of the
    A=0 coflow right-hand side, the closed-form stretch-factor law, the
    same monomial pattern evaluated directly in c, and the largest
    off-component.  The first row is the unit point; the rest are uniform
    draws from [0.5, 2]^7.
    """
    rng = np.random.default_rng(cfg.perturbation.seed)
    n = cfg.samples
    records, max_law_err, max_off, direct_agrees = [], 0.0, 0.0, 0
    for rows in _row_blocks(n):
        c = [np.ones(7) if i == 0 else rng.uniform(0.5, 2.0, size=7) for i in range(n)[rows]]
        phi = np.array([ee2_diagonal_phi(ci).coeffs for ci in c])
        _, rhs, _, norms, alone = _stacked_rhs(L, "modified_coflow", 3, 0.0, phi)
        _raise_row_error(alone, norms)
        for i, ci, row in zip(range(n)[rows], c, rhs):
            computed = float(row[_E1357])
            off = float(np.max(np.abs(np.delete(row, _E1357))))
            law = float(family_coefficient_law(family_stretch_factors(ci)))
            direct = float(family_monomial_pattern(ci))
            law_err, direct_err = abs(computed - law), abs(computed - direct)
            scale = max(1.0, abs(computed))
            max_law_err = max(max_law_err, law_err / scale)
            max_off = max(max_off, off / scale)
            if direct_err <= 1e-8 * scale:
                direct_agrees += 1
            records.append(
                {"index": i, **{f"c{j + 1}": float(ci[j]) for j in range(7)}}
                | {"coeff_computed": computed, "coeff_law": law, "law_err": law_err}
                | {"coeff_direct": direct, "direct_err": direct_err, "off_max": off}
            )
    _write_records(path, cfg.output.format, records, list(records[0]))
    summary = {
        "samples": n,
        "max_law_rel_err": max_law_err,
        "max_off_component": max_off,
        "direct_pattern_agreements": direct_agrees,
        "passed": max_law_err <= 1e-8 and max_off <= 1e-8,
    }
    return summary["passed"], summary


# What a flow run needs before it steps: its base form and sampled start,
# with the sampling's scale and halvings.
_FlowStart = collections.namedtuple("_FlowStart", "base scale halvings form")


def _flow_start(cfg, L, loaded):
    """Sample the start of a flow config; ``loaded`` holds the form
    fixtures already read (see ``_initial_form``)."""
    base = _initial_form(cfg, 4 if cfg.flow.flow_kind == "modified_coflow" else 3, loaded)
    # A start that draws nothing makes no generator (nor imports numpy.random).
    pcfg = cfg.perturbation
    rng = np.random.default_rng(pcfg.seed) if pcfg.magnitude else None
    form, scale, halvings, _ = sample_initial(L, base, pcfg, rng)
    return _FlowStart(base, scale, halvings, form)


def _lockstep_key(cfg):
    """The key of the cells that step as one ensemble (``integrate`` with a
    list of starts), or None for a cell that is no flow run: flow runs on
    the same algebra whose flow sections agree apart from flow.A."""
    if cfg.experiment not in _FLOWS:
        return None
    section = _echo(cfg.flow)
    del section["A"]
    return json.dumps([cfg.algebra_file, section], sort_keys=True)


def _lockstep_groups(cfgs):
    """The indices of ``cfgs`` grouped by ``_lockstep_key``, in order of
    their first member; a config without a key is a group of its own."""
    groups, by_key = [], {}
    for i, cfg in enumerate(cfgs):
        key = _lockstep_key(cfg)
        if key is not None and key in by_key:
            by_key[key].append(i)
        else:
            groups.append([i])
            if key is not None:
                by_key[key] = groups[-1]
    return groups


def _write_flow(cfg, start, trajectory, path):
    """Stream a trajectory's records, one row at a time, as ``_write_records``
    would write them: a JSON line per record, or a CSV row that flattens psi
    into psi_00..psi_34, with floats through repr and None as an empty field."""
    if cfg.output.format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for row in trajectory.rows():
                fh.write(json.dumps(dict(zip(RECORD_FIELDS, row))) + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["t", *_PSI_COLUMNS, *MONITORS]) + "\r\n")
            for t, psi, *monitors in trajectory.rows():
                empty_or_repr = ("" if v is None else repr(v) for v in monitors)
                fh.write(",".join([repr(t), *map(repr, psi), *empty_or_repr]) + "\r\n")
    term = trajectory.termination
    summary = {
        "termination": term,
        "perturbation_scale": start.scale,
        "perturbation_halvings": start.halvings,
        "records": len(trajectory.t),
        "final_t": float(trajectory.t[-1]),
    }
    return term["status"] == "completed", summary


def _run_np(cfg, L, path):
    """Nearly-parallel scalar reduction run."""
    params = NPParams(tau0=cfg.np_section.tau0, A=cfg.flow.A, c0=cfg.np_section.c0)
    traj = np_solve(
        params,
        cfg.flow.integrator.t_end,
        dt=cfg.flow.integrator.dt,
        vol0=cfg.np_section.vol0,
    )
    fieldnames = ["t", "c", "vol", "rhs"]
    # tolist() gives Python floats, which print the same through repr and json.
    columns = [getattr(traj, name).tolist() for name in fieldnames]
    records = [dict(zip(fieldnames, row)) for row in zip(*columns)]
    _write_records(path, cfg.output.format, records, fieldnames)
    summary = {
        "status": traj.status,
        "blow_down_time": traj.blow_down_time,
        "closed_form_max_rel_err": traj.closed_form_max_rel_err,
        "t_final": float(traj.t[-1]),
        "c_final": float(traj.c[-1]),
    }
    return traj.status == "completed", summary


def _run_linearize(cfg, L, path):
    """Finite-difference spectrum at a static point; writes a JSON report."""
    base = _initial_form(cfg, 4)
    _require_closed(L, base, cfg.flow.halt.closedness_tol)
    subspace = cfg.perturbation.subspace
    report = linearize(
        L,
        base,
        [Form(4, b) for b in _perturbation_basis(L, subspace, 4).T],
        A=cfg.flow.A,
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
    return True, summary


# The experiments that integrate a flow, and the runners of the others:
# runner(cfg, L, path) writes the output file and returns (ok, summary).
_FLOWS = ("ee2_flow", "custom")
_RUNNERS = {
    "ee1_static": _run_ee1_static,
    "ee2_family": _run_ee2_family,
    "np": _run_np,
    "linearize": _run_linearize,
}


def _result(experiment, ok, summary, files):
    return ExperimentResult(
        experiment=experiment,
        status="ok" if ok else "halted",
        summary=summary,
        files=[str(f) for f in files],
    )


def _halt_of(fn, *args):
    """fn(*args), or the numerical halt (no ConfigError) that it raised."""
    try:
        return fn(*args)
    except ConfigError:
        raise
    except G2FlowError as exc:
        return exc


def _run_cells(cfgs, output_dir):
    """Run configs that are not sweeps: the one config of a run, or the
    cells of a sweep.

    Each distinct algebra, and each form fixture that flow configs start
    from, is loaded once.  The starts of the flow configs (ee2_flow and
    custom) are sampled first, in order; then the configs of each
    ``_lockstep_groups`` group whose sampling succeeded step as one
    ensemble.  The other configs run one after another.  Returns (one
    outcome per config, the groups): its result, or the numerical halt its
    sampling or runner raised, which leaves the other configs as they are.
    """
    paths = [_resolve_output(cfg, output_dir, _output_name(cfg)) for cfg in cfgs]
    algebras = {}
    for cfg in cfgs:
        # np reduces the flow to a scalar ODE and reads no algebra.
        if cfg.experiment != "np" and cfg.algebra_file not in algebras:
            algebras[cfg.algebra_file] = _load_algebra(cfg.algebra_file)
    loaded = {}
    outcomes = {
        i: _halt_of(_flow_start, cfg, algebras[cfg.algebra_file], loaded)
        for i, cfg in enumerate(cfgs)
        if cfg.experiment in _FLOWS
    }
    groups = _lockstep_groups(cfgs)
    for group in groups:
        cfg = cfgs[group[0]]
        L = algebras.get(cfg.algebra_file)
        if cfg.experiment not in _FLOWS:  # a group of one
            outcomes[group[0]] = _halt_of(_RUNNERS[cfg.experiment], cfg, L, paths[group[0]])
            continue
        rows = [i for i in group if isinstance(outcomes[i], _FlowStart)]
        trajectories = integrate(
            L,
            cfg.flow,
            [outcomes[i].form for i in rows],
            reference=[outcomes[i].base for i in rows],
            A=[cfgs[i].flow.A for i in rows],
        )
        for i, trajectory in zip(rows, trajectories):
            outcomes[i] = _write_flow(cfgs[i], outcomes[i], trajectory, paths[i])
    results = [
        outcomes[i] if isinstance(outcomes[i], G2FlowError)
        else _result(cfg.experiment, *outcomes[i], [path])
        for i, (cfg, path) in enumerate(zip(cfgs, paths))
    ]
    return results, groups


def _run_sweep(cfg, output_dir):
    """Run the grid; every cell writes its own file, and a manifest records
    the override-to-file mapping with per-cell outcomes.  The cells are
    those that validation expanded (``config_from_dict``); a config built
    otherwise is expanded here."""
    cells = getattr(cfg, "_cells", None) or expand_sweep(cfg)
    sweep_dir = _output_path(cfg, output_dir, "sweep_out")
    _make_dir(sweep_dir)
    cfgs = [cell_cfg for _, cell_cfg in cells]
    for index, cell_cfg in enumerate(cfgs):
        cell_cfg.output.path = str(sweep_dir / _output_name(cell_cfg, index))
    results, groups = _run_cells(cfgs, None)
    # A cell that raised a numerical halt has no file; the others are written.
    results = [
        _result(cell_cfg.experiment, False, {"error": str(r)}, [])
        if isinstance(r, G2FlowError) else r
        for cell_cfg, r in zip(cfgs, results)
    ]
    manifest = {
        "experiment": cfg.sweep_section.experiment,
        "axes": cfg.sweep_section.axes,
        "cells": [
            {
                "index": i,
                "overrides": overrides,
                "path": result.files[0] if result.files else None,
                "status": result.status,
                "summary": result.summary,
            }
            for i, ((overrides, _), result) in enumerate(zip(cells, results))
        ],
    }
    manifest_path = sweep_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    halted = sum(1 for r in results if r.status != "ok")
    summary = {
        "cells": len(cells),
        "halted_cells": halted,
        "manifest": str(manifest_path),
        "lockstep_groups": groups,
    }
    files = [manifest_path] + [f for r in results for f in r.files]
    return _result("sweep", halted == 0, summary, files)


def run_experiment(cfg, output_dir=None):
    """Run a validated config; deterministic given (config, seed).

    Relative output paths are resolved under ``output_dir`` when given.
    Returns an ExperimentResult whose status is "ok" or "halted"; config
    problems raise ConfigError, and numerical failures raise G2FlowError
    subclasses, but for those of a sweep cell, which halt that cell only.
    """
    violations = rule_violations(cfg)
    if violations:
        raise ConfigError(violations)
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError([f"experiment must be one of {'|'.join(EXPERIMENTS)}"])
    if cfg.experiment == "sweep":
        return _run_sweep(cfg, output_dir)
    (result,), _ = _run_cells([cfg], output_dir)
    if isinstance(result, G2FlowError):
        raise result
    return result


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
