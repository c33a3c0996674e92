"""Left-invariant G2 structures and Laplacian-type geometric flows on
7-dimensional Lie algebras.

Layered API, bottom up:

* ``exterior``        — dense exterior algebra on a 7-dimensional frame:
  forms, wedge, contraction, metrics, Hodge star;
* ``liealg``          — Lie algebra structures via generator differentials:
  d, codifferential, Hodge Laplacian, connections, Green identity check;
* ``g2core``          — positive 3-forms, induced metrics, dual 4-forms,
  closed-form recovery of phi from psi, torsion;
* ``decomp``          — variation parametrization sigma = alpha ^ phi +
  (1/2) i_phi(h) and the irreducible 2-/3-form decompositions;
* ``flows``           — flow right-hand sides, rk4/rkf45 integration (also
  of ensembles stepped as one stack), DeTurck correction, finite-difference
  linearization;
* ``nearly_parallel`` — the scalar conformal-factor reduction;
* ``experiments``     — JSON configs, named experiments, sweeps;
* ``cli``             — the ``g2flow`` command.
"""

from .conventions import BLOWDOWN_THRESHOLD, NEWTON_MAX_ITER, NEWTON_TOL
from .decomp import (
    SymTensor,
    VariationParts,
    decompose_variation,
    i_phi,
    metric_variation,
    project2,
    project3,
    projector_matrices2,
    projector_matrices3,
    variation_form,
)
from .errors import (
    ConfigError,
    DegreeError,
    G2FlowError,
    MetricError,
    PositivityError,
    RecoveryError,
    UnimodularityError,
)
from .exterior import DIM, DIMS, Form, Metric, contract, form_norm, inner, star, wedge
from .experiments import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    ExperimentConfig,
    ExperimentResult,
    config_from_dict,
    family_coefficient_law,
    family_monomial_pattern,
    family_stretch_factors,
    load_config,
    run_experiment,
    validate_config,
)
from .fixtures import (
    ee2_diagonal_phi,
    diagonal_family_phi,
    load_algebra,
    load_form,
    standard_phi,
    standard_psi,
)
from .flows import (
    DeTurckConfig,
    FlowConfig,
    FlowState,
    HaltConfig,
    IntegratorConfig,
    MonitorConfig,
    SpectrumReport,
    Trajectory,
    closed_directions,
    coflow_rhs,
    deturck_term,
    deturck_vector,
    exact_directions,
    integrate,
    laplacian_flow_rhs,
    linearize,
    volume_monotonicity_criterion,
)
from .g2core import (
    G2Structure,
    TorsionTensor,
    full_torsion,
    hodge_laplacian,
    metric_from_phi,
    phi_of_psi,
    torsion_trace,
)
from .liealg import (
    Connection,
    GreenReport,
    JacobiReport,
    LieAlgebraStructure,
    codifferential,
    differential,
    green_identity_check,
    jacobi_check,
    levi_civita,
    lie_derivative,
)
from .nearly_parallel import NPParams, NPTrajectory, np_closed_form, np_rhs, np_solve

__version__ = "0.1.0"

__all__ = [
    "BLOWDOWN_THRESHOLD",
    "NEWTON_MAX_ITER",
    "NEWTON_TOL",
    "SymTensor",
    "VariationParts",
    "decompose_variation",
    "i_phi",
    "metric_variation",
    "project2",
    "project3",
    "projector_matrices2",
    "projector_matrices3",
    "variation_form",
    "ConfigError",
    "DegreeError",
    "G2FlowError",
    "MetricError",
    "PositivityError",
    "RecoveryError",
    "UnimodularityError",
    "DIM",
    "DIMS",
    "Form",
    "Metric",
    "contract",
    "form_norm",
    "inner",
    "star",
    "wedge",
    "EXPERIMENTS",
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "ExperimentResult",
    "config_from_dict",
    "family_coefficient_law",
    "family_monomial_pattern",
    "family_stretch_factors",
    "load_config",
    "run_experiment",
    "validate_config",
    "ee2_diagonal_phi",
    "diagonal_family_phi",
    "load_algebra",
    "load_form",
    "standard_phi",
    "standard_psi",
    "DeTurckConfig",
    "FlowConfig",
    "FlowState",
    "HaltConfig",
    "IntegratorConfig",
    "MonitorConfig",
    "SpectrumReport",
    "Trajectory",
    "closed_directions",
    "coflow_rhs",
    "deturck_term",
    "deturck_vector",
    "exact_directions",
    "integrate",
    "laplacian_flow_rhs",
    "linearize",
    "volume_monotonicity_criterion",
    "G2Structure",
    "TorsionTensor",
    "full_torsion",
    "hodge_laplacian",
    "metric_from_phi",
    "phi_of_psi",
    "torsion_trace",
    "Connection",
    "GreenReport",
    "JacobiReport",
    "LieAlgebraStructure",
    "codifferential",
    "differential",
    "green_identity_check",
    "jacobi_check",
    "levi_civita",
    "lie_derivative",
    "NPParams",
    "NPTrajectory",
    "np_closed_form",
    "np_rhs",
    "np_solve",
    "__version__",
]
