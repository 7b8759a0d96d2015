"""Entropic optimal transport with screened dual variables.

The package solves the entropy-regularized transport problem two ways: the
classical Sinkhorn scaling loop, and a screened formulation that freezes
provably-negligible dual variables at a closed-form value and solves the
remaining bound-constrained dual by clipped scaling sweeps. Computable
certificates bound how far the screened solution's marginals can drift from
the targets.
"""

from .algorithm import ScreenkhornResult, decimation_to_budget, screenkhorn
from .bench import (
    ComparisonOutcome,
    ExperimentConfig,
    ResultRow,
    certify_outcome,
    compare_solvers,
    generate_gaussian_pair,
    pairwise_euclidean,
    run_experiment,
)
from .core import (
    CostMatrix,
    DiscreteMeasure,
    DualPotentials,
    DualSolution,
    GibbsKernel,
    TransportPlan,
    divergence,
    gibbs_kernel,
    plan_from_potentials,
    sinkhorn,
)
from .diagnostics import (
    Certificate,
    marginal_norm_certificates,
    marginal_violations,
    omega_kappa,
    pinsker_check,
    rho_distance,
    violation_certificate_cols,
    violation_certificate_rows,
)
from .errors import (
    CertificateViolationError,
    DegenerateCostError,
    DegenerateScreeningError,
    InfeasibleBoundsError,
    InputError,
    NumericRangeError,
    ParameterError,
    ScreenkhornError,
    ShapeError,
)
from .screened import BoxBounds, ScreenedDualProblem, box_bounds, build_problem
from .screening import (
    Budget,
    ScreeningResult,
    active_sets,
    epsilon_kappa,
    ratio_vectors,
)
from .solver import SolverConfig, SolverReport, minimize, restricted_sinkhorn

__all__ = [
    "BoxBounds",
    "Budget",
    "Certificate",
    "CertificateViolationError",
    "ComparisonOutcome",
    "CostMatrix",
    "DegenerateCostError",
    "DegenerateScreeningError",
    "DiscreteMeasure",
    "DualPotentials",
    "DualSolution",
    "ExperimentConfig",
    "GibbsKernel",
    "InfeasibleBoundsError",
    "InputError",
    "NumericRangeError",
    "ParameterError",
    "ResultRow",
    "ScreenedDualProblem",
    "ScreeningResult",
    "ScreenkhornError",
    "ScreenkhornResult",
    "ShapeError",
    "SolverConfig",
    "SolverReport",
    "TransportPlan",
    "active_sets",
    "box_bounds",
    "build_problem",
    "certify_outcome",
    "compare_solvers",
    "decimation_to_budget",
    "divergence",
    "epsilon_kappa",
    "generate_gaussian_pair",
    "gibbs_kernel",
    "marginal_norm_certificates",
    "marginal_violations",
    "minimize",
    "omega_kappa",
    "pairwise_euclidean",
    "pinsker_check",
    "plan_from_potentials",
    "ratio_vectors",
    "restricted_sinkhorn",
    "rho_distance",
    "screenkhorn",
    "sinkhorn",
    "violation_certificate_cols",
    "violation_certificate_rows",
]
