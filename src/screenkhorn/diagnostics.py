"""Metrics and computable certificates for screened solves.

Each certificate compares an empirical quantity from a finished run against
an explicit bound evaluated term by term from the problem data. A certificate
is satisfied when empirical <= bound * (1 + 1e-9) + 1e-12; the slack only
absorbs floating point noise, never looseness of the bound itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithm import ScreenkhornResult
from .core import DiscreteMeasure, TransportPlan
from .errors import InputError, ShapeError

_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12


@dataclass(frozen=True)
class Certificate:
    empirical_value: float
    bound_value: float
    satisfied: bool
    name: str


def _certify(name: str, empirical: float, bound: float) -> Certificate:
    ok = empirical <= bound * (1.0 + _REL_SLACK) + _ABS_SLACK
    return Certificate(float(empirical), float(bound), bool(ok), name)


def _require_converged(result: ScreenkhornResult, name: str) -> None:
    if not result.solver_report.converged:
        raise InputError(
            f"{name} requires a converged solve; this result stopped with "
            f"projected gradient {result.solver_report.projected_gradient_inf_norm}"
        )


def _l1_gap(marginal: np.ndarray, weights: np.ndarray) -> float:
    return float(np.abs(marginal - weights).sum())


def marginal_violations(
    P: TransportPlan | ScreenkhornResult, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[float, float]:
    """l1 distances between the marginals of a plan or a screened solve and
    the targets."""
    shape = (P.row_marginal.shape[0], P.col_marginal.shape[0])
    if shape != (mu.size, nu.size):
        raise ShapeError(
            f"plan shape {shape} does not match measures ({mu.size}, {nu.size})"
        )
    return _l1_gap(P.row_marginal, mu.weights), _l1_gap(P.col_marginal, nu.weights)


def _positive_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"{name} must be a nonempty vector")
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise InputError(f"{name} must be strictly positive and finite")
    return v


def _checked_rho(gamma, beta) -> tuple[np.ndarray, np.ndarray, float]:
    """gamma and beta as checked vectors, and their rho distance."""
    g = _positive_vector(gamma, "gamma")
    b = _positive_vector(beta, "beta")
    if g.shape != b.shape:
        raise ShapeError(f"vector shapes {g.shape} and {b.shape} differ")
    t = b / g - 1.0
    terms = g * (t - np.log1p(t))
    return g, b, float(np.maximum(terms, 0.0).sum())


def rho_distance(gamma, beta) -> float:
    """Sum of b - a + a log(a/b) over entry pairs; zero iff the vectors match.

    Each summand equals a * (t - log(1 + t)) for t = b/a - 1 and is
    nonnegative for every positive pair, so rounding residue below zero is
    clamped per term before summing. Without the clamp, nearly identical
    vectors can sum to a tiny negative and poison downstream square roots.
    """
    return _checked_rho(gamma, beta)[2]


def pinsker_check(gamma, beta) -> Certificate:
    """l1 distance against sqrt(7 * min mass * rho distance)."""
    g, b, rho = _checked_rho(gamma, beta)
    empirical = float(np.abs(g - b).sum())
    bound = float(np.sqrt(7.0 * min(g.sum(), b.sum()) * rho))
    return _certify("pinsker", empirical, bound)


def _c(z: float) -> float:
    """c_z = z - log z - 1, the scalar gap used in the violation bounds."""
    return float(z - np.log(z) - 1.0)


def _violation_bound(
    eps: float, k_min: float, n: int, m: int, n_b: int, m_b: int, kap: float,
    own: np.ndarray, other: np.ndarray, other_active: np.ndarray,
) -> float:
    """Bound on the squared l1 row-marginal violation, where own = mu,
    other = nu and other_active = nu_J; the column bound is this formula on
    the transposed problem."""
    own_max = float(own.max())
    other_min_active = float(other_active.min())
    log_arg = (
        kap * (n - n_b + 1) * own_max / (m_b * k_min * other_min_active)
        + n_b * kap**2 * own_max**2 / (m * m_b * eps**2 * k_min**2 * other_min_active)
    )
    return n_b * _c(kap) * own_max + 7.0 * (n - n_b) * (
        m_b * float(other.max()) / (n * kap * k_min)
        + (m - m_b) * eps**2
        - float(own.min())
        + own_max * np.log(log_arg)
    )


def violation_certificate_rows(
    result: ScreenkhornResult, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> Certificate:
    """Explicit bound on the squared l1 row-marginal violation.

    The bound is, with K_min the smallest entry of the active kernel block,
    global extrema over mu and nu, and the minimum of nu over the active
    columns:

        n_b * c_kappa * max mu
        + 7 (n - n_b) * [ m_b max nu / (n kappa K_min)
                          + (m - m_b) eps^2
                          - min mu
                          + max mu * log( kappa (n - n_b + 1) max mu
                                              / (m_b K_min min_J nu)
                                          + n_b kappa^2 (max mu)^2
                                              / (m m_b eps^2 K_min^2 min_J nu) ) ]
    """
    _require_converged(result, "row violation certificate")
    sr = result.screening
    bound = _violation_bound(
        sr.epsilon, result.k_min, mu.size, nu.size, result.budget.n_b,
        result.budget.m_b, sr.kappa, mu.weights, nu.weights,
        nu.weights[sr.active_cols],
    )
    empirical = _l1_gap(result.row_marginal, mu.weights) ** 2
    return _certify("row-violation-squared", empirical, bound)


def violation_certificate_cols(
    result: ScreenkhornResult, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> Certificate:
    """Column analogue of violation_certificate_rows (swap sides, kappa -> 1/kappa)."""
    _require_converged(result, "column violation certificate")
    sr = result.screening
    bound = _violation_bound(
        sr.epsilon, result.k_min, nu.size, mu.size, result.budget.m_b,
        result.budget.n_b, 1.0 / sr.kappa, nu.weights, mu.weights,
        mu.weights[sr.active_rows],
    )
    empirical = _l1_gap(result.col_marginal, nu.weights) ** 2
    return _certify("col-violation-squared", empirical, bound)


def omega_kappa(result: ScreenkhornResult) -> float:
    """|1-k| ||mu_sc||_1 + |1-1/k| ||nu_sc||_1 + |1-k| + |1-1/k|.

    Exactly zero when kappa == 1: every |1 - kappa| factor is the float 0.0,
    so no rounding enters.
    """
    kap = result.screening.kappa
    row_mass = float(np.abs(result.row_marginal).sum())
    col_mass = float(np.abs(result.col_marginal).sum())
    a = abs(1.0 - kap)
    b = abs(1.0 - 1.0 / kap)
    return a * row_mass + b * col_mass + a + b


def _mass_bound(
    eps: float, k_min: float, n: int, m: int, n_b: int, m_b: int, kap: float,
    own_active: np.ndarray, other_active: np.ndarray,
) -> float:
    """Bound on ||mu_sc||_1, where own_active = mu_I and other_active = nu_J;
    the column bound is this formula on the transposed problem."""
    return kap * float(own_active.sum()) + (n - n_b) * (
        m_b * float(other_active.max()) / (n * kap * k_min) + (m - m_b) * eps**2
    )


def marginal_norm_certificates(
    result: ScreenkhornResult, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[Certificate, Certificate]:
    """l1 mass bounds on the screened marginals.

    Rows:    ||mu_sc||_1  <= kappa ||mu_I||_1
                             + (n - n_b) [ m_b max_J nu / (n kappa K_min)
                                           + (m - m_b) eps^2 ]
    Columns: the same with the sides swapped and kappa -> 1/kappa.
    """
    _require_converged(result, "marginal norm certificate")
    sr = result.screening
    eps, kap, k_min = sr.epsilon, sr.kappa, result.k_min
    n, m = mu.size, nu.size
    n_b, m_b = result.budget.n_b, result.budget.m_b
    mu_active = mu.weights[sr.active_rows]
    nu_active = nu.weights[sr.active_cols]
    row_bound = _mass_bound(eps, k_min, n, m, n_b, m_b, kap, mu_active, nu_active)
    col_bound = _mass_bound(eps, k_min, m, n, m_b, n_b, 1.0 / kap, nu_active, mu_active)
    row_emp = float(np.abs(result.row_marginal).sum())
    col_emp = float(np.abs(result.col_marginal).sum())
    return (
        _certify("row-marginal-mass", row_emp, row_bound),
        _certify("col-marginal-mass", col_emp, col_bound),
    )
