"""Static screening: ratio vectors, the budget to (epsilon, kappa) map,
and identification of the active sets I and J.

The test keeps every index i with mu_i >= (epsilon^2/kappa) r_i(K), and
every j with nu_j >= kappa epsilon^2 c_j(K). Indices failing the test are
guaranteed to sit at their bound in the constrained dual, so they can be
fixed before optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, GibbsKernel, _check_sizes
from .errors import DegenerateScreeningError, ParameterError

# Relative slack for threshold comparisons. epsilon**2/kappa reconstructs
# xi[n_b-1] only up to a few ulps, and an exact >= would sometimes drop the
# very index that defined the threshold. The slack is far below the spacing
# of distinct ratios in any real instance, so tie semantics are preserved.
_THRESHOLD_SLACK = 1e-12


@dataclass(frozen=True)
class Budget:
    """How many row and column variables stay free."""

    n_b: int
    m_b: int

    def __post_init__(self):
        if self.n_b < 1 or self.m_b < 1:
            raise ParameterError(
                f"budget must keep at least one point per side, got "
                f"({self.n_b}, {self.m_b})"
            )


@dataclass(frozen=True, eq=False)
class ScreeningResult:
    epsilon: float
    kappa: float
    active_rows: np.ndarray
    active_cols: np.ndarray

    @property
    def n_active(self) -> int:
        return self.active_rows.shape[0]

    @property
    def m_active(self) -> int:
        return self.active_cols.shape[0]


def ratio_vectors(
    mu: DiscreteMeasure, nu: DiscreteMeasure, K: GibbsKernel
) -> tuple[np.ndarray, np.ndarray]:
    """mu/r(K) and nu/c(K), in the original index order."""
    _check_sizes(mu, nu, K)
    return mu.weights / K.row_sums, nu.weights / K.col_sums


def _kth_largest(x: np.ndarray, k: int) -> float:
    """The k-th largest entry of x (1-based), by one partial sort."""
    pos = x.shape[0] - k
    return float(np.partition(x, pos)[pos])


def epsilon_kappa(
    xi: np.ndarray, zeta: np.ndarray, budget: Budget
) -> tuple[float, float]:
    """epsilon = (xi_{n_b} zeta_{m_b})^{1/4}, kappa = sqrt(zeta_{m_b}/xi_{n_b}).

    xi_{n_b} is the n_b-th largest row ratio and zeta_{m_b} the m_b-th largest
    column ratio; the ratio vectors may come in any order. By construction
    epsilon^2/kappa = xi_{n_b} and epsilon^2 kappa = zeta_{m_b} up to
    rounding.
    """
    xi = np.asarray(xi, dtype=np.float64)
    zeta = np.asarray(zeta, dtype=np.float64)
    if budget.n_b > xi.shape[0] or budget.m_b > zeta.shape[0]:
        raise ParameterError(
            f"budget ({budget.n_b}, {budget.m_b}) exceeds problem size "
            f"({xi.shape[0]}, {zeta.shape[0]})"
        )
    x = _kth_largest(xi, budget.n_b)
    z = _kth_largest(zeta, budget.m_b)
    if x <= 0.0 or z <= 0.0:
        raise DegenerateScreeningError(
            f"ratio at the budget index is not positive (xi_nb = {x}, zeta_mb = {z})"
        )
    return float((x * z) ** 0.25), float(np.sqrt(z / x))


def _passing(weights: np.ndarray, sums: np.ndarray, scale: float) -> np.ndarray:
    """Indices whose weight passes the screening test against scale * sums."""
    return np.flatnonzero(weights >= scale * sums * (1.0 - _THRESHOLD_SLACK))


def active_sets(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    K: GibbsKernel,
    epsilon: float,
    kappa: float,
) -> ScreeningResult:
    """Indices passing the screening test."""
    if not (epsilon > 0.0) or not (kappa > 0.0):
        raise ParameterError(
            f"epsilon and kappa must be positive, got ({epsilon}, {kappa})"
        )
    _check_sizes(mu, nu, K)
    # the column scale is eps^2 * kappa, not the transposed row form
    # eps^2 / (1/kappa), which rounds twice
    active_rows = _passing(mu.weights, K.row_sums, epsilon * epsilon / kappa)
    active_cols = _passing(nu.weights, K.col_sums, epsilon * epsilon * kappa)
    if active_rows.size == 0 or active_cols.size == 0:
        raise DegenerateScreeningError(
            f"screening left no free variables (|I| = {active_rows.size}, "
            f"|J| = {active_cols.size}) for epsilon = {epsilon}, kappa = {kappa}"
        )
    return ScreeningResult(float(epsilon), float(kappa), active_rows, active_cols)
