"""The screened dual problem: restricted kernel block, cross-term sums, the
additive constant, analytic objective and gradient, and the box bounds for
the reduced solve.

With a = e^u on the active rows and b = e^v on the active columns, the
objective is

    a^T K_IJ b + eps*kappa * <a, s> + (eps/kappa) * <t, b>
        - kappa * <mu_I, u> - (1/kappa) * <nu_J, v> + Xi

where s_i sums K over the screened columns of row i, t_j sums K over the
screened rows of column j, and Xi collects every term that only involves
screened coordinates held at their thresholds. Evaluating this on (u, v)
embedded back into full vectors (thresholds on the complements) reproduces
the full constrained dual exactly; tests rely on that identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, GibbsKernel
from .errors import (
    DegenerateScreeningError,
    InfeasibleBoundsError,
    NumericRangeError,
    ShapeError,
)
from .screening import Budget, ScreeningResult


@dataclass(frozen=True, eq=False)
class ScreenedDualProblem:
    kernel_block: np.ndarray
    row_cross: np.ndarray
    col_cross: np.ndarray
    xi_const: float
    epsilon: float
    kappa: float
    mu_active: np.ndarray
    nu_active: np.ndarray
    k_min: float
    n: int
    m: int
    n_active: int
    m_active: int


@dataclass(frozen=True)
class BoxBounds:
    """One (lower, upper) pair per side; the bounds are uniform within a side."""

    u_lower: float
    u_upper: float
    v_lower: float
    v_upper: float

    def __post_init__(self):
        if self.u_lower > self.u_upper or self.v_lower > self.v_upper:
            raise InfeasibleBoundsError(
                f"infeasible box: u in [{self.u_lower}, {self.u_upper}], "
                f"v in [{self.v_lower}, {self.v_upper}]"
            )

    def stacked(self, n_active: int, m_active: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate bound vectors for theta = (u_active, v_active)."""
        lower = np.concatenate(
            [np.full(n_active, self.u_lower), np.full(m_active, self.v_lower)]
        )
        upper = np.concatenate(
            [np.full(n_active, self.u_upper), np.full(m_active, self.v_upper)]
        )
        return lower, upper


def build_problem(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    K: GibbsKernel,
    sr: ScreeningResult,
) -> ScreenedDualProblem:
    """Restrict the kernel to the active sets and fold the rest into constants."""
    n, m = K.shape
    if mu.size != n or nu.size != m:
        raise ShapeError(
            f"measure sizes ({mu.size}, {nu.size}) do not match kernel ({n}, {m})"
        )
    rows = sr.active_rows
    cols = sr.active_cols
    if rows.size == 0 or cols.size == 0:
        raise DegenerateScreeningError("active sets must be nonempty")

    row_active = np.zeros(n, dtype=bool)
    row_active[rows] = True
    col_active = np.zeros(m, dtype=bool)
    col_active[cols] = True

    km = K.entries
    block = km[np.ix_(rows, cols)]
    # cross sums by inclusion-exclusion against the cached kernel sums, so
    # the (possibly huge) complement blocks are never materialized; empty
    # complements short-circuit to exact zeros
    full_rows = rows.size == n
    full_cols = cols.size == m
    if full_cols:
        s = np.zeros(rows.size)
    else:
        s = np.maximum(K.row_sums[rows] - block.sum(axis=1), 0.0)
    if full_rows:
        t = np.zeros(cols.size)
    else:
        t = np.maximum(K.col_sums[cols] - block.sum(axis=0), 0.0)
    if full_rows or full_cols:
        corner = 0.0
    else:
        corner = max(
            float(K.row_sums.sum())
            - float(K.row_sums[rows].sum())
            - float(K.col_sums[cols].sum())
            + float(block.sum()),
            0.0,
        )

    eps = sr.epsilon
    kap = sr.kappa
    comp_rows = np.flatnonzero(~row_active)
    comp_cols = np.flatnonzero(~col_active)
    mu_comp_mass = float(mu.weights[comp_rows].sum()) if comp_rows.size else 0.0
    nu_comp_mass = float(nu.weights[comp_cols].sum()) if comp_cols.size else 0.0
    xi_const = (
        eps * eps * corner
        - kap * np.log(eps / kap) * mu_comp_mass
        - np.log(eps * kap) * nu_comp_mass / kap
    )

    return ScreenedDualProblem(
        kernel_block=block,
        row_cross=s,
        col_cross=t,
        xi_const=float(xi_const),
        epsilon=eps,
        kappa=kap,
        mu_active=mu.weights[rows],
        nu_active=nu.weights[cols],
        k_min=float(block.min()),
        n=n,
        m=m,
        n_active=rows.size,
        m_active=cols.size,
    )


def _check_lengths(p: ScreenedDualProblem, u: np.ndarray, v: np.ndarray) -> None:
    if u.shape != (p.n_active,) or v.shape != (p.m_active,):
        raise ShapeError(
            f"active vectors of shapes {u.shape}, {v.shape} do not match "
            f"active sizes ({p.n_active}, {p.m_active})"
        )


def objective(p: ScreenedDualProblem, u_active: np.ndarray, v_active: np.ndarray) -> float:
    u = np.asarray(u_active, dtype=np.float64)
    v = np.asarray(v_active, dtype=np.float64)
    _check_lengths(p, u, v)
    with np.errstate(over="ignore"):
        a = np.exp(u)
        b = np.exp(v)
        value = (
            a @ (p.kernel_block @ b)
            + p.epsilon * p.kappa * (a @ p.row_cross)
            + (p.epsilon / p.kappa) * (p.col_cross @ b)
            - p.kappa * (p.mu_active @ u)
            - (p.nu_active @ v) / p.kappa
            + p.xi_const
        )
    if not np.isfinite(value):
        raise NumericRangeError("screened objective overflows at this point")
    return float(value)


def gradient(
    p: ScreenedDualProblem, u_active: np.ndarray, v_active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u_active, dtype=np.float64)
    v = np.asarray(v_active, dtype=np.float64)
    _check_lengths(p, u, v)
    with np.errstate(over="ignore"):
        a = np.exp(u)
        b = np.exp(v)
        grad_u = a * (p.kernel_block @ b + p.epsilon * p.kappa * p.row_cross) - p.kappa * p.mu_active
        grad_v = b * (p.kernel_block.T @ a + (p.epsilon / p.kappa) * p.col_cross) - p.nu_active / p.kappa
    if not (np.all(np.isfinite(grad_u)) and np.all(np.isfinite(grad_v))):
        raise NumericRangeError("screened gradient overflows at this point")
    return grad_u, grad_v


def box_bounds(p: ScreenedDualProblem, budget: Budget) -> BoxBounds:
    """Log-domain box containing the optimum of the screened problem.

    The inner denominator terms are guarded with a max against epsilon,
    which only loosens the lower bounds.
    """
    eps = p.epsilon
    kap = p.kappa
    k_min = p.k_min
    n, m = p.n, p.m
    n_b = budget.n_b
    m_b = budget.m_b
    mu_lo = float(p.mu_active.min())
    mu_hi = float(p.mu_active.max())
    nu_lo = float(p.nu_active.min())
    nu_hi = float(p.nu_active.max())

    u_inner = max(eps, nu_hi / (n * eps * kap * k_min))
    v_inner = max(eps, kap * mu_hi / (m * eps * k_min))

    u_lower_arg = max(eps / kap, mu_lo / (eps * (m - m_b) + u_inner * m_b))
    v_lower_arg = max(eps * kap, nu_lo / (eps * (n - n_b) + v_inner * n_b))
    u_upper_arg = mu_hi / (m * eps * k_min)
    v_upper_arg = nu_hi / (n * eps * k_min)

    return BoxBounds(
        u_lower=float(np.log(u_lower_arg)),
        u_upper=float(np.log(u_upper_arg)),
        v_lower=float(np.log(v_lower_arg)),
        v_upper=float(np.log(v_upper_arg)),
    )
