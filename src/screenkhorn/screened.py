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

evaluate() returns the objective and its gradient together from one
exponentiation per side and two block products, K_IJ b and K_IJ^T a, the
first shared by the mass term and the u gradient. objective() and gradient()
are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, GibbsKernel, _check_sizes, _row_chunks
from .errors import (
    DegenerateScreeningError,
    InfeasibleBoundsError,
    InputError,
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
    n, m = _check_sizes(mu, nu, K)
    rows = sr.active_rows
    cols = sr.active_cols
    if rows.size == 0 or cols.size == 0:
        raise DegenerateScreeningError("active sets must be nonempty")
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m:
        raise InputError(f"active indices fall outside the kernel's shape ({n}, {m})")

    # one sweep: each chunk of block rows is gathered with one flat take from
    # the row-major kernel (mode="clip" writes into the block unbuffered; the
    # indices were checked above) and summed and scanned while it sits in
    # cache, so the block is never read again here
    flat = K.entries.reshape(-1)
    block = np.empty((rows.size, cols.size))
    block_row_sums = np.empty(rows.size)
    block_col_sums = np.zeros(cols.size)
    k_min = np.inf
    for sl in _row_chunks(*block.shape):
        chunk = block[sl]
        flat.take(rows[sl, None] * m + cols, out=chunk, mode="clip")
        chunk.sum(axis=1, out=block_row_sums[sl])
        block_col_sums += chunk.sum(axis=0)
        k_min = min(k_min, float(chunk.min()))

    # cross sums by inclusion-exclusion against the cached kernel sums, so
    # the (possibly huge) complement blocks are never materialized; empty
    # complements short-circuit to exact zeros
    full_rows = rows.size == n
    full_cols = cols.size == m
    if full_cols:
        s = np.zeros(rows.size)
    else:
        s = np.maximum(K.row_sums[rows] - block_row_sums, 0.0)
    if full_rows:
        t = np.zeros(cols.size)
    else:
        t = np.maximum(K.col_sums[cols] - block_col_sums, 0.0)
    if full_rows or full_cols:
        corner = 0.0
    else:
        corner = max(
            float(K.row_sums.sum())
            - float(K.row_sums[rows].sum())
            - float(K.col_sums[cols].sum())
            + float(block_row_sums.sum()),
            0.0,
        )

    eps = sr.epsilon
    kap = sr.kappa
    mu_comp_mass = float(np.delete(mu.weights, rows).sum())
    nu_comp_mass = float(np.delete(nu.weights, cols).sum())
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
        k_min=k_min,
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


def evaluate(
    p: ScreenedDualProblem, u_active: np.ndarray, v_active: np.ndarray
) -> tuple[float, np.ndarray]:
    """The objective and its stacked gradient (d/du, d/dv) at one point.

    Each side is exponentiated once, and the block is read by two products:
    K_IJ b serves both the objective's mass term a^T K_IJ b and the u
    gradient, and K_IJ^T a serves the v gradient.
    """
    u = np.asarray(u_active, dtype=np.float64)
    v = np.asarray(v_active, dtype=np.float64)
    _check_lengths(p, u, v)
    with np.errstate(over="ignore"):
        a = np.exp(u)
        b = np.exp(v)
        kb = p.kernel_block @ b
        value = (
            a @ kb
            + p.epsilon * p.kappa * (a @ p.row_cross)
            + (p.epsilon / p.kappa) * (p.col_cross @ b)
            - p.kappa * (p.mu_active @ u)
            - (p.nu_active @ v) / p.kappa
            + p.xi_const
        )
        if not np.isfinite(value):
            raise NumericRangeError("screened objective overflows at this point")
        grad = np.concatenate([
            a * (kb + p.epsilon * p.kappa * p.row_cross) - p.kappa * p.mu_active,
            b * (p.kernel_block.T @ a + (p.epsilon / p.kappa) * p.col_cross)
            - p.nu_active / p.kappa,
        ])
    if not np.all(np.isfinite(grad)):
        raise NumericRangeError("screened gradient overflows at this point")
    return float(value), grad


def objective(p: ScreenedDualProblem, u_active: np.ndarray, v_active: np.ndarray) -> float:
    return evaluate(p, u_active, v_active)[0]


def gradient(
    p: ScreenedDualProblem, u_active: np.ndarray, v_active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d/du, d/dv), the two halves of evaluate's stacked gradient."""
    grad = evaluate(p, u_active, v_active)[1]
    return grad[: p.n_active], grad[p.n_active :]


def _box_side(
    eps: float, k_min: float, n: int, m: int, n_b: int, m_b: int, kap: float,
    own: np.ndarray, other: np.ndarray,
) -> tuple[float, float]:
    """(lower, upper) log bounds of the u side, where own = mu_I and
    other = nu_J; the v side is this formula on the transposed problem."""
    inner = max(eps, float(other.max()) / (n * eps * kap * k_min))
    lower = max(eps / kap, float(own.min()) / (eps * (m - m_b) + inner * m_b))
    upper = float(own.max()) / (m * eps * k_min)
    return float(np.log(lower)), float(np.log(upper))


def box_bounds(p: ScreenedDualProblem, budget: Budget) -> BoxBounds:
    """Log-domain box containing the optimum of the screened problem.

    The inner denominator terms are guarded with a max against epsilon,
    which only loosens the lower bounds. The v box is the u box of the
    transposed problem (sides swapped, kappa -> 1/kappa).
    """
    eps, kap, k_min = p.epsilon, p.kappa, p.k_min
    n_b, m_b = budget.n_b, budget.m_b
    u_lower, u_upper = _box_side(
        eps, k_min, p.n, p.m, n_b, m_b, kap, p.mu_active, p.nu_active
    )
    v_lower, v_upper = _box_side(
        eps, k_min, p.m, p.n, m_b, n_b, 1.0 / kap, p.nu_active, p.mu_active
    )
    return BoxBounds(u_lower, u_upper, v_lower, v_upper)
