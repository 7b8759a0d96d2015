"""Bound-constrained minimization for the reduced dual, plus the restricted
scaling warm start.

minimize() evaluates the clipped start first and returns there when its
projected gradient already meets the tolerance. Otherwise it delegates the
quasi-Newton work to SciPy's L-BFGS-B, handing over that first evaluation,
and then re-verifies the result itself: the returned point is clipped into
the box, objective and gradient are re-evaluated there, and convergence is
decided from our own projected-gradient norm rather than the library's
status flag.
The f-decrease stopping test is disabled (factr=0) so the only live stopping
criteria are the projected-gradient tolerance and the two caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import fmin_l_bfgs_b

from .errors import InputError, ParameterError, ShapeError
from .screened import ScreenedDualProblem


# L-BFGS-B memory (correction pairs kept) and its cap on objective evaluations
_HISTORY_SIZE = 10
_MAX_EVALUATIONS = 100_000


@dataclass(frozen=True)
class SolverConfig:
    pg_tolerance: float = 1e-6
    max_iterations: int = 100_000

    def __post_init__(self):
        if not (self.pg_tolerance > 0.0):
            raise ParameterError(f"pg_tolerance must be positive, got {self.pg_tolerance}")
        if self.max_iterations < 1:
            raise ParameterError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )


@dataclass(frozen=True, eq=False)
class SolverReport:
    solution: np.ndarray
    objective_value: float
    projected_gradient_inf_norm: float
    iterations: int
    evaluations: int
    converged: bool


def projected_gradient(
    x: np.ndarray, g: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Gradient with components pointing out of the box zeroed.

    At the lower bound only a negative component survives, at the upper bound
    only a positive one; interior coordinates keep the plain gradient.
    """
    pg = g.copy()
    at_lower = x <= lower
    at_upper = x >= upper
    pg[at_lower] = np.minimum(pg[at_lower], 0.0)
    pg[at_upper] = np.maximum(pg[at_upper], 0.0)
    return pg


def restricted_sinkhorn(
    p: ScreenedDualProblem,
    a0: np.ndarray,
    b0: np.ndarray,
    iters: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """A few scaling sweeps on the active block, cross terms folded in.

    Used to warm start the reduced solve. The output generally violates the
    lower bound constraints, so callers clamp it into the box afterwards.
    """
    if iters < 0:
        raise ParameterError(f"iters must be nonnegative, got {iters}")
    a = np.asarray(a0, dtype=np.float64).copy()
    b = np.asarray(b0, dtype=np.float64).copy()
    if a.shape != (p.n_active,) or b.shape != (p.m_active,):
        raise ShapeError(
            f"scaling vectors of shapes {a.shape}, {b.shape} do not match "
            f"active sizes ({p.n_active}, {p.m_active})"
        )
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise InputError("initial scaling vectors must be strictly positive")

    f_u_bar = p.epsilon * p.kappa * p.row_cross
    f_v_bar = (p.epsilon / p.kappa) * p.col_cross
    for _ in range(iters):
        f_v = p.kernel_block.T @ a + f_v_bar
        b = p.nu_active / (p.kappa * f_v)
        f_u = p.kernel_block @ b + f_u_bar
        a = p.kappa * p.mu_active / f_u
    return a, b


def minimize(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    start: np.ndarray,
    config: SolverConfig | None = None,
) -> SolverReport:
    """Minimize a smooth convex function over a coordinate box."""
    if config is None:
        config = SolverConfig()
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    start = np.asarray(start, dtype=np.float64)
    if not (lower.shape == upper.shape == start.shape) or lower.ndim != 1:
        raise ShapeError(
            f"bounds and start must be 1-d with one shape, got {lower.shape}, "
            f"{upper.shape}, {start.shape}"
        )
    if np.any(lower > upper):
        bad = int(np.flatnonzero(lower > upper)[0])
        raise InputError(f"lower[{bad}] = {lower[bad]} exceeds upper[{bad}] = {upper[bad]}")

    x0 = np.clip(start, lower, upper)
    f0 = objective(x0)
    g0 = np.asarray(gradient(x0), dtype=np.float64)
    pg0 = float(np.abs(projected_gradient(x0, g0, lower, upper)).max())
    if pg0 <= config.pg_tolerance:
        # SciPy's projected gradient is never larger than this one, so it
        # would stop at x0 after this same evaluation
        return SolverReport(
            solution=x0,
            objective_value=float(f0),
            projected_gradient_inf_norm=pg0,
            iterations=0,
            evaluations=1,
            converged=True,
        )
    start_value = [(f0, g0)]

    def fused(x: np.ndarray) -> tuple[float, np.ndarray]:
        # SciPy asks for the start point first; it was evaluated above
        if start_value and np.array_equal(x, x0):
            return start_value.pop()
        return objective(x), np.asarray(gradient(x), dtype=np.float64)

    x, _, info = fmin_l_bfgs_b(
        fused,
        x0,
        # SciPy reads an infinite entry as "unbounded on that side"
        bounds=list(zip(lower.tolist(), upper.tolist())),
        m=_HISTORY_SIZE,
        factr=0.0,
        pgtol=config.pg_tolerance,
        maxiter=config.max_iterations,
        maxfun=_MAX_EVALUATIONS,
    )

    # recheck at the (defensively clipped) returned point; this evaluation is
    # counted and is what the report is based on
    x = np.clip(x, lower, upper)
    f_final = objective(x)
    g_final = np.asarray(gradient(x), dtype=np.float64)
    pg_norm = float(np.abs(projected_gradient(x, g_final, lower, upper)).max())
    return SolverReport(
        solution=x,
        objective_value=float(f_final),
        projected_gradient_inf_norm=pg_norm,
        iterations=int(info["nit"]),
        evaluations=int(info["funcalls"]) + 1,
        converged=bool(pg_norm <= config.pg_tolerance),
    )
