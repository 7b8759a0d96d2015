"""Ground truth for the reduced solve: an independent projected gradient
method that the tests compare minimize() against, and the screened objective
and gradient summed from the dense plan. Neither shares code with the
quasi-Newton path.
"""

from __future__ import annotations

import numpy as np

from screenkhorn import InputError, ScreenkhornError, ShapeError
from screenkhorn.screened import ScreenedDualProblem, gradient, objective
from screenkhorn.solver import projected_gradient


def screened_value_and_gradient(
    p: ScreenedDualProblem, u: np.ndarray, v: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The screened objective and its stacked gradient, each with the sum of
    the absolute values of its terms, from the dense active plan
    P = diag(e^u) K_IJ diag(e^v): the mass term is the total of P and the
    gradients carry its row and column sums."""
    a, b = np.exp(u), np.exp(v)
    plan = a[:, None] * p.kernel_block * b[None, :]
    row_cross = p.epsilon * p.kappa * a * p.row_cross
    col_cross = (p.epsilon / p.kappa) * b * p.col_cross
    terms = [
        plan.sum(),
        row_cross.sum(),
        col_cross.sum(),
        -p.kappa * float(np.dot(p.mu_active, u)),
        -float(np.dot(p.nu_active, v)) / p.kappa,
        p.xi_const,
    ]
    row_terms = [plan.sum(axis=1), row_cross, -p.kappa * p.mu_active]
    col_terms = [plan.sum(axis=0), col_cross, -p.nu_active / p.kappa]
    grad = np.concatenate([sum(row_terms), sum(col_terms)])
    grad_scale = np.concatenate([
        sum(np.abs(t) for t in row_terms), sum(np.abs(t) for t in col_terms)
    ])
    return float(sum(terms)), float(sum(abs(t) for t in terms)), grad, grad_scale


class OracleFailureError(ScreenkhornError):
    """The oracle hit its iteration cap or stalled without converging."""


def oracle_solve(
    p: ScreenedDualProblem,
    lower: np.ndarray,
    upper: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 10_000_000,
) -> np.ndarray:
    """Projected gradient descent on the stacked screened dual, to high accuracy.

    Step sizes follow a diminishing-then-backtracking scheme: the trial step
    adapts across iterations (a Barzilai-Borwein ratio, clipped), and within
    an iteration it is halved until the projected step satisfies a sufficient
    decrease test. Ground truth for small instances only; refuses more than
    64 variables and raises if the iteration cap is hit.
    """
    dim = p.n_active + p.m_active
    if dim > 64:
        raise InputError(f"oracle limited to 64 variables, got {dim}")
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != (dim,) or upper.shape != (dim,):
        raise ShapeError(
            f"bounds of shapes {lower.shape}, {upper.shape} do not match "
            f"{dim} variables"
        )
    if not (tol > 0.0):
        raise InputError(f"tol must be positive, got {tol}")
    k = p.n_active

    def func(x: np.ndarray) -> float:
        return objective(p, x[:k], x[k:])

    def grad(x: np.ndarray) -> np.ndarray:
        return np.concatenate(gradient(p, x[:k], x[k:]))

    x = np.clip(np.zeros(dim), lower, upper)
    f = func(x)
    g = grad(x)
    step = 1.0
    for _ in range(max_iter):
        pg = projected_gradient(x, g, lower, upper)
        if np.abs(pg).max() < tol:
            return x
        trial = step
        x_new = x
        f_new = f
        for _ in range(200):
            cand = np.clip(x - trial * g, lower, upper)
            move = cand - x
            f_cand = func(cand)
            if f_cand <= f + 1e-4 * float(g @ move):
                x_new, f_new = cand, f_cand
                break
            trial *= 0.5
        else:
            # no acceptable step at any scale, flat to machine precision
            raise OracleFailureError(
                f"line search stalled with projected gradient {np.abs(pg).max()}"
            )
        g_new = grad(x_new)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 0.0 else 1.0
        step = min(max(step, 1e-8), 1e8)
        x, f, g = x_new, f_new, g_new
    raise OracleFailureError(
        f"no convergence to {tol} within {max_iter} iterations "
        f"(projected gradient {np.abs(projected_gradient(x, g, lower, upper)).max()})"
    )
