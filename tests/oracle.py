"""Ground truth for the reduced solve: an independent projected gradient
method that the tests compare minimize() and the clipped sweeps against, the
screened objective and gradient summed from dense plans, once from a
compact-layout problem's own block and cross sums and once from the whole
kernel, the plain (unscreened) dual objective, and Sinkhorn as two whole
products per iteration. None of them shares code with the quasi-Newton
path, the sweeps, evaluate() or sinkhorn()'s product passes.
"""

from __future__ import annotations

import math

import numpy as np

from screenkhorn import (
    DiscreteMeasure,
    DualPotentials,
    DualSolution,
    GibbsKernel,
    InputError,
    NumericRangeError,
    ScreenkhornError,
    ShapeError,
)
from screenkhorn.core import _check_sizes, _scalings
from screenkhorn.screened import ScreenedDualProblem, gradient, objective
from screenkhorn.solver import projected_gradient


def screened_value_and_gradient(
    p: ScreenedDualProblem, u: np.ndarray, v: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The screened objective and its stacked gradient, each with the sum of
    the absolute values of its terms, for a compact-layout problem: from the
    dense active plan P = diag(e^u) K_IJ diag(e^v), whose total is the mass
    term and whose row and column sums the gradients carry, plus the cross
    sums and the corner in M's last column and row."""
    a, b = np.exp(u), np.exp(v)
    block, s, t = p.matrix[:-1, :-1], p.matrix[:-1, -1], p.matrix[-1, :-1]
    plan = a[:, None] * block * b[None, :]
    row_cross = p.epsilon * p.kappa * a * s
    col_cross = (p.epsilon / p.kappa) * b * t
    terms = [
        plan.sum(),
        row_cross.sum(),
        col_cross.sum(),
        -p.kappa * float(np.dot(p.mu_active, u)),
        -float(np.dot(p.nu_active, v)) / p.kappa,
        p.epsilon * p.epsilon * p.matrix[-1, -1],
        p.const,
    ]
    row_terms = [plan.sum(axis=1), row_cross, -p.kappa * p.mu_active]
    col_terms = [plan.sum(axis=0), col_cross, -p.nu_active / p.kappa]
    return _summed(terms, row_terms, col_terms)


def full_plan_value_and_gradient(mu, nu, K, sr, u, v):
    """The same from the whole plan diag(a_hat) K diag(b_hat), where a_hat
    and b_hat hold e^u and e^v on the active sets of the ScreeningResult sr
    and the thresholds eps/kappa and eps*kappa elsewhere, so it reads no
    problem at all: its mass term is the plan's total, its gradients the
    plan's row and column sums on the active sets."""
    eps, kap = sr.epsilon, sr.kappa
    rows, cols = sr.active_rows, sr.active_cols
    a_hat = np.full(mu.size, eps / kap)
    a_hat[rows] = np.exp(u)
    b_hat = np.full(nu.size, eps * kap)
    b_hat[cols] = np.exp(v)
    plan = a_hat[:, None] * K.entries * b_hat[None, :]
    mu_active, nu_active = mu.weights[rows], nu.weights[cols]
    terms = [
        plan.sum(),
        -kap * float(np.dot(mu_active, u)),
        -float(np.dot(nu_active, v)) / kap,
        -kap * math.log(eps / kap) * float(mu.weights[_others(mu.size, rows)].sum()),
        -math.log(eps * kap) * float(nu.weights[_others(nu.size, cols)].sum()) / kap,
    ]
    row_terms = [plan.sum(axis=1)[rows], -kap * mu_active]
    col_terms = [plan.sum(axis=0)[cols], -nu_active / kap]
    return _summed(terms, row_terms, col_terms)


def dual_objective(
    pot: DualPotentials, K: GibbsKernel, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> float:
    """Sum of B(u, v) minus the linear terms <u, mu> + <v, nu>."""
    _check_sizes(mu, nu, K)
    a, b = _scalings(pot, K)
    with np.errstate(over="ignore"):
        mass = a @ (K.entries @ b)
    if not np.isfinite(mass):
        raise NumericRangeError("dual objective mass term overflows")
    return float(mass - pot.u @ mu.weights - pot.v @ nu.weights)


def reference_sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    K: GibbsKernel,
    stop_threshold: float = 1e-9,
    max_iter: int = 1000,
) -> DualSolution:
    """sinkhorn() with two whole products per iteration, K^T a then K b, from
    b = 1: the iterations, stop test, violation and errors that sinkhorn()'s
    product passes keep."""
    _, m = _check_sizes(mu, nu, K)
    km = K.entries
    w_mu = mu.weights
    w_nu = nu.weights
    b = np.ones(m)
    kb = km @ b
    converged = False
    violation = np.inf
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            a = w_mu / kb
            kta = km.T @ a
            b = w_nu / kta
            kb = km @ b
            violation = float(
                np.abs(a * kb - w_mu).sum() + np.abs(b * kta - w_nu).sum()
            )
            if not np.isfinite(violation):
                raise NumericRangeError(
                    f"scaling iteration {it} overflowed; eta = {K.eta} is too small "
                    "for this cost matrix"
                )
            if violation < stop_threshold:
                converged = True
                break

    with np.errstate(divide="ignore"):
        u = np.log(a)
        v = np.log(b)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NumericRangeError("scaling vector collapsed to zero, potentials diverge")
    return DualSolution(DualPotentials(u, v), it, violation, converged)


def _others(size, active):
    """The indices below size that are not in active."""
    return np.setdiff1d(np.arange(size), active)


def _summed(terms, row_terms, col_terms):
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
