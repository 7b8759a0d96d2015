"""The screened dual's solve by clipped scaling sweeps, and a general
bound-constrained minimizer.

restricted_sinkhorn() is the solve that screenkhorn() runs. minimize() is
L-BFGS-B over a coordinate box; it is off the screened solve path, and the
acceptance tests check it against the projected-gradient oracle.

minimize() evaluates the clipped start first and returns there when its
projected gradient already meets the tolerance. Otherwise it runs SciPy's
public L-BFGS-B wrapper, fmin_l_bfgs_b (Byrd, Lu, Nocedal & Zhu 1995), with
factr=0, so that the f-decrease test fires only on a step that lowers f by
nothing, and the projected-gradient tolerance and the two caps are the live
stops. It then rechecks the returned point itself: `converged` comes from
our own projected-gradient norm rather than the routine's status, and
`evaluations` counts distinct evaluated points.

minimize() is the one thing this package takes from SciPy, and it imports
scipy.optimize on its first call. That import pulls in scipy.linalg,
scipy.sparse and their libraries: on a 2-core x86-64 host with SciPy 1.17,
about 0.65 s and 47 MB of resident memory, which neither `import
screenkhorn` nor a screened solve pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _check_iteration_cap, _matvec, _vecmat
from .errors import InputError, NumericRangeError, ParameterError, ShapeError
from .screened import BoxBounds, ScreenedDualProblem

# L-BFGS-B memory (correction pairs kept) and its cap on objective evaluations
_HISTORY_SIZE = 10
_MAX_EVALUATIONS = 100_000

# fmin_l_bfgs_b's task message for each stop with a reason of its own; any
# other stop is abnormal, the f-decrease test's too (warnflag 0, as for the
# pg stop), which factr=0 leaves live for a step that lowers f by nothing
_STOP_REASONS = {
    "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL": "pg_tolerance",
    "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT": "max_iterations",
    "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT": "max_evaluations",
}


@dataclass(frozen=True)
class SolverConfig:
    pg_tolerance: float = 1e-6
    max_iterations: int = 100_000

    def __post_init__(self):
        if not (self.pg_tolerance > 0.0):
            raise ParameterError(f"pg_tolerance must be positive, got {self.pg_tolerance}")
        _check_iteration_cap("max_iterations", self.max_iterations)


@dataclass(frozen=True, eq=False)
class SolverReport:
    solution: np.ndarray
    objective_value: float
    projected_gradient_inf_norm: float
    iterations: int
    evaluations: int
    converged: bool
    # why the iteration ended: "pg_tolerance" or "max_iterations"; minimize()
    # can also end on "start" (the clipped start met pg_tolerance),
    # "max_evaluations", or "abnormal" (a failed line search or another stop
    # of the routine), and its `converged` comes from its recheck either way.
    # For the clipped sweeps, iterations and evaluations both count sweeps,
    # each one pair of products with M
    stop_reason: str
    # the row and column sums of diag(a_hat) M diag(b_hat) at the returned
    # point, a_hat * (M b_hat) and b_hat * (M^T a_hat), taken from the final
    # sweep's two products at no further read of M. On the full layout
    # (M = K) they are the plan's marginals, which the assembly then reads
    # from here. minimize() forms no products and leaves both None
    row_marginal: np.ndarray | None = None
    col_marginal: np.ndarray | None = None


def projected_gradient(
    x: np.ndarray, g: np.ndarray, lower: np.ndarray | float, upper: np.ndarray | float
) -> np.ndarray:
    """Gradient with components pointing out of the box zeroed; a bound may be
    one number for every coordinate.

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
    p: ScreenedDualProblem, bounds: BoxBounds, config: SolverConfig | None = None
) -> SolverReport:
    """Solve the screened dual by clipped scaling sweeps.

    The objective is separable in u for v held fixed and in v for u held
    fixed, and each one-dimensional term is convex, so a block's exact
    minimizer over its box is one Sinkhorn half-sweep clipped into it:
    v = clip(log(nu_J / (kappa (M^T a_hat)_J))), then
    u = clip(log(kappa mu_I / (M b_hat)_I)). Block coordinate descent of this
    kind converges on a smooth convex function with one box per block (Tseng
    2001, "Convergence of a block coordinate descent method for
    nondifferentiable minimization"); unclipped and unscreened, it is
    Sinkhorn's loop.

    u starts at its block's exact minimizer with every v at its fill: the
    loop's own u update with b_hat = col_fill everywhere, where
    (M b_hat)_I = col_fill r_I on either layout, r_I being the active rows'
    cached kernel sums. The start therefore costs no product, and, as
    kappa mu_I / (eps kappa r_I) = xi_I / eps, it is clip(log(xi_I / eps)),
    screening's ratio vector xi = mu / r(K) scaled by 1/eps: Sinkhorn's first
    half-sweep from b = 1 (Cuturi 2013). Block coordinate descent converges
    from any start inside the box; on the full-budget benchmark instance
    (n = m = 1000, eta 1, budget 0.99) this one reaches pg_tolerance 1e-6 in
    1 sweep, where row_fill clipped into the box took 5.

    Each sweep sets v from u, tests the point (u, v), and unless it stops
    there sets u from v. The sweep's two products serve the test too:
    M b_hat, which sets u, gives the u gradient
    a * (M b_hat)_I - kappa mu_I and, with a_hat, the objective. v was just
    set to its block's exact minimizer, so its projected gradient is zero,
    and the projected gradient over both blocks is the u block's. (Computed
    as b * (M^T a_hat)_J - nu_J / kappa, it is zero only up to the rounding
    of exp(log(.)), which grows with nu_J / kappa: 1.6e6 at eta = 0.002,
    where nu_J / kappa is 2.5e20.) The run stops once that norm is at most
    pg_tolerance, or after max_iterations sweeps. The report's iterations
    and evaluations both count sweeps, each one pair of products, which
    sinkhorn()'s product passes form (core._vecmat, core._matvec). The final
    sweep's products, a_hat at the returned u times M b_hat and b_hat at the
    returned v times M^T a_hat, are also the row and column sums of
    diag(a_hat) M diag(b_hat) there, and the report carries them.
    """
    if config is None:
        config = SolverConfig()
    kappa_mu = p.kappa * p.mu_active
    u_lo, u_hi, v_lo, v_hi = bounds.u_lower, bounds.u_upper, bounds.v_lower, bounds.v_upper
    # a product that underflows to 0 or overflows sends its coordinate to the
    # box's edge through log's +-inf; a non-finite gradient is refused below
    with np.errstate(divide="ignore", over="ignore"):
        u = np.clip(np.log(kappa_mu / (p.col_fill * p.row_sums_active)), u_lo, u_hi)
        for sweeps in range(1, config.max_iterations + 1):
            a = np.exp(u)
            a_hat = p.row_vector(a)
            ma = _vecmat(a_hat, p.matrix)
            v = np.clip(np.log(p.nu_active / (p.kappa * ma[p.cols])), v_lo, v_hi)
            b_hat = p.col_vector(np.exp(v))
            mb = _matvec(p.matrix, b_hat)
            row_products = mb[p.rows]
            pg = projected_gradient(u, a * row_products - kappa_mu, u_lo, u_hi)
            pg_norm = float(np.abs(pg).max())
            if not np.isfinite(pg_norm):
                raise NumericRangeError(f"screened gradient overflows at sweep {sweeps}")
            if pg_norm <= config.pg_tolerance or sweeps == config.max_iterations:
                break
            u = np.clip(np.log(kappa_mu / row_products), u_lo, u_hi)
        value = float(
            a_hat @ mb - p.kappa * (p.mu_active @ u) - (p.nu_active @ v) / p.kappa + p.const
        )
    if not np.isfinite(value):
        raise NumericRangeError("screened objective overflows at the solution")
    converged = pg_norm <= config.pg_tolerance
    return SolverReport(
        solution=np.concatenate([u, v]),
        objective_value=value,
        projected_gradient_inf_norm=pg_norm,
        iterations=sweeps,
        evaluations=sweeps,
        converged=converged,
        stop_reason="pg_tolerance" if converged else "max_iterations",
        row_marginal=a_hat * mb,
        col_marginal=b_hat * ma,
    )


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    lower: np.ndarray,
    upper: np.ndarray,
    start: np.ndarray,
    config: SolverConfig | None = None,
) -> SolverReport:
    """Minimize a smooth convex function over a coordinate box.

    fun(x) returns the objective and its gradient at x together, as SciPy's
    jac=True convention has it.
    """
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
    for name, array in (("lower", lower), ("upper", upper), ("start", start)):
        nan = np.isnan(array)
        if nan.any():
            raise InputError(f"{name}[{int(np.flatnonzero(nan)[0])}] is NaN")
    if np.any(lower > upper):
        bad = int(np.flatnonzero(lower > upper)[0])
        raise InputError(f"lower[{bad}] = {lower[bad]} exceeds upper[{bad}] = {upper[bad]}")

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = fun(x)
        return float(f), np.asarray(g, dtype=np.float64)

    x = np.clip(start, lower, upper)
    f, g = evaluate(x)
    pg_norm = float(np.abs(projected_gradient(x, g, lower, upper)).max())
    iterations, evaluations, stop_reason = 0, 1, "start"
    # L-BFGS-B's projected gradient is never larger than this one, so when
    # this one meets the tolerance it would stop at the start after this same
    # evaluation
    if pg_norm > config.pg_tolerance:
        from scipy.optimize import fmin_l_bfgs_b

        # (f, g) always belong to the point `at`; a request there (the start,
        # first of all) is answered from that evaluation
        at = x

        def answer(point: np.ndarray) -> tuple[float, np.ndarray]:
            nonlocal at, f, g, evaluations
            if not np.array_equal(point, at):
                at = point.copy()
                f, g = evaluate(at)
                evaluations += 1
            return f, g

        x, _, info = fmin_l_bfgs_b(
            answer, x, bounds=np.column_stack([lower, upper]), m=_HISTORY_SIZE,
            factr=0.0, pgtol=config.pg_tolerance, maxiter=config.max_iterations,
            maxfun=_MAX_EVALUATIONS,
        )
        iterations = info["nit"]

        # recheck at the (defensively clipped) returned point: the report
        # rests on the objective and gradient there. L-BFGS-B normally stops
        # at the point it last asked for, whose evaluation is reused; any
        # other point (the previous iterate after a failed line search, or
        # one the clip moved) is evaluated and counted
        x = np.clip(x, lower, upper)
        if not np.array_equal(x, at):
            f, g = evaluate(x)
            evaluations += 1
        pg_norm = float(np.abs(projected_gradient(x, g, lower, upper)).max())
        stop_reason = _STOP_REASONS.get(info["task"], "abnormal")
    return SolverReport(
        solution=x,
        objective_value=f,
        projected_gradient_inf_norm=pg_norm,
        iterations=iterations,
        evaluations=evaluations,
        converged=bool(pg_norm <= config.pg_tolerance),
        stop_reason=stop_reason,
    )
