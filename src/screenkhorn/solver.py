"""Bound-constrained minimization for the reduced dual, plus the restricted
scaling warm start.

minimize() evaluates the clipped start first and returns there when its
projected gradient already meets the tolerance. Otherwise it runs SciPy's
L-BFGS-B routine (Byrd, Lu, Nocedal & Zhu 1995), `setulb`, by reverse
communication: the routine asks for the objective and gradient at a point,
which one call of the caller's function returns together, or reports a new
iterate, until it stops. The loop answers the first request with the
start's evaluation, and caps and counts iterations and evaluations the way
SciPy's public L-BFGS-B wrapper does, so the iterates are that wrapper's,
without its per-coordinate bound conversion and function wrappers. Then
minimize() re-verifies the result itself: the returned point is clipped into
the box, its objective and gradient are taken from the routine's last
evaluation when that was at this very point and evaluated afresh otherwise,
and convergence is decided from our own projected-gradient norm rather than
the routine's status. `evaluations` counts distinct evaluated points.
The f-decrease stopping test is disabled (factr=0) so the only live stopping
criteria are the projected-gradient tolerance and the two caps.

setulb is the one thing this package takes from SciPy. It lives in the
compiled extension scipy/optimize/_lbfgsb, a private SciPy module, and
importing it by name first imports the scipy.optimize package, which pulls
in scipy.linalg, scipy.sparse and their libraries: on a 2-core x86-64 host
with SciPy 1.17, about 0.65 s and 47 MB of resident memory that every
process importing screenkhorn would pay for one routine. So
_load_lbfgsb loads that extension file alone, under its own name, from the
optimize folder of the installed SciPy, and scipy.optimize is never
imported. It is the same compiled routine, so the iterates are bitwise those
of SciPy's fmin_l_bfgs_b. Its argument list is pinned by a test
(tests/test_solver.py) against the SciPy versions pyproject.toml admits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

from .errors import InputError, ParameterError, ShapeError
from .screened import ScreenedDualProblem


def _load_lbfgsb(optimize_dir: Path) -> ModuleType:
    """SciPy's compiled L-BFGS-B module, loaded from its file in optimize_dir
    without importing the package around it."""
    name = "scipy.optimize._lbfgsb"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = optimize_dir / f"_lbfgsb{suffix}"
        if not path.is_file():
            continue
        spec = importlib.util.spec_from_file_location(name, path)
        held = sys.modules.get(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # a single-phase extension, as this one is, enters itself in
        # sys.modules when it is created; restore the entry, so that
        # scipy.optimize, imported before or after, keeps its own import of
        # the module and binds it on the package
        if held is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = held
        return module
    raise ImportError(f"no compiled _lbfgsb module in {optimize_dir}")


_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ImportError("screenkhorn needs SciPy, which is not installed")
setulb = _load_lbfgsb(Path(_SCIPY.submodule_search_locations[0]) / "optimize").setulb


# L-BFGS-B memory (correction pairs kept), its cap on objective evaluations,
# and its cap on evaluations per line search
_HISTORY_SIZE = 10
_MAX_EVALUATIONS = 100_000
_MAX_LINE_SEARCH = 20

# setulb's task[0] codes: evaluate f and g at x, or a new iterate is in x;
# any other code ends the run, and task[1] then says why
_TASK_FG = 3
_TASK_NEW_X = 1
_TASK_CONVERGENCE = 4
_TASK_STOP = 5
_PG_TOLERANCE_MET = 401
_ITERATION_LIMIT = 504
_EVALUATION_LIMIT = 502
_STOP_REASONS = {
    (_TASK_CONVERGENCE, _PG_TOLERANCE_MET): "pg_tolerance",
    (_TASK_STOP, _ITERATION_LIMIT): "max_iterations",
    (_TASK_STOP, _EVALUATION_LIMIT): "max_evaluations",
}

# setulb's bound code, indexed by (has lower bound, has upper bound)
_BOUND_CODES = np.array([[0, 3], [1, 2]], dtype=np.int32)


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
    # why the iteration ended: "start" (the clipped start met pg_tolerance),
    # "pg_tolerance", "max_iterations", "max_evaluations", or "abnormal" (a
    # failed line search or another stop of the routine); `converged` comes
    # from the recheck either way
    stop_reason: str


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
    p: ScreenedDualProblem, a0: np.ndarray, iters: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """A few scaling sweeps on the active coordinates, the screened ones held
    at their fills in M's products.

    Used to warm start the reduced solve. Each sweep sets b from a first, so
    only a needs a start. The output generally violates the lower bound
    constraints, so callers clamp it into the box afterwards.
    """
    if iters < 1:
        raise ParameterError(f"iters must be at least 1, got {iters}")
    a = np.asarray(a0, dtype=np.float64)
    if a.shape != (p.n_active,):
        raise ShapeError(f"a0 of shape {a.shape} does not match {p.n_active} active rows")
    # written so that NaN fails it too
    if not np.all(a > 0.0):
        raise InputError("initial scaling vector must be strictly positive")

    for _ in range(iters):
        f_v = (p.row_vector(a) @ p.matrix)[p.cols]
        b = p.nu_active / (p.kappa * f_v)
        f_u = (p.matrix @ p.col_vector(b))[p.rows]
        a = p.kappa * p.mu_active / f_u
    return a, b


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
        n, m = x.size, _HISTORY_SIZE
        has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
        nbd = _BOUND_CODES[has_lower.astype(np.intp), has_upper.astype(np.intp)]
        low = np.where(has_lower, lower, 0.0)
        high = np.where(has_upper, upper, 0.0)
        wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        iwa = np.zeros(3 * n, dtype=np.int32)
        task = np.zeros(2, dtype=np.int32)
        ln_task = np.zeros(2, dtype=np.int32)
        lsave = np.zeros(4, dtype=np.int32)
        isave = np.zeros(44, dtype=np.int32)
        dsave = np.zeros(29)

        # setulb overwrites x in place; (f, g) always belong to the point `at`
        at, x = x, x.copy()
        while True:
            setulb(m, x, low, high, nbd, f, g, 0.0, config.pg_tolerance, wa, iwa,
                   task, lsave, isave, dsave, _MAX_LINE_SEARCH, ln_task)
            if task[0] == _TASK_FG:
                # a request at the point last evaluated (the start, first of
                # all) is answered from it, as SciPy's wrapper does
                if not np.array_equal(x, at):
                    at = x.copy()
                    f, g = evaluate(at)
                    evaluations += 1
            elif task[0] == _TASK_NEW_X:
                iterations += 1
                if iterations >= config.max_iterations:
                    task[:] = _TASK_STOP, _ITERATION_LIMIT
                elif evaluations > _MAX_EVALUATIONS:
                    task[:] = _TASK_STOP, _EVALUATION_LIMIT
            else:
                break

        # recheck at the (defensively clipped) returned point: the report
        # rests on the objective and gradient there. setulb normally stops at
        # the point it last asked for, whose evaluation is reused; any other
        # point (the previous iterate after a failed line search, or one the
        # clip moved) is evaluated and counted
        x = np.clip(x, lower, upper)
        if not np.array_equal(x, at):
            f, g = evaluate(x)
            evaluations += 1
        pg_norm = float(np.abs(projected_gradient(x, g, lower, upper)).max())
        stop_reason = _STOP_REASONS.get((int(task[0]), int(task[1])), "abnormal")
    return SolverReport(
        solution=x,
        objective_value=f,
        projected_gradient_inf_norm=pg_norm,
        iterations=iterations,
        evaluations=evaluations,
        converged=bool(pg_norm <= config.pg_tolerance),
        stop_reason=stop_reason,
    )
