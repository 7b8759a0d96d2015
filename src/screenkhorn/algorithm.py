"""End-to-end screened solve: screening, bounds, the reduced dual solved by
clipped scaling sweeps (solver.restricted_sinkhorn), and reassembly of full
potentials and the plan.

The plan's marginals come from the solve on the full layout, where the
screened problem's matrix is K itself: the final sweep forms K b_hat and
K^T a_hat at the returned point, and the report carries a_hat * (K b_hat)
and b_hat * (K^T a_hat), so K is not read again for them. On the compact
layout they are formed by one more pass over K (core._marginals).

wall_time covers everything from kernel construction through the reduced
solve and stops before the assembly: the compact layout's marginal pass and
plan materialization fall outside it. Callers that time the whole call,
as perfbench does, see the assembly too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import (
    CostMatrix,
    DiscreteMeasure,
    DualPotentials,
    TransportPlan,
    _marginals,
    gibbs_kernel,
    plan_from_potentials,
)
from .errors import ParameterError, ScreenkhornError
from .screened import (
    BoxBounds,
    box_bounds,
    build_problem,
    # not called here; kept importable for perfbench/tracing.py, whose
    # TARGETS look them up on this module, until the solve records its own
    # trace (ROADMAP item 4)
    gradient,
    objective,
)
from .screening import (
    Budget,
    ScreeningResult,
    active_sets,
    epsilon_kappa,
    ratio_vectors,
)
from .solver import (
    SolverConfig,
    SolverReport,
    # off the solve path since the clipped sweeps replaced L-BFGS-B; kept
    # importable here for the same TARGETS
    minimize,
    restricted_sinkhorn,
)


@dataclass(frozen=True, eq=False)
class ScreenkhornResult:
    potentials: DualPotentials
    plan: TransportPlan | None
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    screening: ScreeningResult
    # the smallest entry of the active block K_IJ, which the box bounds and
    # the certificates read. The result keeps it rather than the screened
    # problem, which in its full layout is K itself: a result holding K would
    # keep the n x m kernel alive for as long as the caller keeps the result
    k_min: float
    bounds: BoxBounds
    budget: Budget
    solver_report: SolverReport
    wall_time: float


@contextmanager
def _step(name: str):
    """Tag package errors with the pipeline step they came from."""
    try:
        yield
    except ScreenkhornError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def decimation_to_budget(n: int, m: int, factor: float) -> tuple[int, int]:
    """Budget counts for a decimation factor, rounding half up, floored at 1."""
    if not (0.0 < factor <= 1.0):
        raise ParameterError(f"budget factor must be in (0, 1], got {factor}")
    n_b = max(1, int(np.floor(factor * n + 0.5)))
    m_b = max(1, int(np.floor(factor * m + 0.5)))
    return n_b, m_b


def screenkhorn(
    C: CostMatrix,
    eta: float,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    n_b: int,
    m_b: int,
    solver_config: SolverConfig | None = None,
    materialize_plan: bool = True,
) -> ScreenkhornResult:
    """Screen, solve the reduced dual by clipped scaling sweeps, reassemble.

    The returned potentials hold the threshold values log(eps/kappa) and
    log(eps*kappa) bit-exactly on the screened complements. A solver that
    stops on its caps comes back flagged converged=False rather than raising;
    the final iterate is still assembled.
    """
    budget = Budget(n_b, m_b)
    n, m = C.shape

    t_start = time.perf_counter()
    with _step("gibbs kernel"):
        K = gibbs_kernel(C, eta)

    with _step("screening"):
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, budget)
        sr = active_sets(mu, nu, K, eps, kap)
        problem = build_problem(mu, nu, K, sr)
    with _step("bounds"):
        bounds = box_bounds(problem, budget)
    with _step("solve"):
        report = restricted_sinkhorn(problem, bounds, solver_config)
    wall_time = time.perf_counter() - t_start

    with _step("assembly"):
        k = problem.n_active
        u_full = np.full(n, np.log(eps / kap))
        v_full = np.full(m, np.log(eps * kap))
        u_full[sr.active_rows] = report.solution[:k]
        v_full[sr.active_cols] = report.solution[k:]
        potentials = DualPotentials(u_full, v_full)
        if problem.matrix is K.entries:
            # the fills are eps/kappa and eps*kappa themselves rather than
            # exp of their logs, so these differ from _marginals' by rounding
            row_marginal, col_marginal = report.row_marginal, report.col_marginal
        else:
            row_marginal, col_marginal = _marginals(K, np.exp(u_full), np.exp(v_full))
        plan = plan_from_potentials(potentials, K) if materialize_plan else None

    return ScreenkhornResult(
        potentials=potentials,
        plan=plan,
        row_marginal=row_marginal,
        col_marginal=col_marginal,
        screening=sr,
        k_min=problem.k_min,
        bounds=bounds,
        budget=budget,
        solver_report=report,
        wall_time=wall_time,
    )
