"""Benchmark harness: Gaussian cloud generation, cost construction, and
paired Sinkhorn vs screened-solve sweeps over (eta, budget, trial), written
as CSV rows. screenkhorn.cli reads the measure and cost files.

Data for a trial depends only on (master seed, trial index), so every
(eta, budget) cell sees identical inputs and comparisons are paired. Wall
times for both solvers include kernel construction; neither includes
materializing the dense plan. One warm-up solve per eta is run and discarded
before any timed work.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields
from typing import Callable, Iterable

import numpy as np

from ._rng import derive_seed, normals
from .algorithm import ScreenkhornResult, decimation_to_budget, screenkhorn
from .core import (
    CostMatrix,
    DiscreteMeasure,
    DualSolution,
    _chunk_pass,
    divergence,
    gibbs_kernel,
    sinkhorn,
)
from .diagnostics import (
    Certificate,
    marginal_norm_certificates,
    marginal_violations,
    pinsker_check,
    violation_certificate_cols,
    violation_certificate_rows,
)
from .errors import (
    DegenerateCostError,
    ParameterError,
    ScreenkhornError,
    ShapeError,
)
from .solver import SolverConfig

_Y_MEAN = np.array([3.0, 3.0])
# lower-triangular square root of the target covariance [[1, -0.8], [-0.8, 1]]
_Y_CHOL = np.array([[1.0, 0.0], [-0.8, 0.6]])

DEFAULT_ETA_GRID = (0.1, 0.5, 1.0, 5.0)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    m: int
    eta_list: tuple[float, ...]
    budget_list: tuple[float, ...]
    trials: int
    seed: int
    normalize_cost: bool
    output_path: str

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ParameterError(f"sizes must be positive, got ({self.n}, {self.m})")
        if not self.eta_list:
            raise ParameterError("eta_list must be nonempty")
        if any(not (0.0 < e < np.inf) for e in self.eta_list):
            raise ParameterError(
                f"every eta must be positive and finite, got {self.eta_list}"
            )
        if not self.budget_list:
            raise ParameterError("budget_list must be nonempty")
        if any(not (0.0 < b <= 1.0) for b in self.budget_list):
            raise ParameterError(
                f"every budget factor must be in (0, 1], got {self.budget_list}"
            )
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials}")


@dataclass(frozen=True)
class ResultRow:
    eta: float
    budget: float
    trial: int
    seed: int
    time_sinkhorn: float
    time_screenkhorn: float
    speedup: float
    row_violation: float
    col_violation: float
    rel_divergence: float
    kappa: float
    epsilon: float
    active_rows: int
    active_cols: int
    converged: bool


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def generate_gaussian_pair(
    n: int, m: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """X from the standard bivariate normal, Y from mean (3,3) with
    covariance [[1, -0.8], [-0.8, 1]]. Deterministic in (n, m, seed)."""
    if n < 1 or m < 1:
        raise ParameterError(f"sizes must be positive, got ({n}, {m})")
    z = normals(seed, 2 * (n + m))
    x = z[: 2 * n].reshape(n, 2)
    y = _Y_MEAN + z[2 * n :].reshape(m, 2) @ _Y_CHOL.T
    return x, y


def pairwise_euclidean(x: np.ndarray, y: np.ndarray, normalize: bool) -> CostMatrix:
    """C_ij = |x_i - y_j|_2, optionally scaled so the largest entry is 1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != 2 or y.shape[1] != 2:
        raise ShapeError(
            f"expected 2-column point arrays, got shapes {x.shape} and {y.shape}"
        )
    c = np.empty((x.shape[0], y.shape[0]))
    # each coordinate contiguous, so the broadcast differences read unit strides
    (x0, x1), (y0, y1) = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    top = -np.inf

    # each chunk is written in place as dx*dx + dy*dy, the sum numpy's
    # reduction over the coordinate axis forms, so C is bit for bit the
    # distance of the two points; its maximum is taken while it sits in cache
    def distances(rows):
        chunk = c[rows]
        np.subtract(x0[rows, None], y0, out=chunk)
        np.multiply(chunk, chunk, out=chunk)
        dy = np.subtract(x1[rows, None], y1)
        np.multiply(dy, dy, out=dy)
        np.add(chunk, dy, out=chunk)
        np.sqrt(chunk, out=chunk)
        return chunk.max()

    def fold(chunk_max):
        nonlocal top
        # np.maximum passes a nan on, as c.max() would
        top = np.maximum(top, chunk_max)

    _chunk_pass(*c.shape, distances, fold)
    if normalize:
        if top <= 0.0:
            raise DegenerateCostError(
                "cannot normalize: every pairwise distance is zero"
            )
        _chunk_pass(*c.shape, lambda rows: np.divide(c[rows], top, out=c[rows]))
    return CostMatrix(c)


@dataclass(frozen=True, eq=False)
class ComparisonOutcome:
    """Both solvers run on one instance, with the paired metrics."""

    time_sinkhorn: float
    time_screenkhorn: float
    row_violation: float
    col_violation: float
    rel_divergence: float
    baseline: DualSolution
    screened: ScreenkhornResult

    @property
    def speedup(self) -> float:
        return self.time_sinkhorn / self.time_screenkhorn

    @property
    def converged(self) -> bool:
        return self.baseline.converged and self.screened.solver_report.converged


def compare_solvers(
    C: CostMatrix,
    eta: float,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    n_b: int,
    m_b: int,
    solver_config: SolverConfig | None = None,
    sinkhorn_threshold: float = 1e-9,
    sinkhorn_max_iter: int = 1000,
) -> ComparisonOutcome:
    """Run baseline and screened solvers on identical inputs and compare."""
    t0 = time.perf_counter()
    K = gibbs_kernel(C, eta)
    baseline = sinkhorn(mu, nu, K, sinkhorn_threshold, sinkhorn_max_iter)
    time_sink = time.perf_counter() - t0

    screened = screenkhorn(
        C, eta, mu, nu, n_b, m_b,
        solver_config=solver_config,
        materialize_plan=False,
    )

    row_violation, col_violation = marginal_violations(screened, mu, nu)
    cost_star = divergence(baseline.potentials, K, C)
    # the relative divergence divides by the baseline's cost, 0 on an all-zero cost
    if not cost_star > 0.0:
        raise DegenerateCostError(f"baseline cost {cost_star}: no relative divergence")
    cost_screen = divergence(screened.potentials, K, C)
    rel_divergence = abs(cost_star - cost_screen) / cost_star

    return ComparisonOutcome(
        time_sinkhorn=time_sink,
        time_screenkhorn=screened.wall_time,
        row_violation=row_violation,
        col_violation=col_violation,
        rel_divergence=rel_divergence,
        baseline=baseline,
        screened=screened,
    )


def certify_outcome(
    outcome: ComparisonOutcome, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> list[Certificate]:
    """All per-run certificates for a converged comparison.

    Containment of the solution in its box is checked first (reported as a
    zero/one certificate), then the Pinsker inequality on both marginal
    pairs, the explicit squared-violation bounds, and the marginal mass
    bounds.
    """
    res = outcome.screened
    lower, upper = res.bounds.stacked(res.screening.n_active, res.screening.m_active)
    sol = res.solver_report.solution
    inside = bool(np.all(sol >= lower) and np.all(sol <= upper))
    checks = [
        Certificate(0.0 if inside else 1.0, 0.0, inside, "box-containment"),
        pinsker_check(mu.weights, res.row_marginal),
        pinsker_check(nu.weights, res.col_marginal),
        violation_certificate_rows(res, mu, nu),
        violation_certificate_cols(res, mu, nu),
    ]
    checks.extend(marginal_norm_certificates(res, mu, nu))
    return checks


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def run_experiment(
    cfg: ExperimentConfig,
    certify: bool = False,
    solver_config: SolverConfig | None = None,
    progress: Callable[[str], None] | None = None,
) -> tuple[list[ResultRow], list[tuple[ResultRow, Certificate]]]:
    """Sweep eta x budget x trial, writing CSV rows as they complete.

    A row that fails inside either solver is recorded with nan metrics and
    converged=false instead of aborting the sweep. Certificate checks run
    only on converged rows and failures are collected, not raised.
    """
    say = progress or (lambda _msg: None)
    mu = DiscreteMeasure(np.full(cfg.n, 1.0 / cfg.n))
    nu = DiscreteMeasure(np.full(cfg.m, 1.0 / cfg.m))
    rows: list[ResultRow] = []
    cert_failures: list[tuple[ResultRow, Certificate]] = []

    with open(cfg.output_path, "w", newline="") as out:
        out.write(",".join(RESULT_COLUMNS) + "\n")
        out.flush()
        for eta in cfg.eta_list:
            # warm-up, discarded: first trial's data at the first budget
            warm_seed = derive_seed(cfg.seed, 0)
            wx, wy = generate_gaussian_pair(cfg.n, cfg.m, warm_seed)
            wc = pairwise_euclidean(wx, wy, cfg.normalize_cost)
            n_b, m_b = decimation_to_budget(cfg.n, cfg.m, cfg.budget_list[0])
            try:
                compare_solvers(wc, eta, mu, nu, n_b, m_b, solver_config)
            except ScreenkhornError:
                pass
            say(f"eta={eta}: warm-up done")

            for budget_factor in cfg.budget_list:
                n_b, m_b = decimation_to_budget(cfg.n, cfg.m, budget_factor)
                for trial in range(cfg.trials):
                    trial_seed = derive_seed(cfg.seed, trial)
                    x, y = generate_gaussian_pair(cfg.n, cfg.m, trial_seed)
                    C = pairwise_euclidean(x, y, cfg.normalize_cost)
                    try:
                        outcome = compare_solvers(
                            C, eta, mu, nu, n_b, m_b, solver_config
                        )
                    except ScreenkhornError as exc:
                        say(f"eta={eta} budget={budget_factor} trial={trial}: {exc}")
                        outcome = None
                        # nan metrics, no active indices, not converged
                        metrics = (float("nan"),) * 8 + (0, 0, False)
                    else:
                        sr = outcome.screened.screening
                        metrics = (
                            outcome.time_sinkhorn, outcome.time_screenkhorn,
                            outcome.speedup, outcome.row_violation,
                            outcome.col_violation, outcome.rel_divergence,
                            sr.kappa, sr.epsilon, sr.n_active, sr.m_active,
                            outcome.converged,
                        )
                    # the metrics follow ResultRow's first four columns in order
                    row = ResultRow(eta, budget_factor, trial, trial_seed, *metrics)
                    rows.append(row)
                    out.write(",".join(map(format_value, astuple(row))) + "\n")
                    out.flush()
                    if certify and outcome is not None and outcome.converged:
                        for cert in certify_outcome(outcome, mu, nu):
                            if not cert.satisfied:
                                cert_failures.append((row, cert))
                                say(
                                    f"certificate {cert.name} FAILED: "
                                    f"{cert.empirical_value} > {cert.bound_value}"
                                )
                say(f"eta={eta} budget={budget_factor}: {cfg.trials} trials done")
    return rows, cert_failures


def cell_means_table(rows: Iterable[ResultRow]) -> list[str]:
    """One line per (eta, budget) cell, in sweep order: the means of the
    speedup, both violations and the relative divergence over the cell's
    converged rows, and how many of its rows converged."""
    cells: dict[tuple[float, float], list[ResultRow]] = {}
    for r in rows:
        cells.setdefault((r.eta, r.budget), []).append(r)
    lines = [
        f"{'eta':>6} {'budget':>7} {'speedup':>8} {'row_viol':>9} "
        f"{'col_viol':>9} {'rel_div':>8} {'conv':>7}"
    ]
    for (eta, budget), cell in cells.items():
        got = [r for r in cell if r.converged]
        conv = f"{len(got)}/{len(cell)}"
        if not got:
            lines.append(f"{eta:>6g} {budget:>7g} {'none converged':>36} {conv:>7}")
            continue
        mean = {
            name: float(np.mean([getattr(r, name) for r in got]))
            for name in ("speedup", "row_violation", "col_violation", "rel_divergence")
        }
        lines.append(
            f"{eta:>6g} {budget:>7g} {mean['speedup']:8.3f} "
            f"{mean['row_violation']:9.4f} {mean['col_violation']:9.4f} "
            f"{mean['rel_divergence']:8.4f} {conv:>7}"
        )
    return lines
