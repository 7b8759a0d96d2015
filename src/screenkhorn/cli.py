"""Command line front end, and the file formats it reads and writes.

Exit codes: 0 on success, 1 for bad inputs (files, shapes, parameters),
2 for numeric failures at runtime, 3 when a certificate check fails.

Measures come as one CSV with header index,mu,nu (the shorter side padded
with trailing blank cells) or as two CSVs with headers index,<name>; index
cells read 0, 1, 2, ... in order, and weights are finite and positive. Cost
and plan files are headerless rows of comma-separated decimals, costs
finite and nonnegative. Blank lines are skipped, and every other line must
hold as many cells as the first.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from typing import Iterator

import click
import numpy as np

from .algorithm import decimation_to_budget, screenkhorn
from .bench import (
    DEFAULT_ETA_GRID,
    ExperimentConfig,
    cell_means_table,
    certify_outcome,
    compare_solvers,
    run_experiment,
)
from .core import CostMatrix, DiscreteMeasure, _chunk_workers
from .diagnostics import marginal_violations, omega_kappa
from .errors import (
    CertificateViolationError,
    InputError,
    ScreenkhornError,
)
from .solver import SolverConfig, SolverReport


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CertificateViolationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except ScreenkhornError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise InputError(f"cannot parse {piece!r} in --{what} as a number") from None
    if not out:
        raise InputError(f"--{what} must list at least one value")
    return tuple(out)


def _parse_budget_spec(text: str) -> tuple[float, ...]:
    """Either a comma list (0.1,0.5,0.9) or an inclusive range start:stop:step."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(
                f"budget range must be start:stop:step, got {text!r}"
            )
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise InputError(f"cannot parse budget range {text!r}") from None
        if step <= 0.0:
            raise InputError(f"budget range step must be positive, got {step}")
        if stop < start:
            raise InputError(f"budget range stop {stop} is below start {start}")
        values = []
        k = 0
        while True:
            value = start + k * step
            if value > stop * (1.0 + 1e-12) + 1e-15:
                break
            values.append(value)
            k += 1
        return tuple(values)
    return _parse_float_list(text, "budget")


# ---------------------------------------------------------------------------
# file formats


def _records(path: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each nonblank CSV line of path, after checking
    that it holds as many cells as the first nonblank line."""
    width = None
    with open(path, newline="") as fh:
        for line_no, record in enumerate(csv.reader(fh), start=1):
            if all(not cell.strip() for cell in record):
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise InputError(
                    f"{path}: line {line_no}: expected {width} cells, got {len(record)}"
                )
            yield line_no, record


def _parse_float(text: str, path: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(
            f"{path}: line {line}, column {column}: cannot parse {text!r} as a number"
        ) from None
    if math.isnan(value) or math.isinf(value):
        raise InputError(
            f"{path}: line {line}, column {column}: value {text!r} is not finite"
        )
    return value


def _parse_weight(text: str, path: str, line: int, column: str) -> float:
    value = _parse_float(text, path, line, column)
    if value <= 0.0:
        raise InputError(
            f"{path}: line {line}, column {column}: weight {value} "
            "is not strictly positive"
        )
    return value


def _weight_columns(
    path: str, records: Iterator[tuple[int, list[str]]], columns: list[str], padded: bool
) -> list[list[float]]:
    """The weights under each of columns, the cells after the index, in the
    records after the header. Index cells must read 0, 1, 2, ... in order. A
    padded file may end a column with a run of blank cells; any other blank
    cell fails to parse."""
    rows = list(records)
    for expected, (line_no, record) in enumerate(rows):
        if record[0].strip() != str(expected):
            raise InputError(
                f"{path}: line {line_no}, column index: expected {expected}, "
                f"got {record[0]!r}"
            )
    weights = []
    for k, column in enumerate(columns, start=1):
        cells = [(line_no, record[k]) for line_no, record in rows]
        while padded and cells and not cells[-1][1].strip():
            cells.pop()
        weights.append([_parse_weight(cell, path, line, column) for line, cell in cells])
    return weights


def load_measures(path: str) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    records = _records(path)
    _, header = next(records, (None, None))
    if header is None or [h.strip() for h in header] != ["index", "mu", "nu"]:
        raise InputError(f"{path}: expected header 'index,mu,nu', got {header}")
    mu_vals, nu_vals = _weight_columns(path, records, ["mu", "nu"], padded=True)
    if not mu_vals or not nu_vals:
        raise InputError(f"{path}: at least one weight per measure is required")
    return DiscreteMeasure(np.array(mu_vals)), DiscreteMeasure(np.array(nu_vals))


def load_single_measure(path: str) -> DiscreteMeasure:
    records = _records(path)
    _, header = next(records, (None, None))
    if header is None or len(header) != 2 or header[0].strip() != "index":
        raise InputError(
            f"{path}: expected a two-column header starting with 'index', "
            f"got {header}"
        )
    (vals,) = _weight_columns(path, records, [header[1].strip()], padded=False)
    if not vals:
        raise InputError(f"{path}: no weights found")
    return DiscreteMeasure(np.array(vals))


def load_cost(path: str) -> CostMatrix:
    rows: list[list[float]] = []
    for line_no, record in _records(path):
        parsed = [
            _parse_float(cell, path, line_no, str(col))
            for col, cell in enumerate(record)
        ]
        for col, value in enumerate(parsed):
            if value < 0.0:
                raise InputError(
                    f"{path}: line {line_no}, column {col}: cost {value} is negative"
                )
        rows.append(parsed)
    if not rows:
        raise InputError(f"{path}: no cost rows found")
    return CostMatrix(np.array(rows))


def load_problem(
    cost_path: str,
    measures_path: str | None = None,
    mu_path: str | None = None,
    nu_path: str | None = None,
) -> tuple[DiscreteMeasure, DiscreteMeasure, CostMatrix]:
    """(mu, nu, C): the measures from the combined file or from the mu/nu
    pair, and C checked against their sizes."""
    if measures_path is not None and (mu_path is not None or nu_path is not None):
        raise InputError("pass either --measures or the --mu/--nu pair, not both")
    if measures_path is not None:
        mu, nu = load_measures(measures_path)
        measures_from = measures_path
    elif mu_path is None or nu_path is None:
        raise InputError("measures are required: --measures or both --mu and --nu")
    else:
        mu, nu = load_single_measure(mu_path), load_single_measure(nu_path)
        measures_from = f"{mu_path} and {nu_path}"
    C = load_cost(cost_path)
    if C.shape != (mu.size, nu.size):
        raise InputError(
            f"{cost_path}: cost shape {C.shape} does not match measure sizes "
            f"({mu.size}, {nu.size}) from {measures_from}"
        )
    return mu, nu, C


def write_matrix(path: str, matrix: np.ndarray) -> None:
    """Headerless rows of comma-separated decimals (cost and plan files)."""
    with open(path, "w", newline="") as fh:
        for row in np.asarray(matrix, dtype=np.float64):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


@click.group()
def main():
    """Benchmark and solve entropic transport with screened duals."""


@main.command("run")
@click.option("--n", default=1000, show_default=True, type=int, help="rows")
@click.option("--m", default=1000, show_default=True, type=int, help="columns")
@click.option(
    "--eta",
    default=",".join(str(e) for e in DEFAULT_ETA_GRID),
    show_default=True,
    help="comma-separated regularization values",
)
@click.option(
    "--budget",
    default="0.1,0.25,0.5,0.75,0.99",
    show_default=True,
    help="comma list or inclusive start:stop:step of decimation factors",
)
@click.option("--trials", default=30, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option(
    "--normalize-cost/--no-normalize-cost", default=True, show_default=True
)
@click.option("--certify", is_flag=True, help="check certificates on every row")
@click.option("--pg-tol", default=1e-6, show_default=True, type=float)
@click.option("--verbose", is_flag=True, help="print progress per sweep cell")
@click.option("--out", default="results.csv", show_default=True)
@_mapped_errors
def run_cmd(n, m, eta, budget, trials, seed, normalize_cost, certify, pg_tol,
            verbose, out):
    """Paired Sinkhorn/Screenkhorn sweep over eta x budget x trial.

    Writes one CSV row per trial, then prints each cell's means over its
    converged rows."""
    cfg = ExperimentConfig(
        n=n,
        m=m,
        eta_list=_parse_float_list(eta, "eta"),
        budget_list=_parse_budget_spec(budget),
        trials=trials,
        seed=seed,
        normalize_cost=normalize_cost,
        output_path=out,
    )
    progress = (lambda msg: click.echo(msg, err=True)) if verbose else None
    rows, failures = run_experiment(
        cfg,
        certify=certify,
        solver_config=SolverConfig(pg_tolerance=pg_tol),
        progress=progress,
    )
    click.echo(f"wrote {len(rows)} rows to {cfg.output_path}")
    for line in cell_means_table(rows):
        click.echo(line)
    if failures:
        for row, cert in failures:
            click.echo(
                f"certificate {cert.name} failed at eta={row.eta} "
                f"budget={row.budget} trial={row.trial}: "
                f"{cert.empirical_value} > {cert.bound_value}",
                err=True,
            )
        raise CertificateViolationError(
            f"{len(failures)} certificate checks failed"
        )


_input_options = [
    click.option("--measures", default=None, type=click.Path(exists=True),
                 help="combined CSV with header index,mu,nu"),
    click.option("--mu", "mu_path", default=None, type=click.Path(exists=True),
                 help="row-measure CSV (header index,mu)"),
    click.option("--nu", "nu_path", default=None, type=click.Path(exists=True),
                 help="column-measure CSV (header index,nu)"),
    click.option("--cost", required=True, type=click.Path(exists=True),
                 help="headerless cost matrix CSV"),
]


def _echo_solve_work(report: SolverReport) -> None:
    """Why the screened solve stopped, and its work: sweeps, the pair of
    products with M that each sweep forms, and the threads, calling one
    included, that ran the row-chunk passes over n x m arrays."""
    click.echo(f"stop reason {report.stop_reason}")
    click.echo(f"sweeps {report.iterations}")
    click.echo(f"products {2 * report.evaluations}")
    click.echo(f"chunk workers {_chunk_workers().count}")


def _with_input_options(fn):
    for opt in reversed(_input_options):
        fn = opt(fn)
    return fn


@main.command("solve")
@_with_input_options
@click.option("--eta", required=True, type=float)
@click.option("--budget", default=0.5, show_default=True, type=float,
              help="decimation factor in (0, 1]")
@click.option("--pg-tol", default=1e-6, show_default=True, type=float)
@click.option("--out", default=None, type=click.Path(),
              help="write the transport plan as headerless CSV")
@_mapped_errors
def solve_cmd(measures, mu_path, nu_path, cost, eta, budget, pg_tol, out):
    """Solve one instance with the screened dual and report the solution."""
    mu, nu, C = load_problem(cost, measures, mu_path, nu_path)
    n_b, m_b = decimation_to_budget(mu.size, nu.size, budget)
    res = screenkhorn(
        C, eta, mu, nu, n_b, m_b,
        solver_config=SolverConfig(pg_tolerance=pg_tol),
        materialize_plan=out is not None,
    )
    click.echo(f"epsilon {res.screening.epsilon:.17g}")
    click.echo(f"kappa {res.screening.kappa:.17g}")
    click.echo(
        f"active rows {res.screening.n_active}/{mu.size}, "
        f"active cols {res.screening.m_active}/{nu.size}"
    )
    click.echo(f"converged {'true' if res.solver_report.converged else 'false'}")
    click.echo(
        f"projected gradient {res.solver_report.projected_gradient_inf_norm:.17g}"
    )
    _echo_solve_work(res.solver_report)
    row_violation, col_violation = marginal_violations(res, mu, nu)
    click.echo(f"row violation {row_violation:.17g}")
    click.echo(f"col violation {col_violation:.17g}")
    click.echo(f"wall time {res.wall_time:.17g}")
    if out is not None:
        write_matrix(out, res.plan.entries)
        click.echo(f"wrote plan to {out}")


@main.command("compare")
@_with_input_options
@click.option("--eta", required=True, type=float)
@click.option("--budget", default=0.5, show_default=True, type=float)
@click.option("--pg-tol", default=1e-6, show_default=True, type=float)
@click.option("--sinkhorn-threshold", default=1e-9, show_default=True, type=float)
@click.option("--sinkhorn-max-iter", default=1000, show_default=True, type=int)
@_mapped_errors
def compare_cmd(measures, mu_path, nu_path, cost, eta, budget, pg_tol,
                sinkhorn_threshold, sinkhorn_max_iter):
    """Run both solvers on one instance and print paired metrics."""
    mu, nu, C = load_problem(cost, measures, mu_path, nu_path)
    n_b, m_b = decimation_to_budget(mu.size, nu.size, budget)
    outcome = compare_solvers(
        C, eta, mu, nu, n_b, m_b,
        solver_config=SolverConfig(pg_tolerance=pg_tol),
        sinkhorn_threshold=sinkhorn_threshold,
        sinkhorn_max_iter=sinkhorn_max_iter,
    )
    res = outcome.screened
    click.echo(f"time sinkhorn {outcome.time_sinkhorn:.17g}")
    click.echo(f"time screenkhorn {outcome.time_screenkhorn:.17g}")
    click.echo(f"speedup {outcome.speedup:.17g}")
    click.echo(f"row violation {outcome.row_violation:.17g}")
    click.echo(f"col violation {outcome.col_violation:.17g}")
    click.echo(f"rel divergence {outcome.rel_divergence:.17g}")
    click.echo(f"epsilon {res.screening.epsilon:.17g}")
    click.echo(f"kappa {res.screening.kappa:.17g}")
    click.echo(
        f"active rows {res.screening.n_active}/{mu.size}, "
        f"active cols {res.screening.m_active}/{nu.size}"
    )
    click.echo(f"omega {omega_kappa(res):.17g}")
    _echo_solve_work(res.solver_report)
    click.echo(f"converged {'true' if outcome.converged else 'false'}")
    if not outcome.converged:
        click.echo("certificates skipped: run did not converge")
        return
    bad = []
    for cert in certify_outcome(outcome, mu, nu):
        state = "ok" if cert.satisfied else "FAILED"
        click.echo(
            f"certificate {cert.name}: {state} "
            f"({cert.empirical_value:.17g} <= {cert.bound_value:.17g})"
        )
        if not cert.satisfied:
            bad.append(cert.name)
    if bad:
        raise CertificateViolationError(
            "failed certificates: " + ", ".join(bad)
        )


if __name__ == "__main__":
    main()
