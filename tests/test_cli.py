import functools

import numpy as np
import pytest
from click.testing import CliRunner

from screenkhorn import (
    CostMatrix,
    DiscreteMeasure,
    InputError,
    SolverConfig,
    decimation_to_budget,
    screenkhorn,
)
from screenkhorn.bench import RESULT_COLUMNS
from screenkhorn.core import _chunk_workers
from screenkhorn.cli import (
    _parse_budget_spec,
    _parse_float_list,
    load_cost,
    load_problem,
    main,
    write_matrix,
)
from conftest import write_measures, write_single_measure


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def instance_files(tmp_path):
    """A 6x6 instance on disk: ascending mu, descending nu, quadratic cost.

    The reversed measures make the sorted row and column screening ratios
    coincide, so the full budget lands on kappa == 1 while the weights stay
    non-uniform. That combination is the compact regression case for the
    full-budget certificate failure exercised below.
    """
    mu = DiscreteMeasure(np.arange(1.0, 7.0))
    nu = DiscreteMeasure(np.arange(6.0, 0.0, -1.0))
    idx = np.arange(6.0)
    C = CostMatrix(((idx[:, None] - idx[None, :]) ** 2) / 25.0)
    paths = {
        "measures": str(tmp_path / "measures.csv"),
        "mu": str(tmp_path / "mu.csv"),
        "nu": str(tmp_path / "nu.csv"),
        "cost": str(tmp_path / "cost.csv"),
    }
    write_measures(paths["measures"], mu, nu)
    write_single_measure(paths["mu"], "mu", mu)
    write_single_measure(paths["nu"], "nu", nu)
    write_matrix(paths["cost"], C.entries)
    return paths


class TestBudgetSpec:
    def test_inclusive_range(self):
        assert _parse_budget_spec("0.2:0.8:0.3") == pytest.approx((0.2, 0.5, 0.8))

    def test_range_reaches_stop_despite_rounding(self):
        assert _parse_budget_spec("0.1:0.5:0.2") == pytest.approx((0.1, 0.3, 0.5))

    def test_comma_list(self):
        assert _parse_budget_spec("0.1, 0.5,") == (0.1, 0.5)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5:0.2:0.1", "below start"),
            ("0.1:0.5:0", "step must be positive"),
            ("1:2", "start:stop:step"),
            ("0.1:b:0.2", "cannot parse budget range"),
        ],
    )
    def test_bad_ranges(self, text, message):
        with pytest.raises(InputError, match=message):
            _parse_budget_spec(text)

    def test_bad_float_lists(self):
        with pytest.raises(InputError, match="cannot parse 'abc'"):
            _parse_float_list("1.0,abc", "eta")
        with pytest.raises(InputError, match="at least one value"):
            _parse_float_list(" , ", "eta")


class TestSolveCommand:
    def test_reports_solution_summary(self, runner, instance_files):
        result = runner.invoke(
            main,
            ["solve", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1.0", "--budget", "0.5"],
        )
        assert result.exit_code == 0, result.output
        assert "epsilon " in result.output
        assert "kappa " in result.output
        assert "converged true" in result.output
        assert "row violation" in result.output
        assert "wall time" in result.output

    def test_reports_why_and_how_long_the_solve_ran(self, runner, instance_files):
        result = runner.invoke(
            main,
            ["solve", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1.0", "--budget", "0.5",
             "--pg-tol", "1e-9"],
        )
        assert result.exit_code == 0, result.output
        mu, nu, C = load_problem(instance_files["cost"], instance_files["measures"])
        report = screenkhorn(
            C, 1.0, mu, nu, *decimation_to_budget(6, 6, 0.5),
            solver_config=SolverConfig(pg_tolerance=1e-9), materialize_plan=False,
        ).solver_report
        assert report.stop_reason == "pg_tolerance" and report.iterations > 1
        lines = result.output.splitlines()
        assert "stop reason pg_tolerance" in lines
        assert f"sweeps {report.iterations}" in lines
        assert f"products {2 * report.iterations}" in lines
        assert f"chunk workers {_chunk_workers().count}" in lines

    def test_writes_plan_file(self, runner, instance_files, tmp_path):
        plan_path = str(tmp_path / "plan.csv")
        result = runner.invoke(
            main,
            ["solve", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1.0", "--out", plan_path],
        )
        assert result.exit_code == 0, result.output
        assert f"wrote plan to {plan_path}" in result.output
        plan = load_cost(plan_path)
        assert plan.shape == (6, 6)
        assert plan.entries.min() > 0.0

    def test_split_measure_files_match_combined(self, runner, instance_files):
        combined = runner.invoke(
            main,
            ["solve", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1.0"],
        )
        split = runner.invoke(
            main,
            ["solve", "--mu", instance_files["mu"], "--nu", instance_files["nu"],
             "--cost", instance_files["cost"], "--eta", "1.0"],
        )
        assert combined.exit_code == 0 and split.exit_code == 0
        pick = lambda out, key: [l for l in out.splitlines() if l.startswith(key)]
        for key in ("epsilon", "kappa", "row violation", "col violation"):
            assert pick(combined.output, key) == pick(split.output, key)

    def test_measures_and_split_together_is_an_error(self, runner, instance_files):
        result = runner.invoke(
            main,
            ["solve", "--measures", instance_files["measures"],
             "--mu", instance_files["mu"], "--cost", instance_files["cost"],
             "--eta", "1.0"],
        )
        assert result.exit_code == 1
        assert "not both" in result.output

    def test_half_of_split_pair_is_an_error(self, runner, instance_files):
        result = runner.invoke(
            main,
            ["solve", "--mu", instance_files["mu"],
             "--cost", instance_files["cost"], "--eta", "1.0"],
        )
        assert result.exit_code == 1
        assert "both --mu and --nu" in result.output

    def test_negative_eta_exits_one(self, runner, instance_files):
        result = runner.invoke(
            main,
            ["solve", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "-1.0"],
        )
        assert result.exit_code == 1
        assert "eta must be positive" in result.output

    def test_kernel_underflow_exits_two(self, runner, instance_files):
        result = runner.invoke(
            main,
            ["solve", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1e-4"],
        )
        assert result.exit_code == 2
        assert "underflowed" in result.output

    def test_budget_outside_unit_interval_exits_one(self, runner, instance_files):
        result = runner.invoke(
            main,
            ["solve", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1.0", "--budget", "1.5"],
        )
        assert result.exit_code == 1
        assert "budget factor" in result.output


class TestCompareCommand:
    def test_paired_report_with_certificates(self, runner, instance_files):
        result = runner.invoke(
            main,
            ["compare", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1.0", "--budget", "0.5",
             "--pg-tol", "1e-8"],
        )
        assert result.exit_code == 0, result.output
        for key in ("speedup", "rel divergence", "omega"):
            assert key in result.output
        assert "converged true" in result.output
        assert "stop reason pg_tolerance" in result.output.splitlines()
        assert result.output.count("certificate") == 7
        assert "FAILED" not in result.output

    def test_full_budget_certificate_failure_exits_three(self, runner, instance_files):
        # at the full budget the dual optimum pins some coordinates to the
        # screening thresholds, the stationarity the violation bounds assume
        # breaks, and the certificates report it; the command must propagate
        # that as the certificate exit code rather than swallow it
        result = runner.invoke(
            main,
            ["compare", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1.0", "--budget", "1.0",
             "--pg-tol", "1e-8"],
        )
        assert result.exit_code == 3
        assert "FAILED" in result.output
        assert "failed certificates" in result.output

    def test_unconverged_run_skips_certificates(self, runner, instance_files, monkeypatch):
        # the sweeps meet even --pg-tol 1e-15 on this instance, so the run is
        # made to stop unconverged by a cap of one sweep on the config the
        # command builds
        monkeypatch.setattr(
            "screenkhorn.cli.SolverConfig", functools.partial(SolverConfig, max_iterations=1)
        )
        result = runner.invoke(
            main,
            ["compare", "--measures", instance_files["measures"],
             "--cost", instance_files["cost"], "--eta", "1.0", "--budget", "0.5",
             "--pg-tol", "1e-15"],
        )
        assert result.exit_code == 0, result.output
        assert "converged false" in result.output
        lines = result.output.splitlines()
        assert {"stop reason max_iterations", "sweeps 1", "products 2",
                f"chunk workers {_chunk_workers().count}"} <= set(lines)
        assert "certificates skipped" in result.output
        assert "certificate box-containment" not in result.output

    def test_zero_cost_exits_one(self, runner, instance_files, tmp_path):
        zeros = str(tmp_path / "zeros.csv")
        write_matrix(zeros, np.zeros((6, 6)))
        result = runner.invoke(
            main,
            ["compare", "--measures", instance_files["measures"],
             "--cost", zeros, "--eta", "1.0"],
        )
        assert result.exit_code == 1, result.output
        assert "baseline cost 0.0: no relative divergence" in result.output


class TestRunCommand:
    def test_tiny_sweep_writes_csv(self, runner, tmp_path):
        out = str(tmp_path / "sweep.csv")
        result = runner.invoke(
            main,
            ["run", "--n", "10", "--m", "10", "--eta", "1.0",
             "--budget", "0.4,0.8", "--trials", "1", "--seed", "3",
             "--certify", "--out", out],
        )
        assert result.exit_code == 0, result.output
        assert f"wrote 2 rows to {out}" in result.output
        lines = open(out).read().strip().split("\n")
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 3

    def test_prints_cell_means(self, runner, tmp_path):
        out = str(tmp_path / "sweep.csv")
        result = runner.invoke(
            main,
            ["run", "--n", "10", "--m", "10", "--eta", "1.0,0.5",
             "--budget", "0.4,0.8", "--trials", "2", "--seed", "3", "--out", out],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().split("\n")
        header = lines.index(
            f"{'eta':>6} {'budget':>7} {'speedup':>8} {'row_viol':>9} "
            f"{'col_viol':>9} {'rel_div':>8} {'conv':>7}"
        )
        cells = [line.split() for line in lines[header + 1 :]]
        assert [c[:2] for c in cells] == [
            ["1", "0.4"], ["1", "0.8"], ["0.5", "0.4"], ["0.5", "0.8"]
        ]
        rows = [r.split(",") for r in open(out).read().strip().split("\n")[1:]]
        col = RESULT_COLUMNS.index
        for (eta, budget, *means, conv), first in zip(cells, range(0, 8, 2)):
            pair = rows[first : first + 2]
            assert conv == f"{sum(r[col('converged')] == 'true' for r in pair)}/2"
            for value, name in zip(
                means, ("speedup", "row_violation", "col_violation", "rel_divergence")
            ):
                want = np.mean([float(r[col(name)]) for r in pair])
                assert float(value) == pytest.approx(want, abs=6e-4 * max(1.0, abs(want)))
        # small etas keep distinct labels
        result = runner.invoke(
            main,
            ["run", "--n", "10", "--m", "10", "--eta", "0.004,0.002",
             "--budget", "0.4", "--trials", "1", "--seed", "3", "--out", out],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().split("\n")
        assert [line.split()[:2] for line in lines[-2:]] == [["0.004", "0.4"], ["0.002", "0.4"]]

    def test_budget_range_spec(self, runner, tmp_path):
        out = str(tmp_path / "sweep.csv")
        result = runner.invoke(
            main,
            ["run", "--n", "8", "--m", "8", "--eta", "1.0",
             "--budget", "0.2:0.8:0.3", "--trials", "1", "--out", out],
        )
        assert result.exit_code == 0, result.output
        assert "wrote 3 rows" in result.output

    def test_verbose_progress(self, runner, tmp_path):
        out = str(tmp_path / "sweep.csv")
        result = runner.invoke(
            main,
            ["run", "--n", "8", "--m", "8", "--eta", "1.0", "--budget", "0.5",
             "--trials", "1", "--verbose", "--out", out],
        )
        assert result.exit_code == 0
        assert "warm-up done" in result.output
        assert "trials done" in result.output

    def test_unparsable_eta_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", "--n", "8", "--m", "8", "--eta", "1.0,abc",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 1
        assert "cannot parse" in result.output

    def test_zero_budget_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", "--n", "8", "--m", "8", "--eta", "1.0", "--budget", "0",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 1
        assert "budget factor" in result.output
