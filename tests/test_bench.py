import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from screenkhorn import (
    CostMatrix,
    DegenerateCostError,
    DiscreteMeasure,
    DualSolution,
    ExperimentConfig,
    InputError,
    ParameterError,
    ScreenkhornResult,
    ShapeError,
    SolverConfig,
    certify_outcome,
    compare_solvers,
    generate_gaussian_pair,
    pairwise_euclidean,
    plan_from_potentials,
    run_experiment,
    screenkhorn,
)
from screenkhorn import gibbs_kernel
from screenkhorn.bench import RESULT_COLUMNS
from screenkhorn.cli import (
    load_cost,
    load_measures,
    load_problem,
    load_single_measure,
    write_matrix,
)
from screenkhorn._rng import derive_seed
from conftest import random_instance, write_measures, write_single_measure

# columns that legitimately differ between repeat runs of the same config
TIME_COLUMNS = ("time_sinkhorn", "time_screenkhorn", "speedup")


def small_config(out, **overrides):
    base = dict(
        n=12,
        m=12,
        eta_list=(1.0,),
        budget_list=(0.4, 0.8),
        trials=2,
        seed=77,
        normalize_cost=True,
        output_path=str(out),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_accepts_full_budget_factor(self):
        cfg = small_config("unused.csv", budget_list=(1.0,))
        assert cfg.budget_list == (1.0,)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n=0),
            dict(m=-3),
            dict(eta_list=()),
            dict(eta_list=(1.0, 0.0)),
            dict(eta_list=(float("nan"),)),
            dict(budget_list=()),
            dict(budget_list=(0.0,)),
            dict(budget_list=(1.2,)),
            dict(trials=0),
            dict(eta_list=(float("inf"),)),
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        with pytest.raises(ParameterError):
            small_config("unused.csv", **overrides)


class TestResultColumns:
    def test_column_order_is_frozen(self):
        assert RESULT_COLUMNS == (
            "eta",
            "budget",
            "trial",
            "seed",
            "time_sinkhorn",
            "time_screenkhorn",
            "speedup",
            "row_violation",
            "col_violation",
            "rel_divergence",
            "kappa",
            "epsilon",
            "active_rows",
            "active_cols",
            "converged",
        )

    def test_time_columns_are_result_columns(self):
        assert set(TIME_COLUMNS) <= set(RESULT_COLUMNS)


class TestGenerateGaussianPair:
    def test_deterministic_in_seed(self):
        x1, y1 = generate_gaussian_pair(7, 5, 123)
        x2, y2 = generate_gaussian_pair(7, 5, 123)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
        x3, _ = generate_gaussian_pair(7, 5, 124)
        assert not np.array_equal(x1, x3)

    def test_shapes(self):
        x, y = generate_gaussian_pair(7, 5, 0)
        assert x.shape == (7, 2)
        assert y.shape == (5, 2)

    def test_first_moments_and_covariance(self):
        x, y = generate_gaussian_pair(4000, 4000, 9)
        assert np.abs(x.mean(axis=0)).max() < 0.1
        assert np.abs(x.std(axis=0) - 1.0).max() < 0.1
        assert np.abs(y.mean(axis=0) - 3.0).max() < 0.1
        cov = np.cov(y.T)
        assert abs(cov[0, 0] - 1.0) < 0.1
        assert abs(cov[1, 1] - 1.0) < 0.1
        assert abs(cov[0, 1] + 0.8) < 0.1

    def test_rejects_empty_sides(self):
        with pytest.raises(ParameterError):
            generate_gaussian_pair(0, 5, 1)
        with pytest.raises(ParameterError):
            generate_gaussian_pair(5, 0, 1)


class TestPairwiseEuclidean:
    def test_hand_distance(self):
        C = pairwise_euclidean(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), False)
        assert C.entries[0, 0] == 5.0

    def test_normalization_puts_max_at_one(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([[0.0, 2.0], [5.0, 5.0]])
        C = pairwise_euclidean(x, y, True)
        assert C.max_norm == 1.0
        raw = pairwise_euclidean(x, y, False)
        np.testing.assert_allclose(C.entries, raw.entries / raw.entries.max(), rtol=1e-15)

    def test_matches_broadcast_formula_bitwise(self):
        # 150 rows of 1000 targets end partway through the third row chunk
        x, y = generate_gaussian_pair(150, 1000, 7)
        diff = x[:, None, :] - y[None, :, :]
        want = np.sqrt((diff * diff).sum(axis=2))
        np.testing.assert_array_equal(pairwise_euclidean(x, y, False).entries, want)
        np.testing.assert_array_equal(
            pairwise_euclidean(x, y, True).entries, want / want.max()
        )

    def test_all_zero_distances_cannot_normalize(self):
        pt = np.array([[1.0, 1.0]])
        with pytest.raises(DegenerateCostError):
            pairwise_euclidean(pt, pt, True)
        assert pairwise_euclidean(pt, pt, False).entries[0, 0] == 0.0

    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeError):
            pairwise_euclidean(np.zeros((3, 3)), np.zeros((2, 2)), False)
        with pytest.raises(ShapeError):
            pairwise_euclidean(np.zeros(4), np.zeros((2, 2)), False)


class TestCompareSolvers:
    def test_paired_metrics(self):
        mu, nu, C, K = random_instance(4, 14, 11)
        outcome = compare_solvers(
            C, 1.0, mu, nu, 7, 6, solver_config=SolverConfig(pg_tolerance=1e-8)
        )
        assert isinstance(outcome.baseline, DualSolution)
        assert isinstance(outcome.screened, ScreenkhornResult)
        assert outcome.converged
        assert outcome.speedup == outcome.time_sinkhorn / outcome.time_screenkhorn
        assert outcome.time_sinkhorn > 0.0
        assert outcome.time_screenkhorn > 0.0
        assert outcome.row_violation >= 0.0
        assert outcome.col_violation >= 0.0

    def test_rel_divergence_matches_materialized_plans(self):
        mu, nu, C, K = random_instance(4, 14, 11)
        outcome = compare_solvers(
            C, 1.0, mu, nu, 7, 6, solver_config=SolverConfig(pg_tolerance=1e-8)
        )
        base_plan = plan_from_potentials(outcome.baseline.potentials, K)
        screen_plan = plan_from_potentials(outcome.screened.potentials, K)
        base_cost = np.sum(C.entries * base_plan.entries)
        screen_cost = np.sum(C.entries * screen_plan.entries)
        expected = abs(base_cost - screen_cost) / base_cost
        assert outcome.rel_divergence == pytest.approx(expected, rel=1e-10)

    def test_unconverged_screened_side_flags_outcome(self):
        mu, nu, C, _ = random_instance(4, 14, 11)
        cfg = SolverConfig(pg_tolerance=1e-14, max_iterations=1)
        outcome = compare_solvers(C, 1.0, mu, nu, 7, 6, solver_config=cfg)
        assert outcome.baseline.converged
        assert not outcome.converged

    def test_zero_baseline_cost_is_degenerate(self):
        # every cost entry zero: the baseline plan costs 0, and the relative
        # divergence has nothing to divide by
        mu, nu, C, _ = random_instance(4, 6, 5)
        with pytest.raises(DegenerateCostError, match="baseline cost 0.0"):
            compare_solvers(CostMatrix(np.zeros((6, 5))), 1.0, mu, nu, 3, 3)


class TestCertifyOutcome:
    def test_seven_checks_all_satisfied(self):
        mu, nu, C, _ = random_instance(8, 16, 13)
        outcome = compare_solvers(
            C, 1.0, mu, nu, 8, 7, solver_config=SolverConfig(pg_tolerance=1e-8)
        )
        assert outcome.converged
        certs = certify_outcome(outcome, mu, nu)
        assert [c.name for c in certs] == [
            "box-containment",
            "pinsker",
            "pinsker",
            "row-violation-squared",
            "col-violation-squared",
            "row-marginal-mass",
            "col-marginal-mass",
        ]
        for cert in certs:
            assert cert.satisfied, (cert.name, cert.empirical_value, cert.bound_value)


class TestRunExperiment:
    def test_row_counts_and_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = small_config(out, eta_list=(1.0, 2.0))
        rows, failures = run_experiment(cfg, certify=True)
        assert len(rows) == 2 * 2 * 2
        assert failures == []
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 1 + len(rows)
        assert all(row.converged for row in rows)
        assert all(row.seed == derive_seed(cfg.seed, row.trial) for row in rows)

    def test_deterministic_outside_time_columns(self, tmp_path):
        rows1, _ = run_experiment(small_config(tmp_path / "a.csv"))
        rows2, _ = run_experiment(small_config(tmp_path / "b.csv"))
        assert len(rows1) == len(rows2)
        stable = [name for name in RESULT_COLUMNS if name not in TIME_COLUMNS]
        for r1, r2 in zip(rows1, rows2):
            for name in stable:
                assert getattr(r1, name) == getattr(r2, name), name

    def test_progress_callback_sees_each_cell(self, tmp_path):
        messages = []
        run_experiment(small_config(tmp_path / "c.csv"), progress=messages.append)
        assert any("warm-up" in msg for msg in messages)
        assert sum("trials done" in msg for msg in messages) == 2

    def test_solver_failure_becomes_nan_row(self, tmp_path):
        # eta this small underflows the kernel outright; the sweep must keep
        # going and record the cell instead of dying
        out = tmp_path / "failed.csv"
        cfg = small_config(out, eta_list=(1e-6,), budget_list=(0.5,), trials=1)
        rows, failures = run_experiment(cfg, certify=True)
        assert len(rows) == 1
        assert failures == []
        row = rows[0]
        assert not row.converged
        assert math.isnan(row.speedup)
        assert math.isnan(row.rel_divergence)
        assert row.active_rows == 0 and row.active_cols == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert "false" in lines[1]


class TestMeasureFiles:
    def test_round_trip_with_padding(self, tmp_path):
        path = str(tmp_path / "measures.csv")
        mu = DiscreteMeasure(np.array([0.2, 0.3, 0.5]))
        nu = DiscreteMeasure(np.array([0.1, 0.2, 0.3, 0.25, 0.15]))
        write_measures(path, mu, nu)
        mu2, nu2 = load_measures(path)
        np.testing.assert_allclose(mu2.weights, mu.weights, rtol=1e-15)
        np.testing.assert_allclose(nu2.weights, nu.weights, rtol=1e-15)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("idx,mu,nu\n0,0.5,0.5\n")
        with pytest.raises(InputError, match="expected header"):
            load_measures(str(path))

    def test_rejects_wrong_cell_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,mu,nu\n0,0.5,0.5,9\n")
        with pytest.raises(InputError, match="expected 3 cells"):
            load_measures(str(path))

    def test_error_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,mu,nu\n0,0.5,0.5\n1,oops,0.5\n")
        with pytest.raises(InputError, match=r"line 3, column mu.*'oops'"):
            load_measures(str(path))

    def test_rejects_non_finite_and_nonpositive(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,mu,nu\n0,nan,0.5\n")
        with pytest.raises(InputError, match="not finite"):
            load_measures(str(path))
        path.write_text("index,mu,nu\n0,-0.5,0.5\n")
        with pytest.raises(InputError, match="not strictly positive"):
            load_measures(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("index,mu,nu\n0,0.5,0.5\n\n1,0.5,0.5\n")
        mu, nu = load_measures(str(path))
        assert mu.size == 2 and nu.size == 2

    def test_empty_measures_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,mu,nu\n")
        with pytest.raises(InputError, match="at least one weight"):
            load_measures(str(path))

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            # a blank inside a column would move the weights after it
            (load_measures, "index,mu,nu\n0,,0.5\n1,0.3,0.5\n2,0.2,\n",
             r"line 2, column mu: cannot parse ''"),
            (load_measures, "index,mu,nu\n7,0.5,0.5\n7,0.5,0.5\n",
             r"line 2, column index: expected 0, got '7'"),
            (load_single_measure, "index,mu\n0,0.5\n0,0.5\n",
             r"line 3, column index: expected 1, got '0'"),
            (load_single_measure, "index,mu\n0,0.5\n1,\n",
             r"line 3, column mu: cannot parse ''"),
        ],
    )
    def test_rejects_misnumbered_index_and_inner_blank(
        self, tmp_path, loader, text, message
    ):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=message) as info:
            loader(str(path))
        assert str(info.value).startswith(f"{path}: ")

    def test_single_measure_round_trip(self, tmp_path):
        path = str(tmp_path / "mu.csv")
        mu = DiscreteMeasure(np.array([0.25, 0.75]))
        write_single_measure(path, "mu", mu)
        loaded = load_single_measure(path)
        np.testing.assert_allclose(loaded.weights, mu.weights, rtol=1e-15)

    def test_single_measure_header_and_empty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(InputError, match="two-column header"):
            load_single_measure(str(path))
        path.write_text("index,mu\n")
        with pytest.raises(InputError, match="no weights"):
            load_single_measure(str(path))


class TestMatrixFiles:
    def test_cost_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "cost.csv")
        rng_free = np.array([[0.0, 1.0 / 3.0], [0.7000000000000001, 2.5]])
        write_matrix(path, rng_free)
        loaded = load_cost(path)
        assert np.array_equal(loaded.entries, rng_free)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InputError, match="expected 2 cells, got 1"):
            load_cost(str(path))

    def test_rejects_negative_cost(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1,-2\n")
        with pytest.raises(InputError, match="is negative"):
            load_cost(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(InputError, match="no cost rows"):
            load_cost(str(path))

    def test_load_problem_checks_shapes(self, tmp_path):
        measures = str(tmp_path / "measures.csv")
        cost = str(tmp_path / "cost.csv")
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        write_measures(measures, mu, mu)
        write_matrix(cost, np.zeros((3, 2)))
        with pytest.raises(InputError, match="does not match measure sizes"):
            load_problem(cost, measures)

    def test_load_problem_round_trip(self, tmp_path):
        measures = str(tmp_path / "measures.csv")
        cost = str(tmp_path / "cost.csv")
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        nu = DiscreteMeasure(np.array([0.2, 0.8]))
        write_measures(measures, mu, nu)
        write_matrix(cost, np.array([[0.0, 1.0], [1.0, 0.0]]))
        mu2, nu2, C = load_problem(cost, measures)
        assert C.shape == (2, 2)
        np.testing.assert_allclose(nu2.weights, nu.weights, rtol=1e-15)


class TestPerfbenchTracing:
    """perfbench/tracing.py wraps library functions by (module, name); every
    name it lists must still resolve, or `perfbench/run.py --trace 1` fails."""

    @staticmethod
    def tracing_module():
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_target_resolves(self):
        tracing = self.tracing_module()
        for module, name in tracing.TARGETS:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"

    def test_traced_solve_records_its_stages(self):
        tracing = self.tracing_module()
        mu, nu, C, _ = random_instance(21, 7, 7)
        tracer = tracing.Tracer()
        with tracer.installed():
            report = screenkhorn(C, 1.0, mu, nu, 7, 7).solver_report
        names = {span[0] for span in tracer.spans}
        # the clipped sweeps are the whole solve, so their span holds it
        assert {
            "core.gibbs_kernel", "screened.build_problem", "solver.restricted_sinkhorn"
        } <= names
        assert "solver.minimize" not in names
        assert report.iterations > 0


class TestBenchCompareScript:
    """scripts/bench_compare.py summarizes each side's runs by quartiles, which
    need two runs; fewer pairs must be refused before any run starts."""

    ROOT = Path(__file__).resolve().parent.parent

    def script(self):
        spec = importlib.util.spec_from_file_location(
            "bench_compare", self.ROOT / "scripts" / "bench_compare.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    def test_one_pair_exits_at_parse_time(self, tmp_path, monkeypatch, capsys):
        root = self.ROOT
        script = self.script()

        def no_runs(*args, **kwargs):
            raise AssertionError("a benchmark run started")

        monkeypatch.setattr(script, "run_once", no_runs)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exit_info:
            script.main([
                "--parent", str(root), "--seed", "1", "--pairs", "1",
                "--workload", "kernel-bound", "--out", str(out),
            ])
        assert exit_info.value.code == 2
        assert "--pairs must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "parent, change, lower_is_better, unresolved",
        [
            # parent quartiles 9.5 and 10.5, wider than the bound's 0.05 * 10
            ([8.0, 10.0, 10.0, 12.0], [9.5, 9.5, 10.0, 10.5], True, True),
            # every change run below every parent run
            ([8.0, 10.0, 10.0, 12.0], [7.0, 7.5, 7.5, 7.9], True, False),
            # for a metric where higher is better, every change run above
            ([8.0, 10.0, 10.0, 12.0], [12.1, 13.0, 13.0, 14.0], False, False),
            ([8.0, 10.0, 10.0, 12.0], [7.0, 7.5, 7.5, 7.9], False, True),
            # parent quartiles within the bound
            ([9.9, 10.0, 10.0, 10.1], [10.5, 10.5, 10.5, 10.5], True, False),
        ],
    )
    def test_unresolved_when_parent_spread_exceeds_bound(
        self, parent, change, lower_is_better, unresolved
    ):
        verdict = self.script().compare(parent, change, lower_is_better, 0.05)
        assert verdict["unresolved"] is unresolved
