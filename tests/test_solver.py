import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenkhorn import (
    Budget,
    InputError,
    ParameterError,
    ShapeError,
    SolverConfig,
    active_sets,
    box_bounds,
    build_problem,
    epsilon_kappa,
    minimize,
    ratio_vectors,
    restricted_sinkhorn,
)
import scipy.optimize
from scipy.optimize import fmin_l_bfgs_b

import screenkhorn.solver
from screenkhorn import DiscreteMeasure, decimation_to_budget
from screenkhorn.bench import generate_gaussian_pair, pairwise_euclidean
from screenkhorn.core import gibbs_kernel
from screenkhorn.solver import _HISTORY_SIZE, _MAX_EVALUATIONS, projected_gradient
from screenkhorn.screened import gradient, objective
from conftest import fg, random_instance
from oracle import oracle_solve


def screened_setup(seed, n, m, n_b, m_b):
    mu, nu, _, K = random_instance(seed, n, m)
    xi, zeta = ratio_vectors(mu, nu, K)
    eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
    sr = active_sets(mu, nu, K, eps, kap)
    p = build_problem(mu, nu, K, sr)
    bb = box_bounds(p, Budget(n_b, m_b))
    return p, bb


def stacked_calls(p):
    k = p.n_active

    def f(th):
        return objective(p, th[:k], th[k:])

    def g(th):
        gu, gv = gradient(p, th[:k], th[k:])
        return np.concatenate([gu, gv])

    return f, g


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.pg_tolerance == 1e-6
        assert cfg.max_iterations == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pg_tolerance": 0.0},
            {"pg_tolerance": -1e-6},
            {"max_iterations": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            SolverConfig(**kwargs)


class TestProjectedGradient:
    def test_interior_passthrough(self):
        x = np.array([0.5])
        g = np.array([3.0])
        out = projected_gradient(x, g, np.array([0.0]), np.array([1.0]))
        assert out[0] == 3.0

    def test_bound_masking(self):
        lower = np.zeros(4)
        upper = np.ones(4)
        x = np.array([0.0, 0.0, 1.0, 1.0])
        g = np.array([2.0, -2.0, 2.0, -2.0])
        out = projected_gradient(x, g, lower, upper)
        # minimization steps follow -g, so at the lower bound a positive
        # component is blocked by the constraint and masked while a negative
        # one still moves the point inward; mirrored at the upper bound
        np.testing.assert_array_equal(out, [0.0, -2.0, 2.0, 0.0])

    def test_degenerate_pinned_coordinate(self):
        # lower == upper pins the coordinate, so nothing can count
        x = np.array([0.3])
        for slope in (5.0, -5.0):
            out = projected_gradient(
                x, np.array([slope]), np.array([0.3]), np.array([0.3])
            )
            assert out[0] == 0.0


class TestMinimizeQuadratics:
    def test_boundary_optimum(self):
        report = minimize(
            fg(
                lambda x: float((x[0] - 2.0) ** 2),
                lambda x: np.array([2.0 * (x[0] - 2.0)]),
            ),
            np.array([0.0]),
            np.array([1.0]),
            np.array([0.2]),
        )
        assert report.solution[0] == pytest.approx(1.0, abs=1e-12)
        assert report.projected_gradient_inf_norm == 0.0
        assert report.converged

    def test_interior_optimum(self):
        c = np.array([0.3, -0.4, 0.1])
        lower = np.full(3, -1.0)
        upper = np.full(3, 1.0)
        report = minimize(
            fg(
                lambda x: float(((x - c) ** 2).sum()),
                lambda x: 2.0 * (x - c),
            ),
            lower,
            upper,
            np.zeros(3),
            SolverConfig(pg_tolerance=1e-10),
        )
        np.testing.assert_allclose(report.solution, c, atol=1e-8)
        assert report.converged

    def test_infinite_bounds_are_unbounded(self):
        # -inf lower and +inf upper entries leave the quadratic free, so the
        # solve reaches its interior optimum however far from the start
        c = np.array([40.0, -70.0, 0.5])
        report = minimize(
            fg(
                lambda x: float(((x - c) ** 2).sum()),
                lambda x: 2.0 * (x - c),
            ),
            np.full(3, -np.inf),
            np.full(3, np.inf),
            np.zeros(3),
            SolverConfig(pg_tolerance=1e-10),
        )
        np.testing.assert_allclose(report.solution, c, atol=1e-8)
        assert report.projected_gradient_inf_norm <= 1e-10
        assert report.converged

    def test_mixed_kkt_point(self):
        # separable quadratic with one coordinate clamped at each bound and
        # one interior: the solver must land on the exact KKT point
        c = np.array([2.0, -2.0, 0.25])
        lower = np.full(3, -1.0)
        upper = np.full(3, 1.0)
        report = minimize(
            fg(
                lambda x: float(((x - c) ** 2).sum()),
                lambda x: 2.0 * (x - c),
            ),
            lower,
            upper,
            np.zeros(3),
            SolverConfig(pg_tolerance=1e-10),
        )
        np.testing.assert_allclose(report.solution, [1.0, -1.0, 0.25], atol=1e-8)
        assert report.converged

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        dim=st.integers(min_value=1, max_value=8),
    )
    def test_random_quadratic_feasible_and_descending(self, seed, dim):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=dim)
        lower = np.full(dim, -0.5)
        upper = np.full(dim, 0.5)
        start = rng.uniform(-0.5, 0.5, size=dim)

        def f(x):
            return float(((x - c) ** 2).sum())

        report = minimize(fg(f, lambda x: 2.0 * (x - c)), lower, upper, start)
        assert np.all(report.solution >= lower)
        assert np.all(report.solution <= upper)
        assert report.objective_value <= f(start) + 1e-12
        # KKT point of a separable quadratic over a box is the clipped center
        np.testing.assert_allclose(
            report.solution, np.clip(c, lower, upper), atol=1e-7
        )


class TestMinimizeContracts:
    def test_start_outside_box_is_clipped(self):
        report = minimize(
            fg(
                lambda x: float(x[0] ** 2),
                lambda x: np.array([2.0 * x[0]]),
            ),
            np.array([-1.0]),
            np.array([1.0]),
            np.array([25.0]),
        )
        assert abs(report.solution[0]) <= 1.0

    def test_iteration_cap_reported(self):
        # Rosenbrock needs far more than one iteration
        def f(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

        def g(x):
            return np.array(
                [
                    -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )

        cfg = SolverConfig(pg_tolerance=1e-12, max_iterations=1)
        report = minimize(
            fg(f, g), np.full(2, -5.0), np.full(2, 5.0), np.array([-3.0, -4.0]), cfg
        )
        assert not report.converged
        assert report.iterations <= 1
        assert report.objective_value <= f(np.array([-3.0, -4.0])) + 1e-12

    def test_converged_flag_matches_report(self):
        report = minimize(
            fg(
                lambda x: float(x[0] ** 2),
                lambda x: np.array([2.0 * x[0]]),
            ),
            np.array([-1.0]),
            np.array([1.0]),
            np.array([0.7]),
        )
        assert report.converged == (
            report.projected_gradient_inf_norm <= SolverConfig().pg_tolerance
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            minimize(
                fg(
                    lambda x: 0.0,
                    lambda x: np.zeros(2),
                ),
                np.zeros(2),
                np.ones(3),
                np.zeros(2),
            )

    def test_crossed_bounds(self):
        with pytest.raises(InputError, match="lower\\[1\\]"):
            minimize(
                fg(
                    lambda x: 0.0,
                    lambda x: np.zeros(2),
                ),
                np.array([0.0, 2.0]),
                np.array([1.0, 1.0]),
                np.zeros(2),
            )

    @pytest.mark.parametrize("name", ["lower", "upper", "start"])
    def test_nan_input_is_named(self, name):
        arrays = {"lower": np.full(3, -1.0), "upper": np.full(3, 1.0), "start": np.zeros(3)}
        arrays[name][1] = np.nan
        with pytest.raises(InputError, match=rf"{name}\[1\] is NaN"):
            minimize(
                fg(lambda x: float(x @ x), lambda x: 2.0 * x),
                arrays["lower"], arrays["upper"], arrays["start"],
            )

    def test_pinned_box_returns_that_point(self):
        point = np.array([0.25, -0.5])
        report = minimize(
            fg(
                lambda x: float((x ** 2).sum()),
                lambda x: 2.0 * x,
            ),
            point,
            point,
            np.zeros(2),
        )
        np.testing.assert_array_equal(report.solution, point)
        assert report.converged
        assert report.projected_gradient_inf_norm == 0.0


class TestMinimizeStart:
    @staticmethod
    def counted_quadratic(a, c):
        """0.5 (x - c)^T A (x - c) and its gradient, recording each objective call."""
        calls = []

        def f(x):
            calls.append(x.copy())
            d = x - c
            return float(0.5 * d @ (a @ d))

        return f, lambda x: a @ (x - c), calls

    def test_optimal_start_returns_without_iterating(self):
        c = np.array([0.3, -0.2, 0.1])
        f, g, calls = self.counted_quadratic(np.diag([1.0, 2.0, 3.0]), c)
        report = minimize(fg(f, g), np.full(3, -1.0), np.full(3, 1.0), c)
        assert report.iterations == 0
        assert report.evaluations == 1
        assert len(calls) == 1
        assert report.converged
        assert report.projected_gradient_inf_norm == 0.0
        np.testing.assert_array_equal(report.solution, c)

    def test_iterating_solve_keeps_scipy_trajectory(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(6, 6))
        a = q @ q.T + 0.5 * np.eye(6)
        c = rng.normal(scale=0.5, size=6)
        lower, upper = np.full(6, -1.0), np.full(6, 1.0)
        start = np.zeros(6)
        tol = 1e-10
        f, g, calls = self.counted_quadratic(a, c)
        report = minimize(fg(f, g), lower, upper, start, SolverConfig(pg_tolerance=tol))
        x, _, info = fmin_l_bfgs_b(
            lambda x: (f(x), g(x)),
            start,
            bounds=list(zip(lower, upper)),
            m=_HISTORY_SIZE,
            factr=0.0,
            pgtol=tol,
            maxiter=SolverConfig().max_iterations,
            maxfun=_MAX_EVALUATIONS,
        )
        assert info["nit"] > 1
        assert report.iterations == info["nit"]
        # SciPy's own count includes the start, which minimize evaluated and
        # handed over; the recheck reuses the evaluation at the stop point
        assert report.evaluations == info["funcalls"]
        assert len(calls) - info["funcalls"] == report.evaluations
        np.testing.assert_array_equal(report.solution, np.clip(x, lower, upper))


def scipy_report(f, g, lower, upper, start, config, max_evaluations=_MAX_EVALUATIONS):
    """The report fields minimize should give when SciPy's wrapper runs the
    iteration (its x clipped and rechecked, its counts plus the recheck
    unless the wrapper last evaluated that very point), and the wrapper's
    warnflag."""
    evaluated = []

    def fg(x):
        evaluated.append(x.copy())
        return f(x), g(x)

    x, _, info = fmin_l_bfgs_b(
        fg,
        np.clip(start, lower, upper),
        bounds=list(zip(lower, upper)),
        m=_HISTORY_SIZE,
        factr=0.0,
        pgtol=config.pg_tolerance,
        maxiter=config.max_iterations,
        maxfun=max_evaluations,
    )
    x = np.clip(x, lower, upper)
    pg = projected_gradient(x, np.asarray(g(x), dtype=np.float64), lower, upper)
    fields = {
        "solution": x,
        "objective_value": float(f(x)),
        "projected_gradient_inf_norm": float(np.abs(pg).max()),
        "iterations": info["nit"],
        "evaluations": info["funcalls"] + (not np.array_equal(x, evaluated[-1])),
    }
    return fields, info["warnflag"]


def assert_matches_scipy(report, expected):
    np.testing.assert_array_equal(report.solution, expected["solution"])
    for name, value in expected.items():
        if name != "solution":
            assert getattr(report, name) == value, name


class TestSetulbDrive:
    """minimize() drives SciPy's private L-BFGS-B routine; SciPy's public
    wrapper around the same routine is the oracle."""

    def test_setulb_argument_list(self):
        # minimize passes these arguments by position; a SciPy release that
        # changes them must fail here rather than inside a solve
        setulb = screenkhorn.solver.setulb
        assert setulb.__doc__.splitlines()[0] == (
            "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,"
            "maxls,ln_task)"
        )
        # the routine the solve calls is the one in SciPy's optimize folder
        module_file = Path(setulb.__self__.__file__)
        assert module_file.parent == Path(scipy.optimize.__file__).parent
        assert module_file.name.startswith("_lbfgsb.")

    @staticmethod
    def coupled_quadratic(seed, dim):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(dim, dim))
        a = q @ q.T + 0.5 * np.eye(dim)
        c = rng.normal(scale=2.0, size=dim)

        def f(x):
            return float(0.5 * (x - c) @ (a @ (x - c)))

        return f, lambda x: a @ (x - c)

    @staticmethod
    def mixed_box():
        # two coordinates of each bound code: free, lower only, both, upper only
        lower = np.array([-np.inf, -np.inf, -0.5, 0.2, -1.0, -0.3, -np.inf, -np.inf])
        upper = np.array([np.inf, np.inf, np.inf, np.inf, 0.4, 1.0, 0.1, -0.6])
        return lower, upper

    def test_mixed_bound_codes_match_scipy(self):
        f, g = self.coupled_quadratic(11, 8)
        lower, upper = self.mixed_box()
        config = SolverConfig(pg_tolerance=1e-10)
        report = minimize(fg(f, g), lower, upper, np.zeros(8), config)
        expected, _ = scipy_report(f, g, lower, upper, np.zeros(8), config)
        assert expected["iterations"] > 1
        # the solution leans on bounds of every finite kind
        sol = report.solution
        assert np.any(sol == lower) and np.any(sol == upper)
        assert_matches_scipy(report, expected)
        assert report.converged and report.stop_reason == "pg_tolerance"

    def test_iteration_cap_stops_at_scipy_point(self):
        f, g = self.coupled_quadratic(11, 8)
        lower, upper = self.mixed_box()
        config = SolverConfig(pg_tolerance=1e-10, max_iterations=2)
        report = minimize(fg(f, g), lower, upper, np.zeros(8), config)
        expected, _ = scipy_report(f, g, lower, upper, np.zeros(8), config)
        assert report.iterations == 2
        assert_matches_scipy(report, expected)
        assert not report.converged
        assert report.stop_reason == "max_iterations"

    def test_evaluation_cap_stops_at_scipy_point(self, monkeypatch):
        f, g = self.coupled_quadratic(11, 8)
        lower, upper = self.mixed_box()
        config = SolverConfig(pg_tolerance=1e-10)
        monkeypatch.setattr(screenkhorn.solver, "_MAX_EVALUATIONS", 3)
        report = minimize(fg(f, g), lower, upper, np.zeros(8), config)
        expected, warnflag = scipy_report(
            f, g, lower, upper, np.zeros(8), config, max_evaluations=3
        )
        assert warnflag == 1
        assert_matches_scipy(report, expected)
        assert report.evaluations > 3
        assert not report.converged
        assert report.stop_reason == "max_evaluations"

    def test_start_and_tolerance_stops(self):
        c = np.array([0.3, -0.2, 0.1])
        box = np.full(3, -1.0), np.full(3, 1.0)

        def f(x):
            return float(((x - c) ** 2).sum())

        def g(x):
            return 2.0 * (x - c)

        at_start = minimize(fg(f, g), *box, c)
        assert at_start.stop_reason == "start" and at_start.iterations == 0
        solved = minimize(fg(f, g), *box, np.zeros(3))
        assert solved.stop_reason == "pg_tolerance" and solved.iterations > 0
        assert solved.converged

    def test_failed_line_search_is_abnormal(self):
        # the gradient points uphill, so no step along -g lowers f
        free = np.full(2, -np.inf), np.full(2, np.inf)

        def f(x):
            return float(x.sum())

        def g(x):
            return -np.ones(2)

        report = minimize(fg(f, g), *free, np.zeros(2))
        expected, warnflag = scipy_report(f, g, *free, np.zeros(2), SolverConfig())
        assert warnflag == 2
        assert_matches_scipy(report, expected)
        assert not report.converged
        assert report.stop_reason == "abnormal"

    @staticmethod
    def recorded(f):
        """f, and the list of the points it is called at."""
        calls = []

        def recording(x):
            calls.append(x.copy())
            return f(x)

        return recording, calls

    @pytest.mark.parametrize("max_iterations", [2, SolverConfig().max_iterations])
    def test_recheck_reuses_the_stop_point(self, max_iterations):
        f, g = self.coupled_quadratic(11, 8)
        f, calls = self.recorded(f)
        lower, upper = self.mixed_box()
        config = SolverConfig(pg_tolerance=1e-10, max_iterations=max_iterations)
        report = minimize(fg(f, g), lower, upper, np.zeros(8), config)
        assert report.iterations > 1
        # every evaluation is at a new point, and the last one is the answer's
        assert report.evaluations == len(calls)
        assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))
        np.testing.assert_array_equal(calls[-1], report.solution)

    def test_abnormal_stop_evaluates_its_point(self):
        free = np.full(2, -np.inf), np.full(2, np.inf)
        f, calls = self.recorded(lambda x: float(x.sum()))
        report = minimize(fg(f, lambda x: -np.ones(2)), *free, np.zeros(2))
        assert report.stop_reason == "abnormal"
        # after the failed line search the routine hands back an earlier
        # iterate, not its last trial point, so the recheck evaluates it anew
        assert report.evaluations == len(calls)
        assert not np.array_equal(calls[-2], report.solution)
        np.testing.assert_array_equal(calls[-1], report.solution)
        assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))

    def test_screened_full_budget_instance_matches_scipy(self):
        # the full-budget workload's regime at n = m = 200: budget 0.99, eta 1
        n = 200
        x, y = generate_gaussian_pair(n, n, 4)
        mu = nu = DiscreteMeasure(np.full(n, 1.0 / n))
        K = gibbs_kernel(pairwise_euclidean(x, y, normalize=True), 1.0)
        budget = Budget(*decimation_to_budget(n, n, 0.99))
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, budget)
        p = build_problem(mu, nu, K, active_sets(mu, nu, K, eps, kap))
        lower, upper = box_bounds(p, budget).stacked(p.n_active, p.m_active)
        a, b = restricted_sinkhorn(p, np.full(p.n_active, eps / kap))
        start = np.concatenate([np.log(a), np.log(b)])
        f, g = stacked_calls(p)
        config = SolverConfig()
        report = minimize(fg(f, g), lower, upper, start, config)
        expected, _ = scipy_report(f, g, lower, upper, start, config)
        assert expected["iterations"] > 1
        assert_matches_scipy(report, expected)
        assert report.converged == (
            expected["projected_gradient_inf_norm"] <= config.pg_tolerance
        )


class TestLoadLbfgsb:
    """The solver loads SciPy's compiled L-BFGS-B module from its file, and
    never the scipy.optimize package around it."""

    @staticmethod
    def fresh_interpreter(code):
        src = Path(screenkhorn.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_leaves_scipy_optimize_out(self):
        # this test module imports scipy.optimize itself, so only a fresh
        # interpreter can show that the library does not
        out = self.fresh_interpreter(
            "import sys\n"
            "import screenkhorn, screenkhorn.cli\n"
            "print([k for k in sys.modules if k.startswith('scipy.optimize')])\n"
        )
        assert out.strip() == "[]"

    @pytest.mark.parametrize(
        "first, second",
        [("scipy.optimize", "screenkhorn.solver"), ("screenkhorn.solver", "scipy.optimize")],
    )
    def test_scipy_optimize_keeps_its_own_import(self, first, second):
        # whichever is imported first, scipy.optimize's _lbfgsb is bound on
        # the package, registered under its name, and holds the same routine
        out = self.fresh_interpreter(
            f"import sys\nimport {first}\nimport {second}\n"
            "module = scipy.optimize._lbfgsb\n"
            "print(sys.modules['scipy.optimize._lbfgsb'] is module,\n"
            "      screenkhorn.solver.setulb is module.setulb)\n"
        )
        assert out.split() == ["True", "True"]

    def test_missing_module_names_the_folder(self, tmp_path):
        with pytest.raises(ImportError, match="_lbfgsb") as info:
            screenkhorn.solver._load_lbfgsb(tmp_path)
        assert str(tmp_path) in str(info.value)


class TestRestrictedSinkhorn:
    def test_flat_cost_fixed_point(self):
        # 2x2 zero cost, uniform weights, full budget: the scaling pair
        # lands on (0.5, 0.5) after one sweep and stays there, giving the
        # uniform quarter plan
        mu, nu, _, K = random_instance(0, 2, 2)
        import screenkhorn as sk

        one_half = np.array([0.5, 0.5])
        kernel = sk.GibbsKernel(np.ones((2, 2)), 1.0)
        measure = sk.DiscreteMeasure(one_half)
        xi, zeta = ratio_vectors(measure, measure, kernel)
        eps, kap = epsilon_kappa(xi, zeta, Budget(2, 2))
        assert eps == pytest.approx(0.5, rel=1e-15)
        assert kap == 1.0
        p = build_problem(
            measure, measure, kernel, active_sets(measure, measure, kernel, eps, kap)
        )
        a, b = restricted_sinkhorn(p, np.full(2, eps), iters=1)
        np.testing.assert_allclose(a, one_half, rtol=1e-15)
        np.testing.assert_allclose(b, one_half, rtol=1e-15)
        a3, b3 = restricted_sinkhorn(p, np.full(2, eps), iters=3)
        np.testing.assert_allclose(a3, a, rtol=1e-15)
        np.testing.assert_allclose(b3, b, rtol=1e-15)
        plan = a[:, None] * p.matrix[np.ix_(p.rows, p.cols)] * b[None, :]
        np.testing.assert_allclose(plan, 0.25, rtol=1e-15)

    def test_full_budget_matches_plain_half_sweeps(self):
        # with empty complements no position of M holds a fill and each sweep
        # is a textbook scaling update on the whole kernel
        p, _ = screened_setup(5, 6, 5, 6, 5)
        assert p.matrix.shape == (p.n_active, p.m_active)
        kernel_block = p.matrix[np.ix_(p.rows, p.cols)]
        a0 = np.full(p.n_active, 0.7)
        a, b = restricted_sinkhorn(p, a0, iters=3)
        ar = a0.copy()
        for _ in range(3):
            br = p.nu_active / (p.kappa * (kernel_block.T @ ar))
            ar = p.kappa * p.mu_active / (kernel_block @ br)
        np.testing.assert_allclose(a, ar, rtol=1e-15)
        np.testing.assert_allclose(b, br, rtol=1e-15)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=6),
        m_b=st.integers(min_value=1, max_value=5),
        iters=st.integers(min_value=1, max_value=4),
    )
    def test_output_stays_positive(self, seed, n_b, m_b, iters):
        mu, nu, _, K = random_instance(seed, 6, 5)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
        p = build_problem(mu, nu, K, active_sets(mu, nu, K, eps, kap))
        a, b = restricted_sinkhorn(p, np.full(p.n_active, eps / kap), iters)
        assert np.all(a > 0.0)
        assert np.all(b > 0.0)

    def test_rejects_bad_inputs(self):
        p, _ = screened_setup(9, 5, 4, 3, 3)
        good_a = np.full(p.n_active, 1.0)
        with pytest.raises(InputError):
            restricted_sinkhorn(p, good_a * 0.0)
        with pytest.raises(InputError):
            bad = good_a.copy()
            bad[-1] = -0.5
            restricted_sinkhorn(p, bad)
        with pytest.raises(ShapeError):
            restricted_sinkhorn(p, np.ones(p.n_active + 1))
        for iters in (0, -1):
            with pytest.raises(ParameterError):
                restricted_sinkhorn(p, good_a, iters=iters)

    def test_rejects_nan_scaling(self):
        p, _ = screened_setup(9, 5, 4, 3, 3)
        start = np.full(p.n_active, 1.0)
        start[0] = np.nan
        with pytest.raises(InputError, match="strictly positive"):
            restricted_sinkhorn(p, start)


class TestScreenedDualSolve:
    @pytest.mark.parametrize("seed,n_b,m_b", [(0, 4, 3), (17, 6, 6), (23, 2, 5)])
    def test_matches_long_run_oracle(self, seed, n_b, m_b):
        p, bb = screened_setup(seed, 6, 6, n_b, m_b)
        lower, upper = bb.stacked(p.n_active, p.m_active)
        f, g = stacked_calls(p)
        start = np.clip(np.zeros(lower.size), lower, upper)
        report = minimize(fg(f, g), lower, upper, start, SolverConfig(pg_tolerance=1e-9))
        oracle_point = oracle_solve(p, lower, upper)
        assert report.converged
        assert abs(report.objective_value - f(oracle_point)) < 1e-6

    def test_solution_within_box_exactly(self):
        p, bb = screened_setup(31, 6, 5, 4, 3)
        lower, upper = bb.stacked(p.n_active, p.m_active)
        f, g = stacked_calls(p)
        report = minimize(fg(f, g), lower, upper, np.clip(np.zeros(lower.size), lower, upper))
        assert np.all(report.solution >= lower)
        assert np.all(report.solution <= upper)

    def test_stationarity_split_at_bounds(self):
        # when converged: inward push at an active bound may be large, but
        # outward components and interior components are tolerance-small
        p, bb = screened_setup(13, 7, 6, 3, 2)
        lower, upper = bb.stacked(p.n_active, p.m_active)
        f, g = stacked_calls(p)
        tol = 1e-8
        report = minimize(
            fg(f, g), lower, upper,
            np.clip(np.zeros(lower.size), lower, upper),
            SolverConfig(pg_tolerance=tol),
        )
        assert report.converged
        grad = g(report.solution)
        interior = (report.solution > lower) & (report.solution < upper)
        assert np.all(np.abs(grad[interior]) <= tol)
        assert np.all(grad[report.solution <= lower] >= -tol)
        assert np.all(grad[report.solution >= upper] <= tol)
