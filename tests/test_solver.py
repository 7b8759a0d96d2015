import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from screenkhorn import (
    Budget,
    InfeasibleBoundsError,
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
from scipy.optimize import fmin_l_bfgs_b

import screenkhorn.solver
from screenkhorn import DiscreteMeasure, decimation_to_budget
from screenkhorn.bench import generate_gaussian_pair, pairwise_euclidean
from screenkhorn.core import gibbs_kernel
from screenkhorn.solver import _HISTORY_SIZE, _MAX_EVALUATIONS, projected_gradient
from screenkhorn.screened import _compact_layout, _full_layout, evaluate, gradient, objective
from conftest import fg, random_instance
from oracle import oracle_solve


def screened_setup(seed, n, m, n_b, m_b, layout=build_problem):
    mu, nu, _, K = random_instance(seed, n, m)
    xi, zeta = ratio_vectors(mu, nu, K)
    eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
    sr = active_sets(mu, nu, K, eps, kap)
    p = layout(mu, nu, K, sr)
    bb = box_bounds(p, Budget(n_b, m_b))
    return p, bb


def full_budget_setup(n, seed):
    """screened_setup in the full-budget workload's regime: Gaussian clouds
    of n points each, normalized Euclidean cost, eta 1, uniform weights,
    budget 0.99."""
    x, y = generate_gaussian_pair(n, n, seed)
    mu = DiscreteMeasure(np.full(n, 1.0 / n))
    K = gibbs_kernel(pairwise_euclidean(x, y, normalize=True), 1.0)
    budget = Budget(*decimation_to_budget(n, n, 0.99))
    xi, zeta = ratio_vectors(mu, mu, K)
    eps, kap = epsilon_kappa(xi, zeta, budget)
    p = build_problem(mu, mu, K, active_sets(mu, mu, K, eps, kap))
    return p, box_bounds(p, budget)


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
            {"max_iterations": 2.5},
            {"max_iterations": 3.0},
            {"max_iterations": "3"},
            {"max_iterations": None},
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
    """minimize() runs SciPy's public L-BFGS-B wrapper behind its own start
    evaluation and recheck; the wrapper called directly is the oracle."""

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
        # a numpy integer is an integer cap
        config = SolverConfig(pg_tolerance=1e-10, max_iterations=np.int64(2))
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
        p, bb = full_budget_setup(200, 4)
        lower, upper = bb.stacked(p.n_active, p.m_active)
        # from the screening thresholds, which minimize clips into the box
        start = np.concatenate([
            np.full(p.n_active, np.log(p.row_fill)), np.full(p.m_active, np.log(p.col_fill))
        ])
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
    """minimize() imports scipy.optimize on its first call; importing the
    package or running a screened solve never does."""

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
        # interpreter can show that the library does not, and that
        # minimize's first call does
        out = self.fresh_interpreter(
            "import sys\n"
            "import numpy as np\n"
            "import screenkhorn, screenkhorn.cli\n"
            "from screenkhorn.bench import compare_solvers, generate_gaussian_pair, "
            "pairwise_euclidean\n"
            "x, y = generate_gaussian_pair(20, 20, 5)\n"
            "w = screenkhorn.DiscreteMeasure(np.full(20, 0.05))\n"
            "outcome = compare_solvers(pairwise_euclidean(x, y, True), 1.0, w, w, 10, 10)\n"
            "print(outcome.converged)\n"
            "print([k for k in sys.modules if k.startswith('scipy.optimize')])\n"
            "c = np.array([0.3, -2.0, 0.5])\n"
            "report = screenkhorn.minimize(\n"
            "    lambda x: (float((x - c) @ (x - c)), 2.0 * (x - c)),\n"
            "    np.full(3, -1.0), np.full(3, 1.0), np.zeros(3))\n"
            "print(report.converged, report.stop_reason, 'scipy.optimize' in sys.modules)\n"
        )
        assert out.splitlines() == ["True", "[]", "True pg_tolerance True"]


def clipped_sweep_setup(seed, n, m, n_b, m_b, layout=build_problem):
    """screened_setup for a Hypothesis draw, which is rejected when its box
    is empty (ROADMAP item 3)."""
    try:
        return screened_setup(seed, n, m, n_b, m_b, layout)
    except InfeasibleBoundsError:
        reject()


# a tolerance no sweep meets before its cap, so the cap fixes the sweep count
NEVER = 1e-300


class TestRestrictedSinkhorn:
    def test_flat_cost_fixed_point(self):
        # 2x2 unit kernel, uniform weights, full budget: from
        # a = kappa mu / (col_fill r) = 0.5 / (0.5 * 2) = 0.5 the first sweep
        # sets b = (0.5, 0.5), where the u gradient is zero, so the solve
        # stops there with the uniform quarter plan
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
        report = restricted_sinkhorn(p, box_bounds(p, Budget(2, 2)))
        assert report.converged and report.stop_reason == "pg_tolerance"
        assert report.iterations == report.evaluations == 1
        a, b = np.exp(report.solution[:2]), np.exp(report.solution[2:])
        np.testing.assert_allclose(a, one_half, rtol=1e-15)
        np.testing.assert_allclose(b, one_half, rtol=1e-15)
        plan = a[:, None] * p.matrix[np.ix_(p.rows, p.cols)] * b[None, :]
        np.testing.assert_allclose(plan, 0.25, rtol=1e-15)

    def test_full_budget_matches_plain_half_sweeps(self):
        # with empty complements no position of M holds a fill and each sweep
        # is a textbook scaling update on the whole kernel, clipped into the box
        p, bb = screened_setup(5, 6, 5, 6, 5)
        assert p.matrix.shape == (p.n_active, p.m_active)
        kernel_block = p.matrix[np.ix_(p.rows, p.cols)]
        report = restricted_sinkhorn(p, bb, SolverConfig(pg_tolerance=NEVER, max_iterations=3))
        assert report.iterations == 3 and report.stop_reason == "max_iterations"
        # the start is the u update from b = col_fill, whose product K b is
        # col_fill times the kernel's row sums
        mb = p.col_fill * p.row_sums_active
        for _ in range(3):
            u = np.clip(np.log(p.kappa * p.mu_active / mb), bb.u_lower, bb.u_upper)
            ta = kernel_block.T @ np.exp(u)
            v = np.clip(np.log(p.nu_active / (p.kappa * ta)), bb.v_lower, bb.v_upper)
            mb = kernel_block @ np.exp(v)
        np.testing.assert_array_equal(report.solution, np.concatenate([u, v]))

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=6),
        m_b=st.integers(min_value=1, max_value=5),
    )
    def test_output_stays_positive(self, seed, n_b, m_b):
        # the scalings e^u and e^v are positive: the potentials are finite
        # and inside the box
        p, bb = clipped_sweep_setup(seed, 6, 5, n_b, m_b)
        lower, upper = bb.stacked(p.n_active, p.m_active)
        report = restricted_sinkhorn(p, bb)
        assert np.all(np.isfinite(report.solution))
        assert np.all((report.solution >= lower) & (report.solution <= upper))
        assert np.all(np.exp(report.solution) > 0.0)

    @pytest.mark.parametrize("layout", [_compact_layout, _full_layout])
    def test_three_sweeps_from_the_u_block_minimizer(self, layout):
        # the sweeps, pinned bitwise on both layouts to three clipped sweeps
        # written out from u at its block's exact minimizer with every v at
        # its fill, clip(log(kappa mu_I / (col_fill r_I))), each sweep
        # setting v from u and then, but for the last, u from v
        p, bb = screened_setup(41, 9, 7, 6, 5, layout)
        # screened rows and columns, so the fills enter every product, and
        # free coordinates, so the sweeps move
        assert p.n_active < 9 and p.m_active < 7
        lower, upper = bb.stacked(p.n_active, p.m_active)
        a_hat = np.full(p.matrix.shape[0], p.row_fill)
        b_hat = np.full(p.matrix.shape[1], p.col_fill)
        u = np.log(p.kappa * p.mu_active / (p.col_fill * p.row_sums_active))
        u = np.clip(u, bb.u_lower, bb.u_upper)
        a_hat[p.rows] = np.exp(u)
        v = np.log(p.nu_active / (p.kappa * (a_hat @ p.matrix)[p.cols]))
        v = np.clip(v, bb.v_lower, bb.v_upper)
        b_hat[p.cols] = np.exp(v)
        u = np.log(p.kappa * p.mu_active / (p.matrix @ b_hat)[p.rows])
        u = np.clip(u, bb.u_lower, bb.u_upper)
        a_hat[p.rows] = np.exp(u)
        v = np.log(p.nu_active / (p.kappa * (a_hat @ p.matrix)[p.cols]))
        v = np.clip(v, bb.v_lower, bb.v_upper)
        b_hat[p.cols] = np.exp(v)
        u = np.log(p.kappa * p.mu_active / (p.matrix @ b_hat)[p.rows])
        u = np.clip(u, bb.u_lower, bb.u_upper)
        a_hat[p.rows] = np.exp(u)
        v = np.log(p.nu_active / (p.kappa * (a_hat @ p.matrix)[p.cols]))
        v = np.clip(v, bb.v_lower, bb.v_upper)
        got = restricted_sinkhorn(p, bb, SolverConfig(pg_tolerance=NEVER, max_iterations=3))
        assert got.iterations == 3 and got.stop_reason == "max_iterations"
        np.testing.assert_array_equal(got.solution, np.concatenate([u, v]))
        assert np.any((got.solution > lower) & (got.solution < upper))

    @pytest.mark.parametrize("layout", [_compact_layout, _full_layout])
    def test_start_product_is_the_cached_row_sums(self, layout):
        # the start's product (M b_hat)_I at b_hat = col_fill everywhere is
        # col_fill r_I on both layouts: M is K, or the compact block whose
        # last column s adds the screened columns' share of each row sum
        p, _ = screened_setup(41, 9, 7, 6, 5, layout)
        assert p.n_active < 9 and p.m_active < 7
        product = (p.matrix @ p.col_vector(np.full(p.m_active, p.col_fill)))[p.rows]
        np.testing.assert_allclose(p.col_fill * p.row_sums_active, product, rtol=1e-14)

    def test_full_budget_workload_converges_in_one_sweep(self):
        # the full-budget benchmark workload's shape: n = m = 1000, eta 1,
        # budget 0.99, uniform weights. From the row fill the sweeps took 5
        # to reach the default tolerance; from the u block's minimizer at
        # the column fill, which is screening's ratio vector xi_I / eps, the
        # first sweep's point already meets it
        p, bb = full_budget_setup(1000, 11)
        report = restricted_sinkhorn(p, bb, SolverConfig(pg_tolerance=1e-6))
        assert report.converged and report.stop_reason == "pg_tolerance"
        assert report.iterations == 1


class TestClippedSweepsAgainstOracle:
    """The sweeps reach the box-constrained optimum that tests/oracle.py's
    projected gradient method finds, on both layouts, and their report is
    evaluate() at the returned point."""

    @staticmethod
    def check(p, bb, tol=1e-10):
        lower, upper = bb.stacked(p.n_active, p.m_active)
        report = restricted_sinkhorn(p, bb, SolverConfig(pg_tolerance=tol))
        assert report.converged and report.stop_reason == "pg_tolerance"
        k = p.n_active
        value, grad = evaluate(p, report.solution[:k], report.solution[k:])
        # the same objective expression from the same products
        assert report.objective_value == value
        pg = np.abs(projected_gradient(report.solution, grad, lower, upper))
        # the v block was just set to its exact minimizer; evaluate() sees
        # its projected gradient as rounding of the gradient's terms
        v_rounding = 1e-14 * float(np.max(p.nu_active)) / p.kappa
        assert pg[:k].max() == report.projected_gradient_inf_norm
        assert pg[k:].max() <= max(v_rounding, report.projected_gradient_inf_norm)
        oracle_point = oracle_solve(p, lower, upper)
        oracle_value = objective(p, oracle_point[:k], oracle_point[k:])
        assert abs(report.objective_value - oracle_value) <= 1e-9 * max(1.0, abs(oracle_value))
        at_bound = (oracle_point <= lower) | (oracle_point >= upper)
        return report, int(at_bound.sum())

    @settings(max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=6),
        m_b=st.integers(min_value=1, max_value=5),
        layout=st.sampled_from([_compact_layout, _full_layout]),
    )
    def test_random_instances(self, seed, n_b, m_b, layout):
        p, bb = clipped_sweep_setup(seed, 6, 5, n_b, m_b, layout)
        self.check(p, bb)

    @pytest.mark.parametrize("layout", [_compact_layout, _full_layout])
    def test_coordinates_at_their_bounds(self, layout):
        p, bb = clipped_sweep_setup(13, 7, 6, 3, 2, layout)
        _, at_bound = self.check(p, bb)
        assert at_bound > 0


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
