import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenkhorn import (
    Budget,
    DiscreteMeasure,
    GibbsKernel,
    InputError,
    ScreeningResult,
    ShapeError,
    SolverConfig,
    TransportPlan,
    active_sets,
    build_problem,
    epsilon_kappa,
    marginal_norm_certificates,
    marginal_violations,
    omega_kappa,
    pinsker_check,
    ratio_vectors,
    rho_distance,
    screenkhorn,
    violation_certificate_cols,
    violation_certificate_rows,
)
from screenkhorn.diagnostics import Certificate, _certify
from screenkhorn.screened import objective
from conftest import random_instance, symmetric_instance
from oracle import OracleFailureError, oracle_solve


def scalar_problem():
    """1x1 fully active problem whose objective is e^{u+v} - u - v."""
    mu = DiscreteMeasure(np.array([1.0]))
    K = GibbsKernel(np.ones((1, 1)), 1.0)
    sr = ScreeningResult(1.0, 1.0, np.array([0]), np.array([0]))
    return build_problem(mu, mu, K, sr)


def solved(seed, n, m, n_b, m_b, eta=1.0, pg_tolerance=1e-8, max_iterations=100_000):
    mu, nu, C, _ = random_instance(seed, n, m, eta)
    cfg = SolverConfig(pg_tolerance=pg_tolerance, max_iterations=max_iterations)
    result = screenkhorn(C, eta, mu, nu, n_b, m_b, solver_config=cfg)
    return mu, nu, result


# entries in [0.5, 2] keep every entrywise ratio inside [0.25, 4], where the
# scalar inequality behind the pinsker bound provably holds; summing over
# entries preserves it, so this family cannot produce a spurious failure
def balanced_pairs():
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n),
            st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n),
        )
    )


class TestCertifyRule:
    def test_equal_values_pass(self):
        cert = _certify("demo", 1.0, 1.0)
        assert cert.satisfied
        assert cert.name == "demo"
        assert cert.empirical_value == 1.0
        assert cert.bound_value == 1.0

    def test_relative_slack_absorbs_rounding(self):
        assert _certify("demo", 1.0 + 5e-10, 1.0).satisfied
        assert not _certify("demo", 1.0 + 5e-9, 1.0).satisfied

    def test_absolute_slack_near_zero_bound(self):
        assert _certify("demo", 5e-13, 0.0).satisfied
        assert not _certify("demo", 5e-12, 0.0).satisfied

    def test_fields_are_plain_floats(self):
        cert = _certify("demo", np.float64(0.5), np.float64(2.0))
        assert isinstance(cert, Certificate)
        assert type(cert.empirical_value) is float
        assert type(cert.bound_value) is float


class TestMarginalViolations:
    def test_exact_marginals_give_zero(self):
        P = TransportPlan(np.full((2, 2), 0.25))
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        row, col = marginal_violations(P, mu, mu)
        assert row == 0.0
        assert col == 0.0

    def test_hand_value(self):
        P = TransportPlan(np.array([[0.3, 0.2], [0.2, 0.3]]))
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        nu = DiscreteMeasure(np.array([0.4, 0.6]))
        row, col = marginal_violations(P, mu, nu)
        assert row == pytest.approx(0.0, abs=1e-15)
        assert col == pytest.approx(0.2, rel=1e-12)

    def test_shape_mismatch(self):
        P = TransportPlan(np.full((2, 2), 0.25))
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        bad = DiscreteMeasure(np.full(3, 1.0 / 3.0))
        with pytest.raises(ShapeError):
            marginal_violations(P, bad, mu)


class TestRhoDistance:
    def test_frozen_scalar_values(self):
        # rho(1, 2) = 2 - 1 + log(1/2), rho(2, 1) = 1 - 2 + 2 log 2; the
        # asymmetry is intended, the log weight rides on the first argument
        assert rho_distance([1.0], [2.0]) == pytest.approx(1.0 - math.log(2.0), rel=1e-14)
        assert rho_distance([2.0], [1.0]) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14)

    def test_zero_on_equal_vectors(self):
        x = np.array([0.3, 1.7, 0.05])
        assert rho_distance(x, x) == 0.0

    def test_near_equal_vectors_stay_nonnegative(self):
        # the per-term clamp is load bearing here: without it the sum can
        # land a few ulps below zero and break downstream square roots
        g = np.full(64, 0.3)
        b = g * (1.0 + np.where(np.arange(64) % 2 == 0, 1e-15, -1e-15))
        val = rho_distance(g, b)
        assert val >= 0.0
        assert math.isfinite(math.sqrt(val))

    @given(pair=balanced_pairs())
    def test_nonnegative_and_zero_only_at_equality(self, pair):
        g, b = np.asarray(pair[0]), np.asarray(pair[1])
        val = rho_distance(g, b)
        assert val >= 0.0
        if np.any(g != b):
            assert rho_distance(g, g) <= val or val > 0.0

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(InputError):
            rho_distance([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(InputError):
            rho_distance([1.0], [-2.0])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            rho_distance([1.0, 2.0], [1.0])
        with pytest.raises(ShapeError):
            rho_distance(np.ones((2, 2)), np.ones((2, 2)))


class TestPinskerCheck:
    def test_frozen_pair(self):
        cert = pinsker_check([1.0], [2.0])
        assert cert.name == "pinsker"
        assert cert.empirical_value == 1.0
        assert cert.bound_value == pytest.approx(1.465595352094289, rel=1e-12)
        assert cert.satisfied

    def test_equal_vectors_pass_with_zero_bound(self):
        cert = pinsker_check([0.7, 0.3], [0.7, 0.3])
        assert cert.empirical_value == 0.0
        assert cert.bound_value == 0.0
        assert cert.satisfied

    @given(pair=balanced_pairs())
    def test_holds_on_mass_balanced_pairs(self, pair):
        cert = pinsker_check(pair[0], pair[1])
        assert cert.satisfied

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            pinsker_check([1.0], [np.inf])
        with pytest.raises(ShapeError):
            pinsker_check([1.0, 2.0], [1.0])


class TestViolationCertificates:
    @pytest.mark.parametrize(
        "seed, n, m, n_b, m_b",
        [(1, 12, 10, 6, 5), (9, 15, 8, 4, 6), (21, 20, 20, 8, 12)],
    )
    def test_satisfied_on_converged_runs(self, seed, n, m, n_b, m_b):
        mu, nu, result = solved(seed, n, m, n_b, m_b)
        assert result.solver_report.converged
        rows = violation_certificate_rows(result, mu, nu)
        cols = violation_certificate_cols(result, mu, nu)
        assert rows.name == "row-violation-squared"
        assert cols.name == "col-violation-squared"
        assert rows.satisfied, (rows.empirical_value, rows.bound_value)
        assert cols.satisfied, (cols.empirical_value, cols.bound_value)
        # the empirical side really is the squared l1 gap of the marginals
        emp = float(np.abs(result.row_marginal - mu.weights).sum()) ** 2
        assert rows.empirical_value == pytest.approx(emp, rel=1e-13)

    def test_unconverged_run_is_refused(self):
        mu, nu, result = solved(5, 8, 8, 4, 4, pg_tolerance=1e-14, max_iterations=1)
        assert not result.solver_report.converged
        for fn in (violation_certificate_rows, violation_certificate_cols):
            with pytest.raises(InputError, match="requires a converged solve"):
                fn(result, mu, nu)


class TestMarginalNormCertificates:
    @pytest.mark.parametrize(
        "seed, n, m, n_b, m_b",
        [(1, 12, 10, 6, 5), (9, 15, 8, 4, 6)],
    )
    def test_satisfied_on_converged_runs(self, seed, n, m, n_b, m_b):
        mu, nu, result = solved(seed, n, m, n_b, m_b)
        row_cert, col_cert = marginal_norm_certificates(result, mu, nu)
        assert row_cert.name == "row-marginal-mass"
        assert col_cert.name == "col-marginal-mass"
        assert row_cert.satisfied, (row_cert.empirical_value, row_cert.bound_value)
        assert col_cert.satisfied, (col_cert.empirical_value, col_cert.bound_value)
        assert row_cert.empirical_value == pytest.approx(
            float(np.abs(result.row_marginal).sum()), rel=1e-13
        )

    def test_unconverged_run_is_refused(self):
        mu, nu, result = solved(5, 8, 8, 4, 4, pg_tolerance=1e-14, max_iterations=1)
        with pytest.raises(InputError, match="requires a converged solve"):
            marginal_norm_certificates(result, mu, nu)


class TestOmegaKappa:
    def test_exactly_zero_at_unit_kappa(self):
        # bitwise-symmetric instances keep row_sums == col_sums exactly, so
        # the full budget gives kappa == 1.0 and both |1 - kappa| factors are
        # the float zero; no tolerance belongs in this assertion
        mu, C, _ = symmetric_instance(0, 10)
        result = screenkhorn(C, 1.0, mu, mu, 10, 10, solver_config=SolverConfig(pg_tolerance=1e-8))
        assert result.screening.kappa == 1.0
        assert omega_kappa(result) == 0.0

    def test_positive_away_from_unit_kappa(self):
        mu, nu, result = solved(1, 12, 10, 6, 5)
        assert result.screening.kappa != 1.0
        assert omega_kappa(result) > 0.0

    def test_matches_direct_recomputation(self):
        mu, nu, result = solved(9, 15, 8, 4, 6)
        kap = result.screening.kappa
        expected = (
            abs(1.0 - kap) * float(np.abs(result.row_marginal).sum())
            + abs(1.0 - 1.0 / kap) * float(np.abs(result.col_marginal).sum())
            + abs(1.0 - kap)
            + abs(1.0 - 1.0 / kap)
        )
        assert omega_kappa(result) == pytest.approx(expected, rel=1e-14)


class TestOracleSolve:
    def test_corner_optimum_is_exact(self):
        # e^{u+v} - u - v depends on u + v only, so on the box
        # [0.1, 1] x [-0.05, 1] the feasible slice of the optimal line
        # u + v = 0.05 degenerates to the single corner (0.1, -0.05)
        p = scalar_problem()
        x = oracle_solve(p, np.array([0.1, -0.05]), np.array([1.0, 1.0]), tol=1e-12)
        assert x[0] == 0.1
        assert x[1] == -0.05
        value = objective(p, x[:1], x[1:])
        assert value == pytest.approx(1.001271096376024, rel=1e-14)
        assert value == pytest.approx(math.exp(0.05) - 0.05, rel=1e-15)

    def test_interior_optimum_of_scalar_problem(self):
        p = scalar_problem()
        x = oracle_solve(p, np.full(2, -5.0), np.full(2, 5.0), tol=1e-12)
        assert float(x.sum()) == pytest.approx(0.0, abs=1e-11)
        assert objective(p, x[:1], x[1:]) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("seed, n, m, n_b, m_b", [(0, 6, 5, 3, 3), (7, 8, 8, 4, 5)])
    def test_matches_quasi_newton_objective(self, seed, n, m, n_b, m_b):
        # the screened solve's objective; the name predates the clipped
        # sweeps, which replaced L-BFGS-B as that solve
        mu, nu, result = solved(seed, n, m, n_b, m_b, pg_tolerance=1e-9)
        _, _, _, K = random_instance(seed, n, m)
        problem = build_problem(mu, nu, K, result.screening)
        lower, upper = result.bounds.stacked(problem.n_active, problem.m_active)
        x = oracle_solve(problem, lower, upper, tol=1e-10)
        oracle_value = objective(problem, x[: problem.n_active], x[problem.n_active :])
        assert abs(result.solver_report.objective_value - oracle_value) < 1e-6

    def test_refuses_large_problems(self):
        mu, nu, _, K = random_instance(5, 33, 33)
        sr = ScreeningResult(1.0, 1.0, np.arange(33), np.arange(33))
        p = build_problem(mu, nu, K, sr)
        with pytest.raises(InputError, match="64 variables"):
            oracle_solve(p, np.full(66, -1.0), np.full(66, 1.0))

    def test_rejects_bad_bounds_and_tol(self):
        p = scalar_problem()
        with pytest.raises(ShapeError):
            oracle_solve(p, np.zeros(3), np.ones(3))
        with pytest.raises(InputError, match="tol"):
            oracle_solve(p, np.full(2, -1.0), np.ones(2), tol=0.0)

    def test_iteration_cap_raises(self):
        p = scalar_problem()
        with pytest.raises(OracleFailureError, match="no convergence"):
            oracle_solve(p, np.full(2, -5.0), np.array([-1.0, 5.0]), tol=1e-12, max_iter=1)


class TestScreeningSafety:
    """The screening test only ever freezes coordinates that the constrained
    optimum would have pinned anyway. Solving the full problem with the
    threshold constraints (lower bounds only, nothing frozen) and comparing
    the pinned set against the screened-out prediction checks exactly that.
    """

    @pytest.mark.parametrize(
        "seed, n, m, n_b, m_b",
        [(0, 6, 5, 3, 3), (7, 8, 8, 4, 5), (11, 5, 7, 2, 4), (3, 8, 6, 6, 2)],
    )
    def test_screened_out_coordinates_sit_at_threshold(self, seed, n, m, n_b, m_b):
        mu, nu, _, K = random_instance(seed, n, m)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
        sr = active_sets(mu, nu, K, eps, kap)

        everything = ScreeningResult(eps, kap, np.arange(n), np.arange(m))
        p = build_problem(mu, nu, K, everything)
        lower = np.concatenate(
            [np.full(n, np.log(eps / kap)), np.full(m, np.log(eps * kap))]
        )
        x = oracle_solve(p, lower, np.full(n + m, np.inf), tol=1e-10)

        u, v = x[:n], x[n:]
        for i in np.setdiff1d(np.arange(n), sr.active_rows):
            assert abs(u[i] - math.log(eps / kap)) <= 1e-6
        for j in np.setdiff1d(np.arange(m), sr.active_cols):
            assert abs(v[j] - math.log(eps * kap)) <= 1e-6
        # the reverse containment is not claimed: active coordinates may
        # also end up pinned, and on some instances many of them do
