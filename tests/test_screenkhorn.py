import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screenkhorn import (
    Budget,
    CostMatrix,
    DiscreteMeasure,
    InfeasibleBoundsError,
    NumericRangeError,
    ParameterError,
    ScreenkhornError,
    SolverConfig,
    decimation_to_budget,
    gibbs_kernel,
    marginal_norm_certificates,
    marginal_violations,
    plan_from_potentials,
    screenkhorn,
    sinkhorn,
    violation_certificate_cols,
    violation_certificate_rows,
)
from screenkhorn import algorithm
from screenkhorn.bench import generate_gaussian_pair, pairwise_euclidean
from screenkhorn.core import _marginals
from screenkhorn.screened import build_problem
from conftest import random_instance, ring_instance, symmetric_instance


def gaussian_instance(n, seed):
    """The benchmark's instance family: Gaussian clouds, normalized Euclidean
    cost, uniform weights on both sides."""
    x, y = generate_gaussian_pair(n, n, seed)
    return pairwise_euclidean(x, y, normalize=True), DiscreteMeasure(np.full(n, 1.0 / n))


# the instances test_random_budgets_round_trip drew whose box is empty
# (ROADMAP item 3)
EMPTY_BOX = pytest.mark.xfail(
    strict=True,
    raises=InfeasibleBoundsError,
    reason="the v upper bound divides by n * k_min with k_min taken over the "
    "active block, and here n * k_min exceeds the column sums c_J",
)


def solve_random(seed, n, m, n_b, m_b, pg_tol=1e-8, **kwargs):
    mu, nu, C, _ = random_instance(seed, n, m)
    return screenkhorn(
        C, 1.0, mu, nu, n_b, m_b,
        solver_config=SolverConfig(pg_tolerance=pg_tol),
        **kwargs,
    )


class TestDecimationToBudget:
    def test_tenth(self):
        assert decimation_to_budget(1000, 1000, 0.1) == (100, 100)

    def test_full(self):
        assert decimation_to_budget(1000, 1000, 1.0) == (1000, 1000)

    def test_floor_at_one(self):
        assert decimation_to_budget(7, 5, 0.01) == (1, 1)

    def test_rounds_half_up(self):
        assert decimation_to_budget(5, 5, 0.5) == (3, 3)
        assert decimation_to_budget(3, 3, 1.0 / 3.0) == (1, 1)

    @pytest.mark.parametrize("factor", [0.0, -0.1, 1.5, math.inf])
    def test_rejects_out_of_range(self, factor):
        with pytest.raises(ParameterError):
            decimation_to_budget(10, 10, factor)


class TestFlatCostFullBudget:
    def test_uniform_quarter_plan(self):
        half = np.array([0.5, 0.5])
        mu = DiscreteMeasure(half)
        C = CostMatrix(np.zeros((2, 2)))
        res = screenkhorn(C, 1.0, mu, mu, 2, 2)
        assert res.screening.kappa == 1.0
        assert res.solver_report.converged
        np.testing.assert_allclose(res.plan.entries, 0.25, atol=1e-12)
        row, col = marginal_violations(res.plan, mu, mu)
        assert row < 1e-10
        assert col < 1e-10


class TestFullBudgetMatchesBaseline:
    @pytest.mark.parametrize("n,eta", [(16, 0.5), (16, 1.0), (50, 1.0), (50, 2.0)])
    def test_plan_agreement_on_translation_invariant_costs(self, n, eta):
        mu, C, K = ring_instance(n, eta)
        baseline = sinkhorn(mu, mu, K, stop_threshold=1e-12, max_iter=50_000)
        res = screenkhorn(
            C, eta, mu, mu, n, n,
            solver_config=SolverConfig(pg_tolerance=1e-8),
        )
        # row and column kernel sums can disagree by an ulp (axis-0 and
        # axis-1 reductions associate differently), so kappa is one only up
        # to that rounding here; bitwise exactness is covered by the
        # random-symmetric-weights tests
        assert res.screening.kappa == pytest.approx(1.0, abs=1e-14)
        assert res.solver_report.converged
        base_plan = plan_from_potentials(baseline.potentials, K)
        gap = np.abs(res.plan.entries - base_plan.entries).max()
        assert gap < 1e-6

    def test_generic_instances_keep_threshold_displacement(self):
        # on generic symmetric weights the full-budget thresholds still bind
        # (the screened problem constrains e^u >= epsilon even at full
        # budget), so agreement with the unconstrained baseline is only
        # approximate; the gap must shrink as the budget grows, which is the
        # behavior the benchmark sweep reports
        mu, C, K = symmetric_instance(0, 8)
        baseline = sinkhorn(mu, mu, K, stop_threshold=1e-12, max_iter=20_000)
        base_plan = plan_from_potentials(baseline.potentials, K)
        gaps = []
        for n_b in (3, 6, 8):
            res = screenkhorn(
                C, 1.0, mu, mu, n_b, n_b,
                solver_config=SolverConfig(pg_tolerance=1e-9),
            )
            gaps.append(np.abs(res.plan.entries - base_plan.entries).max())
        assert gaps[-1] <= gaps[0]
        assert gaps[-1] > 1e-8  # binding thresholds keep it off exact zero


class TestAssembly:
    def test_complements_hold_thresholds_bit_exactly(self):
        res = solve_random(3, 8, 7, 3, 3)
        sr = res.screening
        u, v = res.potentials.u, res.potentials.v
        inactive_rows = np.setdiff1d(np.arange(8), sr.active_rows)
        inactive_cols = np.setdiff1d(np.arange(7), sr.active_cols)
        assert inactive_rows.size > 0 and inactive_cols.size > 0
        assert np.all(u[inactive_rows] == math.log(sr.epsilon / sr.kappa))
        assert np.all(v[inactive_cols] == math.log(sr.epsilon * sr.kappa))

    def test_active_coordinates_respect_box(self):
        res = solve_random(4, 8, 7, 4, 5)
        u_act = res.potentials.u[res.screening.active_rows]
        v_act = res.potentials.v[res.screening.active_cols]
        assert np.all(u_act >= res.bounds.u_lower)
        assert np.all(u_act <= res.bounds.u_upper)
        assert np.all(v_act >= res.bounds.v_lower)
        assert np.all(v_act <= res.bounds.v_upper)

    def test_marginals_match_materialized_plan(self):
        res = solve_random(5, 6, 9, 4, 4)
        np.testing.assert_allclose(
            res.row_marginal, res.plan.entries.sum(axis=1), rtol=1e-13
        )
        np.testing.assert_allclose(
            res.col_marginal, res.plan.entries.sum(axis=0), rtol=1e-13
        )

    def test_marginals_available_without_plan(self):
        with_plan = solve_random(6, 6, 6, 3, 3)
        without = solve_random(6, 6, 6, 3, 3, materialize_plan=False)
        assert without.plan is None
        np.testing.assert_allclose(
            without.row_marginal, with_plan.row_marginal, rtol=1e-12
        )
        np.testing.assert_allclose(
            without.col_marginal, with_plan.col_marginal, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "config, stop_reason",
        [
            (SolverConfig(pg_tolerance=1e-9), "pg_tolerance"),
            (SolverConfig(pg_tolerance=1e-300, max_iterations=1), "max_iterations"),
        ],
    )
    def test_full_layout_marginals_come_from_the_final_sweep(self, config, stop_reason):
        # budget 0.9 takes the full layout, where the final sweep's products
        # are K's; its fills are eps/kappa rather than exp(log(eps/kappa)),
        # so the marginals match a fresh pass over K up to rounding
        C, mu = gaussian_instance(100, 4)
        n_b, m_b = decimation_to_budget(100, 100, 0.9)
        res = screenkhorn(C, 1.0, mu, mu, n_b, m_b, solver_config=config)
        assert res.solver_report.stop_reason == stop_reason
        assert res.row_marginal is res.solver_report.row_marginal
        assert res.col_marginal is res.solver_report.col_marginal
        row, col = _marginals(
            gibbs_kernel(C, 1.0), np.exp(res.potentials.u), np.exp(res.potentials.v)
        )
        np.testing.assert_allclose(res.row_marginal, row, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(res.col_marginal, col, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("factor, passes", [(0.9, 0), (0.1, 1)])
    def test_marginal_pass_only_on_the_compact_layout(self, factor, passes, monkeypatch):
        C, mu = gaussian_instance(100, 4)
        n_b, m_b = decimation_to_budget(100, 100, factor)
        calls = []

        def counted(K, a, b):
            calls.append(K)
            return _marginals(K, a, b)

        monkeypatch.setattr(algorithm, "_marginals", counted)
        screenkhorn(C, 1.0, mu, mu, n_b, m_b, materialize_plan=False)
        assert len(calls) == passes

    def test_timing_fields(self):
        res = solve_random(7, 6, 6, 3, 3)
        assert res.wall_time > 0.0

    def test_budget_recorded(self):
        res = solve_random(8, 7, 6, 4, 2)
        assert res.budget == Budget(4, 2)
        assert res.screening.active_rows.size >= 4
        assert res.screening.active_cols.size >= 2


class TestFirstOrderConditions:
    @pytest.mark.parametrize("seed,n_b,m_b", [(11, 4, 4), (12, 6, 3), (13, 2, 6)])
    def test_interior_rows_hit_scaled_marginal(self, seed, n_b, m_b):
        pg_tol = 1e-8
        res = solve_random(seed, 8, 8, n_b, m_b, pg_tol=pg_tol)
        assert res.solver_report.converged
        sr = res.screening
        margin = 1e-8
        u_act = res.potentials.u[sr.active_rows]
        interior = (u_act > res.bounds.u_lower + margin) & (
            u_act < res.bounds.u_upper - margin
        )
        mu, nu, C, _ = random_instance(seed, 8, 8)
        gap = np.abs(
            res.row_marginal[sr.active_rows] - sr.kappa * mu.weights[sr.active_rows]
        )
        assert np.all(gap[interior] <= 10.0 * pg_tol)
        v_act = res.potentials.v[sr.active_cols]
        interior_v = (v_act > res.bounds.v_lower + margin) & (
            v_act < res.bounds.v_upper - margin
        )
        gap_v = np.abs(
            res.col_marginal[sr.active_cols]
            - nu.weights[sr.active_cols] / sr.kappa
        )
        assert np.all(gap_v[interior_v] <= 10.0 * pg_tol)


class TestRobustness:
    def test_unconverged_run_still_assembles(self):
        cheap = SolverConfig(pg_tolerance=1e-14, max_iterations=1)
        mu, nu, C, _ = random_instance(21, 7, 7)
        limited = screenkhorn(C, 1.0, mu, nu, 4, 4, solver_config=cheap)
        assert not limited.solver_report.converged
        assert limited.plan is not None
        assert np.isfinite(limited.plan.entries).all()

    def test_capped_run_says_why_it_stopped(self):
        cheap = SolverConfig(pg_tolerance=1e-14, max_iterations=1)
        mu, nu, C, _ = random_instance(21, 7, 7)
        report = screenkhorn(C, 1.0, mu, nu, 4, 4, solver_config=cheap).solver_report
        assert report.stop_reason == "max_iterations"
        assert report.iterations == 1
        assert not report.converged

    def test_solve_evaluates_once_per_counted_point(self, monkeypatch):
        # each counted evaluation is one sweep's pair of products with M, and
        # neither minimize() nor objective() or gradient() is on the solve path
        products = []

        class CountedMatrix(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(method)
                inputs = tuple(np.asarray(x) for x in inputs)
                return getattr(ufunc, method)(*inputs, **kwargs)

        def counted(*args):
            p = build_problem(*args)
            return dataclasses.replace(p, matrix=p.matrix.view(CountedMatrix))

        def unused(*args):
            raise AssertionError("an L-BFGS-B path function called on the solve path")

        monkeypatch.setattr(algorithm, "build_problem", counted)
        for name in ("minimize", "objective", "gradient"):
            monkeypatch.setattr(algorithm, name, unused)
        report = solve_random(21, 7, 7, 7, 7).solver_report
        assert report.iterations > 1
        assert report.evaluations == report.iterations
        assert len(products) == 2 * report.evaluations

    def test_infeasible_bounds_named_step(self):
        mu, nu, C, _ = random_instance(1, 6, 5)
        with pytest.raises(InfeasibleBoundsError, match="bounds:"):
            screenkhorn(C, 1.0, mu, nu, 1, 1)

    def test_kernel_underflow_named_step(self):
        mu, nu, C, _ = random_instance(2, 4, 4)
        with pytest.raises(NumericRangeError, match="gibbs kernel:"):
            screenkhorn(C, 1e-6, mu, nu, 2, 2)

    def test_full_budget_beats_small_budget_on_symmetric_instance(self):
        tight = SolverConfig(pg_tolerance=1e-9)
        # generic weights: more budget must not hurt the marginals
        mu, C, K = symmetric_instance(30, 6)
        full = screenkhorn(C, 1.0, mu, mu, 6, 6, solver_config=tight)
        small = screenkhorn(C, 1.0, mu, mu, 2, 2, solver_config=tight)
        v_full = sum(marginal_violations(full.plan, mu, mu))
        v_small = sum(marginal_violations(small.plan, mu, mu))
        assert v_full <= v_small
        # translation-invariant cost: full budget recovers the marginals to
        # solver precision because the thresholds sit exactly at the optimum
        mu_r, C_r, _ = ring_instance(8)
        exact = screenkhorn(C_r, 1.0, mu_r, mu_r, 8, 8, solver_config=tight)
        assert sum(marginal_violations(exact.plan, mu_r, mu_r)) < 1e-7

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=2, max_value=6),
        m_b=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=20)
    def test_random_budgets_round_trip(self, seed, n_b, m_b):
        res = solve_random(seed, 6, 6, n_b, m_b)
        sr = res.screening
        assert np.isfinite(res.potentials.u).all()
        assert np.isfinite(res.potentials.v).all()
        assert np.all(res.plan.entries >= 0.0)
        assert res.solver_report.solution.size == sr.n_active + sr.m_active

    def test_tiny_eta_converges(self):
        # at eta = 0.002 kappa is about 4e-24, so nu_J / kappa is about 2.5e20;
        # L-BFGS-B stopped `abnormal` here with a projected gradient of 6.8e37,
        # and the clipped sweeps converge (to 3.9e-27, in one sweep)
        n = 1000
        C, mu = gaussian_instance(n, 11)
        n_b, m_b = decimation_to_budget(n, n, 0.1)
        report = screenkhorn(C, 0.002, mu, mu, n_b, m_b, materialize_plan=False).solver_report
        assert report.converged
        assert report.stop_reason == "pg_tolerance"

    @EMPTY_BOX
    def test_empty_box_drawn_by_round_trip(self):
        # the example test_random_budgets_round_trip once drew: the v box is
        # [log(eps*kappa), log(max nu_J / (n eps k_min))] = [-1.4716, -1.4820]
        res = solve_random(26576357, 6, 6, 2, 2)
        assert np.isfinite(res.potentials.u).all()
        assert np.isfinite(res.potentials.v).all()

    @EMPTY_BOX
    def test_second_empty_box_drawn_by_round_trip(self):
        # a second such draw: n * k_min = 4.116 exceeds c_J = 3.874 and 3.883,
        # so the v box is [-1.3684, -1.3844] (the u box [-1.4996, -1.3946]
        # is nonempty)
        res = solve_random(2507, 6, 6, 2, 2)
        assert np.isfinite(res.potentials.u).all()
        assert np.isfinite(res.potentials.v).all()


def two_dimensional_arrays(obj, path="result"):
    """The paths of the 2-D arrays that obj holds, through dataclass fields."""
    if isinstance(obj, np.ndarray):
        return [path] if obj.ndim == 2 else []
    if dataclasses.is_dataclass(obj):
        return [
            found
            for f in dataclasses.fields(obj)
            for found in two_dimensional_arrays(getattr(obj, f.name), f"{path}.{f.name}")
        ]
    return []


class TestMemory:
    def test_full_layout_solve_allocates_one_kernel(self, monkeypatch):
        # budget 0.9 on 1000 x 1000 takes the full layout, where M is K
        # itself: a result or report that held an n x m array would keep the
        # 8 MB kernel alive, and a solve that allocated one would lift the
        # peak past one kernel plus vectors
        n = 1000
        C, mu = gaussian_instance(n, 3)
        n_b, m_b = decimation_to_budget(n, n, 0.9)
        on_k = []

        def recorded(mu, nu, K, sr):
            p = build_problem(mu, nu, K, sr)
            on_k.append(p.matrix is K.entries)
            return p

        monkeypatch.setattr(algorithm, "build_problem", recorded)
        tracemalloc.start()
        try:
            res = screenkhorn(C, 1.0, mu, mu, n_b, m_b, materialize_plan=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert on_k == [True]
        assert peak < 2 * n * n * 8
        assert two_dimensional_arrays(res) == []
        # the walk does find the one n x m field a result may hold
        planned = screenkhorn(C, 1.0, mu, mu, n_b, m_b)
        assert two_dimensional_arrays(planned) == ["result.plan.entries"]


class TestTransposition:
    """The screened dual is symmetric under swapping its sides: solving
    (nu, mu, C^T) with budget (m_b, n_b) keeps epsilon, inverts kappa and
    swaps every row quantity with its column twin."""

    @pytest.mark.parametrize("n_b, m_b", [(1, 1), (3, 5), (6, 4), (9, 7)])
    def test_transposed_problem_swaps_sides(self, n_b, m_b):
        cfg = SolverConfig(pg_tolerance=1e-8)
        close = dict(rel=1e-12, abs=1e-13)
        compared = 0
        for seed in range(40):
            mu, nu, C, _ = random_instance(seed, 9, 7)
            C_t = CostMatrix(C.entries.T)
            try:
                res = screenkhorn(C, 1.0, mu, nu, n_b, m_b, solver_config=cfg)
            except ScreenkhornError as exc:
                # an instance the solve rejects must be rejected transposed too
                with pytest.raises(type(exc)):
                    screenkhorn(C_t, 1.0, nu, mu, m_b, n_b, solver_config=cfg)
                continue
            res_t = screenkhorn(C_t, 1.0, nu, mu, m_b, n_b, solver_config=cfg)
            sr, sr_t = res.screening, res_t.screening
            assert sr_t.epsilon == pytest.approx(sr.epsilon, **close)
            assert sr_t.kappa == pytest.approx(1.0 / sr.kappa, **close)
            np.testing.assert_array_equal(sr_t.active_rows, sr.active_cols)
            np.testing.assert_array_equal(sr_t.active_cols, sr.active_rows)
            b, b_t = res.bounds, res_t.bounds
            assert (b_t.u_lower, b_t.u_upper, b_t.v_lower, b_t.v_upper) == pytest.approx(
                (b.v_lower, b.v_upper, b.u_lower, b.u_upper), **close
            )
            if not (res.solver_report.converged and res_t.solver_report.converged):
                continue
            compared += 1
            pairs = [
                (violation_certificate_rows(res, mu, nu),
                 violation_certificate_cols(res_t, nu, mu)),
                (violation_certificate_cols(res, mu, nu),
                 violation_certificate_rows(res_t, nu, mu)),
            ]
            mass_rows, mass_cols = marginal_norm_certificates(res, mu, nu)
            mass_rows_t, mass_cols_t = marginal_norm_certificates(res_t, nu, mu)
            pairs += [(mass_rows, mass_cols_t), (mass_cols, mass_rows_t)]
            for cert, twin in pairs:
                assert twin.bound_value == pytest.approx(cert.bound_value, **close)
        assert compared >= 20
