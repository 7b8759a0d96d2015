import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenkhorn import (
    CostMatrix,
    DiscreteMeasure,
    DualPotentials,
    GibbsKernel,
    InputError,
    NumericRangeError,
    ParameterError,
    ShapeError,
    divergence,
    generate_gaussian_pair,
    gibbs_kernel,
    pairwise_euclidean,
    plan_from_potentials,
    sinkhorn,
)
from screenkhorn.core import _CHUNK_ENTRIES, _CHUNKS_PER_THREAD, _EXP_UNDERFLOW, _usable_cpus
from conftest import dense_plan, random_instance
from oracle import dual_objective, reference_sinkhorn

# rows of 1000 put 65 rows in a chunk, so 137 rows end partway through the
# third chunk; a row wider than a chunk makes every chunk a single row
CHUNK_SHAPES = [(2 * (_CHUNK_ENTRIES // 1000) + 7, 1000), (3, _CHUNK_ENTRIES + 3)]


class TestDiscreteMeasure:
    def test_normalizes(self):
        m = DiscreteMeasure(np.array([1.0, 3.0]))
        np.testing.assert_allclose(m.weights, [0.25, 0.75])
        w = np.array([0.1, 0.7, 0.3])
        np.testing.assert_array_equal(DiscreteMeasure(w).weights, w / w.sum())
        assert m.weights.sum() == pytest.approx(1.0)

    def test_accepts_nearly_normalized(self):
        m = DiscreteMeasure(np.array([0.499999, 0.5]))
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive_naming_index(self):
        with pytest.raises(InputError, match="2"):
            DiscreteMeasure(np.array([0.5, 0.5, -0.1]))
        with pytest.raises(InputError):
            DiscreteMeasure(np.array([0.5, 0.0]))
        with pytest.raises(InputError, match=r"weight\[0\] underflows"):
            DiscreteMeasure(np.array([5e-324, 1e300]))

    def test_rejects_nonfinite_and_empty(self):
        with pytest.raises(InputError):
            DiscreteMeasure(np.array([0.5, np.inf]))
        with pytest.raises(InputError, match="sum to inf"):
            DiscreteMeasure(np.array([1e308, 1e308]))
        with pytest.raises(InputError):
            DiscreteMeasure(np.array([]))
        with pytest.raises(ShapeError):
            DiscreteMeasure(np.ones((2, 2)))


class TestCostMatrix:
    def test_accepts_zero_cost(self):
        C = CostMatrix(np.zeros((2, 3)))
        assert C.shape == (2, 3)
        assert C.max_norm == 0.0

    def test_rejects_negative_naming_cell(self):
        with pytest.raises(InputError, match=r"\(1, 2\)"):
            CostMatrix(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, -2.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            CostMatrix(np.array([[0.0, np.nan]]))

    @pytest.mark.parametrize("n, m", CHUNK_SHAPES)
    def test_stored_max_is_the_entries_max(self, n, m):
        c = np.random.default_rng(m).uniform(0.0, 3.0, size=(n, m))
        c[n - 1, m - 2] = 3.5
        C = CostMatrix(c)
        assert C.max_norm == c.max() == 3.5
        c[0, 0] = np.nextafter(3.5, 4.0)
        assert CostMatrix(c).max_norm == c.max()

    @pytest.mark.parametrize("n, m", CHUNK_SHAPES)
    @pytest.mark.parametrize(
        "value, message",
        [
            (-2.0, "= -2.0 is negative"),
            (np.nan, "is not finite"),
            (np.inf, "is not finite"),
            (-np.inf, "is not finite"),
        ],
    )
    def test_bad_entry_in_later_chunk_names_global_index(self, n, m, value, message):
        c = np.ones((n, m))
        i, j = n - 1, m - 2
        c[i, j] = value
        with pytest.raises(InputError, match=rf"cost entry \({i}, {j}\) {message}"):
            CostMatrix(c)

    def test_nonfinite_entry_named_before_an_earlier_negative(self):
        n, m = CHUNK_SHAPES[0]
        c = np.ones((n, m))
        c[0, 1] = -1.0
        c[n - 1, 3] = np.nan
        with pytest.raises(InputError, match=rf"cost entry \({n - 1}, 3\) is not finite"):
            CostMatrix(c)


class TestGibbsKernel:
    def test_zero_cost_gives_ones(self):
        K = gibbs_kernel(CostMatrix(np.zeros((2, 2))), 1.0)
        np.testing.assert_array_equal(K.entries, np.ones((2, 2)))
        np.testing.assert_array_equal(K.row_sums, [2.0, 2.0])

    def test_log_two_cost_gives_halves(self):
        eta = 0.7
        C = CostMatrix(np.full((3, 2), eta * math.log(2.0)))
        K = gibbs_kernel(C, eta)
        np.testing.assert_allclose(K.entries, 0.5, rtol=1e-15)

    def test_symmetric_binary_cost(self):
        K = gibbs_kernel(CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])), 1.0)
        e = math.exp(-1.0)
        np.testing.assert_allclose(K.entries, [[1.0, e], [e, 1.0]], rtol=1e-15)
        np.testing.assert_allclose(K.row_sums, [1.0 + e, 1.0 + e], rtol=1e-15)

    def test_underflow_names_entry(self):
        C = CostMatrix(np.array([[0.0, 1e6], [1.0, 0.0]]))
        with pytest.raises(NumericRangeError, match=r"\(0, 1\)"):
            gibbs_kernel(C, 1.0)

    def test_rejects_bad_eta(self):
        C = CostMatrix(np.zeros((2, 2)))
        for eta in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                gibbs_kernel(C, eta)

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(InputError):
            GibbsKernel(np.array([[0.5, 1.5]]), 1.0)
        with pytest.raises(InputError):
            GibbsKernel(np.array([[0.5, 0.0]]), 1.0)
        with pytest.raises(InputError):
            GibbsKernel(np.array([[0.5, np.nan]]), 1.0)

    @pytest.mark.parametrize("n, m", CHUNK_SHAPES)
    def test_chunked_sweep_matches_whole_array(self, n, m):
        c = np.random.default_rng(n).uniform(0.0, 3.0, size=(n, m))
        K = gibbs_kernel(CostMatrix(c), 0.7)
        want = np.exp(-c / 0.7)
        np.testing.assert_array_equal(K.entries, want)
        np.testing.assert_array_equal(K.row_sums, want.sum(axis=1))
        # the column sums add the chunks' partial sums, another summation order
        np.testing.assert_allclose(K.col_sums, want.sum(axis=0), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n, m", CHUNK_SHAPES)
    @pytest.mark.parametrize("value", [1.5, 0.0, np.nan])
    def test_bad_entry_in_later_chunk_names_global_index(self, n, m, value):
        k = np.full((n, m), 0.5)
        i, j = n - 1, m - 2
        k[i, j] = value
        with pytest.raises(InputError, match=rf"kernel entry \({i}, {j}\) = {value} "):
            GibbsKernel(k, 1.0)

    @pytest.mark.parametrize("n, m", CHUNK_SHAPES)
    def test_one_sweep_matches_constructor_bitwise(self, n, m):
        c = np.random.default_rng(n + 1).uniform(0.0, 3.0, size=(n, m))
        eta = 0.7
        K = gibbs_kernel(CostMatrix(c), eta)
        want = GibbsKernel(np.exp(c / -eta), eta)
        np.testing.assert_array_equal(K.entries, want.entries)
        np.testing.assert_array_equal(K.row_sums, want.row_sums)
        np.testing.assert_array_equal(K.col_sums, want.col_sums)
        assert K.eta == want.eta

    @pytest.mark.parametrize("n, m", CHUNK_SHAPES)
    def test_entries_in_unit_interval_with_zero_costs(self, n, m):
        c = np.random.default_rng(n + 2).uniform(0.0, 40.0, size=(n, m))
        c[::2, ::3] = 0.0
        K = gibbs_kernel(CostMatrix(c), 0.5)
        assert K.entries.min() > 0.0
        assert K.entries.max() <= 1.0
        assert np.all(K.entries[::2, ::3] == 1.0)

    @pytest.mark.parametrize("n, m", CHUNK_SHAPES)
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_costs_either_side_of_underflow_guard(self, n, m, side):
        # just below the guard no entry is tested for zero, just above every
        # chunk is; exp is positive on both sides (subnormal above), so both
        # kernels come out as the constructor's
        eta = 0.25
        c = np.ones((n, m))
        c[n - 1, m - 2] = eta * _EXP_UNDERFLOW * (1.0 + side * 1e-6)
        K = gibbs_kernel(CostMatrix(c), eta)
        want = GibbsKernel(np.exp(c / -eta), eta)
        np.testing.assert_array_equal(K.entries, want.entries)
        np.testing.assert_array_equal(K.row_sums, want.row_sums)
        np.testing.assert_array_equal(K.col_sums, want.col_sums)
        assert K.entries[n - 1, m - 2] > 0.0

    @pytest.mark.parametrize("n, m", CHUNK_SHAPES)
    @pytest.mark.parametrize("scale", [746.0, 1e6])
    def test_underflow_in_later_chunk_names_global_index(self, n, m, scale):
        # exp(-746) is the first integer step past exp's last subnormal; the
        # entry at (i, j), in the last chunk, underflows to exactly zero
        eta = 0.25
        c = np.ones((n, m))
        i, j = n - 1, m - 2
        c[i, j] = eta * scale
        with pytest.raises(
            NumericRangeError, match=rf"kernel entry \({i}, {j}\) underflowed to zero"
        ):
            gibbs_kernel(CostMatrix(c), eta)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_entries_bounded_by_cost_extremes(self, seed):
        _, _, C, K = random_instance(seed, 4, 5, eta=0.8)
        lo = math.exp(-C.max_norm / 0.8)
        assert np.all(K.entries >= lo * (1 - 1e-12))
        assert np.all(K.entries <= 1.0)


class TestPlanFromPotentials:
    def test_identity_scaling(self):
        K = GibbsKernel(np.ones((2, 2)), 1.0)
        P = plan_from_potentials(DualPotentials(np.zeros(2), np.zeros(2)), K)
        np.testing.assert_array_equal(P.entries, np.ones((2, 2)))
        np.testing.assert_array_equal(P.row_marginal, [2.0, 2.0])

    def test_direct_evaluation(self):
        K = GibbsKernel(np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0)
        pot = DualPotentials(np.array([math.log(2.0), 0.0]), np.zeros(2))
        P = plan_from_potentials(pot, K)
        np.testing.assert_allclose(P.entries, [[2.0, 1.0], [0.5, 1.0]], rtol=1e-15)

    def test_sinkhorn_potentials_reproduce_marginals(self):
        mu, nu, _, K = random_instance(314, 3, 3)
        sol = sinkhorn(mu, nu, K)
        P = plan_from_potentials(sol.potentials, K)
        assert np.abs(P.row_marginal - mu.weights).sum() < 1e-9
        assert np.abs(P.col_marginal - nu.weights).sum() < 1e-9

    def test_overflow_names_coordinate(self):
        K = GibbsKernel(np.ones((2, 2)), 1.0)
        pot = DualPotentials(np.array([0.0, 1000.0]), np.zeros(2))
        with pytest.raises(NumericRangeError, match=r"plan entry \(1, 0\)"):
            plan_from_potentials(pot, K)

    def test_underflow_names_coordinate(self):
        K = GibbsKernel(np.ones((2, 2)), 1.0)
        pot = DualPotentials(np.zeros(2), np.array([0.0, -1000.0]))
        with pytest.raises(NumericRangeError, match=r"plan entry \(0, 1\)"):
            plan_from_potentials(pot, K)

    def test_one_plan_sized_allocation(self):
        # the plan at n = m = 1000 takes 8 MB; it is formed in place, and its
        # entry checks allocate 1 MB boolean masks
        _, _, _, K = random_instance(5, 1000, 1000)
        pot = DualPotentials(np.zeros(1000), np.zeros(1000))
        tracemalloc.start()
        try:
            plan_from_potentials(pot, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8e6

    def test_shape_mismatch(self):
        K = GibbsKernel(np.ones((2, 3)), 1.0)
        with pytest.raises(ShapeError):
            plan_from_potentials(DualPotentials(np.zeros(2), np.zeros(2)), K)


class TestDualObjective:
    def test_zero_potentials_give_kernel_mass(self):
        mu, nu, _, K = random_instance(9, 4, 4)
        pot = DualPotentials(np.zeros(4), np.zeros(4))
        assert dual_objective(pot, K, mu, nu) == pytest.approx(
            K.entries.sum(), rel=1e-15
        )

    def test_scalar_problem_minimum(self):
        K = GibbsKernel(np.ones((1, 1)), 1.0)
        one = DiscreteMeasure(np.array([1.0]))
        at_zero = dual_objective(DualPotentials(np.zeros(1), np.zeros(1)), K, one, one)
        assert at_zero == pytest.approx(1.0, rel=1e-15)
        for du in (-0.3, 0.2, 1.0):
            off = dual_objective(
                DualPotentials(np.array([du]), np.zeros(1)), K, one, one
            )
            assert off > at_zero

    def test_sinkhorn_point_improves_on_zero(self):
        mu, nu, _, K = random_instance(77, 4, 4)
        sol = sinkhorn(mu, nu, K)
        zero = DualPotentials(np.zeros(4), np.zeros(4))
        assert dual_objective(sol.potentials, K, mu, nu) <= dual_objective(
            zero, K, mu, nu
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        lam=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_objective_convex_along_segment(self, seed, lam):
        mu, nu, _, K = random_instance(seed, 3, 4)
        ua, va = np.zeros(3), np.zeros(4)
        ub = 0.5 * np.sin(np.arange(3.0))
        vb = 0.3 * np.cos(np.arange(4.0))
        fa = dual_objective(DualPotentials(ua, va), K, mu, nu)
        fb = dual_objective(DualPotentials(ub, vb), K, mu, nu)
        mid = DualPotentials(lam * ua + (1 - lam) * ub, lam * va + (1 - lam) * vb)
        assert dual_objective(mid, K, mu, nu) <= lam * fa + (1 - lam) * fb + 1e-12


class TestDivergence:
    def test_zero_cost(self):
        K = GibbsKernel(np.ones((2, 2)), 1.0)
        pot = DualPotentials(np.zeros(2), np.zeros(2))
        assert divergence(pot, K, CostMatrix(np.zeros((2, 2)))) == 0.0

    def test_support_off_cost(self):
        K = GibbsKernel(np.array([[0.5, 1e-12], [1e-12, 0.5]]), 1.0)
        pot = DualPotentials(np.zeros(2), np.zeros(2))
        C = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert divergence(pot, K, C) == pytest.approx(2e-12, rel=1e-12)

    def test_uniform_plan(self):
        K = GibbsKernel(np.full((2, 2), 0.25), 1.0)
        pot = DualPotentials(np.zeros(2), np.zeros(2))
        C = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert divergence(pot, K, C) == pytest.approx(0.5, rel=1e-15)

    # one row chunk, two chunks, and rows wider than a chunk
    @pytest.mark.parametrize("n, m", [(5, 7), (300, 300), (3, 70_000)])
    def test_matches_dense_plan_cost(self, n, m):
        _, _, C, K = random_instance(n + m, n, m)
        rng = np.random.default_rng(n * m)
        pot = DualPotentials(rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, m))
        dense = np.sum(C.entries * dense_plan(pot, K))
        assert divergence(pot, K, C) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("cost_row", [[1.0, 1.0], [0.0, 0.0]])
    def test_overflow_raises(self, cost_row):
        # a zero cost row meets the infinite scaling as inf * 0 = nan
        K = GibbsKernel(np.full((2, 2), 0.5), 1.0)
        C = CostMatrix(np.array([cost_row, [1.0, 1.0]]))
        pot = DualPotentials(np.array([1000.0, 0.0]), np.zeros(2))
        with pytest.raises(NumericRangeError):
            divergence(pot, K, C)

    def test_shape_mismatch(self):
        K = GibbsKernel(np.full((2, 3), 0.5), 1.0)
        pot = DualPotentials(np.zeros(2), np.zeros(3))
        with pytest.raises(ShapeError):
            divergence(pot, K, CostMatrix(np.zeros((3, 2))))
        for u, v in ((np.zeros(3), np.zeros(3)), (np.zeros(2), np.zeros(2))):
            with pytest.raises(ShapeError):
                divergence(DualPotentials(u, v), K, CostMatrix(np.zeros((2, 3))))

    def test_no_plan_sized_allocation(self):
        # the plan at n = m = 1000 would take 8 MB; a row chunk takes 0.5 MB
        _, _, C, K = random_instance(5, 1000, 1000)
        pot = DualPotentials(np.zeros(1000), np.zeros(1000))
        tracemalloc.start()
        try:
            divergence(pot, K, C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_no_plan_sized_allocation_on_workers(self):
        # 64 one-row chunks, a pass long enough for two threads: each thread
        # holds one chunk product at a time
        n, m = 64, _CHUNK_ENTRIES
        C = CostMatrix(np.random.default_rng(5).uniform(size=(n, m)))
        K = gibbs_kernel(C, 1.0)
        pot = DualPotentials(np.zeros(n), np.zeros(m))
        threads = min(n // _CHUNKS_PER_THREAD, _usable_cpus())
        tracemalloc.start()
        try:
            divergence(pot, K, C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threads << 20


class TestSinkhorn:
    def test_zero_cost_converges_in_one_sweep(self):
        mu = DiscreteMeasure(np.array([0.3, 0.7]))
        nu = DiscreteMeasure(np.array([0.6, 0.2, 0.2]))
        K = gibbs_kernel(CostMatrix(np.zeros((2, 3))), 1.0)
        sol = sinkhorn(mu, nu, K)
        assert sol.iterations == 1
        P = dense_plan(sol.potentials, K)
        np.testing.assert_allclose(P, np.outer(mu.weights, nu.weights), rtol=1e-12)

    def test_symmetric_two_point_problem(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        K = GibbsKernel(np.array([[1.0, 0.3], [0.3, 1.0]]), 1.0)
        sol = sinkhorn(mu, mu, K)
        assert sol.converged
        P = dense_plan(sol.potentials, K)
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        np.testing.assert_allclose(P.sum(axis=1), mu.weights, atol=1e-9)
        np.testing.assert_allclose(P.sum(axis=0), mu.weights, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_converged_runs_meet_threshold(self, seed):
        mu, nu, _, K = random_instance(seed, 4, 3)
        sol = sinkhorn(mu, nu, K, stop_threshold=1e-9, max_iter=1000)
        assert sol.converged
        assert sol.marginal_violation < 1e-9
        P = dense_plan(sol.potentials, K)
        true_violation = (
            np.abs(P.sum(axis=1) - mu.weights).sum()
            + np.abs(P.sum(axis=0) - nu.weights).sum()
        )
        assert true_violation < 1e-9

    def test_iteration_cap_flags_nonconvergence(self):
        mu, nu, _, K = random_instance(5, 5, 5, eta=0.05)
        for cap in (2, np.int64(2)):
            sol = sinkhorn(mu, nu, K, stop_threshold=1e-14, max_iter=cap)
            assert not sol.converged
            assert sol.iterations == 2

    def test_overflow_raises(self):
        tiny = 5e-324
        K = GibbsKernel(np.array([[1.0, tiny], [tiny, tiny]]), 1.0)
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises(NumericRangeError):
            sinkhorn(mu, mu, K)

    def test_rejects_bad_parameters(self):
        mu, nu, _, K = random_instance(1, 3, 3)
        with pytest.raises(ParameterError):
            sinkhorn(mu, nu, K, stop_threshold=0.0)
        with pytest.raises(ParameterError):
            sinkhorn(mu, nu, K, max_iter=0)
        for cap in (2.5, 3.0, np.float64(3.0), "3", None):
            with pytest.raises(ParameterError, match="max_iter must be an integer"):
                sinkhorn(mu, nu, K, max_iter=cap)
        with pytest.raises(ShapeError):
            sinkhorn(DiscreteMeasure(np.ones(4)), nu, K)

    def test_no_plan_sized_allocation(self):
        # K at n = m = 1000 takes 8 MB; each pass holds vectors of length n
        # or m and one chunk's product at a time
        mu, nu, _, K = random_instance(5, 1000, 1000)
        tracemalloc.start()
        try:
            sinkhorn(mu, nu, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def gaussian_instance(n, eta, uniform):
    x, y = generate_gaussian_pair(n, n, 11)
    if uniform:
        weights = np.ones(n), np.ones(n)
    else:
        rng = np.random.default_rng(11)
        weights = rng.exponential(size=n), rng.exponential(size=n)
    K = gibbs_kernel(pairwise_euclidean(x, y, True), eta)
    return DiscreteMeasure(weights[0]), DiscreteMeasure(weights[1]), K


def assert_matches_reference(mu, nu, K, **kwargs):
    got = sinkhorn(mu, nu, K, **kwargs)
    want = reference_sinkhorn(mu, nu, K, **kwargs)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    np.testing.assert_allclose(got.potentials.u, want.potentials.u, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got.potentials.v, want.potentials.v, rtol=0, atol=1e-13)
    assert got.marginal_violation == pytest.approx(want.marginal_violation, rel=0, abs=1e-15)


class TestSinkhornAgainstReference:
    """One pass over K per iteration against two whole products per
    iteration: the same iterations and stop, the potentials up to rounding."""

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "random weights"])
    @pytest.mark.parametrize("eta", [1.0, 0.1, 0.05])
    @pytest.mark.parametrize("n", [5, 200, 1000])
    def test_converged_solves(self, n, eta, uniform):
        assert_matches_reference(*gaussian_instance(n, eta, uniform))

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "random weights"])
    def test_iteration_cap(self, uniform):
        assert_matches_reference(*gaussian_instance(200, 0.05, uniform), max_iter=2)

    def test_zero_cost_one_sweep(self):
        mu = DiscreteMeasure(np.array([0.3, 0.7]))
        nu = DiscreteMeasure(np.array([0.6, 0.2, 0.2]))
        K = gibbs_kernel(CostMatrix(np.zeros((2, 3))), 1.0)
        assert_matches_reference(mu, nu, K)

    def test_overflow_at_the_same_iteration(self):
        tiny = 5e-324
        K = GibbsKernel(np.array([[1.0, tiny], [tiny, tiny]]), 1.0)
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError) as want:
                reference_sinkhorn(mu, mu, K)
            with pytest.raises(NumericRangeError) as got:
                sinkhorn(mu, mu, K)
        assert "iteration" in str(want.value)
        assert str(got.value) == str(want.value)
