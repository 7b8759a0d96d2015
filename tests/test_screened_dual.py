import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenkhorn import (
    BoxBounds,
    Budget,
    DiscreteMeasure,
    DualPotentials,
    GibbsKernel,
    InfeasibleBoundsError,
    InputError,
    NumericRangeError,
    ScreeningResult,
    ShapeError,
    SolverConfig,
    active_sets,
    box_bounds,
    build_problem,
    decimation_to_budget,
    epsilon_kappa,
    ratio_vectors,
    screenkhorn,
    sinkhorn,
)
from screenkhorn import algorithm
from screenkhorn.core import _CHUNK_ENTRIES
from screenkhorn.solver import restricted_sinkhorn
from screenkhorn.screened import (
    _FULL_LAYOUT_SHARE,
    _compact_layout,
    _full_layout,
    evaluate,
    gradient,
    objective,
)
from conftest import random_instance, symmetric_instance
from test_core import CHUNK_SHAPES
from oracle import (
    dual_objective,
    full_plan_value_and_gradient,
    screened_value_and_gradient,
)

# the private builders force a layout; build_problem picks one by share
LAYOUTS = (_compact_layout, _full_layout)


def forced_screening(eps, kap, rows, cols):
    """ScreeningResult with hand-picked thresholds and active sets."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    return ScreeningResult(float(eps), float(kap), rows, cols)


def screened_problem(seed, n, m, n_b, m_b, eta=1.0, layout=build_problem):
    mu, nu, _, K = random_instance(seed, n, m, eta)
    xi, zeta = ratio_vectors(mu, nu, K)
    eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
    sr = active_sets(mu, nu, K, eps, kap)
    return mu, nu, K, sr, layout(mu, nu, K, sr)


def compact_parts(p):
    """A compact-layout problem's block K_IJ, cross sums s and t, and the
    constant of every term held at the thresholds: the corner's mass term
    plus the screened coordinates' linear terms."""
    xi = p.row_fill * p.col_fill * p.matrix[-1, -1] + p.const
    return p.matrix[:-1, :-1], p.matrix[:-1, -1], p.matrix[-1, :-1], xi


def full_matrix_objective(K, mu, nu, eps, kap, rows, cols, u_act, v_act):
    """Evaluate the unreduced kappa-scaled dual with complements clamped at
    the threshold values; must agree with the reduced objective exactly."""
    n, m = K.shape
    u = np.full(n, math.log(eps / kap))
    v = np.full(m, math.log(eps * kap))
    u[rows] = u_act
    v[cols] = v_act
    plan = np.exp(u)[:, None] * K.entries * np.exp(v)[None, :]
    return (
        plan.sum()
        - kap * float(mu.weights @ u)
        - float(nu.weights @ v) / kap
    )


def naive_constants(K, mu, nu, eps, kap, rows, cols):
    """Triple-loop evaluation of the cross sums and the constant term."""
    n, m = K.shape
    in_rows = set(int(i) for i in rows)
    in_cols = set(int(j) for j in cols)
    s = [sum(K.entries[i, j] for j in range(m) if j not in in_cols) for i in rows]
    t = [sum(K.entries[i, j] for i in range(n) if i not in in_rows) for j in cols]
    corner = sum(
        K.entries[i, j]
        for i in range(n)
        if i not in in_rows
        for j in range(m)
        if j not in in_cols
    )
    const = (
        eps * eps * corner
        - kap * math.log(eps / kap) * sum(mu.weights[i] for i in range(n) if i not in in_rows)
        - math.log(eps * kap) / kap * sum(nu.weights[j] for j in range(m) if j not in in_cols)
    )
    return np.array(s), np.array(t), const


def fd_gradient(p, u, v, h=1e-6):
    k = u.size
    th = np.concatenate([u, v])
    out = np.empty(th.size)
    for i in range(th.size):
        step = np.zeros(th.size)
        step[i] = h
        hi = objective(p, (th + step)[:k], (th + step)[k:])
        lo = objective(p, (th - step)[:k], (th - step)[k:])
        out[i] = (hi - lo) / (2.0 * h)
    return out


class TestBuildProblem:
    def test_full_budget_constants_vanish(self):
        _, _, _, _, p = screened_problem(3, 5, 4, 5, 4, layout=_compact_layout)
        _, row_cross, col_cross, xi_const = compact_parts(p)
        assert np.all(row_cross == 0.0)
        assert np.all(col_cross == 0.0)
        assert xi_const == 0.0

    def test_single_active_corner(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        K = GibbsKernel(np.ones((2, 2)), 1.0)
        p = _compact_layout(mu, mu, K, forced_screening(1.0, 1.0, [0], [0]))
        _, row_cross, col_cross, xi_const = compact_parts(p)
        np.testing.assert_allclose(row_cross, [1.0])
        np.testing.assert_allclose(col_cross, [1.0])
        assert xi_const == pytest.approx(1.0, rel=1e-15)
        assert p.k_min == 1.0

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=6),
        m_b=st.integers(min_value=1, max_value=6),
    )
    def test_constants_match_naive_loops(self, seed, n_b, m_b):
        mu, nu, K, sr, p = screened_problem(seed, 6, 6, n_b, m_b, layout=_compact_layout)
        s, t, const = naive_constants(
            K, mu, nu, sr.epsilon, sr.kappa, sr.active_rows, sr.active_cols
        )
        _, row_cross, col_cross, xi_const = compact_parts(p)
        np.testing.assert_allclose(row_cross, s, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(col_cross, t, rtol=1e-12, atol=1e-15)
        assert xi_const == pytest.approx(const, rel=1e-12, abs=1e-15)

    def test_kernel_block_and_extremes(self):
        mu, nu, K, sr, p = screened_problem(8, 6, 5, 3, 2, layout=_compact_layout)
        block = K.entries[np.ix_(sr.active_rows, sr.active_cols)]
        np.testing.assert_array_equal(compact_parts(p)[0], block)
        assert p.k_min == block.min()


def ix_reference(mu, nu, K, sr):
    """The block, cross sums and constant from an np.ix_ gather and
    whole-block sums, the way build_problem computed them before its
    chunked sweep."""
    n, m = K.shape
    rows, cols = sr.active_rows, sr.active_cols
    block = K.entries[np.ix_(rows, cols)]
    full_rows, full_cols = rows.size == n, cols.size == m
    s = np.zeros(rows.size) if full_cols else np.maximum(
        K.row_sums[rows] - block.sum(axis=1), 0.0
    )
    t = np.zeros(cols.size) if full_rows else np.maximum(
        K.col_sums[cols] - block.sum(axis=0), 0.0
    )
    corner = 0.0 if full_rows or full_cols else max(
        float(K.row_sums.sum())
        - float(K.row_sums[rows].sum())
        - float(K.col_sums[cols].sum())
        + float(block.sum()),
        0.0,
    )
    eps, kap = sr.epsilon, sr.kappa
    xi = (
        eps * eps * corner
        - kap * math.log(eps / kap) * float(np.delete(mu.weights, rows).sum())
        - math.log(eps * kap) * float(np.delete(nu.weights, cols).sum()) / kap
    )
    return block, s, t, xi


class TestBlockSweep:
    """build_problem gathers the block by row chunks and takes its sums and
    minimum in the same sweep; an np.ix_ gather is the reference."""

    @staticmethod
    def instance(seed, n, m, n_act, m_act, eps, kap):
        rng = np.random.default_rng(seed)
        mu = DiscreteMeasure(0.5 + rng.random(n))
        nu = DiscreteMeasure(0.5 + rng.random(m))
        K = GibbsKernel(0.05 + 0.95 * rng.random((n, m)), 1.0)
        rows = np.sort(rng.choice(n, n_act, replace=False))
        cols = np.sort(rng.choice(m, m_act, replace=False))
        return mu, nu, K, forced_screening(eps, kap, rows, cols)

    @pytest.mark.parametrize(
        "n, m, n_act, m_act",
        [
            (200, 1200, 150, 1000),  # 65 rows per chunk: the last chunk is partial
            (200, 1100, 128, 1024),  # 64 rows per chunk: two full chunks
            (4, 70_000, 3, 69_990),  # rows wider than a chunk: one row per chunk
            (40, 50, 40, 31),  # every row active: t is zero
            (40, 50, 23, 50),  # every column active: s is zero
            (40, 50, 40, 50),  # full budget
        ],
    )
    # eps = kap = 1 leaves the corner alone in xi_const
    @pytest.mark.parametrize("eps, kap", [(1.0, 1.0), (0.3, 1.7)])
    def test_matches_ix_gather(self, n, m, n_act, m_act, eps, kap):
        mu, nu, K, sr = self.instance(n + m, n, m, n_act, m_act, eps, kap)
        p = _compact_layout(mu, nu, K, sr)
        block, s, t, xi = ix_reference(mu, nu, K, sr)
        p_block, row_cross, col_cross, xi_const = compact_parts(p)
        np.testing.assert_array_equal(p_block, block)
        np.testing.assert_array_equal(row_cross, s)
        np.testing.assert_array_equal(p.mu_active, mu.weights[sr.active_rows])
        np.testing.assert_array_equal(p.nu_active, nu.weights[sr.active_cols])
        assert p.k_min == block.min()
        # the block's column sums and total accumulate chunk by chunk, so t
        # and the corner may differ in the last bits of the kernel sums they
        # are subtracted from; the constant's mass terms are unchanged
        cancelled = K.col_sums[sr.active_cols]
        assert np.all(np.abs(col_cross - t) <= 1e-14 * cancelled)
        total = K.row_sums.sum()
        assert abs(xi_const - xi) <= 1e-14 * (abs(xi) + eps * eps * total)
        if n_act == n:
            assert np.all(col_cross == 0.0)
        if m_act == m:
            assert np.all(row_cross == 0.0)

    @pytest.mark.parametrize(
        "n, m, n_act, m_act",
        [
            (1000, 1000, 999, 1),  # one screened row: the row twin
            (1000, 1000, 1, 999),  # one screened column: the column form
            (1000, 1000, 999, 3),
            (300, 300, 299, 299),  # a corner of one entry
            (4, 70_000, 3, 69_990),
        ],
    )
    def test_corner_matches_direct_sum(self, n, m, n_act, m_act):
        # eps = kap = 1 puts the corner in M unscaled. It is a one-sided
        # difference, so its rounding scales with the operands of the form
        # that build_problem picks: the screened mass it subtracts from, and
        # the kernel sums its subtracted cross sums were cancelled from
        mu, nu, K, sr = self.instance(n + m + n_act, n, m, n_act, m_act, 1.0, 1.0)
        corner = _compact_layout(mu, nu, K, sr).matrix[-1, -1]
        screened_rows = np.setdiff1d(np.arange(n), sr.active_rows)
        screened_cols = np.setdiff1d(np.arange(m), sr.active_cols)
        direct = K.entries[np.ix_(screened_rows, screened_cols)].sum()
        operands = min(
            K.col_sums[screened_cols].sum() + K.row_sums[sr.active_rows].sum(),
            K.row_sums[screened_rows].sum() + K.col_sums[sr.active_cols].sum(),
        )
        assert abs(corner - direct) <= 1e-14 * operands

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([0, 6], [1]), ([-1, 2], [1]), ([0], [0, 5]), ([0], [-2]),
            # in range, but repeated or out of order
            ([1, 1, 1, 5], [1]), ([0], [3, 1]),
        ],
    )
    def test_indices_outside_the_kernel_rejected(self, rows, cols):
        mu, nu, K, _ = self.instance(0, 6, 5, 1, 1, 1.0, 1.0)
        increasing = all(np.all(np.diff(idx) > 0) for idx in (rows, cols))
        message = "outside the kernel" if increasing else "not strictly increasing"
        with pytest.raises(InputError, match=message):
            build_problem(mu, nu, K, forced_screening(1.0, 1.0, rows, cols))


# (n, m): a scalar problem, a small one, and test_core.py's chunk shapes
LAYOUT_SHAPES = [(1, 1), (30, 20), *CHUNK_SHAPES]
LAYOUT_BUDGETS = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]


class TestLayouts:
    """One instance through both private builders: the full layout solves on
    K itself, the compact one on the gathered block with the cross sums."""

    @staticmethod
    def instance(n, m, factor):
        mu, nu, C, K = random_instance(n + 7 * m, n, m)
        n_b, m_b = decimation_to_budget(n, m, factor)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
        return mu, nu, C, K, active_sets(mu, nu, K, eps, kap), (n_b, m_b)

    @pytest.mark.parametrize("factor", LAYOUT_BUDGETS)
    @pytest.mark.parametrize("n, m", LAYOUT_SHAPES)
    def test_evaluate_k_min_and_warm_start_agree(self, n, m, factor):
        mu, nu, _, K, sr, (n_b, m_b) = self.instance(n, m, factor)
        compact = _compact_layout(mu, nu, K, sr)
        full = _full_layout(mu, nu, K, sr)
        assert full.matrix is K.entries
        assert compact.k_min == full.k_min
        u, v = off_threshold_point(sr, compact)
        f_c, g_c = evaluate(compact, u, v)
        f_f, g_f = evaluate(full, u, v)
        _, f_scale, _, g_scale = full_plan_value_and_gradient(mu, nu, K, sr, u, v)
        assert abs(f_c - f_f) <= 1e-13 * f_scale
        assert np.all(np.abs(g_c - g_f) <= 1e-13 * g_scale)
        # the first three clipped sweeps, the warm start's length before the
        # sweeps became the whole solve
        budget = Budget(n_b, m_b)
        three = SolverConfig(pg_tolerance=1e-300, max_iterations=3)
        sweeps_c = restricted_sinkhorn(compact, box_bounds(compact, budget), three)
        sweeps_f = restricted_sinkhorn(full, box_bounds(full, budget), three)
        assert sweeps_c.iterations == sweeps_f.iterations
        np.testing.assert_allclose(
            np.exp(sweeps_c.solution), np.exp(sweeps_f.solution), rtol=1e-13, atol=0.0
        )

    @pytest.mark.parametrize("factor", LAYOUT_BUDGETS)
    @pytest.mark.parametrize("n, m", LAYOUT_SHAPES)
    def test_screenkhorn_agrees(self, n, m, factor, monkeypatch):
        mu, nu, C, _, _, (n_b, m_b) = self.instance(n, m, factor)
        results = []
        for layout in LAYOUTS:
            monkeypatch.setattr(algorithm, "build_problem", layout)
            results.append(screenkhorn(C, 1.0, mu, nu, n_b, m_b, materialize_plan=False))
        compact, full = results
        assert compact.k_min == full.k_min
        assert compact.solver_report.converged and full.solver_report.converged
        assert compact.solver_report.iterations == full.solver_report.iterations
        assert compact.solver_report.evaluations == full.solver_report.evaluations
        # on the widest shape each of the 65 539 column weights is about
        # 1.5e-5, so pg_tolerance 1e-6 pins each v only to some percent; the
        # two layouts' roundings move L-BFGS-B's path apart inside that
        # slack (6e-5 relative at budget 0.5), with the same iteration count
        rtol = 1e-3 if m > _CHUNK_ENTRIES else 1e-12
        np.testing.assert_allclose(compact.potentials.u, full.potentials.u, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(compact.potentials.v, full.potentials.v, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("factor, on_k", [(0.99, True), (0.1, False)])
    def test_selection_by_share(self, factor, on_k):
        # the full-budget benchmark's shape: 990 x 990 of 1000 x 1000 is a
        # share of 0.98; at budget 0.1 the share is 0.01
        n_b, m_b = decimation_to_budget(1000, 1000, factor)
        mu = DiscreteMeasure(np.ones(1000))
        K = GibbsKernel(np.full((1000, 1000), 0.5), 1.0)
        sr = forced_screening(1.0, 1.0, np.arange(n_b), np.arange(m_b))
        assert (n_b * m_b >= _FULL_LAYOUT_SHARE * 1000 * 1000) == on_k
        p = build_problem(mu, mu, K, sr)
        if on_k:
            assert p.matrix is K.entries
        else:
            assert p.matrix.shape == (n_b + 1, m_b + 1)


class TestObjective:
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_full_budget_reduces_to_plain_dual(self, seed):
        # symmetric construction gives kappa exactly one
        mu, C, K = symmetric_instance(seed, 5)
        xi, zeta = ratio_vectors(mu, mu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(5, 5))
        assert kap == 1.0
        p = build_problem(mu, mu, K, active_sets(mu, mu, K, eps, kap))
        u = 0.2 * np.sin(np.arange(5.0))
        v = 0.1 * np.cos(np.arange(5.0))
        plain = dual_objective(DualPotentials(u, v), K, mu, mu)
        assert objective(p, u, v) == pytest.approx(plain, rel=1e-13)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=5),
        m_b=st.integers(min_value=1, max_value=4),
    )
    def test_matches_full_matrix_evaluation(self, seed, n_b, m_b):
        for layout in LAYOUTS:
            mu, nu, K, sr, p = screened_problem(seed, 5, 4, n_b, m_b, layout=layout)
            u = math.log(sr.epsilon / sr.kappa) + 0.3 * np.sin(
                np.arange(float(p.n_active))
            )
            v = math.log(sr.epsilon * sr.kappa) + 0.2 * np.cos(
                np.arange(float(p.m_active))
            )
            reduced = objective(p, u, v) - p.const
            full = full_matrix_objective(
                K, mu, nu, sr.epsilon, sr.kappa, sr.active_rows, sr.active_cols, u, v
            )
            # the reduced objective drops the constant that full evaluation
            # keeps: reconcile by comparing both with the all-threshold
            # baseline removed
            base_u = np.full(p.n_active, math.log(sr.epsilon / sr.kappa))
            base_v = np.full(p.m_active, math.log(sr.epsilon * sr.kappa))
            reduced_base = objective(p, base_u, base_v) - p.const
            full_base = full_matrix_objective(
                K, mu, nu, sr.epsilon, sr.kappa, sr.active_rows, sr.active_cols,
                base_u, base_v,
            )
            assert reduced - reduced_base == pytest.approx(
                full - full_base, rel=1e-11, abs=1e-12
            )
            # and with the constant included the values agree outright
            assert objective(p, u, v) == pytest.approx(full, rel=1e-11, abs=1e-12)

    def test_scalar_problem(self):
        one = DiscreteMeasure(np.array([1.0]))
        K = GibbsKernel(np.ones((1, 1)), 1.0)
        p = build_problem(one, one, K, forced_screening(1.0, 1.0, [0], [0]))
        for u, v in ((0.0, 0.0), (0.5, -0.2), (-1.0, 0.3)):
            expect = math.exp(u + v) - u - v
            assert objective(p, np.array([u]), np.array([v])) == pytest.approx(
                expect, rel=1e-15
            )
        assert objective(p, np.zeros(1), np.zeros(1)) == pytest.approx(1.0)
        gu, gv = gradient(p, np.zeros(1), np.zeros(1))
        assert gu[0] == 0.0
        assert gv[0] == 0.0

    def test_shape_check(self):
        _, _, _, _, p = screened_problem(2, 5, 4, 3, 3)
        with pytest.raises(ShapeError):
            objective(p, np.zeros(p.n_active + 1), np.zeros(p.m_active))


class TestGradient:
    def test_zero_at_scaling_fixed_point(self):
        # full budget, kappa = 1: the gradient is the marginal residual of
        # the plain dual, so a tightly converged baseline zeroes it
        mu, C, K = symmetric_instance(11, 4)
        xi, zeta = ratio_vectors(mu, mu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(4, 4))
        p = build_problem(mu, mu, K, active_sets(mu, mu, K, eps, kap))
        sol = sinkhorn(mu, mu, K, stop_threshold=1e-12, max_iter=5000)
        gu, gv = gradient(p, sol.potentials.u, sol.potentials.v)
        assert np.abs(gu).max() < 1e-10
        assert np.abs(gv).max() < 1e-10

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=5),
        m_b=st.integers(min_value=1, max_value=4),
        eta=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_matches_central_differences(self, seed, n_b, m_b, eta):
        mu, nu, K, sr, p = screened_problem(seed, 5, 4, n_b, m_b, eta)
        u = math.log(sr.epsilon / sr.kappa) + 0.4 * np.sin(
            1.0 + np.arange(float(p.n_active))
        )
        v = math.log(sr.epsilon * sr.kappa) + 0.3 * np.cos(
            2.0 + np.arange(float(p.m_active))
        )
        gu, gv = gradient(p, u, v)
        analytic = np.concatenate([gu, gv])
        numeric = fd_gradient(p, u, v)
        scale = max(np.abs(analytic).max(), 1e-12)
        assert np.abs(numeric - analytic).max() / scale < 1e-5


def off_threshold_point(sr, p):
    """Active potentials moved off their thresholds by a few tenths."""
    u = math.log(sr.epsilon / sr.kappa) + 0.4 * np.sin(1.0 + np.arange(float(p.n_active)))
    v = math.log(sr.epsilon * sr.kappa) + 0.3 * np.cos(2.0 + np.arange(float(p.m_active)))
    return u, v


class TestEvaluate:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=40),
        m_b=st.integers(min_value=1, max_value=30),
        eta=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_matches_dense_plan_oracle(self, seed, n_b, m_b, eta):
        mu, nu, K, sr, p = screened_problem(seed, 40, 30, n_b, m_b, eta, _compact_layout)
        u, v = off_threshold_point(sr, p)
        f, g = evaluate(p, u, v)
        want_f, f_scale, want_g, g_scale = screened_value_and_gradient(p, u, v)
        assert abs(f - want_f) <= 1e-14 * f_scale
        assert np.all(np.abs(g - want_g) <= 1e-14 * g_scale)
        # both layouts against the plan over the whole kernel
        want_f, f_scale, want_g, g_scale = full_plan_value_and_gradient(mu, nu, K, sr, u, v)
        for layout in LAYOUTS:
            f, g = evaluate(layout(mu, nu, K, sr), u, v)
            assert abs(f - want_f) <= 1e-14 * f_scale
            assert np.all(np.abs(g - want_g) <= 1e-14 * g_scale)

    @pytest.mark.parametrize("n_b, m_b", [(20, 15), (40, 30), (1, 1)])
    def test_views_and_separate_formulas_agree_bitwise(self, n_b, m_b):
        # objective() and gradient() are views of evaluate(), and all three
        # equal the separate objective and gradient formulas bit for bit
        for layout in LAYOUTS:
            _, _, _, sr, p = screened_problem(4, 40, 30, n_b, m_b, layout=layout)
            u, v = off_threshold_point(sr, p)
            a, b = np.exp(u), np.exp(v)
            kap = p.kappa
            a_hat = np.full(p.matrix.shape[0], p.row_fill)
            a_hat[p.rows] = a
            b_hat = np.full(p.matrix.shape[1], p.col_fill)
            b_hat[p.cols] = b
            value = (
                a_hat @ (p.matrix @ b_hat)
                - kap * (p.mu_active @ u)
                - (p.nu_active @ v) / kap
                + p.const
            )
            grad_u = a * (p.matrix @ b_hat)[p.rows] - kap * p.mu_active
            grad_v = b * (a_hat @ p.matrix)[p.cols] - p.nu_active / kap
            f, g = evaluate(p, u, v)
            assert f == value
            np.testing.assert_array_equal(g, np.concatenate([grad_u, grad_v]))
            assert objective(p, u, v) == value
            gu, gv = gradient(p, u, v)
            np.testing.assert_array_equal(gu, grad_u)
            np.testing.assert_array_equal(gv, grad_v)

    def test_overflow_named(self):
        _, _, _, _, p = screened_problem(2, 5, 4, 3, 3)
        big = np.full(p.n_active, 800.0)
        with pytest.raises(NumericRangeError, match="screened objective overflows"):
            evaluate(p, big, np.zeros(p.m_active))


class TestBoxBounds:
    def test_hand_evaluation_two_by_two(self):
        # uniform 2x2 with unit kernel: every bound collapses to log(1/2)
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        K = GibbsKernel(np.ones((2, 2)), 1.0)
        xi, zeta = ratio_vectors(mu, mu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(2, 2))
        assert eps == pytest.approx(0.5, rel=1e-15)
        assert kap == 1.0
        p = build_problem(mu, mu, K, active_sets(mu, mu, K, eps, kap))
        bb = box_bounds(p, Budget(2, 2))
        expect = math.log(0.5)
        assert bb.u_lower == pytest.approx(expect, rel=1e-15)
        assert bb.u_upper == pytest.approx(expect, rel=1e-15)
        assert bb.v_lower == pytest.approx(expect, rel=1e-15)
        assert bb.v_upper == pytest.approx(expect, rel=1e-15)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=6),
        m_b=st.integers(min_value=1, max_value=5),
    )
    def test_lower_bounds_dominate_thresholds(self, seed, n_b, m_b):
        mu, nu, K, sr, p = screened_problem(seed, 6, 5, n_b, m_b)
        try:
            bb = box_bounds(p, Budget(n_b, m_b))
        except InfeasibleBoundsError:
            # extreme budgets can push the formulas past each other, which
            # is reported as a typed error rather than a silent bad box
            return
        assert bb.u_lower >= math.log(sr.epsilon / sr.kappa) - 1e-12
        assert bb.v_lower >= math.log(sr.epsilon * sr.kappa) - 1e-12

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=6),
        m_b=st.integers(min_value=1, max_value=5),
    )
    def test_guard_only_loosens_lower_bounds(self, seed, n_b, m_b):
        mu, nu, K, sr, p = screened_problem(seed, 6, 5, n_b, m_b)
        try:
            guarded = box_bounds(p, Budget(n_b, m_b))
        except InfeasibleBoundsError:
            return
        # the lower bounds without the max-against-epsilon guard
        eps, kap, k_min, n, m = p.epsilon, p.kappa, p.k_min, 6, 5
        mu_hi, nu_hi = p.mu_active.max(), p.nu_active.max()
        u_inner = nu_hi / (n * eps * kap * k_min)
        v_inner = kap * mu_hi / (m * eps * k_min)
        plain_u_lower = math.log(
            max(eps / kap, p.mu_active.min() / (eps * (m - m_b) + u_inner * m_b))
        )
        plain_v_lower = math.log(
            max(eps * kap, p.nu_active.min() / (eps * (n - n_b) + v_inner * n_b))
        )
        assert guarded.u_lower <= plain_u_lower + 1e-12
        assert guarded.v_lower <= plain_v_lower + 1e-12

    def test_empty_box_raises_typed_error(self):
        # budget of one row and one column pushes the lower formulas past
        # the uppers on this instance; the error reports both intervals
        mu, nu, K, sr, p = screened_problem(1, 6, 5, 1, 1)
        with pytest.raises(InfeasibleBoundsError, match=r"u in \["):
            box_bounds(p, Budget(1, 1))

    def test_infeasible_box_rejected(self):
        with pytest.raises(InfeasibleBoundsError):
            BoxBounds(u_lower=1.0, u_upper=0.0, v_lower=0.0, v_upper=1.0)

    def test_stacked_layout(self):
        bb = BoxBounds(-1.0, 2.0, -3.0, 4.0)
        lower, upper = bb.stacked(2, 3)
        np.testing.assert_array_equal(lower, [-1.0, -1.0, -3.0, -3.0, -3.0])
        np.testing.assert_array_equal(upper, [2.0, 2.0, 4.0, 4.0, 4.0])
