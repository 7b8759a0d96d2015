import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenkhorn import (
    Budget,
    DegenerateScreeningError,
    DiscreteMeasure,
    GibbsKernel,
    ParameterError,
    active_sets,
    epsilon_kappa,
    ratio_vectors,
)
from conftest import random_instance

# membership slack mirrored from the implementation: a weight equal to its
# threshold up to one part in 1e12 still counts as active
SLACK = 1e-12


def brute_force_sets(mu, nu, K, eps, kap):
    rows = [
        i
        for i in range(mu.size)
        if mu.weights[i] >= (eps * eps / kap) * K.row_sums[i] * (1.0 - SLACK)
    ]
    cols = [
        j
        for j in range(nu.size)
        if nu.weights[j] >= (eps * eps * kap) * K.col_sums[j] * (1.0 - SLACK)
    ]
    return rows, cols


class TestRatioVectors:
    def test_uniform_measures_constant_ratio(self):
        n, m = 3, 4
        mu = DiscreteMeasure(np.full(n, 1.0 / n))
        nu = DiscreteMeasure(np.full(m, 1.0 / m))
        K = GibbsKernel(np.ones((n, m)), 1.0)
        xi, zeta = ratio_vectors(mu, nu, K)
        np.testing.assert_allclose(xi, 1.0 / (n * m), rtol=1e-15)
        np.testing.assert_allclose(zeta, 1.0 / (n * m), rtol=1e-15)

    def test_direct_division_and_sort(self):
        mu = DiscreteMeasure(np.array([0.7, 0.3]))
        nu = DiscreteMeasure(np.array([0.5, 0.5]))
        K = GibbsKernel(np.array([[0.5, 0.5], [1.0, 1.0]]), 1.0)
        xi, _ = ratio_vectors(mu, nu, K)
        np.testing.assert_allclose(xi, [0.7, 0.15], rtol=1e-15)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_ratios_in_original_order(self, seed):
        mu, nu, _, K = random_instance(seed, 5, 5)
        xi, zeta = ratio_vectors(mu, nu, K)
        np.testing.assert_array_equal(xi, mu.weights / K.row_sums)
        np.testing.assert_array_equal(zeta, nu.weights / K.col_sums)


class TestEpsilonKappa:
    def test_symmetric_ratios(self):
        # both budget ratios at 1e-4: epsilon^2/kappa and epsilon^2*kappa
        # must each equal 1e-4, forcing epsilon = 0.01 and kappa = 1
        xi = np.array([1.0, 1e-4])
        zeta = np.array([2.0, 1e-4])
        eps, kap = epsilon_kappa(xi, zeta, Budget(2, 2))
        assert eps == pytest.approx(0.01, rel=1e-15)
        assert kap == pytest.approx(1.0, rel=1e-15)

    def test_asymmetric_ratios(self):
        eps, kap = epsilon_kappa(np.array([1.0]), np.array([4.0]), Budget(1, 1))
        assert eps == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert kap == pytest.approx(2.0, rel=1e-15)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=5),
        m_b=st.integers(min_value=1, max_value=5),
    )
    def test_defining_identities(self, seed, n_b, m_b):
        mu, nu, _, K = random_instance(seed, 5, 5)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
        xi, zeta = np.sort(xi)[::-1], np.sort(zeta)[::-1]
        assert eps * eps / kap == pytest.approx(xi[n_b - 1], rel=1e-12)
        assert eps * eps * kap == pytest.approx(zeta[m_b - 1], rel=1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=7),
        m_b=st.integers(min_value=1, max_value=5),
    )
    def test_order_of_ratios_does_not_matter(self, seed, n_b, m_b):
        # the budget entries of the descending stable sort, bit for bit,
        # with ties among the ratios
        mu, nu, _, K = random_instance(seed, 7, 5)
        xi, zeta = ratio_vectors(mu, nu, K)
        xi = np.concatenate([xi[:4], xi[:3]])
        want = epsilon_kappa(
            xi[np.argsort(-xi, kind="stable")],
            zeta[np.argsort(-zeta, kind="stable")],
            Budget(n_b, m_b),
        )
        assert epsilon_kappa(xi, zeta, Budget(n_b, m_b)) == want
        assert epsilon_kappa(xi[::-1], zeta[::-1], Budget(n_b, m_b)) == want

    def test_budget_beyond_size_rejected(self):
        with pytest.raises(ParameterError):
            epsilon_kappa(np.array([1.0]), np.array([1.0]), Budget(2, 1))

    def test_budget_must_be_positive(self):
        with pytest.raises(ParameterError):
            Budget(0, 1)


class TestActiveSets:
    def test_tied_ratios_keep_everything(self):
        n, m = 4, 4
        mu = DiscreteMeasure(np.full(n, 1.0 / n))
        K = GibbsKernel(np.ones((n, m)), 1.0)
        xi, zeta = ratio_vectors(mu, mu, K)
        for n_b in (1, 2, 4):
            eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, n_b))
            sr = active_sets(mu, mu, K, eps, kap)
            np.testing.assert_array_equal(sr.active_rows, np.arange(n))
            np.testing.assert_array_equal(sr.active_cols, np.arange(m))

    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_full_budget_keeps_everything(self, seed):
        mu, nu, _, K = random_instance(seed, 6, 4)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(6, 4))
        sr = active_sets(mu, nu, K, eps, kap)
        np.testing.assert_array_equal(sr.active_rows, np.arange(6))
        np.testing.assert_array_equal(sr.active_cols, np.arange(4))

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=6),
        m_b=st.integers(min_value=1, max_value=5),
    )
    def test_matches_brute_force(self, seed, n_b, m_b):
        mu, nu, _, K = random_instance(seed, 6, 5)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
        sr = active_sets(mu, nu, K, eps, kap)
        rows, cols = brute_force_sets(mu, nu, K, eps, kap)
        np.testing.assert_array_equal(sr.active_rows, rows)
        np.testing.assert_array_equal(sr.active_cols, cols)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_b=st.integers(min_value=1, max_value=6),
    )
    def test_budget_counts_are_lower_bounds(self, seed, n_b):
        # with distinct ratios exactly n_b rows pass; ties can only add more
        mu, nu, _, K = random_instance(seed, 6, 6)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, n_b))
        sr = active_sets(mu, nu, K, eps, kap)
        assert sr.n_active >= n_b
        assert sr.m_active >= n_b
        if np.unique(xi).size == 6:
            assert sr.n_active == n_b
        if np.unique(zeta).size == 6:
            assert sr.m_active == n_b

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        small=st.integers(min_value=1, max_value=5),
    )
    def test_active_sets_grow_with_budget(self, seed, small):
        mu, nu, _, K = random_instance(seed, 6, 6)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps_s, kap_s = epsilon_kappa(xi, zeta, Budget(small, small))
        eps_l, kap_l = epsilon_kappa(xi, zeta, Budget(6, 6))
        small_sr = active_sets(mu, nu, K, eps_s, kap_s)
        large_sr = active_sets(mu, nu, K, eps_l, kap_l)
        assert set(small_sr.active_rows) <= set(large_sr.active_rows)
        assert set(small_sr.active_cols) <= set(large_sr.active_cols)

    def test_empty_active_set_rejected(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        K = GibbsKernel(np.ones((2, 2)), 1.0)
        with pytest.raises(DegenerateScreeningError):
            active_sets(mu, mu, K, 10.0, 1.0)

    def test_threshold_tie_is_kept(self):
        # row 0 sits exactly on its threshold: mu_0 = (eps^2/kappa) r_0(K)
        mu = DiscreteMeasure(np.array([0.2, 0.8]))
        K = GibbsKernel(np.ones((2, 2)), 1.0)
        eps = math.sqrt(0.2 / 2.0)
        sr = active_sets(mu, mu, K, eps, 1.0)
        assert 0 in sr.active_rows
