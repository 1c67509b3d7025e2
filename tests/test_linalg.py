"""Incremental precision state vs direct linear algebra."""

import math

import numpy as np
import pytest

from ofdsim import linalg

from oracles import inv_norm


def test_init_identity_case():
    st = linalg.init_precision(2, 1.0)
    np.testing.assert_array_equal(st.m_mat, np.eye(2))
    np.testing.assert_array_equal(st.m_inv, np.eye(2))
    assert st.log_det == 0.0


def test_init_scalar_inverse():
    st = linalg.init_precision(3, 0.01)
    np.testing.assert_allclose(st.m_inv, 100.0 * np.eye(3), rtol=1e-14)


def test_init_one_dim_log_det():
    st = linalg.init_precision(1, 4.0)
    assert st.log_det == pytest.approx(math.log(4.0))


def test_rank_one_scalar_case():
    st = linalg.init_precision(1, 1.0)
    linalg.rank_one_update(st, np.array([1.0]))
    assert st.m_mat[0, 0] == 2.0
    assert st.m_inv[0, 0] == pytest.approx(0.5)
    assert st.log_det == pytest.approx(math.log(2.0))


def test_rank_one_basis_vector():
    st = linalg.init_precision(2, 1.0)
    linalg.rank_one_update(st, np.array([1.0, 0.0]))
    np.testing.assert_allclose(st.m_inv, np.diag([0.5, 1.0]), atol=1e-15)


def test_rank_one_rejects_non_positive_denominator():
    # M^-1 = -I puts 1 + v^T M^-1 v at 0 for v = e1; the state is left as it was
    st = linalg.init_precision(2, 1.0)
    st.m_inv[:] = -np.eye(2)
    with pytest.raises(linalg.NumericError,
                       match=r"^Sherman-Morrison denominator 0\.000e\+00 is not positive$"):
        linalg.rank_one_update(st, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(st.m_mat, np.eye(2))
    np.testing.assert_array_equal(st.m_inv, -np.eye(2))
    assert st.log_det == 0.0


def test_long_update_sequence_tracks_direct_inverse():
    rng = np.random.default_rng(10)
    st = linalg.init_precision(8, 0.5)
    direct = 0.5 * np.eye(8)
    for _ in range(300):
        v = rng.uniform(-1.5, 1.5, 8)
        linalg.rank_one_update(st, v)
        direct += np.outer(v, v)
    np.testing.assert_allclose(st.m_inv, np.linalg.inv(direct), atol=1e-9)
    sign, logdet = np.linalg.slogdet(direct)
    assert sign > 0
    assert st.log_det == pytest.approx(logdet, rel=1e-10)
    # residual of the tracked pair
    assert np.abs(st.m_mat @ st.m_inv - np.eye(8)).max() < 1e-8


@pytest.mark.parametrize("dim", [1, 4, 40])
def test_updates_keep_inverse_exactly_symmetric(dim):
    rng = np.random.default_rng(dim)
    st = linalg.init_precision(dim, 0.01)
    for _ in range(500):
        linalg.rank_one_update(st, rng.uniform(0.0, 1.0, dim))
    assert np.array_equal(st.m_inv, st.m_inv.T)


def test_log_det_elliptical_potential_bound():
    # log det M_T <= d log(lam + T L^2 / d) for ||v|| <= L
    rng = np.random.default_rng(11)
    d, lam, T = 6, 0.01, 500
    st = linalg.init_precision(d, lam)
    feature_l = 10.0 * math.sqrt(d)
    for _ in range(T):
        linalg.rank_one_update(st, rng.uniform(0.0, 10.0, d))
    assert st.log_det <= d * math.log(lam + T * feature_l**2 / d)


def test_inv_norm_identity_metric():
    st = linalg.init_precision(2, 1.0)
    assert inv_norm(st, np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_inv_norm_scaled_metric():
    st = linalg.init_precision(2, 4.0)
    assert inv_norm(st, np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_inv_norm_matches_direct_solve():
    rng = np.random.default_rng(12)
    st = linalg.init_precision(5, 0.2)
    for _ in range(60):
        linalg.rank_one_update(st, rng.uniform(-1.0, 1.0, 5))
    x = rng.uniform(-2.0, 2.0, 5)
    direct = float(x @ np.linalg.solve(st.m_mat, x))
    assert inv_norm(st, x) ** 2 == pytest.approx(direct, abs=1e-10)


def test_inv_norm_non_increasing_under_updates():
    rng = np.random.default_rng(13)
    st = linalg.init_precision(4, 1.0)
    probes = rng.uniform(-1.0, 1.0, (10, 4))
    for _ in range(25):
        before = [inv_norm(st, x) for x in probes]
        linalg.rank_one_update(st, rng.uniform(-1.0, 1.0, 4))
        after = [inv_norm(st, x) for x in probes]
        for hi, lo in zip(before, after):
            assert lo <= hi + 1e-12


def test_sample_gaussian_zero_scale_is_mean():
    st = linalg.init_precision(3, 2.0)
    mean = np.array([1.0, -2.0, 0.5])
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(linalg.sample_gaussian(mean, 0.0, st, [rng]), mean)
    # tiny positive scale stays numerically at the mean
    np.testing.assert_allclose(linalg.sample_gaussian(mean, 1e-300, st, [rng]), mean, atol=1e-290)


def test_sample_gaussian_unit_variance():
    st = linalg.init_precision(1, 1.0)
    rng = np.random.default_rng(42)
    draws = np.array(
        [linalg.sample_gaussian(np.zeros(1), 1.0, st, [rng])[0] for _ in range(10**5)]
    )
    assert 0.98 <= draws.var(ddof=1) <= 1.02


def test_sample_gaussian_covariance_oracle():
    state = linalg.init_precision(3, 1.0)
    extra = np.random.default_rng(7)
    for _ in range(5):
        linalg.rank_one_update(state, extra.uniform(-1.0, 1.0, 3))
    scale = 1.3
    rng = np.random.default_rng(123)
    samples = np.array(
        [linalg.sample_gaussian(np.zeros(3), scale, state, [rng]) for _ in range(10**5)]
    )
    np.testing.assert_allclose(np.cov(samples.T), scale**2 * state.m_inv, atol=0.05)


def test_sample_gaussian_reports_broken_state():
    st = linalg.init_precision(2, 1.0)
    st.m_inv[:] = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(linalg.NumericError, match="eigenvalue"):
        linalg.sample_gaussian(np.zeros(2), 1.0, st, [np.random.default_rng(0)])
