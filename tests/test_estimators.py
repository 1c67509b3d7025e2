"""Ridge/TS confidence machinery and the GP posterior."""

import math

import numpy as np
import pytest

from ofdsim import estimators, linalg
from ofdsim.estimators import ConfidenceParams


def default_params(dim, **kw):
    return ConfidenceParams.defaults(dim, **kw)


class TestConfidenceParams:
    def test_defaults_match_experiment_values(self):
        p = default_params(4)
        assert (p.noise_r, p.delta, p.lam, p.param_bound_s) == (0.1, 0.05, 0.01, 1.0)
        assert p.feature_bound_l == pytest.approx(10.0 * math.sqrt(4))

    def test_zero_noise_and_bound_are_legal(self):
        ConfidenceParams(dim=3, noise_r=0.0, param_bound_s=0.0,
                         feature_bound_l=1.0, delta=0.5, lam=1.0)

    def test_rejects_invalid_fields(self):
        with pytest.raises(ValueError):
            ConfidenceParams(dim=0, noise_r=0.1, param_bound_s=1.0,
                             feature_bound_l=1.0, delta=0.5, lam=1.0)
        with pytest.raises(ValueError):
            ConfidenceParams(dim=2, noise_r=-0.1, param_bound_s=1.0,
                             feature_bound_l=1.0, delta=0.5, lam=1.0)
        with pytest.raises(ValueError):
            ConfidenceParams(dim=2, noise_r=0.1, param_bound_s=1.0,
                             feature_bound_l=1.0, delta=1.0, lam=1.0)
        with pytest.raises(ValueError):
            ConfidenceParams(dim=2, noise_r=0.1, param_bound_s=1.0,
                             feature_bound_l=1.0, delta=0.5, lam=0.0)


def test_one_dim_ridge_hand_solve():
    state = estimators.init_ridge(1, 1.0)
    estimators.ridge_update(state, np.array([1.0]), 2.0)
    assert state.theta_hat[0] == pytest.approx(1.0)  # 2 / (1 + 1)


def test_fresh_ridge_estimate_is_zero():
    state = estimators.init_ridge(4, 0.01)
    np.testing.assert_array_equal(state.theta_hat, np.zeros(4))
    assert state.n_obs == 0


def test_ridge_matches_batch_solve():
    rng = np.random.default_rng(20)
    d, lam = 5, 0.3
    state = estimators.init_ridge(d, lam)
    xs = rng.uniform(-2.0, 2.0, (120, d))
    ys = rng.normal(0.0, 1.0, 120)
    for x, y in zip(xs, ys):
        estimators.ridge_update(state, x, float(y))
    batch = np.linalg.solve(lam * np.eye(d) + xs.T @ xs, xs.T @ ys)
    np.testing.assert_allclose(state.theta_hat, batch, atol=1e-10)
    assert state.n_obs == 120


def test_ridge_theta_consistent_with_moment():
    rng = np.random.default_rng(21)
    state = estimators.init_ridge(3, 0.05)
    for _ in range(40):
        estimators.ridge_update(state, rng.uniform(0.0, 1.0, 3), float(rng.normal()))
        np.testing.assert_allclose(
            state.theta_hat, state.precision.m_inv @ state.moment, atol=1e-10
        )


def test_ridge_order_insensitive_up_to_float():
    rng = np.random.default_rng(22)
    xs = rng.uniform(-1.0, 1.0, (80, 4))
    ys = rng.normal(size=80)
    a = estimators.init_ridge(4, 0.1)
    b = estimators.init_ridge(4, 0.1)
    order = rng.permutation(80)
    for i in range(80):
        estimators.ridge_update(a, xs[i], float(ys[i]))
        estimators.ridge_update(b, xs[order[i]], float(ys[order[i]]))
    np.testing.assert_allclose(a.theta_hat, b.theta_hat, atol=1e-8)


def test_alpha_noiseless_reduces_to_regularizer_term():
    p = ConfidenceParams(dim=3, noise_r=0.0, param_bound_s=2.0,
                         feature_bound_l=5.0, delta=0.1, lam=4.0)
    assert estimators.alpha_t(p, 1) == pytest.approx(2.0 * 2.0)
    assert estimators.alpha_t(p, 10**4) == pytest.approx(4.0)


def test_alpha_closed_form_and_monotonicity():
    p = default_params(4)
    expected = 0.1 * math.sqrt(4 * math.log((1 + 1000 * p.feature_bound_l**2 / 0.01) / 0.05))
    expected += math.sqrt(0.01) * 1.0
    assert estimators.alpha_t(p, 1000) == pytest.approx(expected, rel=1e-12)
    values = [estimators.alpha_t(p, t) for t in (1, 2, 10, 100, 10**4)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))
    with pytest.raises(ValueError):
        estimators.alpha_t(p, 0)


def test_ucb_score_empty_history():
    p = ConfidenceParams(dim=2, noise_r=0.1, param_bound_s=1.0,
                         feature_bound_l=5.0, delta=0.05, lam=1.0)
    state = estimators.init_ridge(2, 1.0)
    x = np.array([1.0, 0.0])
    # zero mean plus one alpha of width (||x||_{M^-1} = 1 at lambda = 1)
    score = estimators.ucb_scores(state, p, 1, x[None, :])[0]
    assert score == pytest.approx(estimators.alpha_t(p, 1))


def test_ucb_score_dominates_mean_and_width_shrinks():
    p = default_params(3)
    state = estimators.init_ridge(3, p.lam)
    x = np.array([2.0, 5.0, 1.0])
    initial_width = linalg.inv_norm(state.precision, x)
    rng = np.random.default_rng(23)
    for _ in range(10**4):
        estimators.ridge_update(state, x, float(1.0 + rng.normal(0.0, 0.1)))
    assert linalg.inv_norm(state.precision, x) < 0.05 * initial_width
    t = 10**4 + 1
    assert estimators.ucb_scores(state, p, t, x[None, :])[0] >= float(x @ state.theta_hat)


def test_ucb_scores_vectorized_matches_scalar():
    p = default_params(4)
    state = estimators.init_ridge(4, p.lam)
    rng = np.random.default_rng(24)
    for _ in range(30):
        estimators.ridge_update(state, rng.uniform(0.0, 10.0, 4), float(rng.normal()))
    xs = rng.uniform(0.0, 10.0, (7, 4))
    # each row scored alone, its width from the reference norm inv_norm
    singles = [estimators.ucb_scores(state, p, 31, x[None, :])[0] for x in xs]
    widths = [linalg.inv_norm(state.precision, x) for x in xs]
    batch = estimators.ucb_scores(state, p, 31, xs)
    np.testing.assert_allclose(batch, singles, rtol=1e-12)
    np.testing.assert_allclose(
        batch, xs @ state.theta_hat + estimators.alpha_t(p, 31) * np.array(widths), rtol=1e-12
    )


def test_beta_closed_form():
    p = default_params(4)
    assert estimators.beta_t(p, 100) == pytest.approx(
        0.1 * math.sqrt(9 * 4 * math.log(100 / 0.05)), rel=1e-12
    )
    with pytest.raises(ValueError):
        estimators.beta_t(p, 0)


def test_ts_degenerate_scale_returns_mean_prediction():
    p = ConfidenceParams(dim=2, noise_r=0.0, param_bound_s=1.0,
                         feature_bound_l=5.0, delta=0.05, lam=1.0)
    state = estimators.init_ridge(2, 1.0)
    estimators.ridge_update(state, np.array([1.0, 0.0]), 3.0)
    x = np.array([2.0, 1.0])
    rng = np.random.default_rng(0)
    theta = estimators.ts_sample(state, p, 5, rng)
    assert theta @ x == pytest.approx(float(x @ state.theta_hat))


def test_ts_monte_carlo_mean_and_variance():
    p = default_params(2)
    state = estimators.init_ridge(2, p.lam)
    rng = np.random.default_rng(5)
    for _ in range(30):
        x = rng.uniform(0.0, 10.0, 2)
        estimators.ridge_update(state, x, float(x.sum() * 0.1 + rng.normal(0.0, 0.1)))
    x = np.array([3.0, 4.0])
    t = 31
    draw_rng = np.random.default_rng(99)
    vals = np.array([estimators.ts_sample(state, p, t, draw_rng) @ x for _ in range(10**5)])
    target_var = estimators.beta_t(p, t) ** 2 * linalg.inv_norm(state.precision, x) ** 2
    assert vals.var(ddof=1) == pytest.approx(target_var, rel=0.05)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - float(x @ state.theta_hat)) <= 3 * se


def test_ts_sample_shared_across_round():
    p = default_params(3)
    state = estimators.init_ridge(3, p.lam)
    theta = estimators.ts_sample(state, p, 4, np.random.default_rng(11))
    xs = np.random.default_rng(12).uniform(0.0, 10.0, (5, 3))
    scores = xs @ theta
    assert scores.shape == (5,)
    # the same draw reproduces under the same stream state
    theta2 = estimators.ts_sample(state, p, 4, np.random.default_rng(11))
    np.testing.assert_array_equal(theta, theta2)


# ---------------------------------------------------------------------------
# Gaussian process


def test_gp_prior_point():
    gp = estimators.init_gp(2, noise_var=0.01)
    mean, std = estimators.gp_posterior(gp, np.array([3.0, 4.0]))
    assert mean == 0.0
    assert std == pytest.approx(1.0)


def test_gp_init_validation():
    with pytest.raises(ValueError):
        estimators.init_gp(0, noise_var=0.01)
    with pytest.raises(ValueError):
        estimators.init_gp(2, noise_var=0.0)
    with pytest.raises(ValueError):
        estimators.init_gp(2, noise_var=0.01, lengthscale=-1.0)


def test_gp_default_lengthscale_scales_with_dim():
    gp = estimators.init_gp(9, noise_var=0.01)
    assert gp.lengthscale == pytest.approx(0.2 * 3.0)


def test_gp_interpolates_with_tiny_noise():
    gp = estimators.init_gp(1, noise_var=1e-10, feature_scale=1.0)
    pts = np.array([0.1, 0.4, 0.9])
    ys = np.array([2.0, -1.0, 0.5])
    for z, y in zip(pts, ys):
        estimators.gp_update(gp, np.array([z]), float(y))
    for z, y in zip(pts, ys):
        mean, std = estimators.gp_posterior(gp, np.array([z]))
        assert mean == pytest.approx(y, abs=1e-3)
        assert std < 1e-3


def test_gp_fits_square_function_on_grid():
    gp = estimators.init_gp(1, noise_var=1e-6, feature_scale=1.0)
    grid = np.linspace(0.025, 0.975, 20)
    for z in grid:
        estimators.gp_update(gp, np.array([z]), float(10.0 * z * z))
    held_out = np.linspace(0.05, 0.95, 50)
    means, _ = estimators.gp_posterior_many(gp, held_out[:, None])
    assert np.abs(means - 10.0 * held_out**2).max() < 0.5


def test_gp_posterior_variance_nonnegative_and_shrinking():
    rng = np.random.default_rng(30)
    gp = estimators.init_gp(2, noise_var=0.01)
    q = np.array([5.0, 5.0])
    _, before = estimators.gp_posterior(gp, q)
    for _ in range(50):
        x = rng.uniform(0.0, 10.0, 2)
        estimators.gp_update(gp, x, float(x.sum() / 10.0))
    _, after = estimators.gp_posterior(gp, q)
    assert 0.0 <= after <= before


def test_gp_info_gain_matches_gram_log_det():
    rng = np.random.default_rng(17)
    gp = estimators.init_gp(2, noise_var=0.01)
    xs = rng.uniform(0.0, 10.0, (200, 2))
    for x in xs:
        estimators.gp_update(gp, x, float(x.sum() / 10.0 + rng.normal(0.0, 0.1)))
    scaled = gp.inputs[: gp.n_obs]
    gram = estimators._kernel_cross(gp, scaled, scaled)
    direct = 0.5 * np.linalg.slogdet(np.eye(200) + gram / gp.noise_var)[1]
    assert gp.info_gain <= direct + 1e-6
    assert gp.info_gain == pytest.approx(direct, abs=1e-9)


def test_gp_posterior_order_invariant():
    rng = np.random.default_rng(31)
    xs = rng.uniform(0.0, 10.0, (120, 2))
    ys = xs.sum(axis=1) / 10.0
    a = estimators.init_gp(2, noise_var=0.01)
    b = estimators.init_gp(2, noise_var=0.01)
    order = rng.permutation(120)
    for i in range(120):
        estimators.gp_update(a, xs[i], float(ys[i]))
        estimators.gp_update(b, xs[order[i]], float(ys[order[i]]))
    queries = rng.uniform(0.0, 10.0, (20, 2))
    ma, sa = estimators.gp_posterior_many(a, queries)
    mb, sb = estimators.gp_posterior_many(b, queries)
    np.testing.assert_allclose(ma, mb, atol=1e-8)
    np.testing.assert_allclose(sa, sb, atol=1e-8)


def test_gp_periodic_refactor_keeps_posterior_consistent():
    # crosses the 256-observation full-refactor boundary
    rng = np.random.default_rng(32)
    gp = estimators.init_gp(1, noise_var=0.01, feature_scale=1.0)
    xs = rng.uniform(0.0, 1.0, estimators.GP_RECOMPUTE_EVERY + 40)
    for z in xs:
        estimators.gp_update(gp, np.array([z]), float(math.sin(6.0 * z)))
    q = np.array([[0.37]])
    mean, std = estimators.gp_posterior_many(gp, q)
    # reference posterior from one dense solve
    scaled = gp.inputs[: gp.n_obs]
    gram = estimators._kernel_cross(gp, scaled, scaled) + gp.noise_var * np.eye(gp.n_obs)
    k_star = estimators._kernel_cross(gp, scaled, q / gp.feature_scale)[:, 0]
    sol = np.linalg.solve(gram, gp.targets[: gp.n_obs])
    ref_mean = float(k_star @ sol)
    ref_var = gp.signal_var - float(k_star @ np.linalg.solve(gram, k_star))
    assert mean[0] == pytest.approx(ref_mean, abs=1e-8)
    assert std[0] ** 2 == pytest.approx(ref_var, abs=1e-8)


def test_gp_width_multiplier_grows_with_info_gain():
    p = default_params(2)
    gp = estimators.init_gp(2, noise_var=0.01)
    w0 = estimators.gp_width_multiplier(gp, p)
    assert w0 == pytest.approx(math.sqrt(2.0 * (1.0 + math.log(1 / 0.05))) + 1.0)
    rng = np.random.default_rng(33)
    for _ in range(30):
        x = rng.uniform(0.0, 10.0, 2)
        estimators.gp_update(gp, x, float(x.sum()))
    assert estimators.gp_width_multiplier(gp, p) > w0


def test_gp_ucb_scores_match_scalar_and_dominate_mean():
    p = default_params(2)
    rng = np.random.default_rng(34)
    gp = estimators.init_gp(2, noise_var=0.01)
    for _ in range(25):
        x = rng.uniform(0.0, 10.0, 2)
        estimators.gp_update(gp, x, float(x.prod() / 20.0))
    xs = rng.uniform(0.0, 10.0, (6, 2))
    batch = estimators.gp_ucb_scores(gp, p, xs)
    singles = [estimators.gp_ucb_scores(gp, p, x[None, :])[0] for x in xs]
    np.testing.assert_allclose(batch, singles, rtol=1e-10)
    means, _ = estimators.gp_posterior_many(gp, xs)
    assert np.all(batch >= means)


def test_gp_ts_scores_reproducible_and_shaped():
    p = default_params(2)
    rng = np.random.default_rng(35)
    gp = estimators.init_gp(2, noise_var=0.01)
    for _ in range(15):
        x = rng.uniform(0.0, 10.0, 2)
        estimators.gp_update(gp, x, float(x.sum() / 5.0))
    xs = rng.uniform(0.0, 10.0, (4, 2))
    a = estimators.gp_ts_scores(gp, p, xs, np.random.default_rng(77))
    b = estimators.gp_ts_scores(gp, p, xs, np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4,)
    # dispersion grows with the width multiplier, so fresh draws differ
    c = estimators.gp_ts_scores(gp, p, xs, np.random.default_rng(78))
    assert not np.array_equal(a, c)


def test_coverage_event_holds_in_most_runs():
    # |x.theta_hat - x.theta*| <= alpha_t * ||x||_{M^-1} across a run
    runs, horizon, d = 100, 300, 3
    held = 0
    for run in range(runs):
        rng = np.random.default_rng(1000 + run)
        theta = rng.uniform(0.0, 10.0, d)
        theta /= np.linalg.norm(theta)
        p = default_params(d)
        state = estimators.init_ridge(d, p.lam)
        good = True
        for t in range(1, horizon + 1):
            x = rng.uniform(0.0, 10.0, d)
            gap = abs(float(x @ state.theta_hat) - float(x @ theta))
            if gap > estimators.alpha_t(p, t) * linalg.inv_norm(state.precision, x):
                good = False
                break
            estimators.ridge_update(state, x, float(x @ theta + rng.normal(0.0, p.noise_r)))
        held += good
    assert held >= 95
