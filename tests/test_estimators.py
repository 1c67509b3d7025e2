"""Ridge/TS confidence machinery and the GP posterior."""

import copy
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ofdsim import estimators, linalg, policies
from ofdsim.estimators import ConfidenceParams
from ofdsim.goodness import GoodnessSpec
from ofdsim.policies import PolicyKind

from oracles import inv_norm


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

    def test_each_broken_field_gets_a_line(self):
        with pytest.raises(ValueError) as exc_info:
            ConfidenceParams(dim=2, noise_r=-0.1, param_bound_s=1.0,
                             feature_bound_l=1.0, delta=1.0, lam=0.0)
        lines = str(exc_info.value).splitlines()
        assert [line.split()[0] for line in lines] == ["noise_r", "delta", "lambda"]

    @pytest.mark.parametrize("dim", [True, 2.0, "2"])
    def test_dim_must_be_an_integer_and_not_a_bool(self, dim):
        # the integer rule every RunConfig size takes, which rejects a bool
        with pytest.raises(ValueError) as exc_info:
            ConfidenceParams(dim=dim, noise_r=0.1, param_bound_s=1.0,
                             feature_bound_l=10.0, delta=0.05, lam=0.01)
        assert str(exc_info.value) == f"dim must be a positive integer, got {dim!r}"

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
    np.testing.assert_array_equal(state.moment, np.zeros(4))


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


def test_ucb_score_empty_history():
    p = ConfidenceParams(dim=2, noise_r=0.1, param_bound_s=1.0,
                         feature_bound_l=5.0, delta=0.05, lam=1.0)
    state = estimators.init_ridge(2, 1.0)
    x = np.array([1.0, 0.0])
    # zero mean plus one alpha of width (||x||_{M^-1} = 1 at lambda = 1)
    score = estimators.ucb_scores(state.precision.m_inv, state.theta_hat, p, 1, x[None, :])[0]
    assert score == pytest.approx(estimators.alpha_t(p, 1))


def test_ucb_score_dominates_mean_and_width_shrinks():
    p = default_params(3)
    state = estimators.init_ridge(3, p.lam)
    x = np.array([2.0, 5.0, 1.0])
    initial_width = inv_norm(state.precision, x)
    rng = np.random.default_rng(23)
    for _ in range(10**4):
        estimators.ridge_update(state, x, float(1.0 + rng.normal(0.0, 0.1)))
    assert inv_norm(state.precision, x) < 0.05 * initial_width
    t = 10**4 + 1
    assert estimators.ucb_scores(state.precision.m_inv, state.theta_hat, p, t, x[None, :])[0] >= float(x @ state.theta_hat)


def test_ucb_scores_vectorized_matches_scalar():
    p = default_params(4)
    state = estimators.init_ridge(4, p.lam)
    rng = np.random.default_rng(24)
    for _ in range(30):
        estimators.ridge_update(state, rng.uniform(0.0, 10.0, 4), float(rng.normal()))
    xs = rng.uniform(0.0, 10.0, (7, 4))
    # each row scored alone, its width from the reference norm inv_norm
    singles = [estimators.ucb_scores(state.precision.m_inv, state.theta_hat, p, 31, x[None, :])[0] for x in xs]
    widths = [inv_norm(state.precision, x) for x in xs]
    batch = estimators.ucb_scores(state.precision.m_inv, state.theta_hat, p, 31, xs)
    np.testing.assert_allclose(batch, singles, rtol=1e-12)
    np.testing.assert_allclose(
        batch, xs @ state.theta_hat + estimators.alpha_t(p, 31) * np.array(widths), rtol=1e-12
    )


def test_beta_closed_form():
    p = default_params(4)
    assert estimators.beta_t(p, 100) == pytest.approx(
        0.1 * math.sqrt(9 * 4 * math.log(100 / 0.05)), rel=1e-12
    )


def ts_draw(state, p, t, rngs):
    """Round t's TS parameter draw per run of state, as the ts policy
    takes it: theta ~ N(theta_hat, beta_t^2 * M^-1)."""
    return linalg.sample_gaussian(state.theta_hat, estimators.beta_t(p, t),
                                  state.precision.m_inv, rngs)


def test_ts_degenerate_scale_returns_mean_prediction():
    p = ConfidenceParams(dim=2, noise_r=0.0, param_bound_s=1.0,
                         feature_bound_l=5.0, delta=0.05, lam=1.0)
    state = estimators.init_ridge(2, 1.0)
    estimators.ridge_update(state, np.array([1.0, 0.0]), 3.0)
    x = np.array([2.0, 1.0])
    rng = np.random.default_rng(0)
    theta = ts_draw(state, p, 5, [rng])
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
    vals = np.array([ts_draw(state, p, t, [draw_rng]) @ x for _ in range(10**5)])
    target_var = estimators.beta_t(p, t) ** 2 * inv_norm(state.precision, x) ** 2
    assert vals.var(ddof=1) == pytest.approx(target_var, rel=0.05)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - float(x @ state.theta_hat)) <= 3 * se


def test_ts_sample_shared_across_round():
    p = default_params(3)
    state = estimators.init_ridge(3, p.lam)
    theta = ts_draw(state, p, 4, [np.random.default_rng(11)])
    xs = np.random.default_rng(12).uniform(0.0, 10.0, (5, 3))
    scores = xs @ theta
    assert scores.shape == (5,)
    # the same draw reproduces under the same stream state
    theta2 = ts_draw(state, p, 4, [np.random.default_rng(11)])
    np.testing.assert_array_equal(theta, theta2)


# ---------------------------------------------------------------------------
# Gaussian process


def _fresh_round(gp, xs):
    """Condition gp's next round on xs (rounds, m, dim) in a window opened
    afresh, whatever window gp holds, and return the window."""
    gp.window = None
    estimators.gp_round(gp, xs)
    return gp.window


def _observe(gp, x, y):
    """Append x in a round no window holds, as a round-robin round does:
    gp_update conditions on x alone."""
    gp.window = None
    estimators.gp_update(gp, x[None], 0, y)


def _posterior(gp, xs):
    """Posterior means and standard deviations at the rows of xs."""
    v = _fresh_round(gp, xs[None]).v[0]
    stds = np.sqrt(np.maximum(gp.signal_var - np.sum(v**2, axis=0), 0.0))
    return v.T @ gp.white[: gp.n_obs], stds


def _gp_policy_rounds(name, noise_r, rounds, n_agents=5, dim=2, seed=42, block=23):
    """Run a GP policy as the simulator does, on uniform contexts drawn a
    block of rounds ahead and y = |x/10|^2, as a batch of one run: round
    robin for the first n_agents rounds and select_agent after, which
    conditions windows of the rest of each block in the state, then
    observe; yields the state after each round."""
    kind = PolicyKind(name)
    params = ConfidenceParams.defaults(dim, noise_r=noise_r)
    spec = GoodnessSpec("weighted-gini", rho=0.85)
    totals = np.zeros((1, n_agents))
    gp = policies.make_estimator(kind, params, rounds)
    groups = policies.row_groups((kind,))
    rng = np.random.default_rng(seed)
    for t in range(1, rounds + 1):
        j = (t - 1) % block
        if j == 0:
            contexts = rng.uniform(0.0, 10.0, (min(block, rounds - t + 1), 1, n_agents, dim))
        if t <= n_agents:
            picks = np.array([t - 1])
        else:
            picks = policies.select_agent(groups, [gp], spec, totals, t, contexts[j:], params,
                                          [rng])
        agent = picks[0]
        y = float(np.sum((contexts[j, 0, agent] / 10.0) ** 2))
        totals[0, agent] += y
        policies.observe([gp], picks, contexts[j], np.array([y]))
        yield gp


def _one_round(gp, scaled):
    """v and the means of the conditioning on scaled (m, dim) as one round
    made it before windows: one kernel product over every stored input
    and one solve."""
    n = gp.n_obs
    k_cross = estimators._kernel_cross(gp, gp.inputs[:n], gp.sq_norms[:n], scaled,
                                       estimators._sq_norms(scaled))
    v = estimators.solve_triangular(gp, k_cross, np.empty(k_cross.shape), 0)
    return v, v.T @ gp.white[:n]


def test_gp_prior_point():
    gp = estimators.init_gp(2, noise_var=0.01, horizon=1)
    means, stds = _posterior(gp, np.array([[3.0, 4.0]]))
    assert means[0] == 0.0
    assert stds[0] == pytest.approx(1.0)


def test_gp_default_lengthscale_scales_with_dim():
    gp = estimators.init_gp(9, noise_var=0.01, horizon=1)
    assert gp.lengthscale == pytest.approx(0.2 * 3.0)


def test_gp_interpolates_with_tiny_noise():
    # raw feature units; FEATURE_HIGH scales them to 0.1, 0.4 and 0.9
    gp = estimators.init_gp(1, noise_var=1e-10, horizon=3)
    pts = np.array([1.0, 4.0, 9.0])
    ys = np.array([2.0, -1.0, 0.5])
    for z, y in zip(pts, ys):
        _observe(gp, np.array([z]), float(y))
    for z, y in zip(pts, ys):
        means, stds = _posterior(gp, np.array([[z]]))
        assert means[0] == pytest.approx(y, abs=1e-3)
        assert stds[0] < 1e-3


def test_gp_fits_square_function_on_grid():
    # raw feature units in (0, 10); 10*z^2 on the unit box is x^2/10
    gp = estimators.init_gp(1, noise_var=1e-6, horizon=20)
    grid = np.linspace(0.25, 9.75, 20)
    for x in grid:
        _observe(gp, np.array([x]), float(0.1 * x * x))
    held_out = np.linspace(0.5, 9.5, 50)
    means, _ = _posterior(gp, held_out[:, None])
    assert np.abs(means - 0.1 * held_out**2).max() < 0.5


def test_gp_posterior_variance_nonnegative_and_shrinking():
    rng = np.random.default_rng(30)
    gp = estimators.init_gp(2, noise_var=0.01, horizon=50)
    q = np.array([[5.0, 5.0]])
    _, before = _posterior(gp, q)
    for _ in range(50):
        x = rng.uniform(0.0, 10.0, 2)
        _observe(gp, x, float(x.sum() / 10.0))
    _, after = _posterior(gp, q)
    assert 0.0 <= after[0] <= before[0]


def test_gp_info_gain_matches_gram_log_det():
    rng = np.random.default_rng(17)
    gp = estimators.init_gp(2, noise_var=0.01, horizon=200)
    xs = rng.uniform(0.0, 10.0, (200, 2))
    for x in xs:
        _observe(gp, x, float(x.sum() / 10.0 + rng.normal(0.0, 0.1)))
    scaled = gp.inputs[: gp.n_obs]
    sq_norms = estimators._sq_norms(scaled)
    gram = estimators._kernel_cross(gp, scaled, sq_norms, scaled, sq_norms)
    direct = 0.5 * np.linalg.slogdet(np.eye(200) + gram / gp.noise_var)[1]
    assert gp.info_gain <= direct + 1e-6
    assert gp.info_gain == pytest.approx(direct, abs=1e-9)


def test_gp_posterior_order_invariant():
    rng = np.random.default_rng(31)
    xs = rng.uniform(0.0, 10.0, (120, 2))
    ys = xs.sum(axis=1) / 10.0
    a = estimators.init_gp(2, noise_var=0.01, horizon=120)
    b = estimators.init_gp(2, noise_var=0.01, horizon=120)
    order = rng.permutation(120)
    for i in range(120):
        _observe(a, xs[i], float(ys[i]))
        _observe(b, xs[order[i]], float(ys[order[i]]))
    queries = rng.uniform(0.0, 10.0, (20, 2))
    ma, sa = _posterior(a, queries)
    mb, sb = _posterior(b, queries)
    np.testing.assert_allclose(ma, mb, atol=1e-8)
    np.testing.assert_allclose(sa, sb, atol=1e-8)


def _grown_gp(noise_var, n=200, horizon=None):
    """A GP after n observations appended through gp_update, on uniform
    inputs with y = |x/10|^2; its buffers hold horizon observations, n by
    default."""
    rng = np.random.default_rng(40)
    gp = estimators.init_gp(2, noise_var=noise_var, horizon=horizon or n)
    for _ in range(n):
        x = rng.uniform(0.0, 10.0, 2)
        _observe(gp, x, float(np.sum((x / 10.0) ** 2)))
    return gp


@pytest.mark.parametrize("n0", [1, 31, 32, 33, 64, 65, 200, 400])
@pytest.mark.parametrize("noise_var", [0.01, 1e-10], ids=["noisy", "noiseless"])
def test_gp_window_equals_one_round_conditioning(noise_var, n0):
    # 80 rounds from n0 observations, on item blocks of 23 rounds: each
    # window ends at its item block's end, at its factor block's end or
    # where GP_WINDOW_BYTES cuts it, and rounds at n = 32q + 1 have a
    # one-row open block
    rng = np.random.default_rng(50 + n0)
    rounds, block = 80, 23
    gp = _grown_gp(noise_var, n0, horizon=n0 + rounds)
    p = default_params(2)
    contexts = rng.uniform(0.0, 10.0, (rounds, 6, 2))
    cuts = set()
    for i in range(rounds):
        rest = contexts[i : i - i % block + block]
        kept = gp.window
        estimators.gp_round(gp, rest)
        window = gp.window
        if window is not kept:
            # what cut the window: the item block, the factor block or the bytes
            caps = {"item": len(rest),
                    "factor": estimators.GP_BLOCK - window.n0 % estimators.GP_BLOCK}
            cuts.add(next((cut for cut, cap in caps.items() if len(window.v) == cap), "bytes"))
        n = gp.n_obs
        w = n - window.n0
        v, means = _one_round(gp, window.scaled[w])
        assert np.array_equal(window.scaled[w], contexts[i] / gp.feature_scale)
        assert np.array_equal(window.v[w, :n], v), n
        stds = np.sqrt(np.maximum(gp.signal_var - np.sum(v**2, axis=0), 0.0))
        scores = means + estimators.gp_width_multiplier(gp, p) * stds
        assert np.array_equal(estimators.gp_ucb_scores(gp, p, rest), scores), n
        estimators.gp_update(gp, contexts[i], rng.integers(6), float(rng.uniform()))
    # windows end at their item block's end and at their factor block's, and
    # from 400 observations the byte bound cuts them short of both too (at
    # 200 the factor block cuts first)
    assert {"item", "factor"} <= cuts
    assert "bytes" in cuts or n0 < 400


def _assert_matches_fresh_algebra(gp, tol_chol, tol_white, rel_gain):
    """The incremental factor, whitened targets and information gain
    against a fresh Cholesky of the Gram matrix, a solve and slogdet. The
    runs fed y = |x/10|^2, the squared norm of each stored scaled input."""
    n = gp.n_obs
    scaled = gp.inputs[:n]
    sq_norms = estimators._sq_norms(scaled)
    gram = estimators._kernel_cross(gp, scaled, sq_norms, scaled, sq_norms)
    lower = np.linalg.cholesky(gram + gp.noise_var * np.eye(n))
    np.testing.assert_allclose(gp.chol[:n, :n], lower, rtol=0.0, atol=tol_chol)
    white = np.linalg.solve(lower, np.sum(scaled**2, axis=1))
    np.testing.assert_allclose(gp.white[:n], white, rtol=0.0, atol=tol_white)
    sign, log_det = np.linalg.slogdet(np.eye(n) + gram / gp.noise_var)
    assert sign > 0
    assert gp.info_gain == pytest.approx(0.5 * log_det, rel=rel_gain)


@pytest.mark.parametrize("noise_var, tol_chol, tol_white, rel_gain", [
    (0.01, 1e-12, 1e-11, 1e-12),
    # noiseless floor: the Gram matrix is near-singular, so a fresh
    # factorization is itself only this close
    (1e-10, 1e-6, 1e-4, 1e-6),
], ids=["noisy", "noiseless"])
def test_gp_incremental_factor_matches_fresh_algebra(noise_var, tol_chol, tol_white, rel_gain):
    gp = _grown_gp(noise_var, 600)
    _assert_matches_fresh_algebra(gp, tol_chol, tol_white, rel_gain)


@pytest.mark.parametrize("name", ["gp-ucb", "gp-ts"])
@pytest.mark.parametrize("noise_r, tol_chol, tol_white, rel_gain", [
    (0.1, 1e-12, 1e-11, 1e-12),
    # noise_r 0 takes the noiseless floor noise_var 1e-10, where a fresh
    # factorization is itself only this close
    (0.0, 1e-6, 1e-4, 1e-6),
], ids=["noisy", "noiseless"])
def test_gp_factor_from_reused_columns_matches_fresh_algebra(
    name, noise_r, tol_chol, tol_white, rel_gain
):
    # scored rounds append the column the selection step solved for all
    # contexts, not a fresh solve for the chosen one
    *_, gp = _gp_policy_rounds(name, noise_r, 600)
    assert gp.n_obs == 600
    _assert_matches_fresh_algebra(gp, tol_chol, tol_white, rel_gain)


# Tolerances sit a decade above what these inputs measure: relative error
# 1.6e-14 noisy and 1.0e-9 noiseless (scipy's own substitution is 1.6e-10
# off an extended-precision one there), residuals 4.4e-16 and 3.0e-14,
# block-inverse rows 3.1e-16 and 1.8e-14.
@pytest.mark.parametrize("noise_var, rel_x, residual, rel_inv", [
    (0.01, 2e-13, 5e-15, 4e-15),
    (1e-10, 2e-8, 3e-13, 2e-13),
], ids=["noisy", "noiseless"])
def test_solve_triangular_matches_scipy(noise_var, rel_x, residual, rel_inv):
    from scipy import linalg as sp

    gp = _grown_gp(noise_var)
    # the kernel columns of fresh contexts, as gp_round solves for them
    xs = np.random.default_rng(41).uniform(0.0, 10.0, (6, 2)) / gp.feature_scale
    k_cross = estimators._kernel_cross(gp, gp.inputs, gp.sq_norms, xs, estimators._sq_norms(xs))
    # within a block, at its edges, across two and three blocks, and over seven
    for n in (1, 31, 32, 33, 64, 65, 200):
        lower, b = gp.chol[:n, :n], k_cross[:n]
        got = estimators.solve_triangular(gp, b, np.empty(b.shape), 0)
        want = sp.solve_triangular(lower, b, lower=True)
        assert np.linalg.norm(got - want) <= rel_x * np.linalg.norm(want), n
        assert np.max(np.abs(lower @ got - b)) <= residual, n
    for k0 in range(0, 200, estimators.GP_BLOCK):
        k1 = min(k0 + estimators.GP_BLOCK, 200)
        want = np.linalg.inv(gp.chol[k0:k1, k0:k1])
        np.testing.assert_allclose(gp.block_inv[k0:k1, : k1 - k0], want, rtol=0.0,
                                   atol=rel_inv * np.max(np.abs(want)), err_msg=str(k0))


def test_solve_triangular_reads_the_factor_in_place():
    # an identity factor, L^-1 b = b; the result and the solve's one block
    # remainder take 2 * 8 n m bytes at most, where a copy of the factor
    # would take 8 n^2, 100 times that
    n, m = 2000, 10
    gp = estimators.init_gp(2, noise_var=0.01, horizon=n)
    gp.chol[:] = np.eye(n)
    gp.block_inv[np.arange(n), np.arange(n) % estimators.GP_BLOCK] = 1.0
    gp.n_obs = n
    b = np.random.default_rng(18).standard_normal((n, m))
    tracemalloc.start()
    try:
        got = estimators.solve_triangular(gp, b, np.empty(b.shape), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, b)
    assert peak < 2 * 8 * n * m


def test_solve_triangular_with_no_observations_has_no_rows():
    gp = estimators.init_gp(2, noise_var=0.01, horizon=12)
    assert estimators.solve_triangular(gp, np.ones((0, 4)), np.empty((0, 4)), 0).shape == (0, 4)


def test_gp_update_rejects_a_lost_pivot_and_leaves_the_state():
    from ofdsim.linalg import NumericError

    gp = estimators.init_gp(2, noise_var=0.01, horizon=5)
    for x in ([1.0, 2.0], [5.0, 5.0], [9.0, 3.0]):
        _observe(gp, np.array(x), 0.5)
    before = {name: np.copy(getattr(gp, name))
              for name in ("inputs", "sq_norms", "chol", "block_inv", "white", "info_gain")}
    # |column|^2 == signal_var + noise_var leaves the pivot no positive square,
    # in a one-round window of one query row
    column = np.full(3, math.sqrt((gp.signal_var + gp.noise_var) / 3))
    gp.window = estimators.GpWindow(np.full((1, 1, 2), 0.3), np.full((1, 1), 0.18),
                                    column[None, :, None], 3)
    with pytest.raises(NumericError, match="at 4 observations"):
        estimators.gp_update(gp, np.full((1, 2), 3.0), 0, 1.0)
    assert gp.n_obs == 3
    for name, value in before.items():
        np.testing.assert_array_equal(getattr(gp, name), value, err_msg=name)


def test_gp_solves_each_rounds_columns_once(monkeypatch):
    # a round's v has one row per observation. Windows solve the settled
    # blocks' rows for all their rounds, while each round solves its open
    # block: every row of every round is solved once, with the bits of one
    # kernel product and one solve over all its rows
    solve, round_ = estimators.solve_triangular, estimators.gp_round
    rows, same = [0], []

    def counting(state, b, x, lo):
        rows[0] += b[..., 0].size
        return solve(state, b, x, lo)

    def checking(state, xs):
        round_(state, xs)
        solved, n, window = rows[0], state.n_obs, state.window
        w = n - window.n0
        v, _ = _one_round(state, window.scaled[w])
        rows[0] = solved
        same.append(np.array_equal(window.v[w, :n], v))

    monkeypatch.setattr(estimators, "solve_triangular", counting)
    monkeypatch.setattr(estimators, "gp_round", checking)
    for name in ("gp-ucb", "gp-ts"):
        # of 130 rounds, the first 5 are round-robin and the rest are scored
        for gp in _gp_policy_rounds(name, 0.1, 130):
            pass
        assert rows[0] == sum(range(130)), name
        assert same == [True] * 130, name
        rows[0], same = 0, []
        assert gp.n_obs == 130
        # the buffers hold the horizon's observations, and the squared norms
        # gp_update takes from the window are the ones the block of stored
        # inputs gives
        assert gp.inputs.shape[0] == gp.chol.shape[0] == 130
        np.testing.assert_array_equal(gp.sq_norms[:130], np.sum(gp.inputs[:130] ** 2, axis=1))


def test_a_gp_window_opens_after_the_spent_one_is_dropped(monkeypatch):
    # each time gp_round allocates a window's v, no earlier window's v is
    # referenced: a run holds one window, never two
    gp = estimators.init_gp(2, noise_var=0.01, horizon=40)
    # 4 blocks of 10 rounds drawn ahead, 5 query rows each: one window each,
    # but rounds 30-39 split where the factor's first block ends, at 32
    blocks = np.random.default_rng(5).uniform(0.0, 10.0, (4, 10, 5, 2))
    refs, alive = [], []
    empty = np.empty

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return empty(*args, **kwargs)

    monkeypatch.setattr(estimators.np, "empty", tracked)
    for xs in blocks:
        for j in range(10):
            estimators.gp_round(gp, xs[j:])
            if not refs or refs[-1]() is not gp.window.v:
                refs.append(weakref.ref(gp.window.v))
            estimators.gp_update(gp, xs[j], j % 5, float(j))
    monkeypatch.undo()
    assert len(refs) == len(alive) == 5
    assert alive == [0, 0, 0, 0, 0]


def test_no_gp_window_spans_a_factor_block_boundary():
    # a window ends where the factor's open 32-row block does, so no block
    # completes within it; 130 rounds on item blocks of 23 cross four
    gp = estimators.init_gp(2, noise_var=0.01, horizon=130)
    contexts = np.random.default_rng(8).uniform(0.0, 10.0, (130, 5, 2))
    windows = []
    for i in range(130):
        estimators.gp_round(gp, contexts[i : i - i % 23 + 23])
        if not windows or windows[-1] is not gp.window:
            windows.append(gp.window)
        estimators.gp_update(gp, contexts[i], i % 5, float(i % 3))
    spans = [(window.n0, window.n0 + len(window.v) - 1) for window in windows]
    assert all(first // 32 == last // 32 for first, last in spans), spans
    assert spans[-1][1] == 129 and len(spans) > 8


def test_a_gp_window_opens_in_two_arrays_of_its_size():
    # the kernel's cross product is taken in the new v, so opening a window
    # allocates v and the kernel, and no third array of their size; the
    # solve's temporaries take three (9, 32, 10) arrays
    gp = estimators.init_gp(2, noise_var=0.01, horizon=340)
    rng = np.random.default_rng(6)
    for k in range(320):
        _observe(gp, rng.uniform(0.0, 10.0, 2), float(k % 3))
    gp.window = None
    xs = rng.uniform(0.0, 10.0, (9, 10, 2))
    tracemalloc.start()
    try:
        estimators.gp_round(gp, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window = gp.window
    assert window.v.shape == (9, 328, 10)
    assert peak < 2.75 * window.v.nbytes
    v, _ = _one_round(gp, window.scaled[0])
    assert np.array_equal(window.v[0, :320], v)


def test_gp_width_multiplier_grows_with_info_gain():
    p = default_params(2)
    gp = estimators.init_gp(2, noise_var=0.01, horizon=30)
    w0 = estimators.gp_width_multiplier(gp, p)
    assert w0 == pytest.approx(math.sqrt(2.0 * (1.0 + math.log(1 / 0.05))) + 1.0)
    rng = np.random.default_rng(33)
    for _ in range(30):
        x = rng.uniform(0.0, 10.0, 2)
        _observe(gp, x, float(x.sum()))
    assert estimators.gp_width_multiplier(gp, p) > w0


def test_gp_ucb_scores_match_scalar_and_dominate_mean():
    p = default_params(2)
    rng = np.random.default_rng(34)
    gp = estimators.init_gp(2, noise_var=0.01, horizon=25)
    for _ in range(25):
        x = rng.uniform(0.0, 10.0, 2)
        _observe(gp, x, float(x.prod() / 20.0))
    xs = rng.uniform(0.0, 10.0, (6, 2))
    _fresh_round(gp, xs[None])
    batch = estimators.gp_ucb_scores(gp, p, xs[None])
    singles = []
    for x in xs:
        _fresh_round(gp, x[None, None])
        singles.append(estimators.gp_ucb_scores(gp, p, x[None, None])[0])
    np.testing.assert_allclose(batch, singles, rtol=1e-10)
    means, _ = _posterior(gp, xs)
    assert np.all(batch >= means)


def test_gp_ts_scores_reproducible_and_shaped():
    p = default_params(2)
    rng = np.random.default_rng(35)
    gp = estimators.init_gp(2, noise_var=0.01, horizon=15)
    for _ in range(15):
        x = rng.uniform(0.0, 10.0, 2)
        _observe(gp, x, float(x.sum() / 5.0))
    xs = rng.uniform(0.0, 10.0, (4, 2))
    _fresh_round(gp, xs[None])
    a = estimators.gp_ts_scores(gp, p, xs[None], np.random.default_rng(77))
    b = estimators.gp_ts_scores(gp, p, xs[None], np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4,)
    # dispersion grows with the width multiplier, so fresh draws differ
    c = estimators.gp_ts_scores(gp, p, xs[None], np.random.default_rng(78))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name", ["gp-ucb", "gp-ts"])
@pytest.mark.parametrize("n0", [25, 40])
def test_gp_scorers_condition_a_round_no_window_holds(name, n0):
    # after a round-robin round the state's window is spent; the scorer
    # conditions the next round itself, with the bits of gp_round followed
    # by the scores read from the window it opened
    p = default_params(2)
    rng = np.random.default_rng(36)
    gp = estimators.init_gp(2, noise_var=0.01, horizon=n0 + 3)
    for _ in range(n0):
        x = rng.uniform(0.0, 10.0, 2)
        _observe(gp, x, float(x.sum() / 10.0))
    xs = rng.uniform(0.0, 10.0, (3, 6, 2))
    ref = copy.deepcopy(gp)
    estimators.gp_round(ref, xs)
    n, window = ref.n_obs, ref.window
    v, white = window.v[0, :n], ref.white[:n]
    if name == "gp-ucb":
        stds = np.sqrt(np.maximum(ref.signal_var - np.sum(v**2, axis=0), 0.0))
        want = v.T @ white + estimators.gp_width_multiplier(ref, p) * stds
        got = estimators.gp_ucb_scores(gp, p, xs)
    else:
        scaled, sq_norms = window.scaled[0], window.sq_norms[0]
        cov = estimators._kernel_cross(ref, scaled, sq_norms, scaled, sq_norms) - v.T @ v
        lower = np.linalg.cholesky(cov + 1e-10 * ref.signal_var * np.eye(6))
        draw = lower @ np.random.default_rng(79).standard_normal(6)
        want = v.T @ white + estimators.gp_width_multiplier(ref, p) * draw
        got = estimators.gp_ts_scores(gp, p, xs, np.random.default_rng(79))
    assert np.array_equal(got, want)
    assert np.array_equal(gp.window.v[0, :n], v)


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
            if gap > estimators.alpha_t(p, t) * inv_norm(state.precision, x):
                good = False
                break
            estimators.ridge_update(state, x, float(x @ theta + rng.normal(0.0, p.noise_r)))
        held += good
    assert held >= 95
