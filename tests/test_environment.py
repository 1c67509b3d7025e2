"""Instance generation, ground-truth utilities, observation noise and
the simulator's one-step oracle."""

import math

import numpy as np
import pytest

from ofdsim import environment, goodness, simulator
from ofdsim.environment import ProblemInstance
from ofdsim.estimators import ConfidenceParams
from ofdsim.goodness import GoodnessSpec
from ofdsim.policies import PolicyKind


def make_instance(theta, agent_features, kind="linear"):
    """An instance whose items take the dimensions of theta that the
    agent features leave."""
    return ProblemInstance(
        agent_features=np.asarray(agent_features, dtype=np.float64),
        theta_star=np.asarray(theta, dtype=np.float64),
        utility_kind=kind,
    )


def oracle(inst, spec, totals, contexts):
    """The simulator's oracle: argmax of the candidate goodness under the
    true utilities, ties to the lowest index."""
    truths = environment.true_utilities(inst, contexts)
    return int(np.argmax(goodness.candidate_scores(spec, np.asarray(totals), truths)))


def make_run(policy="uniform", noise_r=0.0, rho=0.85, n_agents=3, horizon=200, seed=21):
    return simulator.RunConfig(
        horizon=horizon, seed=seed, policy=PolicyKind(policy),
        goodness=GoodnessSpec("weighted-gini", rho=rho),
        n_agents=n_agents, item_dim=2, agent_dim=2,
        confidence=ConfidenceParams.defaults(4, noise_r=noise_r),
    )


def replay_truths(config):
    """True utilities of every round of run_single(config), (horizon,
    n_agents), rebuilt from its seed split (instance, items, noise,
    policy)."""
    streams = np.random.SeedSequence(config.seed).spawn(4)
    inst_rng, item_rng = np.random.default_rng(streams[0]), np.random.default_rng(streams[1])
    inst = environment.generate_instance(
        config.n_agents, config.item_dim, config.agent_dim, config.utility_kind, inst_rng
    )
    return np.stack([
        environment.true_utilities(inst, environment.draw_item(inst, item_rng, 1)[0])
        for _ in range(config.horizon)
    ])


def test_generate_instance_unit_norm_and_ranges():
    rng = np.random.default_rng(0)
    inst = environment.generate_instance(6, 3, 2, "linear", rng)
    assert np.linalg.norm(inst.theta_star) == pytest.approx(1.0, abs=1e-12)
    assert inst.agent_features.shape == (6, 2)
    assert np.all(inst.agent_features > 0.0) and np.all(inst.agent_features < 10.0)
    assert inst.theta_star.shape == (5,)


def test_generate_instance_deterministic():
    a = environment.generate_instance(4, 2, 2, "linear", np.random.default_rng(5))
    b = environment.generate_instance(4, 2, 2, "linear", np.random.default_rng(5))
    np.testing.assert_array_equal(a.theta_star, b.theta_star)
    np.testing.assert_array_equal(a.agent_features, b.agent_features)
    c = environment.generate_instance(4, 2, 2, "linear", np.random.default_rng(6))
    assert not np.array_equal(a.theta_star, c.theta_star)


def test_feature_coordinate_mean():
    rng = np.random.default_rng(1)
    draws = np.concatenate(
        [
            environment.generate_instance(50, 1, 4, "linear", rng).agent_features.ravel()
            for _ in range(500)
        ]
    )
    assert draws.size == 10**5
    assert draws.mean() == pytest.approx(5.0, abs=0.05)


def test_draw_item_concatenation_layout():
    inst = environment.generate_instance(5, 3, 2, "linear", np.random.default_rng(2))
    block = environment.draw_item(inst, np.random.default_rng(3), 4)
    # a block of rounds draws the items that one round at a time would
    rng = np.random.default_rng(3)
    assert block.shape == (4, 5, 5)
    for ctx in block:
        item = rng.uniform(0.0, 10.0, 3)
        for n in range(5):
            np.testing.assert_array_equal(ctx[n, :3], item)
            np.testing.assert_array_equal(ctx[n, 3:], inst.agent_features[n])


def test_identical_agents_get_identical_contexts():
    feats = np.array([[4.0, 4.0], [4.0, 4.0]])
    theta = np.array([1.0, 0.0, 0.0])
    theta /= np.linalg.norm(theta)
    inst = make_instance(theta, feats)
    ctx = environment.draw_item(inst, np.random.default_rng(4), 1)[0]
    np.testing.assert_array_equal(ctx[0], ctx[1])


def test_context_norm_box_bound():
    inst = environment.generate_instance(8, 2, 2, "linear", np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for _ in range(200):
        ctx = environment.draw_item(inst, rng, 1)[0]
        norms = np.linalg.norm(ctx, axis=1)
        assert np.all(norms <= 10.0 * math.sqrt(4))


def test_linear_utility_projection():
    inst = make_instance([1.0, 0.0], [[7.0]])
    assert environment.true_utilities(inst, np.array([[3.0, 7.0]]))[0] == pytest.approx(3.0)


def test_linear_utility_cauchy_schwarz_cap():
    inst = environment.generate_instance(4, 3, 3, "linear", np.random.default_rng(7))
    rng = np.random.default_rng(8)
    cap = 10.0 * math.sqrt(6)
    for _ in range(200):
        ctx = environment.draw_item(inst, rng, 1)[0]
        assert np.all(environment.true_utilities(inst, ctx) <= cap)


def test_square_utility_value_and_scaling():
    theta = np.array([1.0, 0.0])
    inst = make_instance(theta, [[5.0]], kind="square")
    # projection 4 => 4^2 / (10 sqrt(2))
    expected = 16.0 / (10.0 * math.sqrt(2.0))
    # doubling the projection (second row) quadruples the value
    values = environment.true_utilities(inst, np.array([[4.0, 5.0], [8.0, 5.0]]))
    np.testing.assert_allclose(values, [expected, 4.0 * expected], rtol=1e-12)


def test_square_utility_range():
    inst = environment.generate_instance(4, 2, 2, "square", np.random.default_rng(9))
    rng = np.random.default_rng(10)
    cap = 10.0 * math.sqrt(4)
    for _ in range(100):
        ctx = environment.draw_item(inst, rng, 1)[0]
        vals = environment.true_utilities(inst, ctx)
        assert np.all(vals > 0.0) and np.all(vals <= cap)


def test_sample_utility_noiseless():
    # with noise_r = 0 each realized utility is the chosen agent's true one
    cfg = make_run(noise_r=0.0)
    trace = simulator.run_single(cfg)
    truths = replay_truths(cfg)
    np.testing.assert_array_equal(trace.realized, truths[np.arange(cfg.horizon), trace.chosen])


def test_sample_utility_noise_moments():
    # uniform picks from the policy stream alone, so the same seed makes
    # the same picks at every noise level and realized differs by the noise
    horizon, r = 20_000, 0.5
    noisy = simulator.run_single(make_run(noise_r=r, n_agents=2, horizon=horizon, seed=12))
    clean = simulator.run_single(make_run(noise_r=0.0, n_agents=2, horizon=horizon, seed=12))
    np.testing.assert_array_equal(noisy.chosen, clean.chosen)
    draws = noisy.realized - clean.realized
    assert abs(draws.mean()) <= 3 * r / math.sqrt(horizon)
    assert draws.std(ddof=1) == pytest.approx(r, rel=0.02)


def test_oracle_usw_is_max_utility():
    # under USW the oracle column of a run is the agent of highest true
    # utility in every round
    cfg = make_run(policy="ucb", rho=1.0, n_agents=6, horizon=60, seed=13)
    trace = simulator.run_single(cfg)
    np.testing.assert_array_equal(trace.oracle, np.argmax(replay_truths(cfg), axis=1))


def test_oracle_min_weights_favors_min_agent():
    # agents share features so utilities tie; only the min-total agent
    # can raise the minimum
    feats = np.full((3, 2), 5.0)
    theta = np.full(4, 0.5)
    inst = make_instance(theta, feats)
    spec = GoodnessSpec("weighted-gini", weights=np.array([1.0, 0.0, 0.0]))
    ctx = environment.draw_item(inst, np.random.default_rng(14), 1)[0]
    assert oracle(inst, spec, [9.0, 2.0, 5.0], ctx) == 1


def test_oracle_single_agent():
    inst = environment.generate_instance(1, 2, 2, "linear", np.random.default_rng(15))
    ctx = environment.draw_item(inst, np.random.default_rng(16), 1)[0]
    spec = GoodnessSpec("weighted-gini", rho=0.85)
    assert oracle(inst, spec, [1.0], ctx) == 0
    trace = simulator.run_single(make_run(n_agents=1, horizon=20))
    assert np.all(trace.oracle == 0)


def test_oracle_breaks_ties_at_lowest_index():
    feats = np.full((4, 2), 3.0)
    theta = np.full(3, 1.0) / math.sqrt(3.0)
    inst = make_instance(theta, feats)
    spec = GoodnessSpec("weighted-gini", rho=1.0)
    ctx = environment.draw_item(inst, np.random.default_rng(17), 1)[0]
    # all candidates identical
    assert oracle(inst, spec, [2.0] * 4, ctx) == 0
