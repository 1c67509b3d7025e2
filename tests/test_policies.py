"""Agent selection: warm start, goodness argmax, exploration paths,
estimator updates. The simulator makes the warm-start picks itself."""

import numpy as np
import pytest

from ofdsim import estimators, goodness, linalg, policies
from ofdsim.estimators import ConfidenceParams
from ofdsim.goodness import GoodnessSpec
from ofdsim.policies import PolicyKind
from ofdsim.simulator import RunConfig, run_single


def select_one(kind, spec, totals, t, contexts, est, params, rng):
    """select_agent for a batch of one run and a block of one round, whose
    estimator est is a stacked ridge state, a list of one GP state, or
    None."""
    return policies.select_agent(policies.row_groups((kind,), est), spec, totals[None], t,
                                 contexts[None, None], params, [rng])


def make_setup(n=4, dim=3, rho=0.85):
    spec = GoodnessSpec("weighted-gini", rho=rho)
    params = ConfidenceParams.defaults(dim)
    totals = np.zeros(n)
    contexts = np.random.default_rng(0).uniform(0.0, 10.0, (n, dim))
    return spec, params, totals, contexts


class TestPolicyKind:
    def test_known_names(self):
        for name in policies.POLICY_NAMES:
            kind = PolicyKind(name)
            assert kind.uses_ridge or kind.uses_gp or name == "uniform"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            PolicyKind("optimal")

    def test_each_broken_field_gets_a_line(self):
        with pytest.raises(ValueError) as exc_info:
            PolicyKind("optimal", epsilon=1.5)
        lines = str(exc_info.value).splitlines()
        assert len(lines) == 2
        assert "'optimal'" in lines[0] and lines[1].startswith("epsilon")

    def test_epsilon_bounds(self):
        PolicyKind("greedy", epsilon=0.0)
        PolicyKind("greedy", epsilon=1.0)
        with pytest.raises(ValueError):
            PolicyKind("greedy", epsilon=1.5)


def test_make_estimator_dispatch():
    params = ConfidenceParams.defaults(4)
    assert isinstance(policies.make_estimator(PolicyKind("ucb"), params, 10), estimators.RidgeState)
    assert isinstance(policies.make_estimator(PolicyKind("ts"), params, 10), estimators.RidgeState)
    assert isinstance(policies.make_estimator(PolicyKind("gp-ucb"), params, 10), estimators.GpState)
    assert policies.make_estimator(PolicyKind("uniform"), params, 10) is None


def test_gp_estimator_noise_floor():
    params = ConfidenceParams.defaults(4, noise_r=0.0)
    gp = policies.make_estimator(PolicyKind("gp-ts"), params, 10)
    assert gp.noise_var == pytest.approx(1e-10)


def test_round_robin_first_n_rounds():
    n = 4
    trace = run_single(
        RunConfig(
            horizon=12,
            seed=1,
            policy=PolicyKind("gp-ucb"),
            goodness=GoodnessSpec("weighted-gini", rho=0.85),
            n_agents=n,
            item_dim=2,
            agent_dim=1,
        )
    )
    np.testing.assert_array_equal(trace.chosen[:n], np.arange(n))
    # a warm-start round scores no agent, yet observe still conditions
    # the GP on the chosen agent's context
    params = ConfidenceParams.defaults(3)
    est = policies.make_estimator(PolicyKind("gp-ucb"), params, 10)
    contexts = np.random.default_rng(1).uniform(0.0, 1.0, (n, 3))
    for agent in range(n):
        policies.observe([est], np.array([agent]), contexts[None], np.ones(1))
    assert est.n_obs == n
    np.testing.assert_allclose(est.inputs[:n], contexts / est.feature_scale)


def test_round_robin_applies_to_every_policy():
    for name in policies.POLICY_NAMES:
        trace = run_single(
            RunConfig(
                horizon=5,
                seed=2,
                policy=PolicyKind(name),
                goodness=GoodnessSpec("weighted-gini", rho=0.85),
                n_agents=3,
                item_dim=2,
                agent_dim=1,
            )
        )
        np.testing.assert_array_equal(trace.chosen[:3], np.arange(3), err_msg=name)


def test_min_weights_pick_lowest_total_on_equal_scores():
    # identical contexts force identical scores; the min-utility agent
    # is the only candidate that raises the min
    spec = GoodnessSpec("weighted-gini", weights=np.array([1.0, 0.0, 0.0]))
    params = ConfidenceParams.defaults(2)
    totals = np.array([5.0, 1.0, 3.0])
    contexts = np.ones((3, 2))
    est = policies.make_estimator(PolicyKind("ucb"), params, 10)
    picks = select_one(PolicyKind("ucb"), spec, totals, 4, contexts,
                       estimators.stack_ridge([est]), params, np.random.default_rng(3))
    assert picks[0] == 1
    adds = np.maximum(estimators.ucb_scores(est, params, 4, contexts), 0.0)
    values = goodness.candidate_scores(spec, totals, adds)
    assert values[1] == values.max() > values[0]


def test_usw_picks_largest_score_on_equal_totals():
    spec = GoodnessSpec("weighted-gini", rho=1.0)
    params = ConfidenceParams.defaults(2, noise_r=0.0)
    totals = np.full(3, 2.0)
    est = estimators.init_ridge(2, params.lam)
    estimators.ridge_update(est, np.array([1.0, 0.0]), 5.0)
    # alpha = sqrt(lam)*S is constant across agents at equal widths, so
    # the ranking follows the mean scores
    contexts = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
    picks = select_one(PolicyKind("ucb"), spec, totals, 4, contexts,
                       estimators.stack_ridge([est]), params, np.random.default_rng(4))
    assert picks[0] == 1


def test_uniform_frequencies():
    spec, params, totals, contexts = make_setup(n=10, dim=4)
    rng = np.random.default_rng(3)
    counts = np.zeros(10)
    for _ in range(10**5):
        picks = select_one(PolicyKind("uniform"), spec, totals, 11, contexts, None, params, rng)
        counts[picks[0]] += 1
    np.testing.assert_allclose(counts / 10**5, np.full(10, 0.1), atol=0.01)


def test_greedy_exploration_coin():
    spec, params, totals, contexts = make_setup(n=5, dim=3)
    totals[:] = 1.0
    est = estimators.stack_ridge([estimators.init_ridge(3, params.lam)])
    rng = np.random.default_rng(5)
    kind = PolicyKind("greedy", epsilon=1.0)  # always explores
    hits = np.zeros(5)
    for _ in range(2000):
        picks = select_one(kind, spec, totals, 6, contexts, est, params, rng)
        # an exploring round returns the picks of the batch of one run alone
        assert picks.shape == (1,) and picks.dtype.kind == "i"
        hits[picks[0]] += 1
    assert hits.min() > 0  # exploration may land on any agent


def test_observe_updates_estimator():
    params = ConfidenceParams.defaults(2)
    est = estimators.init_ridge(2, params.lam)
    stacked = estimators.stack_ridge([est])
    contexts = np.array([[5.0, 5.0], [1.0, 2.0]])
    policies.observe(stacked, np.array([1]), contexts[None], np.array([3.0]))
    # the run's own state holds views of its row of the stacked one
    np.testing.assert_array_equal(est.moment, 3.0 * contexts[1])
    assert np.any(est.theta_hat != 0.0)
    np.testing.assert_array_equal(est.theta_hat, est.precision.m_inv @ est.moment)


def test_observe_uniform_skips_estimator():
    # uniform has no estimator; observe must not touch the None it is given
    policies.observe(None, np.array([0]), np.ones((1, 2, 2)), np.array([2.0]))


def test_observe_counts_invariant():
    params = ConfidenceParams.defaults(2)
    spec = GoodnessSpec("weighted-gini", rho=0.9)
    totals = np.ones(3)
    est = estimators.stack_ridge([policies.make_estimator(PolicyKind("ucb"), params, 10)])
    rng = np.random.default_rng(6)
    contexts = rng.uniform(0.0, 10.0, (3, 2))
    moment = np.zeros(2)
    for t in range(4, 44):
        picks = select_one(PolicyKind("ucb"), spec, totals, t, contexts, est, params, rng)
        y = float(rng.uniform(0.1, 2.0))
        totals[picks[0]] += y
        policies.observe(est, picks, contexts[None], np.array([y]))
        # each observe folds exactly its one observation in
        moment += y * contexts[picks[0]]
        np.testing.assert_array_equal(est.moment[0], moment)


def test_greedy_zero_epsilon_equals_ucb_zero_alpha():
    # alpha_t == 0 when R = 0 and S = 0; same streams => same trajectory
    n, dim, rounds = 4, 3, 200
    params = ConfidenceParams(dim=dim, noise_r=0.0, param_bound_s=0.0,
                              feature_bound_l=10.0 * np.sqrt(dim), delta=0.05, lam=0.01)
    spec = GoodnessSpec("weighted-gini", rho=0.85)
    item_rng = np.random.default_rng(7)
    items = item_rng.uniform(0.0, 10.0, (rounds, n, dim))
    truths = items.sum(axis=2) / 10.0

    def run(kind):
        totals = np.zeros(n)
        est = estimators.stack_ridge([policies.make_estimator(kind, params, 10)])
        rng = np.random.default_rng(8)
        sequence = []
        for t in range(1, rounds + 1):
            if t <= n:
                picks = np.array([t - 1])
            else:
                picks = select_one(kind, spec, totals, t, items[t - 1], est, params, rng)
            a = int(picks[0])
            y = float(truths[t - 1][a])
            totals[a] += y
            policies.observe(est, picks, items[t - 1][None], np.array([y]))
            sequence.append(a)
        return sequence

    assert run(PolicyKind("greedy", epsilon=0.0)) == run(PolicyKind("ucb"))


def test_scores_clamped_before_goodness():
    # a hand-built estimator with a negative prediction must not lower
    # the candidate goodness below the no-allocation baseline
    spec = GoodnessSpec("weighted-gini", rho=1.0)
    params = ConfidenceParams.defaults(2, noise_r=0.0)
    totals = np.array([4.0, 2.0])
    est = estimators.init_ridge(2, params.lam)
    estimators.ridge_update(est, np.array([1.0, 0.0]), -5.0)
    contexts = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert np.all(contexts @ est.theta_hat < 0.0)
    # clamped, both candidates tie at the no-allocation goodness 6 and the
    # pick is a tie draw; unclamped, agent 1's lower score would lose always
    picks = {
        select_one(
            PolicyKind("greedy", epsilon=0.0), spec, totals, 3, contexts,
            estimators.stack_ridge([est]), params, np.random.default_rng(seed),
        )[0]
        for seed in range(20)
    }
    assert picks == {0, 1}


@pytest.mark.parametrize(
    "spec",
    [
        GoodnessSpec("weighted-gini", rho=0.85),
        GoodnessSpec("nsw"),
        GoodnessSpec("log-nsw"),
        GoodnessSpec("targeted", target_ratios=np.full(4, 0.25)),
    ],
    ids=["weighted-gini", "nsw", "log-nsw", "targeted"],
)
def test_select_agent_rejects_non_finite_goodness(spec):
    # a NaN estimate makes every candidate NaN; the argmax must not pick one
    _, params, totals, contexts = make_setup(n=4)
    totals[:] = 1.0
    est = estimators.init_ridge(3, params.lam)
    est.theta_hat[:] = np.nan
    with pytest.raises(linalg.NumericError, match="not finite"):
        select_one(PolicyKind("ucb"), spec, totals, 5, contexts, estimators.stack_ridge([est]),
                   params, np.random.default_rng(0))
