"""Agent selection: warm start, goodness argmax, exploration paths."""

import numpy as np
import pytest

from ofdsim import estimators, policies
from ofdsim.estimators import ConfidenceParams
from ofdsim.goodness import GoodnessSpec
from ofdsim.policies import PolicyKind


def make_setup(n=4, dim=3, rho=0.85):
    spec = GoodnessSpec("weighted-gini", rho=rho)
    params = ConfidenceParams.defaults(dim)
    ledger = policies.init_ledger(n)
    contexts = np.random.default_rng(0).uniform(0.0, 10.0, (n, dim))
    return spec, params, ledger, contexts


class TestPolicyKind:
    def test_known_names(self):
        for name in policies.POLICY_NAMES:
            kind = PolicyKind(name)
            assert kind.uses_ridge or kind.uses_gp or name == "uniform"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            PolicyKind("optimal")

    def test_epsilon_bounds(self):
        PolicyKind("greedy", epsilon=0.0)
        PolicyKind("greedy", epsilon=1.0)
        with pytest.raises(ValueError):
            PolicyKind("greedy", epsilon=1.5)


def test_init_ledger():
    ledger = policies.init_ledger(3)
    np.testing.assert_array_equal(ledger.totals, np.zeros(3))
    np.testing.assert_array_equal(ledger.counts, np.zeros(3, dtype=np.int64))
    assert ledger.round == 1


def test_make_estimator_dispatch():
    params = ConfidenceParams.defaults(4)
    assert isinstance(policies.make_estimator(PolicyKind("ucb"), params), estimators.RidgeState)
    assert isinstance(policies.make_estimator(PolicyKind("ts"), params), estimators.RidgeState)
    assert isinstance(policies.make_estimator(PolicyKind("gp-ucb"), params), estimators.GpState)
    assert policies.make_estimator(PolicyKind("uniform"), params) is None


def test_gp_estimator_noise_floor():
    params = ConfidenceParams.defaults(4, noise_r=0.0)
    gp = policies.make_estimator(PolicyKind("gp-ts"), params)
    assert gp.noise_var == pytest.approx(1e-10)


def test_round_robin_first_n_rounds():
    spec, params, ledger, contexts = make_setup(n=4)
    est = policies.make_estimator(PolicyKind("ucb"), params)
    rng = np.random.default_rng(1)
    for expected in range(4):
        decision = policies.select_agent(
            PolicyKind("ucb"), spec, ledger, contexts, est, params, rng
        )
        assert decision.agent == expected
        assert decision.was_round_robin
        assert decision.per_agent_scores is None and decision.per_agent_goodness is None
        policies.observe(PolicyKind("ucb"), est, contexts[decision.agent], 1.0, ledger, decision.agent)
    decision = policies.select_agent(PolicyKind("ucb"), spec, ledger, contexts, est, params, rng)
    assert not decision.was_round_robin
    assert decision.per_agent_scores.shape == decision.per_agent_goodness.shape == (4,)


def test_round_robin_applies_to_every_policy():
    for name in policies.POLICY_NAMES:
        spec, params, ledger, contexts = make_setup(n=3)
        est = policies.make_estimator(PolicyKind(name), params)
        decision = policies.select_agent(
            PolicyKind(name), spec, ledger, contexts, est, params, np.random.default_rng(2)
        )
        assert decision.agent == 0
        assert decision.was_round_robin


def test_min_weights_pick_lowest_total_on_equal_scores():
    # identical contexts force identical scores; the min-utility agent
    # is the only candidate that raises the min
    spec = GoodnessSpec("weighted-gini", weights=np.array([1.0, 0.0, 0.0]))
    params = ConfidenceParams.defaults(2)
    ledger = policies.init_ledger(3)
    ledger.totals[:] = (5.0, 1.0, 3.0)
    ledger.counts[:] = 1
    ledger.round = 4
    contexts = np.ones((3, 2))
    est = policies.make_estimator(PolicyKind("ucb"), params)
    decision = policies.select_agent(
        PolicyKind("ucb"), spec, ledger, contexts, est, params, np.random.default_rng(3)
    )
    assert decision.agent == 1
    assert decision.per_agent_goodness[1] == decision.per_agent_goodness.max()


def test_usw_picks_largest_score_on_equal_totals():
    spec = GoodnessSpec("weighted-gini", rho=1.0)
    params = ConfidenceParams.defaults(2, noise_r=0.0)
    ledger = policies.init_ledger(3)
    ledger.totals[:] = 2.0
    ledger.counts[:] = 1
    ledger.round = 4
    est = estimators.init_ridge(2, params.lam)
    estimators.ridge_update(est, np.array([1.0, 0.0]), 5.0)
    # alpha = sqrt(lam)*S is constant across agents at equal widths, so
    # the ranking follows the mean scores
    contexts = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
    decision = policies.select_agent(
        PolicyKind("ucb"), spec, ledger, contexts, est, params, np.random.default_rng(4)
    )
    assert decision.agent == 1


def test_uniform_frequencies():
    spec, params, ledger, contexts = make_setup(n=10, dim=4)
    ledger.round = 11
    rng = np.random.default_rng(3)
    counts = np.zeros(10)
    for _ in range(10**5):
        decision = policies.select_agent(
            PolicyKind("uniform"), spec, ledger, contexts, None, params, rng
        )
        counts[decision.agent] += 1
    np.testing.assert_allclose(counts / 10**5, np.full(10, 0.1), atol=0.01)


def test_greedy_exploration_coin():
    spec, params, ledger, contexts = make_setup(n=5, dim=3)
    ledger.totals[:] = 1.0
    ledger.round = 6
    est = estimators.init_ridge(3, params.lam)
    rng = np.random.default_rng(5)
    kind = PolicyKind("greedy", epsilon=1.0)  # always explores
    hits = np.zeros(5)
    for _ in range(2000):
        decision = policies.select_agent(kind, spec, ledger, contexts, est, params, rng)
        assert decision.was_exploration and decision.per_agent_scores is None
        hits[decision.agent] += 1
    assert hits.min() > 0  # exploration may land on any agent


def test_observe_updates_ledger_and_estimator():
    params = ConfidenceParams.defaults(2)
    ledger = policies.init_ledger(2)
    est = estimators.init_ridge(2, params.lam)
    policies.observe(PolicyKind("ucb"), est, np.array([1.0, 2.0]), 3.0, ledger, 1)
    np.testing.assert_array_equal(ledger.totals, [0.0, 3.0])
    np.testing.assert_array_equal(ledger.counts, [0, 1])
    assert ledger.round == 2
    assert est.n_obs == 1


def test_observe_uniform_skips_estimator():
    params = ConfidenceParams.defaults(2)
    ledger = policies.init_ledger(2)
    est, out_ledger = policies.observe(
        PolicyKind("uniform"), None, np.array([1.0, 1.0]), 2.0, ledger, 0
    )
    assert est is None
    assert out_ledger.totals[0] == 2.0


def test_observe_counts_invariant():
    params = ConfidenceParams.defaults(2)
    spec = GoodnessSpec("weighted-gini", rho=0.9)
    ledger = policies.init_ledger(3)
    est = policies.make_estimator(PolicyKind("ucb"), params)
    rng = np.random.default_rng(6)
    contexts = rng.uniform(0.0, 10.0, (3, 2))
    for t in range(1, 41):
        decision = policies.select_agent(
            PolicyKind("ucb"), spec, ledger, contexts, est, params, rng
        )
        policies.observe(
            PolicyKind("ucb"), est, contexts[decision.agent], float(rng.uniform(0.1, 2.0)),
            ledger, decision.agent,
        )
        assert ledger.counts.sum() == t
        assert ledger.round == t + 1


def test_observe_rejects_bad_agent():
    ledger = policies.init_ledger(2)
    with pytest.raises(ValueError):
        policies.observe(PolicyKind("uniform"), None, np.ones(2), 1.0, ledger, 2)


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
        ledger = policies.init_ledger(n)
        est = policies.make_estimator(kind, params)
        rng = np.random.default_rng(8)
        sequence = []
        for t in range(rounds):
            decision = policies.select_agent(kind, spec, ledger, items[t], est, params, rng)
            a = decision.agent
            policies.observe(kind, est, items[t][a], float(truths[t][a]), ledger, a)
            sequence.append(a)
        return sequence

    assert run(PolicyKind("greedy", epsilon=0.0)) == run(PolicyKind("ucb"))


def test_scores_clamped_before_goodness():
    # a hand-built estimator with a negative prediction must not lower
    # the candidate goodness below the no-allocation baseline
    spec = GoodnessSpec("weighted-gini", rho=1.0)
    params = ConfidenceParams.defaults(2, noise_r=0.0)
    ledger = policies.init_ledger(2)
    ledger.totals[:] = (4.0, 2.0)
    ledger.round = 3
    est = estimators.init_ridge(2, params.lam)
    estimators.ridge_update(est, np.array([1.0, 0.0]), -5.0)
    contexts = np.array([[1.0, 0.0], [1.0, 0.0]])
    decision = policies.select_agent(
        PolicyKind("greedy", epsilon=0.0), spec, ledger, contexts, est, params,
        np.random.default_rng(9),
    )
    assert np.all(decision.per_agent_goodness >= 6.0 - 1e-12)


def test_select_agent_rejects_bad_contexts():
    spec, params, ledger, _ = make_setup()
    with pytest.raises(ValueError):
        policies.select_agent(
            PolicyKind("ucb"), spec, ledger, np.ones(3), None, params, np.random.default_rng(0)
        )
