"""Runs stepped in lockstep by run_batch equal the same runs made alone,
bit for bit, and the stacked numpy forms the round loop relies on give
the bits of the per-run calls on this host."""

import dataclasses
import itertools

import numpy as np
import pytest

from ofdsim import environment, goodness, policies, simulator
from ofdsim.estimators import ConfidenceParams
from ofdsim.goodness import GoodnessSpec
from ofdsim.policies import PolicyKind
from ofdsim.simulator import RunConfig, RunTrace

N_AGENTS = 4
SPECS = {
    goodness.WEIGHTED_GINI: GoodnessSpec(goodness.WEIGHTED_GINI, rho=0.85),
    goodness.NSW: GoodnessSpec(goodness.NSW),
    goodness.LOG_NSW: GoodnessSpec(goodness.LOG_NSW),
    goodness.TARGETED: GoodnessSpec(goodness.TARGETED,
                                    target_ratios=np.array([0.1, 0.2, 0.3, 0.4])),
}


def batch(runs, policy="ucb", spec=SPECS[goodness.WEIGHTED_GINI], noise_r=0.1, **kw):
    """A config seeded 11 and the batch's seeds 11, 12, ...; policy is a
    name or a PolicyKind."""
    base = dict(horizon=60, n_agents=N_AGENTS, item_dim=2, agent_dim=2)
    base.update(kw)
    if isinstance(policy, str):
        policy = PolicyKind(policy)
    confidence = ConfidenceParams.defaults(base["item_dim"] + base["agent_dim"], noise_r=noise_r)
    config = RunConfig(seed=11, policy=policy, goodness=spec, confidence=confidence, **base)
    return config, list(range(11, 11 + runs))


# the ridge policies of an entry group, as the CLI batches them: each
# policy's runs on the same seeds, one policy after another
MIXED = (PolicyKind("ucb"), PolicyKind("ts"), PolicyKind("greedy", epsilon=0.1),
         PolicyKind("greedy", epsilon=0.5), PolicyKind("greedy", epsilon=1.0))


def mixed(seeds, kinds=MIXED):
    """The seeds and kinds of a batch of each kind's runs on seeds, in
    kind-then-seed order."""
    return [seed for _ in kinds for seed in seeds], [kind for kind in kinds for _ in seeds]


def mixed_batch(runs, **kw):
    """batch(runs, **kw) as a batch of every MIXED policy's runs."""
    config, seeds = batch(runs, **kw)
    return (config, *mixed(seeds))


def assert_batch_equals_singles(config, seeds, kinds=None):
    """Each run of run_batch(config, seeds, kinds) against its run alone,
    at its seed and policy."""
    traces = simulator.run_batch(config, seeds, kinds)
    assert len(traces) == len(seeds)
    for trace, seed, kind in zip(traces, seeds, kinds or [config.policy] * len(seeds)):
        alone = simulator.run_single(dataclasses.replace(config, seed=seed, policy=kind))
        for field in dataclasses.fields(RunTrace):
            mine, theirs = getattr(trace, field.name), getattr(alone, field.name)
            assert np.array_equal(mine, theirs), (seed, kind, field.name)
    return traces


@pytest.mark.parametrize("runs", [1, 2, 5])
@pytest.mark.parametrize("kind", goodness.KINDS)
@pytest.mark.parametrize("policy", policies.POLICY_NAMES)
def test_batch_equals_single_runs(policy, kind, runs):
    assert_batch_equals_singles(*batch(runs, policy, SPECS[kind]))


@pytest.mark.parametrize("case", [
    pytest.param(batch(2, "ucb", noise_r=0.0), id="ucb-noiseless"),
    pytest.param(batch(2, "ts", noise_r=0.0), id="ts-noiseless"),
    pytest.param(batch(2, "gp-ts", noise_r=0.0, utility_kind="square"), id="gp-ts-noiseless"),
    pytest.param(batch(5, PolicyKind("greedy", epsilon=0.0)), id="greedy-eps-0"),
    pytest.param(batch(5, PolicyKind("greedy", epsilon=1.0)), id="greedy-eps-1"),
    pytest.param(batch(5, PolicyKind("greedy", epsilon=0.5), horizon=200), id="greedy-eps-0.5"),
    pytest.param(batch(2, "ucb", utility_kind="square"), id="ucb-square"),
    pytest.param(batch(2, "gp-ucb", utility_kind="square"), id="gp-ucb-square"),
    pytest.param(batch(2, "gp-ts", utility_kind="square"), id="gp-ts-square"),
    pytest.param(mixed_batch(2, noise_r=0.0, horizon=100), id="mixed-noiseless"),
    pytest.param(mixed_batch(3, utility_kind="square", horizon=100), id="mixed-square"),
    pytest.param(mixed_batch(1, n_agents=1, horizon=30), id="mixed-one-agent"),
    # a policy may come back after another, and each run has its own seed
    pytest.param((batch(1)[0], [11, 12, 13, 14, 15, 16, 17],
                  [MIXED[k] for k in (3, 0, 0, 1, 3, 2, 0)]), id="mixed-any-order"),
])
def test_batch_equals_single_runs_at_the_edges(case):
    assert_batch_equals_singles(*case)


@pytest.mark.parametrize("policy", ["gp-ucb", "gp-ts"])
def test_gp_batch_spans_windows_and_item_blocks(monkeypatch, policy):
    # items are drawn 37 rounds ahead at R = 3 and 111 at R = 1, so the
    # batch and its runs alone condition windows cut at other rounds, and
    # 300 rounds cross nine 32-row blocks of the factor
    monkeypatch.setattr(simulator, "BLOCK_BYTES", 8 * 3 * N_AGENTS * 5 * 37)
    assert_batch_equals_singles(*batch(3, policy, utility_kind="square", horizon=300))


@pytest.mark.parametrize("policy, kind", [
    pytest.param("ucb", goodness.WEIGHTED_GINI, id="ucb"),
    pytest.param("gp-ts", goodness.WEIGHTED_GINI, id="gp-ts"),
    pytest.param("ucb", goodness.LOG_NSW, id="ucb-log-nsw"),
])
def test_runs_do_not_depend_on_block_or_oracle_call_sizes(monkeypatch, policy, kind):
    # each block is charged in one oracle call; at N = 10 and d = 4 a
    # weighted-Gini round's candidate ledgers take twice its contexts and
    # utilities, so its blocks are of 1, 3 and 30 rounds, and log-NSW's of
    # 1, 7 and 60
    config, seeds = batch(2, policy, SPECS[kind], utility_kind="square", horizon=120,
                          n_agents=10)
    want = simulator.run_batch(config, seeds)
    for rounds in (1, 7, 60):
        monkeypatch.setattr(simulator, "BLOCK_BYTES", 8 * 2 * 10 * 5 * rounds)
        for got, ref in zip(simulator.run_batch(config, seeds), want):
            for field in dataclasses.fields(RunTrace):
                assert np.array_equal(getattr(got, field.name), getattr(ref, field.name)), rounds


def counted_oracle_calls(monkeypatch):
    """The list that gets the ledgers' shape of every simulator._oracle
    call from here on."""
    calls = []
    oracle = simulator._oracle

    def counting(spec, ledgers, truths, picks):
        calls.append(ledgers.shape)
        return oracle(spec, ledgers, truths, picks)

    monkeypatch.setattr(simulator, "_oracle", counting)
    return calls


@pytest.mark.parametrize("kind, n_agents, horizon, sizes", [
    pytest.param(goodness.LOG_NSW, 200, 264, [8, 16, 16, 16, 8], id="log-nsw"),
    pytest.param(goodness.WEIGHTED_GINI, 200, 264, [1] * 264, id="weighted-gini"),
    pytest.param(goodness.WEIGHTED_GINI, 10, 400, [163, 163, 74], id="weighted-gini-n10"),
])
def test_each_item_block_is_charged_in_one_oracle_call(monkeypatch, kind, n_agents, horizon,
                                                       sizes):
    # at R = 2 and d = 4 an item block at N = 200 is 16 rounds, and the warm
    # start's 200 rounds charge no oracle under log-NSW; a weighted-Gini
    # round's candidate ledgers take 8*R*N*N bytes, so its blocks are one
    # round at N = 200, and 163 rounds at N = 10, where contexts and
    # utilities alone would fit 327
    calls = counted_oracle_calls(monkeypatch)
    config, seeds = batch(2, "ucb", SPECS[kind], horizon=horizon, n_agents=n_agents)
    simulator.run_batch(config, seeds)
    assert [shape[0] for shape in calls] == sizes


@pytest.mark.parametrize("n, d, runs", [(10, 4, 6), (200, 4, 2), (10, 40, 60)])
@pytest.mark.parametrize("kind", [goodness.WEIGHTED_GINI, goodness.LOG_NSW])
def test_item_blocks_and_oracle_calls_fit_the_block_bound(monkeypatch, kind, n, d, runs):
    # a block's contexts and utilities, and its oracle call's candidates:
    # (rounds, R, N, N) candidate ledgers under weighted Gini and
    # (rounds, R, N) goodness values otherwise, take at most BLOCK_BYTES,
    # unless the block is one round
    drawn = []

    def kept(draw):
        def keeping(*args):
            drawn.append(draw(*args))
            return drawn[-1]
        return keeping

    for name in ("draw_item", "true_utilities"):
        monkeypatch.setattr(environment, name, kept(getattr(environment, name)))
    calls = counted_oracle_calls(monkeypatch)
    config, seeds = batch(runs, "ucb", SPECS[kind], horizon=n + 40, n_agents=n,
                          item_dim=d // 2, agent_dim=d // 2)
    simulator.run_batch(config, seeds)
    # a block draws each run's contexts, then each run's utilities
    blocks = [drawn[k : k + 2 * runs] for k in range(0, len(drawn), 2 * runs)]
    assert sum(len(block[0]) for block in blocks) == config.horizon
    for block in blocks:
        assert len(block[0]) == 1 or sum(a.nbytes for a in block) <= simulator.BLOCK_BYTES
    width = n if kind == goodness.WEIGHTED_GINI else 1
    assert calls
    for rounds, *rest in calls:
        assert rest == [runs, n]
        assert rounds == 1 or 8 * rounds * runs * n * width <= simulator.BLOCK_BYTES


@pytest.mark.parametrize("policy", ["ts", "gp-ts"])
def test_batch_ignores_the_config_seed(policy):
    # the config is seeded 11, which none of the batch's runs takes
    config, _ = batch(1, policy, utility_kind="square")
    traces = assert_batch_equals_singles(config, [20, 5, 30])
    assert [trace.seed for trace in traces] == [20, 5, 30]


def test_batch_equals_single_runs_on_constant_ties(monkeypatch):
    # agents with equal features have equal utilities and scores, so under
    # rho 1 every scored round is a tie, broken by a draw of the run's own
    generate = environment.generate_instance

    def equal_agents(n_agents, *args):
        inst = generate(n_agents, *args)
        return dataclasses.replace(
            inst, agent_features=np.repeat(inst.agent_features[:1], n_agents, axis=0))

    monkeypatch.setattr(environment, "generate_instance", equal_agents)
    spec = GoodnessSpec(goodness.WEIGHTED_GINI, rho=1.0)
    cases = [batch(5, policy, spec, horizon=100) for policy in ("ucb", "ts", "greedy")]
    for case in [*cases, mixed_batch(3, spec=spec, horizon=100)]:
        for trace in assert_batch_equals_singles(*case):
            assert np.unique(trace.chosen[N_AGENTS:]).size == N_AGENTS


def handed_out_states(monkeypatch, config, seeds, kinds=None):
    """The estimator state policies.make_estimator hands each run of
    run_batch(config, seeds, kinds), in run order, after the batch ends."""
    kept = []
    make = policies.make_estimator

    def keep(*args, **kwargs):
        kept.append(make(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(policies, "make_estimator", keep)
    simulator.run_batch(config, seeds, kinds)
    monkeypatch.undo()
    return kept


@pytest.mark.parametrize("policy", ["ucb", "ts", "greedy", "gp-ucb"])
def test_each_runs_state_ends_as_its_final_estimate(monkeypatch, policy):
    # a ridge run's state is a view of its row of the batch's stacked state
    config, seeds = batch(3, policy, utility_kind="square")
    states = handed_out_states(monkeypatch, config, seeds)
    assert len(states) == len(seeds)
    for state, seed in zip(states, seeds):
        alone, = handed_out_states(monkeypatch, dataclasses.replace(config, seed=seed), [seed])
        if policy == "gp-ucb":
            n = alone.n_obs
            assert state.n_obs == n == config.horizon
            pairs = [(state.chol[:n, :n], alone.chol[:n, :n]), (state.white[:n], alone.white[:n]),
                     (state.info_gain, alone.info_gain)]
        else:
            mine, theirs = state.precision, alone.precision
            pairs = [(mine.m_mat, theirs.m_mat), (mine.m_inv, theirs.m_inv),
                     (mine.log_det, theirs.log_det), (state.moment, alone.moment),
                     (state.theta_hat, alone.theta_hat)]
            # the state is the run's final estimate, whatever path both took
            prec, lam = state.precision, config.confidence.lam
            assert not np.array_equal(prec.m_mat, lam * np.eye(4))
            assert prec.log_det == pytest.approx(np.linalg.slogdet(prec.m_mat)[1], rel=1e-12)
            np.testing.assert_allclose(prec.m_inv, np.linalg.inv(prec.m_mat), rtol=1e-9)
            assert np.array_equal(state.theta_hat, prec.m_inv @ state.moment)
        for k, (got, want) in enumerate(pairs):
            assert np.array_equal(got, want), (seed, k)


@pytest.mark.parametrize("kind", goodness.KINDS)
def test_mixed_batch_equals_single_runs(kind):
    assert_batch_equals_singles(*mixed_batch(2, spec=SPECS[kind], horizon=100))


def test_mixed_batch_spans_item_blocks(monkeypatch):
    # items are drawn 7 rounds ahead at R = 10 and up to 70 at R = 1, so the
    # batch and its runs alone cut their blocks and oracle calls at other rounds
    monkeypatch.setattr(simulator, "BLOCK_BYTES", 8 * 10 * N_AGENTS * 5 * 7)
    assert_batch_equals_singles(*mixed_batch(2, horizon=150))


def test_mixed_batch_hands_each_run_a_view_of_its_row(monkeypatch):
    config, seeds = batch(2, utility_kind="square")
    seeds, kinds = mixed(seeds)
    states = handed_out_states(monkeypatch, config, seeds, kinds)
    assert len(states) == len(seeds)
    whole = states[0].precision.m_inv.base
    assert whole is not None and whole.shape == (len(seeds), 4, 4)
    for r, (state, seed, kind) in enumerate(zip(states, seeds, kinds)):
        assert state.precision.m_inv.base is whole
        assert np.shares_memory(state.precision.m_inv, whole[r])
        assert np.shares_memory(state.theta_hat, states[0].theta_hat.base[r])
        alone, = handed_out_states(
            monkeypatch, dataclasses.replace(config, seed=seed, policy=kind), [seed])
        mine, theirs = state.precision, alone.precision
        pairs = [(mine.m_mat, theirs.m_mat), (mine.m_inv, theirs.m_inv),
                 (mine.log_det, theirs.log_det), (state.moment, alone.moment),
                 (state.theta_hat, alone.theta_hat)]
        assert not np.array_equal(mine.m_mat, config.confidence.lam * np.eye(4))
        for k, (got, want) in enumerate(pairs):
            assert np.array_equal(got, want), (seed, kind, k)


def test_only_ridge_policies_share_a_batch():
    config, _ = batch(1)
    for other in ("uniform", "gp-ucb"):
        with pytest.raises(ValueError, match="only the ridge policies"):
            simulator.run_batch(config, [11, 12], [PolicyKind("ucb"), PolicyKind(other)])
    with pytest.raises(ValueError, match="2 policy kinds for 3 seeds"):
        simulator.run_batch(config, [11, 12, 13], [PolicyKind("ucb")] * 2)


def test_each_runs_policy_meets_the_configs_rules(monkeypatch):
    # a ucb config's noise_r is too large for a GP policy, which the batch
    # checks before it draws an instance
    monkeypatch.setattr(environment, "generate_instance", None)
    config = RunConfig(seed=1, policy=PolicyKind("ucb"), goodness=SPECS[goodness.WEIGHTED_GINI],
                       confidence=ConfidenceParams.defaults(2, noise_r=1e200), horizon=30,
                       n_agents=3, item_dim=1, agent_dim=1)
    with pytest.raises(ValueError, match=r"^noise_r 1e\+200 is too large for a GP policy "):
        simulator.run_batch(config, [1], [PolicyKind("gp-ucb")])


def lockstep_passes(monkeypatch):
    """The list that gets the seeds and block length of every pass of
    simulator._lockstep from here on."""
    passes = []
    lockstep = simulator._lockstep

    def kept(config, seeds, kinds, block):
        passes.append((seeds, block))
        return lockstep(config, seeds, kinds, block)

    monkeypatch.setattr(simulator, "_lockstep", kept)
    return passes


def counted_parts(monkeypatch, config, seeds):
    """The traces of run_batch(config, seeds) and the runs of every part
    its round loop stepped, in order."""
    passes = lockstep_passes(monkeypatch)
    traces = simulator.run_batch(config, seeds)
    monkeypatch.undo()
    return traces, [len(part) for part, _ in passes]


def test_gp_runs_are_stepped_within_the_factor_bound(monkeypatch):
    # two 60-round factors and their weighted-Gini candidate ledgers fit the
    # bound, so five GP runs go in parts of 2, 2 and 1
    monkeypatch.setattr(simulator, "BATCH_SQUARE_BYTES", 2 * 8 * (60**2 + N_AGENTS**2))
    config, seeds = batch(5, "gp-ucb", utility_kind="square")
    traces, sizes = counted_parts(monkeypatch, config, seeds)
    assert sizes == [2, 2, 1]
    for trace, alone in zip(traces, simulator.run_batch(config, seeds)):
        assert np.array_equal(trace.chosen, alone.chosen)


def test_weighted_gini_runs_are_stepped_within_the_square_bound(monkeypatch):
    # a weighted-Gini round's candidate ledgers take 8*n_agents**2 bytes a run;
    # two runs' fit the bound, so five ridge runs go in parts of 2, 2 and 1
    monkeypatch.setattr(simulator, "BATCH_SQUARE_BYTES", 2 * 8 * N_AGENTS**2)
    config, seeds = batch(5, "ucb")
    traces, sizes = counted_parts(monkeypatch, config, seeds)
    assert sizes == [2, 2, 1]
    for trace, alone in zip(traces, simulator.run_batch(config, seeds)):
        for field in dataclasses.fields(RunTrace):
            assert np.array_equal(getattr(trace, field.name), getattr(alone, field.name))


def test_batch_needs_valid_seeds():
    config, _ = batch(1)
    with pytest.raises(ValueError, match="at least 1 seed"):
        simulator.run_batch(config, [])
    for bad in (-1, 1.5, "x", True):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            simulator.run_batch(config, [11, bad])


# the tiny-lambda run of tests/test_cli.py, whose M^-1 loses definiteness:
# alone, seed 15793235383387715774 aborts at round 10, seed 39 at round 12,
# and seed 35 finishes
ABORTS_AT_10 = 15793235383387715774


@pytest.mark.parametrize("first_seed", [35, 39], ids=["healthy-first", "later-abort-first"])
def test_batch_raises_the_line_the_sequential_loop_raises(first_seed):
    confidence = ConfidenceParams.defaults(4, lam=1e-15)
    config = RunConfig(seed=0, policy=PolicyKind("ucb"), goodness=SPECS[goodness.WEIGHTED_GINI],
                       confidence=confidence, horizon=20, n_agents=10, item_dim=2, agent_dim=2)
    seeds = [first_seed, ABORTS_AT_10]
    with pytest.raises(simulator.RunAbortedError) as sequential:
        for seed in seeds:
            simulator.run_single(dataclasses.replace(config, seed=seed))
    with pytest.raises(simulator.RunAbortedError) as batched:
        simulator.run_batch(config, seeds)
    assert str(batched.value) == str(sequential.value)
    assert f"seed={ABORTS_AT_10 if first_seed == 35 else 39} " in str(batched.value)


def tiny_lambda_batch():
    """The tiny-lambda config, seeded 0, and the batch's seeds: 35
    finishes, 39 aborts at round 12 and ABORTS_AT_10 at round 10."""
    confidence = ConfidenceParams.defaults(4, lam=1e-15)
    config = RunConfig(seed=0, policy=PolicyKind("ucb"), goodness=SPECS[goodness.WEIGHTED_GINI],
                       confidence=confidence, horizon=20, n_agents=10, item_dim=2, agent_dim=2)
    return config, [35, 39, ABORTS_AT_10]


@pytest.mark.parametrize("case", ["split", "fault"])
def test_run_batch_checks_its_inputs_once(monkeypatch, case):
    # neither the parts of a split batch nor a faulting batch's runs, stepped
    # again alone, go back through run_batch and its checks
    if case == "split":
        monkeypatch.setattr(simulator, "BATCH_SQUARE_BYTES", 2 * 8 * N_AGENTS**2)
        config, seeds = batch(5, "ucb")
    else:
        config, seeds = tiny_lambda_batch()
    calls = []
    run_batch = simulator.run_batch

    def counting(config, seeds, kinds=None):
        calls.append(len(seeds))
        return run_batch(config, seeds, kinds)

    monkeypatch.setattr(simulator, "run_batch", counting)
    if case == "split":
        assert len(simulator.run_batch(config, seeds)) == 5
    else:
        with pytest.raises(simulator.RunAbortedError, match="^run seed=39 "):
            simulator.run_batch(config, seeds)
    assert calls == [len(seeds)]


def test_a_split_batch_raises_the_line_the_sequential_loop_raises(monkeypatch):
    # a weighted-Gini run at N = 10 takes 800 bytes of candidate ledgers, so
    # each run is a part of its own, and seed 39's part faults first
    monkeypatch.setattr(simulator, "BATCH_SQUARE_BYTES", 8 * 10**2)
    config, seeds = tiny_lambda_batch()
    with pytest.raises(simulator.RunAbortedError) as sequential:
        for seed in seeds:
            simulator.run_single(dataclasses.replace(config, seed=seed))
    passes = lockstep_passes(monkeypatch)
    with pytest.raises(simulator.RunAbortedError) as batched:
        simulator.run_batch(config, seeds)
    assert str(batched.value) == str(sequential.value)
    assert "seed=39 " in str(batched.value)
    # seed 39's part draws its 20 rounds in one block, and faults; its run
    # is stepped again one round a block, which raises
    assert passes == [((35,), 20), ((39,), 20), ((39,), 1)]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)], ids=["ucb-ts-greedy",
                                                                        "greedy-ts-ucb",
                                                                        "ts-greedy-ucb"])
def test_mixed_batch_raises_the_line_the_entries_raise_in_order(order):
    # the runs of each policy's entry come in turn, on the seeds of a grid
    # point; the first line in entry-then-seed order is raised, whichever
    # run faults at the earliest round
    confidence = ConfidenceParams.defaults(4, lam=1e-15)
    config = RunConfig(seed=0, policy=PolicyKind("ucb"), goodness=SPECS[goodness.WEIGHTED_GINI],
                       confidence=confidence, horizon=20, n_agents=10, item_dim=2, agent_dim=2)
    entries = [(PolicyKind(("ucb", "ts", "greedy")[k]), [35, 39, ABORTS_AT_10]) for k in order]
    with pytest.raises(simulator.RunAbortedError) as sequential:
        for kind, seeds in entries:
            for seed in seeds:
                simulator.run_single(dataclasses.replace(config, seed=seed, policy=kind))
    seeds = [seed for _, entry_seeds in entries for seed in entry_seeds]
    kinds = [kind for kind, entry_seeds in entries for _ in entry_seeds]
    with pytest.raises(simulator.RunAbortedError) as batched:
        simulator.run_batch(config, seeds, kinds)
    assert str(batched.value) == str(sequential.value)
    # alone, seed 39 aborts at round 11 or 12, after ABORTS_AT_10's round 10
    assert "seed=39 " in str(batched.value)


# every stacked form the round loop uses, against the per-run 2-D call it
# replaces; a numpy or BLAS upgrade that breaks the premise fails here
@pytest.mark.parametrize("n, d, runs",
                         list(itertools.product((1, 3, 10, 25, 200), (2, 4, 40), (1, 2, 20))))
def test_stacked_forms_match_per_run_calls(n, d, runs):
    rng = np.random.default_rng(1000 * n + 10 * d + runs)
    # a round's contexts are a slice of a (rounds, runs, n, d) block, and
    # a run's utilities come from its own (rounds, n, d) block
    xs = rng.uniform(0.0, 10.0, (3, runs, n, d))[1]
    items = rng.uniform(0.0, 10.0, (3, n, d))
    factor = rng.normal(size=(runs, d, d))
    m_inv = factor @ np.swapaxes(factor, 1, 2) + np.eye(d)
    theta, v = rng.normal(size=(runs, d)), rng.normal(size=(runs, d))
    candidates = rng.uniform(0.0, 10.0, (runs, n, n))
    weights = 0.85 ** np.arange(n)
    ledgers = rng.uniform(0.5, 2.0, (runs, n))
    # the oracle scores a block's rounds in one call: (rounds, runs, ...) stacks
    round_candidates = rng.uniform(0.0, 10.0, (3, runs, n, n))
    round_ledgers = rng.uniform(0.5, 2.0, (3, runs, n))
    z = np.matmul(m_inv, v[..., None])[..., 0]
    stacked_vs_single = [
        (np.matmul(xs, m_inv), [xs[r] @ m_inv[r] for r in range(runs)]),
        (np.matmul(xs, theta[..., None])[..., 0], [xs[r] @ theta[r] for r in range(runs)]),
        (z, [m_inv[r] @ v[r] for r in range(runs)]),
        (np.matmul(v[..., None, :], z[..., None])[..., 0, 0], [v[r] @ z[r] for r in range(runs)]),
        (candidates @ weights, [candidates[r] @ weights for r in range(runs)]),
        (items @ theta[0], [items[k] @ theta[0] for k in range(3)]),
        ((np.matmul(xs, m_inv) * xs).sum(axis=-1),
         [np.sum((xs[r] @ m_inv[r]) * xs[r], axis=1) for r in range(runs)]),
        (np.linalg.cholesky(m_inv), [np.linalg.cholesky(m_inv[r]) for r in range(runs)]),
        (np.prod(ledgers, axis=-1), [np.prod(ledgers[r]) for r in range(runs)]),
        (np.sum(np.log(ledgers), axis=-1), [np.sum(np.log(ledgers[r])) for r in range(runs)]),
        (round_candidates @ weights, [round_candidates[k] @ weights for k in range(3)]),
        (np.prod(round_ledgers, axis=-1), [np.prod(round_ledgers[k], axis=-1) for k in range(3)]),
        (np.sum(np.log(round_ledgers), axis=-1),
         [np.sum(np.log(round_ledgers[k]), axis=-1) for k in range(3)]),
    ]
    # a policy's rows of a batch of several policies: views of a slice of runs
    rows = slice(runs // 2, runs)
    kept = range(runs)[rows]
    stacked_vs_single += [
        (np.matmul(xs[rows], m_inv[rows]), [xs[r] @ m_inv[r] for r in kept]),
        (np.matmul(xs[rows], theta[rows][..., None])[..., 0], [xs[r] @ theta[r] for r in kept]),
        ((np.matmul(xs[rows], m_inv[rows]) * xs[rows]).sum(axis=-1),
         [np.sum((xs[r] @ m_inv[r]) * xs[r], axis=1) for r in kept]),
        (np.linalg.cholesky(m_inv[rows]), [np.linalg.cholesky(m_inv[r]) for r in kept]),
        (np.matmul(np.linalg.cholesky(m_inv[rows]), v[rows][..., None])[..., 0],
         [np.linalg.cholesky(m_inv[r]) @ v[r] for r in kept]),
    ]
    for k, (stacked, singles) in enumerate(stacked_vs_single):
        assert np.array_equal(stacked, np.stack(singles)), k
