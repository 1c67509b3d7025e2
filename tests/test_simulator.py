"""Run loop, regret accounting, aggregation, metrics, CSV output."""

import math
import sys

import numpy as np
import pytest

from ofdsim import simulator
from ofdsim.estimators import ConfidenceParams
from ofdsim.goodness import GoodnessSpec
from ofdsim.policies import PolicyKind
from ofdsim.simulator import RunConfig, RunTrace

from oracles import theoretical_bound


def make_config(**kw):
    base = dict(
        horizon=60,
        seed=3,
        policy=PolicyKind("ucb"),
        goodness=GoodnessSpec("weighted-gini", rho=0.85),
        n_agents=4,
        item_dim=2,
        agent_dim=2,
    )
    base.update(kw)
    return RunConfig(**base)


def make_trace(cum_final, horizon=2, n_agents=2, totals=(1.0, 2.0)):
    cum = np.linspace(cum_final / 2.0, cum_final, horizon)
    inst = np.diff(cum, prepend=0.0)
    return RunTrace(
        seed=0,
        horizon=horizon,
        chosen=np.zeros(horizon, dtype=np.int64),
        oracle=np.zeros(horizon, dtype=np.int64),
        realized=np.ones(horizon),
        inst_regret=inst,
        cum_regret=cum,
        final_totals=np.asarray(totals, dtype=np.float64),
    )


class TestRunConfig:
    def test_horizon_must_cover_round_robin(self):
        with pytest.raises(ValueError, match="round-robin"):
            make_config(horizon=3, n_agents=4)

    def test_horizon_cap(self):
        with pytest.raises(ValueError, match="capped"):
            make_config(horizon=simulator.MAX_HORIZON + 1)

    def test_each_broken_size_gets_a_line(self):
        with pytest.raises(ValueError) as exc_info:
            make_config(n_agents=0, item_dim=0, horizon=simulator.MAX_HORIZON + 1,
                        utility_kind="cubic")
        lines = str(exc_info.value).splitlines()
        assert len(lines) == 4
        assert [line.split()[0] for line in lines] == ["n_agents", "item_dim", "horizon",
                                                        "unknown"]
        assert lines == simulator.size_problems(simulator.MAX_HORIZON + 1, 0, 0, 2, "cubic")

    def test_confidence_defaults_to_experiment_values(self):
        cfg = make_config()
        assert cfg.confidence.dim == 4
        assert cfg.confidence.lam == 0.01
        assert cfg.confidence.noise_r == 0.1

    def test_confidence_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            make_config(confidence=ConfidenceParams.defaults(7))

    @pytest.mark.parametrize(
        "spec",
        [
            GoodnessSpec("weighted-gini", weights=np.array([1.0, 0.5, 0.25])),
            GoodnessSpec("targeted", target_ratios=np.array([0.2, 0.3, 0.5])),
        ],
        ids=["weights", "target_ratios"],
    )
    def test_goodness_vectors_must_match_agents(self, spec):
        # three entries for four agents are rejected at construction
        with pytest.raises(ValueError, match="expected n_agents=4"):
            make_config(goodness=spec, n_agents=4)

    def test_gp_noise_scale_must_square_to_a_float(self):
        # the GP's noise variance is noise_r**2; a ridge policy never squares it
        limit = math.sqrt(sys.float_info.max)
        assert math.isfinite(limit**2)
        for noise_r in (np.nextafter(limit, np.inf), 1e200):
            with pytest.raises(ValueError, match="too large for a GP policy"):
                make_config(policy=PolicyKind("gp-ucb"),
                            confidence=ConfidenceParams.defaults(4, noise_r=noise_r))
        make_config(policy=PolicyKind("gp-ts"),
                    confidence=ConfidenceParams.defaults(4, noise_r=limit))
        make_config(policy=PolicyKind("ucb"),
                    confidence=ConfidenceParams.defaults(4, noise_r=1e200))

    def test_with_seed(self):
        cfg = make_config()
        assert cfg.with_seed(9).seed == 9
        assert cfg.seed == 3


def test_single_agent_run_has_zero_regret():
    cfg = make_config(n_agents=1, horizon=40)
    trace = simulator.run_single(cfg)
    np.testing.assert_array_equal(trace.chosen, np.zeros(40, dtype=np.int64))
    np.testing.assert_array_equal(trace.inst_regret, np.zeros(40))
    np.testing.assert_array_equal(trace.cum_regret, np.zeros(40))


def test_same_seed_identical_traces():
    a = simulator.run_single(make_config())
    b = simulator.run_single(make_config())
    np.testing.assert_array_equal(a.chosen, b.chosen)
    np.testing.assert_array_equal(a.cum_regret, b.cum_regret)
    np.testing.assert_array_equal(a.final_totals, b.final_totals)
    c = simulator.run_single(make_config(seed=4))
    assert not np.array_equal(a.chosen, c.chosen)


def test_trace_shape_and_regret_monotonicity():
    trace = simulator.run_single(make_config(policy=PolicyKind("ts"), horizon=80))
    assert trace.horizon == 80
    assert np.all(trace.inst_regret >= 0.0)
    assert np.all(np.diff(trace.cum_regret) >= 0.0)
    np.testing.assert_array_equal(trace.cum_regret, np.cumsum(trace.inst_regret))
    # warm start covers every agent once
    assert sorted(trace.chosen[:4].tolist()) == [0, 1, 2, 3]


def test_ledger_totals_accumulate_realized_values():
    trace = simulator.run_single(make_config(horizon=50))
    expected = np.zeros(4)
    for agent, y in zip(trace.chosen, trace.realized):
        expected[agent] += y
    np.testing.assert_allclose(trace.final_totals, expected, atol=1e-10)


def test_all_policies_run_and_stay_finite():
    chosen = {}
    for name in ("ucb", "ts", "greedy", "uniform", "gp-ucb", "gp-ts"):
        trace = simulator.run_single(make_config(policy=PolicyKind(name), horizon=30, seed=7))
        assert np.all(np.isfinite(trace.cum_regret)), name
        # every policy starts with one round-robin pass over the 4 agents
        np.testing.assert_array_equal(trace.chosen[:4], np.arange(4), err_msg=name)
        chosen[name] = trace.chosen
    # uniform's later picks are the policy stream's first draws, so the
    # round-robin rounds took none of them
    policy_rng = np.random.default_rng(np.random.SeedSequence(7).spawn(4)[3])
    draws = [policy_rng.integers(4) for _ in range(26)]
    np.testing.assert_array_equal(chosen["uniform"][4:], draws)


def test_square_runs_under_gp():
    cfg = make_config(policy=PolicyKind("gp-ucb"), utility_kind="square", horizon=30)
    trace = simulator.run_single(cfg)
    assert np.all(trace.realized > 0.0)


def test_greedy_noiseless_converges():
    cfg = make_config(
        horizon=2000,
        seed=11,
        policy=PolicyKind("greedy", epsilon=0.0),
        goodness=GoodnessSpec("weighted-gini", rho=1.0),
        n_agents=10,
        confidence=ConfidenceParams.defaults(4, noise_r=0.0),
    )
    trace = simulator.run_single(cfg)
    deciles = trace.inst_regret.reshape(10, 200).mean(axis=1)
    assert deciles[0] > 0.0
    assert deciles[-1] < 0.05 * deciles[0]


def test_nsw_warm_start_rounds_carry_zero_regret():
    cfg = make_config(goodness=GoodnessSpec("nsw"), horizon=30, seed=2)
    trace = simulator.run_single(cfg)
    np.testing.assert_array_equal(trace.inst_regret[:4], np.zeros(4))
    assert np.all(np.isfinite(trace.cum_regret))


def test_nsw_aborts_on_negative_totals():
    cfg = make_config(
        goodness=GoodnessSpec("nsw"),
        horizon=50,
        seed=0,
        n_agents=5,
        confidence=ConfidenceParams.defaults(4, noise_r=30.0),
    )
    with pytest.raises(simulator.RunAbortedError, match="round"):
        simulator.run_single(cfg)


def test_targeted_goodness_runs():
    ratios = np.array([0.5, 0.3, 0.1, 0.1])
    cfg = make_config(goodness=GoodnessSpec("targeted", target_ratios=ratios), horizon=60)
    trace = simulator.run_single(cfg)
    assert np.all(trace.inst_regret >= 0.0)


def test_aggregate_hand_example():
    series = simulator.aggregate([make_trace(10.0), make_trace(14.0)])
    assert series.mean_regret[-1] == pytest.approx(12.0)
    # sample stddev of (10, 14) is 2*sqrt(2)
    assert series.ci95[-1] == pytest.approx(1.96 * 2.0 * math.sqrt(2.0) / math.sqrt(2.0), rel=1e-12)
    assert series.n_reps == 2


def test_aggregate_identical_traces_zero_ci():
    series = simulator.aggregate([make_trace(8.0), make_trace(8.0), make_trace(8.0)])
    np.testing.assert_array_equal(series.ci95, np.zeros(2))


def test_aggregate_order_invariant():
    traces = [make_trace(6.0), make_trace(9.0), make_trace(12.0)]
    fwd = simulator.aggregate(traces)
    rev = simulator.aggregate(traces[::-1])
    np.testing.assert_array_equal(fwd.mean_regret, rev.mean_regret)
    np.testing.assert_array_equal(fwd.ci95, rev.ci95)
    assert fwd.final_metrics == rev.final_metrics


def test_aggregate_final_metrics():
    series = simulator.aggregate(
        [make_trace(5.0, totals=(1.0, 3.0)), make_trace(5.0, totals=(1.0, 3.0))]
    )
    usw_mean, usw_ci = series.final_metrics["usw"]
    assert usw_mean == pytest.approx(4.0)
    assert usw_ci == 0.0
    assert series.final_metrics["gini"][0] == pytest.approx(0.25)
    assert series.final_metrics["min_ratio"][0] == pytest.approx(0.25)


def test_aggregate_single_trace_is_its_own_mean():
    trace = make_trace(5.0, totals=(1.0, 3.0))
    series = simulator.aggregate([trace])
    assert series.n_reps == 1
    np.testing.assert_array_equal(series.mean_regret, trace.cum_regret)
    np.testing.assert_array_equal(series.ci95, np.zeros(2))
    assert series.final_metrics["usw"] == (4.0, 0.0)
    assert series.final_metrics["gini"] == (pytest.approx(0.25), 0.0)


def test_aggregate_leaves_out_negative_ledgers_from_fairness_metrics():
    # noise can leave a realized total below 0, where gini is undefined
    traces = [make_trace(5.0, totals=(1.0, 3.0)), make_trace(5.0, totals=(-0.056, 3.0))]
    series = simulator.aggregate(traces)
    assert series.final_metrics["left_out"] == 1
    assert series.final_metrics["gini"] == (pytest.approx(0.25), 0.0)
    assert series.final_metrics["min_ratio"] == (pytest.approx(0.25), 0.0)
    assert series.final_metrics["usw"][0] == pytest.approx((4.0 + 2.944) / 2)
    only_negative = simulator.aggregate(traces[1:])
    assert only_negative.final_metrics["left_out"] == 1
    assert only_negative.final_metrics["gini"] is None
    assert only_negative.final_metrics["min_ratio"] is None
    assert simulator.aggregate(traces[:1]).final_metrics["left_out"] == 0


def test_aggregate_input_validation():
    with pytest.raises(ValueError):
        simulator.aggregate([])
    with pytest.raises(ValueError):
        simulator.aggregate([make_trace(5.0), make_trace(5.0, horizon=3)])


def test_gini_examples():
    assert simulator.gini_coefficient(np.array([2.0, 2.0, 2.0])) == 0.0
    assert simulator.gini_coefficient(np.array([0.0, 7.0])) == pytest.approx(0.5)
    assert simulator.gini_coefficient(np.array([1.0, 3.0])) == pytest.approx(0.25)


def test_gini_validation():
    with pytest.raises(ValueError):
        simulator.gini_coefficient(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        simulator.gini_coefficient(np.array([-1.0, 2.0]))


def test_min_ratio_examples():
    assert simulator.min_ratio(np.full(5, 3.3)) == pytest.approx(0.2)
    assert simulator.min_ratio(np.array([0.0, 5.0])) == 0.0
    assert simulator.min_ratio(np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0 / 6.0)
    with pytest.raises(ValueError):
        simulator.min_ratio(np.array([0.0, 0.0]))


class TestTheoreticalBound:
    params = ConfidenceParams.defaults(10)

    def test_closed_form(self):
        from ofdsim.estimators import alpha_t

        t, d, w_max = 500, 10, 1.0
        inner = math.log(self.params.lam + t * self.params.feature_bound_l / d)
        expected = 2.0 * alpha_t(self.params, t) * w_max * math.sqrt(2.0 * d * t * inner)
        assert theoretical_bound(self.params, d, w_max, t) == pytest.approx(
            expected, rel=1e-12
        )

    def test_monotone_in_t(self):
        vals = [theoretical_bound(self.params, 10, 1.0, t) for t in (1, 10, 100, 1000)]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))

    def test_sqrt_growth(self):
        for t in (10**3, 10**4):
            ratio = theoretical_bound(self.params, 10, 1.0, 4 * t) / (
                theoretical_bound(self.params, 10, 1.0, t)
            )
            assert ratio < 2.5

    def test_linear_in_w_max(self):
        one = theoretical_bound(self.params, 10, 1.0, 200)
        two = theoretical_bound(self.params, 10, 2.0, 200)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_rejects_bad_round(self):
        with pytest.raises(ValueError):
            theoretical_bound(self.params, 10, 1.0, 0)


def test_series_csv_schema(tmp_path):
    series = simulator.aggregate([make_trace(10.0), make_trace(14.0)])
    lines = simulator.series_csv_lines(series)
    assert lines[0] == "t,mean_regret,ci95"
    assert len(lines) == 3
    last = lines[-1].split(",")
    assert last[0] == "2"
    assert float(last[1]) == pytest.approx(12.0)
    path = tmp_path / "series.csv"
    simulator.write_series_csv(series, path)
    assert path.read_text().splitlines() == lines


def test_csv_values_round_trip_exactly():
    trace = simulator.run_single(make_config(horizon=15, policy=PolicyKind("ts")))
    lines = simulator.series_csv_lines(simulator.aggregate([trace]))
    parsed = np.array([float(line.split(",")[1]) for line in lines[1:]])
    np.testing.assert_array_equal(parsed, trace.cum_regret)
