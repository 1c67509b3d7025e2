"""Run loop, regret accounting, aggregation, metrics, CSV output."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from ofdsim import simulator
from ofdsim.estimators import ConfidenceParams
from ofdsim.goodness import GoodnessSpec
from ofdsim.policies import PolicyKind
from ofdsim.simulator import RunConfig, RunTrace

from oracles import gini_pairwise, theoretical_bound


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
        chosen=np.zeros(horizon, dtype=np.int64),
        oracle=np.zeros(horizon, dtype=np.int64),
        realized=np.ones(horizon),
        inst_regret=inst,
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

    @pytest.mark.parametrize("field, value", [("horizon", 20.0), ("n_agents", 3.0),
                                              ("horizon", "20"), ("item_dim", True)])
    def test_sizes_must_be_integers(self, field, value):
        # a non-integer size gets its own line and is compared with nothing
        with pytest.raises(ValueError) as exc_info:
            make_config(**{field: value})
        assert str(exc_info.value) == f"{field} must be an integer, got {value!r}"

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

    def test_gp_factor_must_fit_its_byte_bound(self):
        # a GP run's factor takes 8*horizon**2 bytes; the bound is checked, not allocated
        longest = math.isqrt(simulator.MAX_SQUARE_BYTES // 8)
        assert longest == 16384
        with pytest.raises(ValueError, match="too long for a GP policy"):
            make_config(policy=PolicyKind("gp-ucb"), horizon=longest + 1)
        make_config(policy=PolicyKind("gp-ts"), horizon=longest)
        make_config(policy=PolicyKind("ucb"), horizon=longest + 1)

    def test_weighted_gini_candidates_must_fit_the_byte_bound(self):
        # one round's weighted-Gini candidate ledgers take 8*n_agents**2 bytes;
        # the other goodness kinds score a round in (n_agents,) arrays
        most = math.isqrt(simulator.MAX_SQUARE_BYTES // 8)
        assert most == 16384
        with pytest.raises(ValueError, match="n_agents 16385 is too many for weighted Gini"):
            make_config(n_agents=most + 1, horizon=most + 1)
        make_config(n_agents=most, horizon=most)
        make_config(n_agents=most + 1, horizon=most + 1, goodness=GoodnessSpec("log-nsw"))

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            make_config(seed=seed)

    def test_every_broken_cross_field_rule_gets_a_line_in_order(self):
        # the seed, vector-length, confidence.dim, GP-noise, GP-horizon and
        # weighted-Gini agent rules are reported together, one line each
        with pytest.raises(ValueError) as exc_info:
            make_config(seed=-1, policy=PolicyKind("gp-ucb"), horizon=16385, n_agents=16385,
                        goodness=GoodnessSpec("weighted-gini", weights=np.ones(3)),
                        confidence=ConfidenceParams.defaults(7, noise_r=1e200))
        lines = str(exc_info.value).splitlines()
        starts = ("seed must be", "goodness weights have length 3", "confidence.dim 7",
                  "noise_r 1e+200", "horizon 16385", "n_agents 16385")
        assert len(lines) == len(starts)
        for line, start in zip(lines, starts):
            assert line.startswith(start), line


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
    for name in ("chosen", "oracle", "realized", "inst_regret", "cum_regret"):
        assert getattr(trace, name).shape == (80,), name
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
    assert series.mean_regret.shape == series.ci95.shape == (2,)


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


def test_aggregate_rejects_a_series_that_leaves_the_float_range():
    # squaring the deviations of regrets near 1e300 overflows the CI to inf
    # from the second round on; the first round's CI is finite
    traces = [make_trace(1e300, horizon=3), make_trace(-1e300, horizon=3)]
    traces[0].inst_regret[0] = traces[1].inst_regret[0] = 1.0
    with pytest.raises(simulator.RunAbortedError,
                       match=r"at round 2: mean_regret 0\.0, ci95 inf"):
        simulator.aggregate(traces)


@pytest.mark.parametrize("total", [np.inf, -np.inf, np.nan])
def test_aggregate_rejects_a_final_ledger_out_of_the_float_range(total):
    # the second run's ledger leaves the float range in its last round,
    # which charges no oracle, so its regret series stays finite
    traces = [make_trace(1.0), make_trace(1.0, totals=(3.0, total))]
    traces[1].seed = 7
    with pytest.raises(simulator.RunAbortedError,
                       match=rf"^run seed=7 ends with a ledger total out of the float range: "
                             rf"agent 1 {total!r}$"):
        simulator.aggregate(traces)


def test_gini_matches_the_pairwise_form():
    rng = np.random.default_rng(60)
    for n in (1, 2, 3, 10, 2000):
        u = rng.uniform(0.0, 10.0, n)
        want = gini_pairwise(u)
        assert simulator.gini_coefficient(u) == pytest.approx(want, rel=1e-12, abs=0.0), n


def test_gini_takes_linear_memory():
    # the pairwise form's N x N matrix would take 32 MB at N = 2000
    u = np.random.default_rng(61).uniform(0.0, 10.0, 2000)
    tracemalloc.start()
    try:
        simulator.gini_coefficient(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_aggregate_input_validation():
    with pytest.raises(ValueError):
        simulator.aggregate([])
    with pytest.raises(ValueError):
        simulator.aggregate([make_trace(5.0), make_trace(5.0, horizon=3)])


def test_gini_examples():
    assert simulator.gini_coefficient(np.array([2.0, 2.0, 2.0])) == 0.0
    assert simulator.gini_coefficient(np.array([0.0, 7.0])) == pytest.approx(0.5)
    assert simulator.gini_coefficient(np.array([1.0, 3.0])) == pytest.approx(0.25)


# finite ledgers whose totals sum to 1.7e308, near the float limit, and
# their Gini coefficients: 9/10, and (9 * 7e307) / (10 * 1.7e308)
NEAR_FLOAT_LIMIT = [
    (np.r_[np.zeros(9), 1.7e308], 0.9),
    (np.r_[np.full(9, 1e307), 8e307], 63 / 170),
]


@pytest.mark.parametrize("u, want", NEAR_FLOAT_LIMIT, ids=["one-holder", "one-above-nine"])
def test_gini_of_a_ledger_near_the_float_limit(u, want):
    # weighting each total by its rank before dividing by the total
    # overflowed to inf - inf, which is NaN
    assert simulator.gini_coefficient(u) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_aggregate_reports_the_gini_of_a_ledger_near_the_float_limit():
    u, want = NEAR_FLOAT_LIMIT[0]
    series = simulator.aggregate([make_trace(1.0, totals=u)])
    assert series.final_metrics["gini"] == (pytest.approx(want, rel=1e-12, abs=0.0), 0.0)
    assert series.final_metrics["min_ratio"] == (0.0, 0.0)


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
    path = tmp_path / "series.csv"
    simulator.write_series_csv(series, path)
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "t,mean_regret,ci95"
    assert len(lines) == 3
    last = lines[-1].split(",")
    assert last[0] == "2"
    assert float(last[1]) == pytest.approx(12.0)


def test_csv_values_round_trip_exactly(tmp_path):
    trace = simulator.run_single(make_config(horizon=15, policy=PolicyKind("ts")))
    path = tmp_path / "series.csv"
    simulator.write_series_csv(simulator.aggregate([trace]), path)
    lines = path.read_text().splitlines()
    parsed = np.array([float(line.split(",")[1]) for line in lines[1:]])
    np.testing.assert_array_equal(parsed, trace.cum_regret)


def test_csv_rows_span_chunks(tmp_path):
    # rows on both sides of a chunk boundary, each float as its repr
    rng = np.random.default_rng(62)
    size = 2 * simulator.CSV_CHUNK_ROWS + 3
    series = simulator.AggregateSeries(np.cumsum(rng.uniform(0.0, 1.0, size)),
                                       rng.uniform(0.0, 1.0, size), {})
    path = tmp_path / "series.csv"
    simulator.write_series_csv(series, path)
    want = ["t,mean_regret,ci95"] + [
        f"{k + 1},{float(series.mean_regret[k])!r},{float(series.ci95[k])!r}"
        for k in range(size)
    ]
    assert path.read_text() == "\n".join(want) + "\n"


def test_csv_rows_keep_each_float_repr_at_the_extremes(tmp_path):
    # signed zeros, subnormals, the float limit and integral floats, whose
    # repr keeps its ".0", each as its shortest round-trip repr
    mean = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 3.0, 1e16]
    ci = [-0.0, 1.7976931348623157e308, -5e-324, 0.1, 12.0, 0.0, 2.5e-10]
    path = tmp_path / "series.csv"
    simulator.write_series_csv(simulator.AggregateSeries(np.array(mean), np.array(ci), {}), path)
    assert path.read_text() == (
        "t,mean_regret,ci95\n"
        "1,0.0,-0.0\n"
        "2,-0.0,1.7976931348623157e+308\n"
        "3,5e-324,-5e-324\n"
        "4,2.2250738585072014e-308,0.1\n"
        "5,1e+308,12.0\n"
        "6,3.0,0.0\n"
        "7,1e+16,2.5e-10\n"
    )


def test_csv_writer_streams_its_rows(tmp_path):
    # a writer that formats every row before it writes peaks at 6 to 14 MiB here
    rng = np.random.default_rng(63)
    size = 10**5
    series = simulator.AggregateSeries(np.cumsum(rng.uniform(0.0, 1.0, size)),
                                       rng.uniform(0.0, 1.0, size), {})
    path = tmp_path / "series.csv"
    tracemalloc.start()
    try:
        simulator.write_series_csv(series, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(path.read_text().splitlines()) == size + 1


def test_a_trace_takes_24_bytes_a_round():
    cfg = make_config(horizon=90)
    traces = simulator.run_batch(cfg, [3, 4], [PolicyKind("ucb"), PolicyKind("ts")])
    for trace in traces:
        assert trace.chosen.dtype == trace.oracle.dtype == np.int32
        arrays = (trace.chosen, trace.oracle, trace.realized, trace.inst_regret)
        assert sum(array.nbytes for array in arrays) == 24 * cfg.horizon


def test_cum_regret_is_derived_from_inst_regret():
    assert "cum_regret" not in {field.name for field in dataclasses.fields(RunTrace)}
    trace = simulator.run_single(make_config(policy=PolicyKind("ts"), horizon=80))
    assert np.array_equal(trace.cum_regret, np.cumsum(trace.inst_regret))


def test_aggregate_rejects_a_final_ledger_whose_sum_leaves_the_float_range():
    # each total is finite, but their sum overflows, where usw would be inf
    # and gini and min_ratio 0.0
    traces = [make_trace(1.0), make_trace(1.0, totals=(1e308, 1.5e308))]
    traces[1].seed = 9
    with pytest.raises(simulator.RunAbortedError,
                       match=r"^run seed=9 ends with a ledger whose sum leaves the float "
                             r"range: inf$"):
        simulator.aggregate(traces)


@pytest.mark.parametrize("metric", [simulator.gini_coefficient, simulator.min_ratio])
def test_ledger_metrics_reject_a_total_out_of_the_float_range(metric):
    with pytest.raises(ValueError, match="total leaves the float range"):
        metric(np.array([1e308, 1.5e308]))
