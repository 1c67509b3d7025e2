"""Welfare functionals: exact values, fast-path equivalence, axioms."""

import math

import numpy as np
import pytest

from ofdsim import goodness
from ofdsim.goodness import GoodnessSpec
from ofdsim.linalg import NumericError

from oracles import check_local_properties, evaluate, opposite_order_check


def test_weights_from_rho_usw_case():
    np.testing.assert_array_equal(goodness.weights_from_rho(1.0, 3), np.ones(3))


def test_weights_from_rho_geometric():
    np.testing.assert_allclose(goodness.weights_from_rho(0.5, 3), [1.0, 0.5, 0.25], rtol=1e-15)
    np.testing.assert_allclose(
        goodness.weights_from_rho(0.5, 4), [1.0, 0.5, 0.25, 0.125], rtol=1e-15
    )


def test_weights_from_rho_small_rho_approaches_min_weights():
    w = goodness.weights_from_rho(1e-9, 3)
    np.testing.assert_allclose(w, [1.0, 0.0, 0.0], atol=1e-8)


def test_esw_weights():
    # rho = 0 gives the min objective's weights, bit for bit
    for n in (1, 2, 4, 25):
        np.testing.assert_array_equal(goodness.weights_from_rho(0.0, n), np.eye(1, n)[0])


class TestSpecValidation:
    def test_requires_exactly_one_weight_source(self):
        with pytest.raises(ValueError):
            GoodnessSpec("weighted-gini")
        with pytest.raises(ValueError):
            GoodnessSpec("weighted-gini", weights=np.array([1.0, 0.5]), rho=0.5)

    def test_rejects_increasing_or_out_of_range_weights(self):
        with pytest.raises(ValueError):
            GoodnessSpec("weighted-gini", weights=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            GoodnessSpec("weighted-gini", weights=np.array([1.0, 1.5]))
        with pytest.raises(ValueError):
            GoodnessSpec("weighted-gini", weights=np.array([0.0, 0.0]))

    def test_product_kinds_take_no_parameters(self):
        with pytest.raises(ValueError):
            GoodnessSpec("nsw", rho=0.5)
        with pytest.raises(ValueError):
            GoodnessSpec("log-nsw", weights=np.array([1.0]))
        GoodnessSpec("nsw")  # bare is fine

    def test_targeted_ratios_must_be_positive_and_normalized(self):
        with pytest.raises(ValueError):
            GoodnessSpec("targeted", target_ratios=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            GoodnessSpec("targeted", target_ratios=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            GoodnessSpec("targeted")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GoodnessSpec("median")


def test_usw_is_sum():
    spec = GoodnessSpec("weighted-gini", rho=1.0)
    assert evaluate(spec, np.array([1.0, 2.0, 3.0])) == pytest.approx(6.0)


def test_esw_is_min():
    spec = GoodnessSpec("weighted-gini", weights=np.array([1.0, 0.0, 0.0]))
    assert evaluate(spec, np.array([5.0, 2.0, 7.0])) == pytest.approx(2.0)


def test_weighted_gini_hand_value():
    # sorted u = (1, 2, 3); 1*1 + 0.5*2 + 0.25*3 = 2.75
    spec = GoodnessSpec("weighted-gini", rho=0.5)
    assert evaluate(spec, np.array([3.0, 1.0, 2.0])) == pytest.approx(2.75)


def test_nsw_is_product():
    assert evaluate(GoodnessSpec("nsw"), np.array([2.0, 3.0, 4.0])) == pytest.approx(24.0)


def test_log_nsw_values():
    assert evaluate(GoodnessSpec("log-nsw"), np.array([1.0, 1.0, 1.0])) == 0.0
    assert evaluate(GoodnessSpec("log-nsw"), np.array([2.0, 5.0])) == pytest.approx(
        math.log(10.0)
    )


def test_product_kinds_reject_non_positive_entries():
    for kind in ("nsw", "log-nsw"):
        spec = GoodnessSpec(kind)
        with pytest.raises(NumericError):
            evaluate(spec, np.array([1.0, 0.0]))
        with pytest.raises(NumericError):
            evaluate(spec, np.array([1.0, -2.0]))


def test_goodness_defines_no_exception_class():
    # a ledger outside the domain is a mid-run fault like any other
    assert not hasattr(goodness, "GoodnessDomainError")


def test_target_ratios_sum_line_prints_a_plain_float():
    with pytest.raises(ValueError) as exc_info:
        GoodnessSpec("targeted", target_ratios=np.array([0.5, 0.6]))
    assert str(exc_info.value) == "target_ratios must sum to 1, got 1.1"


def test_targeted_priorities_and_value():
    spec = GoodnessSpec("targeted", target_ratios=np.array([0.2, 0.5, 0.3]))
    np.testing.assert_allclose(spec._priorities, [1.0, 2.5, 1.5], rtol=1e-15)
    # min(2/1, 5/2.5, 3/1.5) = 2
    assert evaluate(spec, np.array([2.0, 5.0, 3.0])) == pytest.approx(2.0)


def granted(spec, u, agent, added):
    """Reference candidate value: evaluate on a copy of u with added
    granted to agent."""
    updated = np.array(u, dtype=np.float64)
    updated[agent] += added
    return evaluate(spec, updated)


def test_evaluate_candidate_examples():
    usw = GoodnessSpec("weighted-gini", rho=1.0)
    values = goodness.candidate_scores(usw, np.array([1.0, 1.0]), np.array([2.0, 0.0]))
    assert values[0] == pytest.approx(4.0)
    esw = GoodnessSpec("weighted-gini", weights=np.array([1.0, 0.0]))
    values = goodness.candidate_scores(esw, np.array([3.0, 1.0]), np.array([0.0, 1.0]))
    assert values[1] == pytest.approx(2.0)


def test_evaluate_candidate_zero_add_is_identity():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.5, 9.0, 6)
    for spec in (
        GoodnessSpec("weighted-gini", rho=0.7),
        GoodnessSpec("nsw"),
        GoodnessSpec("log-nsw"),
        GoodnessSpec("targeted", target_ratios=np.full(6, 1.0 / 6.0)),
    ):
        np.testing.assert_allclose(
            goodness.candidate_scores(spec, u, np.zeros(6)),
            np.full(6, evaluate(spec, u)),
            rtol=1e-12,
        )


def test_evaluate_candidate_leaves_input_unmodified():
    u = np.array([1.0, 2.0])
    adds = np.array([3.0, 0.5])
    for spec in (GoodnessSpec("weighted-gini", rho=1.0), GoodnessSpec("nsw")):
        goodness.candidate_scores(spec, u, adds)
        np.testing.assert_array_equal(u, [1.0, 2.0])
        np.testing.assert_array_equal(adds, [3.0, 0.5])


def test_candidate_scores_matches_slow_path():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 12):
        totals = rng.uniform(0.5, 30.0, n)
        adds = rng.uniform(0.0, 8.0, n)
        specs = [
            GoodnessSpec("weighted-gini", rho=0.85),
            GoodnessSpec("weighted-gini", weights=goodness.weights_from_rho(0.0, n)),
            GoodnessSpec("nsw"),
            GoodnessSpec("log-nsw"),
        ]
        ratios = rng.uniform(0.2, 1.0, n)
        specs.append(GoodnessSpec("targeted", target_ratios=ratios / ratios.sum()))
        for spec in specs:
            fast = goodness.candidate_scores(spec, totals, adds)
            slow = [granted(spec, totals, agent, float(adds[agent])) for agent in range(n)]
            np.testing.assert_allclose(fast, slow, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize(
    "n, scale, low",
    [(200, 40.0, 7), (100, 1e-9, 42)],
    ids=["overflow", "underflow"],
)
def test_nsw_out_of_float_range_raises(n, scale, low):
    # the product of n totals overflows to inf (40^200) or underflows to
    # 0 (1e-9^100), where every candidate would tie or compare as NaN;
    # log-nsw still picks the agent with the smallest total
    totals = np.full(n, scale)
    totals[low] = 0.975 * scale
    adds = np.full(n, 0.5 * scale)
    with pytest.raises(NumericError, match="float range"):
        goodness.candidate_scores(GoodnessSpec("nsw"), totals, adds)
    values = goodness.candidate_scores(GoodnessSpec("log-nsw"), totals, adds)
    assert int(np.argmax(values)) == low


def test_permutation_invariance_exact():
    rng = np.random.default_rng(3)
    spec = GoodnessSpec("weighted-gini", rho=0.85)
    for _ in range(200):
        u = rng.uniform(0.0, 100.0, 7)
        base = evaluate(spec, u)
        assert evaluate(spec, rng.permutation(u)) == base


def test_single_coordinate_monotonicity():
    rng = np.random.default_rng(4)
    spec = GoodnessSpec("weighted-gini", rho=0.85)
    for _ in range(200):
        u = rng.uniform(0.0, 50.0, 5)
        i = rng.integers(5)
        bumped = u.copy()
        bumped[i] += rng.uniform(0.0, 10.0)
        assert evaluate(spec, bumped) >= evaluate(spec, u) - 1e-12


def test_strict_increase_with_all_positive_weights():
    spec = GoodnessSpec("weighted-gini", rho=0.5)
    u = np.array([2.0, 4.0, 1.0])
    bumped = u.copy()
    bumped[0] += 0.5
    assert evaluate(spec, bumped) > evaluate(spec, u)


def test_nsw_log_nsw_share_argmax():
    rng = np.random.default_rng(5)
    nsw, log_nsw = GoodnessSpec("nsw"), GoodnessSpec("log-nsw")
    for _ in range(100):
        totals = rng.uniform(0.2, 20.0, 6)
        adds = rng.uniform(0.0, 5.0, 6)
        a = np.argmax(goodness.candidate_scores(nsw, totals, adds))
        b = np.argmax(goodness.candidate_scores(log_nsw, totals, adds))
        assert a == b


def test_check_local_properties_all_kinds():
    rng = np.random.default_rng(6)
    u = rng.uniform(0.1, 100.0, 8)
    specs = [
        GoodnessSpec("weighted-gini", rho=0.85),
        GoodnessSpec("nsw"),
        GoodnessSpec("log-nsw"),
        GoodnessSpec("targeted", target_ratios=np.full(8, 1.0 / 8.0)),
    ]
    for spec in specs:
        report = check_local_properties(spec, u, 2000, rng, u_min=0.1, u_max=100.0)
        assert report.ok, report
        assert report.worst_lipschitz_ratio <= 1.0 + 1e-9


def test_check_local_properties_log_nsw_unit_box_ratio():
    rng = np.random.default_rng(7)
    u = rng.uniform(1.0, 10.0, 5)
    report = check_local_properties(
        GoodnessSpec("log-nsw"), u, 3000, rng, u_min=1.0, u_max=10.0
    )
    assert report.ok
    assert report.worst_lipschitz_ratio <= 1.0 + 1e-9


def test_check_local_properties_rejects_bad_box():
    spec = GoodnessSpec("nsw")
    with pytest.raises(NumericError):
        check_local_properties(
            spec, np.array([1.0, 2.0]), 10, np.random.default_rng(0), u_min=0.0, u_max=5.0
        )


def test_opposite_order_two_agents():
    assert opposite_order_check(np.array([1.0, 0.5]), np.array([1.0, 2.0]))


def test_opposite_order_constant_weights():
    assert opposite_order_check(np.ones(4), np.array([4.0, 1.0, 3.0, 2.0]))


def test_opposite_order_random_trials():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        w = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
        u = rng.uniform(0.0, 10.0, n)
        assert opposite_order_check(w, u)


def test_opposite_order_size_and_shape_errors():
    with pytest.raises(ValueError):
        opposite_order_check(np.ones(9), np.ones(9))
    with pytest.raises(ValueError):
        opposite_order_check(np.array([0.2, 1.0]), np.array([1.0, 2.0]))
