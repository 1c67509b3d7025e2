"""Round loop wiring environment, policy and goodness together, plus
multi-seed aggregation and the fairness/efficiency metrics.

Per round: draw an item, evaluate every agent's candidate goodness
under the true utilities (the greedy one-step oracle), let the policy
pick an agent, charge the goodness gap as instantaneous regret, then
feed the noisy realized utility to the ledger and the estimator. The
regret comparison uses true utilities on both sides while the ledger
accumulates noisy observations; that asymmetry is deliberate.

Each run splits its seed into four independent streams (instance,
items, noise, policy), so replaying a config is bit-reproducible and
policies sharing a seed face identical instances and item sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import environment, goodness, policies
from .estimators import ConfidenceParams, alpha_t

MAX_HORIZON = 10**6


class RunAbortedError(RuntimeError):
    """A run hit a goodness domain violation mid-flight."""


@dataclass
class RunConfig:
    horizon: int
    seed: int
    policy: policies.PolicyKind
    goodness: goodness.GoodnessSpec
    n_agents: int
    item_dim: int
    agent_dim: int
    utility_kind: str = environment.LINEAR
    confidence: ConfidenceParams | None = None

    def __post_init__(self) -> None:
        if self.n_agents < 1 or self.item_dim < 1 or self.agent_dim < 1:
            raise ValueError("n_agents, item_dim and agent_dim must be >= 1")
        if self.horizon < self.n_agents:
            raise ValueError(
                f"horizon {self.horizon} shorter than the round-robin phase "
                f"({self.n_agents} agents)"
            )
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon capped at {MAX_HORIZON}")
        if self.utility_kind not in environment.UTILITY_KINDS:
            raise ValueError(f"utility_kind must be one of {environment.UTILITY_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.confidence is None:
            self.confidence = ConfidenceParams.defaults(self.item_dim + self.agent_dim)
        elif self.confidence.dim != self.item_dim + self.agent_dim:
            raise ValueError(
                f"confidence.dim {self.confidence.dim} != item_dim + agent_dim "
                f"{self.item_dim + self.agent_dim}"
            )

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)


@dataclass
class RunTrace:
    seed: int
    horizon: int
    chosen: np.ndarray
    oracle: np.ndarray
    realized: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    final_totals: np.ndarray


def run_single(config: RunConfig) -> RunTrace:
    """Execute one seeded run and return its full trace."""
    seq = np.random.SeedSequence(config.seed)
    instance_rng, item_rng, noise_rng, policy_rng = map(np.random.default_rng, seq.spawn(4))

    instance = environment.generate_instance(
        config.n_agents,
        config.item_dim,
        config.agent_dim,
        config.utility_kind,
        config.confidence.noise_r,
        instance_rng,
    )
    spec = config.goodness
    kind = config.policy
    n = config.n_agents
    horizon = config.horizon
    ledger = policies.init_ledger(n)
    estimator = policies.make_estimator(kind, config.confidence)
    weights = spec.resolved_weights(n) if spec.kind == goodness.WEIGHTED_GINI else None
    # goodness kinds that cannot see the all-zero warm-start ledger
    needs_positive = spec.kind in (goodness.NSW, goodness.LOG_NSW)

    chosen = np.empty(horizon, dtype=np.int64)
    oracle = np.empty(horizon, dtype=np.int64)
    realized = np.empty(horizon)
    inst_regret = np.empty(horizon)
    cum_regret = np.empty(horizon)
    noise_r = instance.noise_r

    running = 0.0
    for t in range(1, horizon + 1):
        contexts = environment.draw_item(instance, item_rng)
        truths = environment.true_utilities(instance, contexts)
        try:
            decision = policies.select_agent(
                kind, spec, ledger, contexts, estimator,
                config.confidence, policy_rng, weights=weights,
            )
            if needs_positive and t <= n:
                # product-style goodness is undefined on zero ledgers;
                # the warm-start rounds carry zero regret by definition
                best = decision.agent
                gap = 0.0
            else:
                # the one-step oracle; argmax breaks ties to the lowest index
                values = goodness.candidate_scores(spec, ledger.totals, truths, weights=weights)
                best = int(np.argmax(values))
                gap = max(float(values[best] - values[decision.agent]), 0.0)
        except goodness.GoodnessDomainError as exc:
            raise RunAbortedError(
                f"run seed={config.seed} aborted at round {t}: {exc}; "
                f"ledger totals={ledger.totals.tolist()}"
            ) from exc
        pick = decision.agent
        y = float(truths[pick])
        if noise_r > 0.0:
            y += noise_rng.normal(0.0, noise_r)
        policies.observe(kind, estimator, contexts[pick], y, ledger, pick)

        idx = t - 1
        chosen[idx] = pick
        oracle[idx] = best
        realized[idx] = y
        inst_regret[idx] = gap
        running += gap
        cum_regret[idx] = running

    return RunTrace(
        seed=config.seed,
        horizon=horizon,
        chosen=chosen,
        oracle=oracle,
        realized=realized,
        inst_regret=inst_regret,
        cum_regret=cum_regret,
        final_totals=ledger.totals.copy(),
    )


@dataclass
class AggregateSeries:
    horizon: int
    n_reps: int
    mean_regret: np.ndarray
    ci95: np.ndarray
    final_metrics: dict


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


def aggregate(traces: list[RunTrace]) -> AggregateSeries:
    """Mean cumulative regret per round with 95% CI half-widths, plus
    final-round efficiency/fairness metrics. A single trace is its own
    mean, with every CI 0."""
    if not traces:
        raise ValueError("aggregate needs at least 1 trace")
    horizon = traces[0].horizon
    if any(tr.horizon != horizon for tr in traces):
        raise ValueError("all traces must share one horizon")
    stacked = np.stack([tr.cum_regret for tr in traces])
    mean = stacked.mean(axis=0)
    if len(traces) < 2:
        ci95 = np.zeros(horizon)
    else:
        ci95 = 1.96 * stacked.std(axis=0, ddof=1) / math.sqrt(len(traces))
    finals = np.stack([tr.final_totals for tr in traces])
    metrics = {
        "usw": _mean_ci(finals.sum(axis=1)),
        "gini": _mean_ci([gini_coefficient(row) for row in finals]),
        "min_ratio": _mean_ci([min_ratio(row) for row in finals]),
    }
    return AggregateSeries(
        horizon=horizon,
        n_reps=len(traces),
        mean_regret=mean,
        ci95=ci95,
        final_metrics=metrics,
    )


def gini_coefficient(u: np.ndarray) -> float:
    """Relative mean absolute difference: sum_ij |u_i-u_j| / (2 N^2 mean)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty 1-d array")
    if not np.all(np.isfinite(u)) or np.any(u < 0.0):
        raise ValueError("u must be finite and non-negative")
    total = float(u.sum())
    if total <= 0.0:
        raise ValueError("gini_coefficient undefined for a zero-total vector")
    diffs = float(np.abs(u[:, None] - u[None, :]).sum())
    return diffs / (2.0 * u.size * total)


def min_ratio(u: np.ndarray) -> float:
    """Share of the worst-off agent: min(u) / sum(u)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty 1-d array")
    if not np.all(np.isfinite(u)) or np.any(u < 0.0):
        raise ValueError("u must be finite and non-negative")
    total = float(u.sum())
    if total <= 0.0:
        raise ValueError("min_ratio undefined for a zero-total vector")
    return float(u.min()) / total


def theoretical_bound(params: ConfidenceParams, d: int, w_max: float, t: int) -> float:
    """High-probability cumulative regret ceiling 2*alpha_t*w_max*
    sqrt(2*d*t*log(lam + t*L/d)); the inner log is floored at 0."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t!r}")
    inner = max(math.log(params.lam + t * params.feature_bound_l / d), 0.0)
    return 2.0 * alpha_t(params, t) * w_max * math.sqrt(2.0 * d * t * inner)


def series_csv_lines(series: AggregateSeries) -> list[str]:
    lines = ["t,mean_regret,ci95"]
    for idx in range(series.horizon):
        lines.append(
            f"{idx + 1},{float(series.mean_regret[idx])!r},{float(series.ci95[idx])!r}"
        )
    return lines


def write_series_csv(series: AggregateSeries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(series_csv_lines(series)) + "\n")
