"""Round loop wiring environment, policy and goodness together, plus
multi-seed aggregation and the fairness/efficiency metrics.

Per round: draw an item, evaluate every agent's candidate goodness
under the true utilities (the greedy one-step oracle), let the policy
pick an agent, charge the goodness gap as instantaneous regret, then
feed the noisy realized utility to the ledger and the estimator. The
regret comparison uses true utilities on both sides while the ledger
accumulates noisy observations; that asymmetry is deliberate.

Rounds 1..N are a round-robin warm start: round t goes to agent t-1 and
draws nothing, so every ledger entry is positive before a goodness that
needs it is evaluated. Under NSW and log-NSW those rounds carry zero
regret.

Each run splits its seed into four independent streams (instance,
items, noise, policy), so replaying a config is bit-reproducible and
policies sharing a seed face identical instances and item sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import environment, goodness, linalg, policies
from .estimators import GP_MAX_NOISE_R, ConfidenceParams

MAX_HORIZON = 10**6


class RunAbortedError(RuntimeError):
    """A run hit a goodness domain violation or a numerical failure
    mid-flight."""


def size_problems(
    horizon: int, n_agents: int, item_dim: int, agent_dim: int, utility_kind: str
) -> list[str]:
    """RunConfig's rules on its sizes and utility kind, one message per
    broken field. They need no policy, goodness or confidence, so a
    caller whose other pieces failed can still report them."""
    sizes = {"n_agents": n_agents, "item_dim": item_dim, "agent_dim": agent_dim}
    problems = [f"{name} must be >= 1, got {value}" for name, value in sizes.items() if value < 1]
    if horizon < max(n_agents, 1):
        problems.append(
            f"horizon {horizon} is shorter than the round-robin phase over {n_agents} agents"
        )
    if horizon > MAX_HORIZON:
        problems.append(f"horizon capped at {MAX_HORIZON}, got {horizon}")
    if utility_kind not in environment.UTILITY_KINDS:
        problems.append(
            f"unknown utility {utility_kind!r}; choose from {', '.join(environment.UTILITY_KINDS)}"
        )
    return problems


@dataclass
class RunConfig:
    """Everything one run needs. Construction checks the run's inputs and
    their cross-field rules once; the round loop trusts them."""

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
        problems = size_problems(
            self.horizon, self.n_agents, self.item_dim, self.agent_dim, self.utility_kind
        )
        if problems:
            raise ValueError("\n".join(problems))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("weights", "target_ratios"):
            vector = getattr(self.goodness, name)
            if vector is not None and vector.size != self.n_agents:
                raise ValueError(
                    f"goodness {name} have length {vector.size}, expected n_agents={self.n_agents}"
                )
        if self.confidence is None:
            self.confidence = ConfidenceParams.defaults(self.item_dim + self.agent_dim)
        elif self.confidence.dim != self.item_dim + self.agent_dim:
            raise ValueError(
                f"confidence.dim {self.confidence.dim} != item_dim + agent_dim "
                f"{self.item_dim + self.agent_dim}"
            )
        if self.policy.uses_gp and self.confidence.noise_r > GP_MAX_NOISE_R:
            raise ValueError(
                f"noise_r {self.confidence.noise_r!r} is too large for a GP policy "
                f"(at most {GP_MAX_NOISE_R!r})"
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
    totals = np.zeros(n)
    estimator = policies.make_estimator(kind, config.confidence)
    # these kinds cannot score the warm start's zero ledger entries
    needs_positive = spec.kind in goodness.POSITIVE_LEDGER_KINDS

    chosen = np.empty(horizon, dtype=np.int64)
    oracle = np.empty(horizon, dtype=np.int64)
    realized = np.empty(horizon)
    inst_regret = np.empty(horizon)
    noise_r = instance.noise_r

    for t in range(1, horizon + 1):
        contexts = environment.draw_item(instance, item_rng)
        truths = environment.true_utilities(instance, contexts)
        try:
            warm = t <= n
            if warm:
                decision = policies.AllocationDecision(t - 1)
            else:
                decision = policies.select_agent(
                    kind, spec, totals, t, contexts, estimator, config.confidence, policy_rng
                )
            pick = decision.agent
            if warm and needs_positive:
                best, gap = pick, 0.0
            else:
                # the one-step oracle; argmax breaks ties to the lowest index,
                # and to the first NaN, which leaves gap NaN
                values = goodness.candidate_scores(spec, totals, truths)
                best = int(np.argmax(values))
                gap = max(float(values[best]) - float(values[pick]), 0.0)
                if not math.isfinite(gap):
                    raise goodness.GoodnessDomainError("oracle candidate goodness is not finite")
            y = float(truths[pick])
            if noise_r > 0.0:
                y += noise_rng.normal(0.0, noise_r)
            totals[pick] += y
            policies.observe(kind, estimator, decision, contexts, y)
        except (goodness.GoodnessDomainError, linalg.NumericError) as exc:
            low = int(np.argmin(totals))
            raise RunAbortedError(
                f"run seed={config.seed} aborted at round {t}: {exc}; ledger of {n} agents: "
                f"min {float(totals[low])!r} (agent {low}), max {float(totals.max())!r}"
            ) from exc

        idx = t - 1
        chosen[idx] = pick
        oracle[idx] = best
        realized[idx] = y
        inst_regret[idx] = gap

    return RunTrace(
        seed=config.seed,
        horizon=horizon,
        chosen=chosen,
        oracle=oracle,
        realized=realized,
        inst_regret=inst_regret,
        cum_regret=np.cumsum(inst_regret),
        final_totals=totals,
    )


@dataclass
class AggregateSeries:
    horizon: int
    n_reps: int
    mean_regret: np.ndarray
    ci95: np.ndarray
    final_metrics: dict


def _ci95(samples: np.ndarray) -> np.ndarray:
    """95% CI half-width of the mean over axis 0: 1.96*sd/sqrt(n), 0 for n = 1."""
    n = len(samples)
    if n < 2:
        return np.zeros(samples.shape[1:])
    return 1.96 * samples.std(axis=0, ddof=1) / math.sqrt(n)


def _mean_ci(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()), float(_ci95(values))


def aggregate(traces: list[RunTrace]) -> AggregateSeries:
    """Mean cumulative regret per round with 95% CI half-widths, plus
    final-round efficiency/fairness metrics. A single trace is its own
    mean, with every CI 0.

    Noise can leave a realized ledger total negative, where gini and
    min_ratio are undefined: those reps are left out of both metrics and
    counted in ``left_out``, and both are None if every rep is left out.
    usw is taken over every rep."""
    if not traces:
        raise ValueError("aggregate needs at least 1 trace")
    horizon = traces[0].horizon
    if any(tr.horizon != horizon for tr in traces):
        raise ValueError("all traces must share one horizon")
    stacked = np.stack([tr.cum_regret for tr in traces])
    finals = np.stack([tr.final_totals for tr in traces])
    scored = finals[~np.any(finals < 0.0, axis=1)]
    metrics = {
        "usw": _mean_ci(finals.sum(axis=1)),
        "gini": _mean_ci([gini_coefficient(row) for row in scored]) if len(scored) else None,
        "min_ratio": _mean_ci([min_ratio(row) for row in scored]) if len(scored) else None,
        "left_out": len(finals) - len(scored),
    }
    return AggregateSeries(
        horizon=horizon,
        n_reps=len(traces),
        mean_regret=stacked.mean(axis=0),
        ci95=_ci95(stacked),
        final_metrics=metrics,
    )


def _checked_ledger(u, metric: str) -> tuple[np.ndarray, float]:
    """u as a float array and its total; a ledger metric needs u 1-d,
    non-empty, finite and non-negative, with a positive total."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty 1-d array")
    if not np.all(np.isfinite(u)) or np.any(u < 0.0):
        raise ValueError("u must be finite and non-negative")
    total = float(u.sum())
    if total <= 0.0:
        raise ValueError(f"{metric} undefined for a zero-total vector")
    return u, total


def gini_coefficient(u: np.ndarray) -> float:
    """Relative mean absolute difference: sum_ij |u_i-u_j| / (2 N^2 mean)."""
    u, total = _checked_ledger(u, "gini_coefficient")
    diffs = float(np.abs(u[:, None] - u[None, :]).sum())
    return diffs / (2.0 * u.size * total)


def min_ratio(u: np.ndarray) -> float:
    """Share of the worst-off agent: min(u) / sum(u)."""
    u, total = _checked_ledger(u, "min_ratio")
    return float(u.min()) / total


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
