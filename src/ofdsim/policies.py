"""Allocation policies: score agents optimistically (or by posterior
sample, or by plain mean), push each score through the goodness
function as a candidate allocation, and pick the argmax.

Every policy starts with a round-robin pass over the agents (rounds
1..N) so each ledger entry is positive before goodness functions that
need it are evaluated. Ties in candidate goodness are broken uniformly
at random within a relative tolerance of 1e-9; the tie draw is only
taken when there is an actual tie, so deterministic variants consume
identical rng streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators, goodness

POLICY_NAMES = ("ucb", "ts", "gp-ucb", "gp-ts", "greedy", "uniform")
_RIDGE_POLICIES = ("ucb", "ts", "greedy")
_GP_POLICIES = ("gp-ucb", "gp-ts")
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class PolicyKind:
    name: str
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if self.name not in POLICY_NAMES:
            raise ValueError(f"policy must be one of {POLICY_NAMES}, got {self.name!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0,1], got {self.epsilon!r}")

    @property
    def uses_ridge(self) -> bool:
        return self.name in _RIDGE_POLICIES

    @property
    def uses_gp(self) -> bool:
        return self.name in _GP_POLICIES


@dataclass
class UtilityLedger:
    totals: np.ndarray
    counts: np.ndarray
    round: int = 1


def init_ledger(n_agents: int) -> UtilityLedger:
    if not isinstance(n_agents, (int, np.integer)) or n_agents < 1:
        raise ValueError(f"n_agents must be a positive integer, got {n_agents!r}")
    return UtilityLedger(
        totals=np.zeros(n_agents),
        counts=np.zeros(n_agents, dtype=np.int64),
        round=1,
    )


@dataclass
class AllocationDecision:
    """The chosen agent; the score fields are None when the round scored
    no agent (round-robin, uniform, epsilon exploration)."""

    agent: int
    per_agent_scores: np.ndarray | None = None
    per_agent_goodness: np.ndarray | None = None
    was_round_robin: bool = False
    was_exploration: bool = False


def make_estimator(kind: PolicyKind, params: estimators.ConfidenceParams):
    """Fresh estimator state for the policy, or None for uniform."""
    if kind.uses_ridge:
        return estimators.init_ridge(params.dim, params.lam)
    if kind.uses_gp:
        # GP observation noise follows the sub-Gaussian parameter; floor
        # it so a noiseless configuration keeps the Gram matrix regular
        return estimators.init_gp(params.dim, noise_var=max(params.noise_r**2, 1e-10))
    return None


def _pick_max(values: np.ndarray, rng: np.random.Generator) -> int:
    best = float(np.max(values))
    tol = TIE_REL_TOL * max(1.0, abs(best))
    ties = np.flatnonzero(values >= best - tol)
    if ties.size == 1:
        return int(ties[0])
    return int(ties[rng.integers(ties.size)])


def _optimistic_scores(
    kind: PolicyKind,
    estimator,
    params: estimators.ConfidenceParams,
    t: int,
    contexts: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    if kind.name == "ucb":
        return estimators.ucb_scores(estimator, params, t, contexts)
    if kind.name == "ts":
        theta = estimators.ts_sample(estimator, params, t, rng)
        return contexts @ theta
    if kind.name == "greedy":
        return contexts @ estimator.theta_hat
    if kind.name == "gp-ucb":
        return estimators.gp_ucb_scores(estimator, params, contexts)
    if kind.name == "gp-ts":
        return estimators.gp_ts_scores(estimator, params, contexts, rng)
    raise ValueError(f"no scoring rule for policy {kind.name!r}")


def select_agent(
    kind: PolicyKind,
    spec: goodness.GoodnessSpec,
    ledger: UtilityLedger,
    contexts: np.ndarray,
    estimator,
    params: estimators.ConfidenceParams,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> AllocationDecision:
    """Choose the agent for the current round.

    contexts holds one feature row per agent. The optional ``weights``
    forwards a pre-resolved weighted-gini weight vector to skip per-call
    resolution in the round loop.
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.ndim != 2 or contexts.shape[0] < 1:
        raise ValueError("contexts must be a non-empty (n_agents, dim) array")
    n = contexts.shape[0]
    if ledger.round <= n:
        return AllocationDecision(agent=(ledger.round - 1) % n, was_round_robin=True)
    if kind.name == "uniform":
        return AllocationDecision(agent=int(rng.integers(n)))
    if kind.name == "greedy" and kind.epsilon > 0.0 and rng.random() < kind.epsilon:
        return AllocationDecision(agent=int(rng.integers(n)), was_exploration=True)
    scores = _optimistic_scores(kind, estimator, params, ledger.round, contexts, rng)
    adds = np.maximum(scores, 0.0)
    values = goodness.candidate_scores(spec, ledger.totals, adds, weights=weights)
    return AllocationDecision(
        agent=_pick_max(values, rng),
        per_agent_scores=scores,
        per_agent_goodness=values,
    )


def observe(
    kind: PolicyKind,
    estimator,
    x: np.ndarray,
    y: float,
    ledger: UtilityLedger,
    agent: int,
):
    """Record the realized utility and advance the round.

    Uniform keeps no estimate, so only the ledger moves.
    """
    if not 0 <= agent < ledger.totals.size:
        raise ValueError(f"agent index {agent} out of range")
    ledger.totals[agent] += y
    ledger.counts[agent] += 1
    ledger.round += 1
    if kind.uses_ridge:
        estimators.ridge_update(estimator, x, y)
    elif kind.uses_gp:
        estimators.gp_update(estimator, x, y)
    return estimator, ledger
