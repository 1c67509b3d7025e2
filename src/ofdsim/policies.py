"""Allocation policies: score agents optimistically (or by posterior
sample, or by plain mean), push each score through the goodness
function as a candidate allocation, and pick the argmax.

The simulator makes the round-robin picks of rounds 1..N itself; a
policy chooses from round N+1 on. Ties in candidate goodness are broken
uniformly at random within a relative tolerance of 1e-9; the tie draw is
only taken when there is an actual tie, so deterministic variants
consume identical rng streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimators, goodness, linalg

POLICY_NAMES = ("ucb", "ts", "gp-ucb", "gp-ts", "greedy", "uniform")
_RIDGE_POLICIES = ("ucb", "ts", "greedy")
_GP_POLICIES = ("gp-ucb", "gp-ts")
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class PolicyKind:
    name: str
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        # one line per broken field, so a caller can report each of them
        problems = []
        if self.name not in POLICY_NAMES:
            problems.append(f"unknown policy {self.name!r}; choose from {', '.join(POLICY_NAMES)}")
        if not 0.0 <= self.epsilon <= 1.0:
            problems.append(f"epsilon must lie in [0,1], got {self.epsilon!r}")
        if problems:
            raise ValueError("\n".join(problems))

    @property
    def uses_ridge(self) -> bool:
        return self.name in _RIDGE_POLICIES

    @property
    def uses_gp(self) -> bool:
        return self.name in _GP_POLICIES


@dataclass
class AllocationDecision:
    """The chosen agent. A GP policy's scored round keeps the conditioning
    on every context, whose column for the chosen agent :func:`observe`
    appends to the factor; it is None on a round that scored no agent."""

    agent: int
    gp_conditioning: estimators.GpConditioning | None = None


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
    # np.max propagates NaN, so this one test also catches a NaN candidate
    if not math.isfinite(best):
        raise linalg.NumericError(f"candidate goodness is not finite (max {best!r})")
    tol = TIE_REL_TOL * max(1.0, abs(best))
    ties = np.flatnonzero(values >= best - tol)
    if ties.size == 1:
        return int(ties[0])
    return int(ties[rng.integers(ties.size)])


def select_agent(
    kind: PolicyKind,
    spec: goodness.GoodnessSpec,
    totals: np.ndarray,
    t: int,
    contexts: np.ndarray,
    estimator,
    params: estimators.ConfidenceParams,
    rng: np.random.Generator,
) -> AllocationDecision:
    """Choose the agent for round t > n_agents, given the ledger totals
    (n_agents,) and contexts, a float array of shape (n_agents, dim), one
    row per agent; a non-finite candidate goodness raises
    :class:`linalg.NumericError`."""
    explores = kind.name == "greedy" and kind.epsilon > 0.0 and rng.random() < kind.epsilon
    if kind.name == "uniform" or explores:
        return AllocationDecision(agent=int(rng.integers(len(contexts))))
    cond = None
    if kind.uses_gp:
        cond = estimators.gp_condition(estimator, contexts)
        if kind.name == "gp-ucb":
            scores = estimators.gp_ucb_scores(estimator, params, cond)
        else:
            scores = estimators.gp_ts_scores(estimator, params, cond, rng)
    elif kind.name == "ucb":
        scores = estimators.ucb_scores(estimator, params, t, contexts)
    elif kind.name == "ts":
        scores = contexts @ estimators.ts_sample(estimator, params, t, rng)
    else:
        scores = contexts @ estimator.theta_hat
    adds = np.maximum(scores, 0.0)
    values = goodness.candidate_scores(spec, totals, adds)
    return AllocationDecision(agent=_pick_max(values, rng), gp_conditioning=cond)


def observe(
    kind: PolicyKind,
    estimator,
    decision: AllocationDecision,
    contexts: np.ndarray,
    y: float,
) -> None:
    """Fold the realized utility y of the agent decision chose from
    contexts, the round's (n_agents, dim) array, into the estimator;
    uniform keeps no estimate."""
    agent = decision.agent
    if kind.uses_ridge:
        estimators.ridge_update(estimator, contexts[agent], y)
    elif kind.uses_gp:
        cond, col = decision.gp_conditioning, agent
        if cond is None:
            # a round-robin round conditioned nothing while choosing
            cond, col = estimators.gp_condition(estimator, contexts[agent : agent + 1]), 0
        estimators.gp_update(estimator, cond.scaled[col], cond.v[:, col], y)
