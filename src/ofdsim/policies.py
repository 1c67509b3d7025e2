"""Allocation policies: score agents optimistically (or by posterior
sample, or by plain mean), push each score through the goodness
function as a candidate allocation, and pick the argmax.

The simulator makes the round-robin picks of rounds 1..N itself; a
policy chooses from round N+1 on. The simulator steps the R runs of a
batch together, so the policies choose for every run at once: ledgers
arrive as (R, N), the contexts of the round and of the rounds drawn
ahead after it as (rounds, R, N, d), and the picks leave as an int array
(R,). A batch has one estimator (:func:`batch_estimator`), a ridge state
with a leading run axis or the list of its runs' GP states, and its runs
come as row groups (:func:`row_groups`), a stretch of runs of one policy
each; only the ridge policies share a batch. One loop scores each
group's row slice of the estimator, in one estimators call for a ridge
group and one a run for a GP group, and one candidate-goodness call and
one argmax serve them all. A GP scorer is handed the rounds drawn ahead
and conditions a window of them at once, which the run's state keeps
for observe and the rounds after, so no policy function takes or
returns one. Each run keeps its own generator, and a run draws from it
exactly what it would draw alone: a TS parameter, an epsilon coin and
an exploring pick, and a tie draw.
Ties in candidate goodness are broken uniformly at random within a
relative tolerance of 1e-9; the tie draw is only taken when there is an
actual tie, so deterministic variants consume identical rng streams.
"""

from __future__ import annotations

import itertools
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
        if not linalg.is_real(self.epsilon):
            problems.append(f"epsilon must be a real number, got {self.epsilon!r}")
        elif not 0.0 <= self.epsilon <= 1.0:
            problems.append(f"epsilon must lie in [0,1], got {self.epsilon!r}")
        if problems:
            raise ValueError("\n".join(problems))

    @property
    def uses_ridge(self) -> bool:
        return self.name in _RIDGE_POLICIES

    @property
    def uses_gp(self) -> bool:
        return self.name in _GP_POLICIES


def make_estimator(kind: PolicyKind, params: estimators.ConfidenceParams, horizon: int):
    """Fresh estimator state for one run of the policy over horizon
    rounds, or None for uniform. A GP state holds one observation per
    round."""
    if kind.uses_ridge:
        return estimators.init_ridge(params.dim, params.lam)
    if kind.uses_gp:
        # GP observation noise follows the sub-Gaussian parameter
        return estimators.init_gp(params.dim, params.noise_r**2, horizon)
    return None


def _pick_max(values: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """The argmax of each row of values (R, n_agents), a tie within
    TIE_REL_TOL drawn from that row's generator in rngs."""
    best = values.max(axis=1)
    # max and sum propagate NaN and inf, so one sum checks every run's best;
    # finite bests whose sum overflows only make a batch replay its runs alone
    if not math.isfinite(float(best.sum())):
        raise linalg.NumericError(
            f"candidate goodness is not finite (max {float(best.max())!r})"
        )
    ties = values >= (best - TIE_REL_TOL * np.maximum(1.0, np.abs(best)))[:, None]
    picks = values.argmax(axis=1)
    if np.count_nonzero(ties) > len(rngs):
        for r in np.flatnonzero(np.count_nonzero(ties, axis=1) > 1):
            tied = np.flatnonzero(ties[r])
            picks[r] = tied[rngs[r].integers(tied.size)]
    return picks


def batch_estimator(kinds: tuple[PolicyKind, ...], params: estimators.ConfidenceParams,
                    horizon: int):
    """The estimator of a batch whose runs' policy kinds are kinds, in run
    order: one state from :func:`make_estimator` per run, stacked by
    :func:`estimators.stack_ridge` for the ridge policies, the list of
    states for a GP policy, or None for uniform."""
    states = [make_estimator(kind, params, horizon) for kind in kinds]
    if kinds[0].uses_ridge:
        return estimators.stack_ridge(states)
    return states if kinds[0].uses_gp else None


def row_groups(kinds: tuple[PolicyKind, ...]) -> list[tuple[PolicyKind, slice]]:
    """A batch's runs, whose policy kinds are kinds in run order, as
    (kind, rows) groups in order, rows the slice of a stretch of runs of
    one policy."""
    groups, lo = [], 0
    for kind, same in itertools.groupby(kinds):
        hi = lo + len(list(same))
        groups.append((kind, slice(lo, hi)))
        lo = hi
    return groups


def _group_scores(kind: PolicyKind, rows: slice, estimator, t: int, xs: np.ndarray,
                  params: estimators.ConfidenceParams,
                  rngs: list[np.random.Generator]) -> np.ndarray:
    """The agent scores (R, n_agents) of the R runs in rows, all of one
    learning policy, at round t, from their contexts drawn ahead xs
    (rounds, R, n_agents, dim), round t's first, and those rows of the
    batch's estimator: of a stacked ridge state's M^-1 and theta_hat, or
    of its list of GP states, one estimators call per GP run, which
    conditions the round itself."""
    if kind.name == "gp-ucb":
        return np.array([estimators.gp_ucb_scores(state, params, xs[:, r])
                         for r, state in enumerate(estimator[rows])])
    if kind.name == "gp-ts":
        return np.array([estimators.gp_ts_scores(state, params, xs[:, r], rng)
                         for r, (state, rng) in enumerate(zip(estimator[rows], rngs))])
    m_inv, theta = estimator.precision.m_inv[rows], estimator.theta_hat[rows]
    if kind.name == "ucb":
        return estimators.ucb_scores(m_inv, theta, params, t, xs[0])
    if kind.name == "ts":
        # one draw per run, against which the round scores every agent
        theta = linalg.sample_gaussian(theta, estimators.beta_t(params, t), m_inv, rngs)
    return np.matmul(xs[0], theta[..., None])[..., 0]


def select_agent(
    groups: list[tuple[PolicyKind, slice]],
    estimator,
    spec: goodness.GoodnessSpec,
    totals: np.ndarray,
    t: int,
    contexts: np.ndarray,
    params: estimators.ConfidenceParams,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Choose each run's agent for round t > n_agents, given the ledger
    totals (R, n_agents) and contexts, a float array of shape (rounds, R,
    n_agents, dim): round t's contexts, one row per agent, and those
    drawn for the rounds after it. groups holds the batch's runs as
    :func:`row_groups` makes them and estimator is the batch's, as
    :func:`batch_estimator` makes it: one loop scores each learning
    policy's rows of the estimator (:func:`_group_scores`), and one
    candidate-goodness call and one argmax serve every run; a uniform
    batch scores nothing. Run r draws from rngs[r] alone. A non-finite
    candidate goodness raises :class:`linalg.NumericError`. Returns the
    picks (R,)."""
    n = totals.shape[1]
    if groups[0][0].name == "uniform":
        return np.array([rng.integers(n) for rng in rngs])
    scored = None
    coins = [(rows, kind.epsilon) for kind, rows in groups
             if kind.name == "greedy" and kind.epsilon > 0.0]
    if coins:
        explores = [False] * len(rngs)
        for rows, epsilon in coins:
            explores[rows] = [rng.random() < epsilon for rng in rngs[rows]]
        if any(explores):
            # an exploring run scores no agent, so its row is left unchecked
            picks = np.array([rng.integers(n) if e else -1 for rng, e in zip(rngs, explores)])
            scored = [r for r, e in enumerate(explores) if not e]
            if not scored:
                return picks
    scores = np.empty(totals.shape)
    for kind, rows in groups:
        scores[rows] = _group_scores(kind, rows, estimator, t, contexts[:, rows], params,
                                     rngs[rows])
    adds = np.maximum(scores, 0.0)
    if scored is None:
        values = goodness.candidate_scores(spec, totals, adds)
        return _pick_max(values, rngs)
    values = goodness.candidate_scores(spec, totals[scored], adds[scored])
    picks[scored] = _pick_max(values, [rngs[r] for r in scored])
    return picks


def observe(estimator, agents: np.ndarray, contexts: np.ndarray, y: np.ndarray) -> None:
    """Fold each run's realized utility y (R,) of its agent in agents (R,)
    from contexts, the round's (R, n_agents, dim) array, into the batch's
    estimator: one update of a stacked ridge state for every run, whatever
    its policy, or each run's GP state in turn; uniform's None keeps no
    estimate."""
    if isinstance(estimator, estimators.RidgeState):
        estimators.ridge_update(estimator, contexts[np.arange(agents.size), agents], y)
    elif estimator is not None:
        for r, (state, agent) in enumerate(zip(estimator, agents)):
            estimators.gp_update(state, contexts[r], agent, float(y[r]))
