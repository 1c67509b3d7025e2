"""Round loop wiring environment, policy and goodness together, plus
multi-seed aggregation and the fairness/efficiency metrics.

Per round: draw an item, let the policy pick an agent, then feed the
noisy realized utility to the ledger and the estimator. Regret is the
goodness gap, under the true utilities, between the greedy one-step
oracle's pick and the policy's, scored on the ledger before the pick.
The regret comparison uses true utilities on both sides while the ledger
accumulates noisy observations; that asymmetry is deliberate. The oracle
waits on nothing the policy does, so the loop keeps each round's ledger
and charges the oracle in one call per block of rounds drawn ahead, at
the block's last round, after that round's pick and before its
observe. A fault is reported by replaying the runs: a fault in a batch
of more than one run, or of blocks longer than one round, steps each run
again alone, in order, one round a block, where a round runs pick, then
oracle, then observe, and the first fault there is reported at its own
round. Only a faulting batch pays for the second pass.

Rounds 1..N are a round-robin warm start: round t goes to agent t-1 and
draws nothing from the policy stream, so every ledger entry is positive
before a goodness that needs it is evaluated. Under NSW and log-NSW
those rounds carry zero regret.

Each run splits its seed into four independent streams (instance,
items, noise, policy), so replaying a config is bit-reproducible and
policies sharing a seed face identical instances and item sequences.
The noise stream draws one Normal(0, R^2) every round, at R = 0 too,
where each draw is +0.0 and leaves the utility as it was; it feeds
nothing else, so its draws move no other stream.

One round loop, :func:`run_batch`, steps R runs of one world, one per
seed, in lockstep. The runs may take different ridge policies (ucb, ts,
greedy), each policy's runs a stretch of rows, as the CLI batches the
entries of a grid point; a GP or uniform batch holds one policy. Their
ledgers are one (R, N) array, their contexts one (R, N, d) array and a
ridge state one state with a leading run axis, so each layer's function
runs once per round for all R runs: one update, one candidate-goodness
call and one argmax, while each policy scores its own rows through
views of the stacked state. Each value is kept once: a run's own ridge
state holds views of its row of the stacked state, and its trace arrays
are rows of (R, T) arrays written a round's column at a time, 24 bytes
a round (int32 picks and oracle agents, float64 realized utilities and
regrets); the cumulative regret is derived from them. Each
run's arithmetic is the arithmetic it takes alone, in stacked numpy
forms that give each run's bits, and each run draws from its own
streams: items and noise a block of rounds ahead, which draws what one
round at a time would, and the policy stream what the run alone would.
One bound, BLOCK_BYTES, sizes a block: its contexts, utilities and
oracle candidates. A GP run is handed the rest of the block's contexts
and conditions a window of them at once, which its state keeps. So a
run's trace does not depend on the batch it ran in. :func:`run_single`
is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import environment, estimators, goodness, linalg, policies
from .estimators import GP_MAX_NOISE_R, ConfidenceParams

MAX_HORIZON = 10**6
# bound on the bytes of a block of rounds: the contexts and utilities drawn
# ahead for a batch, and the candidates of the block's one oracle call
BLOCK_BYTES = 1 << 18
# a run's square arrays: a GP run's factor takes 8 * horizon**2 bytes, and a
# weighted-Gini round's candidate ledgers 8 * n_agents**2. RunConfig caps each
# here (T, N <= 16384), so a run too large for memory is a config error and not
# a MemoryError when it starts
MAX_SQUARE_BYTES = 1 << 31
# a batch holds its runs' square arrays at once; this bounds their bytes, one
# run at the least
BATCH_SQUARE_BYTES = 1 << 26
# rows of a series CSV formatted and written at a time
CSV_CHUNK_ROWS = 2048


class RunAbortedError(RuntimeError):
    """A run hit a mid-run fault (linalg.NumericError), or its traces
    leave the float range when aggregated."""


def size_problems(
    horizon: int, n_agents: int, item_dim: int, agent_dim: int, utility_kind: str
) -> list[str]:
    """RunConfig's rules on its sizes and utility kind, one message per
    broken field. They need no policy, goodness or confidence, so a
    caller whose other pieces failed can still report them. A size that
    is not an integer is reported as such and compared with nothing."""
    sizes = dict(horizon=horizon, n_agents=n_agents, item_dim=item_dim, agent_dim=agent_dim)
    whole = {name: value for name, value in sizes.items() if linalg.is_integer(value)}
    problems = [f"{name} must be an integer, got {value!r}"
                for name, value in sizes.items() if name not in whole]
    problems += [f"{name} must be >= 1, got {value}" for name, value in whole.items()
                 if name != "horizon" and value < 1]
    if whole.keys() >= {"horizon", "n_agents"} and horizon < max(n_agents, 1):
        problems.append(
            f"horizon {horizon} is shorter than the round-robin phase over {n_agents} agents"
        )
    if "horizon" in whole and horizon > MAX_HORIZON:
        problems.append(f"horizon capped at {MAX_HORIZON}, got {horizon}")
    if utility_kind not in environment.UTILITY_KINDS:
        problems.append(
            f"unknown utility {utility_kind!r}; choose from {', '.join(environment.UTILITY_KINDS)}"
        )
    return problems


def checked_seeds(seeds) -> tuple[int, ...]:
    """The seeds of one or more runs as a tuple; there must be at least
    one, and each must be an integer >= 0."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("runs need at least 1 seed")
    for seed in seeds:
        if not linalg.is_integer(seed) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seeds


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
        # the cross-field rules, one line per broken rule, reported together
        try:
            checked_seeds([self.seed])
        except ValueError as exc:
            problems.append(str(exc))
        for name in ("weights", "target_ratios"):
            vector = getattr(self.goodness, name)
            if vector is not None and vector.size != self.n_agents:
                problems.append(
                    f"goodness {name} have length {vector.size}, expected n_agents={self.n_agents}"
                )
        if self.confidence is None:
            self.confidence = ConfidenceParams.defaults(self.item_dim + self.agent_dim)
        elif self.confidence.dim != self.item_dim + self.agent_dim:
            problems.append(
                f"confidence.dim {self.confidence.dim} != item_dim + agent_dim "
                f"{self.item_dim + self.agent_dim}"
            )
        if self.policy.uses_gp and self.confidence.noise_r > GP_MAX_NOISE_R:
            problems.append(
                f"noise_r {self.confidence.noise_r!r} is too large for a GP policy "
                f"(at most {GP_MAX_NOISE_R!r})"
            )
        if self.policy.uses_gp and 8 * self.horizon**2 > MAX_SQUARE_BYTES:
            problems.append(
                f"horizon {self.horizon} is too long for a GP policy, whose factor takes "
                f"8*horizon**2 = {8 * self.horizon**2} bytes (at most {MAX_SQUARE_BYTES})"
            )
        gini = self.goodness.kind == goodness.WEIGHTED_GINI
        if gini and 8 * self.n_agents**2 > MAX_SQUARE_BYTES:
            problems.append(
                f"n_agents {self.n_agents} is too many for weighted Gini, whose candidate "
                f"ledgers take 8*n_agents**2 = {8 * self.n_agents**2} bytes a round "
                f"(at most {MAX_SQUARE_BYTES})"
            )
        if problems:
            raise ValueError("\n".join(problems))


@dataclass
class RunTrace:
    """One run's record, 24 bytes a round: its picks and the oracle's
    agents (int32), the realized utilities and the regret of each round
    (float64), and the final ledger. cum_regret is derived, not stored."""

    seed: int
    chosen: np.ndarray
    oracle: np.ndarray
    realized: np.ndarray
    inst_regret: np.ndarray
    final_totals: np.ndarray

    @property
    def cum_regret(self) -> np.ndarray:
        """The running sum of inst_regret, a new array on each read."""
        return np.cumsum(self.inst_regret)


def run_single(config: RunConfig) -> RunTrace:
    """Execute one seeded run and return its full trace."""
    return run_batch(config, [config.seed])[0]


def run_batch(config: RunConfig, seeds, kinds=None) -> list[RunTrace]:
    """Execute R runs of config, one per seed, in lockstep, and return
    their traces in the order of seeds; config.seed is not read. kinds,
    when given, is each run's PolicyKind in place of config.policy, and
    each kind must meet RunConfig's rules with config's other fields:
    runs of the ridge policies (ucb, ts, greedy) may share a batch, each
    policy scoring its own rows, while a GP or uniform batch holds one
    policy. Each run's trace is the one it makes alone, bit for bit, and
    its arrays are rows of the batch's (R, T) arrays: int32 chosen and
    oracle, float64 realized and inst_regret, 24 bytes a round.

    The seeds and kinds are checked here, once. The runs are then stepped
    in parts of at most BATCH_SQUARE_BYTES of square arrays, GP factors
    and weighted-Gini candidate ledgers, in order, each part through one
    round loop whose blocks of rounds, one oracle call each, fit
    BLOCK_BYTES or are one round. A part that faults mid-flight steps its
    runs again alone, in order, one round a block, so the RunAbortedError
    raised is the first in that order and carries what that run alone
    reports."""
    seeds = checked_seeds(seeds)
    runs = len(seeds)
    kinds = (config.policy,) * runs if kinds is None else tuple(kinds)
    if len(kinds) != runs:
        raise ValueError(f"{len(kinds)} policy kinds for {runs} seeds")
    if len(set(kinds)) > 1 and not all(kind.uses_ridge for kind in kinds):
        raise ValueError("only the ridge policies (ucb, ts, greedy) share a batch")
    for kind in dict.fromkeys(kinds):  # each must meet RunConfig's rules
        replace(config, policy=kind)
    n, horizon = config.n_agents, config.horizon
    gini = config.goodness.kind == goodness.WEIGHTED_GINI
    square = (8 * horizon**2 if kinds[0].uses_gp else 0) + (8 * n**2 if gini else 0)
    most = max(1, BATCH_SQUARE_BYTES // max(square, 1))
    # items and noise are drawn a block of rounds at a time, which draws what
    # one round at a time would; a round's contexts and utilities take
    # 8*runs*n*(d+1) bytes, and its weighted-Gini candidate ledgers 8*runs*n*n
    width = max(config.confidence.dim + 1, n if gini else 0)
    traces = []
    for k in range(0, runs, most):
        part = seeds[k : k + most]
        block = min(horizon, max(1, BLOCK_BYTES // (8 * len(part) * n * width)))
        traces += _lockstep(config, part, kinds[k : k + most], block)
    return traces


# a fault shows as a non-finite value, which the loop checks and reports as
# a run abort, so numpy's warnings on the way to it would only be noise
@np.errstate(invalid="ignore", over="ignore")
def _lockstep(config: RunConfig, seeds: tuple, kinds: tuple, block: int) -> list[RunTrace]:
    """run_batch's round loop, on runs it has checked, drawing items block
    rounds ahead. A pass allocates its block arrays once, (block, runs,
    ...) for the contexts, true utilities, noise and ledgers before each
    pick, and draws each block into them run by run, so no run's draws
    are held beside a stacked copy. A NumericError, the one mid-run
    fault, in a pass of more than one run, or of blocks of more than one
    round, steps each run again alone, in order, one round a block, where
    it is raised as RunAbortedError naming the run, its round and its
    ledger."""
    runs = len(seeds)
    spec, params = config.goodness, config.confidence
    n, horizon, noise_r = config.n_agents, config.horizon, params.noise_r
    streams = [map(np.random.default_rng, np.random.SeedSequence(seed).spawn(4))
               for seed in seeds]
    instance_rngs, item_rngs, noise_rngs, policy_rngs = map(list, zip(*streams))
    instances = [
        environment.generate_instance(n, config.item_dim, config.agent_dim,
                                      config.utility_kind, rng)
        for rng in instance_rngs
    ]
    states = [policies.make_estimator(kind, params, horizon) for kind in kinds]
    # one stacked ridge state, the GP runs' states, or None for uniform
    estimator = states if kinds[0].uses_gp else None
    if kinds[0].uses_ridge:
        estimator = estimators.stack_ridge(states)
    groups = policies.row_groups(kinds, estimator)
    # these kinds cannot score the warm start's zero ledger entries
    needs_positive = spec.kind in goodness.POSITIVE_LEDGER_KINDS

    totals = np.zeros((runs, n))
    # run r's agent a sits at r*n + a of the flat ledger and of a round's
    # (runs, n) arrays
    ledger, offsets = totals.reshape(-1), np.arange(runs) * n
    # a block's arrays are indexed (round, run, ...), so a round's slice is
    # contiguous; the ledgers before each pick are kept for the block's oracle
    before = np.empty((block, runs, n))
    contexts = np.empty((block, runs, n, params.dim))
    truths, noise = np.empty((block, runs, n)), np.empty((block, runs))
    # agent indices fit int32: n <= horizon <= MAX_HORIZON
    chosen = np.empty((runs, horizon), dtype=np.int32)
    oracle = np.empty((runs, horizon), dtype=np.int32)
    realized = np.empty((runs, horizon))
    inst_regret = np.empty((runs, horizon))

    try:
        for t in range(1, horizon + 1):
            idx = t - 1
            j = idx % block
            if j == 0:
                size = min(block, horizon - idx)
                # a run's utilities are taken from its own contiguous draw, as alone
                for r, (inst, item_rng, noise_rng) in enumerate(
                        zip(instances, item_rngs, noise_rngs)):
                    drawn = environment.draw_item(inst, item_rng, size)
                    contexts[:size, r] = drawn
                    truths[:size, r] = environment.true_utilities(inst, drawn)
                    noise[:size, r] = noise_rng.normal(0.0, noise_r, size)
            before[j] = totals
            if t <= n:
                picks = np.full(runs, idx)
            else:
                picks = policies.select_agent(groups, spec, totals, t, contexts[j:size],
                                              params, policy_rngs)
            chosen[:, idx] = picks
            if j == size - 1:
                # the block's oracle; the warm start charges no regret where
                # the ledger must be positive
                first = idx - j
                lo = max(first, min(t, n)) if needs_positive else first
                oracle[:, first:lo], inst_regret[:, first:lo] = chosen[:, first:lo], 0.0
                if lo < t:
                    rows = slice(lo - first, size)
                    best, gap = _oracle(spec, before[rows], truths[rows], chosen[:, lo:t].T)
                    oracle[:, lo:t], inst_regret[:, lo:t] = best.T, gap.T
            at_pick = offsets + picks
            y = truths[j].take(at_pick) + noise[j]
            ledger[at_pick] += y
            realized[:, idx] = y
            policies.observe(estimator, picks, contexts[j], y)
    except linalg.NumericError as exc:
        if runs > 1 or block > 1:
            return [trace for seed, kind in zip(seeds, kinds)
                    for trace in _lockstep(config, (seed,), (kind,), 1)]
        row = totals[0]
        low = int(np.argmin(row))
        raise RunAbortedError(
            f"run seed={seeds[0]} aborted at round {t}: {exc}; ledger of {n} agents: "
            f"min {float(row[low])!r} (agent {low}), max {float(row.max())!r}"
        ) from exc

    return [
        RunTrace(
            seed=seed,
            chosen=chosen[r],
            oracle=oracle[r],
            realized=realized[r],
            inst_regret=inst_regret[r],
            final_totals=totals[r],
        )
        for r, seed in enumerate(seeds)
    ]


def _oracle(spec: goodness.GoodnessSpec, ledgers: np.ndarray, truths: np.ndarray,
            picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-step oracle of one round or of a stack of them: ledgers and
    truths of shape (..., runs, n_agents) and the picks (..., runs).
    Returns the oracle's agents and the regret of the picks. argmax breaks
    ties to the lowest index, and to the first NaN, which leaves the gap
    NaN; the best value is the row's max, so a gap is >= 0 or NaN. A
    non-finite gap raises linalg.NumericError."""
    values = goodness.candidate_scores(spec, ledgers, truths)
    best = values.argmax(axis=-1)
    gap = (np.take_along_axis(values, best[..., None], -1)
           - np.take_along_axis(values, picks[..., None], -1))[..., 0]
    if not math.isfinite(float(gap.max())):
        raise linalg.NumericError("oracle candidate goodness is not finite")
    return best, gap


@dataclass
class AggregateSeries:
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


# a series that leaves the float range is reported as a run abort, so numpy's
# overflow warnings on the way to it would only be noise
@np.errstate(invalid="ignore", over="ignore")
def aggregate(traces: list[RunTrace]) -> AggregateSeries:
    """Mean cumulative regret per round with 95% CI half-widths, plus
    final-round efficiency/fairness metrics. The runs' cumulative
    regrets are summed once, in place, in one (R, T) array. A single
    trace is its own mean, with every CI 0. A mean or CI that is not
    finite, as when squaring the deviations of huge regrets overflows,
    raises RunAbortedError naming the first such round; so does a final
    ledger with a total, or a sum of totals, that is not finite, naming
    the first such run's seed.

    Noise can leave a realized ledger total negative, where gini and
    min_ratio are undefined: those reps are left out of both metrics and
    counted in ``left_out``, and both are None if every rep is left out.
    usw is taken over every rep."""
    if not traces:
        raise ValueError("aggregate needs at least 1 trace")
    horizon = traces[0].inst_regret.size
    if any(tr.inst_regret.size != horizon for tr in traces):
        raise ValueError("all traces must share one horizon")
    # each row's running sum is RunTrace.cum_regret's, bit for bit
    stacked = np.stack([tr.inst_regret for tr in traces])
    np.cumsum(stacked, axis=1, out=stacked)
    mean_regret, ci95 = stacked.mean(axis=0), _ci95(stacked)
    finite = np.isfinite(mean_regret) & np.isfinite(ci95)
    if not finite.all():
        k = int(np.argmin(finite))
        raise RunAbortedError(
            f"regret series leaves the float range at round {k + 1}: mean_regret "
            f"{float(mean_regret[k])!r}, ci95 {float(ci95[k])!r}"
        )
    finals = np.stack([tr.final_totals for tr in traces])
    if not np.isfinite(finals).all():
        r, a = divmod(int(np.argmin(np.isfinite(finals))), finals.shape[1])
        raise RunAbortedError(
            f"run seed={traces[r].seed} ends with a ledger total out of the float range: "
            f"agent {a} {float(finals[r, a])!r}"
        )
    usw = finals.sum(axis=1)
    if not np.isfinite(usw).all():
        r = int(np.argmin(np.isfinite(usw)))
        raise RunAbortedError(
            f"run seed={traces[r].seed} ends with a ledger whose sum leaves the float range: "
            f"{float(usw[r])!r}"
        )
    scored = finals[~np.any(finals < 0.0, axis=1)]
    metrics = {
        "usw": _mean_ci(usw),
        "gini": _mean_ci([gini_coefficient(row) for row in scored]) if len(scored) else None,
        "min_ratio": _mean_ci([min_ratio(row) for row in scored]) if len(scored) else None,
        "left_out": len(finals) - len(scored),
    }
    return AggregateSeries(mean_regret=mean_regret, ci95=ci95, final_metrics=metrics)


def _checked_ledger(u, metric: str) -> tuple[np.ndarray, float]:
    """u as a float array and its total; a ledger metric needs u 1-d,
    non-empty, finite and non-negative, with a finite, positive total."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty 1-d array")
    if not np.all(np.isfinite(u)) or np.any(u < 0.0):
        raise ValueError("u must be finite and non-negative")
    with np.errstate(over="ignore"):
        total = float(u.sum())
    if not math.isfinite(total):
        raise ValueError(f"{metric} undefined for a vector whose total leaves the float range")
    if total <= 0.0:
        raise ValueError(f"{metric} undefined for a zero-total vector")
    return u, total


def gini_coefficient(u: np.ndarray) -> float:
    """Relative mean absolute difference, sum_ij |u_i-u_j| / (2 N^2 mean),
    taken over the sorted ledger u_(1) <= ... <= u_(N) as
    sum_k (2k - N - 1) (u_(k) / total) / N, in O(N) memory. Each share
    u_(k) / total is at most 1, so every term is bounded by N and a
    finite ledger whose total nears the float limit gives its value, not
    NaN. The sum is elementwise: a BLAS product would be the first BLAS
    call of a CLI process whose pool workers make its runs, which raises
    its peak RSS."""
    u, total = _checked_ledger(u, "gini_coefficient")
    ranks = 2.0 * np.arange(1, u.size + 1) - u.size - 1
    return float((ranks * (np.sort(u) / total)).sum()) / u.size


def min_ratio(u: np.ndarray) -> float:
    """Share of the worst-off agent: min(u) / sum(u)."""
    u, total = _checked_ledger(u, "min_ratio")
    return float(u.min()) / total


def write_series_csv(series: AggregateSeries, path) -> None:
    """Write the series as CSV rows ``t,mean_regret,ci95``, t from 1,
    each float as its shortest round-trip repr. Rows are formatted and
    written CSV_CHUNK_ROWS at a time, so the writer holds one chunk's
    text and not the whole file's."""
    mean, ci = series.mean_regret, series.ci95
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,mean_regret,ci95\n")
        for lo in range(0, mean.size, CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            fh.write("".join(
                f"{t},{m!r},{c!r}\n"
                for t, m, c in zip(range(lo + 1, hi + 1), mean[lo:hi].tolist(),
                                   ci[lo:hi].tolist())
            ))
