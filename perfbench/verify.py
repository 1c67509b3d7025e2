"""Checks of every benchmark output, computed apart from the program.

``check_run`` takes the CLI invocations of one benchmark run (as
``run.py`` plans them) and what each was asked to do. For every
invocation that exited 0 it checks the manifest, the trace invariants, the
aggregate CSV and the dominance property; the invocations marked
``deep`` (those of a run's first pass) also get the replay of every
seed and the estimator-state checks:

- the manifest: one entry per requested policy, with the requested
  horizon, shape, goodness and number of repetitions;
- trace invariants of every seeded run: the first N picks are 0..N-1,
  every ``inst_regret`` is finite and >= 0, ``cum_regret`` is the
  cumulative sum of ``inst_regret``, ``final_totals`` is
  ``bincount(chosen, weights=realized)``;
- the aggregate CSV: its mean and 95% CI equal the mean and
  ``1.96*sd/sqrt(R)`` of the per-seed traces;
- a replay of each seeded run: the instance, items and noise are
  rebuilt from the run's seed with the four-stream ``SeedSequence``
  split the ``simulator`` docstring documents, and the true utilities,
  realized values and one-step oracle are recomputed from the goodness
  definitions (sorted-weight dot product, sum of logs, minimum of
  ratios), then compared with the trace;
- properties of the method: each learner ends below uniform's regret on
  the same seed, where both run; and, for the first seed of each learner,
  the estimator state at the end of a fresh run of
  that seed: the ridge ``m_inv`` and ``log_det`` against
  ``np.linalg.inv`` and ``slogdet`` of ``m_mat`` (itself rebuilt from
  the replayed contexts), and the GP factor against a fresh Cholesky of
  its Gram matrix with ``info_gain`` against ``0.5*logdet(I + K/s2)``.

``check_run`` returns the number of seeded runs (operations) that
failed a check or belong to an invocation that did not exit 0, and one
problem line for each failure.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

FEATURE_HIGH = 10.0
# Relative tolerances, set from float64 round-off with wide margin; each
# check fails on the corrupted copies in test_verify.py.
REL_SUM = 1e-12      # sums accumulated in the same order
REL_VALUE = 1e-10    # goodness values summed in another order
REL_STATE = 1e-8     # incrementally maintained inverses and factors
TRACE_FIELDS = ("chosen", "oracle", "realized", "inst_regret", "cum_regret", "final_totals")


def _close(a, b, rel, scale=None) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return False
    if scale is None:
        scale = float(np.max(np.abs(b), initial=0.0)) or 1.0
    return bool(np.max(np.abs(a - b), initial=0.0) <= rel * scale)


# ---------------------------------------------------------------------------
# trace invariants and the aggregate


def trace_problems(tr: dict, n_agents: int) -> list[str]:
    """Invariants one seeded trace must satisfy."""
    out = []
    chosen = tr["chosen"]
    if not np.array_equal(chosen[:n_agents], np.arange(n_agents)):
        out.append("the first N picks are not 0..N-1")
    if chosen.min() < 0 or chosen.max() >= n_agents:
        out.append("a pick is outside 0..N-1")
    inst = tr["inst_regret"]
    if not np.all(np.isfinite(inst)) or np.any(inst < 0.0):
        out.append("an inst_regret is negative or not finite")
    if not _close(tr["cum_regret"], np.cumsum(inst), REL_SUM):
        out.append("cum_regret is not the cumulative sum of inst_regret")
    totals = np.bincount(chosen, weights=tr["realized"], minlength=n_agents)
    if not _close(tr["final_totals"], totals, REL_SUM):
        out.append("final_totals is not bincount(chosen, weights=realized)")
    return out


def read_series_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "t,mean_regret,ci95":
        raise ValueError(f"{path}: not an aggregate series CSV")
    rows = [line.split(",") for line in lines[1:]]
    t = np.array([int(r[0]) for r in rows])
    return t, np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows])


def aggregate_problems(csv_rows: tuple, cum: np.ndarray) -> list[str]:
    """The CSV's mean and CI against the per-seed cumulative regrets."""
    t, mean, ci = csv_rows
    reps, horizon = cum.shape
    if not np.array_equal(t, np.arange(1, horizon + 1)):
        return ["the CSV rounds are not 1..T"]
    want_mean = cum.sum(axis=0) / reps
    dev = cum - want_mean
    want_ci = 1.96 * np.sqrt((dev * dev).sum(axis=0) / (reps - 1)) / math.sqrt(reps)
    out = []
    if not _close(mean, want_mean, REL_VALUE):
        out.append("the CSV mean_regret is not the mean of the per-seed traces")
    if not _close(ci, want_ci, REL_VALUE, scale=max(1.0, float(want_mean.max()))):
        out.append("the CSV ci95 is not 1.96*sd/sqrt(R) of the per-seed traces")
    return out


# ---------------------------------------------------------------------------
# replay


def replay(cfg: dict, seed: int, chosen: np.ndarray) -> dict:
    """Rebuild one run's world from its seed and the trace's picks.

    Streams: ``SeedSequence(seed).spawn(4)`` gives instance, items,
    noise and policy generators. The instance stream draws the agent
    features, then the raw parameter (both uniform on (0, 10)), which is
    normalized to unit length; the item stream draws one item per round;
    the noise stream one Normal(0, R^2) per round when R > 0.
    """
    n, di, da, horizon = cfg["n_agents"], cfg["item_dim"], cfg["agent_dim"], cfg["horizon"]
    d = di + da
    noise_r = cfg["confidence"]["noise_r"]
    inst_rng, item_rng, noise_rng, _ = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    agents = inst_rng.uniform(0.0, FEATURE_HIGH, size=(n, da))
    raw = inst_rng.uniform(0.0, FEATURE_HIGH, size=d)
    theta = raw / math.sqrt(float(np.dot(raw, raw)))
    items = item_rng.uniform(0.0, FEATURE_HIGH, size=(horizon, di))
    noise = noise_rng.normal(0.0, noise_r, size=horizon) if noise_r > 0 else np.zeros(horizon)

    proj = (items @ theta[:di])[:, None] + (agents @ theta[di:])[None, :]
    if cfg["utility_kind"] == "linear":
        truths = proj
    else:
        truths = proj**2 / (FEATURE_HIGH * math.sqrt(d))
    rounds = np.arange(horizon)
    realized = truths[rounds, chosen] + noise
    gained = np.zeros((horizon, n))
    gained[rounds, chosen] = realized
    before = np.vstack([np.zeros((1, n)), np.cumsum(gained, axis=0)[:-1]])
    contexts = np.hstack([items, agents[chosen]])
    return {"truths": truths, "realized": realized, "before": before, "contexts": contexts}


def candidate_values(goodness: dict, before: np.ndarray, adds: np.ndarray) -> np.ndarray:
    """Goodness of every candidate ledger, from the definitions.

    Row t, column i is the goodness of the ledger ``before[t]`` with
    ``adds[t, i]`` granted to agent i.
    """
    n = before.shape[1]
    ledgers = np.repeat(before[:, None, :], n, axis=1)
    diag = np.arange(n)
    ledgers[:, diag, diag] += adds
    kind = goodness["kind"]
    if kind == "weighted-gini":
        if goodness.get("weights") is not None:
            w = np.asarray(goodness["weights"], dtype=np.float64)
        else:
            w = goodness["rho"] ** np.arange(n, dtype=np.float64)
        return np.sort(ledgers, axis=2) @ w
    if kind == "log-nsw":
        return np.log(ledgers).sum(axis=2)
    if kind == "nsw":
        return np.prod(ledgers, axis=2)
    ratios = np.asarray(goodness["target_ratios"], dtype=np.float64)
    return (ledgers / (ratios / ratios.min())).min(axis=2)


def replay_problems(cfg: dict, seed: int, tr: dict) -> tuple[list[str], dict]:
    """Compare a trace with the replayed world and oracle."""
    world = replay(cfg, seed, tr["chosen"])
    out = []
    if not _close(tr["realized"], world["realized"], REL_SUM * 100):
        out.append("realized values differ from the replayed utilities plus noise")
    n = cfg["n_agents"]
    # product-style goodness is undefined on the zero warm-start ledger
    warm = n if cfg["goodness"]["kind"] in ("nsw", "log-nsw") else 0
    if not (np.array_equal(tr["oracle"][:warm], tr["chosen"][:warm])
            and np.all(tr["inst_regret"][:warm] == 0.0)):
        out.append("warm-start rounds do not carry the pick as oracle with zero regret")
    values = candidate_values(cfg["goodness"], world["before"][warm:], world["truths"][warm:])
    rounds = np.arange(values.shape[0])
    best = values.max(axis=1)
    tol = REL_VALUE * np.maximum(1.0, np.abs(best))
    at_oracle = values[rounds, tr["oracle"][warm:]]
    if np.any(at_oracle < best - tol):
        bad = int(np.argmax(at_oracle < best - tol)) + warm + 1
        out.append(f"the trace oracle is not a one-step argmax (first at round {bad})")
    gap = np.maximum(best - values[rounds, tr["chosen"][warm:]], 0.0)
    if np.any(np.abs(gap - tr["inst_regret"][warm:]) > 2 * tol):
        bad = int(np.argmax(np.abs(gap - tr["inst_regret"][warm:]) > 2 * tol)) + warm + 1
        out.append(f"inst_regret differs from the replayed oracle gap (first at round {bad})")
    return out, world


def dominance_failures(learner: list[float], uniform: list[float]) -> list[int]:
    """Repetitions where a learner's final regret is not below uniform's."""
    return [r for r, (mine, theirs) in enumerate(zip(learner, uniform)) if not mine < theirs]


# ---------------------------------------------------------------------------
# estimator state


def rbf_gram(state, xs: np.ndarray) -> np.ndarray:
    diff = xs[:, None, :] - xs[None, :, :]
    return state.signal_var * np.exp(-(diff * diff).sum(axis=2) / (2.0 * state.lengthscale**2))


def ridge_state_problems(state, lam: float, xs: np.ndarray, ys: np.ndarray) -> list[str]:
    """Ridge state after observing rows xs with targets ys."""
    out = []
    prec = state.precision
    m_mat = lam * np.eye(xs.shape[1]) + xs.T @ xs
    if not _close(prec.m_mat, m_mat, REL_STATE):
        out.append("m_mat is not lam*I + sum x x^T of the observed contexts")
    if not _close(prec.m_inv, np.linalg.inv(prec.m_mat), REL_STATE):
        out.append("m_inv does not match np.linalg.inv(m_mat)")
    sign, log_det = np.linalg.slogdet(prec.m_mat)
    if sign <= 0 or not _close(prec.log_det, log_det, REL_STATE):
        out.append("log_det does not match slogdet(m_mat)")
    if not _close(state.theta_hat, np.linalg.solve(m_mat, xs.T @ ys), REL_STATE):
        out.append("theta_hat is not the batch ridge solution")
    return out


def gp_state_problems(state, xs: np.ndarray) -> list[str]:
    """GP state after observing rows xs (raw feature units)."""
    out = []
    n = state.n_obs
    scaled = xs / state.feature_scale
    if n != len(xs) or not _close(state.inputs[:n], scaled, REL_SUM * 100):
        return ["the GP inputs are not the observed contexts"]
    gram = rbf_gram(state, scaled)
    fresh = np.linalg.cholesky(gram + state.noise_var * np.eye(n))
    if not _close(state.chol[:n, :n], fresh, REL_STATE):
        out.append("the GP factor does not match a fresh Cholesky of its Gram matrix")
    sign, log_det = np.linalg.slogdet(np.eye(n) + gram / state.noise_var)
    if sign <= 0 or not _close(state.info_gain, 0.5 * log_det, REL_STATE):
        out.append("info_gain is not 0.5*logdet(I + K/noise_var)")
    return out


def rerun_with_state(entry: dict, seed: int):
    """Run one seed again through the library, keeping its estimator."""
    from ofdsim import policies, simulator
    from ofdsim.estimators import ConfidenceParams
    from ofdsim.goodness import GoodnessSpec

    cfg = entry["config"]
    g = cfg["goodness"]
    spec = GoodnessSpec(
        kind=g["kind"],
        weights=None if g.get("weights") is None else np.asarray(g["weights"]),
        rho=g.get("rho"),
        target_ratios=None if g.get("target_ratios") is None else np.asarray(g["target_ratios"]),
    )
    config = simulator.RunConfig(
        horizon=cfg["horizon"], seed=seed,
        policy=policies.PolicyKind(entry["policy"]["name"], epsilon=entry["policy"]["epsilon"]),
        goodness=spec, n_agents=cfg["n_agents"], item_dim=cfg["item_dim"],
        agent_dim=cfg["agent_dim"], utility_kind=cfg["utility_kind"],
        confidence=ConfidenceParams(dim=cfg["item_dim"] + cfg["agent_dim"], **cfg["confidence"]),
    )
    kept = []
    make = policies.make_estimator

    def keep(*args, **kwargs):
        est = make(*args, **kwargs)
        kept.append(est)
        return est

    policies.make_estimator = keep
    try:
        trace = simulator.run_single(config)
    finally:
        policies.make_estimator = make
    return {f: getattr(trace, f) for f in TRACE_FIELDS}, kept[0]


def state_problems(entry: dict, tr: dict, world: dict, seed: int) -> list[str]:
    fresh, state = rerun_with_state(entry, seed)
    out = [f"a fresh run of seed {seed} differs in {f}" for f in TRACE_FIELDS
           if not np.array_equal(fresh[f], tr[f])]
    if entry["policy"]["name"] in ("gp-ucb", "gp-ts"):
        out += gp_state_problems(state, world["contexts"])
    else:
        out += ridge_state_problems(state, entry["config"]["confidence"]["lam"],
                                    world["contexts"], world["realized"])
    return out


# ---------------------------------------------------------------------------
# one invocation


def load_traces(path: str, n_entries: int) -> list[list[dict]]:
    with np.load(path) as data:
        entries = []
        for k in range(n_entries):
            rows = {f: data[f"e{k}.{f}"] for f in TRACE_FIELDS}
            seeds = data[f"e{k}.seed"]
            entries.append([dict({f: rows[f][r] for f in TRACE_FIELDS}, seed=int(seeds[r]))
                            for r in range(len(seeds))])
    return entries


def check_invocation(inv: dict) -> tuple[set, list[str]]:
    """Returns the failed operations (entry, rep) and the problems."""
    every = {(k, r) for k in range(len(inv["policies"])) for r in range(inv["reps"])}
    csv_dir = os.path.join(inv["dir"], "csv")
    with open(os.path.join(csv_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    entries = manifest["entries"]
    got = [e["policy"]["name"] for e in entries]
    if got != inv["policies"]:
        return every, [f"manifest policies {got} != requested {inv['policies']}"]
    problems: list[str] = []
    for e in entries:
        cfg = e["config"]
        want = dict(inv["shape"], horizon=inv["horizon"])
        have = dict({k: cfg[k] for k in want if k != "goodness"}, goodness=cfg["goodness"]["kind"])
        if have != want or len(e["seeds"]) != inv["reps"]:
            problems.append(f"manifest entry {e['name']} ran {have} x{len(e['seeds'])}, "
                            f"not {want} x{inv['reps']}")
    if problems:
        return every, problems

    failed: set = set()
    traces = load_traces(os.path.join(inv["dir"], "traces.npz"), len(entries))
    finals = {}
    for k, (entry, reps) in enumerate(zip(entries, traces)):
        cfg = entry["config"]
        label = f"{inv['dir']} {entry['csv']}"
        if [tr["seed"] for tr in reps] != entry["seeds"] or len(set(entry["seeds"])) != len(reps):
            problems.append(f"{label}: trace seeds differ from the manifest or repeat")
            failed |= {(k, r) for r in range(len(reps))}
            continue
        for r, tr in enumerate(reps):
            found = trace_problems(tr, cfg["n_agents"])
            if inv["deep"]:
                found_replay, world = replay_problems(cfg, tr["seed"], tr)
                found += found_replay
                if r == 0 and entry["policy"]["name"] != "uniform":
                    found += state_problems(entry, tr, world, tr["seed"])
            problems += [f"{label} seed {tr['seed']}: {p}" for p in found]
            if found:
                failed.add((k, r))
        series = read_series_csv(os.path.join(csv_dir, entry["csv"]))
        found = aggregate_problems(series, np.stack([tr["cum_regret"] for tr in reps]))
        problems += [f"{label}: {p}" for p in found]
        if found:
            failed |= {(k, r) for r in range(len(reps))}
        finals[entry["policy"]["name"]] = (k, [float(tr["cum_regret"][-1]) for tr in reps])

    if "uniform" in finals:
        ku, uniform = finals["uniform"]
        for name, (k, learner) in finals.items():
            if name == "uniform":
                continue
            if entries[k]["seeds"] != entries[ku]["seeds"]:
                problems.append(f"{inv['dir']}: {name} and uniform ran on different seeds")
                failed |= {(k, r) for r in range(len(learner))}
                continue
            for r in dominance_failures(learner, uniform):
                problems.append(f"{inv['dir']}: {name} ends at regret {learner[r]:.4g}, not "
                                f"below uniform's {uniform[r]:.4g} on seed {entries[k]['seeds'][r]}")
                failed.add((k, r))
    return failed, problems


def check_run(invocations: list[dict]) -> tuple[int, list[str]]:
    """Checks every invocation; returns the failed operations and the problems."""
    failed, problems = 0, []
    for inv in invocations:
        ops = len(inv["policies"]) * inv["reps"]
        if not inv["ok"]:
            bad, found = range(ops), [f"{inv['dir']}: the invocation did not exit 0"]
        else:
            try:
                bad, found = check_invocation(inv)
            except (OSError, KeyError, ValueError) as exc:
                bad, found = range(ops), [f"{inv['dir']}: outputs unreadable: {exc!r}"]
        failed += len(bad)
        problems += found
    return failed, problems
