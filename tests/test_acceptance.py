"""End-to-end validation gates for the whole package.

Each test covers one numbered criterion and prints a single
``[criterion NN] PASS/FAIL`` line with the measured quantities, so
``pytest -s tests/test_acceptance.py`` doubles as a report.  A passing
line must equal the line recorded for it in the byte corpus
(``corpus.json``), with criterion 01's timing left out, so a change
that moves a measured quantity fails here.  The tests
use exact oracles where the algebra permits and paired-seed Monte Carlo
comparisons everywhere else; seeds are fixed, so every number below is
reproducible.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from ofdsim import linalg
from ofdsim.cli import expand_preset
from ofdsim.estimators import (
    ConfidenceParams,
    alpha_t,
    init_ridge,
    ridge_update,
    stack_ridge,
)
from ofdsim.goodness import GoodnessSpec, weights_from_rho
from ofdsim.policies import PolicyKind
from ofdsim.simulator import (
    RunConfig,
    _mean_ci,
    aggregate,
    gini_coefficient,
    min_ratio,
    run_batch,
    run_single,
)

import corpus
from oracles import (
    check_local_properties,
    evaluate,
    inv_norm,
    opposite_order_check,
    theoretical_bound,
)


def _report(num: int, ok: bool, detail: str) -> bool:
    """Print the criterion's line; a passing line must be the one the
    byte corpus records for it, timings aside."""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if ok:
        assert corpus.masked(line) == corpus.criterion(num), "the line moved from its record"
    return ok


def _paired_ci(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean and 95% CI half-width of the per-seed differences a - b.

    Both arrays are indexed by seed, so each difference compares two runs
    on the same instance and item stream; the cross-instance variance
    that a sum of two marginal CIs would count cancels out.
    """
    return _mean_ci(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def _config(policy: str, seed: int = 0, noise_r: float | None = None, **kwargs) -> RunConfig:
    cfg = dict(
        horizon=1000,
        n_agents=10,
        item_dim=2,
        agent_dim=2,
        goodness=GoodnessSpec("weighted-gini", rho=0.85),
    )
    cfg.update(kwargs)
    if noise_r is not None:
        cfg["confidence"] = ConfidenceParams.defaults(
            cfg["item_dim"] + cfg["agent_dim"], noise_r=noise_r
        )
    return RunConfig(seed=seed, policy=PolicyKind(policy), **cfg)


@pytest.fixture(scope="module")
def pool_map():
    """Map a top-level function over tuples of its arguments, such as
    run_batch over (config, seeds) pairs, on one spawned worker per core,
    shared by this module's tests; results come back in input order.

    Each run owns its seeded streams, so a result does not depend on the
    process that computed it (criterion 11 checks this for the CLI).
    Spawned workers import the package afresh instead of forking the
    test process. They run OpenBLAS on one thread each: with one worker
    per core, more threads oversubscribe the cores, which tripled
    criterion 10's GP solves on a 2-core host. multiprocessing.Pool
    starts every worker when it is built, so the thread setting is in
    their environment and not left in this process's.
    """
    context = multiprocessing.get_context("spawn")
    with mock.patch.dict(os.environ, OPENBLAS_NUM_THREADS="1"):
        workers = context.Pool(os.cpu_count())
    with workers:
        yield lambda fn, items: workers.starmap(fn, items, chunksize=1)


def _groups(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _run_groups(pool_map, groups: list[tuple[RunConfig, list[int]]]) -> list:
    """Traces of every group's runs, in input order; each group, a config
    and its seeds, runs as one lockstep batch on a worker. Each criterion
    passes at least two groups, so both workers get runs."""
    return [trace for batch in pool_map(run_batch, groups) for trace in batch]


def test_01_incremental_inverse_tracks_direct_inverse():
    rng = np.random.default_rng(20260814)
    d = 20
    state = linalg.init_precision(d, lam=1.0)
    vectors = rng.normal(size=(1000, d))
    t0 = time.perf_counter()
    for v in vectors:
        state = linalg.rank_one_update(state, v)
    elapsed = time.perf_counter() - t0
    direct = np.linalg.inv(np.eye(d) + vectors.T @ vectors)
    err = float(np.max(np.abs(state.m_inv - direct)))
    ok = err < 1e-8 and elapsed < 1.0
    assert _report(1, ok, f"max inverse error {err:.2e}, {elapsed * 1e3:.0f} ms for 1000 updates"), (
        f"error {err}, elapsed {elapsed}"
    )


def test_02_incremental_ridge_matches_batch_solve():
    rng = np.random.default_rng(7)
    d, n = 5, 500
    xs = rng.uniform(0.0, 10.0, size=(n, d))
    ys = xs @ rng.normal(size=d) + rng.normal(scale=0.1, size=n)
    lam = 0.01
    state = init_ridge(d, lam=lam)
    for x, y in zip(xs, ys):
        state = ridge_update(state, x, float(y))
    batch = np.linalg.solve(lam * np.eye(d) + xs.T @ xs, xs.T @ ys)
    err = float(np.max(np.abs(state.theta_hat - batch)))
    ok = err < 1e-8
    assert _report(2, ok, f"theta mismatch {err:.2e} after {n} observations"), f"error {err}"


def test_03_goodness_axioms_hold_under_randomized_trials():
    rng = np.random.default_rng(31)
    trials = 100_000
    specs = {
        "weighted-gini": GoodnessSpec("weighted-gini", rho=0.6),
        "nsw": GoodnessSpec("nsw"),
        "log-nsw": GoodnessSpec("log-nsw"),
        "targeted": GoodnessSpec("targeted", target_ratios=np.array([0.2, 0.5, 0.3])),
    }
    reports = {}
    for name, spec in specs.items():
        u = rng.uniform(0.5, 50.0, size=3)
        reports[name] = check_local_properties(
            spec, u, trials=trials, rng=rng, u_min=0.1, u_max=100.0
        )
    order_ok = all(
        opposite_order_check(
            np.sort(rng.uniform(0.0, 1.0, size=2 + trial % 5))[::-1],
            rng.uniform(0.1, 100.0, size=2 + trial % 5),
        )
        for trial in range(1000)
    )
    bad = sorted(name for name, rep in reports.items() if not rep.ok)
    ok = not bad and order_ok
    ratio = max(rep.worst_lipschitz_ratio for rep in reports.values())
    assert _report(
        3,
        ok,
        f"4 kinds x {trials} trials clean, worst Lipschitz ratio {ratio:.6f}, "
        "order check 1000/1000",
    ), f"violations in {bad}, order_ok={order_ok}"


def test_04_trace_oracle_matches_naive_recomputation():
    item_dim, agent_dim, n_agents, horizon = 2, 2, 3, 50
    w = weights_from_rho(0.85, n_agents)
    mismatches = 0
    for seed in range(100):
        trace = run_single(_config(
            "ucb", seed, noise_r=0.0,
            horizon=horizon, n_agents=n_agents,
            item_dim=item_dim, agent_dim=agent_dim,
        ))
        # replay the documented stream layout from scratch
        inst_ss, item_ss, _noise, _policy = np.random.SeedSequence(seed).spawn(4)
        inst_rng = np.random.default_rng(inst_ss)
        item_rng = np.random.default_rng(item_ss)
        agent_features = inst_rng.uniform(0.0, 10.0, size=(n_agents, agent_dim))
        raw = inst_rng.uniform(0.0, 10.0, size=item_dim + agent_dim)
        theta = raw / np.linalg.norm(raw)
        totals = [0.0] * n_agents
        for t in range(horizon):
            item = item_rng.uniform(0.0, 10.0, size=item_dim)
            truths = [
                float(np.concatenate([item, agent_features[n]]) @ theta)
                for n in range(n_agents)
            ]
            best_val, best = None, -1
            for n in range(n_agents):
                cand = list(totals)
                cand[n] += truths[n]
                val = sum(wk * uk for wk, uk in zip(w, sorted(cand)))
                if best_val is None or val > best_val:
                    best_val, best = val, n
            chosen = int(trace.chosen[t])
            # the oracle index must agree exactly; the realized value only
            # guards against stream misalignment, so it gets float slack
            if int(trace.oracle[t]) != best or abs(trace.realized[t] - truths[chosen]) > 1e-9:
                mismatches += 1
            totals[chosen] += trace.realized[t]
    ok = mismatches == 0
    assert _report(
        4, ok, f"100 noiseless runs, {mismatches} oracle/value mismatches over 5000 rounds"
    ), f"{mismatches} mismatches"


COVERAGE_DIM = 10


def _coverage_run(seed: int, horizon: int = 2000) -> tuple[int, object]:
    """The unstacked form of one coverage run seeded by
    SeedSequence([515, seed]): the first round whose ridge confidence
    ellipsoid misses theta, 0 when every round covers it, and the run's
    ridge state after the horizon."""
    params = ConfidenceParams.defaults(COVERAGE_DIM)
    rng = np.random.default_rng(np.random.SeedSequence([515, seed]))
    raw = rng.uniform(0.0, 10.0, size=COVERAGE_DIM)
    theta = raw / np.linalg.norm(raw)
    state = init_ridge(COVERAGE_DIM, lam=params.lam)
    missed = 0
    for t in range(1, horizon + 1):
        x = rng.uniform(0.0, 10.0, size=COVERAGE_DIM)
        width = alpha_t(params, t) * inv_norm(state.precision, x)
        if not missed and abs(float(x @ (state.theta_hat - theta))) > width:
            missed = t
        y = float(x @ theta) + rng.normal(scale=params.noise_r)
        state = ridge_update(state, x, y)
    return missed, state


def _coverage_runs(seeds, horizon: int = 2000) -> tuple[np.ndarray, object]:
    """_coverage_run of every seed, stepped in lockstep as one stacked
    ridge state: each run draws from its own generator what it draws
    alone, and each per-run product keeps the unstacked form's shape, so
    its bits. Returns the first missed rounds (R,) and the stacked state."""
    params = ConfidenceParams.defaults(COVERAGE_DIM)
    rngs = [np.random.default_rng(np.random.SeedSequence([515, seed])) for seed in seeds]
    # a 1-D norm is a BLAS dot, whose bits norm(axis=1) does not give
    theta = np.array([raw / np.linalg.norm(raw)
                      for raw in (rng.uniform(0.0, 10.0, size=COVERAGE_DIM) for rng in rngs)])
    state = stack_ridge([init_ridge(COVERAGE_DIM, lam=params.lam) for _ in seeds])
    missed = np.zeros(len(seeds), dtype=np.int64)

    def dots(a, b):
        # one 1-D dot product per run, as x @ y takes it
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]

    for t in range(1, horizon + 1):
        x = np.array([rng.uniform(0.0, 10.0, size=COVERAGE_DIM) for rng in rngs])
        q = dots(np.matmul(x[:, None, :], state.precision.m_inv)[:, 0], x)
        width = alpha_t(params, t) * np.sqrt(np.maximum(q, 0.0))
        miss = np.abs(dots(x, state.theta_hat - theta)) > width
        missed[miss & (missed == 0)] = t
        y = dots(x, theta) + np.array([rng.normal(scale=params.noise_r) for rng in rngs])
        ridge_update(state, x, y)
    return missed, state


def test_05_confidence_ellipsoid_coverage():
    runs = 200
    missed, _ = _coverage_runs(range(runs))
    covered = int(np.count_nonzero(missed == 0))
    ok = covered >= int(0.95 * runs)
    assert _report(5, ok, f"{covered}/{runs} runs fully covered (need >= {int(0.95 * runs)})"), (
        f"covered {covered}"
    )


def test_coverage_runs_in_lockstep_equal_the_unstacked_form(monkeypatch):
    # the 200 runs of criterion 05 over a shorter horizon, with widths cut to
    # a fifth so that some runs miss, and go on after their miss
    horizon = 150
    width = alpha_t
    monkeypatch.setitem(globals(), "alpha_t", lambda params, t: 0.2 * width(params, t))
    missed, stacked = _coverage_runs(range(200), horizon)
    assert 0 < np.count_nonzero(missed) < 200
    for seed in range(200):
        alone_missed, alone = _coverage_run(seed, horizon)
        assert missed[seed] == alone_missed, seed
        pairs = [(stacked.precision.m_mat[seed], alone.precision.m_mat),
                 (stacked.precision.m_inv[seed], alone.precision.m_inv),
                 (stacked.precision.log_det[seed], alone.precision.log_det),
                 (stacked.moment[seed], alone.moment), (stacked.theta_hat[seed], alone.theta_hat)]
        for k, (got, want) in enumerate(pairs):
            assert np.array_equal(got, want), (seed, k)


def test_06_regret_stays_under_theoretical_bound(pool_map):
    runs, horizon, d = 100, 2000, 10
    params = ConfidenceParams.defaults(d)
    bounds = np.array([theoretical_bound(params, d, 1.0, t) for t in range(1, horizon + 1)])
    config = _config("ucb", horizon=horizon, item_dim=5, agent_dim=5)
    traces = _run_groups(pool_map, [(config, half)
                                    for half in _groups(list(range(runs)), runs // 2)])
    dominated = sum(bool(np.all(trace.cum_regret <= bounds)) for trace in traces)
    ok = dominated >= 95
    assert _report(6, ok, f"{dominated}/{runs} runs dominated at every round (need >= 95)"), (
        f"dominated {dominated}"
    )


def test_07_headline_regret_ordering_and_sublinearity(pool_map):
    """TS and UCB beat greedy and greedy beats uniform on paired seeds;
    UCB and TS are sublinear, uniform is linear.

    The former clause ``ts <= ucb`` is gone on purpose: nothing documents
    it, and the pinned TS scale beta_t = R*sqrt(9*d*log(t/delta)) (see
    test_estimators.py::test_beta_closed_form) is about twice alpha_t at
    T=1e4, d=4 (2.10 vs 1.06), so TS explores more and ends above UCB on
    every paired seed.  The line prints that ts - ucb gap; the gate asks
    TS to beat greedy instead.  Orderings are paired-seed differences
    checked against their own 95% CI.
    """
    horizon, reps = 10_000, 20
    names = ("ucb", "ts", "greedy", "uniform")
    runs = _run_groups(pool_map, [(_config(name, horizon=horizon), range(reps))
                                  for name in names])
    traces = dict(zip(names, _groups(runs, reps)))
    finals = {k: np.array([tr.cum_regret[-1] for tr in v]) for k, v in traces.items()}
    mci = {k: _mean_ci(v) for k, v in finals.items()}
    failures = []
    gaps = []
    for low, high in (("ts", "greedy"), ("ucb", "greedy"), ("greedy", "uniform")):
        gap, ci = _paired_ci(finals[high], finals[low])
        gaps.append(f"{high}-{low} {gap:.1f}+-{ci:.1f}")
        if not gap > ci:
            failures.append(f"{high}-{low} gap {gap:.1f} <= paired ci {ci:.1f}")
    for name in ("ucb", "ts"):
        curve = aggregate(traces[name]).mean_regret
        late, early = curve[horizon - 1] / horizon, curve[999] / 1000
        if not late < 0.5 * early:
            failures.append(f"{name} per-round rate ratio {late / early:.2f} >= 0.5")
    curve = aggregate(traces["uniform"]).mean_regret
    t = np.arange(1, horizon + 1)
    half = horizon // 2
    slope_1 = np.polyfit(t[:half], curve[:half], 1)[0]
    slope_2 = np.polyfit(t[half:], curve[half:], 1)[0]
    if not slope_2 / slope_1 >= 0.8:
        failures.append(f"uniform slope ratio {slope_2 / slope_1:.2f} < 0.8")
    ts_ucb = _paired_ci(finals["ts"], finals["ucb"])
    detail = (
        ", ".join(f"{k} {mci[k][0]:.1f}+-{mci[k][1]:.1f}" for k in finals)
        + "; paired gaps " + ", ".join(gaps)
        + f"; ts-ucb {ts_ucb[0]:.2f}+-{ts_ucb[1]:.2f} (not gated)"
    )
    if failures:
        detail += " | " + "; ".join(failures)
    assert _report(7, not failures, detail), "; ".join(failures)


def test_08_regret_scales_monotonically_with_agents_and_dimension(pool_map):
    reps, horizon = 20, 1000
    goodness = GoodnessSpec("weighted-gini", rho=1.0)
    sweeps = {
        "agents": [dict(n_agents=n, item_dim=20, agent_dim=20) for n in (5, 10, 15, 20, 25)],
        "dims": [dict(item_dim=d // 2, agent_dim=d - d // 2) for d in (10, 20, 30, 40, 50)],
    }
    points = [(policy, axis, point) for policy in ("ucb", "ts")
              for axis, grid in sweeps.items() for point in grid]
    runs = _run_groups(pool_map, [
        (_config(policy, horizon=horizon, goodness=goodness, **point), range(reps))
        for policy, _, point in points
    ])
    mean_finals: dict[tuple[str, str], list[float]] = {}
    for (policy, axis, _), group in zip(points, _groups(runs, reps)):
        finals = [tr.cum_regret[-1] for tr in group]
        mean_finals.setdefault((policy, axis), []).append(float(np.mean(finals)))
    failures = []
    details = []
    for policy in ("ucb", "ts"):
        agent_finals, dim_finals = mean_finals[policy, "agents"], mean_finals[policy, "dims"]
        rho_n = stats.spearmanr(np.arange(5), agent_finals).statistic
        rho_d = stats.spearmanr(np.arange(5), dim_finals).statistic
        details.append(f"{policy} spearman: agents {rho_n:.2f}, dims {rho_d:.2f}")
        if rho_n < 0.9:
            failures.append(f"{policy} agent sweep spearman {rho_n:.2f} < 0.9")
        if rho_d < 0.9:
            failures.append(f"{policy} dim sweep spearman {rho_d:.2f} < 0.9")
    assert _report(8, not failures, "; ".join(details)), "; ".join(failures)


def test_09_fairness_knob_trades_welfare_for_equality(pool_map):
    """Raising rho trades equality (gini, min_ratio) for welfare (USW).

    Two former clauses are gone on purpose:

    - Spearman of gini >= 0.9 and of min_ratio <= -0.9 over the grid.
      For rho <= 0.93 (14 of the 20 points) UCB equalises the ledgers:
      gini sits on a floor near 0.0017 and min_ratio at 1/N, so those
      ranks order Monte Carlo noise.  Now the paired rho=1 minus rho=0
      difference must have the stated sign beyond its 95% CI, and no
      adjacent grid step may reverse either metric beyond a one-sided
      Bonferroni 95% paired bound over the steps.
    - "uniform USW below UCB at every point".  Equalising totals gives
      items to agents of lower utility, so below rho 0.94 UCB's USW is
      under uniform's; that is the trade-off itself.  Now UCB must beat
      uniform on each point's own goodness beyond the paired CI, and on
      USW at rho=1, where the goodness is USW.
    """
    entries = [
        e for e in expand_preset("fig3-rho-sweep", reps=20, base_seed=0)
        if e.proto.policy.name in ("ucb", "uniform")
    ]
    runs = _run_groups(pool_map, [(entry.proto, entry.seeds) for entry in entries])
    finals = {"ucb": {}, "uniform": {}}
    specs = {}
    for entry, group in zip(entries, _groups(runs, len(entries[0].seeds))):
        rho = float(entry.name.split("-r")[-1]) / 100.0
        specs[rho] = entry.proto.goodness
        finals[entry.proto.policy.name][rho] = np.array([tr.final_totals for tr in group])
    ucb, uniform = finals["ucb"], finals["uniform"]
    assert list(uniform) == list(ucb)
    rhos = list(ucb)
    usw = {rho: rows.sum(axis=1) for rho, rows in ucb.items()}
    gini = {rho: np.array([gini_coefficient(r) for r in rows]) for rho, rows in ucb.items()}
    mins = {rho: np.array([min_ratio(r) for r in rows]) for rho, rows in ucb.items()}
    failures = []

    rho_usw = stats.spearmanr(rhos, [usw[rho].mean() for rho in rhos]).statistic
    if rho_usw < 0.9:
        failures.append(f"usw spearman {rho_usw:.2f} < 0.9")

    # one-sided Bonferroni 95% bound over the grid steps, in units of a
    # step's own 95% CI half-width
    limit = stats.norm.ppf(1.0 - 0.05 / (len(rhos) - 1)) / 1.96
    ends, worst = {}, {}
    for name, metric, direction in (("gini", gini, 1.0), ("min_ratio", mins, -1.0)):
        gap, ci = ends[name] = _paired_ci(metric[rhos[-1]], metric[rhos[0]])
        if not direction * gap > ci:
            failures.append(f"{name} rho 1 - rho 0 {gap:+.4f} within paired ci {ci:.4f}")
        worst[name] = -np.inf
        for lo, hi in zip(rhos, rhos[1:]):
            step, ci = _paired_ci(metric[hi], metric[lo])
            reversal = -direction * step
            # steps whose runs coincide on every seed have ci 0 and no reversal
            if ci > 0.0:
                worst[name] = max(worst[name], reversal / ci)
            if reversal > limit * ci:
                failures.append(f"{name} reverses from rho {lo} to {hi}: {step:+.2e}+-{ci:.1e}")

    tightest = (np.inf, None, 0.0, 0.0)  # (gap - ci, rho, gap, ci)
    for rho in rhos:
        gap, ci = _paired_ci(
            [evaluate(specs[rho], row) for row in ucb[rho]],
            [evaluate(specs[rho], row) for row in uniform[rho]],
        )
        tightest = min(tightest, (gap - ci, rho, gap, ci))
        if not gap > ci:
            failures.append(f"rho {rho}: ucb-uniform goodness {gap:.1f} <= paired ci {ci:.1f}")
    usw_gap, usw_ci = _paired_ci(usw[rhos[-1]], uniform[rhos[-1]].sum(axis=1))
    if not usw_gap > usw_ci:
        failures.append(f"rho 1: ucb-uniform usw {usw_gap:.1f} <= paired ci {usw_ci:.1f}")

    detail = (
        f"ucb usw spearman {rho_usw:.2f}; rho 1 - rho 0: "
        f"gini {ends['gini'][0]:+.3f}+-{ends['gini'][1]:.3f}, "
        f"min_ratio {ends['min_ratio'][0]:+.4f}+-{ends['min_ratio'][1]:.4f}; "
        f"worst step reversal in step CIs: gini {worst['gini']:.2f}, "
        f"min_ratio {worst['min_ratio']:.2f} (limit {limit:.2f}); "
        f"ucb-uniform goodness tightest at rho {tightest[1]}: "
        f"{tightest[2]:.0f}+-{tightest[3]:.0f}; "
        f"ucb-uniform usw at rho 1: {usw_gap:.0f}+-{usw_ci:.0f}"
    )
    if failures:
        detail += " | " + "; ".join(failures)
    assert _report(9, not failures, detail), "; ".join(failures)


def test_10_gp_beats_linear_model_on_square_utilities(pool_map):
    """GP-UCB ends below the misspecified linear UCB on paired seeds.

    The former gate compared the gap with the sum of the two marginal
    CIs, which counts the cross-instance variance that the shared seeds
    cancel.  The paired gap is the statistic that matches the design;
    its margin over the CI is thin, so the line prints it.
    """
    reps, horizon = 20, 500
    kw = dict(horizon=horizon, utility_kind="square")
    # halves of each policy's seeds, so the GP runs are shared by both workers
    runs = _run_groups(pool_map, [
        (_config(name, **kw), half)
        for name in ("gp-ucb", "ucb") for half in _groups(list(range(reps)), reps // 2)
    ])
    gp, lin = (np.array([tr.cum_regret[-1] for tr in group]) for group in _groups(runs, reps))
    (m_gp, ci_gp), (m_lin, ci_lin) = _mean_ci(gp), _mean_ci(lin)
    gap, ci = _paired_ci(lin, gp)
    ok = gap > ci
    assert _report(
        10, ok,
        f"square utilities: gp-ucb {m_gp:.1f}+-{ci_gp:.1f} vs ucb {m_lin:.1f}+-{ci_lin:.1f}; "
        f"paired ucb-gp {gap:.2f}+-{ci:.2f} (margin {gap - ci:.2f}), "
        f"gp ahead on {int(np.sum(gp < lin))}/{reps} seeds",
    ), f"paired gap {gap:.2f} <= paired ci {ci:.2f}"


def test_11_cli_output_is_bitwise_deterministic(tmp_path: Path):
    def invoke(out: Path, jobs: int) -> dict[str, bytes]:
        cmd = [
            sys.executable, "-m", "ofdsim", "run", "--preset", "fig1-linear-d4",
            "--reps", "2", "--seed", "3", "--jobs", str(jobs), "--out", str(out),
        ]
        # the child imports the package this suite imported, installed or not
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linalg.__file__)))
        res = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    first = invoke(tmp_path / "a", jobs=1)
    second = invoke(tmp_path / "b", jobs=1)
    fanned = invoke(tmp_path / "c", jobs=8)
    ok = bool(first) and first == second == fanned
    assert _report(
        11, ok, f"{len(first)} csv files byte-identical across reruns and --jobs 1 vs 8"
    ), "csv outputs differ"
