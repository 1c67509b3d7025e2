"""Each benchmark check passes on real output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_verify.py

The outputs come from small ``ofdsim run`` invocations made through
``launch.py``; every corruption is applied to a copy in memory.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import verify  # noqa: E402

SMALL = ["--agents", "4", "--item-dim", "2", "--agent-dim", "2", "--horizon", "150",
         "--reps", "2", "--seed", "5", "--jobs", "1"]
CASES = {
    "ucb-gini": (["--policy", "ucb", "--goodness", "weighted-gini", "--rho", "0.85"], "linear"),
    "ts-lognsw": (["--policy", "ts", "--goodness", "log-nsw"], "linear"),
    "gp-targeted": (["--policy", "gp-ucb", "--goodness", "targeted",
                     "--target-ratios", "0.1,0.2,0.3,0.4", "--utility", "square"], "square"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One small invocation per case, as run.py would plan it."""
    done = {}
    for name, (args, utility) in CASES.items():
        inv_dir = str(tmp_path_factory.mktemp(name))
        cmd = [sys.executable, os.path.join(HERE, "launch.py"),
               "--record", os.path.join(inv_dir, "record.json"),
               "--traces", os.path.join(inv_dir, "traces.npz"),
               "--", "run", *args, *SMALL, "--out", os.path.join(inv_dir, "csv")]
        subprocess.run(cmd, check=True, capture_output=True)
        goodness = args[args.index("--goodness") + 1]
        done[name] = {
            "dir": inv_dir, "ok": True, "policies": [args[1]], "horizon": 150, "reps": 2,
            "shape": {"n_agents": 4, "item_dim": 2, "agent_dim": 2, "utility_kind": utility,
                      "goodness": goodness},
            "deep": True,
        }
    return done


def load(inv):
    with open(os.path.join(inv["dir"], "csv", "manifest.json"), encoding="utf-8") as fh:
        entry = json.load(fh)["entries"][0]
    reps = verify.load_traces(os.path.join(inv["dir"], "traces.npz"), 1)[0]
    return entry, reps


@pytest.mark.parametrize("case", sorted(CASES))
def test_real_output_passes_every_check(outputs, case):
    failed, problems = verify.check_invocation(outputs[case])
    assert problems == [] and failed == set()


@pytest.mark.parametrize("field, change, message", [
    ("chosen", lambda a: a.__setitem__(0, 1), "first N picks"),
    ("inst_regret", lambda a: a.__setitem__(60, -1e-3), "negative"),
    ("cum_regret", lambda a: a.__setitem__(100, a[100] + 1e-6), "cumulative sum"),
    ("final_totals", lambda a: a.__setitem__(2, a[2] + 1e-6), "bincount"),
])
def test_trace_invariants_fail_on_corruption(outputs, field, change, message):
    _, reps = load(outputs["ucb-gini"])
    bad = copy.deepcopy(reps[0])
    change(bad[field])
    assert any(message in p for p in verify.trace_problems(bad, 4))


def test_aggregate_fails_on_corruption(outputs):
    inv = outputs["ucb-gini"]
    entry, reps = load(inv)
    t, mean, ci = verify.read_series_csv(os.path.join(inv["dir"], "csv", entry["csv"]))
    cum = np.stack([tr["cum_regret"] for tr in reps])
    assert verify.aggregate_problems((t, mean, ci), cum) == []
    shifted = mean.copy()
    shifted[-1] *= 1 + 1e-7
    assert any("mean_regret" in p for p in verify.aggregate_problems((t, shifted, ci), cum))
    widened = ci.copy()
    widened[-1] *= 1.001
    assert any("ci95" in p for p in verify.aggregate_problems((t, mean, widened), cum))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("field, message", [
    ("realized", "realized"), ("oracle", "oracle"), ("inst_regret", "inst_regret"),
])
def test_replay_fails_on_corruption(outputs, case, field, message):
    entry, reps = load(outputs[case])
    tr = copy.deepcopy(reps[0])
    cfg = entry["config"]
    found, world = verify.replay_problems(cfg, tr["seed"], tr)
    assert found == []
    t = 120
    values = verify.candidate_values(cfg["goodness"], world["before"][t:t + 1],
                                     world["truths"][t:t + 1])
    if field == "realized":
        tr["realized"][t] += 1e-6
    elif field == "oracle":
        tr["oracle"][t] = int(np.argmin(values[0]))
        assert values[0].min() < values[0].max()
    else:
        tr["inst_regret"][t] += 1e-6
    assert any(message in p for p in verify.replay_problems(cfg, tr["seed"], tr)[0])


def test_dominance_fails_when_uniform_is_not_beaten():
    assert verify.dominance_failures([5.0, 9.0], [7.0, 8.0]) == [1]
    assert verify.dominance_failures([5.0, 8.0], [7.0, 8.0]) == [1]
    assert verify.dominance_failures([5.0, 7.0], [7.0, 8.0]) == []


def _scale(arr, index):
    arr[index] *= 1 + 1e-6


@pytest.mark.parametrize("corrupt, message", [
    (lambda s: _scale(s.precision.m_mat, (1, 1)), "m_mat"),
    (lambda s: _scale(s.precision.m_inv, (1, 1)), "m_inv"),
    (lambda s: setattr(s.precision, "log_det", s.precision.log_det * (1 + 1e-6)), "log_det"),
    (lambda s: _scale(s.theta_hat, 1), "theta_hat"),
])
def test_ridge_state_fails_on_corruption(outputs, corrupt, message):
    entry, reps = load(outputs["ucb-gini"])
    tr = reps[0]
    _, world = verify.replay_problems(entry["config"], tr["seed"], tr)
    _, state = verify.rerun_with_state(entry, tr["seed"])
    lam = entry["config"]["confidence"]["lam"]
    xs, ys = world["contexts"], world["realized"]
    assert verify.ridge_state_problems(state, lam, xs, ys) == []
    bad = copy.deepcopy(state)
    corrupt(bad)
    assert any(message in p for p in verify.ridge_state_problems(bad, lam, xs, ys))


@pytest.mark.parametrize("attr, message", [("chol", "Cholesky"), ("info_gain", "info_gain")])
def test_gp_state_fails_on_corruption(outputs, attr, message):
    entry, reps = load(outputs["gp-targeted"])
    tr = reps[0]
    _, world = verify.replay_problems(entry["config"], tr["seed"], tr)
    _, state = verify.rerun_with_state(entry, tr["seed"])
    assert verify.gp_state_problems(state, world["contexts"]) == []
    bad = copy.deepcopy(state)
    if attr == "chol":
        bad.chol[40, 20] += 1e-6 * np.abs(bad.chol).max()
    else:
        bad.info_gain *= 1 + 1e-6
    assert any(message in p for p in verify.gp_state_problems(bad, world["contexts"]))


def test_fresh_run_must_match_the_trace(outputs):
    entry, reps = load(outputs["ts-lognsw"])
    tr = copy.deepcopy(reps[0])
    _, world = verify.replay_problems(entry["config"], tr["seed"], tr)
    assert verify.state_problems(entry, tr, world, tr["seed"]) == []
    tr["chosen"][-1] = (tr["chosen"][-1] + 1) % 4
    assert any("differs in chosen" in p
               for p in verify.state_problems(entry, tr, world, tr["seed"]))


@pytest.mark.parametrize("corrupt, message", [
    (lambda m: m["entries"][0]["config"].__setitem__("horizon", 149), "ran"),
    (lambda m: m["entries"][0]["seeds"].reverse(), "trace seeds"),
])
def test_manifest_fails_on_corruption(outputs, tmp_path, corrupt, message):
    inv = dict(outputs["ucb-gini"], dir=str(tmp_path / "copy"))
    shutil.copytree(outputs["ucb-gini"]["dir"], inv["dir"])
    path = os.path.join(inv["dir"], "csv", "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    corrupt(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    failed, problems = verify.check_invocation(inv)
    assert failed == {(0, 0), (0, 1)}
    assert any(message in p for p in problems)


def test_an_invocation_that_did_not_exit_0_fails_the_run(outputs):
    good = outputs["ucb-gini"]
    assert verify.check_run([good]) == (0, [])
    failed, problems = verify.check_run([good, dict(good, ok=False)])
    assert failed == 2
    assert any("did not exit 0" in p for p in problems)
