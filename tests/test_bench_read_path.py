"""The benchmark's read path, on small runs: launch.py runs the CLI with
the tracer installed, then the checks of every output and the per-layer
metrics are computed as perfbench/run.py computes them after its timed
passes. Whatever raises there, reads a function that is gone or puts a
non-finite number in the result keeps run.py from ending on a strict-JSON
result line."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import verify  # noqa: E402

SMALL = ["--agents", "4", "--item-dim", "2", "--agent-dim", "2", "--horizon", "150",
         "--reps", "2", "--seed", "5"]
GINI = ["--goodness", "weighted-gini", "--rho", "0.85"]
# name: (policy, utility, jobs)
INVOCATIONS = {
    "ucb-jobs-1": ("ucb", "linear", 1),
    "ucb-jobs-2": ("ucb", "linear", 2),
    "gp-ucb-square": ("gp-ucb", "square", 1),
}


def test_traced_runs_pass_every_check_and_yield_every_metric(tmp_path):
    invocations, span_files = [], []
    for name, (policy, utility, jobs) in INVOCATIONS.items():
        inv_dir = tmp_path / name
        cmd = [sys.executable, str(BENCH / "launch.py"),
               "--record", str(inv_dir / "record.json"), "--traces", str(inv_dir / "traces.npz"),
               "--spans", str(inv_dir / "spans.npz"), "--",
               "run", "--policy", policy, *GINI, "--utility", utility, *SMALL,
               "--jobs", str(jobs), "--out", str(inv_dir / "csv")]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        assert done.returncode == 0, done.stderr
        invocations.append({
            "dir": str(inv_dir), "ok": True, "policies": [policy], "horizon": 150, "reps": 2,
            "shape": {"n_agents": 4, "item_dim": 2, "agent_dim": 2, "utility_kind": utility,
                      "goodness": "weighted-gini"},
            "deep": True,
        })
        span_files.append(str(inv_dir / "spans.npz"))

    failed, problems = verify.check_run(invocations)
    assert (failed, problems) == (0, [])
    metrics, absent = tracer.layer_metrics(tracer.Spans.load(span_files))
    assert absent == []
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {metric["name"] for metric in declared} <= set(metrics)
    result = {"correct": not problems, "attempted": 6, "failed": failed, "metrics": metrics}
    assert json.loads(json.dumps(result, allow_nan=False)) == result
