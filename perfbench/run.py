"""The ofdsim benchmark: seeded workloads run through the ``ofdsim`` CLI.

    python3 perfbench/run.py --workload ridge-d4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src/``. One run makes whole passes of a workload's CLI
invocations, checks every output afterwards (``verify.py``), and prints
one JSON object as the last line of standard output.

With ``--trace 0`` the run makes a fixed number of passes, sized so that
they take about ``--seconds`` on the reference machine (README,
"Steadiness"). The metrics are the end-to-end ones: ``setup_s`` and
``peak_rss_mb``, medians over the run's samples, and ``rounds_per_s``
and ``cpu_us_per_round`` from each invocation's best pass. With
``--trace 1`` the workload runs at ``--jobs 1``: one untraced pass, then
traced passes (``tracer.py``) until ``--seconds`` have gone by, and the
metrics are the per-layer ones; the tracing overhead is printed.

The BLAS thread variables are set to 1 in this process, before numpy is
imported, and so in every CLI process it starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED)
sys.path[:0] = [HERE, SRC]

import tracer  # noqa: E402
import verify  # noqa: E402

# A run is stopped this many seconds after --seconds have gone by.
MARGIN_S = 140.0

# Unequal target shares for the targeted goodness at N=25: agent n asks
# for a share proportional to 1 + (n mod 5). The shares sum to 1 within
# the 1e-9 the CLI allows.
TARGET_RATIOS = ",".join(repr((1 + n % 5) / 75) for n in range(25))


@dataclass
class Invocation:
    """One ``ofdsim run`` command line and what it must produce."""

    args: list[str]
    policies: tuple[str, ...]
    horizon: int
    reps: int
    shape: dict

    @property
    def ops(self) -> int:
        return len(self.policies) * self.reps

    @property
    def rounds(self) -> int:
        return self.ops * self.horizon


@dataclass
class Workload:
    jobs: int
    invocations: list[Invocation]
    # wall seconds of one untraced pass on the reference machine
    pass_s: float

    def passes(self, seconds: float) -> int:
        """The number of untraced passes a run of ``seconds`` makes."""
        return max(2, round(seconds / self.pass_s))


def _wide_d40() -> list[Invocation]:
    shape = {"n_agents": 25, "item_dim": 20, "agent_dim": 20, "utility_kind": "linear"}
    horizon, reps = 1500, 2
    out = []
    for kind, extra in (("log-nsw", []), ("targeted", ["--target-ratios", TARGET_RATIOS])):
        for policy in ("ucb", "ts"):
            args = ["run", "--policy", policy, "--goodness", kind, *extra,
                    "--agents", "25", "--item-dim", "20", "--agent-dim", "20",
                    "--horizon", str(horizon), "--reps", str(reps)]
            out.append(Invocation(args, (policy,), horizon, reps, dict(shape, goodness=kind)))
    return out


WORKLOADS = {
    # per-round Python path at d=4 through the process pool
    "ridge-d4": Workload(2, [Invocation(
        ["run", "--preset", "fig1-linear-d4", "--reps", "2"],
        ("ucb", "ts", "greedy", "uniform"), 10000, 2,
        {"n_agents": 10, "item_dim": 2, "agent_dim": 2, "utility_kind": "linear",
         "goodness": "weighted-gini"})], 5.5),
    # exact GP on square utilities: O(n^2) triangular solves
    "gp-square": Workload(1, [Invocation(
        ["run", "--preset", "fig1-square", "--reps", "2"],
        ("ucb", "ts", "gp-ucb", "gp-ts"), 500, 2,
        {"n_agents": 10, "item_dim": 2, "agent_dim": 2, "utility_kind": "square",
         "goodness": "weighted-gini"})], 2.5),
    # d=40 linear algebra, log-NSW and targeted goodness paths
    "wide-d40": Workload(1, _wide_d40(), 3.6),
}


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def pass_seed(seed: int, index: int) -> int:
    """Base seed of pass ``index`` of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"ofdsim-bench/{seed}/{index}".encode()).hexdigest()
    return int(digest[:8], 16)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], deadline_ns: int, stdout_path: str) -> int:
    """Run ``cmd`` in its own process group; kill the group at the deadline."""
    with open(stdout_path, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            return proc.wait(timeout=max((deadline_ns - now_ns()) / 1e9, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -signal.SIGKILL


def launch(inv: Invocation, jobs: int, base_seed: int, inv_dir: str, deadline_ns: int,
           *, traced: bool = False) -> dict:
    """Run one CLI invocation through launch.py; return its record."""
    os.makedirs(inv_dir, exist_ok=True)
    rec_path = os.path.join(inv_dir, "record.json")
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), "--record", rec_path,
           "--traces", os.path.join(inv_dir, "traces.npz")]
    if traced:
        cmd += ["--spans", os.path.join(inv_dir, "spans.npz")]
    cmd += ["--", *inv.args, "--jobs", str(jobs), "--seed", str(base_seed),
            "--out", os.path.join(inv_dir, "csv")]
    t_launch = now_ns()
    rc = run_child(cmd, deadline_ns, os.path.join(inv_dir, "stdout.txt"))
    record = {"rc": rc}
    if os.path.exists(rec_path):
        with open(rec_path, encoding="utf-8") as fh:
            record.update(json.load(fh))
        record["rc"] = rc
    record["ok"] = rc == 0 and "t_entry" in record and "t_exit" in record
    if record["ok"]:
        record["setup_s"] = (record["t_entry"] - t_launch) / 1e9
    return record


def run_pass(wl: Workload, jobs: int, base_seed: int, pass_dir: str, deadline_ns: int,
             *, traced: bool = False) -> dict:
    """One pass: every invocation of the workload, on one base seed."""
    invs = []
    for k, inv in enumerate(wl.invocations):
        inv_dir = os.path.join(pass_dir, f"inv{k}")
        rec = launch(inv, jobs, base_seed, inv_dir, deadline_ns, traced=traced)
        invs.append({"dir": inv_dir, "record": rec, "inv": inv})
    done = [i for i in invs if i["record"]["ok"]]
    rounds = sum(i["inv"].rounds for i in done)
    wall = sum(i["record"]["t_exit"] - i["record"]["t_entry"] for i in done) / 1e9
    return {
        "invocations": invs,
        "complete": len(done) == len(invs),
        "rounds_per_s": rounds / wall if wall > 0 else 0.0,
        "peak_rss_mb": max((i["record"]["maxrss_kb"] for i in done), default=0) / 1024.0,
        "setups": [i["record"]["setup_s"] for i in done],
    }


def best_invocations(done: list[dict]) -> dict:
    """``rounds_per_s`` and ``cpu_us_per_round`` from each invocation's
    best pass.

    The host alternates between a fast and a slow speed in stretches of
    seconds (README, "Steadiness"), so a median over passes measures the
    share of slow time the run happened to get. The best wall and CPU
    time of each of the workload's invocations over the run's passes
    measure the program at the host's full speed; their sums make one
    pass's worth of work.
    """
    if not done:
        return {"rounds_per_s": {"value": 0.0, "unit": "rounds/s"},
                "cpu_us_per_round": {"value": 0.0, "unit": "us"}}
    slots = list(zip(*(p["invocations"] for p in done)))
    rounds = sum(slot[0]["inv"].rounds for slot in slots)
    wall = sum(min(i["record"]["t_exit"] - i["record"]["t_entry"] for i in slot)
               for slot in slots) / 1e9
    cpu = sum(min(i["record"]["cpu_s"] for i in slot) for slot in slots)
    return {"rounds_per_s": {"value": rounds / wall, "unit": "rounds/s"},
            "cpu_us_per_round": {"value": cpu / rounds * 1e6, "unit": "us"}}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="ofdsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ofdsim", "cli.py")):
        print(f"benchmark: no ofdsim package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if opts.seed < 0 or opts.seconds <= 0:
        print("benchmark: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    t0 = now_ns()
    deadline_ns = t0 + int((opts.seconds + MARGIN_S) * 1e9)
    wl = WORKLOADS[opts.workload]
    traced = bool(opts.trace)
    jobs = 1 if traced else wl.jobs
    out = os.path.join(OUT, opts.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    passes = []
    if traced:
        # untraced baseline on the same inputs as the first traced pass
        passes.append(run_pass(wl, jobs, pass_seed(opts.seed, 0),
                               os.path.join(out, "base"), deadline_ns))
    t_measure = now_ns()
    index = 0
    while True:
        passes.append(run_pass(wl, jobs, pass_seed(opts.seed, index),
                               os.path.join(out, f"pass{index:03d}"), deadline_ns,
                               traced=traced))
        index += 1
        if not passes[-1]["complete"]:
            break
        if (now_ns() - t_measure >= opts.seconds * 1e9 if traced
                else index == wl.passes(opts.seconds)):
            break

    failed, problems = verify.check_run([
        {"dir": inv["dir"], "ok": inv["record"]["ok"], "policies": list(inv["inv"].policies),
         "horizon": inv["inv"].horizon, "reps": inv["inv"].reps, "shape": inv["inv"].shape,
         "deep": n == 0}
        for n, p in enumerate(passes) for inv in p["invocations"]
    ])
    attempted = sum(inv["inv"].ops for p in passes for inv in p["invocations"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    records = [inv["record"] for p in passes for inv in p["invocations"] if inv["record"]["ok"]]
    fingerprint = dict(records[0]["fingerprint"]) if records else {}
    fingerprint.update({"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                        "cpu": cpu_model(), "workload": opts.workload, "seed": opts.seed,
                        "passes": len(passes)})
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    if traced:
        span_files = [os.path.join(inv["dir"], "spans.npz") for p in passes[1:]
                      for inv in p["invocations"]
                      if os.path.exists(os.path.join(inv["dir"], "spans.npz"))]
        metrics, absent = tracer.layer_metrics(tracer.Spans.load(span_files))
        for name in absent:
            print(f"absent: {name} (its function does not exist at this commit)")
        base_rps, traced_rps = passes[0]["rounds_per_s"], passes[1]["rounds_per_s"]
        overhead = base_rps / traced_rps - 1.0 if traced_rps > 0 else float("nan")
        print(f"tracing overhead: untraced {base_rps:.1f} rounds/s, traced {traced_rps:.1f} "
              f"rounds/s ({overhead * 100:+.1f}%), on the same inputs at --jobs 1")
    else:
        done = [p for p in passes if p["complete"]]
        setups = [s for p in done for s in p["setups"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
            **best_invocations(done),
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in done)
                            if done else 0.0, "unit": "MB"},
        }

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fingerprint, **result}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
