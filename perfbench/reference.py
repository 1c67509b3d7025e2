"""Reference figures for the benchmark README, untraced.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/reference.py

Prints microseconds per round of ``simulator.run_single`` for every
policy at d=4 and d=40 (N=10, weighted Gini at rho 0.85; linear
utilities for the ridge policies and uniform, square utilities for the
GP ones), each the median of three seeds, and the time of one gp-ucb run
at T=2000, which is too long for a benchmark workload.
"""

from __future__ import annotations

import statistics
import time

from ofdsim.goodness import GoodnessSpec
from ofdsim.policies import PolicyKind
from ofdsim.simulator import RunConfig, run_single

HORIZON = {"ucb": 2000, "ts": 2000, "greedy": 2000, "uniform": 2000, "gp-ucb": 500, "gp-ts": 500}


def us_per_round(policy: str, half: int, horizon: int, seed: int) -> float:
    cfg = RunConfig(
        horizon=horizon, seed=seed, policy=PolicyKind(policy),
        goodness=GoodnessSpec("weighted-gini", rho=0.85), n_agents=10,
        item_dim=half, agent_dim=half,
        utility_kind="square" if policy.startswith("gp-") else "linear",
    )
    start = time.perf_counter()
    run_single(cfg)
    return (time.perf_counter() - start) / horizon * 1e6


def main() -> None:
    print("policy   d=4 us/round   d=40 us/round   (T)")
    for policy, horizon in HORIZON.items():
        cells = [statistics.median(us_per_round(policy, half, horizon, seed) for seed in (1, 2, 3))
                 for half in (2, 20)]
        print(f"{policy:8s} {cells[0]:13.1f} {cells[1]:15.1f}   ({horizon})")
    seconds = us_per_round("gp-ucb", 2, 2000, 1) * 2000 / 1e6
    print(f"gp-ucb, d=4, T=2000, one run: {seconds:.1f} s")


if __name__ == "__main__":
    main()
