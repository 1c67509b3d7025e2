"""Command-line front end: presets for the synthetic experiments,
ad-hoc runs from flags or a key=value config file, parallel seed
fan-out, and CSV/manifest emission for external plotting.

Exit codes: 0 success, 2 config/preset error, 3 unwritable output
directory, 4 goodness domain abort during a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import environment, goodness, simulator
from .estimators import ConfidenceParams
from .policies import POLICY_NAMES, PolicyKind
from .simulator import RunConfig

PRESET_NAMES = (
    "fig1-linear-d4",
    "fig1-linear-d10",
    "fig1-linear-d20",
    "fig1-square",
    "fig2-vary-agents",
    "fig2-vary-dims",
    "fig2b-rho085",
    "fig3-rho-sweep",
)

RHO_GRID = (
    0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.85, 0.88, 0.89, 0.9,
    0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 1.0,
)
AGENT_GRID = (5, 10, 15, 20, 25)
DIM_GRID = (10, 20, 30, 40, 50)

DEFAULTS = {
    "agents": 10,
    "item_dim": 2,
    "agent_dim": 2,
    "horizon": 10000,
    "reps": 20,
    "rho": 0.85,
    "goodness": goodness.WEIGHTED_GINI,
    "utility": environment.LINEAR,
    "reg_lambda": 0.01,
    "noise_r": 0.1,
    "delta": 0.05,
    "epsilon": 0.1,
    "jobs": 1,
    "out": "results",
}


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class RunSpecEntry:
    """One CSV-producing unit: a named parameter point and a policy."""

    name: str
    policy: PolicyKind
    proto: RunConfig
    seeds: tuple[int, ...]

    @property
    def csv_name(self) -> str:
        return f"{self.name}_{self.policy.name}.csv"


@dataclass(frozen=True)
class RunPlan:
    """A resolved command: the runs, the manifest header (base seed,
    preset, reps) and where and how wide to execute them."""

    entries: list[RunSpecEntry]
    seed: int
    preset: str | None
    reps: int
    out: str
    jobs: int


def _derive_seeds(base_seed: int, reps: int) -> tuple[int, ...]:
    """Per-repetition seeds keyed by (base, rep) only, never by policy
    or sweep point, so every policy and every grid point of an
    experiment faces identical instances and item sequences (paired
    comparisons)."""
    out = []
    for rep in range(reps):
        ss = np.random.SeedSequence([base_seed, rep])
        out.append(int(ss.generate_state(1, np.uint64)[0]))
    return tuple(out)


def _make_proto(
    *,
    horizon: int,
    n_agents: int,
    item_dim: int,
    agent_dim: int,
    rho: float | None,
    policy: PolicyKind,
    utility_kind: str = environment.LINEAR,
    noise_r: float = 0.1,
    delta: float = 0.05,
    lam: float = 0.01,
    spec: goodness.GoodnessSpec | None = None,
) -> RunConfig:
    if spec is None:
        if rho == 0.0:
            spec = goodness.GoodnessSpec(
                goodness.WEIGHTED_GINI, weights=goodness.esw_weights(n_agents)
            )
        else:
            spec = goodness.GoodnessSpec(goodness.WEIGHTED_GINI, rho=rho)
    dim = item_dim + agent_dim
    return RunConfig(
        horizon=horizon,
        seed=0,
        policy=policy,
        goodness=spec,
        n_agents=n_agents,
        item_dim=item_dim,
        agent_dim=agent_dim,
        utility_kind=utility_kind,
        confidence=ConfidenceParams.defaults(dim, noise_r=noise_r, delta=delta, lam=lam),
    )


def expand_preset(preset: str, reps: int, base_seed: int) -> list[RunSpecEntry]:
    """Resolve a preset name into its full list of runs."""
    if preset not in PRESET_NAMES:
        raise ConfigError([f"unknown preset {preset!r}; choose from {', '.join(PRESET_NAMES)}"])
    main_four = [PolicyKind("ucb"), PolicyKind("ts"), PolicyKind("greedy"), PolicyKind("uniform")]
    ucb_ts = [PolicyKind("ucb"), PolicyKind("ts")]
    entries: list[RunSpecEntry] = []

    seeds = _derive_seeds(base_seed, reps)

    def add(name: str, policies: list[PolicyKind], **kwargs) -> None:
        for pol in policies:
            entries.append(
                RunSpecEntry(name=name, policy=pol, proto=_make_proto(policy=pol, **kwargs), seeds=seeds)
            )

    if preset.startswith("fig1-linear"):
        half = {"fig1-linear-d4": 2, "fig1-linear-d10": 5, "fig1-linear-d20": 10}[preset]
        add(preset, main_four, horizon=10000, n_agents=10,
            item_dim=half, agent_dim=half, rho=0.85)
    elif preset == "fig1-square":
        gp_pair = [PolicyKind("ucb"), PolicyKind("ts"), PolicyKind("gp-ucb"), PolicyKind("gp-ts")]
        add(preset, gp_pair, horizon=500, n_agents=10, item_dim=2, agent_dim=2,
            rho=0.85, utility_kind=environment.SQUARE)
    elif preset == "fig2-vary-agents":
        for n in AGENT_GRID:
            add(f"{preset}-n{n:02d}", ucb_ts, horizon=1000, n_agents=n,
                item_dim=20, agent_dim=20, rho=1.0)
    elif preset == "fig2-vary-dims":
        for d in DIM_GRID:
            add(f"{preset}-d{d:02d}", ucb_ts, horizon=1000, n_agents=10,
                item_dim=d // 2, agent_dim=d // 2, rho=1.0)
    elif preset == "fig2b-rho085":
        for n in AGENT_GRID:
            add(f"{preset}-agents-n{n:02d}", ucb_ts, horizon=1000, n_agents=n,
                item_dim=20, agent_dim=20, rho=0.85)
        for d in DIM_GRID:
            add(f"{preset}-dims-d{d:02d}", ucb_ts, horizon=1000,
                n_agents=10, item_dim=d // 2, agent_dim=d // 2, rho=0.85)
    else:  # fig3-rho-sweep
        for rho in RHO_GRID:
            add(f"{preset}-r{round(rho * 100):03d}", main_four, horizon=1000,
                n_agents=10, item_dim=20, agent_dim=20, rho=rho)
    return entries


# ---------------------------------------------------------------------------
# flag / config-file resolution

_CONFIG_KEYS = {
    "preset": str,
    "policy": str,
    "goodness": str,
    "rho": float,
    "agents": int,
    "item_dim": int,
    "agent_dim": int,
    "horizon": int,
    "reps": int,
    "seed": int,
    "lambda": float,
    "noise_r": float,
    "delta": float,
    "out": str,
    "jobs": int,
    "utility": str,
    "epsilon": float,
    "target_ratios": str,
}


def _read_config_file(path: str) -> dict:
    values = {}
    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"{path}:{lineno}: expected key=value, got {line!r}")
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                problems.append(f"{path}:{lineno}: unknown key {key!r}")
                continue
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                problems.append(
                    f"{path}:{lineno}: cannot parse {key}={value!r} as "
                    f"{_CONFIG_KEYS[key].__name__}"
                )
    if problems:
        raise ConfigError(problems)
    return values


def _parse_ratios(text: str) -> np.ndarray:
    return np.asarray([float(part) for part in text.split(",") if part.strip() != ""])


def validate_config(ns: argparse.Namespace) -> RunPlan:
    """Resolve flags + optional config file into a plan of concrete runs.

    Flags win over the file, the file over ``DEFAULTS``; the base seed
    falls back to ``OFD_SEED``, then 0. Raises ConfigError carrying one
    message per rejected field.
    """
    config_path = getattr(ns, "config", None)
    file_values = _read_config_file(config_path) if config_path else {}
    problems: list[str] = []

    def grab(key: str):
        flag = getattr(ns, key, None)
        if flag is not None:
            return flag
        return file_values.get("lambda" if key == "reg_lambda" else key, DEFAULTS.get(key))

    base_seed = grab("seed")
    if base_seed is None:
        base_seed = int(os.environ.get("OFD_SEED", "0"))
    if base_seed < 0:
        problems.append(f"seed must be non-negative, got {base_seed}")
    reps = grab("reps")
    if reps < 1:
        problems.append(f"reps must be >= 1, got {reps}")
    if problems:
        raise ConfigError(problems)

    preset = grab("preset")
    out, jobs = grab("out"), grab("jobs")
    if preset is not None:
        structural = ("policy", "rho", "agents", "item_dim", "agent_dim",
                      "horizon", "utility", "target_ratios")
        clashes = [k for k in structural if getattr(ns, k, None) is not None or k in file_values]
        if clashes:
            raise ConfigError(
                [f"--{k.replace('_', '-')} cannot be combined with --preset" for k in clashes]
            )
        entries = expand_preset(preset, reps, base_seed)
        return RunPlan(entries, base_seed, preset, reps, out, jobs)

    policy_name = grab("policy")
    if policy_name is None:
        problems.append("either --preset or --policy is required")
        policy_name = "ucb"
    elif policy_name not in POLICY_NAMES:
        problems.append(f"unknown policy {policy_name!r}; choose from {', '.join(POLICY_NAMES)}")
        policy_name = "ucb"

    kind_name = grab("goodness")
    if kind_name not in goodness.KINDS:
        problems.append(f"unknown goodness {kind_name!r}; choose from {', '.join(goodness.KINDS)}")
        kind_name = goodness.WEIGHTED_GINI

    agents = grab("agents")
    if agents < 1:
        problems.append(f"agents must be >= 1, got {agents}")
    item_dim = grab("item_dim")
    agent_dim = grab("agent_dim")
    if item_dim < 1:
        problems.append(f"item-dim must be >= 1, got {item_dim}")
    if agent_dim < 1:
        problems.append(f"agent-dim must be >= 1, got {agent_dim}")
    horizon = grab("horizon")
    if horizon < max(agents, 1):
        problems.append(
            f"horizon {horizon} is shorter than the round-robin warm start over "
            f"{agents} agents"
        )
    if horizon > simulator.MAX_HORIZON:
        problems.append(f"horizon must be <= {simulator.MAX_HORIZON}, got {horizon}")

    rho = grab("rho")
    if not 0.0 <= rho <= 1.0:
        problems.append(f"rho must lie in (0,1] (or exactly 0 for the min objective), got {rho}")
    utility = grab("utility")
    if utility not in environment.UTILITY_KINDS:
        problems.append(
            f"unknown utility {utility!r}; choose from {', '.join(environment.UTILITY_KINDS)}"
        )
        utility = environment.LINEAR
    lam = grab("reg_lambda")
    if lam <= 0.0:
        problems.append(f"lambda must be positive, got {lam}")
    noise_r = grab("noise_r")
    if noise_r < 0.0:
        problems.append(f"noise-r must be >= 0, got {noise_r}")
    delta = grab("delta")
    if not 0.0 < delta < 1.0:
        problems.append(f"delta must lie in (0,1), got {delta}")
    epsilon = grab("epsilon")
    if not 0.0 <= epsilon <= 1.0:
        problems.append(f"epsilon must lie in [0,1], got {epsilon}")

    spec = None
    ratios_text = grab("target_ratios")
    if kind_name == goodness.TARGETED:
        if ratios_text is None:
            problems.append("targeted goodness requires --target-ratios r1,r2,...")
        else:
            try:
                ratios = _parse_ratios(ratios_text)
                if ratios.size != agents:
                    problems.append(
                        f"target-ratios has {ratios.size} entries for {agents} agents"
                    )
                else:
                    spec = goodness.GoodnessSpec(goodness.TARGETED, target_ratios=ratios)
            except ValueError as exc:
                problems.append(f"bad target-ratios: {exc}")
    elif ratios_text is not None:
        problems.append("--target-ratios is only valid with --goodness targeted")
    elif kind_name == goodness.WEIGHTED_GINI:
        if not problems:
            if rho == 0.0:
                spec = goodness.GoodnessSpec(
                    goodness.WEIGHTED_GINI, weights=goodness.esw_weights(agents)
                )
            else:
                spec = goodness.GoodnessSpec(goodness.WEIGHTED_GINI, rho=rho)
    else:
        spec = goodness.GoodnessSpec(kind_name)

    if problems:
        raise ConfigError(problems)

    proto = _make_proto(
        horizon=horizon,
        n_agents=agents,
        item_dim=item_dim,
        agent_dim=agent_dim,
        rho=None,
        policy=PolicyKind(policy_name, epsilon=epsilon),
        utility_kind=utility,
        noise_r=noise_r,
        delta=delta,
        lam=lam,
        spec=spec,
    )
    seeds = _derive_seeds(base_seed, reps)
    entries = [RunSpecEntry(name="adhoc", policy=proto.policy, proto=proto, seeds=seeds)]
    return RunPlan(entries, base_seed, preset, reps, out, jobs)


# ---------------------------------------------------------------------------
# serialization for the manifest


def _goodness_to_json(spec: goodness.GoodnessSpec) -> dict:
    return {
        "kind": spec.kind,
        "rho": spec.rho,
        "weights": None if spec.weights is None else spec.weights.tolist(),
        "target_ratios": None if spec.target_ratios is None else spec.target_ratios.tolist(),
    }


def _goodness_from_json(payload: dict) -> goodness.GoodnessSpec:
    weights = payload.get("weights")
    ratios = payload.get("target_ratios")
    return goodness.GoodnessSpec(
        kind=payload["kind"],
        weights=None if weights is None else np.asarray(weights, dtype=np.float64),
        rho=payload.get("rho"),
        target_ratios=None if ratios is None else np.asarray(ratios, dtype=np.float64),
    )


def _entry_to_json(entry: RunSpecEntry) -> dict:
    proto = entry.proto
    return {
        "name": entry.name,
        "csv": entry.csv_name,
        "policy": {"name": entry.policy.name, "epsilon": entry.policy.epsilon},
        "seeds": list(entry.seeds),
        "config": {
            "horizon": proto.horizon,
            "n_agents": proto.n_agents,
            "item_dim": proto.item_dim,
            "agent_dim": proto.agent_dim,
            "utility_kind": proto.utility_kind,
            "goodness": _goodness_to_json(proto.goodness),
            "confidence": {
                "noise_r": proto.confidence.noise_r,
                "param_bound_s": proto.confidence.param_bound_s,
                "feature_bound_l": proto.confidence.feature_bound_l,
                "delta": proto.confidence.delta,
                "lam": proto.confidence.lam,
            },
        },
    }


def _entry_from_json(payload: dict) -> RunSpecEntry:
    cfg = payload["config"]
    policy = PolicyKind(payload["policy"]["name"], epsilon=payload["policy"]["epsilon"])
    conf = cfg["confidence"]
    dim = cfg["item_dim"] + cfg["agent_dim"]
    proto = RunConfig(
        horizon=cfg["horizon"],
        seed=0,
        policy=policy,
        goodness=_goodness_from_json(cfg["goodness"]),
        n_agents=cfg["n_agents"],
        item_dim=cfg["item_dim"],
        agent_dim=cfg["agent_dim"],
        utility_kind=cfg["utility_kind"],
        confidence=ConfidenceParams(
            dim=dim,
            noise_r=conf["noise_r"],
            param_bound_s=conf["param_bound_s"],
            feature_bound_l=conf["feature_bound_l"],
            delta=conf["delta"],
            lam=conf["lam"],
        ),
    )
    return RunSpecEntry(
        name=payload["name"],
        policy=policy,
        proto=proto,
        seeds=tuple(payload["seeds"]),
    )


# ---------------------------------------------------------------------------
# execution


def execute_entries(entries: list[RunSpecEntry], jobs: int, outdir: str) -> list[str]:
    """Run every entry's repetitions and write one aggregate CSV each."""
    configs: list[RunConfig] = []
    for entry in entries:
        configs.extend(entry.proto.with_seed(seed) for seed in entry.seeds)
    if jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            traces = list(pool.map(simulator.run_single, configs, chunksize=1))
    else:
        traces = [simulator.run_single(config) for config in configs]

    written = []
    offset = 0
    for entry in entries:
        chunk = traces[offset : offset + len(entry.seeds)]
        offset += len(entry.seeds)
        series = simulator.aggregate(chunk)
        path = os.path.join(outdir, entry.csv_name)
        simulator.write_series_csv(series, path)
        written.append(entry.csv_name)
        print(f"wrote {path}")
    return written


def _prepare_outdir(outdir: str) -> None:
    try:
        os.makedirs(outdir, exist_ok=True)
        probe = os.path.join(outdir, ".write-probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise PermissionError(f"output directory {outdir!r} is not writable: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdsim",
        description="Sequential fair-allocation simulations with bandit utility learners",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a preset or an ad-hoc experiment")
    run.add_argument("--preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    run.add_argument("--policy", help=f"one of: {', '.join(POLICY_NAMES)}")
    run.add_argument("--goodness", help=f"one of: {', '.join(goodness.KINDS)}")
    run.add_argument("--rho", type=float, help="geometric weight parameter in (0,1]; 0 = min objective")
    run.add_argument("--agents", type=int, help="number of agents N")
    run.add_argument("--item-dim", dest="item_dim", type=int, help="item feature dimension")
    run.add_argument("--agent-dim", dest="agent_dim", type=int, help="agent feature dimension")
    run.add_argument("--horizon", type=int, help="number of rounds T")
    run.add_argument("--reps", type=int, help="independent repetitions (default 20)")
    run.add_argument("--seed", type=int, help="base seed (default env OFD_SEED or 0)")
    run.add_argument("--lambda", dest="reg_lambda", type=float, help="ridge regularizer")
    run.add_argument("--noise-r", dest="noise_r", type=float, help="observation noise scale R")
    run.add_argument("--delta", type=float, help="confidence level parameter")
    run.add_argument("--out", help="output directory (default results/)")
    run.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")
    run.add_argument("--utility", help=f"one of: {', '.join(environment.UTILITY_KINDS)}")
    run.add_argument("--epsilon", type=float, help="greedy exploration rate (default 0.1)")
    run.add_argument("--target-ratios", dest="target_ratios",
                     help="comma-separated ratios for --goodness targeted")
    run.add_argument("--config", help="key=value config file; flags win")
    run.add_argument("--manifest", help="re-run the exact runs recorded in a manifest.json")
    return parser


def _plan_from_manifest(ns: argparse.Namespace) -> RunPlan:
    """Replay plan for a manifest; output goes next to it unless --out."""
    with open(ns.manifest, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return RunPlan(
        entries=[_entry_from_json(item) for item in payload["entries"]],
        seed=payload["seed"],
        preset=payload.get("preset"),
        reps=payload["reps"],
        out=ns.out if ns.out else os.path.dirname(os.path.abspath(ns.manifest)),
        jobs=ns.jobs if ns.jobs is not None else DEFAULTS["jobs"],
    )


def run_command(ns: argparse.Namespace) -> int:
    try:
        plan = _plan_from_manifest(ns) if ns.manifest else validate_config(ns)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        _prepare_outdir(plan.out)
    except PermissionError as exc:
        print(str(exc), file=sys.stderr)
        return 3

    try:
        written = execute_entries(plan.entries, plan.jobs, plan.out)
    except simulator.RunAbortedError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 4

    manifest = {
        "seed": plan.seed,
        "preset": plan.preset,
        "reps": plan.reps,
        "entries": [_entry_to_json(entry) for entry in plan.entries],
        "csv_files": written,
    }
    manifest_path = os.path.join(plan.out, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {manifest_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "run":
        return run_command(ns)
    parser.error(f"unknown command {ns.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
