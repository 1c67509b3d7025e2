"""Command-line front end: presets for the synthetic experiments,
ad-hoc runs from flags or a key=value config file, parallel seed
fan-out, and CSV/manifest emission for external plotting.

Each run option is declared once, in ``OPTIONS``, which drives the
parser, the defaults and the config-file keys. The rules of a run live
in the constructors of ``PolicyKind``, ``GoodnessSpec``,
``ConfidenceParams`` and ``RunConfig``: the CLI builds a run through
them, as the manifest reader does, and itself checks only what belongs
to a command (base seed, reps, jobs, and which options combine).

Exit codes: 0 success, 2 config/preset/manifest error, 3 unwritable
output directory, 4 a run aborted mid-flight (goodness domain or
numerical failure).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

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

# One row per run option: (key, type, default, help). The key is the
# config-file key and, with dashes, the flag. Each flag parses into the
# attribute of its key, except --lambda, a Python keyword, which parses
# into reg_lambda.
OPTIONS = (
    ("preset", str, None, f"one of: {', '.join(PRESET_NAMES)}"),
    ("policy", str, None, f"one of: {', '.join(POLICY_NAMES)}"),
    ("goodness", str, goodness.WEIGHTED_GINI, f"one of: {', '.join(goodness.KINDS)}"),
    ("rho", float, 0.85,
     "weighted-gini's geometric weight parameter in (0,1]; 0 = min objective"),
    ("agents", int, 10, "number of agents N"),
    ("item_dim", int, 2, "item feature dimension"),
    ("agent_dim", int, 2, "agent feature dimension"),
    ("horizon", int, 10000, "number of rounds T"),
    ("reps", int, 20, "independent repetitions"),
    ("seed", int, None, "base seed (default env OFD_SEED or 0)"),
    ("lambda", float, 0.01, "ridge regularizer"),
    ("noise_r", float, 0.1, "observation noise scale R"),
    ("delta", float, 0.05, "confidence level parameter"),
    ("out", str, "results", "output directory"),
    ("jobs", int, 1,
     "parallel worker processes; give each one BLAS thread with OPENBLAS_NUM_THREADS=1"),
    ("utility", str, environment.LINEAR, f"one of: {', '.join(environment.UTILITY_KINDS)}"),
    ("epsilon", float, 0.1, "greedy exploration rate"),
    ("target_ratios", str, None, "comma-separated ratios for --goodness targeted"),
)
_DEST = {"lambda": "reg_lambda"}
DEFAULTS = {key: default for key, _, default, _ in OPTIONS}
_CONFIG_KEYS = {key: kind for key, kind, _, _ in OPTIONS}


class ConfigError(ValueError):
    """A command's rejected input, one line per rejected field."""

    def __init__(self, problems: list[str]):
        super().__init__("\n".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class RunSpecEntry:
    """One CSV-producing unit: a named parameter point, its seedless run
    (which carries the policy) and the repetition seeds."""

    name: str
    proto: RunConfig
    seeds: tuple[int, ...]

    @property
    def csv_name(self) -> str:
        return f"{self.name}_{self.proto.policy.name}.csv"


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


def _goodness_spec(
    kind: str, n_agents: int, rho: float | None = None, target_ratios: np.ndarray | None = None
) -> goodness.GoodnessSpec:
    """The run's goodness; under weighted Gini, rho 0 means the min
    objective."""
    weights = None
    if kind == goodness.WEIGHTED_GINI and rho == 0.0:
        weights, rho = goodness.esw_weights(n_agents), None
    return goodness.GoodnessSpec(kind, weights=weights, rho=rho, target_ratios=target_ratios)


def expand_preset(preset: str, reps: int, base_seed: int) -> list[RunSpecEntry]:
    """Resolve a preset name into its full list of runs."""
    if preset not in PRESET_NAMES:
        raise ConfigError([f"unknown preset {preset!r}; choose from {', '.join(PRESET_NAMES)}"])
    main_four = [PolicyKind("ucb"), PolicyKind("ts"), PolicyKind("greedy"), PolicyKind("uniform")]
    ucb_ts = [PolicyKind("ucb"), PolicyKind("ts")]
    entries: list[RunSpecEntry] = []

    seeds = _derive_seeds(base_seed, reps)

    def add(name: str, policies: list[PolicyKind], *, rho: float, **fields) -> None:
        for pol in policies:
            spec = _goodness_spec(goodness.WEIGHTED_GINI, fields["n_agents"], rho)
            proto = RunConfig(seed=0, policy=pol, goodness=spec, **fields)
            entries.append(RunSpecEntry(name=name, proto=proto, seeds=seeds))

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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flag_value(ns: argparse.Namespace, key: str):
    """The value of option key on the command line, or None."""
    return getattr(ns, _DEST.get(key, key), None)


def _clashes(given, keys, mode: str) -> list[str]:
    """One problem for each option in keys that given says was set."""
    return [f"{_flag(key)} cannot be combined with --{mode}" for key in keys if given(key)]


def _jobs_problems(jobs: int) -> list[str]:
    return [] if jobs >= 1 else [f"jobs must be >= 1, got {jobs}"]


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
    falls back to ``OFD_SEED``, then 0. An ad-hoc run is built through
    the constructors that check every run. Raises ConfigError carrying
    one line per rejected field, theirs and the command's.
    """
    config_path = getattr(ns, "config", None)
    file_values = _read_config_file(config_path) if config_path else {}

    def given(key: str) -> bool:
        return _flag_value(ns, key) is not None or key in file_values

    def grab(key: str):
        flag = _flag_value(ns, key)
        return file_values.get(key, DEFAULTS[key]) if flag is None else flag

    reps, jobs = grab("reps"), grab("jobs")
    problems = _jobs_problems(jobs)
    base_seed = grab("seed")
    if base_seed is None:
        env_seed = os.environ.get("OFD_SEED", "0")
        try:
            base_seed = int(env_seed)
        except ValueError:
            base_seed = -1
        if base_seed < 0:
            problems.append(f"OFD_SEED must be a non-negative integer, got {env_seed!r}")
            base_seed = 0
    elif base_seed < 0:
        problems.append(f"seed must be non-negative, got {base_seed}")
    if reps < 1:
        problems.append(f"reps must be >= 1, got {reps}")
    if problems:
        raise ConfigError(problems)

    preset, out = grab("preset"), grab("out")
    if preset is not None:
        # a preset fixes every run option; only the command's own may come with it
        fixed = [key for key in DEFAULTS if key not in ("preset", "reps", "seed", "out", "jobs")]
        clashes = _clashes(given, fixed, "preset")
        if clashes:
            raise ConfigError(clashes)
        return RunPlan(expand_preset(preset, reps, base_seed), base_seed, preset, reps, out, jobs)

    def build(make, *args, **kwargs):
        """make(*args, **kwargs), or None with its rejections in problems."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            problems.extend(str(exc).splitlines())
            return None

    # A missing or broken field is reported once. What depends on it is
    # built from a stand-in, so that it still reports its own fields.
    policy = grab("policy")
    if policy is None:
        problems.append("either --preset or --policy is required")
    kind = build(PolicyKind, policy or "ucb", epsilon=grab("epsilon"))
    ratios_text = grab("target_ratios")
    try:
        ratios = None if ratios_text is None else _parse_ratios(ratios_text)
    except ValueError as exc:
        problems.append(f"bad target-ratios: {exc}")
        ratios = np.ones(1)
    kind_name = grab("goodness")
    # rho shapes weighted Gini only; set for another goodness, the spec rejects it
    rho = grab("rho") if kind_name == goodness.WEIGHTED_GINI or given("rho") else None
    agents, item_dim, agent_dim = grab("agents"), grab("item_dim"), grab("agent_dim")
    spec = build(_goodness_spec, kind_name, max(agents, 1), rho, ratios)
    confidence = build(
        ConfidenceParams.defaults, max(item_dim + agent_dim, 1),
        noise_r=grab("noise_r"), delta=grab("delta"), lam=grab("lambda"),
    )
    sizes = dict(horizon=grab("horizon"), n_agents=agents, item_dim=item_dim,
                 agent_dim=agent_dim, utility_kind=grab("utility"))
    if problems:
        raise ConfigError(problems + simulator.size_problems(**sizes))
    proto = build(RunConfig, seed=0, policy=kind, goodness=spec, confidence=confidence, **sizes)
    if problems:
        raise ConfigError(problems)
    entries = [RunSpecEntry(name="adhoc", proto=proto, seeds=_derive_seeds(base_seed, reps))]
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
    confidence = asdict(proto.confidence)
    del confidence["dim"]  # item_dim + agent_dim
    return {
        "name": entry.name,
        "csv": entry.csv_name,
        "policy": asdict(proto.policy),
        "seeds": list(entry.seeds),
        "config": {
            "horizon": proto.horizon,
            "n_agents": proto.n_agents,
            "item_dim": proto.item_dim,
            "agent_dim": proto.agent_dim,
            "utility_kind": proto.utility_kind,
            "goodness": _goodness_to_json(proto.goodness),
            "confidence": confidence,
        },
    }


def _entry_from_json(payload: dict) -> RunSpecEntry:
    cfg = payload["config"]
    proto = RunConfig(
        horizon=cfg["horizon"],
        seed=0,
        policy=PolicyKind(**payload["policy"]),
        goodness=_goodness_from_json(cfg["goodness"]),
        n_agents=cfg["n_agents"],
        item_dim=cfg["item_dim"],
        agent_dim=cfg["agent_dim"],
        utility_kind=cfg["utility_kind"],
        confidence=ConfidenceParams(dim=cfg["item_dim"] + cfg["agent_dim"], **cfg["confidence"]),
    )
    return RunSpecEntry(name=payload["name"], proto=proto, seeds=tuple(payload["seeds"]))


# ---------------------------------------------------------------------------
# execution


def execute_entries(entries: list[RunSpecEntry], jobs: int, outdir: str) -> list[str]:
    """Run every entry's repetitions and write one aggregate CSV each."""
    configs: list[RunConfig] = []
    for entry in entries:
        configs.extend(entry.proto.with_seed(seed) for seed in entry.seeds)
    if jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
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
    for key, kind, default, text in OPTIONS:
        if default is not None:
            text = f"{text} (default {default})"
        run.add_argument(_flag(key), dest=_DEST.get(key, key), type=kind, help=text)
    run.add_argument("--config", help="key=value config file; flags win")
    run.add_argument("--manifest", help="re-run the exact runs recorded in a manifest.json")
    return parser


def _plan_from_manifest(ns: argparse.Namespace) -> RunPlan:
    """Replay plan for a manifest; output goes next to it unless --out.
    The manifest fixes the runs, so of the options only --out and --jobs
    may come with it."""
    replay_only = [key for key in (*DEFAULTS, "config") if key not in ("out", "jobs")]
    problems = _clashes(lambda key: _flag_value(ns, key) is not None, replay_only, "manifest")
    jobs = DEFAULTS["jobs"] if ns.jobs is None else ns.jobs
    problems += _jobs_problems(jobs)
    if problems:
        raise ConfigError(problems)
    with open(ns.manifest, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return RunPlan(
        entries=[_entry_from_json(item) for item in payload["entries"]],
        seed=payload["seed"],
        preset=payload.get("preset"),
        reps=payload["reps"],
        out=ns.out if ns.out else os.path.dirname(os.path.abspath(ns.manifest)),
        jobs=jobs,
    )


def run_command(ns: argparse.Namespace) -> int:
    try:
        plan = _plan_from_manifest(ns) if ns.manifest else validate_config(ns)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        # ValueError covers ConfigError, malformed JSON and the constructors'
        # rejections of a manifest entry, one line per rejected field
        for problem in str(exc).splitlines():
            print(f"config error: {problem}", file=sys.stderr)
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
    return run_command(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
