"""Command-line front end: presets for the synthetic experiments,
ad-hoc runs from flags or a key=value config file, parallel seed
fan-out in lockstep batches, and CSV/manifest emission for external
plotting. The entries of a grid point share their seeds and world, so
its ridge-policy entries run as one batch; every entry is aggregated
before the first CSV is written.

Each run option is declared once, in ``OPTIONS``, which drives the
parser, the defaults and the config-file keys. The rules of a run live
in the constructors of ``PolicyKind``, ``GoodnessSpec``,
``ConfidenceParams`` and ``RunConfig``: ``_build_run`` builds a run from
flags, a config file or a manifest through them, reporting every field
they reject. The CLI checks by itself only what belongs to a command: its
header (base seed, reps, jobs), which options combine, and a manifest's
keys, entry and seed counts and CSV names.

Exit codes: 0 success, 2 config/preset/manifest error, 3 unwritable
output directory, 4 a run aborted mid-flight (a linalg.NumericError)
or its aggregate left the float range.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import environment, goodness, linalg, simulator
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
# config-file key and, with dashes, the flag, which parses into the
# attribute of its key (read --lambda's, a Python keyword, with getattr).
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
DEFAULTS = {key: default for key, _, default, _ in OPTIONS}
_CONFIG_KEYS = {key: kind for key, kind, _, _ in OPTIONS}


class ConfigError(ValueError):
    """A command's rejected input, one line per rejected field."""

    def __init__(self, problems: list[str]):
        super().__init__("\n".join(problems))


@dataclass(frozen=True)
class RunSpecEntry:
    """One CSV-producing unit: a named parameter point, its run (which
    carries the policy; its own seed is not read) and the repetition
    seeds, checked by the rule every run's seeds obey."""

    name: str
    proto: RunConfig
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        # the name becomes a file name in the output directory
        if not isinstance(self.name, str) or self.name in ("", ".", "..") or any(
                sep and sep in self.name for sep in ("/", os.sep, os.altsep, "\0")):
            raise ValueError(f"entry name must be a plain file name, got {self.name!r}")
        simulator.checked_seeds(self.seeds)

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
    return tuple(int(np.random.SeedSequence([base_seed, rep]).generate_state(1, np.uint64)[0])
                 for rep in range(reps))


def _goodness_args(
    kind: str, n_agents: int, rho: float | None = None, target_ratios: np.ndarray | None = None
) -> dict:
    """The run's GoodnessSpec arguments; under weighted Gini, rho 0 means
    the min objective."""
    weights = None
    if kind == goodness.WEIGHTED_GINI and rho == 0.0:
        weights, rho = goodness.weights_from_rho(0.0, n_agents), None
    return dict(kind=kind, weights=weights, rho=rho, target_ratios=target_ratios)


def expand_preset(preset: str, reps: int, base_seed: int) -> list[RunSpecEntry]:
    """Resolve a preset name into its full list of runs."""
    if preset not in PRESET_NAMES:
        raise ConfigError([f"unknown preset {preset!r}; choose from {', '.join(PRESET_NAMES)}"])
    main_four = ("ucb", "ts", "greedy", "uniform")
    ucb_ts = ("ucb", "ts")
    entries = []

    seeds = _derive_seeds(base_seed, reps)

    def add(name: str, policies, *, rho: float, **fields) -> None:
        for policy in policies:
            spec = goodness.GoodnessSpec(**_goodness_args(goodness.WEIGHTED_GINI,
                                                          fields["n_agents"], rho))
            proto = RunConfig(seed=0, policy=PolicyKind(policy), goodness=spec, **fields)
            entries.append(RunSpecEntry(name=name, proto=proto, seeds=seeds))

    if preset.startswith("fig1-linear"):
        half = {"fig1-linear-d4": 2, "fig1-linear-d10": 5, "fig1-linear-d20": 10}[preset]
        add(preset, main_four, horizon=10000, n_agents=10,
            item_dim=half, agent_dim=half, rho=0.85)
    elif preset == "fig1-square":
        gp_pair = ("ucb", "ts", "gp-ucb", "gp-ts")
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


def _clashes(given, keys, mode: str) -> list[str]:
    """One problem for each option in keys that given says was set."""
    return [f"{_flag(key)} cannot be combined with --{mode}" for key in keys if given(key)]


def _command_problems(seed, reps, jobs) -> list[str]:
    """A command's header rules, for every source: the base seed an
    integer >= 0, reps and jobs integers >= 1. One line per broken field."""
    rules = (("seed", seed, 0, "must be non-negative"), ("reps", reps, 1, "must be >= 1"),
             ("jobs", jobs, 1, "must be >= 1"))
    return [f"{name} {words}, got {value!r}" for name, value, low, words in rules
            if not (linalg.is_integer(value) and value >= low)]


def _build_run(policy: dict, goodness_args, confidence, sizes: dict,
               problems=()) -> RunConfig:
    """The one way a run is built from flags, a config file or a manifest:
    PolicyKind(**policy), GoodnessSpec(**goodness_args(n_agents)) and
    confidence(dim) each on its own, then RunConfig. Raises ConfigError
    with the caller's problems and every rejected field. While a size is
    broken, the goodness is built for 1 agent and the confidence at dim 1,
    so that only the size reports it and nothing is sized by it."""
    size_lines = simulator.size_problems(**sizes)
    n_agents = 1 if size_lines else sizes["n_agents"]
    dim = 1 if size_lines else sizes["item_dim"] + sizes["agent_dim"]
    problems, parts = list(problems), []
    for make, kwargs in ((PolicyKind, policy), (goodness.GoodnessSpec, goodness_args(n_agents)),
                         (confidence, {"dim": dim})):
        try:
            parts.append(make(**kwargs))
        except (TypeError, ValueError) as exc:
            problems += str(exc).splitlines()
    if problems or size_lines:
        raise ConfigError(problems + size_lines)
    kind, spec, params = parts
    try:
        return RunConfig(seed=0, policy=kind, goodness=spec, confidence=params, **sizes)
    except ValueError as exc:
        raise ConfigError(str(exc).splitlines()) from None


def _read_config_file(path: str) -> dict:
    values, problems = {}, []
    with open(path, encoding="utf-8") as fh:
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
    falls back to ``OFD_SEED``, then 0. An ad-hoc run is built by
    ``_build_run``. Raises ConfigError carrying one line per rejected
    field, the run's and the command's.
    """
    config_path = getattr(ns, "config", None)
    file_values = _read_config_file(config_path) if config_path else {}

    def given(key: str) -> bool:
        return getattr(ns, key) is not None or key in file_values

    def grab(key: str):
        flag = getattr(ns, key)
        return file_values.get(key, DEFAULTS[key]) if flag is None else flag

    problems = []
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
    reps, jobs = grab("reps"), grab("jobs")
    problems += _command_problems(base_seed, reps, jobs)
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

    # A missing or unparsable option is reported once, and the run is
    # built from a stand-in, so that it still reports its own fields.
    policy = grab("policy")
    if policy is None:
        problems.append("either --preset or --policy is required")
    ratios_text = grab("target_ratios")
    try:
        ratios = None if ratios_text is None else _parse_ratios(ratios_text)
    except ValueError as exc:
        problems.append(f"bad target-ratios: {exc}")
        ratios = np.ones(1)
    kind_name = grab("goodness")
    # rho shapes weighted Gini only; set for another goodness, the spec rejects it
    rho = grab("rho") if kind_name == goodness.WEIGHTED_GINI or given("rho") else None
    proto = _build_run(
        dict(name="ucb" if policy is None else policy, epsilon=grab("epsilon")),
        lambda n_agents: _goodness_args(kind_name, n_agents, rho, ratios),
        lambda dim: ConfidenceParams.defaults(dim, noise_r=grab("noise_r"), delta=grab("delta"),
                                              lam=grab("lambda")),
        dict(horizon=grab("horizon"), n_agents=grab("agents"), item_dim=grab("item_dim"),
             agent_dim=grab("agent_dim"), utility_kind=grab("utility")),
        problems,
    )
    entries = [RunSpecEntry(name="adhoc", proto=proto, seeds=_derive_seeds(base_seed, reps))]
    return RunPlan(entries, base_seed, preset, reps, out, jobs)


# ---------------------------------------------------------------------------
# serialization for the manifest

# the keys of a manifest's objects (a block's are _block_keys); the sizes
# and utility kind are RunConfig's fields of the same names
_SIZES = ("horizon", "n_agents", "item_dim", "agent_dim", "utility_kind")
_HEADER_KEYS = ("seed", "preset", "reps", "entries", "csv_files")
_ENTRY_KEYS = ("name", "csv", "policy", "seeds", "config")
_RUN_KEYS = (*_SIZES, "goodness", "confidence")


def _block_keys(make) -> list[str]:
    """A block's keys: its constructor's keyword fields, but the
    confidence's dim, which is item_dim + agent_dim."""
    return [part.name for part in fields(make) if part.init and part.name != "dim"]


def _block_to_json(block) -> dict:
    values = {key: getattr(block, key) for key in _block_keys(type(block))}
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in values.items()}


def _entry_to_json(entry: RunSpecEntry) -> dict:
    proto = entry.proto
    return {
        "name": entry.name,
        "csv": entry.csv_name,
        "policy": _block_to_json(proto.policy),
        "seeds": list(entry.seeds),
        "config": {
            **{name: getattr(proto, name) for name in _SIZES},
            "goodness": _block_to_json(proto.goodness),
            "confidence": _block_to_json(proto.confidence),
        },
    }


def _object(value, where: str, keys) -> dict:
    """value, an object of exactly keys; else a ValueError naming where
    and its first unknown key, then its first missing one."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    for key in (*value, *keys):
        if key not in keys:
            raise ValueError(f"{where} has unknown key {key!r}")
        if key not in value:
            raise ValueError(f"{where} has no key {key!r}")
    return value


def _entry_from_json(payload, label: str = "entry") -> RunSpecEntry:
    """A manifest entry, which label names in the line a malformed one raises."""
    payload = _object(payload, label, _ENTRY_KEYS)
    config = _object(payload["config"], f"{label}: config", _RUN_KEYS)
    policy, good, conf = (
        _object(block, f"{label}: {key}", _block_keys(make))
        for block, key, make in ((payload["policy"], "policy", PolicyKind),
                                 (config["goodness"], "goodness", goodness.GoodnessSpec),
                                 (config["confidence"], "confidence", ConfidenceParams)))
    if not isinstance(payload["seeds"], list):
        raise ValueError(f"{label}: seeds must be a list")
    proto = _build_run(policy, lambda n_agents: good,
                       lambda dim: ConfidenceParams(dim=dim, **conf),
                       {name: config[name] for name in _SIZES})
    entry = RunSpecEntry(name=payload["name"], proto=proto, seeds=tuple(payload["seeds"]))
    if payload["csv"] != entry.csv_name:
        raise ValueError(f"{label}: csv must be {entry.csv_name!r}, got {payload['csv']!r}")
    return entry


# ---------------------------------------------------------------------------
# execution


def _batches(entries: list[RunSpecEntry], jobs: int) -> list[tuple]:
    """Batches of runs, each a run, its seeds and each seed's policy kind,
    in entry-then-seed order: one per entry, but the entries of the ridge
    policies next to each other that share a name, seeds and world (their
    manifest block but the policy) make one. While there are fewer
    batches than jobs, the runs of the largest are split in two halves,
    so every worker gets runs."""
    batches, last = [], None
    for entry in entries:
        key = entry.proto.policy.uses_ridge and {**_entry_to_json(entry), "policy": 0, "csv": 0}
        proto, seeds, kinds = batches.pop() if key and key == last else (entry.proto, (), ())
        batches.append((proto, seeds + entry.seeds,
                        kinds + (entry.proto.policy,) * len(entry.seeds)))
        last = key
    while len(batches) < jobs:
        k = max(range(len(batches)), key=lambda i: len(batches[i][1]))
        proto, seeds, kinds = batches[k]
        if len(seeds) < 2:
            break
        half = (len(seeds) + 1) // 2
        batches[k : k + 1] = [(proto, seeds[:half], kinds[:half]),
                              (proto, seeds[half:], kinds[half:])]
    return batches


def execute_entries(entries: list[RunSpecEntry], jobs: int, outdir: str) -> list[str]:
    """Run every entry's repetitions, a batch of runs in lockstep at a
    time, taking the batches in order and aggregating each entry once its
    seeds' traces are in. A run fault in any batch is raised before an
    aggregate fault, and the entries' CSVs are written only once every
    entry is aggregated, so an abort leaves no CSV."""
    batches = _batches(entries, jobs)
    with contextlib.ExitStack() as stack:
        mapped = map
        if jobs > 1 and len(batches) > 1:
            # imported here, so that a run that starts no pool does not load
            # concurrent.futures and multiprocessing (about 30 ms)
            from concurrent.futures import ProcessPoolExecutor

            mapped = stack.enter_context(ProcessPoolExecutor(min(jobs, len(batches)))).map
        traces = itertools.chain.from_iterable(mapped(simulator.run_batch, *zip(*batches)))
        series, fault = [], None
        for entry in entries:
            runs = [next(traces) for _ in entry.seeds]
            if fault is None:
                try:
                    series.append(simulator.aggregate(runs))
                except simulator.RunAbortedError as exc:
                    fault = exc  # raised unless a later batch has a run fault
    if fault is not None:
        raise fault
    for entry, entry_series in zip(entries, series):
        path = os.path.join(outdir, entry.csv_name)
        simulator.write_series_csv(entry_series, path)
        print(f"wrote {path}")
    return [entry.csv_name for entry in entries]


def _prepare_outdir(outdir: str) -> None:
    try:
        os.makedirs(outdir, exist_ok=True)
        probe = os.path.join(outdir, ".write-probe")
        open(probe, "w", encoding="utf-8").close()
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
        run.add_argument(_flag(key), type=kind, help=text)
    run.add_argument("--config", help="key=value config file; flags win")
    run.add_argument("--manifest", help="re-run the exact runs recorded in a manifest.json")
    return parser


def _plan_from_manifest(ns: argparse.Namespace) -> RunPlan:
    """Replay plan for a manifest; output goes next to it unless --out.
    The manifest fixes the runs, so of the options only --out and --jobs
    may come with it, and its header obeys the rules of the flags. No
    two entries may write the same CSV file."""
    replay_only = [key for key in (*DEFAULTS, "config") if key not in ("out", "jobs")]
    problems = _clashes(lambda key: getattr(ns, key) is not None, replay_only, "manifest")
    with open(ns.manifest, encoding="utf-8") as fh:
        payload = _object(json.load(fh), "manifest", _HEADER_KEYS)
    seed, reps, items = payload["seed"], payload["reps"], payload["entries"]
    jobs = DEFAULTS["jobs"] if ns.jobs is None else ns.jobs
    problems += _command_problems(seed, reps, jobs)
    if not isinstance(items, list):
        problems.append("manifest: entries must be a list")
    elif not items:
        problems.append("a manifest must hold at least 1 entry")
    if problems:
        raise ConfigError(problems)
    entries = []
    for k, item in enumerate(items):
        try:
            entries.append(_entry_from_json(item, f"entry {k}"))
        except (ValueError, TypeError) as exc:
            # every broken entry's lines, in entry order; the entries of a
            # grid point share their seeds, so a line already given is not repeated
            problems += [line for line in str(exc).splitlines() if line not in problems]
    if problems:
        raise ConfigError(problems)
    # the entries of a grid point share their name and seeds: one line each
    counts = dict.fromkeys(f"entry {entry.name!r} has {len(entry.seeds)} seeds, not reps={reps}"
                           for entry in entries if len(entry.seeds) != reps)
    # each entry writes its own CSV; a later one would overwrite it
    writers, clashes = {}, []
    for k, entry in enumerate(entries):
        first = writers.setdefault(entry.csv_name, k)
        if first != k:
            clashes.append(f"entries {first} and {k} ({entry.name!r}, policy "
                           f"{entry.proto.policy.name}) both write {entry.csv_name}")
    if counts or clashes:
        raise ConfigError(list(counts) + clashes)
    written = [entry.csv_name for entry in entries]
    if payload["csv_files"] != written:
        raise ConfigError([f"manifest: csv_files must be {written}, got {payload['csv_files']!r}"])
    out = ns.out or os.path.dirname(os.path.abspath(ns.manifest))
    return RunPlan(entries, seed, payload["preset"], reps, out, jobs)


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
