"""Config resolution, preset registry, artifact emission, exit codes."""

import argparse
import concurrent.futures
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ofdsim import cli, environment, estimators, goodness, simulator
from ofdsim.cli import ConfigError

import corpus


def make_ns(**kw):
    fields = (
        "preset policy goodness rho agents item_dim agent_dim horizon reps seed "
        "lambda noise_r delta out jobs utility epsilon target_ratios config manifest"
    ).split()
    values = {f: None for f in fields}
    values.update(kw)
    return argparse.Namespace(command="run", **values)


# ---------------------------------------------------------------------------
# preset registry

EXPECTED_PRESETS = {
    "fig1-linear-d4": dict(points=1, policies=4, horizon=10000, agents=10, dim=4,
                           rho=0.85, utility="linear"),
    "fig1-linear-d10": dict(points=1, policies=4, horizon=10000, agents=10, dim=10,
                            rho=0.85, utility="linear"),
    "fig1-linear-d20": dict(points=1, policies=4, horizon=10000, agents=10, dim=20,
                            rho=0.85, utility="linear"),
    "fig1-square": dict(points=1, policies=4, horizon=500, agents=10, dim=4,
                        rho=0.85, utility="square"),
    "fig2-vary-agents": dict(points=5, policies=2, horizon=1000, agents=None, dim=40,
                             rho=1.0, utility="linear"),
    "fig2-vary-dims": dict(points=5, policies=2, horizon=1000, agents=10, dim=None,
                           rho=1.0, utility="linear"),
    "fig2b-rho085": dict(points=10, policies=2, horizon=1000, agents=None, dim=None,
                         rho=0.85, utility="linear"),
    "fig3-rho-sweep": dict(points=20, policies=4, horizon=1000, agents=10, dim=40,
                           rho=None, utility="linear"),
}


@pytest.mark.parametrize("preset", cli.PRESET_NAMES)
def test_preset_registry_table(preset):
    want = EXPECTED_PRESETS[preset]
    entries = cli.expand_preset(preset, reps=3, base_seed=0)
    names = {e.name for e in entries}
    assert len(names) == want["points"]
    assert len(entries) == want["points"] * want["policies"]
    for e in entries:
        assert e.proto.horizon == want["horizon"]
        assert e.proto.utility_kind == want["utility"]
        if want["agents"] is not None:
            assert e.proto.n_agents == want["agents"]
        if want["dim"] is not None:
            assert e.proto.item_dim + e.proto.agent_dim == want["dim"]
        assert len(e.seeds) == 3
        conf = e.proto.confidence
        assert (conf.lam, conf.noise_r, conf.delta) == (0.01, 0.1, 0.05)
        spec = e.proto.goodness
        assert spec.kind == goodness.WEIGHTED_GINI
        if want["rho"] is not None:
            assert spec.rho == want["rho"]


@pytest.mark.parametrize("preset", cli.PRESET_NAMES)
def test_preset_entries_write_distinct_csv_files(preset):
    names = [entry.csv_name for entry in cli.expand_preset(preset, reps=1, base_seed=0)]
    assert len(set(names)) == len(names)


def test_fig3_grid_covers_rho_range_inclusive():
    assert cli.RHO_GRID[0] == 0.0
    assert cli.RHO_GRID[-1] == 1.0
    assert len(cli.RHO_GRID) == 20
    assert all(lo < hi for lo, hi in zip(cli.RHO_GRID, cli.RHO_GRID[1:]))
    entries = cli.expand_preset("fig3-rho-sweep", 2, 1)
    by_name = {}
    for e in entries:
        by_name.setdefault(e.name, e)
    zero_point = by_name["fig3-rho-sweep-r000"]
    np.testing.assert_array_equal(
        zero_point.proto.goodness.weights, [1.0] + [0.0] * 9
    )


def test_fig2_grids():
    assert cli.AGENT_GRID == (5, 10, 15, 20, 25)
    assert cli.DIM_GRID == (10, 20, 30, 40, 50)
    entries = cli.expand_preset("fig2-vary-agents", 2, 0)
    assert sorted({e.proto.n_agents for e in entries}) == [5, 10, 15, 20, 25]
    entries = cli.expand_preset("fig2-vary-dims", 2, 0)
    assert sorted({e.proto.item_dim + e.proto.agent_dim for e in entries}) == [10, 20, 30, 40, 50]


def test_preset_policies_match_figures():
    entries = cli.expand_preset("fig1-linear-d4", 2, 0)
    assert [e.proto.policy.name for e in entries] == ["ucb", "ts", "greedy", "uniform"]
    entries = cli.expand_preset("fig1-square", 2, 0)
    assert [e.proto.policy.name for e in entries] == ["ucb", "ts", "gp-ucb", "gp-ts"]


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        cli.expand_preset("fig9", 2, 0)


def test_seeds_shared_across_grid_points_and_presets():
    sweep = cli.expand_preset("fig3-rho-sweep", 4, 123)
    assert len({e.seeds for e in sweep}) == 1
    flat = cli.expand_preset("fig1-linear-d4", 4, 123)
    assert flat[0].seeds == sweep[0].seeds
    other = cli.expand_preset("fig1-linear-d4", 4, 124)
    assert other[0].seeds != flat[0].seeds


# ---------------------------------------------------------------------------
# config resolution


def test_empty_config_fills_experiment_defaults():
    entries = cli.validate_config(make_ns(policy="ucb")).entries
    assert len(entries) == 1
    proto = entries[0].proto
    assert proto.horizon == 10000
    assert proto.n_agents == 10
    assert proto.goodness.rho == 0.85
    conf = proto.confidence
    assert (conf.lam, conf.noise_r, conf.delta) == (0.01, 0.1, 0.05)
    assert len(entries[0].seeds) == 20


def test_rho_out_of_range_names_the_interval():
    with pytest.raises(ConfigError, match=r"\(0,1\]"):
        cli.validate_config(make_ns(policy="ucb", rho=1.5))


def test_short_horizon_names_round_robin():
    with pytest.raises(ConfigError, match="round-robin"):
        cli.validate_config(make_ns(policy="ucb", horizon=5, agents=10))


@pytest.mark.parametrize(
    "flags, patterns",
    [
        (dict(rho=2.0, agents=-1, delta=2.0), [r"^rho ", r"agents must", r"^delta "]),
        # each of these breaks two fields of one constructor
        (dict(policy="best", epsilon=3.0), [r"unknown policy 'best'", r"^epsilon "]),
        ({"lambda": 0.0, "delta": 2.0}, [r"^lambda ", r"^delta "]),
        (dict(goodness="median", item_dim=0), [r"unknown goodness 'median'", r"^item.dim "]),
        (dict(rho=2.0, target_ratios="0.5,0.6", agents=2, horizon=20),
         [r"^rho must lie in \(0,1\], got 2\.0$", r"^target_ratios is only valid"]),
        (dict(goodness="targeted", target_ratios="0.5,0.6", rho=0.5, agents=2, horizon=20),
         [r"^weights/rho are only valid", r"^target_ratios must sum to 1, got 1\.1$"]),
    ],
    ids=["rho-agents-delta", "policy-epsilon", "lambda-delta", "goodness-item-dim",
         "rho-target-ratios", "targeted-rho-ratio-sum"],
)
def test_error_report_collects_every_problem(flags, patterns):
    with pytest.raises(ConfigError) as exc_info:
        cli.validate_config(make_ns(**{"policy": "ucb", **flags}))
    problems = str(exc_info.value).splitlines()
    assert len(problems) == len(patterns), problems
    for pattern in patterns:
        assert sum(bool(re.search(pattern, p)) for p in problems) == 1, (pattern, problems)


def test_unknown_policy_and_goodness():
    with pytest.raises(ConfigError, match="unknown policy"):
        cli.validate_config(make_ns(policy="best"))
    with pytest.raises(ConfigError, match="unknown goodness"):
        cli.validate_config(make_ns(policy="ucb", goodness="median"))


def test_preset_conflicts_with_structural_flags(tmp_path):
    # a preset fixes every run option, so any of them given with it is an error
    cases = [("horizon", 100, "horizon"), ("goodness", "nsw", "goodness"),
             ("lambda", 5.0, "lambda"), ("noise_r", 0.3, "noise-r"),
             ("delta", 0.2, "delta"), ("epsilon", 0.7, "epsilon")]
    for dest, value, flag in cases:
        with pytest.raises(ConfigError) as exc_info:
            cli.validate_config(make_ns(preset="fig1-square", **{dest: value}))
        assert str(exc_info.value).splitlines() == [f"--{flag} cannot be combined with --preset"]
    # the same options set in a config file
    path = tmp_path / "run.cfg"
    path.write_text("preset = fig1-square\nseed = 4\nlambda = 5\nepsilon = 0.7\n")
    with pytest.raises(ConfigError) as exc_info:
        cli.validate_config(make_ns(config=str(path)))
    assert str(exc_info.value).splitlines() == [
        "--lambda cannot be combined with --preset",
        "--epsilon cannot be combined with --preset",
    ]


def test_targeted_requires_ratios():
    with pytest.raises(ConfigError, match="target-ratios"):
        cli.validate_config(make_ns(policy="ucb", goodness="targeted"))
    entries = cli.validate_config(
        make_ns(policy="ucb", goodness="targeted", agents=2, horizon=100,
                target_ratios="0.4,0.6")
    ).entries
    np.testing.assert_allclose(entries[0].proto.goodness.target_ratios, [0.4, 0.6])


def test_rho_zero_maps_to_min_weights():
    entries = cli.validate_config(make_ns(policy="ucb", rho=0.0, agents=3, horizon=50)).entries
    np.testing.assert_array_equal(
        entries[0].proto.goodness.weights, [1.0, 0.0, 0.0]
    )


def test_config_file_values_and_flag_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sweep base\n"
        "policy = ts\n"
        "agents = 4\n"
        "horizon = 200\n"
        "rho = 0.9\n"
    )
    entries = cli.validate_config(make_ns(config=str(path))).entries
    assert entries[0].proto.policy.name == "ts"
    assert entries[0].proto.horizon == 200
    # flags win over the file
    entries = cli.validate_config(make_ns(config=str(path), horizon=400)).entries
    assert entries[0].proto.horizon == 400


def test_config_file_problems_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("policy = ucb\nwhat\nreps = many\nmystery = 3\n")
    with pytest.raises(ConfigError) as exc_info:
        cli.validate_config(make_ns(config=str(path)))
    text = str(exc_info.value)
    assert ":2:" in text and ":3:" in text and ":4:" in text


def test_config_file_empty_policy_is_no_policy_name(tmp_path):
    # an empty value names no policy; it does not fall back to ucb
    path = tmp_path / "run.cfg"
    path.write_text("policy =\n")
    with pytest.raises(ConfigError) as exc_info:
        cli.validate_config(make_ns(config=str(path)))
    assert str(exc_info.value).startswith("unknown policy ''")


def test_environment_seed_default(monkeypatch):
    monkeypatch.setenv("OFD_SEED", "77")
    a = cli.validate_config(make_ns(policy="ucb", reps=2))
    monkeypatch.delenv("OFD_SEED")
    b = cli.validate_config(make_ns(policy="ucb", reps=2, seed=77))
    assert a.seed == b.seed == 77
    assert a.entries[0].seeds == b.entries[0].seeds


def test_malformed_environment_seed_is_named(tmp_path, capsys, monkeypatch):
    args = ["run", "--policy", "ucb", "--reps", "1", "--horizon", "20",
            "--out", str(tmp_path / "x")]
    for env_seed in ("abc", "-5"):
        monkeypatch.setenv("OFD_SEED", env_seed)
        assert run_cli(*args) == 2
        assert capsys.readouterr().err == (
            f"config error: OFD_SEED must be a non-negative integer, got {env_seed!r}\n"
        )


def test_plan_header_resolved_from_file_and_flags(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preset = fig1-square\nseed = 9\nreps = 2\nout = elsewhere\njobs = 2\n")
    plan = cli.validate_config(make_ns(config=str(path), out=str(tmp_path / "flag")))
    assert (plan.preset, plan.seed, plan.reps, plan.jobs) == ("fig1-square", 9, 2, 2)
    assert plan.out == str(tmp_path / "flag")
    assert plan.entries == cli.expand_preset("fig1-square", 2, 9)
    defaults = cli.validate_config(make_ns(policy="ucb"))
    assert (defaults.preset, defaults.reps, defaults.out, defaults.jobs) == (None, 20, "results", 1)


# ---------------------------------------------------------------------------
# manifest serialization


def test_entry_json_round_trip():
    # every preset's entries read back from their JSON as the same JSON
    for preset in cli.PRESET_NAMES:
        for entry in cli.expand_preset(preset, 1, 9):
            written = json.loads(json.dumps(cli._entry_to_json(entry)))
            clone = cli._entry_from_json(written)
            assert json.loads(json.dumps(cli._entry_to_json(clone))) == written
            assert clone.proto.confidence == entry.proto.confidence


def preset_manifest(preset):
    """The manifest of a preset's run at reps 1 and seed 0, made without a run."""
    entries = cli.expand_preset(preset, 1, 0)
    return {"seed": 0, "preset": preset, "reps": 1,
            "entries": [cli._entry_to_json(entry) for entry in entries],
            "csv_files": [entry.csv_name for entry in entries]}


def planned(tmp_path, manifest):
    """The plan of a replay of manifest; making it runs nothing."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return cli._plan_from_manifest(make_ns(manifest=str(path)))


def manifest_objects(value, path=()):
    """Each object in a manifest's JSON value, with its path of keys."""
    if isinstance(value, dict):
        yield path, value
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from manifest_objects(item, (*path, key))


def replay_name(path):
    """How a replay's lines name the manifest object at path: the header,
    an entry, or an entry's config or block."""
    if not path:
        return "manifest"
    return f"entry {path[1]}" + (f": {path[-1]}" if len(path) > 2 else "")


def replay_line(tmp_path, manifest):
    with pytest.raises(ValueError) as exc_info:
        planned(tmp_path, manifest)
    return str(exc_info.value)


def test_a_manifest_without_any_one_of_its_keys_is_rejected(tmp_path):
    manifest = preset_manifest("fig1-square")
    # the header, and each of 4 entries, its config and its three blocks
    objects = list(manifest_objects(manifest))
    assert len(objects) == 1 + 4 * 5
    for path, obj in objects:
        for key in list(obj):
            value = obj.pop(key)
            assert replay_line(tmp_path, manifest) == f"{replay_name(path)} has no key {key!r}"
            obj[key] = value
    plan = planned(tmp_path, manifest)
    assert (plan.seed, plan.preset, plan.reps, len(plan.entries)) == (0, "fig1-square", 1, 4)


def test_a_manifest_preset_must_expand_to_its_entries(tmp_path):
    # a name that is no preset, another preset's name, and the preset's own
    # name over edited entries or at another seed are rejected; null replays
    # any entries
    manifest = preset_manifest("fig1-square")
    for preset, shown in ((5, "5"), ("fig1-linear-d4", "'fig1-linear-d4'"),
                          (["fig1-square"], "['fig1-square']")):
        manifest["preset"] = preset
        assert replay_line(tmp_path, manifest) == PRESET_LINE.format(shown)
    manifest["preset"] = "fig1-square"
    assert planned(tmp_path, manifest).preset == "fig1-square"
    manifest["seed"] = 1
    assert replay_line(tmp_path, manifest) == PRESET_LINE.format("'fig1-square'")
    manifest["seed"] = 0
    manifest["entries"][3]["config"]["horizon"] = 499
    assert replay_line(tmp_path, manifest) == PRESET_LINE.format("'fig1-square'")
    manifest["preset"] = None
    assert planned(tmp_path, manifest).preset is None


def test_a_manifest_with_a_key_added_to_any_object_is_rejected(tmp_path):
    manifest = preset_manifest("fig1-square")
    for path, obj in list(manifest_objects(manifest)):
        obj["zz"] = 0
        assert replay_line(tmp_path, manifest) == f"{replay_name(path)} has unknown key 'zz'"
        del obj["zz"]


# ---------------------------------------------------------------------------
# full command runs (small ad-hoc workloads)


def run_cli(*argv):
    return cli.main(list(argv))


def small_run_args(outdir, **extra):
    args = [
        "run", "--policy", "ucb", "--agents", "3", "--item-dim", "1", "--agent-dim", "1",
        "--horizon", "40", "--reps", "3", "--seed", "5", "--out", str(outdir),
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


def test_run_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "results"
    assert run_cli(*small_run_args(out)) == 0
    csv_path = out / "adhoc_ucb.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,mean_regret,ci95"
    assert len(lines) == 41
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["csv_files"] == ["adhoc_ucb.csv"]
    assert len(manifest["entries"]) == 1


def test_same_seed_runs_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*small_run_args(out_a)) == 0
    assert run_cli(*small_run_args(out_b)) == 0
    assert (out_a / "adhoc_ucb.csv").read_bytes() == (out_b / "adhoc_ucb.csv").read_bytes()


def test_jobs_fanout_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*small_run_args(out_a, jobs=1)) == 0
    assert run_cli(*small_run_args(out_b, jobs=3)) == 0
    assert (out_a / "adhoc_ucb.csv").read_bytes() == (out_b / "adhoc_ucb.csv").read_bytes()


def test_manifest_rerun_reproduces_csv(tmp_path):
    out_a = tmp_path / "a"
    assert run_cli(*small_run_args(out_a)) == 0
    out_b = tmp_path / "b"
    assert run_cli("run", "--manifest", str(out_a / "manifest.json"), "--out", str(out_b)) == 0
    assert (out_a / "adhoc_ucb.csv").read_bytes() == (out_b / "adhoc_ucb.csv").read_bytes()


def test_unknown_preset_exit_code(tmp_path, capsys):
    assert run_cli("run", "--preset", "fig9", "--out", str(tmp_path / "x")) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    assert run_cli(*small_run_args(tmp_path / "x", rho="1.5")) == 2
    assert "(0,1]" in capsys.readouterr().err


def test_gp_noise_scale_overflowing_its_variance_exits_2(tmp_path, capsys):
    args = ["run", "--policy", "gp-ucb", "--utility", "square", "--noise-r", "1e200",
            "--agents", "3", "--horizon", "40", "--reps", "1", "--out", str(tmp_path / "x")]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "too large for a GP policy" in err


def no_buffers(*args, **kwargs):
    raise AssertionError("init_gp was called")


def test_gp_horizon_too_long_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    # the factor's byte bound rejects the run before any buffer is allocated
    monkeypatch.setattr(estimators, "init_gp", no_buffers)
    args = ["run", "--policy", "gp-ucb", "--utility", "square", "--horizon", "16385",
            "--agents", "3", "--reps", "1", "--out", str(tmp_path / "x")]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "too long for a GP policy" in err


def test_rho_zero_weights_wait_for_the_sizes(tmp_path, capsys):
    # rho 0 gives explicit weights, one per agent; a broken agent count builds
    # none, so the run reports the short horizon as it does without rho 0
    errs = []
    for rho in (["--rho", "0"], []):
        args = ["run", "--policy", "ucb", *rho, "--agents", "1000000000000",
                "--horizon", "100", "--reps", "1", "--out", str(tmp_path / "x")]
        assert run_cli(*args) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == ("config error: horizon 100 is shorter than the round-robin "
                                  "phase over 1000000000000 agents\n")


@pytest.mark.parametrize("rho", ["0", "0.85"])
def test_weighted_gini_agents_too_many_for_memory_exit_2(tmp_path, capsys, rho):
    # one round's candidate ledgers take 8*n_agents**2 bytes, 2 GiB at 16384
    # agents; the bound rejects the run before anything of that size exists
    args = ["run", "--policy", "uniform", "--rho", rho, "--agents", "16385",
            "--horizon", "16385", "--reps", "1", "--out", str(tmp_path / "x")]
    tracemalloc.start()
    try:
        assert run_cli(*args) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "n_agents 16385 is too many for weighted Gini" in err


def test_every_rejected_cross_field_rule_prints_its_line(tmp_path, capsys):
    # the GP noise, the GP horizon and the weighted-Gini agent count are each
    # rejected, and each gets its line
    args = ["run", "--policy", "gp-ucb", "--utility", "square", "--horizon", "16385",
            "--agents", "16385", "--noise-r", "1e200", "--reps", "1", "--out", str(tmp_path / "x")]
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == (
        "config error: noise_r 1e+200 is too large for a GP policy "
        "(at most 1.3407807929942596e+154)\n"
        "config error: horizon 16385 is too long for a GP policy, whose factor takes "
        "8*horizon**2 = 2147745800 bytes (at most 2147483648)\n"
        "config error: n_agents 16385 is too many for weighted Gini, whose candidate ledgers "
        "take 8*n_agents**2 = 2147745800 bytes a round (at most 2147483648)\n"
    )


def test_a_regret_series_out_of_the_float_range_exits_4_and_writes_no_csv(tmp_path, capsys):
    # regrets near 1e285 leave the mean finite, but squaring their deviations
    # overflows the CI to inf; a single run's CI is 0, so this takes two
    out = tmp_path / "x"
    args = ["run", "--policy", "ucb", "--noise-r", "1e300", "--reps", "2", "--horizon", "60",
            "--seed", "0", "--out", str(out)]
    assert run_cli(*args) == 4
    assert capsys.readouterr().err == (
        "run aborted: regret series leaves the float range at round 19: "
        "mean_regret 5.948067633911132e+284, ci95 inf\n"
    )
    assert list(out.iterdir()) == []


def test_a_final_ledger_out_of_the_float_range_exits_4_and_writes_no_csv(tmp_path, capsys):
    # noise at the float limit overflows a total in the last of the two
    # warm-start rounds, whose ledger no oracle is charged on
    out = tmp_path / "x"
    args = ["run", "--policy", "uniform", "--agents", "2", "--horizon", "2", "--reps", "1",
            "--noise-r", "1e308", "--seed", "51", "--out", str(out)]
    assert run_cli(*args) == 4
    assert capsys.readouterr().err == (
        "run aborted: run seed=4759943601574245394 ends with a ledger total out of the "
        "float range: agent 1 inf\n"
    )
    assert list(out.iterdir()) == []


def test_a_final_ledger_whose_sum_overflows_exits_4_and_writes_no_csv(tmp_path, capsys):
    # both totals are finite (7.5e307 and 1.2e308), but not their sum
    out = tmp_path / "x"
    args = ["run", "--policy", "uniform", "--agents", "2", "--horizon", "2", "--reps", "1",
            "--noise-r", "1e308", "--seed", "11", "--out", str(out)]
    assert run_cli(*args) == 4
    assert capsys.readouterr().err == (
        "run aborted: run seed=3926704849073358691 ends with a ledger whose sum leaves the "
        "float range: inf\n"
    )
    assert list(out.iterdir()) == []


def append_copy(manifest, name):
    """Append to manifest a copy of its first entry under name, with the
    entry's csv and the header's csv_files to match, and return the copy."""
    copy = json.loads(json.dumps(manifest["entries"][0]))
    copy["name"], copy["csv"] = name, f"{name}_{copy['policy']['name']}.csv"
    manifest["entries"].append(copy)
    manifest["csv_files"].append(copy["csv"])
    return copy


def test_a_later_entrys_abort_writes_no_csv(tmp_path, capsys):
    # every entry is aggregated before the first CSV is written, so the
    # second entry's abort leaves the first entry's CSV unwritten too
    out = tmp_path / "a"
    assert run_cli("run", "--policy", "ucb", "--reps", "2", "--horizon", "60", "--seed", "0",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    append_copy(manifest, "big")["config"]["confidence"]["noise_r"] = 1e300
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    replay = tmp_path / "b"
    assert run_cli("run", "--manifest", str(out / "manifest.json"), "--out", str(replay)) == 4
    assert capsys.readouterr().err == (
        "run aborted: regret series leaves the float range at round 19: "
        "mean_regret 5.948067633911132e+284, ci95 inf\n"
    )
    assert list(replay.iterdir()) == []


def test_a_run_fault_in_a_later_batch_is_raised_before_an_aggregate_fault(tmp_path, capsys):
    # entry 0's regret series leaves the float range once aggregated, and
    # entry 1's runs lose definiteness at round 10: the run fault is the
    # one reported, and no CSV is written
    out = tmp_path / "a"
    assert run_cli("run", "--policy", "ucb", "--agents", "10", "--horizon", "20", "--reps", "3",
                   "--seed", "0", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    append_copy(manifest, "other")["config"]["confidence"]["lam"] = 1e-15
    manifest["entries"][0]["config"]["confidence"]["noise_r"] = 1e300
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    replay = tmp_path / "b"
    assert run_cli("run", "--manifest", str(out / "manifest.json"), "--out", str(replay)) == 4
    err = capsys.readouterr().err
    assert err.startswith("run aborted: run seed=15793235383387715774 aborted at round 10: ")
    assert err.count("\n") == 1
    assert list(replay.iterdir()) == []


def test_an_entry_is_aggregated_before_the_last_batch_runs(tmp_path, monkeypatch):
    # at --jobs 1 the batches run in order, and each entry is aggregated as
    # soon as its traces are in, so the CLI holds one batch's traces
    events = []
    run_batch, aggregate = simulator.run_batch, simulator.aggregate

    def running(config, seeds, kinds=None):
        events.append("batch")
        return run_batch(config, seeds, kinds)

    def aggregating(traces):
        events.append("aggregate")
        return aggregate(traces)

    monkeypatch.setattr(simulator, "run_batch", running)
    monkeypatch.setattr(simulator, "aggregate", aggregating)
    entries = [dataclasses.replace(entry, proto=dataclasses.replace(entry.proto, horizon=60))
               for entry in cli.expand_preset("fig1-linear-d4", 2, 0)]
    cli.execute_entries(entries, 1, str(tmp_path))
    assert events == ["batch"] + ["aggregate"] * 3 + ["batch", "aggregate"]


SCIPY_PROBE = """
import sys
from ofdsim import cli, simulator
run_batch = simulator.run_batch
def checked(*args):
    traces = run_batch(*args)
    assert "scipy" not in sys.modules, "a pool worker's run loads scipy"
    return traces
simulator.run_batch = checked
small = ["--agents", "3", "--item-dim", "1", "--agent-dim", "1", "--horizon", "20",
         "--reps", "2", "--jobs", "2"]
for policy in ("ucb", "gp-ucb"):
    assert cli.main(["run", "--policy", policy, *small, "--out", f"{sys.argv[1]}/{policy}"]) == 0
assert "scipy" not in sys.modules, "an ofdsim run loads scipy"
"""


def test_no_run_loads_scipy(tmp_path):
    # a fresh interpreter: this one has scipy already, since the acceptance tests
    # import it; the forked workers run the batches, and each checks its own modules
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_unwritable_outdir_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker / "sub"  # parent is a file, makedirs must fail
    assert run_cli(*small_run_args(target)) == 3
    assert "not writable" in capsys.readouterr().err


def test_single_rep_csv_is_a_zero_ci_series(tmp_path):
    out_a = tmp_path / "a"
    assert run_cli(*small_run_args(out_a, reps="1")) == 0
    lines = (out_a / "adhoc_ucb.csv").read_text().splitlines()
    assert lines[0] == "t,mean_regret,ci95"
    assert len(lines) == 41
    assert all(line.split(",")[2] == "0.0" for line in lines[1:])
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["reps"] == 1 and len(manifest["entries"][0]["seeds"]) == 1
    out_b = tmp_path / "b"
    assert run_cli("run", "--manifest", str(out_a / "manifest.json"), "--out", str(out_b)) == 0
    assert (out_a / "adhoc_ucb.csv").read_bytes() == (out_b / "adhoc_ucb.csv").read_bytes()


def test_nsw_product_overflow_exit_code(tmp_path, capsys):
    # the product of 200 ledger totals leaves the float range mid-run
    args = ["run", "--policy", "ucb", "--goodness", "nsw", "--agents", "200",
            "--horizon", "5000", "--reps", "1", "--seed", "0", "--out", str(tmp_path / "x")]
    assert run_cli(*args) == 4
    err = capsys.readouterr().err
    assert "aborted" in err and "float range" in err
    # a summary of the ledger, not all 200 totals
    assert "round 734" in err and "200 agents" in err
    assert len(err.encode()) < 500


def test_negative_noisy_total_does_not_crash_aggregation(tmp_path):
    # a rep of this seed ends with one realized total at -0.056
    args = ["run", "--preset", "fig1-square", "--reps", "2", "--jobs", "1",
            "--seed", "1877205210", "--out", str(tmp_path / "x")]
    assert run_cli(*args) == 0


def test_goodness_abort_exit_code(tmp_path, capsys):
    args = small_run_args(tmp_path / "x", goodness="nsw", noise_r="30.0", agents="5",
                          item_dim="2", agent_dim="2", horizon="50", reps="1", seed="0")
    assert run_cli(*args) == 4
    assert "aborted" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, names",
    [
        # M^-1 = I/lambda loses definiteness to round-off by round 10; the
        # ledger already holds round 10's utility, given to agent 9
        (["--policy", "ucb", "--lambda", "1e-15", "--agents", "10", "--horizon", "20"],
         ["run aborted: run seed=15793235383387715774 aborted at round 10: Sherman-Morrison "
          "denominator -5.613e+00 is not positive; ledger of 10 agents: "
          "min 5.036029756395931 (agent 9), max 15.327921728420566\n"]),
        # a noisy ledger goes negative under log-nsw
        (["--policy", "ucb", "--noise-r", "1e6", "--goodness", "log-nsw", "--agents", "5",
          "--horizon", "500"], ["round 6", "got min -1819064.68"]),
        # noise at the float limit overflows a ledger total to -inf
        (["--policy", "uniform", "--noise-r", "1e308", "--agents", "3", "--horizon", "60"],
         ["round 2", "oracle candidate goodness is not finite"]),
        # the same overflow in a learner's warm start: the run goes on to the
        # policy's fault at round 13, and the oracle's fault at round 2,
        # charged with the rounds before 13, comes first
        (["--policy", "ucb", "--noise-r", "1e308", "--agents", "12", "--horizon", "60"],
         ["run aborted: run seed=15793235383387715774 aborted at round 2: oracle candidate "
          "goodness is not finite; ledger of 12 agents: min -inf (agent 0), max 0.0\n"]),
        # an exploring learner checks no ledger, so the negative NSW ledger of
        # round 6 is found when the block's oracle is charged, at round 50
        (["--policy", "greedy", "--epsilon", "1", "--goodness", "nsw", "--noise-r", "30",
          "--agents", "5", "--horizon", "50"],
         ["run aborted: run seed=15793235383387715774 aborted at round 6: nsw requires strictly "
          "positive utilities, got min -48.53273330549815; ledger of 5 agents: "
          "min -48.53273330549815 (agent 0), max 3.518364481470523\n"]),
    ],
    ids=["tiny-lambda", "negative-log-nsw-ledger", "overflowing-ledger",
         "overflowing-ledger-in-warm-start", "negative-nsw-ledger-exploring"],
)
def test_mid_run_faults_exit_4_with_one_short_line(tmp_path, capsys, flags, names):
    args = ["run", *flags, "--reps", "1", "--seed", "0", "--out", str(tmp_path / "x")]
    assert run_cli(*args) == 4
    err = capsys.readouterr().err
    assert err.startswith("run aborted:") and err.count("\n") == 1
    assert all(name in err for name in names), err
    assert "np.float64" not in err and len(err.encode()) < 500


def test_a_run_fault_through_the_process_pool_exits_4_with_the_sequential_line(tmp_path,
                                                                             capsys):
    # at --jobs 2 and 3 the reps are split over forked workers, and the
    # first line in seed order is printed, whichever worker raises first
    lines = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / jobs
        args = ["run", "--policy", "ucb", "--lambda", "1e-15", "--agents", "10",
                "--horizon", "20", "--reps", "3", "--seed", "0", "--jobs", jobs, "--out", str(out)]
        assert run_cli(*args) == 4
        lines.append(capsys.readouterr().err)
        assert list(out.iterdir()) == []
    assert lines == [lines[0]] * 3
    assert lines[0].startswith("run aborted: run seed=15793235383387715774 aborted at round 10: ")
    assert lines[0].count("\n") == 1


ENTRY_EDITS = {
    "rho-2": lambda entry: entry["config"]["goodness"].update(rho=2.0),
    "horizon-below-agents": lambda entry: entry["config"].update(horizon=2),
    "unknown-policy": lambda entry: entry["policy"].update(name="best"),
    "weights-too-short":
        lambda entry: entry["config"]["goodness"].update(rho=None, weights=[1.0, 0.5]),
    "gp-noise-r-1e200": lambda entry: (entry["policy"].update(name="gp-ucb"),
                                       entry["config"]["confidence"].update(noise_r=1e200)),
    "negative-seed": lambda entry: entry.update(seeds=[-1, 5]),
    "non-integer-seed": lambda entry: entry.update(seeds=[1.5, 5]),
    "no-seeds": lambda entry: entry.update(seeds=[]),
    "gp-horizon-16385": lambda entry: (entry["policy"].update(name="gp-ucb"),
                                       entry["config"].update(horizon=16385)),
    "horizon-float": lambda entry: entry["config"].update(horizon=20.0),
    "n-agents-float": lambda entry: entry["config"].update(n_agents=3.0),
    "item-dim-float": lambda entry: entry["config"].update(item_dim=2.0),
    "agent-dim-float": lambda entry: entry["config"].update(agent_dim=2.0),
    "noise-r-string": lambda entry: entry["config"]["confidence"].update(noise_r="0.1"),
    "noise-r-true": lambda entry: entry["config"]["confidence"].update(noise_r=True),
    "delta-string": lambda entry: entry["config"]["confidence"].update(delta="0.05"),
    "delta-2": lambda entry: entry["config"]["confidence"].update(delta=2.0),
    "epsilon-string": lambda entry: entry["policy"].update(epsilon="0.1"),
    "rho-string": lambda entry: entry["config"]["goodness"].update(rho="0.5"),
    "weights-strings":
        lambda entry: entry["config"]["goodness"].update(rho=None, weights=["a"]),
    "target-ratios-strings": lambda entry: entry["config"]["goodness"].update(
        kind="targeted", rho=None, target_ratios=["0.5", "0.5"]),
    "policy-rho-delta": lambda entry: (entry["policy"].update(name="best"),
                                       entry["config"]["goodness"].update(rho=2.0),
                                       entry["config"]["confidence"].update(delta=2.0)),
    "goodness-unknown-key": lambda entry: entry["config"]["goodness"].update(scale=2.0),
    "entry-name-escapes": lambda entry: entry.update(name="../../x"),
    "empty-policy": lambda entry: entry["policy"].update(name=""),
    "no-seeds-key": lambda entry: entry.pop("seeds"),
    "goodness-not-an-object": lambda entry: entry["config"].update(goodness="x"),
    "seeds-an-integer": lambda entry: entry.update(seeds=5),
    "seeds-a-string": lambda entry: entry.update(seeds="12"),
    "confidence-unknown-key": lambda entry: entry["config"]["confidence"].update(scale=2.0),
    "confidence-dim-key": lambda entry: entry["config"]["confidence"].update(dim=4),
    "policy-unknown-key": lambda entry: entry["policy"].update(scale=2.0),
    "goodness-no-kind": lambda entry: entry["config"]["goodness"].pop("kind"),
    "goodness-no-weights": lambda entry: entry["config"]["goodness"].pop("weights"),
    "confidence-no-lam": lambda entry: entry["config"]["confidence"].pop("lam"),
    "policy-no-name": lambda entry: entry["policy"].pop("name"),
    "config-unknown-key": lambda entry: entry["config"].update(scale=2.0),
    "entry-unknown-key": lambda entry: entry.update(horizn=5),
    "csv-not-its-own": lambda entry: entry.update(csv="other.csv"),
}


def in_first_entry(edit):
    """An edit of a manifest that applies edit to its first entry."""
    return lambda manifest: edit(manifest["entries"][0])


def in_two_entries(first_edit, second_edit):
    """An edit of a manifest that appends a copy of its first entry, named
    'other', and applies first_edit to the first and second_edit to the copy."""
    def edit(manifest):
        second = append_copy(manifest, "other")
        first_edit(manifest["entries"][0])
        second_edit(second)
    return edit


MANIFEST_EDITS = {
    **{name: in_first_entry(edit) for name, edit in ENTRY_EDITS.items()},
    "no-entries": lambda manifest: manifest.update(entries=[]),
    "header-seed-reps": lambda manifest: manifest.update(reps="x", seed=-5),
    "reps-not-seed-count": lambda manifest: manifest.update(reps=2),
    "rho-and-delta-entries": in_two_entries(ENTRY_EDITS["rho-2"], ENTRY_EDITS["delta-2"]),
    "rho-in-two-entries": in_two_entries(ENTRY_EDITS["rho-2"], ENTRY_EDITS["rho-2"]),
    "entry-not-an-object": lambda manifest: manifest["entries"].__setitem__(0, 5),
    "header-unknown-key": lambda manifest: manifest.update(note="x"),
    "csv-files-not-the-entries": lambda manifest: manifest.update(csv_files=["x.csv"]),
    "preset-not-a-name": lambda manifest: manifest.update(preset=5),
    "preset-of-other-entries": lambda manifest: manifest.update(preset="fig1-linear-d4"),
}


def edited_manifest_error(tmp_path, capsys, edit, *replay_args):
    """stderr of replaying a small run's manifest after edit changed it."""
    out = tmp_path / "a"
    assert run_cli(*small_run_args(out)) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("run", "--manifest", str(out / "manifest.json"), *replay_args) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("edit", list(MANIFEST_EDITS.values()), ids=list(MANIFEST_EDITS))
def test_edited_manifest_exits_2(tmp_path, capsys, monkeypatch, edit):
    # each edit is rejected before any run starts, so no GP buffer is allocated
    monkeypatch.setattr(estimators, "init_gp", no_buffers)
    assert edited_manifest_error(tmp_path, capsys, edit).startswith("config error:")


@pytest.mark.parametrize("name, field", [("item-dim-float", "item_dim"),
                                         ("agent-dim-float", "agent_dim")])
def test_manifest_float_dim_names_its_field(tmp_path, capsys, name, field):
    # the sizes are checked before the confidence dim is built from them
    err = edited_manifest_error(tmp_path, capsys, MANIFEST_EDITS[name])
    assert err == f"config error: {field} must be an integer, got 2.0\n"


NON_REAL_LINES = {
    "noise-r-string": "noise_r must be a real number, got '0.1'",
    "noise-r-true": "noise_r must be a real number, got True",
    "delta-string": "delta must be a real number, got '0.05'",
    "epsilon-string": "epsilon must be a real number, got '0.1'",
    "rho-string": "rho must be a real number, got '0.5'",
    "weights-strings": "weights must be real numbers, got ['a']",
    "target-ratios-strings": "target_ratios must be real numbers, got ['0.5', '0.5']",
}


@pytest.mark.parametrize("name, line", NON_REAL_LINES.items(), ids=list(NON_REAL_LINES))
def test_manifest_non_real_value_names_its_field(tmp_path, capsys, name, line):
    # a string or a bool is no real number, even where it would convert to one
    err = edited_manifest_error(tmp_path, capsys, MANIFEST_EDITS[name])
    assert err == f"config error: {line}\n"


# flags that break what the manifest edit of the same name breaks
FLAG_EDITS = {
    "rho-2": {"rho": "2"},
    "horizon-below-agents": {"horizon": "2"},
    "unknown-policy": {"policy": "best"},
    "gp-noise-r-1e200": {"policy": "gp-ucb", "noise_r": "1e200"},
    "policy-rho-delta": {"policy": "best", "rho": "2", "delta": "2"},
    "empty-policy": {"policy": ""},
}


@pytest.mark.parametrize("name", list(FLAG_EDITS))
def test_flag_and_manifest_paths_print_the_same_error(tmp_path, capsys, name):
    # one rule, one message: one constructor words both rejections
    assert run_cli(*small_run_args(tmp_path / "flags", **FLAG_EDITS[name])) == 2
    from_flags = capsys.readouterr().err
    from_manifest = edited_manifest_error(tmp_path, capsys, MANIFEST_EDITS[name])
    assert from_flags.startswith("config error:")
    assert from_flags == from_manifest


PRESET_LINE = (f"manifest: preset must be null or one of {', '.join(cli.PRESET_NAMES)} whose "
               "runs at this seed and reps are the entries, got {}; replay edited entries "
               "with null")

# rules a replay obeys that no flag can break
REPLAY_LINES = {
    "goodness-unknown-key": ["entry 0: goodness has unknown key 'scale'"],
    "no-entries": ["a manifest must hold at least 1 entry"],
    "header-seed-reps": ["seed must be non-negative, got -5", "reps must be >= 1, got 'x'"],
    "reps-not-seed-count": ["entry 'adhoc' has 3 seeds, not reps=2"],
    # every broken entry's lines, in entry order, each line once
    "rho-and-delta-entries": ["rho must lie in (0,1], got 2.0", "delta must lie in (0,1), got 2.0"],
    "rho-in-two-entries": ["rho must lie in (0,1], got 2.0"],
    # a malformed entry names itself and the key
    "entry-not-an-object": ["entry 0 must be an object"],
    "no-seeds-key": ["entry 0 has no key 'seeds'"],
    "goodness-not-an-object": ["entry 0: goodness must be an object"],
    "seeds-an-integer": ["entry 0: seeds must be a list"],
    "seeds-a-string": ["entry 0: seeds must be a list"],
    "confidence-unknown-key": ["entry 0: confidence has unknown key 'scale'"],
    # the confidence's dim is item_dim + agent_dim, which no manifest writes
    "confidence-dim-key": ["entry 0: confidence has unknown key 'dim'"],
    "policy-unknown-key": ["entry 0: policy has unknown key 'scale'"],
    # a manifest holds exactly what ofdsim writes: no key may be missing,
    # none added, at any level
    "goodness-no-kind": ["entry 0: goodness has no key 'kind'"],
    "goodness-no-weights": ["entry 0: goodness has no key 'weights'"],
    "confidence-no-lam": ["entry 0: confidence has no key 'lam'"],
    "policy-no-name": ["entry 0: policy has no key 'name'"],
    "config-unknown-key": ["entry 0: config has unknown key 'scale'"],
    "entry-unknown-key": ["entry 0 has unknown key 'horizn'"],
    "header-unknown-key": ["manifest has unknown key 'note'"],
    # the file names follow from the entries
    "csv-not-its-own": ["entry 0: csv must be 'adhoc_ucb.csv', got 'other.csv'"],
    "csv-files-not-the-entries":
        ["manifest: csv_files must be ['adhoc_ucb.csv'], got ['x.csv']"],
    # a preset names the runs the entries are, at the header's seed and reps
    "preset-not-a-name": [PRESET_LINE.format("5")],
    "preset-of-other-entries": [PRESET_LINE.format("'fig1-linear-d4'")],
}


@pytest.mark.parametrize("name, lines", REPLAY_LINES.items(), ids=list(REPLAY_LINES))
def test_manifest_header_and_blocks_name_each_problem(tmp_path, capsys, name, lines):
    err = edited_manifest_error(tmp_path, capsys, MANIFEST_EDITS[name])
    assert err.splitlines() == [f"config error: {line}" for line in lines]


def test_a_manifest_that_is_no_object_is_named(tmp_path, capsys):
    out = tmp_path / "a"
    assert run_cli(*small_run_args(out)) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps([manifest]))
    assert run_cli("run", "--manifest", str(out / "manifest.json")) == 2
    assert capsys.readouterr().err == "config error: manifest must be an object\n"


@pytest.mark.parametrize("given, twice, line", [
    ('"rho": 0.85,', '"rho": 0.85, "rho": 0.5,', "entry 0: goodness has key 'rho' twice"),
    ('"horizon": 40,', '"horizon": 40, "horizon": 40,', "entry 0: config has key 'horizon' twice"),
    ('"reps": 3,', '"reps": 3, "reps": 3,', "manifest has key 'reps' twice"),
], ids=["goodness-rho", "config-horizon", "header-reps"])
def test_a_manifest_key_given_twice_is_named(tmp_path, capsys, given, twice, line):
    # JSON allows a repeated key, and json.load keeps its last value; a
    # replay of it would run what no ofdsim manifest records
    out = tmp_path / "a"
    assert run_cli(*small_run_args(out)) == 0
    capsys.readouterr()
    text = (out / "manifest.json").read_text()
    assert text.count(given) == 1
    (out / "manifest.json").write_text(text.replace(given, twice))
    assert run_cli("run", "--manifest", str(out / "manifest.json")) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


def test_a_config_file_key_given_twice_names_both_lines(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("policy = ucb\nagents = 3\nitem-dim = 1\nhorizon = 40\n"
                    "rho = 0.5\nrho = 0.9\nitem_dim = 1\n")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {path}:6: key 'rho' given again (first at line 5)",
        f"config error: {path}:7: key 'item_dim' given again (first at line 3)",
    ]


def test_entries_that_write_one_csv_are_rejected_before_any_run(tmp_path, capsys):
    # a second entry of the same name and policy would overwrite the first's
    # CSV; the plan is rejected before the output directory is made
    def duplicated(manifest):
        first = manifest["entries"][0]
        for _ in range(2):
            copy = json.loads(json.dumps(first))
            copy["config"]["horizon"] = 30
            manifest["entries"].append(copy)

    err = edited_manifest_error(tmp_path, capsys, duplicated, "--out", str(tmp_path / "b"))
    assert err.splitlines() == [
        "config error: entries 0 and 1 ('adhoc', policy ucb) both write adhoc_ucb.csv",
        "config error: entries 0 and 2 ('adhoc', policy ucb) both write adhoc_ucb.csv",
    ]
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../x", 5, None, "x\0y"])
def test_entry_name_must_be_a_plain_file_name(name):
    proto = cli.expand_preset("fig1-linear-d4", 1, 0)[0].proto
    with pytest.raises(ValueError, match="plain file name"):
        cli.RunSpecEntry(name=name, proto=proto, seeds=(1,))


def test_entry_name_cannot_write_outside_out(tmp_path, capsys):
    # replayed to <d>/out/deep, the name '../../x' would write <d>/x_ucb.csv
    deep = tmp_path / "out" / "deep"
    err = edited_manifest_error(tmp_path, capsys, MANIFEST_EDITS["entry-name-escapes"],
                                "--out", str(deep))
    assert err == "config error: entry name must be a plain file name, got '../../x'\n"
    written = {path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")}
    assert written == {"a", "a/adhoc_ucb.csv", "a/manifest.json"}


def test_manifest_rejects_run_shaping_options(tmp_path, capsys):
    out = tmp_path / "a"
    assert run_cli(*small_run_args(out)) == 0
    config = tmp_path / "run.cfg"
    config.write_text("horizon = 50\n")
    capsys.readouterr()
    args = ["run", "--manifest", str(out / "manifest.json"), "--policy", "ts",
            "--horizon", "999", "--rho", "0.3", "--seed", "77", "--reps", "9",
            "--config", str(config), "--out", str(tmp_path / "b")]
    assert run_cli(*args) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: --{flag} cannot be combined with --manifest"
        for flag in ("policy", "rho", "horizon", "reps", "seed", "config")
    ]
    assert not (tmp_path / "b").exists()
    # the replay itself may still choose where and how wide to run
    args = ["run", "--manifest", str(out / "manifest.json"), "--jobs", "2",
            "--out", str(tmp_path / "c")]
    assert run_cli(*args) == 0
    assert (out / "adhoc_ucb.csv").read_bytes() == (tmp_path / "c" / "adhoc_ucb.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    want = f"config error: jobs must be >= 1, got {jobs}\n"
    assert run_cli(*small_run_args(tmp_path / "x", jobs=jobs)) == 2
    assert capsys.readouterr().err == want
    out = tmp_path / "a"
    assert run_cli(*small_run_args(out)) == 0
    capsys.readouterr()
    assert run_cli("run", "--manifest", str(out / "manifest.json"), "--jobs", jobs) == 2
    assert capsys.readouterr().err == want


class InProcessPool:
    """A stand-in process pool that records its width in widths and maps
    in this process."""

    widths = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_pool_is_no_wider_than_the_runs(tmp_path, monkeypatch):
    # execute_entries imports the pool class only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "widths", [])
    assert run_cli(*small_run_args(tmp_path / "x", jobs="64")) == 0
    assert InProcessPool.widths == [3]


def test_an_entry_groups_ridge_policies_make_one_batch(tmp_path, monkeypatch):
    # fig1-linear-d4's ucb, ts and greedy entries share a name, seeds and
    # world, so at --jobs 2 they make one batch and uniform the other
    calls = []
    run_batch = simulator.run_batch

    def counting(config, seeds, kinds=None):
        calls.append([kind.name for kind in kinds])
        return run_batch(config, seeds, kinds)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "widths", [])
    monkeypatch.setattr(simulator, "run_batch", counting)
    entries = [dataclasses.replace(entry, proto=dataclasses.replace(entry.proto, horizon=60))
               for entry in cli.expand_preset("fig1-linear-d4", 2, 0)]
    (tmp_path / "grouped").mkdir()
    written = cli.execute_entries(entries, 2, str(tmp_path / "grouped"))
    assert InProcessPool.widths == [2]
    assert calls == [["ucb", "ucb", "ts", "ts", "greedy", "greedy"], ["uniform", "uniform"]]
    # the same bytes as one entry at a time
    (tmp_path / "alone").mkdir()
    for entry in entries:
        cli.execute_entries([entry], 1, str(tmp_path / "alone"))
    for name in written:
        assert (tmp_path / "grouped" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_only_neighbouring_entries_of_one_world_share_a_batch():
    seeds = (1, 2, 3)

    def entry(policy, name="p", **fields):
        base = dict(horizon=40, n_agents=3, item_dim=1, agent_dim=1)
        proto = cli.RunConfig(seed=0, policy=cli.PolicyKind(policy),
                              goodness=goodness.GoodnessSpec(goodness.WEIGHTED_GINI, rho=0.85),
                              **{**base, **fields})
        return cli.RunSpecEntry(name=name, proto=proto, seeds=seeds)

    entries = [entry("ucb"), entry("ts"), entry("uniform"), entry("greedy"), entry("ucb"),
               entry("ts", name="q"), entry("ts", name="q", horizon=50), entry("gp-ucb"),
               entry("gp-ts")]
    batches = cli._batches(entries, 1)
    assert [[kind.name for kind in kinds] for _, _, kinds in batches] == [
        ["ucb"] * 3 + ["ts"] * 3, ["uniform"] * 3, ["greedy"] * 3 + ["ucb"] * 3, ["ts"] * 3,
        ["ts"] * 3, ["gp-ucb"] * 3, ["gp-ts"] * 3]
    assert all(seeds_of == seeds * (len(seeds_of) // 3) for _, seeds_of, _ in batches)
    # split for jobs, the largest batch in halves of its runs, in order
    split = cli._batches(entries[:2], 3)
    assert [(len(s), [k.name for k in kinds]) for _, s, kinds in split] == [
        (2, ["ucb"] * 2), (1, ["ucb"]), (3, ["ts"] * 3)]


@pytest.mark.parametrize("kind", ["nsw", "log-nsw", "targeted"])
def test_rho_with_another_goodness_exits_2(tmp_path, capsys, kind):
    # rho shapes weighted Gini only; given with another goodness it is an error
    extra = {"target_ratios": "0.2,0.3,0.5"} if kind == "targeted" else {}
    assert run_cli(*small_run_args(tmp_path / "x", goodness=kind, rho="0.5", **extra)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "rho" in err
    config = tmp_path / "run.cfg"
    config.write_text("rho = 0.5\n")
    with pytest.raises(ConfigError, match="rho"):
        cli.validate_config(make_ns(policy="ucb", goodness=kind, agents=3, horizon=40,
                                    config=str(config), **extra))
    # without rho the same run is fine
    assert run_cli(*small_run_args(tmp_path / "y", goodness=kind, **extra)) == 0


def test_extreme_legal_inputs_exit_0_or_4_with_finite_means(tmp_path):
    # the byte corpus's extremes grid at (1, 1) and (2, 3); its calls at 7
    # agents and 40 rounds run only in the corpus script, python tests/corpus.py
    calls = corpus.extremes(corpus.GRID_SIZES[:2])
    problems = [problem for k, argv in enumerate(calls)
                for problem in corpus.extreme_problems(argv, tmp_path / f"call{k}")[1]]
    assert len(calls) == 672 and problems == []


def test_uniform_policy_runs_without_estimator_state(tmp_path):
    out = tmp_path / "u"
    assert run_cli(*small_run_args(out, policy="uniform")) == 0
    assert (out / "adhoc_uniform.csv").exists()


def test_square_utility_flag(tmp_path):
    out = tmp_path / "sq"
    assert run_cli(*small_run_args(out, utility="square", policy="gp-ucb")) == 0
    assert (out / "adhoc_gp-ucb.csv").exists()
