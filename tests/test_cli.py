"""Config resolution, preset registry, artifact emission, exit codes."""

import argparse
import json
import os
import re

import numpy as np
import pytest

from ofdsim import cli, environment, goodness
from ofdsim.cli import ConfigError


def make_ns(**kw):
    fields = (
        "preset policy goodness rho agents item_dim agent_dim horizon reps seed "
        "reg_lambda noise_r delta out jobs utility epsilon target_ratios config manifest"
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
        zero_point.proto.goodness.weights, goodness.esw_weights(10)
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
        (dict(reg_lambda=0.0, delta=2.0), [r"^lambda ", r"^delta "]),
        (dict(goodness="median", item_dim=0), [r"unknown goodness 'median'", r"^item.dim "]),
    ],
    ids=["rho-agents-delta", "policy-epsilon", "lambda-delta", "goodness-item-dim"],
)
def test_error_report_collects_every_problem(flags, patterns):
    with pytest.raises(ConfigError) as exc_info:
        cli.validate_config(make_ns(**{"policy": "ucb", **flags}))
    problems = exc_info.value.problems
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
             ("reg_lambda", 5.0, "lambda"), ("noise_r", 0.3, "noise-r"),
             ("delta", 0.2, "delta"), ("epsilon", 0.7, "epsilon")]
    for dest, value, flag in cases:
        with pytest.raises(ConfigError) as exc_info:
            cli.validate_config(make_ns(preset="fig1-square", **{dest: value}))
        assert exc_info.value.problems == [f"--{flag} cannot be combined with --preset"]
    # the same options set in a config file
    path = tmp_path / "run.cfg"
    path.write_text("preset = fig1-square\nseed = 4\nlambda = 5\nepsilon = 0.7\n")
    with pytest.raises(ConfigError) as exc_info:
        cli.validate_config(make_ns(config=str(path)))
    assert exc_info.value.problems == [
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
        entries[0].proto.goodness.weights, goodness.esw_weights(3)
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
    text = "\n".join(exc_info.value.problems)
    assert ":2:" in text and ":3:" in text and ":4:" in text


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
    entries = cli.expand_preset("fig1-square", 3, 9)
    for entry in entries:
        clone = cli._entry_from_json(json.loads(json.dumps(cli._entry_to_json(entry))))
        assert clone.name == entry.name
        assert clone.proto.policy == entry.proto.policy
        assert clone.seeds == entry.seeds
        assert clone.proto.horizon == entry.proto.horizon
        assert clone.proto.utility_kind == entry.proto.utility_kind
        assert clone.proto.goodness.kind == entry.proto.goodness.kind
        assert clone.proto.confidence == entry.proto.confidence


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
          "denominator -5.613e+00 is not positive after 9 updates; ledger of 10 agents: "
          "min 5.036029756395931 (agent 9), max 15.327921728420566\n"]),
        # a noisy ledger goes negative under log-nsw
        (["--policy", "ucb", "--noise-r", "1e6", "--goodness", "log-nsw", "--agents", "5",
          "--horizon", "500"], ["round 6", "got min -1819064.68"]),
        # noise at the float limit overflows a ledger total to -inf
        (["--policy", "uniform", "--noise-r", "1e308", "--agents", "3", "--horizon", "60"],
         ["round 2", "oracle candidate goodness is not finite"]),
    ],
    ids=["tiny-lambda", "negative-log-nsw-ledger", "overflowing-ledger"],
)
def test_mid_run_faults_exit_4_with_one_short_line(tmp_path, capsys, flags, names):
    args = ["run", *flags, "--reps", "1", "--seed", "0", "--out", str(tmp_path / "x")]
    assert run_cli(*args) == 4
    err = capsys.readouterr().err
    assert err.startswith("run aborted:") and err.count("\n") == 1
    assert all(name in err for name in names), err
    assert "np.float64" not in err and len(err.encode()) < 500


MANIFEST_EDITS = {
    "rho-2": lambda entry: entry["config"]["goodness"].update(rho=2.0),
    "horizon-below-agents": lambda entry: entry["config"].update(horizon=2),
    "unknown-policy": lambda entry: entry["policy"].update(name="best"),
    "weights-too-short":
        lambda entry: entry["config"]["goodness"].update(rho=None, weights=[1.0, 0.5]),
    "gp-noise-r-1e200": lambda entry: (entry["policy"].update(name="gp-ucb"),
                                       entry["config"]["confidence"].update(noise_r=1e200)),
}


def edited_manifest_error(tmp_path, capsys, edit):
    """stderr of replaying a small run's manifest after edit changed its entry."""
    out = tmp_path / "a"
    assert run_cli(*small_run_args(out)) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest["entries"][0])
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("run", "--manifest", str(out / "manifest.json")) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("edit", list(MANIFEST_EDITS.values()), ids=list(MANIFEST_EDITS))
def test_edited_manifest_exits_2(tmp_path, capsys, edit):
    assert edited_manifest_error(tmp_path, capsys, edit).startswith("config error:")


# flags that break what the manifest edit of the same name breaks
FLAG_EDITS = {
    "rho-2": {"rho": "2"},
    "horizon-below-agents": {"horizon": "2"},
    "unknown-policy": {"policy": "best"},
    "gp-noise-r-1e200": {"policy": "gp-ucb", "noise_r": "1e200"},
}


@pytest.mark.parametrize("name", list(FLAG_EDITS))
def test_flag_and_manifest_paths_print_the_same_error(tmp_path, capsys, name):
    # one rule, one message: one constructor words both rejections
    assert run_cli(*small_run_args(tmp_path / "flags", **FLAG_EDITS[name])) == 2
    from_flags = capsys.readouterr().err
    from_manifest = edited_manifest_error(tmp_path, capsys, MANIFEST_EDITS[name])
    assert from_flags.startswith("config error:")
    assert from_flags == from_manifest


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


def test_pool_is_no_wider_than_the_runs(tmp_path, monkeypatch):
    # a stand-in pool records its width and runs in this process
    widths = []

    class RecordingPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert run_cli(*small_run_args(tmp_path / "x", jobs="64")) == 0
    assert widths == [3]


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


def test_uniform_policy_runs_without_estimator_state(tmp_path):
    out = tmp_path / "u"
    assert run_cli(*small_run_args(out, policy="uniform")) == 0
    assert (out / "adhoc_uniform.csv").exists()


def test_square_utility_flag(tmp_path):
    out = tmp_path / "sq"
    assert run_cli(*small_run_args(out, utility="square", policy="gp-ucb")) == 0
    assert (out / "adhoc_gp-ucb.csv").exists()
