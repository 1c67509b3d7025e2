"""Tests of the benchmark's span tracer.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def spans_of(rows, tags=None, installed=None):
    """Spans from (name, parent, start, end) rows."""
    names = [r[0] for r in rows]
    return tracer.Spans(
        names,
        [r[1] for r in rows],
        [r[2] for r in rows],
        [r[3] for r in rows],
        tags or {},
        set(names) if installed is None else installed,
    )


def test_self_time_of_nested_spans():
    spans = spans_of([
        ("a", -1, 0, 100),
        ("b", 0, 10, 30),
        ("c", 0, 40, 90),
        ("d", 2, 50, 60),
        ("e", 2, 70, 75),
        ("f", -1, 200, 230),
    ])
    assert spans.self_time().tolist() == [30, 20, 35, 10, 5, 30]
    assert spans.nearest_ancestor(spans.of("c")).tolist() == [-1, -1, -1, 2, 2, -1]
    assert spans.nearest_ancestor(spans.of("a")).tolist() == [-1, 0, 0, 0, 0, -1]


def test_layer_metrics_by_hand():
    # one ucb run of 2 rounds: the policy scores once, the oracle twice
    rows = [
        ("cli.run_command", -1, 0, 10_000_000),
        ("cli.validate_config", 0, 0, 1_000_000),
        ("cli.execute_entries", 0, 2_000_000, 9_000_000),
        ("simulator.run_single", 2, 2_000_000, 2_010_000),
        ("goodness.candidate_scores", 3, 2_001_000, 2_003_000),
        ("policies.select_agent", 3, 2_004_000, 2_008_000),
        ("goodness.candidate_scores", 5, 2_005_000, 2_006_000),
        ("goodness.candidate_scores", 3, 2_008_000, 2_009_000),
    ]
    metrics, absent = tracer.layer_metrics(spans_of(rows, tags={3: ("ucb", 2)}))
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["simulator.run_single.us_per_round.ucb"] == pytest.approx(5.0)
    assert value["simulator.run_single.us_per_round.ts"] == 0.0
    # 10 us run minus 2 + 4 + 1 us of children, over 2 rounds
    assert value["simulator.round_self_us"] == pytest.approx(1.5)
    # the oracle calls are the ones whose parent is run_single
    assert value["simulator.oracle_us_per_round"] == pytest.approx(1.5)
    assert value["goodness.candidate_scores.calls_per_round"] == pytest.approx(1.5)
    assert value["goodness.candidate_scores.us"] == pytest.approx(4 / 3)
    assert value["policies.select_agent.self_us"] == pytest.approx(3.0)
    assert value["cli.config_ms"] == pytest.approx(1.0)
    assert value["cli.execute_entries.self_s"] == pytest.approx(0.00699)
    # installed nowhere in these rows: reported absent, never an error
    assert "environment.draw_item.us" in absent
    assert "environment.draw_item.us" not in metrics


def _fake_layers():
    estimators = types.ModuleType("fake.estimators")
    simulator = types.ModuleType("fake.simulator")
    environment = types.ModuleType("fake.environment")

    def width(x):
        return x + 1

    def _private(x):
        return x

    def run_single(x):
        return simulator.width(x) * 2

    width.__module__ = estimators.__name__
    _private.__module__ = estimators.__name__
    run_single.__module__ = simulator.__name__
    estimators.width = width
    estimators._private = _private
    estimators.solve_triangular = abs  # foreign, timed as estimators sees it
    simulator.run_single = run_single
    simulator.width = width  # alias bound by "from .estimators import width"
    return {"estimators": estimators, "simulator": simulator, "environment": environment}


def test_install_names_spans_by_defining_layer():
    layers = _fake_layers()
    trace = tracer.Tracer()
    installed = trace.install(layers, tags={"simulator.run_single": lambda x: ("ucb", x)})
    assert installed == {"estimators.width", "estimators.solve_triangular",
                         "simulator.run_single"}
    assert layers["estimators"]._private.__name__ == "_private"
    assert layers["simulator"].run_single(3) == 8
    names = [trace.names[i] for i in trace.name_id]
    assert names == ["simulator.run_single", "estimators.width"]
    assert list(trace.parent) == [-1, 0]
    assert trace.tags == {0: ("ucb", 3)}
    assert trace.start[0] <= trace.start[1] <= trace.end[1] <= trace.end[0]


def test_missing_function_name_is_absent(tmp_path):
    # environment defines no draw_item here, as after a rename
    layers = _fake_layers()
    trace = tracer.Tracer()
    installed = trace.install(layers, tags={"simulator.run_single": lambda x: ("ucb", x)})
    layers["simulator"].run_single(4)
    path = tmp_path / "spans.npz"
    trace.save(path, installed)

    metrics, absent = tracer.layer_metrics(tracer.Spans.load([path]))
    assert "environment.draw_item.us" in absent
    assert "environment.draw_item.us" not in metrics
    assert "goodness.candidate_scores.us" in absent
    assert metrics["estimators.solve_triangular.us"]["value"] == 0.0  # wrapped, never called
    assert metrics["simulator.run_single.us_per_round.ucb"]["value"] > 0.0
    assert set(metrics) | set(absent) == set(tracer.layer_metrics(spans_of([]))[1])
