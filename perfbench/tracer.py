"""Span tracer for the per-layer run of the benchmark.

The tracer wraps, from outside the package, every public function of
each ``ofdsim`` layer module, so the program itself is not edited. A
wrapped call records one span: its name, start, end and the span that
was open when it began (its parent). Spans live in flat in-memory
arrays and are written to an ``.npz`` file when the run ends.

``_kernels`` is not a layer of its own: its functions are timed inside
the public callers (``goodness.candidate_scores``,
``linalg.rank_one_update``, ``estimators.ucb_scores``), so folding the
kernels into those callers leaves every metric defined.

``layer_metrics(Spans.load(paths))`` reads the span files of a traced
run and computes the per-layer metrics.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import time

LAYERS = ("environment", "goodness", "estimators", "linalg", "policies", "simulator", "cli")

# Names a layer imports from outside the package but whose cost belongs
# to that layer, timed as the layer module sees them.
FOREIGN = {"estimators": ("solve_triangular",)}

POLICIES = ("ucb", "ts", "greedy", "uniform", "gp-ucb", "gp-ts")

# Functions reported as microseconds per call.
PER_CALL_US = (
    "environment.draw_item", "environment.true_utilities", "goodness.candidate_scores",
    "linalg.rank_one_update", "linalg.sample_gaussian", "estimators.ucb_scores",
    "estimators.ridge_update", "estimators.gp_ucb_scores", "estimators.gp_ts_scores",
    "estimators.gp_update", "estimators.solve_triangular",
)


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        # per-span labels, e.g. (policy, horizon) of a run_single call
        self.tags: dict[int, tuple] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, tag=None):
        """Return ``fn`` wrapped so each call records a span ``name``.

        ``tag``, when given, maps the call's arguments to a tuple kept
        with the span.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        tags, stack, clock = self.tags, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            if tag is not None:
                tags[sid] = tag(*args, **kwargs)
            stack.append(sid)
            start[sid] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict, tags: dict | None = None) -> set[str]:
        """Wrap the public functions of each layer module in place.

        ``modules`` maps a layer name to its module. A function is
        wrapped under the layer that defines it, wherever it is bound, so
        ``simulator.alpha_t`` is timed as ``estimators.alpha_t``.
        Returns the span names wrapped; a name a metric needs that is
        not in this set makes that metric absent.
        """
        tags = tags or {}
        by_module = {mod.__name__: layer for layer, mod in modules.items()}
        installed: set[str] = set()
        for layer, mod in modules.items():
            foreign = FOREIGN.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj):
                    continue
                if attr in foreign:
                    span = f"{layer}.{attr}"
                elif inspect.isfunction(obj) and obj.__module__ in by_module:
                    span = f"{by_module[obj.__module__]}.{obj.__name__}"
                else:
                    continue
                setattr(mod, attr, self.wrap(span, obj, tags.get(span)))
                installed.add(span)
        return installed

    def save(self, path, installed: set[str]) -> None:
        import numpy as np

        tagged = sorted(self.tags)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            installed=np.array(sorted(installed), dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            tag_span=np.array(tagged, dtype=np.int64),
            tag_text=np.array([json.dumps(self.tags[s]) for s in tagged], dtype=str),
        )


# ---------------------------------------------------------------------------
# analysis


class Spans:
    """Spans of one or more traced processes, concatenated."""

    def __init__(self, name, parent, start, end, tags, installed):
        """``name`` holds one span name per span, ``parent`` the index of
        its parent span or -1, ``start``/``end`` nanoseconds, ``tags``
        the labels by span index."""
        import numpy as np

        self._ids: dict[str, int] = {}
        self.name_id = np.array([self._ids.setdefault(n, len(self._ids)) for n in name],
                                dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
        self.tags = tags
        self.installed = set(installed)

    @classmethod
    def load(cls, paths) -> "Spans":
        import numpy as np

        name, parent, start, end, tags, installed = [], [], [], [], {}, None
        offset = 0
        for path in paths:
            with np.load(path) as data:
                names = [str(n) for n in data["names"]]
                name.extend(names[i] for i in data["name_id"])
                par = data["parent"]
                parent.append(np.where(par >= 0, par + offset, -1))
                start.append(data["start"])
                end.append(data["end"])
                for sid, text in zip(data["tag_span"], data["tag_text"]):
                    tags[int(sid) + offset] = tuple(json.loads(str(text)))
                found = {str(n) for n in data["installed"]}
                installed = found if installed is None else installed & found
                offset += len(data["name_id"])
        if not paths:
            return cls([], [], [], [], {}, set())
        return cls(name, np.concatenate(parent), np.concatenate(start),
                   np.concatenate(end), tags, installed)

    def self_time(self):
        """Each span's duration minus the time its child spans cover.

        Spans of one thread nest, so the children of a span are
        disjoint and their durations add.
        """
        import numpy as np

        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        return self.dur - child

    def of(self, name: str):
        """Mask of the spans called ``name``."""
        return self.name_id == self._ids.get(name, -1)

    def nearest_ancestor(self, mask):
        """Index of each span's nearest ancestor inside ``mask``, or -1."""
        import numpy as np

        found = np.full(self.parent.size, -1, dtype=np.int64)
        cur = self.parent.copy()
        while True:
            open_ = (cur >= 0) & (found < 0)
            if not open_.any():
                return found
            hit = open_.copy()
            hit[open_] = mask[cur[open_]]
            found[hit] = cur[hit]
            cur = np.where(open_ & ~hit, self.parent[np.maximum(cur, 0)], -1)


def _mean(values) -> float:
    return float(values.mean()) if values.size else 0.0


def layer_metrics(spans: Spans) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced spans.

    Returns ``(metrics, absent)``: ``metrics`` maps a metric name to
    ``{"value", "unit"}``; ``absent`` lists the metrics whose functions
    do not exist in the traced program. A metric whose functions exist
    but were never called by the workload reads 0.
    """
    import numpy as np

    us, ms, s = 1e-3, 1e-6, 1e-9
    self_ns = spans.self_time()
    run = spans.of("simulator.run_single")
    run_ids = np.flatnonzero(run)
    policy = np.array([spans.tags.get(int(i), ("", 0))[0] for i in run_ids], dtype=object)
    horizon = np.array([spans.tags.get(int(i), ("", 0))[1] for i in run_ids], dtype=np.int64)
    rounds = max(int(horizon.sum()), 1)
    run_owner = spans.nearest_ancestor(run)

    def per_call(name, scale, values=None):
        mask = spans.of(name)
        return _mean((spans.dur if values is None else values)[mask]) * scale

    def solve_calls_per_round():
        # calls per round of the runs that make at least one call
        owner = run_owner[spans.of("estimators.solve_triangular")]
        owner = np.searchsorted(run_ids, owner[owner >= 0])
        calls = np.bincount(owner, minlength=run_ids.size)
        used = calls > 0
        return float(calls.sum()) / max(int(horizon[used].sum()), 1)

    def config_ms():
        mask = spans.of("cli.validate_config") | spans.of("cli.expand_preset")
        top = mask & ~np.isin(spans.parent, np.flatnonzero(mask))
        calls = max(int(spans.of("cli.run_command").sum()), 1)
        return float(spans.dur[top].sum()) / calls * ms

    def execute_self_s():
        ex = np.flatnonzero(spans.of("cli.execute_entries"))
        if ex.size == 0:
            return 0.0
        inner = np.isin(spans.parent, ex) & run
        return (float(spans.dur[ex].sum()) - float(spans.dur[inner].sum())) / ex.size * s

    def oracle_us():
        mask = spans.of("goodness.candidate_scores") & np.isin(spans.parent, run_ids)
        return float(spans.dur[mask].sum()) / rounds * us

    table = []
    for pol in POLICIES:
        def run_us(pol=pol):
            sel = run_ids[policy == pol]
            total = int(horizon[policy == pol].sum())
            return float(spans.dur[sel].sum()) / total * us if total else 0.0
        table.append((f"simulator.run_single.us_per_round.{pol}", "us",
                      ("simulator.run_single",), run_us))
    table += [
        ("simulator.round_self_us", "us", ("simulator.run_single",),
         lambda: float(self_ns[run].sum()) / rounds * us),
        ("simulator.oracle_us_per_round", "us",
         ("simulator.run_single", "goodness.candidate_scores"), oracle_us),
        ("simulator.aggregate_ms", "ms", ("simulator.aggregate",),
         lambda: per_call("simulator.aggregate", ms)),
        ("simulator.write_csv_ms", "ms", ("simulator.write_series_csv",),
         lambda: per_call("simulator.write_series_csv", ms)),
        ("policies.select_agent.self_us", "us", ("policies.select_agent",),
         lambda: per_call("policies.select_agent", us, self_ns)),
        ("policies.observe.self_us", "us", ("policies.observe",),
         lambda: per_call("policies.observe", us, self_ns)),
        ("goodness.candidate_scores.calls_per_round", "count",
         ("goodness.candidate_scores", "simulator.run_single"),
         lambda: float(spans.of("goodness.candidate_scores").sum()) / rounds),
        ("estimators.solve_triangular.calls_per_round", "count",
         ("estimators.solve_triangular", "simulator.run_single"), solve_calls_per_round),
        ("cli.config_ms", "ms", ("cli.validate_config", "cli.run_command"), config_ms),
        ("cli.execute_entries.self_s", "s",
         ("cli.execute_entries", "simulator.run_single"), execute_self_s),
    ]
    for name in PER_CALL_US:
        table.append((f"{name}.us", "us", (name,), lambda name=name: per_call(name, us)))

    metrics, absent = {}, []
    for name, unit, needs, compute in table:
        if all(n in spans.installed for n in needs):
            metrics[name] = {"value": compute(), "unit": unit}
        else:
            absent.append(name)
    return metrics, absent

