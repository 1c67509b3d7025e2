"""Run one ``ofdsim`` command line and record what the benchmark needs.

    python3 perfbench/launch.py --record REC.json [--traces T.npz]
        [--spans S.npz] -- run --preset fig1-square ...

The arguments after ``--`` go to ``ofdsim.cli.main`` unchanged, the
entry point of the ``ofdsim`` console script. The package is imported
from the ``src/`` directory next to the benchmark's directory. Nothing
in it is edited; the launcher only rebinds module attributes in its own
process:

- ``cli.execute_entries`` is timed. Its entry ends set-up (interpreter
  start, imports, flag and preset resolution); its return is the last
  CSV written. CPU time of this process and of the pool workers it
  reaped, and the largest resident set of either, are read at both
  ends.
- ``simulator.aggregate`` keeps a reference to the per-seed traces it
  is given, so they can be written out and checked after the timed
  span ends.
- With ``--spans``, every public function of each layer is traced (see
  ``tracer.py``).

The record holds the timestamps (``CLOCK_MONOTONIC``, shared with the
parent process), the CPU and memory figures, the exit code and an
environment fingerprint.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _cpu_ns() -> tuple[int, int]:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns(), int((kids.ru_utime + kids.ru_stime) * 1e9)


def _fingerprint() -> dict:
    import numpy
    import scipy

    import ofdsim

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "backend": getattr(ofdsim, "BACKEND", "absent"),
    }


def _save_traces(path: str, captured: list) -> None:
    import numpy as np

    arrays = {}
    for k, traces in enumerate(captured):
        arrays[f"e{k}.seed"] = np.array([tr.seed for tr in traces], dtype=np.uint64)
        for field in ("chosen", "oracle", "realized", "inst_regret", "cum_regret", "final_totals"):
            arrays[f"e{k}.{field}"] = np.stack([getattr(tr, field) for tr in traces])
    np.savez(path, **arrays)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--traces")
    parser.add_argument("--spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    sys.path.insert(0, SRC)
    import ofdsim

    layers = {name: importlib.import_module(f"ofdsim.{name}") for name in tracer.LAYERS}
    cli, simulator = layers["cli"], layers["simulator"]

    pkg_dir = os.path.join(SRC, "ofdsim")
    if os.path.dirname(os.path.abspath(ofdsim.__file__)) != pkg_dir:
        print(f"launch: imported ofdsim from {ofdsim.__file__}, not {pkg_dir}", file=sys.stderr)
        return 2

    record: dict = {}
    trace = None
    installed: set[str] = set()
    if opts.spans:
        trace = tracer.Tracer()
        installed = trace.install(
            layers,
            tags={"simulator.run_single": lambda cfg: (cfg.policy.name, int(cfg.horizon))},
        )

    captured: list = []
    aggregate = simulator.aggregate

    def keep_traces(traces):
        captured.append(list(traces))
        return aggregate(traces)

    simulator.aggregate = keep_traces

    execute = cli.execute_entries

    def timed_execute(*args, **kwargs):
        record["t_entry"] = now_ns()
        cpu0, kids0 = _cpu_ns()
        try:
            return execute(*args, **kwargs)
        finally:
            record["t_exit"] = now_ns()
            cpu1, kids1 = _cpu_ns()
            record["cpu_s"] = ((cpu1 - cpu0) + (kids1 - kids0)) / 1e9
            record["maxrss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    cli.execute_entries = timed_execute

    rc = cli.main(cli_args)
    record["rc"] = rc
    record["fingerprint"] = _fingerprint()
    if opts.traces and captured:
        _save_traces(opts.traces, captured)
    if trace is not None:
        trace.save(opts.spans, installed)
    with open(opts.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
