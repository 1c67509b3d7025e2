"""The byte corpus: every ``ofdsim run`` invocation whose output a
same-bytes change must keep, the extremes grid, and the line each
acceptance criterion prints; one helper replays them all.

``corpus.json`` beside this file holds two things:

- ``runs``, a table of rows. A row holds a ``name`` (``<group>/<case>``),
  the ``argv`` of one ``ofdsim`` invocation with ``<out>`` for the
  output directory, the ``exit`` code, the ``stderr`` lines (the
  directory again as ``<out>``), the sha256 of every file written
  (``files``; none for an abort), and ``tier1``, whether the tier-1
  suite replays it. The groups:
  - ``golden``: thirteen short runs that cover every policy, every
    goodness kind, ``--reps 1``, a noiseless run of each GP policy, GP
    runs over many windows and item blocks, and a ridge run whose last
    item block is partial (``tests/test_golden_bytes.py``);
  - ``pooled``: ``fig1-square`` and ``rho0`` again at ``--jobs 2``,
    whose traces cross the process pool, against the same hashes;
  - ``fault``: fourteen runs that abort with exit 4, one per mid-run
    fault, at one rep and over several, through the pool, and a regret
    series that leaves the float range (``tests/test_fault_bytes.py``);
  - ``run``: further runs: GP runs under each goodness, at one agent,
    at d=1+1 and at T=1000, exploring greedy, ridge runs through the
    pool, and presets at 2 or 3 reps through the pool; one, ``gp-ts``
    under log-NSW at noise 3, exits 4;
  - ``preset``: every preset at 20 reps, at ``--jobs 1``, 2 and 3.
- ``criteria``, the line each of criteria 01-11 of
  ``tests/test_acceptance.py`` prints, with criterion 01's timing
  recorded as ``<ms>`` (``masked``).

``replay(row, out)`` runs a row's argv in-process through ``cli.main``
and returns what it saw in the row's own shape, so a row holds when
``replay(row, out) == row``. The tier-1 tests replay the rows of their
groups whose ``tier1`` is true. Run as a script,
``PYTHONPATH=src python tests/corpus.py`` replays every row and the
whole extremes grid (a few minutes on 2 cores, most of it the presets),
prints one line per mismatch and a summary, and exits 1 on any mismatch.

The hashes belong to the numpy (2.4.6) and BLAS (scipy-openblas 0.3.31)
they were recorded on: another build may round differently. On the same
build, a change that moves any of them, or any exit code, stderr line or
criterion line, changes what the program computes or reports, and is a
behaviour change to report. The ``golden/gp-ts-noiseless`` hashes were
recorded before the GP update began reusing the selection step's
conditioning column, so they pin that change to the bytes of the
solve-per-update code.

The extremes grid (``extremes``) records no bytes. It runs every policy
at (N, T) of (1, 1), (2, 3) and (7, 40), 2 reps each, under five
goodness set-ups crossed with eleven flag sets, and at ``--rho 1e-300``
under the default goodness: 1008 calls. Each call must exit 0 or 4, an
exit 4 must print exactly one stderr line and an exit 0 none, no
warning may be raised, and every mean of every CSV written must be
finite and non-negative. The tier-1 suite runs the calls at the first
two sizes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import re
import sys
import tempfile
import time
import warnings
from pathlib import Path

from ofdsim import cli

CORPUS = Path(__file__).with_name("corpus.json")


@functools.cache
def load() -> dict:
    return json.loads(CORPUS.read_text())


def rows(group: str) -> list[dict]:
    """The rows of a group that the tier-1 suite replays, in table order."""
    return [row for row in load()["runs"]
            if row["name"].split("/")[0] == group and row["tier1"]]


def row(name: str) -> dict:
    return next(row for row in load()["runs"] if row["name"] == name)


def replay(row: dict, out: Path) -> dict:
    """Run the row's argv with out for ``<out>``; the row as observed."""
    argv = [str(out) if arg == "<out>" else arg for arg in row["argv"]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())} if out.exists() else {}
    return {**row, "exit": code, "stderr": err.getvalue().replace(str(out), "<out>").splitlines(),
            "files": files}


def mismatches(want: dict, got: dict) -> list[str]:
    """One line per recorded value that got does not repeat."""
    lines = [f"{want['name']}: {key} {got[key]!r}, recorded {want[key]!r}"
             for key in ("exit", "stderr") if got[key] != want[key]]
    lines += [f"{want['name']}: {name} sha256 {got['files'].get(name)}, "
              f"recorded {want['files'].get(name)}"
              for name in sorted({*want["files"], *got["files"]})
              if got["files"].get(name) != want["files"].get(name)]
    return lines


def masked(line: str) -> str:
    """A criterion line with its timing, which varies from run to run, as <ms>."""
    return re.sub(r"\b\d+ ms\b", "<ms> ms", line)


def criterion(num: int) -> str:
    """The recorded line of criterion num, as ``masked`` writes it."""
    return load()["criteria"][num - 1]


# ---------------------------------------------------------------------------
# the extremes grid

GRID_POLICIES = ("ucb", "ts", "greedy", "uniform", "gp-ucb", "gp-ts")
# (agents, horizon)
GRID_SIZES = ((1, 1), (2, 3), (7, 40))
GRID_FLAGS = (
    (), ("--noise-r", "0"), ("--noise-r", "1e150"), ("--lambda", "1e-12"), ("--lambda", "1e15"),
    ("--delta", "1e-300"), ("--delta", "0.999999"), ("--item-dim", "1", "--agent-dim", "1"),
    ("--epsilon", "0"), ("--epsilon", "1"), ("--utility", "square", "--noise-r", "0"),
)


def _goodness_setups(n_agents: int) -> tuple:
    ratios = ["1e-300", *[repr(1.0 / (n_agents - 1))] * (n_agents - 1)] if n_agents > 1 else ["1"]
    return ((), ("--rho", "0"), ("--goodness", "nsw"), ("--goodness", "log-nsw"),
            ("--goodness", "targeted", "--target-ratios", ",".join(ratios)))


def extremes(sizes=GRID_SIZES) -> list[list[str]]:
    """The grid's argvs at sizes, 2 reps each: 56 per policy and size."""
    calls = []
    for policy, (n_agents, horizon) in itertools.product(GRID_POLICIES, sizes):
        head = ["run", "--policy", policy, "--agents", str(n_agents), "--horizon", str(horizon),
                "--reps", "2", "--seed", "0"]
        for setup, flags in itertools.product(_goodness_setups(n_agents), GRID_FLAGS):
            calls.append([*head, *setup, *flags, "--out", "<out>"])
        calls.append([*head, "--rho", "1e-300", "--out", "<out>"])
    return calls


def extreme_problems(argv: list[str], out: Path) -> tuple[int, list[str]]:
    """Run one grid call; its exit code and what it broke of the grid's rules."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = replay({"argv": argv}, out)
    problems = [f"warning {w.category.__name__}: {w.message}" for w in caught]
    if got["exit"] not in (0, 4):
        problems.append(f"exit {got['exit']}")
    if len(got["stderr"]) != (got["exit"] == 4):
        problems.append(f"{len(got['stderr'])} stderr lines at exit {got['exit']}")
    for path in sorted(out.glob("*.csv")):
        means = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
        if not all(math.isfinite(m) and m >= 0.0 for m in means):
            problems.append(f"{path.name} holds a mean that is negative or not finite")
    return got["exit"], [f"{' '.join(argv)}: {problem}" for problem in problems]


def main() -> int:
    runs, calls = load()["runs"], extremes()
    bad, exits = [], []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for k, want in enumerate(runs):
            bad += mismatches(want, replay(want, Path(tmp) / f"row{k}"))
        for k, argv in enumerate(calls):
            code, problems = extreme_problems(argv, Path(tmp) / f"grid{k}")
            exits.append(code)
            bad += problems
    for line in bad:
        print(line)
    print(f"corpus: {len(runs)} rows ({sum(r['tier1'] for r in runs)} tier-1) and "
          f"{len(calls)} extremes-grid calls ({exits.count(0)} exit 0, {exits.count(4)} exit 4) "
          f"in {time.perf_counter() - start:.0f} s; {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
