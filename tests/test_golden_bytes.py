"""Byte check: short CLI runs must write the same CSV and manifest bytes.

Each test replays rows of the byte corpus (``corpus.json``, through
``corpus.replay``) and compares the exit code, the stderr lines and the
sha256 of every file written with the row. The ``golden`` rows are
thirteen short runs over every policy and goodness kind, the ``pooled``
rows two of them again at ``--jobs 2``, and the ``run`` rows the other
runs the tier-1 suite replays; ``corpus.py`` says what each group
covers, and replays every row, the 20-rep presets among them, when run
as a script.
"""

import pytest

import corpus


def case(row: dict) -> str:
    return row["name"].split("/")[1]


@pytest.mark.parametrize("want", corpus.rows("golden"), ids=case)
def test_output_bytes_match_recorded_hashes(want, tmp_path):
    assert corpus.replay(want, tmp_path / case(want)) == want


@pytest.mark.parametrize("want", corpus.rows("pooled"), ids=case)
def test_pooled_runs_write_the_recorded_bytes(want, tmp_path):
    # at --jobs 2 every trace crosses the process pool before aggregation
    assert want["files"] == corpus.row(f"golden/{case(want)}")["files"]
    assert corpus.replay(want, tmp_path / case(want)) == want


def test_other_fast_runs_replay_their_recorded_rows(tmp_path):
    rows = corpus.rows("run")
    got = [corpus.replay(want, tmp_path / f"run{k}") for k, want in enumerate(rows)]
    assert [line for want, row in zip(rows, got) for line in corpus.mismatches(want, row)] == []
