"""Byte check of the runs that abort: the fourteen ``fault`` rows of the
byte corpus (``corpus.json``, replayed by ``corpus.replay``) are
``ofdsim run`` invocations that exit 4. Each must exit with the same
code, print the same stderr lines and write the same files (an abort
writes none). They cover each mid-run fault (lost definiteness, a ledger
outside the goodness's domain, a non-finite candidate or oracle
goodness, an NSW product out of the float range, under learning,
exploring and uniform policies, a GP policy among them), at one rep and
over several, through the process pool at ``--jobs 2``, and a regret
series that leaves the float range when aggregated.
"""

import corpus


def test_aborted_runs_print_and_write_the_recorded_bytes(tmp_path):
    rows = corpus.rows("fault")
    assert len(rows) == 14
    assert [corpus.replay(want, tmp_path / f"run{k}") for k, want in enumerate(rows)] == rows
