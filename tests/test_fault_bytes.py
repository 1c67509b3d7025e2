"""Byte check of the runs that abort: fourteen ``ofdsim run`` invocations
that exit 4, recorded in ``fault_corpus.json`` beside this file, must
exit with the same code, print the same stderr lines and write the same
files (an abort writes none). They cover each mid-run fault (lost
definiteness, a ledger outside the goodness's domain, a non-finite
candidate or oracle goodness, an NSW product out of the float range,
under learning, exploring and uniform policies, a GP policy among them),
at one rep and over several, through the process pool at ``--jobs 2``,
and a regret series that leaves the float range when aggregated. Each
row holds the argv, with ``<out>`` for the output directory, the exit
code, the stderr lines with the directory again as ``<out>``, and the
sha256 of every file written.
"""

import hashlib
import json
from pathlib import Path

from ofdsim import cli

CORPUS = Path(__file__).with_name("fault_corpus.json")


def test_aborted_runs_print_and_write_the_recorded_bytes(tmp_path, capsys):
    rows = json.loads(CORPUS.read_text())
    assert len(rows) == 14
    got = []
    for k, row in enumerate(rows):
        out = tmp_path / f"run{k}"
        code = cli.main([str(out) if arg == "<out>" else arg for arg in row["argv"]])
        err = capsys.readouterr().err.replace(str(out), "<out>").splitlines()
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.iterdir())} if out.exists() else {}
        got.append({"argv": row["argv"], "exit": code, "stderr": err, "files": files})
    assert got == rows
