"""Byte check: short CLI runs must write the same CSV and manifest bytes.

Thirteen in-process ``ofdsim run`` invocations cover every policy, every
goodness kind, ``--reps 1``, a noiseless run of each GP policy, GP runs
over many windows and item blocks, and a partial last item block. The
sha256 of each CSV and ``manifest.json`` they write is compared with the
hash recorded below; ``fig1-square`` and ``rho0`` are also run at
``--jobs 2``, whose traces cross the process pool, against the same
hashes. The hashes belong to this numpy and BLAS: another
build may round differently. On the same build, a change that moves any
of them changes what the simulator computes, and is a behaviour change
to report. The ``gp-ts-noiseless`` hashes were recorded before the GP
update began reusing the selection step's conditioning column, so they
pin that change to the bytes of the solve-per-update code.
"""

import hashlib

import pytest

from ofdsim import cli

RUNS = {
    "fig1-square": ["--preset", "fig1-square", "--reps", "2", "--seed", "12"],
    "log-nsw": ["--policy", "ucb", "--goodness", "log-nsw", "--agents", "8",
                "--horizon", "1000", "--reps", "2", "--seed", "7"],
    "targeted": ["--policy", "ts", "--goodness", "targeted", "--agents", "4",
                 "--target-ratios", "0.1,0.2,0.3,0.4", "--horizon", "1000",
                 "--reps", "2", "--seed", "7"],
    "nsw": ["--policy", "ucb", "--goodness", "nsw", "--agents", "6",
            "--horizon", "1000", "--reps", "2", "--seed", "7"],
    "rho0": ["--policy", "greedy", "--rho", "0", "--agents", "5",
             "--horizon", "1000", "--reps", "2", "--seed", "7"],
    "reps1": ["--policy", "ucb", "--agents", "10", "--horizon", "1000",
              "--reps", "1", "--seed", "7"],
    "uniform": ["--policy", "uniform", "--agents", "10", "--horizon", "1000",
                "--reps", "2", "--seed", "7"],
    "gp-noiseless": ["--policy", "gp-ucb", "--utility", "square", "--noise-r", "0",
                     "--agents", "5", "--item-dim", "1", "--agent-dim", "1",
                     "--horizon", "600", "--reps", "2", "--seed", "5"],
    "gp-ts-noiseless": ["--policy", "gp-ts", "--utility", "square", "--noise-r", "0",
                        "--agents", "5", "--item-dim", "1", "--agent-dim", "1",
                        "--horizon", "600", "--reps", "2", "--seed", "5"],
    # GP runs over many windows and item blocks (d=40, and three GP runs of
    # a batch across the pool), a GP run all warm start, and a ridge run
    # whose last item block is partial (blocks of 195 rounds, T=777)
    "gp-ts-d40": ["--policy", "gp-ts", "--utility", "square", "--agents", "10",
                  "--item-dim", "20", "--agent-dim", "20", "--horizon", "400",
                  "--reps", "2", "--seed", "7"],
    "gp-ucb-warm-start": ["--policy", "gp-ucb", "--utility", "square", "--noise-r", "0",
                          "--agents", "40", "--horizon", "40", "--reps", "2", "--seed", "7"],
    "fig1-square-reps3": ["--preset", "fig1-square", "--reps", "3", "--seed", "12",
                          "--jobs", "2"],
    "ridge-partial-block": ["--policy", "ts", "--agents", "7", "--item-dim", "3",
                            "--agent-dim", "4", "--horizon", "777", "--reps", "3",
                            "--seed", "9"],
}

GOLDEN = {
    "fig1-square": {
        "fig1-square_gp-ts.csv":
            "fab8c4cf218701ea83ca93377898274e7b9463f456940c65c577a3795b3d0f81",
        "fig1-square_gp-ucb.csv":
            "8e0c0a01d1d9864d2d232dac6e2de5997094150670610b9ac1bc36623591e3c0",
        "fig1-square_ts.csv":
            "99fb9d6e0d23ca5071093e6f7c0cb44c3f87ad6499953c30e773c5b3a82f0129",
        "fig1-square_ucb.csv":
            "5400cf2b96973fcef5c4bb5916c9bde74897805dbbf77ddb90f2a1a99e2de0d4",
        "manifest.json":
            "09b14e2cfbbbdef05f4671069d19fc679ea625322634580056bc48c7f08dd6b3",
    },
    "fig1-square-reps3": {
        "fig1-square_gp-ts.csv":
            "07e48914bc4a1a0184cdf1cda6426c41e3aa99eebcefc36346dce4e7a80c6d05",
        "fig1-square_gp-ucb.csv":
            "98bdd80e13df4a0cad5a532f06b581cca4f521e0528b5ce13fd7307c6c187697",
        "fig1-square_ts.csv":
            "1eb2999f5fcb3cabba4057a8682ca20400b2adf987b15b77620c1f887bcd961e",
        "fig1-square_ucb.csv":
            "4a7b1346a8c690b6af7bd8676776a57e41c0c8460d2ceb3d36d03815c3e1f984",
        "manifest.json":
            "c7203adc8387cf17e621060f9b37d126cf353776d0f135e3a60385a434f92fe2",
    },
    "gp-noiseless": {
        "adhoc_gp-ucb.csv":
            "0e4efd5d7ad7051cb4acde29e6895ee9da7a3414f84e8033f2913b68732f60a2",
        "manifest.json":
            "3e87dfeff1c24ec8ecfa061c04fa1fd51450af105cbd581b05253feaa1cf371f",
    },
    "gp-ts-noiseless": {
        "adhoc_gp-ts.csv":
            "14f96cddbeb4d490cb5c409dcc303abafc77d83d7d1dbbbcfba45fff657fe808",
        "manifest.json":
            "4d2815558a8fe807b232f4831628d6f094f5e6944b96d93ae2f80757a1caaacd",
    },
    "gp-ts-d40": {
        "adhoc_gp-ts.csv":
            "eb7b26e8a03d2523af0b26d54d15dcadfb2ee873ce844963d77cccda75449bb3",
        "manifest.json":
            "acf4b02de42c418068bf746f3db9052474b6383128df5e535a81a74826ed6eed",
    },
    "gp-ucb-warm-start": {
        "adhoc_gp-ucb.csv":
            "71d29a032f7c5a855a7b5211f443b1943b1c00b0e2783495abcd29a01a51c9ae",
        "manifest.json":
            "040a7eeec0fcf04088d8142c7c39f2f46692d4fad92de00baf83a9c70fdc3f76",
    },
    "log-nsw": {
        "adhoc_ucb.csv":
            "97210527fd3fdcc93af58921c7f46a43b64e2ac1c552c04d081e80536b583721",
        "manifest.json":
            "bbd7a9c619fbd7fd91059d8801cbfb52f0754fa5dfa00faddb9c69284443d12f",
    },
    "nsw": {
        "adhoc_ucb.csv":
            "8991feb5421539fd83e815b0adb822da3b95fab0208b4121b65fdf0a8fdd9ff9",
        "manifest.json":
            "d7acab9655e904a3f05dbc5c3957668ccd76f803164c61f1461aefbedaab0f95",
    },
    "reps1": {
        "adhoc_ucb.csv":
            "85a133b14a983211ef4c2d37b42c062f407ffbc43e20349efb44d26350870e0e",
        "manifest.json":
            "2693d7875409a677c0f09ee3c7b81bee7b1cc4db40062166b48210bcdb97f888",
    },
    "ridge-partial-block": {
        "adhoc_ts.csv":
            "08f2b6fde12b660d20e79b81289ccfa5f0eec1a8e0ea9e50378340ccfa6018b2",
        "manifest.json":
            "1d8c1bc840e1fbf20483d4a2c803a34e562aea09b83e6b12f15dd6fd410a2fa5",
    },
    "rho0": {
        "adhoc_greedy.csv":
            "3b79cfdc907782074738033cc6d3248430a9ed98018e6142c7056cb07bd8b373",
        "manifest.json":
            "14feb0ee85bd348c137544cd96d202c653b816a8a45b506d59e88b9c880da829",
    },
    "targeted": {
        "adhoc_ts.csv":
            "6e5f31be86a272e8c8ec3e6fb37d63dca1d0d1184ba4b13ca89d0aac3aa96d4b",
        "manifest.json":
            "8ac183b43b86ac25a62e84b82579dc19181822a9a1b09a672c1d47a85a971030",
    },
    "uniform": {
        "adhoc_uniform.csv":
            "40d9851cbda834608ea7e80cc6243a43bf42a582b8c051e5fa24cad3dbb2c730",
        "manifest.json":
            "4cc032aed945e784f5959bf9ccffcdd21a819c3e42379d37ec95592da2c3db27",
    },
}


def _digests(out) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes_match_recorded_hashes(name, tmp_path):
    out = tmp_path / name
    assert cli.main(["run", *RUNS[name], "--out", str(out)]) == 0
    assert _digests(out) == GOLDEN[name]


@pytest.mark.parametrize("name", ["fig1-square", "rho0"])
def test_pooled_runs_write_the_recorded_bytes(name, tmp_path):
    # at --jobs 2 every trace crosses the process pool before aggregation
    out = tmp_path / name
    assert cli.main(["run", *RUNS[name], "--jobs", "2", "--out", str(out)]) == 0
    assert _digests(out) == GOLDEN[name]
