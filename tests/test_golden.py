"""Golden outputs of the sweeps and of two verification suites.

Each command below runs on a tiny grid with a fixed seed.  Its output was
recorded under ``tests/data/golden/`` before the solvers moved onto one
iterate engine and the sweeps onto one driver, so these tests pin that
the refactor kept every byte.  Sweep CSVs and provenance sidecars are
compared byte for byte; verify reports field by field, exactly except
``min_slack`` (relative 1e-9, far above BLAS reordering noise).

Re-record only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from dompkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
ALL = "omp,gomp,domp,edomp,cosamp,sp"
SHAPE = ["--seed", "7", "--m", "30", "--n", "90", "--trials", "3"]
# Budgets straddle both sparsity levels (4 and 8): below, at and above k.
ITERS = ["phase-iters", *SHAPE, "--k-levels", "4,8", "--budgets", "1,3,4,7,8,12,16", "--algos", ALL]

SWEEPS = {
    "phase-gamma": ["phase-gamma", *SHAPE, "--k-levels", "4,8", "--gammas", "0.3,0.7,1.0",
                    "--algos", "domp,edomp"],
    "phase-iters": ITERS,
    "phase-iters-noisy": [*ITERS, "--noise", "0.001"],
    # k=11 is past the transition: CoSaMP runs into its 500-iteration cap.
    "phase-k": ["phase-k", *SHAPE, "--k-levels", "2,5,8,11", "--algos", ALL],
    "scaling": ["scaling", "--seed", "7", "--sizes", "20,30", "--algos", ALL, "--trials", "3",
                "--no-timing"],
}

# The bound suites run on tall ensembles that meet the RIC gate on most trials.
VERIFY = {
    "verify-proximity": ["verify", "--suite", "proximity", "--trials", "12", "--seed", "3"],
    "verify-bound-domp": ["verify", "--suite", "bound-domp", "--trials", "4", "--seed", "3",
                          "--m", "200", "--n", "10", "--k", "2", "--c", "4"],
    "verify-bound-edomp": ["verify", "--suite", "bound-edomp", "--trials", "4", "--seed", "3",
                           "--m", "400", "--n", "8", "--k", "1", "--c", "3"],
}


def _run_sweep(name, directory):
    out = Path(directory) / f"{name}.csv"
    assert main([*SWEEPS[name], "--out", str(out)]) == 0
    return out, out.with_name(out.name + ".meta.json")


def _run_verify(name, directory):
    out = Path(directory) / f"{name}.json"
    assert main([*VERIFY[name], "--output", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_matches_golden(name, tmp_path):
    csv, meta = _run_sweep(name, tmp_path)
    assert csv.read_bytes() == (GOLDEN / csv.name).read_bytes()
    assert meta.read_bytes() == (GOLDEN / meta.name).read_bytes()


@pytest.mark.parametrize("name", VERIFY)
def test_verify_matches_golden(name, tmp_path):
    got = json.loads(_run_verify(name, tmp_path).read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    slack, want_slack = got.pop("min_slack"), want.pop("min_slack")
    assert got == want
    assert (slack is None) == (want_slack is None)
    if want_slack is not None:
        assert math.isclose(slack, want_slack, rel_tol=1e-9, abs_tol=0.0)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in SWEEPS:
        _run_sweep(name, GOLDEN)
    for name in VERIFY:
        _run_verify(name, GOLDEN)
    sys.exit(0)
