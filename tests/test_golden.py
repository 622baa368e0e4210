"""Golden outputs of the sweeps, the six verification suites, recover and ric.

Each command below runs on a tiny grid with a fixed seed.  Its output was
recorded under ``tests/data/golden/`` before the solvers moved onto one
iterate engine and the sweeps onto one driver (the aux-inequalities,
theta and ric-monotone reports: before the suites moved onto one
driver), so these tests pin that each refactor kept every byte.  Sweep
CSVs and provenance sidecars are compared byte for byte; verify reports
field by field, exactly except ``min_slack`` (relative 1e-9, far above
BLAS reordering noise).  The ``recover`` reports of all six solvers and
the ``ric`` reports read their inputs from text files written with
``save_matrix``/``save_vector``; they were recorded before the matrix
and vector readers shared one reader and are compared byte for byte.
The six ``recover`` reports were re-recorded once, when the least-squares
kernel moved to the R of ``[A_S | y]``, the carried R^-1 and the misfit
from Q: floats moved in their last digits (at most 1.41e-12 relative)
and no decision field changed.  The omp, gomp, domp and edomp reports
were re-recorded again when the incremental QR moved to one block append
per step: floats moved in their last digits (at most 2.42e-13 relative)
and no decision field changed.  The cosamp, edomp and sp reports were
re-recorded again when from-scratch least squares moved to the Gram
matrix with one correction step: 505, 8 and 9 floats moved in their last
digits (at most 3.59e-13 relative) and no decision field changed.
``verify-proximity.json`` was re-recorded
once, alone, and only its ``min_slack`` changed (4.651663070295082e-05 to
4.6516630702947733e-05, 456 ulps): the committed value no longer came
out of any commit since the kernel moved to the R of ``[A_S | y]``, with
1 or 2 BLAS threads.

Re-record only for an intended change of output, and only the goldens
it changes, named as the tests name them (all of them when none is
named):

    PYTHONPATH=src python tests/test_golden.py recover-omp recover-gomp
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dompkit import linalg
from dompkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
ALL = "omp,gomp,domp,edomp,cosamp,sp"
SHAPE = ["--seed", "7", "--m", "30", "--n", "90", "--trials", "3"]
# Budgets straddle both sparsity levels (4 and 8): below, at and above k.
ITERS = ["phase-iters", *SHAPE, "--k-levels", "4,8", "--budgets", "1,3,4,7,8,12,16", "--algos", ALL]

SWEEPS = {
    "phase-gamma": ["phase-gamma", *SHAPE, "--k-levels", "4,8", "--gammas", "0.3,0.7,1.0",
                    "--algos", "domp,edomp"],
    # At gamma=0.1 and k=8, 12 DOMP's support outgrows m=30: the incremental
    # QR goes degenerate and the step falls back to a wide least-squares solve.
    "phase-gamma-low": ["phase-gamma", *SHAPE, "--k-levels", "6,8,12", "--gammas", "0.1",
                        "--algos", "domp"],
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
    "verify-aux-inequalities": ["verify", "--suite", "aux-inequalities", "--trials", "6",
                                "--seed", "3"],
    "verify-theta": ["verify", "--suite", "theta", "--trials", "5", "--seed", "3"],
    "verify-ric-monotone": ["verify", "--suite", "ric-monotone", "--trials", "5", "--seed", "3"],
}

# recover and ric: argv with {A}, {y} and {x} for the input files.
RECOVER = {f"recover-{algo}": ["recover", "--matrix", "{A}", "--measurements", "{y}",
                                "--truth", "{x}", "--sparsity", "4", "--algo", algo]
           for algo in ALL.split(",")}
RIC = {
    "ric-order-2": ["ric", "--matrix", "{A}", "--order", "2"],
    "ric-highest": ["ric", "--matrix", "{A}", "--highest"],
}


def _write_inputs(name):
    """Write the inputs of a recover or ric command to the working
    directory; return their relative paths (ric reports its matrix path)."""
    rng = np.random.default_rng(29)
    if name in RIC:
        linalg.save_matrix("A.txt", rng.standard_normal((16, 12)) / np.sqrt(16))
        return {"A": "A.txt"}
    A = rng.standard_normal((24, 60))
    x = np.zeros(60)
    x[rng.choice(60, size=4, replace=False)] = rng.standard_normal(4)
    linalg.save_matrix("A.txt", A)
    linalg.save_vector("y.txt", A @ x + 1e-3 * rng.standard_normal(24))
    linalg.save_vector("x.txt", x)
    return {"A": "A.txt", "y": "y.txt", "x": "x.txt"}


def _run_file_command(name, out):
    """Run a recover or ric command in a fresh working directory."""
    argv = {**RECOVER, **RIC}[name]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            paths = _write_inputs(name)
            assert main([arg.format(**paths) for arg in argv] + ["--output", str(out)]) == 0
        finally:
            os.chdir(here)
    return out


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


@pytest.mark.parametrize("name", [*RECOVER, *RIC])
def test_file_command_matches_golden(name, tmp_path):
    out = _run_file_command(name, tmp_path / f"{name}.json")
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    known = [*SWEEPS, *VERIFY, *RECOVER, *RIC]
    names = sys.argv[1:] or known
    unknown = [name for name in names if name not in known]
    if unknown:
        sys.exit(f"unknown golden(s): {', '.join(unknown)}; known: {', '.join(known)}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in names:
        if name in SWEEPS:
            _run_sweep(name, GOLDEN)
        elif name in VERIFY:
            _run_verify(name, GOLDEN)
        else:
            _run_file_command(name, (GOLDEN / f"{name}.json").resolve())
    sys.exit(0)
