import hashlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dompkit import bench, cli, linalg, theory
from dompkit.cli import SWEEPS, main


@pytest.fixture
def identity_problem(tmp_path):
    matrix = tmp_path / "eye.txt"
    measurements = tmp_path / "y.txt"
    linalg.save_matrix(matrix, np.eye(4))
    y = np.zeros(4)
    y[1] = 1.0
    linalg.save_vector(measurements, y)
    return str(matrix), str(measurements)


def test_recover_identity_fixture(identity_problem, capsys):
    matrix, measurements = identity_problem
    code = main(
        ["recover", "--matrix", matrix, "--measurements", measurements,
         "--sparsity", "1", "--algo", "omp"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"] == {"2": 1.0}
    assert payload["iterations"] == 1
    assert payload["termination"] == "global-optimum"
    assert payload["residual_norms"] == [pytest.approx(0.0, abs=1e-12)]


def test_recover_rejects_gamma_out_of_range(identity_problem, capsys):
    matrix, measurements = identity_problem
    code = main(
        ["recover", "--matrix", matrix, "--measurements", measurements,
         "--sparsity", "1", "--algo", "domp", "--gamma", "1.3"]
    )
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_recover_rejects_unknown_algorithm(identity_problem, capsys):
    matrix, measurements = identity_problem
    code = main(
        ["recover", "--matrix", matrix, "--measurements", measurements,
         "--sparsity", "2", "--algo", "bogus"]
    )
    assert code == 2


def test_recover_gomp_needs_room_for_n(identity_problem):
    matrix, measurements = identity_problem
    code = main(
        ["recover", "--matrix", matrix, "--measurements", measurements,
         "--sparsity", "1", "--algo", "gomp"]
    )
    assert code == 2


def test_recover_missing_file(tmp_path, capsys):
    code = main(
        ["recover", "--matrix", str(tmp_path / "nope.txt"), "--measurements",
         str(tmp_path / "nope2.txt"), "--sparsity", "1", "--algo", "omp"]
    )
    assert code == 3
    captured = capsys.readouterr()
    # diagnostics on stderr, stdout stays data-only
    assert captured.out == ""
    assert captured.err != ""


def test_recover_malformed_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 nan\n0 1\n")
    vec = tmp_path / "y.txt"
    vec.write_text("2\n1 0\n")
    code = main(
        ["recover", "--matrix", str(bad), "--measurements", str(vec),
         "--sparsity", "1", "--algo", "omp"]
    )
    assert code == 3
    assert ":2:" in capsys.readouterr().err


def test_recover_dimension_mismatch(tmp_path):
    matrix = tmp_path / "mat.txt"
    linalg.save_matrix(matrix, np.eye(3))
    vec = tmp_path / "y.txt"
    vec.write_text("2\n1 0\n")
    code = main(
        ["recover", "--matrix", str(matrix), "--measurements", str(vec),
         "--sparsity", "1", "--algo", "omp"]
    )
    assert code == 3


def test_recover_seeded_fixture_with_truth(tmp_path, capsys):
    # fixture produced by the seeded ensemble, A scaled by 1/sqrt(m);
    # recovery verified against it
    spec = bench.EnsembleSpec(m=100, n=400, k=10, master_seed=20240915)
    A, x, _ = bench.generate_problem(spec, 0)
    A /= np.sqrt(100)
    y = A @ x
    matrix = tmp_path / "A.txt"
    measurements = tmp_path / "y.txt"
    truth = tmp_path / "x.txt"
    linalg.save_matrix(matrix, A)
    linalg.save_vector(measurements, y)
    linalg.save_vector(truth, x)
    code = main(
        ["recover", "--matrix", str(matrix), "--measurements", str(measurements),
         "--sparsity", "10", "--algo", "edomp", "--truth", str(truth)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success"] is True
    assert payload["relative_error"] <= 1e-5
    estimate = {int(i) - 1: v for i, v in payload["estimate"].items()}
    assert set(estimate) == set(np.flatnonzero(x).tolist())


def test_recover_stop_rule_parsing(identity_problem, capsys):
    matrix, measurements = identity_problem
    code = main(
        ["recover", "--matrix", matrix, "--measurements", measurements,
         "--sparsity", "1", "--algo", "omp", "--stop", "max-iters:0"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["iterations"] == 0
    assert payload["termination"] == "iteration-cap"

    assert main(
        ["recover", "--matrix", matrix, "--measurements", measurements,
         "--sparsity", "1", "--algo", "omp", "--stop", "relerr:1e-5"]
    ) == 2
    for stop in ("nonsense", "max-iters:-1", "max-iters:x", "max-iters:2.5", "max-iters:",
                 "residual:x", "gradient:", "residual:1e-5:2"):
        assert main(
            ["recover", "--matrix", matrix, "--measurements", measurements,
             "--sparsity", "1", "--algo", "omp", "--stop", stop]
        ) == 2


def test_sweep_requires_seed(capsys):
    code = main(["phase-gamma", "--trials", "2"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_phase_gamma_stdout_shape(capsys):
    code = main(
        ["phase-gamma", "--seed", "5", "--trials", "3", "--m", "30", "--n", "120",
         "--k-levels", "3", "--gammas", "0.5,1.0", "--algos", "domp"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "algorithm,gamma,k,trials,successes,success_rate,mean_iterations"
    assert len(lines) == 3


def test_phase_gamma_runs_a_solver_that_ignores_gamma_once_per_trial(monkeypatch, tmp_path):
    # OMP, GOMP, CoSaMP and SP read no gamma: one run per trial serves every
    # gamma's row.  The files are those of a sweep that ran every
    # (algorithm, gamma) separately, pinned by their SHA-256.
    calls = []
    engine = bench.run

    def counted(A, y, config, **kwargs):
        calls.append(config.algorithm)
        return engine(A, y, config, **kwargs)

    monkeypatch.setattr(bench, "run", counted)
    out = tmp_path / "gamma.csv"
    code = main(
        ["phase-gamma", "--seed", "1", "--trials", "4", "--m", "30", "--n", "90",
         "--k-levels", "3,6,9", "--gammas", "0.2,0.5,0.9",
         "--algos", "omp,gomp,cosamp,sp,domp,edomp", "--out", str(out)]
    )
    assert code == 0
    assert Counter(calls) == {"omp": 12, "gomp": 12, "cosamp": 12, "sp": 12, "domp": 36,
                              "edomp": 36}
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out, tmp_path / "gamma.csv.meta.json")]
    assert digests == ["f997908e122bc3534290f8d45d030e18633abd6b514f658c2db1095e95214786",
                       "249b4676cff359ddf5476e1a4a8dfafecf4edd60deba90417a9376b4beb137be"]


def test_phase_k_noisy_criterion(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["phase-k", "--seed", "6", "--trials", "4", "--m", "30", "--n", "120",
         "--k-levels", "2,4", "--algos", "domp", "--noise", "0.001", "--out", str(out)]
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert sidecar["spec"]["noise"] == 0.001
    assert out.read_text().startswith("algorithm,k,")


def test_phase_iters_runs(capsys):
    code = main(
        ["phase-iters", "--seed", "7", "--trials", "3", "--m", "30", "--n", "120",
         "--k-levels", "3", "--budgets", "1,3", "--algos", "domp"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("algorithm,budget,k,")
    assert len(lines) == 3


def test_scaling_shape(capsys):
    code = main(
        ["scaling", "--seed", "8", "--trials", "2", "--sizes", "20,30",
         "--algos", "domp", "--no-timing"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "algorithm,m,n,k,trials,recovered,unrecovered,success_rate,"
        "mean_iterations,mean_runtime,median3_runtime"
    )
    assert len(lines) == 3
    assert lines[1].startswith("domp,20,100,6,")


@pytest.mark.parametrize(
    "argv",
    [
        ["phase-gamma", "--seed", "11", "--trials", "3", "--m", "30", "--n", "120",
         "--k-levels", "3", "--gammas", "0.5,0.9", "--algos", "domp,edomp"],
        ["phase-iters", "--seed", "12", "--trials", "3", "--m", "30", "--n", "120",
         "--k-levels", "3", "--budgets", "1,2,3", "--algos", "domp"],
        ["phase-k", "--seed", "13", "--trials", "3", "--m", "30", "--n", "120",
         "--k-levels", "2,5", "--algos", "omp,domp"],
        ["scaling", "--seed", "14", "--trials", "2", "--sizes", "20,30",
         "--algos", "omp,domp", "--no-timing"],
    ],
)
def test_sweep_byte_determinism_across_threads(tmp_path, argv):
    outputs = []
    for threads, rep in [(1, 0), (2, 0), (1, 1)]:
        out = tmp_path / f"{threads}-{rep}.csv"
        code = main(argv + ["--threads", str(threads), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_ric_order(tmp_path, capsys):
    matrix = tmp_path / "mat.txt"
    linalg.save_matrix(matrix, np.eye(4))
    code = main(["ric", "--matrix", str(matrix), "--order", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == pytest.approx(0.0, abs=1e-12)
    assert payload["supports_examined"] == 6


def test_ric_highest(tmp_path, capsys):
    matrix = tmp_path / "mat.txt"
    linalg.save_matrix(matrix, np.eye(3))
    code = main(["ric", "--matrix", str(matrix), "--highest"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["highest_order"] == 3


@pytest.mark.parametrize("flags", [["--order", "2"], ["--highest"]])
def test_ric_of_a_matrix_whose_gram_overflows_exits_four(tmp_path, capsys, flags):
    matrix = tmp_path / "mat.txt"
    linalg.save_matrix(matrix, np.array([[1e160] * 6, [-1e160] * 6, [1.0, 0.0] * 3]))
    assert main(["ric", "--matrix", str(matrix), *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: numeric failure: the Gram matrix A^T A overflows; rescale A\n"


def test_ric_flag_exclusivity(tmp_path):
    matrix = tmp_path / "mat.txt"
    linalg.save_matrix(matrix, np.eye(3))
    assert main(["ric", "--matrix", str(matrix)]) == 2
    assert main(["ric", "--matrix", str(matrix), "--order", "1", "--highest"]) == 2


def test_ric_cap_guidance(tmp_path, capsys):
    rng = np.random.default_rng(0)
    matrix = tmp_path / "mat.txt"
    linalg.save_matrix(matrix, rng.standard_normal((6, 30)))
    code = main(["ric", "--matrix", str(matrix), "--order", "10", "--cap", "100"])
    assert code == 2
    assert "shrink" in capsys.readouterr().err


def test_verify_theta_suite(capsys):
    code = main(["verify", "--suite", "theta", "--trials", "10", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 0
    assert payload["instances"] == 10


def test_verify_bound_suite_inconclusive_exits_zero(capsys):
    # an 8 x 12 ensemble essentially never passes the RIC gate;
    # inconclusive instances must not fail the suite
    code = main(["verify", "--suite", "bound-domp", "--trials", "4", "--seed", "9", "--m", "8"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 0
    assert payload["inconclusive"] == 4


def test_verify_bound_suite_rejects_an_order_above_n_before_any_trial(monkeypatch, capsys):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    code = main(["verify", "--suite", "bound-domp", "--trials", "1", "--seed", "1",
                 "--k", "5", "--c", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the bound's RIC order c*k = 15 (c=3, k=5) exceeds n=12\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--c", "2", "c must be at least 3, got 2"),
    ("--gamma", "0", "gamma must lie in (0, 1], got 0.0"),
], ids=["c", "gamma"])
def test_verify_bound_suite_rejects_c_or_gamma_before_any_trial(monkeypatch, capsys, tmp_path,
                                                              flag, value, message):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    out = tmp_path / "bad.json"
    code = main(["verify", "--suite", "bound-domp", "--trials", "3", "--seed", "1",
                 flag, value, "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_verify_proximity_suite_rejects_gamma_before_any_trial(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    out = tmp_path / "bad.json"
    code = main(["verify", "--suite", "proximity", "--trials", "3", "--seed", "1",
                 "--gamma", "0", "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: gamma must lie in (0, 1], got 0.0\n"
    assert not out.exists()


def test_sweep_with_sparsity_above_n_fails_before_any_trial(monkeypatch, capsys, tmp_path):
    trials = []
    trial = bench.run_trial
    monkeypatch.setattr(bench, "run_trial", lambda *a, **kw: trials.append(a) or trial(*a, **kw))
    out = tmp_path / "k.csv"
    code = main(["phase-k", "--seed", "1", "--m", "20", "--n", "30", "--k-levels", "40",
                 "--trials", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: k must be in [1, 30], got 40\n"
    assert trials == []
    assert list(tmp_path.iterdir()) == []


def test_verify_aux_suite(capsys):
    code = main(["verify", "--suite", "aux-inequalities", "--trials", "25", "--seed", "77"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["violations"] == 0


def test_verify_ric_monotone_suite(capsys):
    code = main(["verify", "--suite", "ric-monotone", "--trials", "5", "--seed", "21"])
    assert code == 0


def test_sweep_gomp_needs_k_at_least_two(capsys):
    code = main(
        ["phase-k", "--seed", "4", "--trials", "2", "--m", "20", "--n", "80",
         "--k-levels", "1,4", "--algos", "gomp"]
    )
    assert code == 2
    assert "gOMP" in capsys.readouterr().err


def test_full_scale_preset_accepts_overrides(capsys):
    # the full-scale preset only changes grid defaults; explicit flags
    # keep the run desk-sized
    code = main(
        ["phase-gamma", "--preset", "full", "--seed", "9", "--trials", "2",
         "--m", "20", "--n", "80", "--k-levels", "2", "--gammas", "0.9",
         "--algos", "domp"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2


def test_cli_is_thin_adapter_over_library(tmp_path, capsys):
    # the sweep command and the direct library call emit identical CSV
    code = main(
        ["phase-k", "--seed", "17", "--trials", "4", "--m", "30", "--n", "120",
         "--k-levels", "2,4", "--algos", "omp,domp"]
    )
    assert code == 0
    via_cli = capsys.readouterr().out
    spec = bench.EnsembleSpec(m=30, n=120, k=2, master_seed=17)
    via_lib = bench.success_curves(spec, [2, 4], ["omp", "domp"], trials=4, gamma=0.9).to_csv()
    assert via_cli == via_lib


def test_module_entry_point(tmp_path):
    matrix = tmp_path / "mat.txt"
    vec = tmp_path / "y.txt"
    linalg.save_matrix(matrix, np.eye(3))
    linalg.save_vector(vec, np.array([0.0, 2.0, 0.0]))
    # The child must import this checkout's package, installed or not.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "dompkit", "recover", "--matrix", str(matrix),
         "--measurements", str(vec), "--sparsity", "1", "--algo", "omp"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["estimate"] == {"2": 2.0}


@pytest.fixture
def exit_code_files(tmp_path):
    eye = tmp_path / "eye.txt"
    linalg.save_matrix(eye, np.eye(4))
    y = tmp_path / "y.txt"
    linalg.save_vector(y, np.array([0.0, 1.0, 0.0, 0.0]))
    bad = tmp_path / "bad.txt"
    bad.write_text("4 4\n1 0 0 0\n0 1 x 0\n")
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"4 4\n1 0 0 0\n0 1 0 \xff0\n0 0 1 0\n0 0 0 1\n")
    latin_header = tmp_path / "latin-header.txt"
    latin_header.write_bytes(b"4 4\xff\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    return {"eye": str(eye), "y": str(y), "bad": str(bad), "latin": str(latin),
            "latin_header": str(latin_header), "missing": str(tmp_path / "none.txt")}


# The malformed files of the table, with the line each is reported at.
BAD_LINES = {"bad": 3, "latin": 3, "latin_header": 1}


TINY_SWEEP = ["--seed", "1", "--trials", "1", "--m", "10", "--n", "20", "--k-levels", "2"]
RECOVER = ["recover", "--measurements", "{y}", "--algo", "omp"]


@pytest.mark.parametrize(
    "code,argv",
    [
        # a flag value the library rejects is a usage error
        (2, ["verify", "--suite", "bound-domp", "--trials", "1", "--seed", "1", "--gamma", "1.5"]),
        (2, ["verify", "--suite", "bound-domp", "--trials", "1", "--seed", "1", "--c", "2"]),
        (2, ["verify", "--suite", "proximity", "--trials", "1", "--seed", "1", "--k", "40"]),
        (2, ["phase-gamma", *TINY_SWEEP, "--gammas", "0"]),
        (2, ["phase-k", *TINY_SWEEP, "--algos", "bogus"]),
        (2, ["phase-k", *TINY_SWEEP, "--noise", "nan"]),
        (2, [*RECOVER, "--matrix", "{eye}", "--sparsity", "5"]),
        (2, ["ric", "--matrix", "{eye}", "--order", "5"]),
        (2, [*RECOVER, "--matrix", "{eye}", "--sparsity", "1", "--stop", "residual:nan"]),
        # a bad flag is reported before a bad file
        (2, [*RECOVER, "--matrix", "{missing}", "--sparsity", "1", "--gamma", "0"]),
        # unreadable or malformed files are data errors
        (3, [*RECOVER, "--matrix", "{missing}", "--sparsity", "1"]),
        (3, [*RECOVER, "--matrix", "{bad}", "--sparsity", "1"]),
        # a bad --stop value is reported before a bad file
        (2, [*RECOVER, "--matrix", "{missing}", "--sparsity", "1", "--stop", "residual:nan"]),
        (2, [*RECOVER, "--matrix", "{missing}", "--sparsity", "1", "--truth", "{y}", "--stop", "relerr:nan"]),
        # a setting the chosen solver does not take
        (2, [*RECOVER, "--matrix", "{eye}", "--sparsity", "3", "--gomp-n", "3"]),
        (2, [*RECOVER, "--matrix", "{eye}", "--sparsity", "1", "--algo", "domp", "--reset-support"]),
        (2, [*RECOVER, "--matrix", "{eye}", "--sparsity", "1", "--algo", "cosamp", "--gomp-n", "1",
             "--reset-support"]),
        *[(2, [*RECOVER, "--matrix", "{eye}", "--sparsity", "2", "--algo", algo, "--gamma", "0.3"])
          for algo in ("omp", "gomp", "cosamp", "sp")],
        # a byte that is not UTF-8 is a data error at its line
        (3, [*RECOVER, "--matrix", "{latin}", "--sparsity", "1"]),
        (3, ["ric", "--matrix", "{latin_header}", "--order", "1"]),
    ],
)
def test_exit_code_table(exit_code_files, capsys, code, argv):
    assert main([arg.format(**exit_code_files) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    for name, line in BAD_LINES.items():
        if "{%s}" % name in argv:
            assert f"{exit_code_files[name]}:{line}: " in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["phase-gamma", *TINY_SWEEP, "--k-levels", "3,x"],
         "argument --k-levels: expected comma-separated integers, got '3,x'"),
        ([*RECOVER, "--matrix", "{eye}", "--sparsity", "2.5"], "argument --sparsity: invalid int value: '2.5'"),
    ],
    ids=["k-levels", "sparsity"],
)
def test_malformed_flag_value_exits_two_with_the_parsers_message(exit_code_files, capsys, argv, message):
    # argparse prints the usage line first, so stderr does not start with
    # "error: " as a library rejection's does.
    assert main([arg.format(**exit_code_files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: dompkit {argv[0]} ")
    assert captured.err.endswith(f"dompkit {argv[0]}: error: {message}\n")


VERIFY_BOUND = ["verify", "--suite", "bound-domp", "--trials", "1", "--seed", "1"]


# An integer flag parses as any integer; the library rejects one out of its
# range.  Each case: the command and the library's message.
OUT_OF_RANGE = {
    "sweep-trials": (["phase-gamma", *TINY_SWEEP, "--trials", "0"], "trials must be at least 1, got 0"),
    "sweep-k-levels": (["phase-gamma", *TINY_SWEEP, "--k-levels", "0"], "k must be in [1, 20], got 0"),
    "sweep-seed": (["phase-gamma", *TINY_SWEEP, "--seed", "-1"], "master_seed must be at least 0, got -1"),
    "sweep-m": (["phase-k", *TINY_SWEEP, "--m", "0"], "m must be at least 1, got 0"),
    "sweep-budgets": (["phase-iters", *TINY_SWEEP, "--budgets", "0"], "budget must be at least 1, got 0"),
    "sweep-sizes": (["scaling", "--seed", "1", "--trials", "1", "--sizes", "0"], "m must be at least 1, got 0"),
    "verify-trials": ([*VERIFY_BOUND, "--trials", "0"], "trials must be at least 1, got 0"),
    "verify-seed": ([*VERIFY_BOUND, "--seed", "-1"], "seed must be at least 0, got -1"),
    "verify-k": ([*VERIFY_BOUND, "--k", "0"], "k must be in [1, 12], got 0"),
    "verify-c": ([*VERIFY_BOUND, "--c", "2"], "c must be at least 3, got 2"),
    "verify-m": ([*VERIFY_BOUND, "--m", "0"], "m must be at least 1, got 0"),
    "recover-sparsity": ([*RECOVER, "--matrix", "{eye}", "--sparsity", "0"], "k must be at least 1, got 0"),
    "recover-gomp-n": ([*RECOVER, "--matrix", "{eye}", "--sparsity", "3", "--algo", "gomp", "--gomp-n", "0"],
                       "n_select must be in [1, 2], got 0"),
    "recover-max-iters": ([*RECOVER, "--matrix", "{eye}", "--sparsity", "1", "--stop", "max-iters:-1"],
                          "max_iterations must be at least 0, got -1"),
    "ric-order": (["ric", "--matrix", "{eye}", "--order", "0"], "order must be in [1, 4], got 0"),
    "ric-cap": (["ric", "--matrix", "{eye}", "--highest", "--cap", "0"], "cap must be at least 1, got 0"),
}


# A real flag parses as any float; the library rejects NaN and a value out
# of its interval, also where no solver in the grid reads it.
REAL_OUT_OF_RANGE = {
    "phase-k-gamma": (["phase-k", *TINY_SWEEP, "--algos", "omp", "--gamma", "5"],
                      "gamma must lie in (0, 1], got 5.0"),
    "scaling-gamma": (["scaling", "--seed", "1", "--trials", "1", "--sizes", "10", "--algos", "omp",
                       "--gamma", "-3", "--no-timing"], "gamma must lie in (0, 1], got -3.0"),
    "phase-iters-gamma": (["phase-iters", *TINY_SWEEP, "--algos", "omp", "--gamma", "nan"],
                          "gamma must lie in (0, 1], got nan"),
    "phase-gamma-gammas": (["phase-gamma", *TINY_SWEEP, "--algos", "omp", "--gammas", "0.5,1.5"],
                           "gamma must lie in (0, 1], got 1.5"),
    "sweep-noise": (["phase-k", *TINY_SWEEP, "--noise", "-0.1"], "noise_amplitude must lie in [0, inf), got -0.1"),
    "verify-gamma": ([*VERIFY_BOUND, "--gamma", "1.5"], "gamma must lie in (0, 1], got 1.5"),
    "verify-noise": ([*VERIFY_BOUND, "--noise", "inf"], "noise_amplitude must lie in [0, inf), got inf"),
    "proximity-gamma": (["verify", "--suite", "proximity", "--trials", "1", "--seed", "1", "--gamma", "nan"],
                        "gamma must lie in (0, 1], got nan"),
    "recover-gamma": ([*RECOVER, "--matrix", "{eye}", "--sparsity", "1", "--algo", "domp", "--gamma", "2"],
                      "gamma must lie in (0, 1], got 2.0"),
    "recover-residual": ([*RECOVER, "--matrix", "{eye}", "--sparsity", "1", "--stop", "residual:-1"],
                         "bad stopping rule 'residual:-1': epsilon must lie in [0, inf], got -1.0"),
    "recover-gradient": ([*RECOVER, "--matrix", "{eye}", "--sparsity", "1", "--stop", "gradient:nan"],
                         "bad stopping rule 'gradient:nan': epsilon must lie in [0, inf], got nan"),
}


@pytest.mark.parametrize("argv,message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_integer_flag_out_of_range_exits_two_with_the_librarys_message(
        monkeypatch, exit_code_files, tmp_path, capsys, argv, message):
    _rejected_before_any_work(monkeypatch, exit_code_files, tmp_path, capsys, argv, message)


@pytest.mark.parametrize("argv,message", REAL_OUT_OF_RANGE.values(), ids=REAL_OUT_OF_RANGE)
def test_real_flag_out_of_range_exits_two_with_the_librarys_message(
        monkeypatch, exit_code_files, tmp_path, capsys, argv, message):
    _rejected_before_any_work(monkeypatch, exit_code_files, tmp_path, capsys, argv, message)


def _rejected_before_any_work(monkeypatch, exit_code_files, tmp_path, capsys, argv, message):
    """``argv`` exits 2 with ``message`` on one line, writing no output
    file and drawing, enumerating or solving nothing."""
    def fail(*args, **kwargs):
        pytest.fail("work started")

    for owner, name in ((bench, "generate_problem"), (theory, "_trial_rng"), (theory, "_supports"),
                        (cli, "run")):
        monkeypatch.setattr(owner, name, fail)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = ["--out" if argv[0] in SWEEPS else "--output", str(out_dir / "result")]
    assert main([arg.format(**exit_code_files) for arg in argv] + out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(out_dir.iterdir()) == []


def test_recover_truth_of_the_wrong_length_is_a_data_error(tmp_path, capsys):
    rng = np.random.default_rng(12)
    matrix, measurements, truth = (tmp_path / name for name in ("A.txt", "y.txt", "x.txt"))
    linalg.save_matrix(matrix, rng.standard_normal((20, 400)))
    linalg.save_vector(measurements, rng.standard_normal(20))
    linalg.save_vector(truth, np.ones(5))
    code = main(["recover", "--matrix", str(matrix), "--measurements", str(measurements),
                 "--sparsity", "2", "--algo", "omp", "--truth", str(truth)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {truth}:1: truth length 5 does not match 400 columns\n"


def test_recover_stops_on_the_measurement_residual(tmp_path, capsys):
    A, _, y = bench.generate_problem(bench.EnsembleSpec(m=30, n=90, k=3, master_seed=4), 0)
    matrix, measurements = tmp_path / "A.txt", tmp_path / "y.txt"
    linalg.save_matrix(matrix, A)
    linalg.save_vector(measurements, y)
    code = main(["recover", "--matrix", str(matrix), "--measurements", str(measurements),
                 "--sparsity", "3", "--algo", "omp", "--stop", "residual:1e-6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["termination"] == "measurement-residual"
    assert payload["residual_norm"] <= 1e-6


def test_verify_counts_a_violation_and_exits_one(monkeypatch, capsys, tmp_path):
    # One aux family made to fail on every trial: each of its checks is a
    # violation of that family, the summary is still written, and the
    # command exits 1.
    monkeypatch.setitem(theory._AUX_FAMILIES, "thresholding-distance", lambda rng: -0.25)
    out = tmp_path / "aux.json"
    code = main(["verify", "--suite", "aux-inequalities", "--trials", "3", "--seed", "1",
                 "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == ""
    payload = json.loads(out.read_text())
    assert payload["violations"] == 3
    assert payload["parameters"]["per_family_violations"] == {
        "threshold-inequality": 0, "thresholding-distance": 3, "projection-error": 0}
    assert payload["min_slack"] == -0.25


def test_bad_sweep_grid_fails_before_any_problem(monkeypatch, capsys):
    drawn = []
    generate = bench.generate_problem
    monkeypatch.setattr(bench, "generate_problem", lambda *a: drawn.append(a) or generate(*a))
    code = main(["phase-k", "--seed", "4", "--trials", "2", "--m", "20", "--n", "80",
                 "--k-levels", "4,1", "--algos", "domp,gomp"])
    assert code == 2
    assert "gOMP" in capsys.readouterr().err
    assert drawn == []


def test_numeric_failure_exits_four(monkeypatch, capsys):
    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(theory, "theta_constant", singular)
    assert main(["verify", "--suite", "theta", "--trials", "1", "--seed", "1"]) == 4
    assert "numeric failure" in capsys.readouterr().err


ENSEMBLES = {"desk": (125, 500), "full": (500, 2000)}
PHASE_K_LEVELS = {"desk": [30, 40], "full": [120, 140, 150, 160, 170, 180]}
FIVE_SOLVERS = ["omp", "domp", "edomp", "cosamp", "sp"]


def _preset_grid(sweep, preset):
    """The bench call a sweep makes at a preset with only --seed 5 given."""
    m, n = ENSEMBLES[preset]
    ks = PHASE_K_LEVELS[preset]
    if sweep == "phase-gamma":
        spec = bench.EnsembleSpec(m=m, n=n, k=ks[0], master_seed=5)
        gammas = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
                  0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
        return "gamma_sweep", dict(spec=spec, gammas=gammas, ks=ks, algorithms=["domp", "edomp"],
                                   trials={"desk": 50, "full": 500}[preset])
    if sweep == "phase-iters":
        spec = bench.EnsembleSpec(m=m, n=n, k=ks[0], master_seed=5)
        budgets = list(range(1, 59, 3)) if preset == "desk" else list(range(1, 179, 3))
        return "iteration_sweep", dict(spec=spec, budgets=budgets, ks=ks, algorithms=["domp", "edomp"],
                                       trials={"desk": 50, "full": 500}[preset], gamma=0.9)
    if sweep == "phase-k":
        ks = list(range(1, 74, 3)) if preset == "desk" else list(range(1, 299, 3))
        spec = bench.EnsembleSpec(m=m, n=n, k=1, master_seed=5)
        return "success_curves", dict(spec=spec, ks=ks, algorithms=FIVE_SOLVERS,
                                      trials={"desk": 50, "full": 200}[preset], gamma=0.9)
    ms = [200, 400, 600, 800, 1000] if preset == "desk" else list(range(200, 2001, 200))
    return "scaling_benchmark", dict(ms=ms, algorithms=FIVE_SOLVERS,
                                     trials={"desk": 10, "full": 50}[preset], master_seed=5,
                                     gamma=0.9, timed=True)


@pytest.mark.parametrize("preset", ["desk", "full"])
@pytest.mark.parametrize("sweep", ["phase-gamma", "phase-iters", "phase-k", "scaling"])
def test_sweep_preset_grids(monkeypatch, capsys, sweep, preset):
    # Only --seed is given, so every grid value is a preset default.  The
    # bench function is replaced by one that records its arguments and
    # returns before any solve.
    name, expected = _preset_grid(sweep, preset)
    signature = inspect.signature(getattr(bench, name))
    calls = []

    class Empty:
        def to_csv(self):
            return ""

    def capture(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        return Empty()

    monkeypatch.setattr(bench, name, capture)
    assert main([sweep, "--preset", preset, "--seed", "5"]) == 0
    assert calls == [expected]
    assert capsys.readouterr().out == ""


VERIFY_ONE = ["--trials", "1", "--seed", "1"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["phase-gamma", *TINY_SWEEP, "--gamma", "0.1"], "unrecognized arguments: --gamma 0.1\n"),
        (["verify", "--suite", "proximity", *VERIFY_ONE, "--c", "3"],
         "error: suite proximity does not take --c\n"),
        (["verify", "--suite", "proximity", *VERIFY_ONE, "--noise", "0.1"],
         "error: suite proximity does not take --noise\n"),
        (["verify", "--suite", "aux-inequalities", *VERIFY_ONE, "--k", "2"],
         "error: suite aux-inequalities does not take --k\n"),
        (["verify", "--suite", "theta", *VERIFY_ONE, "--m", "8", "--gamma", "0.5"],
         "error: suite theta does not take --m, --gamma\n"),
        (["verify", "--suite", "ric-monotone", *VERIFY_ONE, "--n", "8"],
         "error: suite ric-monotone does not take --n\n"),
    ],
)
def test_flag_a_command_does_not_take_is_rejected(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["phase-gamma", *TINY_SWEEP, "--algos", "domp,domp,edomp"],
        ["phase-gamma", *TINY_SWEEP, "--gammas", "0.5,0.9,0.5"],
        ["phase-k", *TINY_SWEEP[:-1], "2,3,2"],
        ["phase-iters", *TINY_SWEEP, "--budgets", "1,2,2"],
        ["scaling", "--seed", "1", "--trials", "1", "--sizes", "20,20", "--no-timing"],
    ],
)
def test_repeated_grid_value_fails_before_any_problem(monkeypatch, capsys, argv):
    drawn = []
    generate = bench.generate_problem
    monkeypatch.setattr(bench, "generate_problem", lambda *a: drawn.append(a) or generate(*a))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: the sweep grid repeats ")
    assert drawn == []
