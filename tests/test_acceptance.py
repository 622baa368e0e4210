"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them, or rely on -v test names).

Criterion 1's reference table once gave 0.2236 at gamma = 0.3, a digit
transposition of 0.2336.  It was corrected because arithmetic rules the
old value out: the other four entries and the small-gamma limit 1/sqrt(5)
match the closed form 1/sqrt(1 + phi^2), phi = 1 + sqrt(1 + k gamma^2), to
5e-5, and at delta = 0.2236 the contraction factor
beta = phi delta / sqrt(1 - delta^2) is 0.955, not 1, while at 0.2336 it is
1 to four-digit rounding.  Each entry is now also checked against that
definition of the threshold (beta = 1), not only against the closed form.
"""

import math

import numpy as np
import pytest

from dompkit import bench, linalg, theory
from dompkit.algorithms import (
    domp_step,
    gomp_step,
    initial_state,
    omp_step,
)
from dompkit.cli import main


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


def test_criterion_01_bound_table():
    reference = {0.9: 0.0990, 0.7: 0.1230, 0.5: 0.1618, 0.3: 0.2336, 0.1: 0.3827}
    mismatches = {}
    off_threshold = {}
    for gamma, expected in reference.items():
        got = theory.domp_ric_bound(100, gamma)
        if abs(got - expected) > 5e-5:
            mismatches[gamma] = (expected, got)
        # the threshold is where beta = phi delta / sqrt(1 - delta^2) reaches
        # one; a reference within 5e-5 of it leaves beta within 5e-5 dbeta/ddelta
        constants = theory.bound_constants(expected, 100, gamma, 1.0, 1.0, 0.0)
        slope = constants.phi / (1.0 - expected * expected) ** 1.5
        if abs(constants.beta - 1.0) > 5e-5 * slope:
            off_threshold[gamma] = (expected, constants.beta)
    limit_ok = abs(theory.domp_ric_bound(100, 1e-12) - 1 / math.sqrt(5)) <= 5e-5
    ok = not mismatches and not off_threshold and limit_ok
    if ok:
        detail = "all five table entries, beta = 1 at each, and the small-gamma limit hold to 5e-5"
    else:
        problems = []
        if mismatches:
            problems.append(f"mismatches (reference vs formula): {mismatches}")
        if off_threshold:
            problems.append(f"beta off one (reference vs beta): {off_threshold}")
        if not limit_ok:
            problems.append("small-gamma limit differs from 1/sqrt(5)")
        detail = "; ".join(problems)
    line = _report(1, "bound table", ok, detail)
    assert ok, line


def test_criterion_02_optimality_invariants():
    checked_runs = 0
    worst_ratio = 0.0
    for seed in range(34):
        for k in (5, 10):
            rng = np.random.default_rng(910_000 + seed * 7 + k)
            A = rng.standard_normal((50, 200))
            support = rng.choice(200, size=k, replace=False)
            x = np.zeros(200)
            x[support] = rng.standard_normal(k)
            y = A @ x
            tol = 1e-7 * (1 + np.abs(A.T @ y).max())
            for algorithm in ("omp", "gomp", "domp"):
                state = initial_state(A, y)
                residuals = [state.residual_norm]
                for _ in range(k):
                    if np.abs(state.r).max() <= 1e-12 * np.abs(A.T @ y).max():
                        break
                    if algorithm == "omp":
                        state = omp_step(state, A, y)
                    elif algorithm == "gomp":
                        state = gomp_step(state, A, y, 2)
                    else:
                        state = domp_step(state, A, y, k, 0.9)
                    stale = np.abs(state.r[state.support]).max()
                    worst_ratio = max(worst_ratio, stale / tol)
                    assert stale <= tol
                    residuals.append(state.residual_norm)
                if algorithm == "domp":
                    assert all(b <= a + 1e-10 for a, b in zip(residuals, residuals[1:]))
                checked_runs += 1
    ok = checked_runs >= 200
    line = _report(
        2,
        "optimality invariants",
        ok,
        f"{checked_runs} runs, worst stale-gradient ratio {worst_ratio:.2e} of tolerance",
    )
    assert ok, line


def test_criterion_03_omp_equivalence():
    instances = 0
    for seed in range(100):
        rng = np.random.default_rng(450_000 + seed)
        A = rng.standard_normal((40, 160))
        support = rng.choice(160, size=6, replace=False)
        x = np.zeros(160)
        x[support] = rng.standard_normal(6)
        y = A @ x
        omp_state = initial_state(A, y)
        domp_state = initial_state(A, y)
        for _ in range(6):
            if np.abs(domp_state.r).max() <= 1e-12 * np.abs(A.T @ y).max():
                break
            # runtime distinctness check: the selection is a singleton at
            # gamma=1 exactly when the maximum magnitude is uniquely
            # attained (entries already projected out sit at the 1e-15
            # noise floor and may collide without affecting selection)
            magnitudes = np.abs(domp_state.r)
            assert np.sum(magnitudes == magnitudes.max()) == 1, "tied maximum"
            omp_state = omp_step(omp_state, A, y)
            domp_state = domp_step(domp_state, A, y, 6, 1.0)
            assert omp_state.support.tolist() == domp_state.support.tolist()
        instances += 1
    ok = instances == 100
    line = _report(3, "omp equivalence at gamma=1", ok, f"{instances} instances, identical traces")
    assert ok, line


def test_criterion_04_theta_oracle_equivalence():
    summary = theory.theta_equivalence_suite(50, seed=777)
    ok = summary.violations == 0
    line = _report(
        4,
        "theta oracle equivalence",
        ok,
        f"50 instances, min slack {summary.min_slack:.2e}",
    )
    assert ok, line


def test_criterion_05_projection_proximity():
    summary = theory.projection_proximity_suite(200, seed=888, m=15, n=30, k=4)
    ok = summary.violations == 0 and summary.min_slack is not None and summary.min_slack >= 0
    line = _report(
        5,
        "ridge-projection proximity",
        ok,
        f"200 instances, min slack {summary.min_slack:.3e}",
    )
    assert ok, line


def test_criterion_06_auxiliary_inequalities():
    summary = theory.auxiliary_inequality_suite(500, seed=999)
    ok = summary.violations == 0 and summary.inconclusive == 0
    line = _report(
        6,
        "auxiliary inequalities",
        ok,
        f"500 trials per family, min slack {summary.min_slack:.3e}",
    )
    assert ok, line


def test_criterion_07_recovery_bound_gated():
    dompres = theory.recovery_bound_suite(40, seed=1234, m=8, n=12, k=1, c=3, gamma=0.9,
                                          algorithm="domp")
    edompres = theory.recovery_bound_suite(40, seed=1234, m=8, n=12, k=1, c=3, gamma=0.9,
                                           algorithm="edomp")
    ok = dompres.violations == 0 and edompres.violations == 0
    checked = (dompres.instances - dompres.inconclusive) + (
        edompres.instances - edompres.inconclusive
    )
    # the gate is rarely met at this aspect ratio; taller gated ensembles
    # exercise the bound non-vacuously
    tall = theory.recovery_bound_suite(12, seed=1234, m=300, n=12, k=2, c=4, gamma=0.9,
                                       algorithm="domp")
    tall_star = theory.recovery_bound_suite(16, seed=1234, m=800, n=12, k=2, c=4, gamma=0.9,
                                            algorithm="edomp")
    ok = (
        ok
        and tall.violations == 0
        and tall_star.violations == 0
        and (tall.instances - tall.inconclusive) >= 2
        and (tall_star.instances - tall_star.inconclusive) >= 2
    )
    line = _report(
        7,
        "per-iteration error bound",
        ok,
        f"8x12 ensemble: {checked} gated / {dompres.instances + edompres.instances} "
        f"instances, 0 violations; tall gated ensembles: "
        f"{tall.instances - tall.inconclusive}+{tall_star.instances - tall_star.inconclusive} "
        f"checked, min slack {min(tall.min_slack, tall_star.min_slack):.3e}",
    )
    assert ok, line


@pytest.fixture(scope="module")
def desk_curves():
    spec = bench.EnsembleSpec(m=125, n=500, k=15, master_seed=20240915)
    return bench.success_curves(
        spec, [15, 25, 35, 45, 60], ["omp", "domp", "edomp"], trials=50, gamma=0.9
    )


def test_criterion_08a_phase_transition_exists(desk_curves):
    easy = {
        alg: desk_curves.cell(algorithm=alg, k=15).stats["success_rate"]
        for alg in ("domp", "edomp")
    }
    hard = {
        alg: desk_curves.cell(algorithm=alg, k=60).stats["success_rate"]
        for alg in ("domp", "edomp")
    }
    ok = all(rate >= 0.95 for rate in easy.values()) and all(
        rate <= 0.40 for rate in hard.values()
    )
    line = _report(
        8,
        "phase transition exists (a)",
        ok,
        f"k=15 rates {easy}, k=60 rates {hard}",
    )
    assert ok, line


def test_criterion_08b_thresholded_dominates_omp(desk_curves):
    noise = 4 * math.sqrt(0.25 / 50)
    violations = []
    for k in (15, 25, 35, 45, 60):
        omp_rate = desk_curves.cell(algorithm="omp", k=k).stats["success_rate"]
        edomp_rate = desk_curves.cell(algorithm="edomp", k=k).stats["success_rate"]
        if edomp_rate < omp_rate - noise:
            violations.append((k, omp_rate, edomp_rate))
    ok = len(violations) <= 1
    line = _report(8, "thresholded variant >= omp (b)", ok, f"violating cells: {violations}")
    assert ok, line


def test_criterion_08c_gamma_ordering():
    spec = bench.EnsembleSpec(m=125, n=500, k=40, master_seed=20240915)
    sweep = bench.gamma_sweep(spec, [0.05, 0.9], [30, 40], ["domp"], trials=50)
    hardest = 40
    low = sweep.cell(algorithm="domp", gamma=0.05, k=hardest).stats["success_rate"]
    high = sweep.cell(algorithm="domp", gamma=0.9, k=hardest).stats["success_rate"]
    ok = high >= low
    line = _report(
        8,
        "selection-threshold ordering (c)",
        ok,
        f"k={hardest}: rate(0.9)={high:.2f} >= rate(0.05)={low:.2f}",
    )
    assert ok, line


def test_criterion_09_iteration_economy():
    result = bench.scaling_benchmark(
        [50, 100], ["omp", "domp", "edomp"], trials=50, master_seed=31415, timed=False
    )
    details = []
    ok = True
    for m in (50, 100):
        k = round(0.3 * m)
        omp_cell = result.cell(algorithm="omp", m=m)
        assert omp_cell.coords["k"] == k
        omp_mean = omp_cell.stats["mean_iterations"]
        if not (omp_cell.stats["recovered"] > 0 and omp_mean >= k - 1):
            ok = False
        for alg in ("domp", "edomp"):
            cell = result.cell(algorithm=alg, m=m)
            mean = cell.stats["mean_iterations"]
            if not (cell.stats["recovered"] > 0 and mean < k):
                ok = False
            details.append(f"{alg}@m={m}: {mean:.1f}<{k}")
        details.append(f"omp@m={m}: {omp_mean:.1f}>={k - 1}")
    line = _report(9, "iteration economy", ok, "; ".join(details))
    assert ok, line


def test_criterion_10_sweep_determinism(tmp_path):
    commands = [
        ["phase-gamma", "--seed", "41", "--trials", "4", "--m", "40", "--n", "160",
         "--k-levels", "4", "--gammas", "0.5,0.9", "--algos", "domp,edomp"],
        ["phase-iters", "--seed", "42", "--trials", "4", "--m", "40", "--n", "160",
         "--k-levels", "4", "--budgets", "1,2,4", "--algos", "domp"],
        ["phase-k", "--seed", "43", "--trials", "4", "--m", "40", "--n", "160",
         "--k-levels", "3,6", "--algos", "omp,domp,edomp,cosamp,sp"],
        ["scaling", "--seed", "44", "--trials", "3", "--sizes", "20,40",
         "--algos", "omp,domp", "--no-timing"],
    ]
    ok = True
    for idx, argv in enumerate(commands):
        blobs = []
        for threads, rep in [(1, 0), (3, 0), (1, 1)]:
            out = tmp_path / f"{idx}-{threads}-{rep}.csv"
            code = main(argv + ["--threads", str(threads), "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        if not blobs[0] == blobs[1] == blobs[2]:
            ok = False
    line = _report(10, "sweep determinism", ok, "4 commands x {1,3} threads x repeat")
    assert ok, line
