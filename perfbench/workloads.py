"""The benchmark's workloads: the dompkit commands each one runs, their
inputs, and why each was chosen.

There are two workloads, ``sweeps`` and ``cli-theory``.  Between them
they run every layer: ``cli`` (argument handling, file parsing),
``bench`` (sweep drivers, trials, problem generation, the worker pool),
``algorithms``, ``linalg`` and ``theory``.  There are few of them, and
each runs long, because the machine the benchmark was tuned on (2 shared
cores) changes speed by 15-25% for seconds to minutes at a time; only
long runs and medians over many passes average that out.

Every workload is closed-loop and single-process: one pass runs its
commands one after another through ``dompkit.cli.main`` in the
benchmark's own process, and the next pass starts when the previous one
has finished.  ``--threads 1`` is passed everywhere except in the pooled
twins of the dynamic sweeps.  Sweeps receive the benchmark seed as
``--seed``; the ``recover`` and ``ric`` inputs are matrices and vectors
that the benchmark draws from the seed and writes to files during set-up.

Two scales exist: ``full`` is what the benchmark measures, ``smoke`` runs
every command at minimal size and only checks that the harness works.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALL_SOLVERS = ("omp", "domp", "edomp", "cosamp", "sp")

# Grid of the dynamic sweeps, run serial and pooled: the desk shape 125x500 at
# k in {30, 40} with the two dynamic solvers.  domp at gamma=0.1 lets the
# support outgrow m, which drives the incremental QR into its wide lstsq
# fallback; gamma=0.9 stays on the QR path.  edomp at low gamma and every
# intermediate gamma sit on the success/failure transition, where one
# trial's cost varies up to 5x between instances (coefficient of variation
# 0.3-1.2 against 0.04-0.2 for the cells kept), so they are left out to
# keep passes steady across seeds.  phase-iters reruns every budget from
# scratch, so 5 budgets cost 5 solves per trial where one max-budget solve
# would do (the wasted work bench.solves_per_result measures).
DYNAMIC_GRID = {
    "full": dict(m=125, n=500, ks=(30, 40), algos=("domp", "edomp"), low_gamma=0.1,
                 gamma=0.9, budgets=(2, 5, 10, 20, 40), trials=10),
    "smoke": dict(m=20, n=60, ks=(3, 4), algos=("domp", "edomp"), low_gamma=0.5,
                  gamma=0.9, budgets=(1, 3), trials=1),
}

# phase-k at 125x500 with the five default solvers, on both sides of the
# phase transition but away from it, so that the work per seed is steady:
# below it (k <= 20) every solver stops after a few iterations; at k=50
# CoSaMP never recovers and runs its full 500-iteration budget, each
# iteration a wide (3k > m) least-squares solve through lstsq.  Near the
# transition (k=30 and above) one CoSaMP failure more or less changes the
# pass time by half.
BASELINE_GRID = {
    "full": dict(m=125, n=500, below=(5, 10, 15, 20), below_trials=4, above=(50,), above_trials=1),
    "smoke": dict(m=20, n=60, below=(2, 4), below_trials=1, above=(9,), above_trials=1),
}

# scaling --no-timing at n = 5m, k = 0.3m.  CoSaMP is left out so the
# dynamic solvers and OMP dominate: dense O(mn) gradient matvecs, QR
# appends at supports of up to 150 (omp) and 300 (domp) columns, and the
# tall QR inside restricted_least_squares (edomp thresholding, sp).  The
# dynamic solvers run at 1000x5000, where A is 40 MB, below the 105 MB
# last-level cache of the 2-core reference machine, so this is not a
# memory-bandwidth measurement.  omp and sp run at 500x2500 only: at
# 1000x5000 all four took 7-9 s a pass, too long for a steady median.
SCALING_GRID = {
    "full": dict(runs=((500, ("omp", "sp")), (1000, ("domp", "edomp"))), trials=1),
    "smoke": dict(runs=((30, ("omp", "sp")), (40, ("domp", "edomp"))), trials=1),
}

# recover from text files, the verification suites and ric.  Parsing
# dominates recover: traced at 500x2000, linalg.load took 2.7 s of a 4 s
# pass while the domp solve ran about 37 iterations at 2.0 ms each.  The
# large file is 300x1200 (7 MB of text) instead: at 500x2000 (20 MB) pass
# times swung 2x between runs minutes apart, as parsing allocates and
# frees ~70 MB of Python objects a pass.
# verify bound-domp at its CLI defaults (8x12, k=1) is 100% inconclusive
# (the RIC gate is never met), so the bound suites use the tall gated
# ensembles of acceptance criterion 07, plus n=16 so that the order-8
# ric_exact enumeration (12870 supports per instance) carries load.
# ric --highest on a 150x15 matrix scaled by 1/sqrt(m) keeps delta_15
# well below 1, so every order is enumerated (32767 supports) at any seed.
THEORY_GRID = {
    "full": dict(
        problems=(("r125", 125, 500, 20, ALL_SOLVERS), ("r300", 300, 1200, 60, ("domp",))),
        verify=(
            ("bound-domp", "bound-domp", 12, dict(m=300, n=12, k=2, c=4)),
            ("bound-edomp", "bound-edomp", 16, dict(m=800, n=12, k=2, c=4)),
            ("bound-domp-n16", "bound-domp", 3, dict(m=400, n=16, k=2, c=4)),
            ("aux-inequalities", "aux-inequalities", 20, {}),
            ("theta", "theta", 6, {}),
        ),
        ric=(150, 15),
    ),
    "smoke": dict(
        problems=(("r125", 30, 90, 4, ALL_SOLVERS), ("r300", 40, 120, 5, ("domp",))),
        verify=(
            ("bound-domp", "bound-domp", 2, dict(m=60, n=8, k=1, c=3)),
            ("bound-edomp", "bound-edomp", 2, dict(m=60, n=8, k=1, c=3)),
            ("aux-inequalities", "aux-inequalities", 2, {}),
            ("theta", "theta", 2, {}),
        ),
        ric=(30, 8),
    ),
}

SWEEP_HEADERS = {
    "phase-gamma": "algorithm,gamma,k,trials,successes,success_rate,mean_iterations",
    "phase-iters": "algorithm,budget,k,trials,successes,success_rate,mean_iterations",
    "phase-k": "algorithm,k,trials,successes,success_rate,mean_iterations,support_match_rate",
    "scaling": "algorithm,m,n,k,trials,recovered,unrecovered,success_rate,mean_iterations,"
               "mean_runtime,median3_runtime",
}


@dataclass
class Command:
    """One dompkit CLI invocation and what its output must look like."""

    label: str
    kind: str                   # sweep | recover | verify | ric
    argv: list
    output: Path
    expect: dict = field(default_factory=dict)
    twin: str = None            # label of an earlier command whose bytes this one must repeat


@dataclass
class Plan:
    """A workload instantiated for one seed and scale."""

    commands: list
    problems: dict = field(default_factory=dict)    # label -> (A, x, y) for recover checks
    iter_keys: dict = field(default_factory=dict)   # (solver, m) -> iter_ms metric name
    working_set_mb: float = 0.0


def iter_metric(solver, m):
    return f"algorithms.iter_ms.{solver}.m{m}"


def _csv(values):
    return ",".join(str(v) for v in values)


def _sweep(label, name, seed, workdir, threads, rows, trials, flags):
    out = Path(workdir) / f"{label}.csv"
    argv = [name, "--seed", str(seed), "--threads", str(threads), "--trials", str(trials),
            "--out", str(out), *flags]
    return Command(label, "sweep", argv, out, dict(sweep=name, rows=rows, trials=trials, seed=seed))


def _dynamic_commands(seed, scale, workdir, threads):
    g = DYNAMIC_GRID[scale]
    shape = ["--m", str(g["m"]), "--n", str(g["n"]), "--k-levels", _csv(g["ks"])]
    ks, algos, trials = len(g["ks"]), g["algos"], g["trials"]
    return [
        _sweep("phase-gamma-low", "phase-gamma", seed, workdir, threads, ks, trials,
               shape + ["--algos", algos[0], "--gammas", str(g["low_gamma"])]),
        _sweep("phase-gamma-high", "phase-gamma", seed, workdir, threads, ks * len(algos), trials,
               shape + ["--algos", _csv(algos), "--gammas", str(g["gamma"])]),
        _sweep("phase-iters", "phase-iters", seed, workdir, threads, ks * len(algos) * len(g["budgets"]), trials,
               shape + ["--algos", _csv(algos), "--gamma", str(g["gamma"]), "--budgets", _csv(g["budgets"])]),
    ]


def _baseline_commands(seed, scale, workdir):
    g = BASELINE_GRID[scale]
    shape = ["--m", str(g["m"]), "--n", str(g["n"]), "--algos", _csv(ALL_SOLVERS)]
    return [
        _sweep("phase-k-below", "phase-k", seed, workdir, 1, len(ALL_SOLVERS) * len(g["below"]),
               g["below_trials"], shape + ["--k-levels", _csv(g["below"])]),
        _sweep("phase-k-above", "phase-k", seed, workdir, 1, len(ALL_SOLVERS) * len(g["above"]),
               g["above_trials"], shape + ["--k-levels", _csv(g["above"])]),
    ]


def _scaling_commands(seed, scale, workdir):
    g = SCALING_GRID[scale]
    return [
        _sweep(f"scaling-m{full_m}", "scaling", seed, workdir, 1, len(algos), g["trials"],
               ["--sizes", str(m), "--algos", _csv(algos), "--no-timing"])
        for (m, algos), (full_m, _) in zip(g["runs"], SCALING_GRID["full"]["runs"])
    ]


# The pooled twins repeat the dynamic sweeps at --threads 2 and must write
# the same bytes.  Serial beats --threads 2: over seeds 1-10 on the 2-core
# reference machine (one BLAS thread) the pooled dynamic sweeps took a
# median 2.64 s against 1.71 s serial, 1.5x slower, as the two worker
# threads contend for the interpreter lock between numpy calls.
def sweeps(seed, scale, workdir):
    """Every sweep the paper runs, on reduced grids: the dynamic sweeps
    serial and pooled, the five-solver phase-k baselines, and scaling."""
    dynamic = _dynamic_commands(seed, scale, workdir, threads=1)
    pooled_dir = Path(workdir) / "pooled"
    pooled_dir.mkdir(exist_ok=True)
    pooled = _dynamic_commands(seed, scale, pooled_dir, threads=2)
    for twin, command in zip(dynamic, pooled):
        command.label, command.twin = f"pooled-{twin.label}", twin.label
    plan = Plan(commands=[*dynamic, *pooled, *_baseline_commands(seed, scale, workdir),
                          *_scaling_commands(seed, scale, workdir)])
    for grid, solvers in ((DYNAMIC_GRID, DYNAMIC_GRID[scale]["algos"]), (BASELINE_GRID, ALL_SOLVERS)):
        plan.iter_keys.update({(a, grid[scale]["m"]): iter_metric(a, grid["full"]["m"]) for a in solvers})
        plan.working_set_mb = max(plan.working_set_mb, 8 * grid[scale]["m"] * grid[scale]["n"] / 1e6)
    for (m, algos), (full_m, _) in zip(SCALING_GRID[scale]["runs"], SCALING_GRID["full"]["runs"]):
        plan.iter_keys.update({(a, m): iter_metric(a, full_m) for a in algos})
        plan.working_set_mb = max(plan.working_set_mb, 8 * m * 5 * m / 1e6)
    return plan


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


def draw_problem(seed, m, n, k):
    """Gaussian (A, x, y = A x) with a uniformly placed k-sparse x."""
    rng = _rng(seed, 1, m, n, k)
    A = rng.standard_normal((m, n))
    x = np.zeros(n)
    x[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    return A, x, A @ x


def draw_ric_matrix(seed, m, n):
    return _rng(seed, 2, m, n).standard_normal((m, n)) / np.sqrt(m)


def cli_theory(seed, scale, workdir):
    """Draws the problems and writes them with dompkit's own file writer,
    so that this workload's set-up includes the program's file output."""
    from dompkit import linalg

    g = THEORY_GRID[scale]
    workdir = Path(workdir)
    plan = Plan(commands=[])
    for (label, m, n, k, solvers), full in zip(g["problems"], THEORY_GRID["full"]["problems"]):
        A, x, y = draw_problem(seed, m, n, k)
        paths = {name: workdir / f"{label}.{name}.txt" for name in ("A", "y", "x")}
        linalg.save_matrix(paths["A"], A)
        linalg.save_vector(paths["y"], y)
        linalg.save_vector(paths["x"], x)
        for solver in solvers:
            out = workdir / f"recover-{label}-{solver}.json"
            argv = ["recover", "--matrix", str(paths["A"]), "--measurements", str(paths["y"]),
                    "--truth", str(paths["x"]), "--sparsity", str(k), "--algo", solver, "--output", str(out)]
            plan.commands.append(Command(f"recover-{label}-{solver}", "recover", argv, out, dict(problem=label)))
            plan.iter_keys[(solver, m)] = iter_metric(solver, full[1])
        plan.problems[label] = (A, x, y)
        plan.working_set_mb = max(plan.working_set_mb, 8 * m * n / 1e6)
    for label, suite, trials, sizes in g["verify"]:
        out = workdir / f"verify-{label}.json"
        argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed), "--output", str(out)]
        for flag, value in sizes.items():
            argv += [f"--{flag}", str(value)]
        plan.commands.append(Command(f"verify-{label}", "verify", argv, out, dict(suite=suite, trials=trials)))
    m, n = g["ric"]
    R = draw_ric_matrix(seed, m, n)
    path = workdir / "ric.A.txt"
    linalg.save_matrix(path, R)
    out = workdir / "ric.json"
    plan.commands.append(Command("ric-highest", "ric", ["ric", "--matrix", str(path), "--highest", "--output", str(out)],
                                 out, dict(matrix=R)))
    return plan


# name -> (function that makes the plan, one-line reason it is in the benchmark)
WORKLOADS = {
    "sweeps": (sweeps,
               "every sweep at reduced size: small domp/edomp solves with the incremental QR, "
               "the worker pool, capped CoSaMP and wide least squares, large matvecs"),
    "cli-theory": (cli_theory,
                   "recover from text files, verify suites and ric: the only workload for file "
                   "parsing and the theory layer"),
}


def iter_metrics():
    """Every iter_ms metric name some workload reports, in a fixed order."""
    names = []
    for pairs in (
        [(a, DYNAMIC_GRID["full"]["m"]) for a in DYNAMIC_GRID["full"]["algos"]],
        [(a, BASELINE_GRID["full"]["m"]) for a in ALL_SOLVERS],
        [(a, m) for m, algos in SCALING_GRID["full"]["runs"] for a in algos],
        [(a, p[1]) for p in THEORY_GRID["full"]["problems"] for a in p[4]],
    ):
        for solver, m in pairs:
            name = iter_metric(solver, m)
            if name not in names:
                names.append(name)
    return names
