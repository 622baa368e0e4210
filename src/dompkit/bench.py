"""Random problem ensembles and the experiment suite.

Seeded Gaussian measurement ensembles, a per-trial RNG-stream discipline
that makes every sweep reproducible cell by cell, and the four
experiments: selection-threshold sweep, iteration-budget sweep, success
curves over the sparsity level (noiseless and noisy), and the scaling
benchmark of iterations-to-recovery and runtime.

The four experiments are declarations on one function, ``_sweep``: each
names its ensembles, its (algorithm, gamma) grid, its iteration budget,
the cells it tabulates from one key's outcomes, and its provenance
fields.  ``_sweep`` draws each trial's problem once, runs every key on
it (the EDOMP run of a gamma resumes from the steps it shares with the
DOMP run, or the reverse), and builds the :class:`SweepResult`, whose
CSV header is read off the first cell; a grid without cells is rejected
before any work.

Trials are independent: each trial owns its instance and its RNG
stream, derived from (master seed, instance coordinates, trial index),
so a sweep's output is fixed by its seed and grid, and extending the
trial count leaves earlier trials unchanged.
"""

import hashlib
import json
import warnings
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from . import __version__
from .algorithms import DYNAMIC_SOLVERS, AlgorithmConfig, IterateState, StoppingRule, run
from .linalg import _integer, _real, top_q_indices

__all__ = [
    "EnsembleSpec",
    "SweepCell",
    "SweepResult",
    "TrialOutcome",
    "crc_threshold",
    "gamma_sweep",
    "generate_problem",
    "iteration_sweep",
    "run_trial",
    "scaling_benchmark",
    "success_curves",
]

@dataclass(frozen=True)
class EnsembleSpec:
    """One random-problem ensemble: sizes, seed, noise.  The entries of A
    are standard normal, with no column scaling.  m, n, k (at most n) and
    the seed pass ``linalg._integer`` and are Python ints once built; the
    noise amplitude passes ``linalg._real`` on [0, inf) and is a float."""

    m: int
    n: int
    k: int
    master_seed: int
    noise_amplitude: float = 0.0

    def __post_init__(self):
        counts = (("m", 1, None), ("n", 1, None), ("k", 1, self.n), ("master_seed", 0, None))
        for name, low, high in counts:
            object.__setattr__(self, name, _integer(name, getattr(self, name), low, high))
        object.__setattr__(self, "noise_amplitude", _real("noise_amplitude", self.noise_amplitude, "[0, inf)"))
        if not self.k <= self.m <= self.n:
            warnings.warn(
                f"nonstandard ensemble shape k={self.k}, m={self.m}, n={self.n} "
                "(expected k <= m <= n)",
                RuntimeWarning,
                stacklevel=3,
            )


def generate_problem(spec, trial_index):
    """Deterministic (A, x, y) for one trial of the ensemble.

    The RNG stream is keyed on (master seed, m, n, k, trial index), so a
    given trial is bitwise reproducible, independent of every other
    trial, and shared between the noiseless and noisy variants of the
    same ensemble (the noise draw happens last and is only scaled by the
    amplitude).
    """
    trial_index = _integer("trial_index", trial_index, 0)
    seq = np.random.SeedSequence([spec.master_seed, spec.m, spec.n, spec.k, trial_index])
    rng = np.random.default_rng(seq)
    A = rng.standard_normal((spec.m, spec.n))
    support = rng.choice(spec.n, size=spec.k, replace=False)
    x = np.zeros(spec.n)
    x[support] = rng.standard_normal(spec.k)
    noise = rng.standard_normal(spec.m)
    y = A @ x + spec.noise_amplitude * noise
    return A, x, y


def crc_threshold(noise_amplitude):
    """Relative-error success threshold: 1e-5 exact, 1e-3 under noise."""
    return 1e-3 if noise_amplitude > 0 else 1e-5


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one recovery attempt against a known target.

    ``iterations`` counts every step from the zero iterate.  ``wall_time``
    is the run's own clock (``AlgorithmReport.wall_time``): for a run that
    resumed from a shared state it covers only the steps after that state.
    Only the timed reruns of :func:`scaling_benchmark` read it, and they
    never resume.  ``shared_state`` is the run's
    ``AlgorithmReport.shared_state``, which the other dynamic solver's run
    on the same problem can resume from.
    """

    success: bool
    relative_error: float
    support_match: bool
    iterations: int
    wall_time: float
    shared_state: IterateState | None = field(default=None, repr=False, compare=False)


def _config(algorithm, k, gamma, budget, **extra):
    """A grid cell's solver configuration: gamma goes to the solvers that read it."""
    gamma = gamma if algorithm in DYNAMIC_SOLVERS else None
    return AlgorithmConfig(algorithm, k=k, gamma=gamma, max_iterations=budget, **extra)


def run_trial(A, y, truth, algorithm, k, gamma, budget, threshold, start=None):
    """Run one recovery and score it against the target.

    ``start`` resumes the run from a state (see ``algorithms.iterate``).
    """
    stopping = StoppingRule.relative_error(threshold)
    config = _config(algorithm, k, gamma, budget, stopping=stopping)
    report = run(A, y, config, truth=truth, success_threshold=threshold, start=start)
    support_match = bool(
        np.array_equal(top_q_indices(report.x, k), top_q_indices(truth, k))
    )
    return TrialOutcome(
        success=bool(report.success),
        relative_error=float(report.relative_error),
        support_match=support_match,
        iterations=report.iterations,
        wall_time=report.wall_time,
        shared_state=report.shared_state,
    )


@dataclass(frozen=True)
class SweepCell:
    coords: dict
    stats: dict


@dataclass
class SweepResult:
    """Grid of per-cell statistics with CSV and provenance serialization."""

    name: str
    axes: list
    stat_columns: list
    cells: list
    provenance: dict = field(default_factory=dict)

    def to_csv(self):
        lines = [",".join(self.axes + self.stat_columns)]
        for cell in self.cells:
            row = [_format_value(cell.coords[a]) for a in self.axes]
            row += [_format_value(cell.stats[s]) for s in self.stat_columns]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def provenance_json(self):
        return json.dumps(self.provenance, indent=2, sort_keys=True) + "\n"

    def cell(self, **coords):
        for c in self.cells:
            if all(c.coords.get(k) == v for k, v in coords.items()):
                return c
        raise KeyError(f"no cell with coordinates {coords}")


def _format_value(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def _check_axis(values, axis):
    """An axis of the sweep grid must hold at least one value, and each once."""
    if not values:
        raise ValueError("the sweep grid is empty")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"the sweep grid repeats {axis} {repeated[0]}")


def _sweep(name, specs, algorithms, gammas, trials, budget, cells, provenance, rerun=None):
    """Run a sweep's grid, tabulate it and record its provenance.

    Each trial's problem is drawn once and every (algorithm, gamma) runs
    on it once, through :func:`run_trial`, with ``budget(spec)``
    iterations (None: the solver's default); a solver that reads no gamma
    runs once, and its result serves every gamma.  Of the DOMP and the
    EDOMP run at one gamma, the second resumes from the first's
    ``shared_state``, so the steps the two share are taken once and each
    outcome is that of its run from the zero iterate.  Only the shared
    state outlives the first run, so the second appends to its QR buffer
    in place and copies none of it.  A run's result is its
    :class:`TrialOutcome`, or, with ``rerun``, the outcome followed by
    the items of ``rerun(A, y, truth, algorithm, k, gamma, budget,
    threshold)``, called after the run.  ``cells(algorithm, gamma, runs)``
    turns the results of one (algorithm, gamma), given as ``runs``, a list
    of (spec, per-trial results) in spec order, into that key's cells; the
    CSV header is read off the first cell.  ``provenance`` holds the
    sweep's own sidecar fields; this adds the command, version, seed,
    algorithms, trial count and build id.  Every cell's configuration is
    built before the first problem is drawn, so an empty or invalid grid,
    one that repeats a key or an ensemble, or ``trials < 1`` raises
    ValueError without doing any work.
    """
    algorithms = list(algorithms)
    keys = [(alg, g) for alg in algorithms for g in gammas]
    _check_axis(keys, "(algorithm, gamma)")
    _check_axis([(s.m, s.n, s.k) for s in specs], "(m, n, k)")
    trials = _integer("trials", trials, 1)
    for spec in specs:
        for alg, g in keys:
            _config(alg, spec.k, g, budget(spec))
    runs = {key: [(spec, []) for spec in specs] for key in keys}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i, spec in enumerate(specs):
            threshold = crc_threshold(spec.noise_amplitude)
            for t in range(trials):
                A, x, y = generate_problem(spec, t)
                shared = {}  # gamma -> the first dynamic run's shared state
                for alg, g in keys:
                    dynamic = alg in DYNAMIC_SOLVERS
                    if not dynamic and g != gammas[0]:  # reads no gamma: reuse the first's
                        runs[alg, g][i][1].append(runs[alg, gammas[0]][i][1][t])
                        continue
                    trial = (A, y, x, alg, spec.k, g, budget(spec), threshold)
                    outcome = run_trial(*trial, shared.get(g) if dynamic else None)
                    if dynamic:
                        shared.setdefault(g, outcome.shared_state)
                    # the stored outcome must not keep the problem alive
                    outcome = replace(outcome, shared_state=None)
                    runs[alg, g][i][1].append(outcome if rerun is None else (outcome, *rerun(*trial)))
    rows = [cell for (alg, g), key_runs in runs.items() for cell in cells(alg, g, key_runs)]
    payload = {"command": name, "version": __version__, "seed": specs[0].master_seed,
               "algorithms": algorithms, "trials": trials, **provenance}
    payload["build_id"] = hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]
    return SweepResult(name, list(rows[0].coords), list(rows[0].stats), rows, payload)


def _success_stats(outcomes, budget=None):
    """Success count, rate and mean iterations, each run cut at ``budget``.

    A run with a smaller budget b is the first b iterations of the longer
    run, as the budget only enters the solver loop as the test
    ``p >= budget``.  The recovery criterion is the run's stopping rule
    (see :func:`run_trial`), and a state scores as a success exactly when
    that rule stops on it, so every state of the longer run before its
    last is a failure: the cut run fails after b iterations.
    """
    cut = [
        (o.success, o.iterations) if budget is None or budget >= o.iterations else (False, budget)
        for o in outcomes
    ]
    trials = len(cut)
    successes = sum(success for success, _ in cut)
    return {
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
        "mean_iterations": sum(iters for _, iters in cut) / trials,
    }


def _ensemble_fields(spec):
    return {"m": spec.m, "n": spec.n, "scaling": "raw", "noise": spec.noise_amplitude}


def gamma_sweep(spec, gammas, ks, algorithms, trials):
    """Success rate per (algorithm, selection threshold, sparsity) cell.

    Every solver runs for at most k iterations, stopping early once the
    recovery criterion is met.
    """
    gammas = [_real("gamma", g, "(0, 1]") for g in gammas]
    specs = [replace(spec, k=k) for k in ks]
    return _sweep(
        "phase-gamma", specs, algorithms, gammas, trials,
        budget=lambda s: s.k,
        cells=lambda alg, g, runs: [
            SweepCell({"algorithm": alg, "gamma": g, "k": s.k}, _success_stats(outcomes))
            for s, outcomes in runs
        ],
        provenance={"spec": _ensemble_fields(spec), "gammas": gammas, "ks": [s.k for s in specs]},
    )


def iteration_sweep(spec, budgets, ks, algorithms, trials, gamma=0.9):
    """Success rate as a function of the iteration budget.

    Each solver runs once per trial, to the largest budget; every smaller
    budget is scored off that run (see :func:`_success_stats`).
    """
    gamma = _real("gamma", gamma, "(0, 1]")
    budgets = [_integer("budget", b, 1) for b in budgets]
    _check_axis(budgets, "budget")
    specs = [replace(spec, k=k) for k in ks]
    top = max(budgets)
    return _sweep(
        "phase-iters", specs, algorithms, [gamma], trials,
        budget=lambda s: top,
        cells=lambda alg, g, runs: [
            SweepCell({"algorithm": alg, "budget": b, "k": s.k}, _success_stats(outcomes, b))
            for b in budgets
            for s, outcomes in runs
        ],
        provenance={"spec": _ensemble_fields(spec), "budgets": budgets,
                    "ks": [s.k for s in specs], "gamma": gamma},
    )


def success_curves(spec, ks, algorithms, trials, gamma=0.9):
    """Success rate versus sparsity level, noiseless or noisy per the spec's
    noise amplitude; the noisy criterion is applied automatically."""
    gamma = _real("gamma", gamma, "(0, 1]")
    specs = [replace(spec, k=k) for k in ks]
    return _sweep(
        "phase-k", specs, algorithms, [gamma], trials,
        budget=lambda s: None,
        cells=lambda alg, g, runs: [
            SweepCell({"algorithm": alg, "k": s.k}, {
                **_success_stats(outcomes),
                "support_match_rate": sum(o.support_match for o in outcomes) / len(outcomes),
            })
            for s, outcomes in runs
        ],
        provenance={"spec": _ensemble_fields(spec), "ks": [s.k for s in specs], "gamma": gamma},
    )


def _scaling_stats(entries):
    """Recovery counts, mean iterations over the recovered trials, and
    the trial mean of each rerun-time statistic."""
    recovered = [o for o, _, _ in entries if o.success]
    return {
        "trials": len(entries),
        "recovered": len(recovered),
        "unrecovered": len(entries) - len(recovered),
        "success_rate": len(recovered) / len(entries),
        "mean_iterations": (
            sum(o.iterations for o in recovered) / len(recovered) if recovered else float("nan")
        ),
        "mean_runtime": sum(mean for _, mean, _ in entries) / len(entries),
        "median3_runtime": sum(med for _, _, med in entries) / len(entries),
    }


def scaling_benchmark(ms, algorithms, trials, master_seed, gamma=0.9, timed=True):
    """Iterations-to-recovery and runtime across problem sizes.

    n = 5m and k = round(0.3m) per size, at least 1.  Trials that
    never meet the recovery criterion are counted separately and excluded
    from the mean-iterations statistic.  When timing is enabled each trial
    performs one warm-up run and three timed runs, each timed by the run's
    own clock (``TrialOutcome.wall_time``; mean and median-of-3 reported);
    disabling it zeroes the runtime columns so the CSV is
    byte-reproducible.  The warm-up and timed runs start from the zero
    iterate, never from a shared state.
    """
    gamma = _real("gamma", gamma, "(0, 1]")
    ms = [_integer("m", m, 1) for m in ms]
    specs = [EnsembleSpec(m=m, n=5 * m, k=max(1, round(0.3 * m)), master_seed=master_seed)
             for m in ms]

    def rerun(*trial):
        if not timed:
            return 0.0, 0.0
        run_trial(*trial)
        times = [run_trial(*trial).wall_time for _ in range(3)]
        return sum(times) / 3.0, median(times)

    return _sweep(
        "scaling", specs, algorithms, [gamma], trials,
        budget=lambda s: None,
        cells=lambda alg, g, runs: [
            SweepCell({"algorithm": alg, "m": s.m, "n": s.n, "k": s.k}, _scaling_stats(entries))
            for s, entries in runs
        ],
        provenance={"spec": {"n_factor": 5, "k_ratio": 0.3, "scaling": "raw"},
                    "ms": ms, "gamma": gamma, "timed": timed},
        rerun=rerun,
    )
