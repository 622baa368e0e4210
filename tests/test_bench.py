import warnings

import numpy as np
import pytest

from dompkit import bench
from dompkit.algorithms import AlgorithmConfig, run
from dompkit.bench import (
    EnsembleSpec,
    TrialOutcome,
    crc_threshold,
    gamma_sweep,
    generate_problem,
    iteration_sweep,
    run_trial,
    scaling_benchmark,
    success_curves,
)


def test_generate_problem_bitwise_deterministic():
    spec = EnsembleSpec(m=20, n=60, k=4, master_seed=123)
    A1, x1, y1 = generate_problem(spec, 3)
    A2, x2, y2 = generate_problem(spec, 3)
    assert np.array_equal(A1, A2) and np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_generate_problem_trials_differ_and_are_order_free():
    spec = EnsembleSpec(m=10, n=30, k=3, master_seed=9)
    A0, _, _ = generate_problem(spec, 0)
    A1, _, _ = generate_problem(spec, 1)
    assert not np.array_equal(A0, A1)
    # trial 7 is the same whether or not other trials were generated first
    direct = generate_problem(spec, 7)[0]
    for t in range(7):
        generate_problem(spec, t)
    assert np.array_equal(generate_problem(spec, 7)[0], direct)


def test_generate_problem_noiseless_measurements_are_exact():
    spec = EnsembleSpec(m=15, n=45, k=5, master_seed=77)
    A, x, y = generate_problem(spec, 0)
    assert np.array_equal(y, A @ x)
    assert np.count_nonzero(x) == 5


def test_generate_problem_noise_shares_instance():
    clean = EnsembleSpec(m=15, n=45, k=5, master_seed=77)
    noisy = EnsembleSpec(m=15, n=45, k=5, master_seed=77, noise_amplitude=0.001)
    A1, x1, y1 = generate_problem(clean, 2)
    A2, x2, y2 = generate_problem(noisy, 2)
    assert np.array_equal(A1, A2) and np.array_equal(x1, x2)
    assert not np.array_equal(y1, y2)
    assert np.linalg.norm(y2 - y1) <= 0.001 * 10 * np.sqrt(15)


def test_generator_statistics():
    # 10^6 standard-normal draws: mean within 4 sigma of 0, variance
    # within 4 sigma of 1
    spec = EnsembleSpec(m=1000, n=1000, k=1, master_seed=2718)
    A = generate_problem(spec, 0)[0]
    entries = A.ravel()
    n = entries.size
    assert abs(entries.mean()) <= 4.0 / np.sqrt(n)
    assert abs(entries.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)


def test_ensemble_spec_validation():
    spec = EnsembleSpec(m=np.int64(6), n=np.int32(10), k=np.uint8(2), master_seed=np.int16(1))
    assert [(v, type(v)) for v in (spec.m, spec.n, spec.k, spec.master_seed)] == [(6, int), (10, int), (2, int), (1, int)]
    with pytest.raises(ValueError):
        EnsembleSpec(m=0, n=5, k=1, master_seed=1)
    with pytest.raises(ValueError):
        EnsembleSpec(m=5, n=5, k=1, master_seed=1, noise_amplitude=-0.1)
    for amplitude in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"^noise_amplitude must lie in \[0, inf\), got {amplitude}$"):
            EnsembleSpec(m=5, n=5, k=1, master_seed=1, noise_amplitude=amplitude)
    with pytest.warns(RuntimeWarning):
        EnsembleSpec(m=5, n=3, k=1, master_seed=1)
    with pytest.warns(RuntimeWarning):
        EnsembleSpec(m=2, n=5, k=3, master_seed=1)
    with pytest.raises(ValueError, match=r"^k must be in \[1, 3\], got 4$"):
        EnsembleSpec(m=5, n=3, k=4, master_seed=1)


@pytest.mark.parametrize(
    "sweep,message",
    [
        (lambda: success_curves(EnsembleSpec(m=20, n=30, k=3, master_seed=1), [3, 40],
                                ["omp", "domp"], trials=2), r"^k must be in \[1, 30\], got 40$"),
        (lambda: gamma_sweep(EnsembleSpec(m=20, n=30, k=3, master_seed=1), [0.9], [3, 31],
                             ["domp"], 2), r"^k must be in \[1, 30\], got 31$"),
    ],
    ids=["phase-k", "phase-gamma"],
)
def test_sparsity_above_n_fails_before_any_trial(monkeypatch, sweep, message):
    trials = []
    trial = bench.run_trial
    monkeypatch.setattr(bench, "run_trial", lambda *a, **kw: trials.append(a) or trial(*a, **kw))
    with pytest.raises(ValueError, match=message):
        sweep()
    assert trials == []


def test_crc_threshold():
    assert crc_threshold(0.0) == 1e-5
    assert crc_threshold(0.001) == 1e-3


def test_run_trial_scores_support_match():
    spec = EnsembleSpec(m=40, n=120, k=4, master_seed=31)
    A, x, y = generate_problem(spec, 0)
    outcome = run_trial(A, y, x, "domp", k=4, gamma=0.9, budget=4, threshold=1e-5)
    assert outcome.success
    assert outcome.support_match
    assert outcome.relative_error <= 1e-5
    assert outcome.iterations <= 4


def test_gamma_sweep_shape_and_rates():
    spec = EnsembleSpec(m=125, n=500, k=2, master_seed=42)
    res = gamma_sweep(spec, [0.05, 0.5, 1.0], [2], ["domp"], trials=12)
    assert res.axes == ["algorithm", "gamma", "k"]
    assert len(res.cells) == 3
    for g in (0.05, 0.5, 1.0):
        cell = res.cell(algorithm="domp", gamma=g, k=2)
        assert cell.stats["trials"] == 12
        # easy regime: every threshold recovers
        assert cell.stats["success_rate"] == 1.0


def test_gamma_sweep_thresholded_variant_less_sensitive():
    # spread of success rates across the threshold range is smaller for
    # the k-sparse (thresholded) variant; and the top threshold 1.0 is
    # not the best choice in the transition region
    for k in (25, 30):
        spec = EnsembleSpec(m=125, n=500, k=k, master_seed=42)
        res = gamma_sweep(spec, [0.25, 0.5, 0.75, 1.0], [k], ["domp", "edomp"], trials=30)
        spreads = {}
        for alg in ("domp", "edomp"):
            rates = [
                res.cell(algorithm=alg, gamma=g, k=k).stats["success_rate"]
                for g in (0.25, 0.5, 0.75, 1.0)
            ]
            spreads[alg] = max(rates) - min(rates)
            assert rates[2] >= rates[3]  # 0.75 beats 1.0 here
        assert spreads["edomp"] <= spreads["domp"]


def test_iteration_sweep_budget_one_fails_and_plateau_before_k():
    spec = EnsembleSpec(m=125, n=500, k=30, master_seed=7)
    res = iteration_sweep(spec, [1, 25, 30], [30], ["domp"], trials=30)
    assert res.cell(algorithm="domp", budget=1, k=30).stats["success_rate"] <= 0.05
    at_25 = res.cell(algorithm="domp", budget=25, k=30).stats["success_rate"]
    at_k = res.cell(algorithm="domp", budget=30, k=30).stats["success_rate"]
    # the curve has flattened before budget reaches k
    assert at_25 >= at_k - 0.1
    assert at_25 >= 0.9


def test_success_curves_monotone_in_k():
    spec = EnsembleSpec(m=50, n=200, k=5, master_seed=11)
    res = success_curves(spec, [4, 8, 12, 16, 20], ["domp"], trials=25)
    rates = [res.cell(algorithm="domp", k=k).stats["success_rate"] for k in (4, 8, 12, 16, 20)]
    # non-increasing up to one cell of binomial noise
    noise = 4 * np.sqrt(0.25 / 25)
    violations = sum(1 for a, b in zip(rates, rates[1:]) if b > a + noise)
    assert violations <= 1


def test_success_curves_k_equals_one_is_perfect():
    spec = EnsembleSpec(m=30, n=120, k=1, master_seed=13)
    res = success_curves(spec, [1], ["omp", "domp", "edomp", "cosamp", "sp"], trials=15)
    for alg in ("omp", "domp", "edomp", "cosamp", "sp"):
        assert res.cell(algorithm=alg, k=1).stats["success_rate"] == 1.0


def test_full_scale_slice_iteration_economy():
    # one cell of the full-scale grid: the dynamic solvers recover well
    # before k iterations while the one-index solver needs all k
    spec = EnsembleSpec(m=500, n=2000, k=120, master_seed=3)
    res = success_curves(spec, [120], ["omp", "domp", "edomp"], trials=5)
    omp = res.cell(algorithm="omp", k=120)
    assert omp.stats["mean_iterations"] >= 120 - 1e-9
    for alg in ("domp", "edomp"):
        cell = res.cell(algorithm=alg, k=120)
        assert cell.stats["success_rate"] >= 0.8
        assert cell.stats["mean_iterations"] < 60


def test_noisy_curves_favor_dynamic_selection_at_low_sparsity():
    # under measurement noise the dynamic solver stays ahead of the
    # one-index solver while k/m < 1/4 (the full-scale reversal beyond
    # that ratio needs far larger k ranges than a desk-size grid)
    spec = EnsembleSpec(m=125, n=500, k=15, master_seed=77, noise_amplitude=0.001)
    res = success_curves(spec, [15, 30], ["omp", "domp"], trials=40)
    noise = 4 * np.sqrt(0.25 / 40)
    for k in (15, 30):
        omp_rate = res.cell(algorithm="omp", k=k).stats["success_rate"]
        domp_rate = res.cell(algorithm="domp", k=k).stats["success_rate"]
        assert domp_rate >= omp_rate - noise


def test_scaling_dynamic_solver_needs_more_iterations_than_sp():
    res = scaling_benchmark([50, 100], ["domp", "sp"], trials=25, master_seed=5, timed=False)
    for m in (50, 100):
        domp_iters = res.cell(algorithm="domp", m=m).stats["mean_iterations"]
        sp_iters = res.cell(algorithm="sp", m=m).stats["mean_iterations"]
        assert res.cell(algorithm="sp", m=m).stats["recovered"] > 0
        assert domp_iters >= sp_iters


def test_scaling_benchmark_iteration_economy():
    res = scaling_benchmark([50], ["omp", "domp"], trials=15, master_seed=5, timed=False)
    omp = res.cell(algorithm="omp", m=50)
    domp = res.cell(algorithm="domp", m=50)
    assert omp.coords["k"] == 15 and omp.coords["n"] == 250
    assert omp.stats["recovered"] + omp.stats["unrecovered"] == 15
    # recovered-only mean: the one-index-per-iteration solver needs k picks
    assert omp.stats["mean_iterations"] >= 15 - 1e-9
    assert domp.stats["mean_iterations"] < 15


def test_scaling_benchmark_untimed_runtime_columns_zero():
    res = scaling_benchmark([30], ["domp"], trials=4, master_seed=3, timed=False)
    cell = res.cell(algorithm="domp", m=30)
    assert cell.stats["mean_runtime"] == 0.0
    assert cell.stats["median3_runtime"] == 0.0


def test_scaling_benchmark_timed_measures_runtime():
    res = scaling_benchmark([30], ["domp"], trials=3, master_seed=3, timed=True)
    cell = res.cell(algorithm="domp", m=30)
    assert cell.stats["mean_runtime"] > 0.0
    assert cell.stats["median3_runtime"] > 0.0


def test_scaling_benchmark_runtime_is_the_runs_own_clock(monkeypatch):
    # per trial: the scored run, a warm-up, then three timed reruns
    clock = iter([9.0, 9.0, 0.25, 4.0, 1.0, 9.0, 9.0, 2.0, 2.0, 5.0])

    def fixed(*args):
        return TrialOutcome(True, 0.0, True, 1, next(clock))

    monkeypatch.setattr(bench, "run_trial", fixed)
    res = scaling_benchmark([20], ["omp"], trials=2, master_seed=1)
    stats = res.cell(algorithm="omp", m=20).stats
    # trial means 1.75 and 3.0, trial medians 1.0 and 2.0
    assert stats["mean_runtime"] == (1.75 + 3.0) / 2
    assert stats["median3_runtime"] == (1.0 + 2.0) / 2


SPEC = EnsembleSpec(m=20, n=60, k=3, master_seed=1)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: gamma_sweep(SPEC, [0.5], [], ["domp"], 2),
        lambda: gamma_sweep(SPEC, [0.5], [3], [], 2),
        lambda: gamma_sweep(SPEC, [], [3], ["domp"], 2),
        lambda: iteration_sweep(SPEC, [1, 2], [], ["domp"], 2),
        lambda: iteration_sweep(SPEC, [1, 2], [3], [], 2),
        lambda: iteration_sweep(SPEC, [], [3], ["domp"], 2),
        lambda: success_curves(SPEC, [], ["domp"], 2),
        lambda: success_curves(SPEC, [3], [], 2),
        lambda: scaling_benchmark([], ["domp"], 2, master_seed=1, timed=False),
        lambda: scaling_benchmark([20], [], 2, master_seed=1, timed=False),
        lambda: gamma_sweep(SPEC, [0.5], [3], ["domp"], 0),
        lambda: iteration_sweep(SPEC, [1, 2], [3], ["domp"], 0),
        lambda: success_curves(SPEC, [3], ["domp"], 0),
        lambda: scaling_benchmark([20], ["domp"], 0, master_seed=1, timed=False),
    ],
    ids=["gamma-ks", "gamma-algorithms", "gamma-gammas", "iters-ks", "iters-algorithms",
         "iters-budgets", "k-ks", "k-algorithms", "scaling-sizes", "scaling-algorithms",
         "gamma-trials", "iters-trials", "k-trials", "scaling-trials"],
)
def test_empty_sweep_grid_fails_before_any_problem(monkeypatch, sweep):
    # a grid without cells has no CSV header to write, and a cell without
    # trials no rate; an empty budget list is an empty grid too
    drawn = []
    monkeypatch.setattr(bench, "generate_problem", lambda *a: drawn.append(a))
    with pytest.raises(ValueError) as raised:
        sweep()
    assert str(raised.value) in ("the sweep grid is empty", "trials must be at least 1, got 0")
    assert drawn == []


def test_csv_format_and_determinism():
    spec = EnsembleSpec(m=30, n=120, k=3, master_seed=21)
    res1 = gamma_sweep(spec, [0.5, 1.0], [3], ["domp"], trials=6)
    res2 = gamma_sweep(spec, [0.5, 1.0], [3], ["domp"], trials=6)
    csv1, csv2 = res1.to_csv(), res2.to_csv()
    assert csv1 == csv2
    lines = csv1.splitlines()
    assert lines[0] == "algorithm,gamma,k,trials,successes,success_rate,mean_iterations"
    assert len(lines) == 3
    assert lines[1].startswith("domp,0.5,3,6,")


def test_csv_six_significant_digits():
    spec = EnsembleSpec(m=30, n=120, k=3, master_seed=22)
    res = gamma_sweep(spec, [1 / 3], [3], ["domp"], trials=3)
    assert ",0.333333," in res.to_csv().splitlines()[1]


def test_csv_nan_for_unrecovered_cells():
    # at m = 10 (n = 50, k = 3) OMP recovers none of these trials, so mean
    # iterations is nan
    res = scaling_benchmark([10], ["omp"], trials=3, master_seed=0, timed=False)
    assert res.to_csv().splitlines()[1] == "omp,10,50,3,3,0,3,0,nan,0,0"


def test_sweep_result_files_and_provenance():
    spec = EnsembleSpec(m=20, n=80, k=2, master_seed=33)
    res = success_curves(spec, [2], ["domp"], trials=4)
    assert res.to_csv().startswith("algorithm,k,")
    assert res.cell(algorithm="domp", k=2).stats["trials"] == 4
    with pytest.raises(KeyError, match="no cell with coordinates"):
        res.cell(algorithm="domp", k=3)
    import json

    meta = json.loads(res.provenance_json())
    assert meta["command"] == "phase-k"
    assert meta["seed"] == 33
    assert "build_id" in meta and "version" in meta


def test_scaling_repeats_are_byte_identical():
    first = scaling_benchmark([25], ["domp", "omp"], trials=6, master_seed=4, timed=False)
    second = scaling_benchmark([25], ["domp", "omp"], trials=6, master_seed=4, timed=False)
    assert first.to_csv() == second.to_csv()
    assert first.provenance_json() == second.provenance_json()


def test_extending_trial_count_preserves_earlier_outcomes():
    # per-trial RNG streams: the first T trials are unchanged when the
    # count grows to T + delta
    spec = EnsembleSpec(m=40, n=160, k=10, master_seed=55)
    short = success_curves(spec, [10], ["domp"], trials=5)
    longer = success_curves(spec, [10], ["domp"], trials=9)
    extra = 0
    for t in range(5, 9):
        A, x, y = generate_problem(spec, t)
        extra += run_trial(A, y, x, "domp", 10, 0.9, budget=10, threshold=1e-5).success
    assert (
        longer.cell(algorithm="domp", k=10).stats["successes"]
        == short.cell(algorithm="domp", k=10).stats["successes"] + extra
    )


@pytest.mark.parametrize("noise", [0.0, 0.001])
def test_iteration_sweep_scores_every_budget_off_one_run(noise, monkeypatch):
    # reference: one run_trial per budget, the sweep's meaning; budgets
    # 1, k-1, k and 2k, all six solvers, noiseless and noisy
    from dompkit import algorithms
    from dompkit.bench import SweepCell, SweepResult

    spec = EnsembleSpec(m=30, n=90, k=6, master_seed=19, noise_amplitude=noise)
    budgets, ks, trials = [1, 5, 6, 12], [6], 4
    engine = algorithms.iterate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].algorithm)
        return engine(*args, **kwargs)

    monkeypatch.setattr(algorithms, "iterate", counted)
    swept = iteration_sweep(spec, budgets, ks, algorithms.ALGORITHMS, trials)
    assert len(calls) == len(ks) * trials * len(algorithms.ALGORITHMS)
    monkeypatch.undo()

    problems = [generate_problem(spec, t) for t in range(trials)]
    cells = []
    for alg in algorithms.ALGORITHMS:
        for b in budgets:
            outcomes = [
                run_trial(A, y, x, alg, 6, 0.9, b, crc_threshold(noise)) for A, x, y in problems
            ]
            successes = sum(o.success for o in outcomes)
            stats = {
                "trials": trials,
                "successes": successes,
                "success_rate": successes / trials,
                "mean_iterations": sum(o.iterations for o in outcomes) / trials,
            }
            cells.append(SweepCell(coords={"algorithm": alg, "budget": b, "k": 6}, stats=stats))
    reference = SweepResult("phase-iters", swept.axes, swept.stat_columns, cells)
    assert swept.to_csv() == reference.to_csv()


PAIR_SWEEPS = {
    "phase-gamma": lambda algos: gamma_sweep(
        EnsembleSpec(m=24, n=80, k=4, master_seed=5), [0.2, 0.6, 1.0], [4, 7], algos, 5),
    "phase-iters": lambda algos: iteration_sweep(
        EnsembleSpec(m=24, n=80, k=4, master_seed=6, noise_amplitude=0.01), [2, 4, 8], [4, 7], algos, 5),
    "phase-k": lambda algos: success_curves(
        EnsembleSpec(m=24, n=80, k=4, master_seed=7, noise_amplitude=0.05), [4, 8], algos, 5, gamma=0.5),
    "scaling": lambda algos: scaling_benchmark([20, 30], algos, 3, master_seed=8, timed=False),
}


@pytest.mark.parametrize("sweep", PAIR_SWEEPS.values(), ids=PAIR_SWEEPS.keys())
def test_dynamic_pair_cells_are_those_of_separate_runs_in_either_order(monkeypatch, sweep):
    # The second of a DOMP and an EDOMP run at one gamma resumes from the
    # first's shared state; its cells are those of a sweep of it alone.
    from dompkit import algorithms

    engine = algorithms.iterate
    starts = []

    def spy(*args, start=None, **kwargs):
        starts.append(start)
        return engine(*args, start=start, **kwargs)

    monkeypatch.setattr(algorithms, "iterate", spy)
    forward, backward = sweep(["domp", "omp", "edomp"]), sweep(["edomp", "domp", "omp"])
    assert any(start is not None for start in starts)
    separate = [sweep([alg]) for alg in ("omp", "domp", "edomp")]
    rows = [sorted(res.to_csv().splitlines()) for res in (forward, backward)]
    assert rows[0] == rows[1] == sorted({line for res in separate for line in res.to_csv().splitlines()})


def test_timed_scaling_reruns_start_from_the_zero_iterate(monkeypatch):
    calls = []
    trial = bench.run_trial

    def spy(*args):
        calls.append(len(args) > 8 and args[8] is not None)
        return trial(*args)

    monkeypatch.setattr(bench, "run_trial", spy)
    scaling_benchmark([20], ["domp", "edomp"], trials=2, master_seed=1)
    # per trial and solver: the scored run, a warm-up and three timed runs;
    # only EDOMP's scored run resumes from DOMP's shared state
    assert calls == ([False] * 5 + [True] + [False] * 4) * 2


def test_sweep_leaves_the_warning_filters_alone():
    # A sweep silences RuntimeWarnings only while it runs: a leaked
    # "ignore RuntimeWarning" filter would silence run's k >= m warning
    # for good.
    spec = EnsembleSpec(m=20, n=60, k=3, master_seed=0)
    before = list(warnings.filters)
    for _ in range(3):
        gamma_sweep(spec, [0.5, 0.9], [3, 4], ["domp", "edomp"], trials=20)
        assert warnings.filters == before
    A, _, y = generate_problem(EnsembleSpec(m=4, n=12, k=2, master_seed=0), 0)
    with pytest.warns(RuntimeWarning, match="not below m"):
        run(A, y, AlgorithmConfig("omp", 4))


def test_dynamic_pair_sweep_copies_no_qr_buffer(qr_buffers):
    # The second run of each pair resumes from the first's shared state,
    # which alone outlives the first run, so it appends in place.
    gamma_sweep(EnsembleSpec(m=24, n=80, k=4, master_seed=5), [0.9], [4, 7], ["domp", "edomp"], 5)
    assert qr_buffers.rewinds > 0
    assert qr_buffers.branch_copies == []
