import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dompkit import algorithms, linalg
from dompkit.algorithms import (
    ALGORITHMS,
    DYNAMIC_SOLVERS,
    AlgorithmConfig,
    StoppingRule,
    ZeroResidualError,
    domp_step,
    edomp_step,
    gomp_step,
    initial_state,
    iterate,
    omp_step,
    run,
    select_dynamic_indices,
)


def random_sparse_problem(rng, m, n, k, scale=False):
    A = rng.standard_normal((m, n))
    if scale:
        A /= np.sqrt(m)
    support = rng.choice(n, size=k, replace=False)
    x = np.zeros(n)
    x[support] = rng.standard_normal(k)
    return A, x, A @ x


def relative_error(x, truth):
    return np.linalg.norm(x - truth) / np.linalg.norm(truth)


def test_select_dynamic_indices_threshold():
    out = select_dynamic_indices(np.array([5.0, 4.8, 0.1]), 3, 0.9)
    assert out.tolist() == [0, 1]


def test_select_dynamic_indices_unique_max_gamma_one_is_singleton():
    out = select_dynamic_indices(np.array([0.2, -3.0, 1.4]), 3, 1.0)
    assert out.tolist() == [1]


def test_select_dynamic_indices_tied_maxima():
    out = select_dynamic_indices(np.array([3.0, -3.0, 1.0]), 2, 1.0)
    assert out.tolist() == [0, 1]


def test_select_dynamic_indices_zero_residual():
    with pytest.raises(ZeroResidualError):
        select_dynamic_indices(np.zeros(4), 2, 0.9)


def test_select_dynamic_indices_always_contains_a_max():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.standard_normal(20)
        k = int(rng.integers(1, 10))
        gamma = float(rng.uniform(0.05, 1.0))
        theta = select_dynamic_indices(r, k, gamma)
        assert 1 <= theta.size <= k
        assert np.abs(r[theta]).max() == np.abs(r).max()


def test_omp_step_identity_basis():
    A = np.eye(4)
    y = np.zeros(4)
    y[2] = 1.0
    state = omp_step(initial_state(A, y), A, y)
    assert state.support.tolist() == [2]
    assert np.allclose(state.x, y)
    assert state.residual_norm <= 1e-12


def test_omp_recovers_support_in_exactly_k_steps():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        A, x, y = random_sparse_problem(rng, 30, 60, 3)
        state = initial_state(A, y)
        for _ in range(3):
            state = omp_step(state, A, y)
        assert set(state.support.tolist()) == set(np.flatnonzero(x).tolist())
        assert relative_error(state.x, x) <= 1e-10


def test_omp_final_residual_versus_exhaustive_search():
    # Brute-force oracle: best residual over every 3-column support.
    for seed in (0, 1, 2):
        rng = np.random.default_rng(2000 + seed)
        A, x, y = random_sparse_problem(rng, 20, 40, 3)
        report = run(A, y, AlgorithmConfig("omp", k=3), truth=x)
        best = min(
            np.linalg.norm(y - A[:, list(sup)] @ np.linalg.lstsq(A[:, list(sup)], y, rcond=None)[0])
            for sup in itertools.combinations(range(40), 3)
        )
        assert report.residual_norm <= best + 1e-8 or report.success


def test_domp_matches_omp_with_gamma_one_and_distinct_magnitudes():
    rng = np.random.default_rng(42)
    A, x, y = random_sparse_problem(rng, 25, 50, 4)
    omp_state = initial_state(A, y)
    domp_state = initial_state(A, y)
    for _ in range(4):
        rmax = np.abs(domp_state.r).max()
        assert np.sum(np.abs(domp_state.r) == rmax) == 1
        omp_state = omp_step(omp_state, A, y)
        domp_state = domp_step(domp_state, A, y, 4, 1.0)
        assert omp_state.support.tolist() == domp_state.support.tolist()


def test_domp_identity_single_iteration():
    # all nonzero magnitudes within factor 0.9 of the max, so one sweep
    # picks the whole support
    A = np.eye(6)
    x = np.zeros(6)
    x[[1, 3, 4]] = [1.0, -0.95, 0.92]
    state = domp_step(initial_state(A, x), A, x, 3, 0.9)
    assert state.support.tolist() == [1, 3, 4]
    assert np.allclose(state.x, x)


def test_domp_monte_carlo_success_rate():
    successes = 0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        A, x, y = random_sparse_problem(rng, 100, 400, 10, scale=True)
        report = run(
            A,
            y,
            AlgorithmConfig("domp", k=10, gamma=0.9, stopping=StoppingRule.relative_error(1e-5)),
            truth=x,
        )
        successes += bool(report.success)
    assert successes >= 95


def test_edomp_matches_domp_while_support_small():
    rng = np.random.default_rng(77)
    A, x, y = random_sparse_problem(rng, 30, 80, 6)
    d = initial_state(A, y)
    e = initial_state(A, y)
    while True:
        d_next = domp_step(d, A, y, 6, 0.9)
        if d_next.support.size > 6:
            break
        d = d_next
        e = edomp_step(e, A, y, 6, 0.9)
        assert np.allclose(d.x, e.x)
        assert d.support.tolist() == e.support.tolist()
        if d.residual_norm <= 1e-12:
            break


def test_edomp_thresholding_branch():
    rng = np.random.default_rng(78)
    A = rng.standard_normal((12, 40))
    y = rng.standard_normal(12)
    k = 3
    state = initial_state(A, y)
    while state.support.size + 1 <= k:
        state = domp_step(state, A, y, k, 0.2)
    # low gamma forces a large batch so the accumulated support passes k
    nxt = edomp_step(state, A, y, k, 0.2)
    assert np.count_nonzero(nxt.x) <= k
    tentative = linalg.restricted_least_squares(
        A, y, np.union1d(state.support, select_dynamic_indices(state.r, k, 0.2))
    )
    keep = linalg.top_q_indices(tentative, k)
    assert np.allclose(nxt.x, linalg.restricted_least_squares(A, y, keep))
    assert nxt.support.size >= k  # literal accumulation keeps the grown support


@pytest.mark.parametrize("reset_support", [False, True])
def test_edomp_thresholded_step_builds_one_state(monkeypatch, reset_support):
    rng = np.random.default_rng(78)
    A = rng.standard_normal((12, 40))
    y = rng.standard_normal(12)
    k = 3
    state = initial_state(A, y)
    while state.support.size + 1 <= k:
        state = domp_step(state, A, y, k, 0.2)
    assert np.union1d(state.support, select_dynamic_indices(state.r, k, 0.2)).size > k
    built = []
    next_state = algorithms._next_state
    monkeypatch.setattr(algorithms, "_next_state", lambda *a, **kw: built.append(a) or next_state(*a, **kw))
    edomp_step(state, A, y, k, 0.2, reset_support=reset_support)
    assert len(built) == 1


def test_edomp_reset_support_mode():
    rng = np.random.default_rng(79)
    A = rng.standard_normal((12, 40))
    y = rng.standard_normal(12)
    state = initial_state(A, y)
    for _ in range(4):
        state = edomp_step(state, A, y, 3, 0.2, reset_support=True)
        assert state.support.size <= 3
        assert np.count_nonzero(state.x) <= 3


def test_edomp_iterates_always_k_sparse():
    rng = np.random.default_rng(80)
    A, x, y = random_sparse_problem(rng, 40, 120, 8)
    report = run(A, y, AlgorithmConfig("edomp", k=8, gamma=0.5, max_iterations=12))
    state = initial_state(A, y)
    for _ in range(12):
        try:
            state = edomp_step(state, A, y, 8, 0.5)
        except ZeroResidualError:
            break
        assert np.count_nonzero(state.x) <= 8
    assert np.count_nonzero(report.x) <= 8


def test_edomp_monte_carlo_tracks_domp():
    domp_hits = 0
    edomp_hits = 0
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        A, x, y = random_sparse_problem(rng, 100, 400, 10, scale=True)
        rule = StoppingRule.relative_error(1e-5)
        domp_hits += bool(run(A, y, AlgorithmConfig("domp", k=10, stopping=rule), truth=x).success)
        edomp_hits += bool(run(A, y, AlgorithmConfig("edomp", k=10, stopping=rule), truth=x).success)
    assert edomp_hits >= domp_hits - 5


def test_gomp_default_n_is_min_two_k_minus_one():
    assert AlgorithmConfig("gomp", k=2).n_select == 1
    assert AlgorithmConfig("gomp", k=3).n_select == 2
    assert AlgorithmConfig("gomp", k=9).n_select == 2
    assert AlgorithmConfig("gomp", k=9, n_select=4).n_select == 4
    assert AlgorithmConfig("domp", k=9).n_select is None
    with pytest.raises(ValueError, match="gOMP needs k >= 2"):
        AlgorithmConfig("gomp", k=1)


def test_gomp_n1_matches_omp():
    rng = np.random.default_rng(5)
    A, x, y = random_sparse_problem(rng, 30, 90, 5)
    omp = run(A, y, AlgorithmConfig("omp", k=5), truth=x)
    gomp = run(A, y, AlgorithmConfig("gomp", k=5, n_select=1), truth=x)
    assert [t.support_size for t in omp.trace] == [t.support_size for t in gomp.trace]
    assert np.allclose(omp.x, gomp.x)


def test_gomp_identity_two_iterations():
    A = np.eye(8)
    x = np.zeros(8)
    x[[0, 2, 5, 7]] = [1.0, -2.0, 0.5, 3.0]
    report = run(A, x, AlgorithmConfig("gomp", k=4, n_select=3), truth=x)
    assert report.iterations <= 2
    assert report.success


def test_gomp_monte_carlo_comparable_to_omp():
    # equal index budget: gOMP runs its k iterations selecting N=2 atoms
    # each, OMP gets the same N*k atom budget one at a time
    omp_hits = 0
    gomp_hits = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(5000 + trial)
        A, x, y = random_sparse_problem(rng, 50, 200, 6)
        rule = StoppingRule.relative_error(1e-5)
        omp_hits += bool(
            run(A, y, AlgorithmConfig("omp", k=6, stopping=rule, max_iterations=12), truth=x).success
        )
        gomp_hits += bool(
            run(A, y, AlgorithmConfig("gomp", k=6, n_select=2, stopping=rule, max_iterations=6), truth=x).success
        )
    p = max(omp_hits, gomp_hits) / trials
    noise = 4 * np.sqrt(2 * p * (1 - p) / trials) + 1 / trials
    assert abs(omp_hits - gomp_hits) / trials <= max(noise, 0.12)


def test_cosamp_identity_single_iteration():
    A = np.eye(6)
    x = np.zeros(6)
    x[[1, 4]] = [2.0, -1.0]
    report = run(A, x, AlgorithmConfig("cosamp", k=2), truth=x)
    assert report.iterations == 1
    assert report.success


def test_cosamp_zero_measurements():
    A = np.eye(5)
    report = run(A, np.zeros(5), AlgorithmConfig("cosamp", k=2))
    assert report.iterations == 0
    assert report.termination == "global-optimum"
    assert not report.x.any()


def test_cosamp_monte_carlo_success_rate():
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(6000 + trial)
        A, x, y = random_sparse_problem(rng, 100, 400, 10, scale=True)
        rule = StoppingRule.relative_error(1e-5)
        hits += bool(run(A, y, AlgorithmConfig("cosamp", k=10, stopping=rule), truth=x).success)
    assert hits >= 90


def test_sp_identity_single_iteration():
    A = np.eye(6)
    x = np.zeros(6)
    x[[0, 3]] = [1.5, 2.5]
    report = run(A, x, AlgorithmConfig("sp", k=2), truth=x)
    assert report.iterations == 1
    assert report.success


def test_sp_monte_carlo_success_rate():
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(7000 + trial)
        A, x, y = random_sparse_problem(rng, 100, 400, 10, scale=True)
        rule = StoppingRule.relative_error(1e-5)
        hits += bool(run(A, y, AlgorithmConfig("sp", k=10, stopping=rule), truth=x).success)
    assert hits >= 90


def test_sp_trace_residuals_strictly_decrease():
    seen_increase_stop = False
    for trial in range(30):
        rng = np.random.default_rng(8000 + trial)
        A, x, y = random_sparse_problem(rng, 20, 80, 9)
        report = run(A, y, AlgorithmConfig("sp", k=9, max_iterations=50), truth=x)
        residuals = [t.residual_norm for t in report.trace]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        if report.termination == "residual-increase":
            seen_increase_stop = True
            assert report.iterations < 50
    assert seen_increase_stop


def test_run_max_iterations_zero():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((6, 12))
    y = rng.standard_normal(6)
    report = run(A, y, AlgorithmConfig("domp", k=3, max_iterations=0))
    assert report.iterations == 0
    assert not report.x.any()
    assert report.termination == "iteration-cap"
    assert report.trace == []


def _drain(A, y, config, truth=None, start=None):
    """Every state of a run and its termination reason."""
    states, run_states = [], iterate(A, y, config, truth, start=start)
    while True:
        try:
            states.append(next(run_states))
        except StopIteration as stop:
            return states, stop.value


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_smaller_budget_runs_the_prefix_of_the_longer_run(algorithm, noise, seed):
    # iteration_sweep scores every budget off the run with the largest one
    rng = np.random.default_rng(900 + seed)
    A, x, y = random_sparse_problem(rng, 20, 60, 6)
    y = y + noise * rng.standard_normal(20)
    extra = {"gamma": 0.5} if algorithm in algorithms.DYNAMIC_SOLVERS else {}
    rule = StoppingRule.relative_error(1e-5)
    longer, reason = _drain(A, y, AlgorithmConfig(algorithm, 6, stopping=rule, max_iterations=15, **extra), x)
    last = longer[-1].p
    for budget in range(15):
        shorter, cut = _drain(A, y, AlgorithmConfig(algorithm, 6, stopping=rule, max_iterations=budget, **extra), x)
        assert len(shorter) == min(budget, last) + 1
        for a, b in zip(shorter, longer):
            assert a.p == b.p
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.support, b.support)
        if budget < last:
            assert cut == "iteration-cap"
        elif budget > last:
            assert cut == reason
        else:
            assert cut in ("iteration-cap", reason)


def test_config_resolves_the_iteration_budget():
    for algorithm in ("omp", "gomp", "domp", "edomp"):
        assert AlgorithmConfig(algorithm, k=7).max_iterations == 7
    for algorithm in ("cosamp", "sp"):
        assert AlgorithmConfig(algorithm, k=7).max_iterations == 500
    for algorithm in ALGORITHMS:
        assert AlgorithmConfig(algorithm, k=7, max_iterations=0).max_iterations == 0
        assert AlgorithmConfig(algorithm, k=7, max_iterations=3).max_iterations == 3
        with pytest.raises(ValueError, match="max_iterations"):
            AlgorithmConfig(algorithm, k=7, max_iterations=-1)
    assert AlgorithmConfig("omp", 5) == AlgorithmConfig("omp", 5, max_iterations=5)


def test_budget_is_not_a_stopping_rule():
    assert "max-iterations" not in StoppingRule.KINDS
    assert not hasattr(StoppingRule, "max_iterations")
    with pytest.raises(ValueError, match="unknown stopping rule"):
        StoppingRule("max-iterations")


def test_zero_gradient_at_the_budget_is_a_global_optimum():
    # the zero-gradient test comes before the budget test
    x = np.zeros(6)
    x[[1, 4]] = [2.0, -1.0]
    report = run(np.eye(6), x, AlgorithmConfig("omp", k=2, max_iterations=2))
    assert (report.iterations, report.termination) == (2, "global-optimum")


def test_run_gradient_rule_zero_measurements():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((6, 12))
    report = run(A, np.zeros(6), AlgorithmConfig("omp", k=3, stopping=StoppingRule.gradient_residual(1e-9)))
    assert report.iterations == 0
    assert not report.x.any()
    assert report.termination == "gradient-residual"


def test_run_domp_relative_error_rule():
    rng = np.random.default_rng(11)
    A, x, y = random_sparse_problem(rng, 60, 240, 6, scale=True)
    report = run(A, y, AlgorithmConfig("domp", k=6, stopping=StoppingRule.relative_error(1e-5)), truth=x)
    assert report.success
    assert report.iterations <= 6
    assert report.termination == "relative-error"


def test_run_iteration_cap_reason():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((10, 100))
    y = rng.standard_normal(10)
    report = run(A, y, AlgorithmConfig("omp", k=2))
    assert report.termination == "iteration-cap"
    assert report.iterations == 2
    assert len(report.trace) == 2


def test_run_warns_when_k_not_below_m():
    A = np.eye(4)
    y = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.warns(RuntimeWarning):
        run(A, y, AlgorithmConfig("omp", k=4))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("defect", ["inf-in-A", "nan-in-y", "k-above-n"])
def test_run_rejects_invalid_input(algorithm, defect):
    rng = np.random.default_rng(16)
    A, x, y = random_sparse_problem(rng, 20, 50, 5)
    k = 5
    if defect == "inf-in-A":
        A[3, 7] = np.inf
    elif defect == "nan-in-y":
        y[2] = np.nan
    else:
        A = A[:, :4]
    config = AlgorithmConfig(algorithm, k, n_select=2 if algorithm == "gomp" else None)
    with pytest.raises(ValueError):
        run(A, y, config)


@pytest.mark.parametrize("field", ["k", "n_select", "max_iterations"])
@pytest.mark.parametrize("value", [2.5, 3.0])
def test_config_rejects_non_integer_counts(field, value):
    settings = {"k": 4, "n_select": 2, "max_iterations": 3, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        AlgorithmConfig("gomp", **settings)


def test_config_accepts_numpy_integer_counts():
    config = AlgorithmConfig("gomp", np.int64(4), n_select=np.int32(2), max_iterations=np.int64(3))
    assert (config.k, config.n_select, config.max_iterations) == (4, 2, 3)
    rng = np.random.default_rng(17)
    A, x, y = random_sparse_problem(rng, 20, 50, 4)
    assert run(A, y, config).iterations <= 3


def test_config_validation():
    with pytest.raises(ValueError):
        AlgorithmConfig("nope", k=3)
    with pytest.raises(ValueError):
        AlgorithmConfig("domp", k=0)
    with pytest.raises(ValueError):
        AlgorithmConfig("domp", k=3, gamma=1.3)
    with pytest.raises(ValueError):
        AlgorithmConfig("domp", k=3, gamma=0.0)
    with pytest.raises(ValueError):
        AlgorithmConfig("gomp", k=3, n_select=3)
    # settings another solver ignores
    for algorithm in ("omp", "domp", "edomp", "cosamp", "sp"):
        with pytest.raises(ValueError, match="n_select"):
            AlgorithmConfig(algorithm, k=3, n_select=1)
    for algorithm in ("omp", "gomp", "domp", "cosamp", "sp"):
        with pytest.raises(ValueError, match="reset_support"):
            AlgorithmConfig(algorithm, k=3, reset_support=True)
    for algorithm in ("omp", "gomp", "cosamp", "sp"):
        with pytest.raises(ValueError, match="gamma"):
            AlgorithmConfig(algorithm, k=3, gamma=0.3)
        assert AlgorithmConfig(algorithm, k=3).gamma is None
    assert AlgorithmConfig("domp", k=3).gamma == AlgorithmConfig("edomp", k=3).gamma == 0.9
    # a relative-error rule without the ground truth is rejected by the run
    rng = np.random.default_rng(14)
    A, x, y = random_sparse_problem(rng, 10, 20, 2)
    with pytest.raises(ValueError, match="ground truth"):
        run(A, y, AlgorithmConfig("domp", k=2, stopping=StoppingRule.relative_error(1e-5)))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("truth", ["length-one", "length-n-minus-one", "nan"])
def test_run_rejects_bad_truth_before_the_first_step(monkeypatch, algorithm, truth):
    rng = np.random.default_rng(15)
    A, x, y = random_sparse_problem(rng, 20, 50, 5)
    truth = {"length-one": [0.0], "length-n-minus-one": x[:49], "nan": np.where(x != 0, np.nan, 0.0)}[truth]
    started = []
    monkeypatch.setattr(algorithms, "initial_state", lambda *args: started.append(args))
    config = AlgorithmConfig(algorithm, 5, stopping=StoppingRule.relative_error(1e-5))
    with pytest.raises(ValueError, match="truth|NaN"):
        run(A, y, config, truth=truth)
    assert started == []


def test_configs_with_relative_error_rules_compare_and_hash():
    first = AlgorithmConfig("domp", k=5, stopping=StoppingRule.relative_error(1e-5))
    second = AlgorithmConfig("domp", k=5, stopping=StoppingRule.relative_error(1e-5))
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second, AlgorithmConfig("domp", k=5)}) == 2


def test_optimality_and_monotonicity_invariants():
    rng = np.random.default_rng(13)
    for algorithm in ("omp", "gomp", "domp"):
        for _ in range(10):
            A, x, y = random_sparse_problem(rng, 40, 160, 8)
            scale = 1e-7 * (1 + np.abs(A.T @ y).max())
            config = AlgorithmConfig(
                algorithm, k=8, gamma=0.8 if algorithm == "domp" else None,
                n_select=2 if algorithm == "gomp" else None,
            )
            report = run(A, y, config, truth=x)
            state = initial_state(A, y)
            residuals = [state.residual_norm]
            sizes = [0]
            for _ in range(report.iterations):
                if algorithm == "omp":
                    state = omp_step(state, A, y)
                elif algorithm == "gomp":
                    state = gomp_step_like(state, A, y)
                else:
                    state = domp_step(state, A, y, 8, 0.8)
                assert np.abs(state.r[state.support]).max() <= scale
                residuals.append(state.residual_norm)
                sizes.append(state.support.size)
            assert all(b <= a + 1e-10 for a, b in zip(residuals, residuals[1:]))
            assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def gomp_step_like(state, A, y):
    from dompkit.algorithms import gomp_step

    return gomp_step(state, A, y, 2)


def test_domp_disjoint_selection_and_growth():
    rng = np.random.default_rng(14)
    for _ in range(10):
        A, x, y = random_sparse_problem(rng, 30, 100, 6)
        state = initial_state(A, y)
        for _ in range(6):
            if np.abs(state.r).max() <= 1e-12 * np.abs(A.T @ y).max():
                break
            theta = select_dynamic_indices(state.r, 6, 0.7)
            assert not np.isin(theta, state.support).any()
            before = state.support.size
            state = domp_step(state, A, y, 6, 0.7)
            assert state.support.size - before == theta.size
            assert 1 <= theta.size <= 6


def test_incremental_projection_matches_from_scratch():
    rng = np.random.default_rng(15)
    A, x, y = random_sparse_problem(rng, 35, 120, 7)
    state = initial_state(A, y)
    for _ in range(5):
        state = domp_step(state, A, y, 7, 0.6)
        expect = linalg.restricted_least_squares(A, y, state.support)
        assert np.allclose(state.x, expect, atol=1e-9)


def test_domp_through_an_ill_conditioned_column_matches_from_scratch():
    # Unit columns e0..e3 and a fifth column 1e-13 * (e4 + e5)/sqrt(2): DOMP
    # takes {0, 1}, {2}, {3}, then the scaled column, whose QR fails the
    # condition-ratio test, so the last projection is the from-scratch one.
    A = np.zeros((6, 5))
    A[:4, :4] = np.eye(4)
    A[4:, 4] = 1e-13 / np.sqrt(2)
    y = np.array([1.0, 0.9, 0.8, 0.7, 10.0, 0.0])
    states = list(iterate(A, y, AlgorithmConfig("domp", k=5, gamma=0.9)))[1:]
    assert [s.support.tolist() for s in states] == [[0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]]
    for state in states:
        assert np.array_equal(state.x, linalg.restricted_least_squares(A, y, state.support))
    assert states[-1].solver.solve() is None
    assert not states[-1].solver.degenerate


GROWING_STEPS = {
    "omp": (omp_step, lambda r: linalg.top_q_indices(r, 1)),
    "gomp": (lambda s, A, y: gomp_step(s, A, y, 2), lambda r: linalg.top_q_indices(r, 2)),
    "domp": (lambda s, A, y: domp_step(s, A, y, 3, 0.2), lambda r: select_dynamic_indices(r, 3, 0.2)),
    "edomp": (lambda s, A, y: edomp_step(s, A, y, 3, 0.2), lambda r: select_dynamic_indices(r, 3, 0.2)),
    "edomp-reset": (lambda s, A, y: edomp_step(s, A, y, 3, 0.2, reset_support=True),
                    lambda r: select_dynamic_indices(r, 3, 0.2)),
}


def _state_bytes(state):
    return (state.x.tobytes(), state.support.tobytes(), state.r.tobytes(), state.p,
            state.residual_norm, state.selected)


@pytest.mark.parametrize("name", GROWING_STEPS)
def test_growing_step_extends_by_the_new_indices_and_repeats_bytewise(monkeypatch, name):
    step, selection = GROWING_STEPS[name]
    rng = np.random.default_rng(78)
    A = rng.standard_normal((12, 40))
    y = rng.standard_normal(12)
    state = initial_state(A, y)
    for _ in range(2):
        state = domp_step(state, A, y, 3, 0.2)
    extensions = []
    extended = linalg.IncrementalQRSolver.extended
    monkeypatch.setattr(linalg.IncrementalQRSolver, "extended",
                        lambda self, indices: extensions.append(list(indices)) or extended(self, indices))
    first, second = step(state, A, y), step(state, A, y)
    assert _state_bytes(first) == _state_bytes(second)
    new = sorted(set(selection(state.r).tolist()) - set(state.support.tolist()))
    assert new and extensions == [new, new]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_dynamic_run_resumed_from_the_other_solvers_shared_state_is_its_own_run(data):
    # DOMP and EDOMP step alike until EDOMP first thresholds, so each
    # resumes from the state the other reports as shared and replays its
    # run from the zero iterate: same states, bytes and termination.
    # Wide, tall and noisy problems, a duplicated column that sends the QR
    # to its fallback, gamma in (0, 1], budgets below, at and above k, and
    # reset_support both ways (after its first thresholded step a reset
    # run's support can drop back to k, and those states are not shared).
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m, n = data.draw(st.sampled_from([(12, 40), (20, 60), (24, 16)]))
    k = data.draw(st.integers(1, 7))
    A, x, y = random_sparse_problem(rng, m, n, k)
    if data.draw(st.booleans()):
        twin, source = data.draw(st.permutations(range(n)))[:2]
        A[:, twin] = A[:, source]
        y = A @ x
    y = y + data.draw(st.sampled_from([0.0, 1e-3, 0.1])) * rng.standard_normal(m)
    gamma = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    budget = data.draw(st.sampled_from([max(k - 2, 0), k, 2 * k]))
    rule = data.draw(st.sampled_from([None, StoppingRule.relative_error(1e-5)]))
    reset = data.draw(st.booleans())
    configs = [AlgorithmConfig("domp", k, gamma, stopping=rule, max_iterations=budget),
               AlgorithmConfig("edomp", k, gamma, stopping=rule, max_iterations=budget,
                               reset_support=reset)]
    first, second = data.draw(st.permutations(configs))
    shared = run(A, y, first, x).shared_state
    standalone, reason = _drain(A, y, second, x)
    if shared is None:  # neither run takes a step
        assert len(standalone) == 1
        return
    report = run(A, y, second, x, start=shared)
    assert (report.iterations, report.termination) == (standalone[-1].p, reason)
    assert np.array_equal(report.x, standalone[-1].x)
    assert len(report.trace) == standalone[-1].p - shared.p
    # The same resumption from a state of a drained run, whose later
    # factorizations share the QR buffer the resumed run extends.
    earlier, _ = _drain(A, y, first, x)
    start = earlier[shared.p]
    assert _state_bytes(start) == _state_bytes(shared)
    kept = [_factorization_bytes(s) for s in earlier]
    resumed, resumed_reason = _drain(A, y, second, x, start=start)
    assert resumed[0] is start and resumed_reason == reason
    assert [_state_bytes(s) for s in resumed] == [_state_bytes(s) for s in standalone[shared.p:]]
    assert [_factorization_bytes(s) for s in earlier] == kept


def _factorization_bytes(state):
    return None if state.solver is None else _solver_bytes(state.solver)


def _solver_bytes(solver):
    x = solver.solve()
    return None if x is None else x.tobytes(), solver.misfit().tobytes()


def _dynamic_pair(first):
    # Each run appends past the state the two share (t = 3) without growing
    # the QR buffer, so the other run, resumed from it, rewinds the buffer.
    A, x, y = random_sparse_problem(np.random.default_rng(0), 20, 60, 6)
    configs = {name: AlgorithmConfig(name, 6, 0.9) for name in DYNAMIC_SOLVERS}
    earlier = configs.pop(first)
    (second,) = configs.values()
    return A, x, y, earlier, second


@pytest.mark.parametrize("first", DYNAMIC_SOLVERS)
def test_resumed_run_appends_in_place_once_the_earlier_run_is_dropped(qr_buffers, first):
    # Only the shared state of the earlier run is left, so the resumed run
    # writes over the earlier run's later columns: no copy of the buffer,
    # and every state, factorization included, is the standalone run's.
    A, x, y, first, second = _dynamic_pair(first)
    standalone, reason = _drain(A, y, second, x)
    shared = run(A, y, first, x).shared_state
    resumed, resumed_reason = _drain(A, y, second, x, start=shared)
    assert qr_buffers.rewinds == 1 and qr_buffers.branch_copies == []
    assert resumed_reason == reason
    assert [_state_bytes(s) for s in resumed] == [_state_bytes(s) for s in standalone[shared.p:]]
    assert ([_factorization_bytes(s) for s in resumed]
            == [_factorization_bytes(s) for s in standalone[shared.p:]])


@pytest.mark.parametrize("held", ["state", "empty-extension"])
@pytest.mark.parametrize("first", DYNAMIC_SOLVERS)
def test_resumed_run_copies_the_buffer_while_a_later_snapshot_is_held(qr_buffers, first, held):
    # The earlier run's state after the start, or a snapshot of its
    # factorization that appended nothing (as a stalled step makes), still
    # holds the columns the resumed run would overwrite: the buffer is
    # copied once, and the held snapshot keeps its bytes.
    A, x, y, first, second = _dynamic_pair(first)
    standalone, reason = _drain(A, y, second, x)
    earlier, _ = _drain(A, y, first, x)
    start = earlier[run(A, y, first, x).shared_state.p]
    later = earlier[start.p + 1].solver
    if held == "empty-extension":
        later = later.extended([])
    del earlier
    kept = _solver_bytes(later)
    resumed, resumed_reason = _drain(A, y, second, x, start=start)
    assert qr_buffers.rewinds == 1 and len(qr_buffers.branch_copies) == 1
    assert _solver_bytes(later) == kept
    assert resumed_reason == reason
    assert [_state_bytes(s) for s in resumed] == [_state_bytes(s) for s in standalone[start.p:]]
