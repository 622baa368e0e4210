"""Inputs are checked once, where they enter.

Every public entry point that takes a matrix checks its arrays by one
rule, ``linalg._system``: a 1-D A, a vector of the wrong length and a
NaN or Inf raise ValueError with one message per defect, whichever
entry point is called.

``algorithms.iterate`` scans A and y for NaN/Inf once per run; every
least-squares solve inside a step goes through the unchecked core
``linalg._restricted_ls``, which must agree bit for bit with the public,
checked ``linalg.restricted_least_squares``.  The property test runs all
six solvers on small degenerate problems (duplicate and zero columns,
k >= m): each returns a finite estimate or raises ValueError.  On the
same problems, every iterate of the support-growing solvers is the
least-squares fit on its support (the incremental QR agrees with a
from-scratch solve, and the gradient vanishes on the support), EDOMP
iterates never hold more than k nonzeros, and DOMP at gamma = 1 is OMP
for as long as the largest gradient magnitude is attained once.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dompkit import linalg, theory
from dompkit.algorithms import ALGORITHMS, DYNAMIC_SOLVERS, AlgorithmConfig, iterate, run


def _problem(seed, m, n, k):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x = np.zeros(n)
    x[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    return A, A @ x


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(linalg, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


M, N = 6, 5

# entry point -> (call on A and the named vectors, the vectors it takes)
ENTRY_POINTS = {
    "run": (lambda A, v: run(A, v["y"], AlgorithmConfig("omp", 2)), ("y",)),
    "run-truth": (lambda A, v: run(A, v["y"], AlgorithmConfig("omp", 2), truth=v["truth"]), ("y", "truth")),
    "iterate": (lambda A, v: next(iterate(A, v["y"], AlgorithmConfig("domp", 2))), ("y",)),
    "restricted_least_squares": (lambda A, v: linalg.restricted_least_squares(A, v["y"], [0]), ("y",)),
    "penalized_restricted_ls": (lambda A, v: linalg.penalized_restricted_ls(A, v["y"], [0, 1], [1], 1.0), ("y",)),
    "spectral_norm": (lambda A, v: linalg.spectral_norm(A), ()),
    "theta_constant": (lambda A, v: theory.theta_constant(A, v["y"]), ("y",)),
    "exhaustive_theta": (lambda A, v: theory.exhaustive_theta(A, v["y"]), ("y",)),
    "ric_exact": (lambda A, v: theory.ric_exact(A, 2), ()),
    "highest_rip_order": (lambda A, v: theory.highest_rip_order(A), ()),
    "verify_projection_proximity": (
        lambda A, v: theory.verify_projection_proximity(A, v["y"], [0], [1], 2, 1.0), ("y",)),
    "verify_recovery_bound": (
        lambda A, v: theory.verify_recovery_bound(A, v["x"], v["noise"], 1, 0.9, 3), ("noise", "x")),
}


def _flat_A(A, vectors):
    return A[:, 0]


def _nan_in_A(A, vectors):
    A[2, 3] = np.nan
    return A


def _short(name):
    def spoil(A, vectors):
        vectors[name] = vectors[name][:-1]
        return A
    return spoil


def _inf_in(name):
    def spoil(A, vectors):
        vectors[name][0] = np.inf
        return A
    return spoil


def _defects(names):
    """(defect, spoil, message): ``spoil(A, vectors)`` returns the A to pass
    and may spoil one of the vectors in place."""
    yield "1-D-A", _flat_A, f"A must be two-dimensional, got shape ({M},)"
    yield "nan-in-A", _nan_in_A, "input contains NaN or Inf"
    for name in names:
        size = M if name in ("y", "noise") else N
        yield f"short-{name}", _short(name), f"dimension mismatch: A is {M}x{N}, {name} has length {size - 1}"
        yield f"inf-in-{name}", _inf_in(name), "input contains NaN or Inf"


BAD_INPUTS = [
    pytest.param(entry, spoil, message, id=f"{entry}-{defect}")
    for entry, (_, names) in ENTRY_POINTS.items()
    for defect, spoil, message in _defects(names)
]


@pytest.mark.parametrize("entry,spoil,message", BAD_INPUTS)
def test_every_entry_point_rejects_bad_arrays_with_one_message(entry, spoil, message):
    A = np.random.default_rng(30).standard_normal((M, N))
    x = np.zeros(N)
    x[1] = 1.0
    vectors = {"y": A @ x, "truth": x.copy(), "x": x.copy(), "noise": np.zeros(M)}
    A = spoil(A, vectors)
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as raised:
        call(A, vectors)
    assert str(raised.value) == message


def _gamma(algorithm, gamma):
    """gamma for the solvers that read it, None for the others."""
    return gamma if algorithm in DYNAMIC_SOLVERS else None


# (algorithm, m, n, k, gamma, seed, what the run must go through)
RUNS = [
    ("omp", 20, 60, 9, 0.9, 0, "any"),
    ("gomp", 20, 60, 9, 0.9, 0, "any"),
    ("cosamp", 20, 60, 8, 0.9, 1, "cosamp-cap"),
    ("sp", 20, 60, 9, 0.9, 0, "sp-rejected-step"),
    ("edomp", 20, 60, 6, 0.3, 0, "edomp-thresholding"),
    ("domp", 10, 40, 15, 0.1, 0, "qr-fallback"),
]


@pytest.mark.parametrize("algorithm,m,n,k,gamma,seed,path", RUNS)
def test_one_finiteness_scan_per_run(monkeypatch, algorithm, m, n, k, gamma, seed, path):
    A, y = _problem(seed, m, n, k)
    scans = _count_calls(monkeypatch, "_require_finite")
    solves = _count_calls(monkeypatch, "_restricted_ls")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = run(A, y, AlgorithmConfig(algorithm, k, gamma=_gamma(algorithm, gamma)))
    assert len(scans) == 1
    sizes = [entry.support_size for entry in report.trace]
    if path == "cosamp-cap":
        assert (report.termination, report.iterations) == ("iteration-cap", 500)
    elif path == "sp-rejected-step":
        assert report.termination == "residual-increase"
    elif path == "edomp-thresholding":
        # the accumulated support only outgrows k on a thresholding step
        assert max(sizes) > k
    elif path == "qr-fallback":
        # no QR factorization holds more than m independent columns
        assert max(sizes) > m
    if path != "any":
        assert solves


def test_one_finiteness_scan_per_highest_rip_order(monkeypatch):
    # unit columns with a duplicate pass order 1 and fail order 2: both
    # orders of the sweep run on one checked A
    A = np.random.default_rng(31).standard_normal((M, N))
    A /= np.linalg.norm(A, axis=0)
    A[:, 4] = A[:, 0]
    scans = _count_calls(monkeypatch, "_require_finite")
    assert ENTRY_POINTS["highest_rip_order"][0](A, {}) == 1
    assert len(scans) == 1


@st.composite
def degenerate_problems(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        A[:, i] = A[:, j]
    if draw(st.booleans()):
        A[:, draw(st.integers(0, n - 1))] = 0.0
    y = rng.standard_normal(m) if draw(st.booleans()) else A @ rng.standard_normal(n)
    k = draw(st.integers(1, n))
    gamma = draw(st.sampled_from([0.05, 0.3, 0.9, 1.0]))
    support = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return A, y, k, gamma, support


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_problems())
def test_solvers_finite_or_value_error_and_core_matches_public(problem):
    A, y, k, gamma, support = problem
    for algorithm in ALGORITHMS:
        if algorithm == "gomp" and k < 2:
            continue
        config = AlgorithmConfig(algorithm, k, gamma=_gamma(algorithm, gamma),
                                 n_select=1 if algorithm == "gomp" else None)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = run(A, y, config)
        except ValueError:
            continue
        assert np.all(np.isfinite(report.x)), algorithm
        assert np.isfinite(report.residual_norm), algorithm
    public = linalg.restricted_least_squares(A, y, support)
    core = linalg._restricted_ls(A, y, np.unique(np.asarray(support, dtype=np.int64)))
    assert public.tobytes() == core.tobytes()


def _states(A, y, config):
    """Every state ``iterate`` yields, and the termination reason."""
    states = iterate(A, y, config)
    seen = []
    while True:
        try:
            seen.append(next(states))
        except StopIteration as stop:
            return seen, stop.value


PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(degenerate_problems())
def test_growing_solver_iterates_are_least_squares_on_their_support(problem):
    A, y, k, gamma, _ = problem
    for algorithm in ("omp", "gomp", "domp"):
        if algorithm == "gomp" and k < 2:
            continue
        config = AlgorithmConfig(algorithm, k, gamma=_gamma(algorithm, gamma),
                                 n_select=min(2, k - 1) if algorithm == "gomp" else None)
        for state in _states(A, y, config)[0][1:]:
            fresh = linalg.restricted_least_squares(A, y, state.support)
            scale = np.linalg.norm(A) * (np.linalg.norm(y) + np.linalg.norm(A) * np.linalg.norm(fresh))
            assert set(np.flatnonzero(state.x)) <= set(state.support), algorithm
            # Least-squares fits on one support are one projection of y.
            assert np.allclose(A @ state.x, A @ fresh, rtol=0, atol=1e-10 * scale), algorithm
            sub = A[:, state.support]
            if state.support.size <= A.shape[0] and np.linalg.cond(sub) < 1e6:
                assert np.allclose(state.x, fresh, rtol=1e-8, atol=1e-10 * scale), algorithm
            # First-order optimality: the gradient vanishes on the support.
            assert np.abs(state.r[state.support]).max() <= 1e-10 * scale, algorithm


@PROPERTY
@given(degenerate_problems())
def test_edomp_iterates_stay_k_sparse(problem):
    A, y, k, gamma, _ = problem
    # A small gamma and a halved k let the accumulated support outgrow k.
    for sparsity, threshold, reset in itertools.product(
        {k, (k + 1) // 2}, {gamma, 0.05}, (False, True)
    ):
        config = AlgorithmConfig("edomp", sparsity, gamma=threshold, reset_support=reset)
        states = _states(A, y, config)[0]
        assert all(np.count_nonzero(state.x) <= sparsity for state in states)


@PROPERTY
@given(degenerate_problems())
def test_domp_at_gamma_one_is_omp_while_the_maximum_is_unique(problem):
    A, y, k, _, _ = problem
    omp, omp_reason = _states(A, y, AlgorithmConfig("omp", k))
    domp, domp_reason = _states(A, y, AlgorithmConfig("domp", k, gamma=1.0))
    for a, b in zip(omp, domp):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.support, b.support)
        assert a.selected == b.selected
        magnitudes = np.abs(a.r)
        if np.count_nonzero(magnitudes == magnitudes.max()) > 1:
            return  # a tie: DOMP adds every maximizer, OMP one of them
    assert len(omp) == len(domp) and omp_reason == domp_reason
