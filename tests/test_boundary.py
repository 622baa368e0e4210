"""Inputs are checked once, where they enter.

``algorithms.iterate`` scans A and y for NaN/Inf once per run; every
least-squares solve inside a step goes through the unchecked core
``linalg._restricted_ls``, which must agree bit for bit with the public,
checked ``linalg.restricted_least_squares``.  The property test runs all
six solvers on small degenerate problems (duplicate and zero columns,
k >= m): each returns a finite estimate or raises ValueError.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dompkit import linalg
from dompkit.algorithms import ALGORITHMS, AlgorithmConfig, run


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
        report = run(A, y, AlgorithmConfig(algorithm, k, gamma=gamma))
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
        config = AlgorithmConfig(algorithm, k, gamma=gamma, n_select=1 if algorithm == "gomp" else None)
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
