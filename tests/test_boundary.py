"""Inputs are checked once, where they enter.

Every public entry point that takes a matrix checks its arrays by one
rule, ``linalg._system``: a 1-D A, a vector of the wrong length and a
NaN or Inf raise ValueError with one message per defect, whichever
entry point is called.  Every integer input is checked by one rule too,
``linalg._integer``: a float (3.0 included), a bool and a value out of
range raise ValueError naming the input, before any trial, random draw or
RIC enumeration.  Every real input (gamma, delta, a threshold, a noise
amplitude, sigma, ||A|| and theta) is checked by one rule as well,
``linalg._real``: a bool, a string, NaN and a value outside its interval
raise ValueError naming the input, before any of that work or any solve.

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
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dompkit import algorithms, bench, linalg, theory
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


# The arrays of the integer cases, built before any draw is forbidden.
_A, _Y = _problem(34, M, N, 1)
_X = np.zeros(N)
_X[1] = 1.0
_SPEC = bench.EnsembleSpec(m=6, n=10, k=2, master_seed=1)


def _spec(**change):
    return bench.EnsembleSpec(**{"m": 6, "n": 10, "k": 2, "master_seed": 1, **change})


# entry point -> (the input's name, call on its value, a value just outside its range)
INTEGER_INPUTS = {
    "AlgorithmConfig-k": ("k", lambda v: AlgorithmConfig("omp", v), 0),
    "AlgorithmConfig-n_select": ("n_select", lambda v: AlgorithmConfig("gomp", 4, n_select=v), 4),
    "AlgorithmConfig-max_iterations": ("max_iterations", lambda v: AlgorithmConfig("omp", 2, max_iterations=v), -1),
    "run-k": ("k", lambda v: run(_A, _Y, AlgorithmConfig("omp", v)), N + 1),
    "EnsembleSpec-m": ("m", lambda v: _spec(m=v), 0),
    "EnsembleSpec-n": ("n", lambda v: _spec(n=v), 0),
    "EnsembleSpec-k": ("k", lambda v: _spec(k=v), 11),
    "EnsembleSpec-master_seed": ("master_seed", lambda v: _spec(master_seed=v), -1),
    "generate_problem": ("trial_index", lambda v: bench.generate_problem(_SPEC, v), -1),
    "gamma_sweep-ks": ("k", lambda v: bench.gamma_sweep(_SPEC, [0.9], [2, v], ["omp"], 1), 11),
    "gamma_sweep-trials": ("trials", lambda v: bench.gamma_sweep(_SPEC, [0.9], [2], ["omp"], v), 0),
    "iteration_sweep-budgets": ("budget", lambda v: bench.iteration_sweep(_SPEC, [1, v], [2], ["omp"], 1), 0),
    "iteration_sweep-ks": ("k", lambda v: bench.iteration_sweep(_SPEC, [1], [v], ["omp"], 1), 11),
    "success_curves-ks": ("k", lambda v: bench.success_curves(_SPEC, [v], ["omp"], 1), 11),
    "success_curves-trials": ("trials", lambda v: bench.success_curves(_SPEC, [2], ["omp"], v), 0),
    "scaling_benchmark-ms": ("m", lambda v: bench.scaling_benchmark([v], ["omp"], 1, 1, timed=False), 0),
    "scaling_benchmark-seed": (
        "master_seed", lambda v: bench.scaling_benchmark([5], ["omp"], 1, v, timed=False), -1),
    "top_q_indices": ("q", lambda v: linalg.top_q_indices(np.arange(5.0), v), 6),
    "hard_threshold": ("k", lambda v: linalg.hard_threshold(np.arange(5.0), v), 6),
    "ric_exact-order": ("order", lambda v: theory.ric_exact(_A, v), N + 1),
    "ric_exact-cap": ("cap", lambda v: theory.ric_exact(_A, 2, cap=v), 0),
    "highest_rip_order-cap": ("cap", lambda v: theory.highest_rip_order(_A, cap=v), 0),
    "domp_ric_bound": ("k", lambda v: theory.domp_ric_bound(v, 0.9), 0),
    "edomp_ric_bound": ("k", lambda v: theory.edomp_ric_bound(v, 0.9), 0),
    "bound_constants": ("k", lambda v: theory.bound_constants(0.1, v, 0.9, 1.0, 1.0, 1.0), 0),
    "verify_projection_proximity": (
        "k", lambda v: theory.verify_projection_proximity(_A, _Y, [0], [1], v, 1.0), N + 1),
    "verify_recovery_bound-c": ("c", lambda v: theory.verify_recovery_bound(_A, _X, np.zeros(M), 1, 0.9, v), 2),
    "verify_recovery_bound-k": ("k", lambda v: theory.verify_recovery_bound(_A, _X, np.zeros(M), v, 0.9, 3), N + 1),
    "projection_proximity_suite-m": ("m", lambda v: theory.projection_proximity_suite(1, 1, m=v), 0),
    "projection_proximity_suite-n": ("n", lambda v: theory.projection_proximity_suite(1, 1, n=v), 0),
    "projection_proximity_suite-k": ("k", lambda v: theory.projection_proximity_suite(1, 1, k=v), 31),
    "recovery_bound_suite-m": ("m", lambda v: theory.recovery_bound_suite(1, 1, m=v), 0),
    "recovery_bound_suite-n": ("n", lambda v: theory.recovery_bound_suite(1, 1, n=v), 0),
    "recovery_bound_suite-k": ("k", lambda v: theory.recovery_bound_suite(1, 1, k=v), 13),
    "recovery_bound_suite-c": ("c", lambda v: theory.recovery_bound_suite(1, 1, c=v), 2),
    **{f"{suite}-{name}": (name, call, outside)
       for suite in ("projection_proximity_suite", "recovery_bound_suite", "auxiliary_inequality_suite",
                     "theta_equivalence_suite", "ric_monotonicity_suite")
       for name, call, outside in (
           ("trials", lambda v, suite=suite: getattr(theory, suite)(v, 1), 0),
           ("seed", lambda v, suite=suite: getattr(theory, suite)(1, v), -1))},
}


def _forbid_work(monkeypatch):
    """Make every draw, trial, solver run, RIC enumeration, least-squares
    solve and gradient selection fail the test."""
    def fail(*args, **kwargs):
        pytest.fail("work started")

    for owner, attr in ((np.random, "default_rng"), (bench, "run_trial"),
                        (algorithms, "initial_state"), (theory, "_supports"),
                        (linalg, "_restricted_ls"), (algorithms, "_top_nonzero")):
        monkeypatch.setattr(owner, attr, fail)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "outside"])
@pytest.mark.parametrize("entry", INTEGER_INPUTS)
def test_every_integer_input_is_checked_by_one_rule_before_any_work(monkeypatch, entry, value):
    name, call, outside = INTEGER_INPUTS[entry]
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError) as raised:
        call(outside if value == "outside" else value)
    message = str(raised.value)
    if value == "outside":
        assert message.startswith(f"{name} must be "), message
        assert message.endswith(f", got {outside}"), message
    else:
        assert message == f"{name} must be an integer, got {value!r}"


_GAMMA, _UNIT, _HALF_LINE, _POSITIVE, _THRESHOLD = "(0, 1]", "[0, 1)", "[0, inf)", "(0, inf)", "[0, inf]"
_BOUND = (0.1, 2, 0.9, 1.0, 1.0, 1.0)  # bound_constants(delta, k, gamma, sigma, matrix_norm, theta)


def _bound_constants(position):
    return lambda v: theory.bound_constants(*_BOUND[:position], v, *_BOUND[position + 1:])


# entry point -> (the input's name, its interval, call on its value, a value just outside it)
REAL_INPUTS = {
    "AlgorithmConfig-gamma": ("gamma", _GAMMA, lambda v: AlgorithmConfig("domp", 2, gamma=v), 1.5),
    "select_dynamic_indices": (
        "gamma", _GAMMA, lambda v: algorithms.select_dynamic_indices(np.arange(5.0), 2, v), 0.0),
    "domp_ric_bound": ("gamma", _GAMMA, lambda v: theory.domp_ric_bound(2, v), 0.0),
    "edomp_ric_bound": ("gamma", _GAMMA, lambda v: theory.edomp_ric_bound(2, v), 1.5),
    "bound_constants-delta": ("delta", _UNIT, _bound_constants(0), 1.0),
    "bound_constants-gamma": ("gamma", _GAMMA, _bound_constants(2), 0.0),
    "bound_constants-sigma": ("sigma", _POSITIVE, _bound_constants(3), 0.0),
    "bound_constants-matrix_norm": ("matrix_norm", _HALF_LINE, _bound_constants(4), -1.0),
    "bound_constants-theta": ("theta", _HALF_LINE, _bound_constants(5), -1.0),
    "projection_proximity_suite-gamma": (
        "gamma", _GAMMA, lambda v: theory.projection_proximity_suite(1, 1, gamma=v), 1.5),
    "recovery_bound_suite-gamma": ("gamma", _GAMMA, lambda v: theory.recovery_bound_suite(1, 1, gamma=v), 0.0),
    "recovery_bound_suite-noise_amplitude": (
        "noise_amplitude", _HALF_LINE, lambda v: theory.recovery_bound_suite(1, 1, noise_amplitude=v), -0.5),
    "verify_recovery_bound-gamma": (
        "gamma", _GAMMA, lambda v: theory.verify_recovery_bound(_A, _X, np.zeros(M), 1, v, 3), 0.0),
    "verify_projection_proximity-sigma": (
        "sigma", _POSITIVE, lambda v: theory.verify_projection_proximity(_A, _Y, [0], [1], 2, v), np.inf),
    "penalized_restricted_ls-sigma": (
        "sigma", _POSITIVE, lambda v: linalg.penalized_restricted_ls(_A, _Y, [0, 1], [1], v), np.inf),
    # the sweeps check gamma with no dynamic solver in the grid too
    "gamma_sweep-gammas": ("gamma", _GAMMA, lambda v: bench.gamma_sweep(_SPEC, [0.9, v], [2], ["omp"], 1), 1.5),
    "iteration_sweep-gamma": (
        "gamma", _GAMMA, lambda v: bench.iteration_sweep(_SPEC, [1], [2], ["omp"], 1, gamma=v), 0.0),
    "success_curves-gamma": ("gamma", _GAMMA, lambda v: bench.success_curves(_SPEC, [2], ["omp"], 1, gamma=v), 5.0),
    "scaling_benchmark-gamma": (
        "gamma", _GAMMA, lambda v: bench.scaling_benchmark([5], ["omp"], 1, 1, gamma=v, timed=False), -3.0),
    "EnsembleSpec-noise_amplitude": ("noise_amplitude", _HALF_LINE, lambda v: _spec(noise_amplitude=v), np.inf),
    "StoppingRule-epsilon": (
        "epsilon", _THRESHOLD, lambda v: algorithms.StoppingRule("measurement-residual", v), -1.0),
    **{f"StoppingRule.{maker}": ("epsilon", _THRESHOLD, getattr(algorithms.StoppingRule, maker), -1e-5)
       for maker in ("measurement_residual", "gradient_residual", "relative_error")},
    "run-success_threshold": (
        "success_threshold", _THRESHOLD,
        lambda v: run(_A, _Y, AlgorithmConfig("omp", 2), truth=_X, success_threshold=v), -1.0),
}


@pytest.mark.parametrize("value", [True, "0.5", np.nan, "outside"])
@pytest.mark.parametrize("entry", REAL_INPUTS)
def test_every_real_input_is_checked_by_one_rule_before_any_work(monkeypatch, entry, value):
    name, interval, call, outside = REAL_INPUTS[entry]
    value = outside if value == "outside" else value
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError) as raised:
        call(value)
    if isinstance(value, (bool, str)):
        assert str(raised.value) == f"{name} must be a real number, got {value!r}"
    else:
        assert str(raised.value) == f"{name} must lie in {interval}, got {value}"


def test_real_inputs_are_stored_as_python_floats():
    # numpy reals and integers pass and are stored as floats; inf is a
    # valid stopping and success threshold
    assert type(AlgorithmConfig("domp", 2, gamma=np.float32(0.5)).gamma) is float
    assert type(AlgorithmConfig("edomp", 2, gamma=1).gamma) is float
    assert type(_spec(noise_amplitude=np.float64(0.25)).noise_amplitude) is float
    assert _spec(noise_amplitude=0).noise_amplitude == 0.0
    rule = algorithms.StoppingRule.measurement_residual(np.inf)
    assert rule.epsilon == np.inf and type(algorithms.StoppingRule.gradient_residual(0).epsilon) is float
    assert run(_A, _Y, AlgorithmConfig("omp", 2), truth=_X, success_threshold=np.inf).success
    constants = theory.bound_constants(np.float64(0.1), 2, 1, 1, np.float32(2.0), 0)
    assert [type(getattr(constants, f)) for f in ("delta", "gamma", "sigma", "matrix_norm", "theta")] == [float] * 5


def test_suites_and_sweeps_record_the_checked_reals():
    # a numpy real is recorded as the float it passed as, which JSON takes
    half, zero = np.float32(0.5), np.float32(0.0)
    bound = theory.recovery_bound_suite(1, 1, m=200, n=6, gamma=half, noise_amplitude=zero)
    assert json.loads(bound.to_json())["parameters"] == {
        "m": 200, "n": 6, "k": 1, "c": 3, "gamma": 0.5, "noise_amplitude": 0.0}
    proximity = theory.projection_proximity_suite(1, 1, gamma=half)
    assert json.loads(proximity.to_json())["parameters"]["gamma"] == 0.5
    curves = bench.success_curves(_spec(noise_amplitude=zero), [2], ["omp", "domp"], 1, gamma=half)
    assert json.loads(curves.provenance_json())["gamma"] == 0.5
    assert json.loads(curves.provenance_json())["spec"]["noise"] == 0.0
    gammas = bench.gamma_sweep(_SPEC, [half], [2], ["domp"], 1)
    assert json.loads(gammas.provenance_json())["gammas"] == [0.5]


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_a_ridge_weight_that_is_not_finite_never_reaches_lapack(capfd, sigma):
    # past the check, such a sigma reaches the SVD, where LAPACK prints a
    # complaint about an illegal parameter before LinAlgError is raised
    for entry in ("penalized_restricted_ls-sigma", "verify_projection_proximity-sigma"):
        call = REAL_INPUTS[entry][2]
        with pytest.raises(ValueError, match=r"^sigma must lie in \(0, inf\), got (nan|inf)$"):
            call(sigma)
    assert capfd.readouterr() == ("", "")


# Each a float count that was truncated, or passed a check and failed later.
def test_recovery_bound_rejects_a_fractional_c_before_the_ric(monkeypatch):
    monkeypatch.setattr(theory, "_ric", lambda *a: pytest.fail("the RIC was enumerated"))
    A = np.random.default_rng(35).standard_normal((40, 8)) / np.sqrt(40)
    x = np.zeros(8)
    x[3] = 1.0
    with pytest.raises(ValueError, match=r"^c must be an integer, got 3\.5$"):
        theory.verify_recovery_bound(A, x, np.zeros(40), 2, 0.9, 3.5)


def test_recovery_bound_suite_rejects_a_fractional_k_before_trial_zero(monkeypatch):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    with pytest.raises(ValueError, match=r"^k must be an integer, got 1\.5$"):
        theory.recovery_bound_suite(2, 1, k=1.5)


def test_success_curves_rejects_a_fractional_sparsity_level(monkeypatch):
    monkeypatch.setattr(bench, "run_trial", lambda *a: pytest.fail("a trial started"))
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.5$"):
        bench.success_curves(_SPEC, [2.5], ["omp"], 1)


def test_top_q_indices_rejects_a_fractional_q():
    with pytest.raises(ValueError, match=r"^q must be an integer, got 2\.7$"):
        linalg.top_q_indices(np.arange(5.0), 2.7)


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


def test_one_finiteness_scan_per_verify_projection_proximity(monkeypatch):
    # the exact, ridge and theta solves and the norm run on the checked (A, y)
    A, y = _problem(32, M, N, 2)
    scans = _count_calls(monkeypatch, "_require_finite")
    assert ENTRY_POINTS["verify_projection_proximity"][0](A, {"y": y}).penalized_size
    assert len(scans) == 1


@pytest.mark.parametrize("m,applicable", [(40, False), (80, True)])
def test_finiteness_scans_per_verify_recovery_bound(monkeypatch, m, applicable):
    # One scan of (A, noise, x) for the RIC; an instance
    # past the RIC gate adds the scan of the solver run it drives, on the
    # measurements y = A x + noise that it forms.
    A = np.random.default_rng(33).standard_normal((m, 6)) / np.sqrt(m)
    x = np.zeros(6)
    x[2] = 1.0
    scans = _count_calls(monkeypatch, "_require_finite")
    check = theory.verify_recovery_bound(A, x, np.zeros(m), 1, 0.9, 3)
    assert check.applicable == applicable
    assert len(scans) == 1 + applicable


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
