"""Greedy sparse-recovery solvers.

OMP, generalized OMP (N indices per iteration), the dynamic-selection
solvers that add every sufficiently large gradient entry at once (with a
hard-thresholded "enhanced" variant that keeps iterates k-sparse), and
the CoSaMP / subspace-pursuit baselines.

Each solver is a pure step function over an immutable
:class:`IterateState`: :func:`omp_step`, :func:`gomp_step`,
:func:`domp_step`, :func:`edomp_step`, :func:`cosamp_step` and
:func:`sp_step`.  One engine, :func:`iterate`, validates the inputs once,
applies the stopping tests before every step and yields each state;
:func:`run` drains it into a report with a per-iteration trace.  States
carry a snapshot of an incremental QR factorization, and the four
support-growing solvers re-project through one function, ``_grown``: it
appends the b added columns in one block step, in O(m t b), solves by a
product with the carried R^-1, in O(t^2), and reads the misfit from Q.
It falls back to a from-scratch minimum-norm solve, and the misfit to a
gather of A's columns, when the factorization yields no solution.
CoSaMP, SP and EDOMP past k solve from scratch, through the Gram matrix
with one correction step; where it is too large, by Householder QR on a
tall support and by the SVD on a wide one (``linalg._solve_submatrix_ls``).

A run can resume from a state of another (``iterate``'s ``start``).
DOMP and EDOMP take the same steps until EDOMP first thresholds
(``_dynamic_common``), and a dynamic solver's report names the last
state the two share, so a run of one resumes from the other's.

Termination reasons, tested in this order before each step: the stopping
rule's kind, "global-optimum" on a numerically zero gradient residual
(which covers a solver with nothing left to select, so no step is taken
on a zero gradient), "iteration-cap" once the budget,
``AlgorithmConfig.max_iterations``, is spent.  A step can end the run
too: "stalled" when a growing solver's step changes neither support nor
estimate, and "residual-increase" when a subspace-pursuit step would
not lower the measurement residual (the step is rejected).  CoSaMP has
no stall or residual test and runs to its budget.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg

__all__ = [
    "ALGORITHMS",
    "AlgorithmConfig",
    "AlgorithmReport",
    "DYNAMIC_SOLVERS",
    "IterateState",
    "StoppingRule",
    "TraceEntry",
    "ZeroResidualError",
    "cosamp_step",
    "domp_step",
    "edomp_step",
    "gomp_step",
    "initial_state",
    "iterate",
    "omp_step",
    "run",
    "select_dynamic_indices",
    "sp_step",
]

ALGORITHMS = ("omp", "gomp", "domp", "edomp", "cosamp", "sp")
# The solvers that read the selection threshold gamma.
DYNAMIC_SOLVERS = ("domp", "edomp")

# Gradient residuals below this fraction of ||A^T y||_inf are treated as
# zero so noise-floor indices are never selected.
ZERO_RESIDUAL_RTOL = 1e-13


class ZeroResidualError(RuntimeError):
    """The gradient residual is zero: the iterate is already a global
    minimizer, so the caller must stop instead of selecting indices."""


@dataclass(frozen=True)
class IterateState:
    """One solver iterate: estimate, support, gradient residual, counter."""

    x: np.ndarray
    support: np.ndarray
    r: np.ndarray
    p: int
    residual_norm: float
    selected: int = 0
    solver: "linalg.IncrementalQRSolver | None" = field(default=None, repr=False, compare=False)


def initial_state(A, y):
    """Zero iterate: x = 0, empty support, r = A^T y."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    return IterateState(
        x=np.zeros(A.shape[1]),
        support=np.empty(0, dtype=np.int64),
        r=A.T @ y,
        p=0,
        residual_norm=float(np.linalg.norm(y)),
        solver=linalg.IncrementalQRSolver(A, y),
    )


def select_dynamic_indices(r, k, gamma):
    """Indices of the top-k gradient entries within factor ``gamma`` of the max.

    The result always contains an index of maximum magnitude and has
    between 1 and k elements.  Raises :class:`ZeroResidualError` for a
    zero residual, which means the current iterate is already optimal.
    """
    gamma = linalg._real("gamma", gamma, "(0, 1]")
    top = _top_nonzero(r, k)
    # top holds an index of max|r|, so its largest magnitude is max|r|.
    magnitudes = np.abs(np.asarray(r, dtype=float)[top])
    return top[magnitudes >= gamma * magnitudes.max()]


def _next_state(A, y, previous, selected, support, x, solver=None, misfit=None):
    """The state after ``previous`` with estimate ``x`` and a fresh residual.

    ``misfit`` is y - A x as the factorization that gave x holds it
    (``IncrementalQRSolver.misfit``); without it the misfit is formed from
    the columns where x is nonzero.  Either way the gradient
    A^T (y - A x) is the one O(mn) product of a step.
    """
    if misfit is None:
        nz = np.flatnonzero(x)
        misfit = y - A[:, nz] @ x[nz]
    return IterateState(
        x=x,
        support=np.asarray(support, dtype=np.int64),
        r=A.T @ misfit,
        p=previous.p + 1,
        residual_norm=float(np.linalg.norm(misfit)),
        selected=selected,
        solver=solver,
    )


def _grown(A, y, state, added):
    """Grow ``state``'s support by the sorted indices ``added`` and re-project:
    (support, least-squares x on it, extended solver, misfit y - A x).

    The state's QR is extended by the indices that are new, in ascending
    order; a state without one (EDOMP after a support reset) starts a fresh
    factorization.  The misfit is the factorization's.  When the
    factorization cannot be trusted the solve falls back to a from-scratch
    minimum-norm least squares, and the misfit is None (left to
    ``_next_state``).
    """
    held = np.zeros(A.shape[1], dtype=bool)
    held[state.support] = True
    new = added[~held[added]]
    held[added] = True
    support = np.flatnonzero(held)
    if state.solver is None:
        solver = linalg.IncrementalQRSolver(A, y).extended(support)
    else:
        solver = state.solver.extended(new)
    x = solver.solve()
    if x is None:
        return support, linalg._restricted_ls(A, y, support), solver, None
    return support, x, solver, solver.misfit()


def omp_step(state, A, y):
    """Add the single largest-magnitude gradient index, then re-project."""
    added = _top_nonzero(state.r, 1)
    return _next_state(A, y, state, added.size, *_grown(A, y, state, added))


def gomp_step(state, A, y, n_select):
    """Add the ``n_select`` largest-magnitude gradient indices, then re-project."""
    added = _top_nonzero(state.r, n_select)
    return _next_state(A, y, state, added.size, *_grown(A, y, state, added))


def _top_nonzero(r, q):
    """The ``q`` largest-magnitude indices of ``r``; ZeroResidualError if r = 0."""
    r = np.asarray(r, dtype=float)
    if not r.size or np.abs(r).max() == 0.0:
        raise ZeroResidualError("gradient residual is zero")
    return linalg.top_q_indices(r, min(q, r.size))


def domp_step(state, A, y, k, gamma):
    """Add every dynamically selected index at once, then re-project."""
    theta = select_dynamic_indices(state.r, k, gamma)
    return _next_state(A, y, state, theta.size, *_grown(A, y, state, theta))


def edomp_step(state, A, y, k, gamma, reset_support=False):
    """Dynamic selection followed by hard thresholding to k nonzeros.

    While the accumulated support has at most k indices this coincides
    with :func:`domp_step`.  Once it grows past k, the tentative solution
    is thresholded to its k largest magnitudes and re-projected on that
    reduced support (rebuilt from scratch).  The accumulated support is
    carried forward as written unless ``reset_support`` is set, in which
    case it is replaced by the support of the thresholded iterate.
    """
    theta = select_dynamic_indices(state.r, k, gamma)
    support, x, solver, misfit = _grown(A, y, state, theta)
    if support.size > k:
        x, misfit = linalg._restricted_ls(A, y, linalg.top_q_indices(x, k)), None
        if reset_support:
            support, solver = np.flatnonzero(x), None
    return _next_state(A, y, state, theta.size, support, x, solver, misfit)


def _dynamic_common(state, k):
    """Whether ``state`` can be one that DOMP and EDOMP both reach.

    The two step alike (bit for bit) until EDOMP's first thresholded
    step, the first whose accumulated support exceeds k.  That state holds
    more than k indices or, under ``reset_support``, no factorization (see
    ``_grown``); so the states the two runs share are the ones before the
    first state for which this is false.  Later states of a reset run can
    pass the test again and are not shared.
    """
    return state.support.size <= k and state.solver is not None


def cosamp_step(state, A, y, k):
    """One CoSaMP iteration: merge the top-2k gradient indices into the
    current support, least squares on the union, keep the k largest
    entries of the solution without re-solving."""
    proxy = linalg.top_q_indices(state.r, min(2 * k, A.shape[1]))
    merged = np.union1d(proxy, np.flatnonzero(state.x)).astype(np.int64)
    x = linalg.hard_threshold(linalg._restricted_ls(A, y, merged), k)
    return _next_state(A, y, state, int(proxy.size), np.flatnonzero(x), x)


def sp_step(state, A, y, k):
    """One subspace-pursuit iteration: add the top-k gradient indices,
    least squares on the union, keep its top-k entries, re-project on them."""
    proxy = linalg.top_q_indices(state.r, k)
    merged = np.union1d(proxy, state.support).astype(np.int64)
    keep = linalg.top_q_indices(linalg._restricted_ls(A, y, merged), k)
    x = linalg._restricted_ls(A, y, keep)
    return _next_state(A, y, state, int(proxy.size), keep, x)


@dataclass(frozen=True)
class StoppingRule:
    """Exactly one threshold test: on the measurement or gradient residual,
    or on the relative error against the ground truth the run is given
    (see :func:`iterate`); the iteration budget is the config's.  ``epsilon``
    passes ``linalg._real`` on [0, inf] and is a Python float.  A rule
    holds no array, so rules compare equal and hash by value."""

    kind: str
    epsilon: float = 0.0

    KINDS = ("measurement-residual", "gradient-residual", "relative-error")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown stopping rule {self.kind!r}")
        object.__setattr__(self, "epsilon", linalg._real("epsilon", self.epsilon, "[0, inf]"))

    @classmethod
    def measurement_residual(cls, epsilon):
        return cls(kind="measurement-residual", epsilon=epsilon)

    @classmethod
    def gradient_residual(cls, epsilon):
        return cls(kind="gradient-residual", epsilon=epsilon)

    @classmethod
    def relative_error(cls, epsilon):
        return cls(kind="relative-error", epsilon=epsilon)

    def satisfied(self, state, truth=None):
        """Whether ``state`` passes; the relative-error kind compares with ``truth``."""
        if self.kind == "measurement-residual":
            return state.residual_norm <= self.epsilon
        if self.kind == "gradient-residual":
            return float(np.linalg.norm(state.r)) <= self.epsilon
        return _relative_error(state.x, truth) <= self.epsilon


def _relative_error(x, truth):
    """||x - truth|| / ||truth||, or the plain distance for a zero truth.

    The relative-error stopping rule and the success score of a report both
    compare this one quantity with their threshold, so at equal thresholds
    a state scores as a success exactly when the rule would stop on it.
    """
    scale = float(np.linalg.norm(truth))
    err = float(np.linalg.norm(x - truth))
    return err / scale if scale > 0 else err


@dataclass(frozen=True)
class AlgorithmConfig:
    """Which solver to run and with what parameters.

    ``gamma`` applies to the dynamic-selection solvers only (default
    0.9), ``n_select`` to gOMP only (default min(2, k-1) indices per
    iteration) and ``reset_support`` to EDOMP only; any of them set for
    another solver is rejected.
    ``max_iterations`` is the one iteration budget: by default k for the
    support-growing solvers and 500 for CoSaMP/SP.  k, ``n_select`` and
    ``max_iterations`` pass ``linalg._integer`` and are Python ints once
    built; a dynamic solver's gamma passes ``linalg._real`` on (0, 1].
    """

    algorithm: str
    k: int
    gamma: float | None = None
    n_select: int | None = None
    stopping: StoppingRule | None = None
    max_iterations: int | None = None
    reset_support: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {', '.join(ALGORITHMS)}")
        object.__setattr__(self, "k", linalg._integer("k", self.k, 1))
        if self.algorithm in DYNAMIC_SOLVERS:
            gamma = 0.9 if self.gamma is None else self.gamma
            object.__setattr__(self, "gamma", linalg._real("gamma", gamma, "(0, 1]"))
        elif self.gamma is not None:
            raise ValueError(f"gamma (selection threshold) applies to domp and edomp only, not {self.algorithm}")
        if self.n_select is not None and self.algorithm != "gomp":
            raise ValueError(f"n_select (indices per iteration) applies to gomp only, not {self.algorithm}")
        if self.reset_support and self.algorithm != "edomp":
            raise ValueError(f"reset_support applies to edomp only, not {self.algorithm}")
        if self.algorithm == "gomp":
            if self.k < 2:
                raise ValueError(f"gOMP needs k >= 2 to select 1 <= N < k indices, got k={self.k}")
            n_select = min(2, self.k - 1) if self.n_select is None else self.n_select
            object.__setattr__(self, "n_select", linalg._integer("n_select", n_select, 1, self.k - 1))
        if self.max_iterations is None:
            object.__setattr__(self, "max_iterations", 500 if self.algorithm in ("cosamp", "sp") else self.k)
        object.__setattr__(self, "max_iterations", linalg._integer("max_iterations", self.max_iterations, 0))


@dataclass(frozen=True)
class TraceEntry:
    p: int
    support_size: int
    selected: int
    residual_norm: float
    gradient_norm: float


@dataclass
class AlgorithmReport:
    """Outcome of one solver run, with the full per-iteration trace."""

    algorithm: str
    x: np.ndarray
    support: np.ndarray
    iterations: int
    termination: str
    trace: list
    wall_time: float
    residual_norm: float
    gradient_norm: float
    success: bool | None = None
    relative_error: float | None = None
    # The last state that a DOMP and an EDOMP run with the same parameters
    # both reach, and not the run's last state (None for the other solvers
    # and for a run that took no step): :func:`run` with the other dynamic
    # solver resumes from it (``start=``) and replays that solver's run.
    shared_state: IterateState | None = field(default=None, repr=False, compare=False)


def _trace_entry(state):
    return TraceEntry(
        p=state.p,
        support_size=int(state.support.size),
        selected=int(state.selected),
        residual_norm=state.residual_norm,
        gradient_norm=float(np.linalg.norm(state.r)),
    )


def _validated(A, y, config, truth):
    """The one input check of every solver: A, y and the ground truth
    (optional, except under a relative-error rule) by ``linalg._system``."""
    if not isinstance(config, AlgorithmConfig):
        raise ValueError("config must be an AlgorithmConfig")
    if truth is not None:
        A, y, truth = linalg._system(A, y, truth, names=("y", "truth"))
    elif config.stopping is not None and config.stopping.kind == "relative-error":
        raise ValueError("relative-error rule needs the ground truth")
    else:
        A, y = linalg._system(A, y)
    linalg._integer("k", config.k, 1, A.shape[1])
    return A, y, truth


def _stalled(previous, state):
    same = np.array_equal(state.support, previous.support) and np.array_equal(state.x, previous.x)
    return state, "stalled" if same else None


def _decreasing(previous, candidate):
    if previous.p > 0 and candidate.residual_norm >= previous.residual_norm:
        return None, "residual-increase"
    return candidate, None


def _step(config, A, y):
    """The configured solver's step: state -> (next state, reason).

    The next state is None when the step is rejected; a reason ends the
    run after the next state (if any) is yielded.
    """
    k, gamma = config.k, config.gamma
    if config.algorithm == "cosamp":
        return lambda s: (cosamp_step(s, A, y, k), None)
    if config.algorithm == "sp":
        return lambda s: _decreasing(s, sp_step(s, A, y, k))
    if config.algorithm == "omp":
        return lambda s: _stalled(s, omp_step(s, A, y))
    if config.algorithm == "gomp":
        return lambda s: _stalled(s, gomp_step(s, A, y, config.n_select))
    if config.algorithm == "domp":
        return lambda s: _stalled(s, domp_step(s, A, y, k, gamma))
    return lambda s: _stalled(s, edomp_step(s, A, y, k, gamma, config.reset_support))


def iterate(A, y, config, truth=None, start=None):
    """Run the configured solver on (A, y), yielding each state.

    The zero iterate comes first, then one state per accepted step.  The
    generator returns the termination reason (see the module docstring).
    ``truth`` is the ground truth that a relative-error rule compares with;
    that rule requires it.  Non-finite A, y or truth, mismatched shapes
    (truth must have length n) and k > n raise ValueError before the first
    state.

    ``start`` resumes a run: it comes first in place of the zero iterate,
    and the states after it and the termination are those of the run from
    the zero iterate, provided ``start`` is a state that run reaches and
    not its last.  Such a state is one of an earlier run of this solver on
    the same (A, y, truth) with the same parameters, or its
    ``AlgorithmReport.shared_state`` for the other dynamic solver.  States
    are immutable, and a QR snapshot that is extended a second time copies
    its buffer when a later snapshot in it is still referenced (see
    ``linalg.IncrementalQRSolver``), so a state the caller still holds is
    left as it was; once the earlier run's later states are dropped, the
    resumed run appends in place.
    """
    A, y, truth = _validated(A, y, config, truth)
    step = _step(config, A, y)
    state = initial_state(A, y) if start is None else start
    # The zero iterate's gradient A^T y sets the scale, also on a resumed run.
    zero_scale = np.abs(state.r if start is None else A.T @ y).max() if y.any() else 0.0
    yield state
    while True:
        if config.stopping is not None and config.stopping.satisfied(state, truth):
            return config.stopping.kind
        if np.abs(state.r).max() <= ZERO_RESIDUAL_RTOL * zero_scale:
            return "global-optimum"
        if state.p >= config.max_iterations:
            return "iteration-cap"
        following, reason = step(state)
        if following is not None:
            state = following
            yield state
        if reason is not None:
            return reason


def run(A, y, config, truth=None, success_threshold=1e-5, start=None):
    """Run the configured solver on (A, y) and report the full trace.

    Deterministic given its inputs.  ``truth`` goes to :func:`iterate`,
    which checks it and stops a relative-error rule on it; when it is
    given, the report carries the relative error and a success flag at
    ``success_threshold``, a real in [0, inf] like a stopping rule's
    epsilon.  Raises ValueError on invalid input (see :func:`iterate`) and
    warns when k is not below m.

    ``start`` goes to :func:`iterate`.  A resumed report is the one of the
    run from the zero iterate, except that its trace holds only the states
    after ``start`` and its ``wall_time`` covers only their steps;
    ``iterations`` still counts every step from the zero iterate.
    """
    success_threshold = linalg._real("success_threshold", success_threshold, "[0, inf]")
    started = time.perf_counter()
    states = iterate(A, y, config, truth, start=start)
    state = next(states)
    m = np.shape(y)[0]
    if config.k >= m:
        warnings.warn(
            f"sparsity k={config.k} is not below m={m}; restricted "
            "projections may become underdetermined",
            RuntimeWarning,
            stacklevel=2,
        )
    trace = []
    shared = None
    common = config.algorithm in DYNAMIC_SOLVERS and _dynamic_common(state, config.k)
    while True:
        previous = state
        try:
            state = next(states)
        except StopIteration as stop:
            reason = stop.value
            break
        if common:
            shared, common = previous, _dynamic_common(state, config.k)
        trace.append(_trace_entry(state))
    success = None
    rel = None
    if truth is not None:
        rel = _relative_error(state.x, truth)
        success = rel <= success_threshold
    return AlgorithmReport(
        algorithm=config.algorithm,
        x=state.x,
        support=state.support,
        iterations=state.p,
        termination=reason,
        trace=trace,
        wall_time=time.perf_counter() - started,
        residual_norm=state.residual_norm,
        gradient_norm=float(np.linalg.norm(state.r)),
        success=success,
        relative_error=rel,
        shared_state=shared,
    )
