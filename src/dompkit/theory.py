"""Recovery-theory constants and numerical verification oracles.

Closed-form restricted-isometry thresholds for the dynamic-selection
solvers, exact (exhaustive) restricted isometry constants at small
scale, the worst-fit constant theta, the full set of error-bound
constants, and randomized verification suites that check the proximity
bound of the ridge-penalized projection, the per-iteration
reconstruction error bounds, and the auxiliary inequalities those
bounds rest on.

Every suite is a per-trial function on one driver (``_run_suite``):
trial t draws ``_trial_rng(seed, t)`` and returns its slacks, a negative
slack counts as a violation and None as an inconclusive check, and the
driver builds the :class:`VerificationSummary`.

Everything here is exact or exhaustively enumerated; nothing is fitted.
Verification failures are reported as data, never raised.
"""

import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import algorithms, linalg

__all__ = [
    "BoundConstants",
    "EnumerationCapExceeded",
    "GOLDEN_ETA",
    "ProjectionProximityCheck",
    "RecoveryBoundCheck",
    "RicEstimate",
    "VerificationSummary",
    "auxiliary_inequality_suite",
    "bound_constants",
    "domp_ric_bound",
    "edomp_ric_bound",
    "exhaustive_theta",
    "highest_rip_order",
    "projection_proximity_suite",
    "recovery_bound_suite",
    "ric_exact",
    "ric_monotonicity_suite",
    "theta_constant",
    "theta_equivalence_suite",
    "verify_projection_proximity",
    "verify_recovery_bound",
]

GOLDEN_ETA = (math.sqrt(5.0) + 1.0) / 2.0

DEFAULT_ENUMERATION_CAP = 2_000_000
# ric_exact eigensolves every support of an enumeration of at most
# _RIC_ALL; a longer one is seeded by eigensolving _RIC_SEED supports of
# its first batch and certifies the rest in batches of _RIC_BATCH.  The
# maximum over all supports depends on none of them.
_RIC_ALL = 256
_RIC_SEED = 16
_RIC_BATCH = 4096


class EnumerationCapExceeded(RuntimeError):
    """Exhaustive support enumeration would exceed the configured cap."""

    def __init__(self, n, q, count, cap):
        self.n = n
        self.q = q
        self.count = count
        self.cap = cap
        super().__init__(
            f"exact RIC of order {q} on {n} columns needs {count} supports, "
            f"above the cap of {cap}; shrink n or the order, or raise the cap"
        )


@dataclass(frozen=True)
class RicEstimate:
    """Exact restricted isometry constant of one order.

    ``supports_examined`` counts every support of the enumeration,
    ``eigensolved`` those whose spectrum was computed.
    """

    order: int
    delta: float
    method: str
    supports_examined: int
    eigensolved: int


def ric_exact(A, q, cap=DEFAULT_ENUMERATION_CAP):
    """Exact RIC of order ``q`` by exhaustive support enumeration.

    delta_q is the largest deviation of a q-column Gram spectrum from 1,
    maximized over all C(n, q) supports; a support is eigensolved unless
    a Cholesky certificate proves it below the running maximum (see
    :func:`_ric`).  Raises ValueError unless A is a finite matrix, and
    FloatingPointError when A^T A overflows.
    """
    A = linalg._as_matrix(A)
    linalg._require_finite(A)
    return _ric(_gram(A), q, cap)


def _gram(A):
    """A^T A, quietly: an overflow leaves an entry that is not finite, and
    :func:`_ric` raises on it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return A.T @ A


def _ric(gram, q, cap):
    """:func:`ric_exact` from the Gram matrix G = A^T A, past the finiteness check.

    The supports are enumerated in lexicographic order, in batches of
    ``_RIC_BATCH``.  An enumeration of at most ``_RIC_ALL`` supports
    eigensolves every one.  A longer one first eigensolves the
    ``_RIC_SEED`` supports of its first batch with the largest
    ||G_S - I||_F^2, which gives the running maximum delta a value.  Every
    other support S is skipped when a Cholesky factorization completes on
    both (1 + delta - tau) I - G_S and G_S - (1 - delta + tau) I, and the
    supports that fail are eigensolved and raise delta.

    Why a skipped support cannot change delta.  A Cholesky factorization
    that completes on a symmetric q x q matrix M gives R^T R = M + E with
    |E| <= gamma_{q+1} |R^T| |R| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Thm 10.3), and ||R^T| |R||_2 <=
    ||R||_F^2 = trace(M + E) <= q ||M + E||_2, so ||E||_2 is about
    q (q+1) u ||M||_2 and M has no eigenvalue below -||E||_2.  Both
    shifted matrices have norm at most 2 (1 + ||G||_F), so a skipped
    support has every exact eigenvalue of G_S within
    delta - tau + q (q+1) eps (1 + ||G||_F) of 1.  eigvalsh, backward
    stable, computes each eigenvalue within p(q) u ||G_S||_2 of an exact
    one, p modestly growing (LAPACK Users' Guide, section 4.7): read as
    8q, 8 times the usual q, at most 8 (q+1) eps (1 + ||G||_F).  So
    tau = 2 (q+1) (q+8) eps (1 + ||G||_F), twice the sum of the two bounds
    (the factor covers the rounding of the shifts), puts the computed
    deviation of a skipped support at most delta: the support that
    attains the exhaustive maximum is always eigensolved, and delta keeps
    the bits of an eigensolve of every support, whichever supports seeded
    it, provided eigvalsh gives a matrix the same bits whatever else is in
    its batch.  A G that is not finite (A^T A overflowed) raises
    FloatingPointError; a finite G whose norm overflows makes tau inf,
    and then every support is eigensolved.
    """
    n = gram.shape[0]
    q = int(q)
    if q < 1 or q > n:
        raise ValueError(f"order must be in [1, {n}], got {q}")
    count = math.comb(n, q)
    if count > cap:
        raise EnumerationCapExceeded(n, q, count, cap)
    if not np.isfinite(gram).all():
        raise FloatingPointError("the Gram matrix A^T A overflows; rescale A")
    tau = _eig_margin(gram, q)
    delta = 0.0
    eigensolved = 0
    for start in range(0, count, _RIC_BATCH):
        idx = _supports(n, q, start, min(start + _RIC_BATCH, count))
        if count > _RIC_ALL:
            if not start:
                seed = _largest_off_identity(gram, idx, _RIC_SEED)
                delta = max(delta, _deviation(gram, idx[seed]))
                eigensolved += int(seed.sum())
                idx = idx[~seed]
            idx = idx[~_deviation_below(gram, idx, delta - tau)]
        if len(idx):
            delta = max(delta, _deviation(gram, idx))
            eigensolved += len(idx)
    return RicEstimate(
        order=q, delta=delta, method="exact-exhaustive", supports_examined=count,
        eigensolved=eigensolved,
    )


def _eig_margin(gram, q):
    """The rounding margin tau of :func:`_ric` at order q; inf when
    ||G||_F overflows."""
    with np.errstate(over="ignore"):
        return 2 * (q + 1) * (q + 8) * np.finfo(float).eps * (1.0 + float(np.linalg.norm(gram)))


def _supports(n, q, start, stop):
    """Supports ``start`` to ``stop - 1`` of the q-subsets of range(n) in
    lexicographic order, the order of ``itertools.combinations``, as the
    rows of a (stop - start) x q int64 array.

    Reflecting a support S to {n - 1 - s : s in S} maps lexicographic rank
    r to colexicographic rank C(n, q) - 1 - r, and a colex rank R unranks
    greedily: the largest element of the reflected support is the largest
    c with C(c, q) <= R, the next the largest c with C(c, q - 1) <= R -
    C(c, q), and so on, one ``searchsorted`` per element for the whole
    batch.
    """
    count = math.comb(n, q)
    rank = np.arange(count - 1 - start, count - 1 - stop, -1, dtype=np.int64)
    out = np.empty((len(rank), q), dtype=np.int64)
    for k in range(q, 0, -1):
        # C(c, k) for c < n, nondecreasing in c; capping at count, which
        # exceeds every rank, leaves each search as it was
        table = np.array([min(math.comb(c, k), count) for c in range(n)], dtype=np.int64)
        c = np.searchsorted(table, rank, side="right") - 1
        rank -= table[c]
        out[:, q - k] = n - 1 - c
    return out


def _largest_off_identity(gram, idx, size):
    """Mask of the ``size`` rows of the B x q index array ``idx`` (all of
    them when there are fewer) whose Gram block G_S has the largest
    ||G_S - I||_F^2, summed over the upper triangle one entry of every
    support at a time, so that no temporary is larger than B."""
    n, q = len(gram), idx.shape[1]
    score = np.zeros(len(idx))
    with np.errstate(over="ignore"):
        flat = ((gram - np.eye(n)) ** 2).ravel()
        for i in range(q):
            score += flat[idx[:, i] * (n + 1)]
            for j in range(i + 1, q):
                score += 2.0 * flat[idx[:, i] * n + idx[:, j]]
    rest = max(len(idx) - size, 0)
    mask = np.zeros(len(idx), dtype=bool)
    mask[np.argpartition(score, rest)[rest:]] = True
    return mask


def _deviation(gram, idx):
    """Largest |lambda - 1| over the spectra of the Gram blocks G_S, one per
    row S of the index array ``idx``, eigensolved in one batch."""
    eigs = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
    return max(float(eigs[:, -1].max() - 1.0), float(1.0 - eigs[:, 0].min()))


def _deviation_below(gram, idx, bound):
    """Which supports, the rows of the B x q index array ``idx``, pass a
    Cholesky factorization of both bound I + (I - G_S) and
    bound I - (I - G_S): a certificate, up to the factorizations' backward
    error, that every eigenvalue of G_S lies within ``bound`` of 1."""
    below = np.ones(len(idx), dtype=bool)
    for sign in (1.0, -1.0):
        below[below] = _cholesky_completes(gram, idx[below].T.copy(), sign, bound)
    return below


def _cholesky_completes(gram, sub, sign, bound):
    """Which of the matrices bound I + sign (I - G_S), one per column S of
    the q x B index array ``sub``, an upper Cholesky factorization
    completes on with positive pivots.

    The stack is batch last, q x q x B, and only its upper triangle is
    formed, row by row from the flat G; each step updates it in place.
    The batch members never mix, so a failed one only fills its own slice
    with NaN or inf.
    """
    q, batch = sub.shape
    M = np.empty((q, q, batch))
    flat = gram.ravel()
    for i in range(q):
        np.take(flat, sub[i] * gram.shape[1] + sub[i:], out=M[i, i:])
        M[i, i:] *= -sign
        M[i, i] += sign + bound
    completes = np.ones(batch, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(q):
            completes &= M[j, j] > 0
            M[j, j + 1:] /= np.sqrt(M[j, j])
            for i in range(j + 1, q):
                M[i, i:] -= M[j, i] * M[j, i:]
    return completes


def highest_rip_order(A, cap=DEFAULT_ENUMERATION_CAP):
    """Largest order t with delta_t < 1.

    The orders are swept bottom-up as by :func:`ric_exact`; delta_t never
    decreases in t (Cauchy interlacing), so the first failing order is
    final.  Returns 0 when even delta_1 >= 1.  Past order 1, a tall or
    square A (n <= m) first gets one eigensolve of its full n x n Gram
    matrix: when that puts delta_n below 1 - tau, with tau the margin of
    :func:`_ric` at order n, every order passes (interlacing) and n is
    returned without enumerating supports, whatever ``cap``.  A wide A
    has delta_n = 1 exactly and is swept.  Raises ValueError like ric_exact.
    """
    A = linalg._as_matrix(A)
    linalg._require_finite(A)
    m, n = A.shape
    gram = _gram(A)
    if n and _ric(gram, 1, cap).delta >= 1.0:
        return 0
    if 1 < n <= m:
        eigs = np.linalg.eigvalsh(gram)
        if max(float(eigs[-1]) - 1.0, 1.0 - float(eigs[0])) < 1.0 - _eig_margin(gram, n):
            return n
    for t in range(2, n + 1):
        if _ric(gram, t, cap).delta >= 1.0:
            return t - 1
    return n


def theta_constant(A, y):
    """Worst best-fit residual over all nonempty column supports.

    Enlarging a support never increases the projection residual, so the
    maximum is attained on a singleton; only the n one-column projections
    are evaluated.  Raises ValueError on an invalid (A, y).
    """
    return _theta(*linalg._system(A, y))


def _theta(A, y):
    """:func:`theta_constant` of a checked (A, y)."""
    yy = float(y @ y)
    col_sq = np.einsum("ij,ij->j", A, A)
    corr = A.T @ y
    best = np.full(A.shape[1], yy)
    nz = col_sq > 0
    best[nz] = yy - corr[nz] ** 2 / col_sq[nz]
    return float(np.sqrt(max(float(best.max()), 0.0)))


def exhaustive_theta(A, y):
    """Brute-force oracle for :func:`theta_constant`: max over every
    nonempty subset of the minimum-norm projection residual."""
    A, y = linalg._system(A, y)
    n = A.shape[1]
    worst = 0.0
    for size in range(1, n + 1):
        for sup in itertools.combinations(range(n), size):
            coef = np.linalg.lstsq(A[:, list(sup)], y, rcond=None)[0]
            worst = max(worst, float(np.linalg.norm(y - A[:, list(sup)] @ coef)))
    return worst


def _selection_width(k, gamma):
    algorithms._check_gamma(gamma)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return 1.0 + math.sqrt(1.0 + k * gamma * gamma)


def domp_ric_bound(k, gamma):
    """RIC threshold below which the dynamic-selection contraction factor
    stays below one: 1 / sqrt(1 + (1 + sqrt(1 + k gamma^2))^2)."""
    phi = _selection_width(k, gamma)
    return 1.0 / math.sqrt(1.0 + phi * phi)


def edomp_ric_bound(k, gamma):
    """RIC threshold for the thresholded variant; strictly below
    :func:`domp_ric_bound` since hard thresholding inflates the
    contraction factor by the golden-ratio constant."""
    phi = _selection_width(k, gamma)
    scaled = GOLDEN_ETA * phi
    return 2.0 / (math.sqrt(4.0 + scaled * scaled) + scaled)


def _proximity_constant(norm, sigma):
    """Ridge proximity constant sqrt(2 ||A|| / sqrt(sigma) + ||A||^2 / sigma)
    + ||A|| / sqrt(sigma), for ``norm`` = ||A||_2."""
    root_sigma = math.sqrt(sigma)
    return math.sqrt(2.0 * norm / root_sigma + norm * norm / sigma) + norm / root_sigma


def _geometric_sum(ratio, k):
    # sum_{i=0}^{k-1} ratio^i, with the ratio -> 1 limit handled exactly
    if ratio == 1.0:
        return float(k)
    return (ratio**k - 1.0) / (ratio - 1.0)


@dataclass(frozen=True)
class BoundConstants:
    """Every constant appearing in the per-iteration error bounds,
    evaluated at one (delta, k, gamma, sigma, ||A||_2, theta) tuple."""

    delta: float
    k: int
    gamma: float
    sigma: float
    matrix_norm: float
    theta: float
    phi: float
    beta: float
    varrho: float
    c1: float
    c2: float
    tau: float
    eta: float
    zeta: float
    beta_star: float
    tau_star: float
    proximity_constant: float
    epsilon: float
    beta_lt_one: bool
    beta_star_lt_one: bool


def bound_constants(delta, k, gamma, sigma, matrix_norm, theta):
    """Evaluate the error-bound constants at the given inputs.

    ``delta`` is (an upper bound on) the RIC of order ck.  The ridge
    proximity constant and the sigma-dependent slack term are reported
    alongside; they vanish as sigma grows and are excluded from the
    reconstruction-bound inequality itself.
    """
    rates = _rate_constants(delta, k, gamma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    norm = float(matrix_norm)
    proximity_constant = _proximity_constant(norm, sigma)
    return BoundConstants(
        **rates, sigma=float(sigma), matrix_norm=norm, theta=float(theta),
        proximity_constant=proximity_constant,
        epsilon=float(theta) * proximity_constant / math.sqrt(1.0 - rates["delta"]),
    )


def _rate_constants(delta, k, gamma):
    """The :class:`BoundConstants` fields that depend on (delta, k, gamma)
    alone, as a dict."""
    delta = float(delta)
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    phi = _selection_width(k, gamma)
    one_minus_sq = math.sqrt(1.0 - delta * delta)
    beta = phi * delta / one_minus_sq
    varrho = math.sqrt((1.0 + delta) / (1.0 - delta))
    c1 = 2.0 / math.sqrt(1.0 - delta)
    c2 = phi * math.sqrt(1.0 + delta) / one_minus_sq + math.sqrt(1.0 + delta) / (1.0 - delta)
    geo = _geometric_sum(varrho, k)
    tau = c1 * geo + (c2 / (1.0 - beta) if beta < 1.0 else math.inf)
    inflate = GOLDEN_ETA / one_minus_sq
    beta_star = inflate * beta
    zeta = math.sqrt(1.0 + delta) / (1.0 - delta)
    c2_star = inflate * c2
    tau_star = inflate * c1 * geo + (
        (c2_star + zeta) / (1.0 - beta_star) if beta_star < 1.0 else math.inf
    )
    return dict(
        delta=delta, k=int(k), gamma=float(gamma), phi=phi, beta=beta, varrho=varrho,
        c1=c1, c2=c2, tau=tau, eta=GOLDEN_ETA, zeta=zeta, beta_star=beta_star,
        tau_star=tau_star, beta_lt_one=beta < 1.0, beta_star_lt_one=beta_star < 1.0,
    )


@dataclass(frozen=True)
class ProjectionProximityCheck:
    """One instance of the ridge-projection proximity verification."""

    passed: bool
    lhs: float
    rhs: float
    slack: float
    theta: float
    penalized_size: int
    penalized_norm: float
    penalized_bound: float
    projection_residual: float


def verify_projection_proximity(A, y, support, selected, k, sigma, true_support=()):
    """Check that the ridge-penalized projection stays near the exact one.

    Reconstructs the least-squares iterate on ``support``, grows it by
    ``selected``, builds the penalized index set as the remaining top-k
    gradient indices outside the grown support and the true support,
    solves both the exact and the ridge-penalized projection, and
    compares ||A (x_ridge - x_exact)||_2 against its closed-form bound.
    The two side bounds (ridge entries squeezed below theta / sqrt(sigma),
    projection residual below theta) are checked as well.
    """
    A, y = linalg._system(A, y)
    n = A.shape[1]
    _check_sparsity(k, n)
    support = linalg._as_support(support, n)
    selected = linalg._as_support(selected, n, name="selected")
    x_current = linalg._restricted_ls(A, y, support)
    r = A.T @ (y - A @ x_current)
    grown = np.union1d(support, selected).astype(np.int64)
    top = linalg.top_q_indices(r, int(k))
    excluded = np.union1d(grown, linalg._as_support(true_support, n, name="true_support"))
    penalized = np.setdiff1d(top, excluded)
    enlarged = np.union1d(grown, penalized).astype(np.int64)

    x_exact = linalg._restricted_ls(A, y, grown)
    x_ridge = linalg._penalized_ls(A, y, enlarged, penalized, sigma)

    theta = _theta(A, y)
    proximity_constant = _proximity_constant(linalg._spectral_norm(A), sigma)

    lhs = float(np.linalg.norm(A @ (x_ridge - x_exact)))
    rhs = proximity_constant * theta
    penalized_norm = float(np.linalg.norm(x_ridge[penalized])) if penalized.size else 0.0
    penalized_bound = theta / math.sqrt(sigma)
    projection_residual = float(np.linalg.norm(y - A @ x_exact))

    passed = (
        rhs - lhs >= 0.0
        and penalized_bound - penalized_norm >= 0.0
        and theta - projection_residual >= 0.0
    )
    return ProjectionProximityCheck(
        passed=passed,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        theta=theta,
        penalized_size=int(penalized.size),
        penalized_norm=penalized_norm,
        penalized_bound=penalized_bound,
        projection_residual=projection_residual,
    )


@dataclass(frozen=True)
class RecoveryBoundCheck:
    """Per-iteration margins of the reconstruction error bound on one run."""

    algorithm: str
    applicable: bool
    delta: float
    delta_limit: float
    eligible_iterations: int
    margins: tuple
    passed: bool | None
    note: str = ""


def verify_recovery_bound(A, x, noise, k, gamma, c, algorithm="domp"):
    """Run the solver and test the per-iteration error bound against it.

    The exact RIC of order c*k gates applicability: instances above the
    closed-form threshold are reported inconclusive, never failed.  While
    the accumulated support stays within (c-2)k the iterate's distance to
    the best k-term approximation must lie below the geometric bound plus
    the noise term.  An invalid A, x or noise, or an input that
    :func:`_bound_limit` rejects, raises ValueError before the RIC is
    enumerated.
    """
    A, noise, x = linalg._system(A, noise, x, names=("noise", "x"))
    limit = _bound_limit(algorithm, k, gamma, c, A.shape[1])
    ric = _ric(_gram(A), c * k, DEFAULT_ENUMERATION_CAP)
    if ric.delta >= limit or ric.delta == 0.0:
        gated = ric.delta >= limit
        return RecoveryBoundCheck(
            algorithm=algorithm,
            applicable=False,
            delta=ric.delta,
            delta_limit=limit,
            eligible_iterations=0,
            margins=(),
            passed=None,
            note="RIC gate not met; bound not applicable" if gated
            else "degenerate zero RIC; contraction factor collapses",
        )

    y = A @ x + noise
    x_best = linalg.hard_threshold(x, k)
    nu_prime = float(np.linalg.norm(y - A @ x_best))
    rates = _rate_constants(ric.delta, k, gamma)
    decay = rates["beta"] if algorithm == "domp" else rates["beta_star"]
    tail = rates["tau"] if algorithm == "domp" else rates["tau_star"]
    start_gap = float(np.linalg.norm(x_best))
    support_cap = (c - 2) * k

    margins = []
    config = algorithms.AlgorithmConfig(algorithm, k, gamma=gamma, max_iterations=c * k + 5)
    states = algorithms.iterate(A, y, config)
    next(states)  # the zero iterate
    for state in states:
        if state.support.size > support_cap:
            break
        with np.errstate(over="ignore"):
            geometric = (
                np.float64(decay) ** (state.p - 1)
                * (np.float64(rates["varrho"]) / np.float64(decay)) ** k
                * start_gap
            )
        rhs = float(geometric + tail * nu_prime)
        lhs = float(np.linalg.norm(state.x - x_best))
        margins.append((state.p, lhs, rhs, rhs - lhs))
    passed = all(m[3] >= 0.0 for m in margins)
    return RecoveryBoundCheck(
        algorithm=algorithm,
        applicable=True,
        delta=ric.delta,
        delta_limit=limit,
        eligible_iterations=len(margins),
        margins=tuple(margins),
        passed=passed,
    )


@dataclass
class VerificationSummary:
    """Aggregated outcome of one verification suite, JSON-serializable."""

    suite: str
    instances: int
    violations: int
    inconclusive: int
    min_slack: float | None
    parameters: dict
    seed: int

    def to_json(self, indent=None):
        payload = asdict(self)
        if payload["min_slack"] is not None:
            payload["min_slack"] = float(payload["min_slack"])
        return json.dumps(payload, indent=indent, sort_keys=True)


def _trial_rng(seed, trial):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))


def _check_sparsity(k, n):
    if not 1 <= k <= n:
        raise ValueError(f"sparsity k={k} must lie in [1, n] for n={n} columns")


def _check_rows(m):
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")


def _bound_limit(algorithm, k, gamma, c, n):
    """The RIC gate of the recovery bound on n columns, once its inputs pass:
    a dynamic solver, c > 2, k in [1, n], c*k <= n and gamma in (0, 1]."""
    if algorithm not in algorithms.DYNAMIC_SOLVERS:
        raise ValueError("recovery bound applies to the dynamic-selection solvers")
    if c <= 2:
        raise ValueError(f"c must exceed 2, got {c}")
    _check_sparsity(k, n)
    if c * k > n:
        raise ValueError(f"the bound's RIC order c*k = {c * k} (c={c}, k={k}) exceeds n={n}")
    return domp_ric_bound(k, gamma) if algorithm == "domp" else edomp_ric_bound(k, gamma)


def _run_suite(suite, trials, seed, trial_slacks, parameters, families=()):
    """Run every trial of a verification suite and summarize its slacks.

    Trial t draws its own stream ``_trial_rng(seed, t)`` and
    ``trial_slacks(rng, t)`` returns that trial's slacks: a negative slack
    is a violation, None an inconclusive check.  When ``families`` names
    the slacks of a trial by position, ``parameters`` also gets the
    violations counted per family.
    """
    if trials < 1:
        raise ValueError(f"a suite needs at least one trial, got {trials}")
    failed = Counter()  # violations per slack position
    inconclusive = 0
    min_slack = None
    for trial in range(int(trials)):
        for position, slack in enumerate(trial_slacks(_trial_rng(seed, trial), trial)):
            if slack is None:
                inconclusive += 1
                continue
            if slack < 0:
                failed[position] += 1
            min_slack = slack if min_slack is None else min(min_slack, slack)
    if families:
        per_family = {name: failed[i] for i, name in enumerate(families)}
        parameters = {**parameters, "per_family_violations": per_family}
    return VerificationSummary(
        suite=suite,
        instances=int(trials),
        violations=sum(failed.values()),
        inconclusive=inconclusive,
        min_slack=min_slack,
        parameters=parameters,
        seed=int(seed),
    )


def projection_proximity_suite(
    trials,
    seed,
    m=15,
    n=30,
    k=4,
    gamma=0.9,
):
    """Randomized proximity verification across partially-run recoveries.

    One slack per trial: the smallest of the proximity bound's slack and
    the two side bounds' slacks, at the penalty sigma = 1e8 ||A||_2^2.
    """
    _check_rows(m)
    _check_sparsity(k, n)
    algorithms._check_gamma(gamma)

    def trial_slacks(rng, trial):
        A = rng.standard_normal((m, n))
        true_support = rng.choice(n, size=k, replace=False)
        x = np.zeros(n)
        x[true_support] = rng.standard_normal(k)
        y = A @ x
        steps = 1 + trial % max(k - 1, 1)
        config = algorithms.AlgorithmConfig("domp", k, gamma=gamma, max_iterations=steps)
        states = algorithms.iterate(A, y, config)
        try:
            while True:
                state = next(states)
        except StopIteration as stop:  # at a global optimum, restart from zero
            if stop.value == "global-optimum":
                state = algorithms.initial_state(A, y)
        selected = algorithms.select_dynamic_indices(state.r, k, gamma)
        sigma = 1e8 * linalg.spectral_norm(A) ** 2
        check = verify_projection_proximity(
            A, y, state.support, selected, k, sigma, true_support=true_support
        )
        return [min(
            check.slack,
            check.penalized_bound - check.penalized_norm,
            check.theta - check.projection_residual,
        )]

    return _run_suite(
        "proximity", trials, seed, trial_slacks,
        {"m": m, "n": n, "k": k, "gamma": gamma, "sigma_scale": 1e8},
    )


def recovery_bound_suite(
    trials,
    seed,
    m=800,
    n=12,
    k=1,
    c=3,
    gamma=0.9,
    algorithm="domp",
    noise_amplitude=0.0,
):
    """Randomized reconstruction-bound verification on a gated ensemble.

    Matrices are Gaussian scaled by 1/sqrt(m); instances whose exact RIC
    misses the closed-form gate count as inconclusive.  The default
    ensemble (800 x 12, k=1) meets the gate on almost every trial.  An applicable
    instance gives one slack, its smallest per-iteration margin, or none
    when no iteration is eligible.
    """
    _check_rows(m)
    _bound_limit(algorithm, k, gamma, c, n)
    if not (math.isfinite(noise_amplitude) and noise_amplitude >= 0):
        raise ValueError(f"noise amplitude must be finite and nonnegative, got {noise_amplitude}")

    def trial_slacks(rng, trial):
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        support = rng.choice(n, size=k, replace=False)
        x = np.zeros(n)
        x[support] = rng.standard_normal(k)
        noise = noise_amplitude * rng.standard_normal(m)
        check = verify_recovery_bound(A, x, noise, k, gamma, c, algorithm=algorithm)
        if not check.applicable:
            return [None]
        return [min(mg[3] for mg in check.margins)] if check.margins else []

    return _run_suite(
        f"bound-{algorithm}", trials, seed, trial_slacks,
        {"m": m, "n": n, "k": k, "c": c, "gamma": gamma, "noise_amplitude": noise_amplitude},
    )


def _threshold_inequality_trial(rng):
    """One check of the scalar inequality behind the error-recursion merge.

    Premise: t <= a1 * sqrt(t^2 + a2^2) + a3 with 0 <= a1 < 1 and
    a2, a3 >= 0.  Sampled by solving the fixed point t* = f(t*) in closed
    form and drawing t uniformly from [0, t*], so every trial exercises a
    premise-satisfying tuple.  Returns the worst slack of the two
    conclusions.
    """
    a1 = float(rng.uniform(0.0, 0.999))
    a2 = float(rng.uniform(0.0, 5.0))
    a3 = float(rng.uniform(0.0, 5.0))
    disc = a1 * a1 * a3 * a3 + (1.0 - a1 * a1) * (a2 * a2 + a3 * a3)
    s_star = (a1 * a3 + math.sqrt(disc)) / (1.0 - a1 * a1)
    t_star = math.sqrt(max(s_star * s_star - a2 * a2, 0.0))
    t = float(rng.uniform(0.0, 1.0)) * t_star
    if t > a1 * math.sqrt(t * t + a2 * a2) + a3 + 1e-12:
        raise RuntimeError(f"sampled tuple misses the premise: t={t}, a=({a1}, {a2}, {a3})")
    root = math.sqrt(1.0 - a1 * a1)
    bound_t = a1 * a2 / root + a3 / (1.0 - a1)
    bound_s = a2 / root + a3 / (1.0 - a1)
    return min(bound_t - t, bound_s - math.sqrt(t * t + a2 * a2))


def _thresholding_distance_trial(rng):
    """One check of the hard-thresholding distance inequality: for any z
    and any k-sparse w, ||w - H_k(z)|| is within the golden-ratio factor
    of ||(w - z)|| restricted to the union of both supports."""
    n = int(rng.integers(6, 20))
    k = int(rng.integers(1, max(n // 2, 2)))
    z = rng.standard_normal(n)
    w = np.zeros(n)
    w_support = rng.choice(n, size=k, replace=False)
    w[w_support] = rng.standard_normal(k)
    hk = linalg.hard_threshold(z, k)
    union = np.union1d(np.flatnonzero(w), np.flatnonzero(hk)).astype(np.int64)
    lhs = float(np.linalg.norm(w - hk))
    rhs = GOLDEN_ETA * float(np.linalg.norm((w - z)[union]))
    return rhs - lhs


def _projection_error_trial(rng):
    """One check of the support-projection error bound with exact RICs.

    Resamples the matrix (deterministically) until delta_2k < 1 so the
    bound is defined.
    """
    m, n, k = 40, 10, 2
    for _ in range(64):
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        delta_2k = ric_exact(A, 2 * k).delta
        if delta_2k < 1.0:
            break
    else:
        return None
    delta_k = ric_exact(A, k).delta
    support = rng.choice(n, size=k, replace=False)
    x_best = np.zeros(n)
    x_best[support] = rng.standard_normal(k)
    nu = 0.05 * rng.standard_normal(m)
    y = A @ x_best + nu
    v = np.zeros(n)
    v_support = rng.choice(n, size=k, replace=False)
    v[v_support] = rng.standard_normal(k)
    z = linalg.restricted_least_squares(A, y, v_support)
    lhs = float(np.linalg.norm(z - x_best))
    rhs = float(np.linalg.norm(x_best - v)) / math.sqrt(1.0 - delta_2k * delta_2k) + math.sqrt(
        1.0 + delta_k
    ) / (1.0 - delta_2k) * float(np.linalg.norm(nu))
    return rhs - lhs


_AUX_FAMILIES = {
    "threshold-inequality": _threshold_inequality_trial,
    "thresholding-distance": _thresholding_distance_trial,
    "projection-error": _projection_error_trial,
}


def auxiliary_inequality_suite(trials, seed):
    """Randomized checks of the three inequalities the error bounds rest
    on: the scalar recursion-merge inequality, the hard-thresholding
    distance inequality, and the support-projection error bound.

    One slack per family and trial; a projection-error check whose matrix
    never meets delta_2k < 1 is inconclusive.
    """

    def trial_slacks(rng, trial):
        return [check(rng) for check in _AUX_FAMILIES.values()]

    return _run_suite("aux-inequalities", trials, seed, trial_slacks, {}, families=_AUX_FAMILIES)


def theta_equivalence_suite(trials, seed):
    """Singleton-maximum theta against the exhaustive all-subsets oracle,
    on matrices of 3 to 8 rows and 3 to 10 columns.

    One slack per trial: the tolerance 1e-10 minus the gap between the two.
    """

    def trial_slacks(rng, trial):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(3, 9))
        A = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        return [1e-10 - abs(theta_constant(A, y) - exhaustive_theta(A, y))]

    return _run_suite("theta", trials, seed, trial_slacks, {"max_n": 10, "tolerance": 1e-10})


def ric_monotonicity_suite(trials, seed):
    """delta_q must be nondecreasing in q, for q = 1 to 4, on random
    Gaussian/sqrt(m) matrices of 4 to 7 rows and 5 to 8 columns.

    One slack per adjacent pair of orders: delta_{q+1} - delta_q plus the
    tolerance 1e-10.
    """

    def trial_slacks(rng, trial):
        m = int(rng.integers(4, 8))
        n = int(rng.integers(5, 9))
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        deltas = [ric_exact(A, q).delta for q in range(1, 5)]
        return [high - low + 1e-10 for low, high in zip(deltas, deltas[1:])]

    return _run_suite(
        "ric-monotone", trials, seed, trial_slacks, {"max_order": 4, "tolerance": 1e-10}
    )
