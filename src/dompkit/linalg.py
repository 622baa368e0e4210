"""Dense linear-algebra kernel for greedy sparse recovery.

Selection operators (largest-magnitude index sets, hard thresholding),
least squares restricted to a column support, the ridge-on-a-subset
variant used by the verification suites, the spectral norm, and the
plain-text matrix/vector file format shared with the CLI (numpy's C
reader parses matrix rows; one streaming line reader serves vector files
and every file the C reader does not accept).

Arrays are checked once, where they enter: every public entry point
that takes (A, y) calls the one rule ``_system``, one that takes A alone
``_as_matrix`` and ``_require_finite``; checked code then calls the
unchecked cores ``_restricted_ls``, ``_penalized_ls`` and
``_spectral_norm``.  Every integer input of the library (a sparsity, an
order, a size, a count, a seed) is checked by the one rule ``_integer``,
every real one by ``_real`` and every index set by ``_as_support``.

Indices are 0-based throughout the Python API.  The CLI and its JSON
output translate to 1-based indices at the boundary.
"""

import math
import numbers
import weakref

import numpy as np

__all__ = [
    "FileFormatError",
    "IncrementalQRSolver",
    "hard_threshold",
    "load_matrix",
    "load_vector",
    "penalized_restricted_ls",
    "restricted_least_squares",
    "save_matrix",
    "save_vector",
    "spectral_norm",
    "top_q_indices",
]

# A QR factor whose smallest diagonal magnitude is at most this fraction of
# its largest (a reciprocal condition estimate) is treated as rank
# deficient: the QR solve is abandoned for an SVD minimum-norm solve.
_COND_RECIP_LIMIT = 1e-12

# The Gram solve of a from-scratch least-squares problem is accepted when
# its one correction step is at most this fraction of the solution.  The
# correction measures the first solve's error, which grows with kappa^2,
# so the limit keeps only supports on which the corrected result is about
# as accurate as the QR solve: with 1e-12, tall supports over a 288-draw
# grid of kappa from 1e2 to 1e10 came within 3.1x of the QR solution's
# error, against up to 41x at kappa = 1e3 to 1e4 with sqrt(eps).
_GRAM_CORRECTION_LIMIT = 1e-12


def _as_vector(v, name="v"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _as_matrix(A, name="A"):
    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return arr


def _as_support(indices, n, name="support"):
    """The one check of an index set, possibly empty; returns it sorted, unique and int64."""
    items = list(indices)
    arr = np.asarray(items)  # a bool among integers converts to an integer
    if (arr.ndim != 1 or any(isinstance(i, (bool, np.bool_)) for i in items)
            or arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= n)):
        raise ValueError(f"{name} must be a one-dimensional collection of integers in [0, {n})")
    return np.unique(arr.astype(np.int64))


def _require_finite(*arrays):
    """Raise ValueError unless every entry of the float ``arrays`` is finite.

    A NaN or an infinity makes the sum NaN or infinite, so a finite sum
    clears an array without an elementwise temporary; only a sum that is
    not finite, which finite entries can also reach by overflow, is
    followed by the elementwise test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for arr in arrays:
            if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
                raise ValueError("input contains NaN or Inf")


def _integer(name, value, low, high=None):
    """The one check of an integer input: ``value`` is a Python or numpy
    integer, not a bool nor any float (3.0 too), with ``low <= value`` and,
    when ``high`` is given, ``value <= high``.  Returns it as a Python int."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


_INTERVALS = {
    "(0, 1]": lambda v: 0.0 < v <= 1.0,
    "[0, 1)": lambda v: 0.0 <= v < 1.0,
    "[0, inf)": lambda v: 0.0 <= v < math.inf,
    "(0, inf)": lambda v: 0.0 < v < math.inf,
    "[0, inf]": lambda v: v >= 0.0,
}


def _real(name, value, interval):
    """The one check of a real input: a Python or numpy real (not a bool) in
    ``interval``, a key of ``_INTERVALS`` (NaN lies in none); returns a float."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not _INTERVALS[interval](value):
        raise ValueError(f"{name} must lie in {interval}, got {value}")
    return value


def _system(A, y, x=None, names=("y", "x")):
    """The one check of a linear system: A two-dimensional (m x n), y of
    length m and x, when given, of length n, all finite.  Returns the float
    arrays (A, y), or (A, y, x); ``names`` names y and x in the messages."""
    A = _as_matrix(A)
    m, n = A.shape
    vectors = [(y, names[0], m)] if x is None else [(y, names[0], m), (x, names[1], n)]
    checked = [A]
    for v, name, size in vectors:
        v = _as_vector(v, name)
        if v.size != size:
            raise ValueError(f"dimension mismatch: A is {m}x{n}, {name} has length {v.size}")
        checked.append(v)
    _require_finite(*checked)
    return tuple(checked)


def top_q_indices(v, q):
    """Indices of the ``q`` largest magnitudes of ``v``, sorted ascending.

    Magnitude ties at the selection boundary are broken toward the
    smaller index, and NaN ranks below every number, so the result is the
    first ``q`` of a stable sort by decreasing magnitude.  Found in O(n):
    ``np.partition`` gives the q-th largest magnitude, and every index
    strictly above it is taken, then the smallest-index ties.
    """
    v = _as_vector(v)
    q = _integer("q", q, 1, v.size)
    magnitudes = np.abs(v)
    np.fmax(magnitudes, -1.0, out=magnitudes)  # NaN becomes -1, below every |v|
    kth = np.partition(magnitudes, v.size - q)[v.size - q]
    picked = magnitudes > kth
    ties = (magnitudes == kth).nonzero()[0]
    picked[ties[:q - np.count_nonzero(picked)]] = True
    return picked.nonzero()[0]


def hard_threshold(v, k):
    """Keep the ``k`` largest magnitudes of ``v``, zero the rest.

    ``k = 0`` returns the zero vector, ``k = len(v)`` returns a copy.
    """
    v = _as_vector(v)
    k = _integer("k", k, 0, v.size)
    if k == 0:
        return np.zeros_like(v)
    out = np.zeros_like(v)
    keep = top_q_indices(v, k)
    out[keep] = v[keep]
    return out


def _well_conditioned(diag):
    """The ``_COND_RECIP_LIMIT`` test on the diagonal of a triangular factor."""
    diag = np.abs(diag)
    return diag.size and diag.min() > _COND_RECIP_LIMIT * diag.max()


def _solve_submatrix_ls(A, y, support):
    """Minimum-norm least-squares coefficients on the columns ``support`` of A.

    The columns are gathered once into As, and the solve goes through the
    Gram matrix first.  A tall As (no more columns than rows) solves the
    normal equations ``G x = As^T y`` with ``G = As^T As``; a wide one
    takes the minimum-norm solution ``x = As^T G^-1 y`` with
    ``G = As As^T``.  One correction step from the residual
    ``r = y - As x`` follows, ``dx = G^-1 As^T r`` (or ``As^T G^-1 r``),
    and ``x + dx`` is returned: the corrected seminormal equations
    (Björck, *Numerical Methods for Least Squares Problems*, SIAM 1996).
    See ``_gram_ls`` for when that result is accepted.

    Otherwise a tall As falls back to Householder QR, never forming Q: the
    R factor of ``[As | y]`` holds As's R in its leading s x s block and
    Q^T y above its last diagonal entry, so the coefficients solve
    ``R[:s, :s] x = R[:s, s]``.  A wide As, or a tall one whose R fails
    the ``_COND_RECIP_LIMIT`` test (rank deficiency or near-collinearity),
    is solved by an SVD (``lstsq``).
    """
    m, s = A.shape[0], support.size
    As = A[:, support]
    x = _gram_ls(As, y)
    if x is not None:
        return x
    if s <= m:
        R = np.linalg.qr(np.column_stack([As, y]), mode="r")
        if _well_conditioned(np.diag(R)[:s]):
            return np.linalg.solve(R[:s, :s], R[:s, s])
    return np.linalg.lstsq(As, y, rcond=None)[0]


def _gram_ls(As, y):
    """The corrected Gram solve of ``_solve_submatrix_ls``, or None.

    The result is accepted only when no ``LinAlgError`` is raised and the
    correction is small, ``||dx|| <= _GRAM_CORRECTION_LIMIT ||x||``; a NaN
    fails that comparison.  The work runs under ``np.errstate``, so a Gram
    matrix that overflows or underflows warns nothing and is declined.
    """
    m, s = As.shape
    with np.errstate(all="ignore"):
        try:
            if s <= m:
                G = As.T @ As
                x = np.linalg.solve(G, As.T @ y)
                dx = np.linalg.solve(G, As.T @ (y - As @ x))
            else:
                G = As @ As.T
                x = As.T @ np.linalg.solve(G, y)
                dx = As.T @ np.linalg.solve(G, y - As @ x)
        except np.linalg.LinAlgError:
            return None
        if np.linalg.norm(dx) <= _GRAM_CORRECTION_LIMIT * np.linalg.norm(x):
            return x + dx
    return None


def restricted_least_squares(A, y, support):
    """Minimize ||y - A z||_2 over vectors supported on ``support``.

    Returns the minimum-norm minimizer when the column submatrix is rank
    deficient.  An empty support returns the zero vector.  The first-order
    condition (A^T (y - A x))_support = 0 holds to solver tolerance.
    """
    A, y = _system(A, y)
    return _restricted_ls(A, y, _as_support(support, A.shape[1]))


def _restricted_ls(A, y, support):
    """:func:`restricted_least_squares` without its checks: finite float A
    and y of matching shape, ``support`` sorted, unique and int64."""
    x = np.zeros(A.shape[1])
    if support.size:
        x[support] = _solve_submatrix_ls(A, y, support)
    return x


def penalized_restricted_ls(A, y, support, penalized, sigma):
    """Minimize ||y - A z||^2 + sigma ||z_penalized||^2 over supp(z) in ``support``.

    ``penalized`` must be a subset of ``support``; sigma must be positive
    and finite.  Solved as an augmented least-squares system so the large
    penalty is never squared through normal equations.
    """
    return _penalized_ls(*_system(A, y), support, penalized, sigma)


def _penalized_ls(A, y, support, penalized, sigma):
    """:func:`penalized_restricted_ls` of a checked (A, y)."""
    sigma = _real("sigma", sigma, "(0, inf)")
    n = A.shape[1]
    support = _as_support(support, n)
    penalized = _as_support(penalized, n, name="penalized")
    if penalized.size and not np.isin(penalized, support).all():
        raise ValueError("penalized indices must be a subset of the support")
    if penalized.size == 0:
        return _restricted_ls(A, y, support)
    As = A[:, support]
    positions = np.searchsorted(support, penalized)
    ridge = np.zeros((penalized.size, support.size))
    ridge[np.arange(penalized.size), positions] = np.sqrt(sigma)
    augmented = np.vstack([As, ridge])
    rhs = np.concatenate([y, np.zeros(penalized.size)])
    coef = np.linalg.lstsq(augmented, rhs, rcond=None)[0]
    x = np.zeros(n)
    x[support] = coef
    return x


def spectral_norm(A):
    """Largest singular value of ``A``, 0.0 for an empty matrix."""
    A = _as_matrix(A)
    _require_finite(A)
    return _spectral_norm(A)


def _spectral_norm(A):
    """:func:`spectral_norm` of a checked A."""
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


class _QRBuffer:
    """Q, R^-1 and Q^T y of one growing factorization, with room to append.

    Q has shape (m, capacity).  R itself is not kept: nothing reads it once
    R^-1 is carried, and the diagonal of R^-1 holds the reciprocals of R's.
    ``used`` counts the columns written so far; solver snapshots of
    t <= used columns share the buffer, and ``snapshots`` holds a weak
    reference to each of them.  A snapshot of t columns that is extended
    writes its block in place from column t when no live snapshot holds
    more than t columns; only a live one that does forces a copy of the
    first t columns, as writing in place would change that snapshot.
    """

    def __init__(self, m, capacity, source=None, t=0):
        self.Q = np.zeros((m, capacity))
        self.Rinv = np.zeros((capacity, capacity))
        self.qty = np.zeros(capacity)
        self.used = t
        self.snapshots = weakref.WeakSet()
        if t:
            self.Q[:, :t] = source.Q[:, :t]
            self.Rinv[:t, :t] = source.Rinv[:t, :t]
            self.qty[:t] = source.qty[:t]


class IncrementalQRSolver:
    """QR factorization of a column submatrix, grown a block at a time.

    Appending b columns to t factored ones costs O(m t b), against
    O(m (t + b)^2) for a refactorization; OMP's one column is the case
    b = 1.  The block is projected against Q twice, which keeps Q
    orthonormal to machine precision (block classical Gram-Schmidt with
    one reorthogonalization: Barlow and Smoktunowicz, Numer. Math. 123,
    2013), and its remainder takes one Householder QR.  That QR's leading
    j columns are the QR of the block's leading j columns, so the block is
    cut exactly: before its first numerically dependent column (a diagonal
    entry of the block's R at most 1e-12 of its column's norm) and at m
    factored columns.  A cut sets ``degenerate``; appends then stop.

    The factorization carries R^-1 in place of R: a block with projection
    coefficients R12 and triangular factor R22 borders R^-1 with
    ``-R^-1 R12 R22^-1`` over ``R22^-1``.  :meth:`solve` is then the
    matrix-vector product ``R^-1 Q^T y``, with no factorization of R.  Its
    error bound is of the order of a triangular solve's with R times
    ||R^-1|| ||Q^T y|| / ||x|| >= 1 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 8 and 14); on near-collinear
    supports both reach the same worst case.  The ``_COND_RECIP_LIMIT``
    test of every QR solve reads the diagonal of R^-1, the reciprocals of
    R's.  :meth:`solve` returns None when the factorization is degenerate
    or fails that test, and callers re-solve from scratch with
    ``_restricted_ls``; appends stop then too, as R's smallest diagonal
    magnitude only falls and its largest only rises.  Otherwise
    :meth:`misfit` is the residual of its solution, ``y - Q Q^T y``,
    formed from Q instead of from the columns of A.

    ``extended`` returns a new solver, leaving the receiver untouched, so
    snapshots can be carried inside immutable iterate states.  Snapshots
    share one buffer (see ``_QRBuffer``) up to their own length t, and an
    extension writes its block in place from column t.  The buffer is
    copied only when the block does not fit (capacity doubles, or grows to
    fit the block, up to m) or when a snapshot that is still referenced
    holds columns past t, which writing in place would overwrite.  So a
    run resumed from an earlier run's state copies nothing once that run's
    later states are dropped; while one of them is held, the resumed run
    copies the buffer on its first append and leaves that state as it was.
    """

    def __init__(self, A, y):
        self._A = np.asarray(A, dtype=float)
        self._y = np.asarray(y, dtype=float)
        self._buffer = _QRBuffer(self._A.shape[0], 0)
        self._buffer.snapshots.add(self)
        self._t = 0
        self.columns = []
        self.degenerate = False
        # Not degenerate, and R passes the _COND_RECIP_LIMIT test.
        self._solvable = True

    def extended(self, indices):
        """New solver with ``indices`` appended to the factored support.

        The new solver shares the receiver's buffer and copies only the
        column list; appending never changes the receiver's t columns, nor
        those of any other snapshot still referenced.  Every new solver is
        entered in its buffer's ``snapshots``, also one that appends
        nothing (no indices, or a receiver that cannot be solved).
        """
        indices = np.asarray(indices, dtype=np.int64)
        new = IncrementalQRSolver.__new__(IncrementalQRSolver)
        new.__dict__.update(self.__dict__)
        new.columns = self.columns + indices.tolist()
        if indices.size and self._solvable:
            new._append(indices)
        new._buffer.snapshots.add(new)
        return new

    def _append(self, indices):
        """Factor the columns ``indices`` of A in one block step."""
        m = self._A.shape[0]
        t = self._t
        W = self._A[:, indices]
        tol = 1e-12 * np.linalg.norm(W, axis=0)
        Q = self._buffer.Q[:, :t]
        R12 = Q.T @ W
        W -= Q @ R12
        # Second projection restores orthogonality lost to cancellation.
        corr = Q.T @ W
        R12 += corr
        W -= Q @ corr
        Qb, R22 = np.linalg.qr(W)
        dependent = (np.abs(R22.diagonal()) <= tol[:R22.shape[0]]).nonzero()[0]
        k = min(dependent[0] if dependent.size else R22.shape[0], m - t)
        self.degenerate = k < indices.size
        if k:
            buffer = self._buffer
            capacity = buffer.Q.shape[1]
            grown = capacity if t + k <= capacity else min(m, max(8, 2 * capacity, t + k))
            # a snapshot still referenced that holds columns past t keeps them
            if grown != capacity or (buffer.used != t and any(s._t > t for s in buffer.snapshots)):
                buffer = self._buffer = _QRBuffer(m, grown, buffer, t)
            Qb = Qb[:, :k]
            R22inv = np.linalg.inv(R22[:k, :k])
            buffer.Q[:, t:t + k] = Qb
            buffer.Rinv[:t, t:t + k] = buffer.Rinv[:t, :t] @ R12[:, :k] @ -R22inv
            buffer.Rinv[t:t + k, t:t + k] = R22inv
            buffer.qty[t:t + k] = self._y @ Qb
            buffer.used = self._t = t + k
        self._solvable = not self.degenerate and _well_conditioned(
            self._buffer.Rinv.diagonal()[:self._t])

    def solve(self):
        """Full-length least-squares solution on the factored support,
        ``R^-1 Q^T y`` scattered to the support's positions.

        Returns None when the factorization is degenerate or R fails the
        ``_COND_RECIP_LIMIT`` test; callers must then re-solve from scratch.
        """
        x = np.zeros(self._A.shape[1])
        if not self.columns:
            return x
        if not self._solvable:
            return None
        t = self._t
        x[np.asarray(self.columns, dtype=np.int64)] = self._buffer.Rinv[:t, :t] @ self._buffer.qty[:t]
        return x

    def misfit(self):
        """The least-squares residual ``y - Q Q^T y`` on the factored support;
        it is the misfit of :meth:`solve`'s solution when that is not None."""
        t = self._t
        return self._y - self._buffer.Q[:, :t] @ self._buffer.qty[:t]


class FileFormatError(ValueError):
    """Malformed matrix/vector file; carries path and 1-based line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


def _records(path, header):
    """Stream a matrix or vector file whose first line holds the integers
    named in ``header`` ("m n" or "n").

    Yields the header's integers as a tuple, then (1-based line number,
    tokens) for each nonblank line after it, reading one line at a time.
    A byte that is not UTF-8 is read as a lone surrogate
    (``surrogateescape``) and reported as a format error at its line, not
    as a decode error of a read buffer, which has no line number.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield _header(path, _utf8(path, 1, fh.readline()), header)
        for line_no, line in enumerate(fh, start=2):
            tokens = _utf8(path, line_no, line).split()
            if tokens:
                yield line_no, tokens


def _header(path, line, header):
    """The integers named in ``header`` that the first line of a file holds."""
    line = line.rstrip("\n")
    tokens = line.split()
    if not tokens:
        raise FileFormatError(path, 1, f"expected header line {header!r}")
    if len(tokens) != len(header.split()):
        raise FileFormatError(path, 1, f"expected header {header!r}, got {line!r}")
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise FileFormatError(path, 1, f"expected integer header {header!r}, got {line!r}") from None


def _utf8(path, line_no, line):
    if not line.isascii() and any("\udc80" <= ch <= "\udcff" for ch in line):
        raise FileFormatError(path, line_no, "not UTF-8 text")
    return line


def _parse_floats(tokens, path, line_no):
    values = []
    for tok in tokens:
        try:
            val = float(tok)
        except ValueError:
            raise FileFormatError(path, line_no, f"not a number: {tok!r}") from None
        if not math.isfinite(val):
            raise FileFormatError(path, line_no, f"non-finite value: {tok!r}")
        values.append(val)
    return values


def load_matrix(path):
    """Read a dense matrix: first line "m n", then m rows of n numbers.

    numpy's C reader parses the rows.  It converts a number as ``float()``
    does, so the values have the same bits as the line reader's.  A file
    that it does not read as m x n finite numbers from strict UTF-8 text is
    read again by the line reader, which also takes the numbers only
    ``float()`` accepts (``1_000``, non-ASCII digits) and reports any
    defect at its line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            m, n = _header(path, fh.readline(), "m n")
            start = fh.tell()
            # loadtxt warns on a body without data; the line reader reports it
            if any(not line.isspace() for line in iter(fh.readline, "")):
                fh.seek(start)
                A = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
                if A.shape == (m, n) and np.isfinite(A).all():
                    return A
    except ValueError:  # a format error, a decode error or a number loadtxt rejects
        pass
    return _load_matrix_lines(path)


def _load_matrix_lines(path):
    """:func:`load_matrix` by the line reader."""
    records = _records(path, "m n")
    m, n = next(records)
    if m < 1 or n < 1:
        raise FileFormatError(path, 1, f"dimensions must be positive, got {m} x {n}")
    rows = []
    line_no = 1
    for line_no, tokens in records:
        if len(rows) == m:
            raise FileFormatError(path, line_no, f"expected exactly {m} rows")
        if len(tokens) != n:
            raise FileFormatError(path, line_no, f"expected {n} entries, got {len(tokens)}")
        rows.append(_parse_floats(tokens, path, line_no))
    if len(rows) != m:
        raise FileFormatError(path, line_no, f"expected {m} rows, got {len(rows)}")
    return np.array(rows, dtype=float)


def load_vector(path):
    """Read a vector: first line "n", then n whitespace-separated numbers."""
    records = _records(path, "n")
    (n,) = next(records)
    if n < 0:
        raise FileFormatError(path, 1, f"length must be nonnegative, got {n}")
    values = []
    line_no = 1
    for line_no, tokens in records:
        if len(values) + len(tokens) > n:
            raise FileFormatError(path, line_no, f"expected exactly {n} entries")
        values.extend(_parse_floats(tokens, path, line_no))
    if len(values) != n:
        raise FileFormatError(path, line_no, f"expected {n} entries, got {len(values)}")
    return np.array(values, dtype=float)


def _row_format(n):
    """One line of n numbers at 17 significant digits, the shortest width
    at which every double reads back with the same bits.  ``%.17g`` on a
    Python float gives the bytes of ``format(v, ".17g")``."""
    return " ".join(["%.17g"] * n) + "\n"


def save_matrix(path, A):
    A = _as_matrix(A)
    _require_finite(A)
    line = _row_format(A.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A:  # row by row, so only one row is ever a list of floats
            fh.write(line % tuple(row.tolist()))


def save_vector(path, v):
    v = _as_vector(v)
    _require_finite(v)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{v.size}\n")
        fh.write(_row_format(v.size) % tuple(v.tolist()))
