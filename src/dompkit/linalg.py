"""Dense linear-algebra kernel for greedy sparse recovery.

Selection operators (largest-magnitude index sets, hard thresholding),
least squares restricted to a column support, the ridge-on-a-subset
variant used by the verification suites, the spectral norm, and the
plain-text matrix/vector file format shared with the CLI (numpy's C
reader parses matrix rows; one streaming line reader serves vector files
and every file the C reader does not accept).

Arrays are checked once, where they enter: every public entry point
that takes (A, y) calls the one rule ``_system``, one that takes A alone
``_as_matrix`` and ``_require_finite``; checked code then solves through
the unchecked core ``_restricted_ls``.

Indices are 0-based throughout the Python API.  The CLI and its JSON
output translate to 1-based indices at the boundary.
"""

import math

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
    """Normalize an index collection to a sorted, duplicate-free int array."""
    arr = np.unique(np.asarray(list(indices), dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ValueError(f"{name} contains indices outside [0, {n})")
    return arr


def _require_finite(*arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise ValueError("input contains NaN or Inf")


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
    smaller index (stable sort on exact float comparison), so the result
    is deterministic.
    """
    v = _as_vector(v)
    q = int(q)
    if q < 1 or q > v.size:
        raise ValueError(f"q must be in [1, {v.size}], got {q}")
    order = np.argsort(-np.abs(v), kind="stable")
    picked = order[:q]
    picked.sort()
    return picked


def hard_threshold(v, k):
    """Keep the ``k`` largest magnitudes of ``v``, zero the rest.

    ``k = 0`` returns the zero vector, ``k = len(v)`` returns a copy.
    """
    v = _as_vector(v)
    k = int(k)
    if k < 0 or k > v.size:
        raise ValueError(f"k must be in [0, {v.size}], got {k}")
    if k == 0:
        return np.zeros_like(v)
    if k == v.size:
        return v.copy()
    out = np.zeros_like(v)
    keep = top_q_indices(v, k)
    out[keep] = v[keep]
    return out


def _well_conditioned(R):
    diag = np.abs(np.diag(R))
    return diag.size and diag.max() > 0 and diag.min() > _COND_RECIP_LIMIT * diag.max()


def _solve_submatrix_ls(As, y):
    """Minimum-norm least-squares coefficients for a column submatrix.

    A tall submatrix (no more columns than rows) of full column rank is
    solved through ``As = QR`` as ``R^-1 Q^T y``.  A wide one of full row
    rank is solved through ``As^T = QR`` as ``Q R^-T y``, the minimum-norm
    solution of the underdetermined system.  When R fails the
    ``_COND_RECIP_LIMIT`` test (rank deficiency or near-collinearity) the
    solve falls back to an SVD (``lstsq``).
    """
    m, s = As.shape
    if s <= m:
        Q, R = np.linalg.qr(As)
        if _well_conditioned(R):
            return np.linalg.solve(R, Q.T @ y)
    else:
        Q, R = np.linalg.qr(As.T)
        if _well_conditioned(R):
            return Q @ np.linalg.solve(R.T, y)
    return np.linalg.lstsq(As, y, rcond=None)[0]


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
        x[support] = _solve_submatrix_ls(A[:, support], y)
    return x


def penalized_restricted_ls(A, y, support, penalized, sigma):
    """Minimize ||y - A z||^2 + sigma ||z_penalized||^2 over supp(z) in ``support``.

    ``penalized`` must be a subset of ``support``; sigma must be positive.
    Solved as an augmented least-squares system so the large penalty is
    never squared through normal equations.
    """
    A, y = _system(A, y)
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
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
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


class _QRBuffer:
    """Q, R and Q^T y of one growing factorization, with room to append.

    Q is stored C-order with shape (m, capacity): the view ``Q[:, :t]``
    has the layout and transpose flag of a freshly stacked m x t array, so
    BLAS sums in the same order on it from 4 columns on.  ``used`` counts
    the columns written so far; solver snapshots of t <= used columns
    share the buffer.
    """

    def __init__(self, m, capacity, source=None, t=0):
        self.Q = np.zeros((m, capacity))
        self.R = np.zeros((capacity, capacity))
        self.qty = np.zeros(capacity)
        self.used = t
        if t:
            self.Q[:, :t] = source.Q[:, :t]
            self.R[:t, :t] = source.R[:t, :t]
            self.qty[:t] = source.qty[:t]


class IncrementalQRSolver:
    """QR factorization of a column submatrix grown one column at a time.

    Appending a column costs O(m t) where t is the current support size,
    against O(m t^2) for a from-scratch refactorization.  Gram-Schmidt
    with one reorthogonalization pass keeps Q orthonormal to machine
    precision.  ``degenerate`` is set when an appended column is
    numerically dependent on the factored ones (its orthogonal remainder
    is at most 1e-12 of its norm) or when the support reaches m columns;
    appends then stop.  :meth:`solve` returns None in that case and also
    when R's diagonal fails the ``_COND_RECIP_LIMIT`` test of every QR
    solve; callers then fall back to :func:`restricted_least_squares`.

    ``extended`` returns a new solver, leaving the receiver untouched, so
    snapshots can be carried inside immutable iterate states.  Snapshots
    share one append-only buffer (see ``_QRBuffer``) up to their own
    length t.  A column is written in place past the last written one;
    the buffer is copied only when it is full (capacity doubles, up to m)
    or when a snapshot shorter than the buffer is extended, which would
    overwrite another snapshot's columns.
    """

    def __init__(self, A, y):
        self._A = np.asarray(A, dtype=float)
        self._y = np.asarray(y, dtype=float)
        self._buffer = _QRBuffer(self._A.shape[0], 0)
        self._t = 0
        self.columns = []
        self.degenerate = False

    def extended(self, indices):
        """New solver with ``indices`` appended to the factored support.

        The new solver shares the receiver's buffer and copies only the
        column list; appending never changes the receiver's t columns.
        """
        new = IncrementalQRSolver.__new__(IncrementalQRSolver)
        new.__dict__.update(self.__dict__)
        new.columns = list(self.columns)
        for j in indices:
            new._append(int(j))
        return new

    def _append(self, j):
        self.columns.append(j)
        if self.degenerate:
            return
        a = self._A[:, j]
        t = self._t
        m = self._A.shape[0]
        if t >= m:
            self.degenerate = True
            return
        Q = self._buffer.Q[:, :t]
        if t < 4:
            # OpenBLAS takes another summation order for Q^T a on fewer than
            # 4 strided columns; a contiguous copy (at most 3m values) keeps
            # the factorization bit-identical to one of stacked columns.
            Q = np.ascontiguousarray(Q)
        r = Q.T @ a
        q = a - Q @ r
        # Second Gram-Schmidt pass restores orthogonality lost to cancellation.
        corr = Q.T @ q
        r = r + corr
        q = q - Q @ corr
        rho = float(np.linalg.norm(q))
        norm_a = float(np.linalg.norm(a))
        if rho <= 1e-12 * max(norm_a, np.finfo(float).tiny):
            self.degenerate = True
            return
        buffer = self._buffer
        capacity = buffer.Q.shape[1]
        if buffer.used != t or t == capacity:
            grown = capacity if t < capacity else min(m, max(8, 2 * capacity))
            buffer = self._buffer = _QRBuffer(m, grown, buffer, t)
        q = q / rho
        buffer.Q[:, t] = q
        buffer.R[:t, t] = r
        buffer.R[t, t] = rho
        buffer.qty[t] = q @ self._y
        buffer.used = self._t = t + 1

    def solve(self):
        """Full-length least-squares solution on the factored support.

        Returns None when the factorization is degenerate or R fails the
        ``_COND_RECIP_LIMIT`` test; callers must then re-solve from scratch.
        """
        x = np.zeros(self._A.shape[1])
        if not self.columns:
            return x
        R = self._buffer.R[:self._t, :self._t]
        if self.degenerate or not _well_conditioned(R):
            return None
        x[np.asarray(self.columns, dtype=np.int64)] = np.linalg.solve(R, self._buffer.qty[:self._t])
        return x


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


def save_matrix(path, A):
    A = _as_matrix(A)
    _require_finite(A)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def save_vector(path, v):
    v = _as_vector(v)
    _require_finite(v)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{v.size}\n")
        fh.write(" ".join(format(x, ".17g") for x in v) + "\n")
