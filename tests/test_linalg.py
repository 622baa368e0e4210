import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dompkit import algorithms, linalg, theory


def test_top_q_indices_basic():
    # two largest magnitudes are 5 and 3, at indices 1 and 0
    assert linalg.top_q_indices([3, -5, 2], 2).tolist() == [0, 1]


def test_top_q_indices_tie_prefers_smaller_index():
    assert linalg.top_q_indices([2, -2, 1], 1).tolist() == [0]


def test_top_q_indices_full_length_returns_all():
    assert linalg.top_q_indices([0, 0, 7], 3).tolist() == [0, 1, 2]


@pytest.mark.parametrize("q", [0, 4, -1])
def test_top_q_indices_rejects_bad_q(q):
    with pytest.raises(ValueError):
        linalg.top_q_indices([1.0, 2.0, 3.0], q)


def test_top_q_indices_permutation_consistent():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(3, 12)
        v = rng.standard_normal(n)
        # distinct magnitudes so the selection is permutation-equivariant
        while np.unique(np.abs(v)).size < n:
            v = rng.standard_normal(n)
        perm = rng.permutation(n)
        q = int(rng.integers(1, n + 1))
        base = set(linalg.top_q_indices(v, q).tolist())
        permuted = set(linalg.top_q_indices(v[perm], q).tolist())
        assert {int(np.where(perm == i)[0][0]) for i in base} == permuted


# Random, tie-heavy (small integers) and special entries: +-inf, NaN, -0.0.
_SELECTION_ENTRIES = st.one_of(
    st.floats(width=64),
    st.integers(-3, 3).map(float),
    st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.0]),
)


@given(st.lists(_SELECTION_ENTRIES, min_size=1, max_size=40))
def test_top_q_indices_is_the_head_of_a_stable_sort(values):
    # The reference ranks NaN last and breaks ties toward the smaller index.
    v = np.array(values, dtype=float)
    order = np.argsort(-np.abs(v), kind="stable")
    for q in range(1, v.size + 1):
        assert np.array_equal(linalg.top_q_indices(v, q), np.sort(order[:q]))


def test_hard_threshold_examples():
    assert linalg.hard_threshold([3, -5, 2], 1).tolist() == [0, -5, 0]
    # tie at magnitude 1 resolved to the smaller index
    assert linalg.hard_threshold([1, 1, 0], 1).tolist() == [1, 0, 0]
    v = np.array([4.0, -1.0, 0.5])
    assert linalg.hard_threshold(v, 3).tolist() == v.tolist()
    assert linalg.hard_threshold(v, 0).tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        linalg.hard_threshold(v, 4)


def test_hard_threshold_matches_restriction_to_top_q():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        v = rng.standard_normal(n)
        for k in range(1, n + 1):
            keep = linalg.top_q_indices(v, k)
            expect = np.zeros_like(v)
            expect[keep] = v[keep]
            got = linalg.hard_threshold(v, k)
            assert np.array_equal(got, expect)
            assert np.count_nonzero(got) <= k


def test_restricted_ls_exact_interpolation():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 12))
    x_true = np.zeros(12)
    x_true[[2, 5, 9]] = rng.standard_normal(3)
    # support contains supp(x_true), possibly strictly
    for support in ([2, 5, 9], [2, 5, 9, 11]):
        x = linalg.restricted_least_squares(A, A @ x_true, support)
        assert np.allclose(x, x_true, atol=1e-10)


def test_restricted_ls_empty_support():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((5, 7))
    y = rng.standard_normal(5)
    x = linalg.restricted_least_squares(A, y, [])
    assert np.array_equal(x, np.zeros(7))


def test_restricted_ls_duplicate_columns_minimum_norm():
    # Independent oracle: SVD pseudoinverse gives the minimum-norm solution.
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 4))
    A[:, 1] = A[:, 0]
    y = A[:, 0].copy()
    x = linalg.restricted_least_squares(A, y, [0, 1])
    oracle = np.linalg.pinv(A[:, [0, 1]]) @ y
    assert np.allclose(x[[0, 1]], oracle, atol=1e-10)
    assert np.allclose(x[[0, 1]], [0.5, 0.5], atol=1e-10)


def _counting(monkeypatch, name):
    """Shapes of the first argument of each call to ``np.linalg.<name>``."""
    calls = []
    function = getattr(np.linalg, name)

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return function(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_restricted_ls_wide_support_is_minimum_norm_without_svd(monkeypatch):
    # More columns than rows and full row rank: the corrected Gram solve
    # gives the minimum-norm solution, the SVD oracle's, and lstsq is never
    # called.
    calls = _counting(monkeypatch, "lstsq")
    rng = np.random.default_rng(24)
    for m in (1, 5, 12, 30):
        n = 4 * m
        A = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        for s in sorted({m + 1, 2 * m, 3 * m}):
            support = np.sort(rng.choice(n, size=s, replace=False))
            x = linalg.restricted_least_squares(A, y, support)
            oracle = np.linalg.pinv(A[:, support]) @ y
            assert np.abs(x[support] - oracle).max() <= 1e-10
            assert not x[np.setdiff1d(np.arange(n), support)].any()
    assert calls == []


def test_restricted_ls_wide_rank_deficient_support_falls_back_to_lstsq(monkeypatch):
    # Duplicate and zero columns leave a wide A_S of rank 4 < m = 6: the
    # Gram route is declined and lstsq returns the minimum-norm solution.
    calls = _counting(monkeypatch, "lstsq")
    rng = np.random.default_rng(25)
    B = rng.standard_normal((6, 4))
    A = np.column_stack([B, B[:, :3], np.zeros(6), rng.standard_normal((6, 3))])
    y = rng.standard_normal(6)
    support = np.arange(9)
    x = linalg.restricted_least_squares(A, y, support)
    assert calls == [(6, 9)]
    oracle = np.linalg.pinv(A[:, support]) @ y
    assert np.abs(x[support] - oracle).max() <= 1e-10
    assert x[7] == 0.0
    assert np.allclose(x[:3], x[4:7], rtol=0, atol=1e-12)


def test_restricted_ls_wide_error_against_the_q_solution(monkeypatch):
    # Wide A_S = U diag(sigma) V^T with log-spaced singular values and
    # condition number kappa, solved through the Gram matrix with one
    # correction, or by the SVD (lstsq) where the correction is too large,
    # against the solution through the explicit Q of A_S^T (Q R^-T y), each
    # measured by its distance to the SVD oracle.  lstsq runs on exactly the
    # draws whose Gram route is declined.
    calls = _counting(monkeypatch, "lstsq")
    ratios, worst, declined, by_svd = [], 0.0, [], []
    for m in (10, 40, 125):
        for s in (m + 1, round(1.2 * m)):
            for kappa in 10.0 ** np.arange(2, 11):
                errors = []
                for seed in range(8):
                    rng = np.random.default_rng([m, s, int(np.log10(kappa)), seed])
                    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
                    V = np.linalg.qr(rng.standard_normal((s, m)))[0]
                    As = (U * np.geomspace(1.0, 1.0 / kappa, m)) @ V.T
                    y = rng.standard_normal(m)
                    oracle = np.linalg.pinv(As) @ y
                    Q, R = np.linalg.qr(As.T)
                    through_q = Q @ np.linalg.solve(R.T, y)
                    declined.append(linalg._gram_ls(As, y) is None)
                    before = len(calls)
                    x = linalg._solve_submatrix_ls(As, y, np.arange(s))
                    by_svd.append(len(calls) > before)
                    errors.append([np.linalg.norm(z - oracle) / np.linalg.norm(oracle)
                                   for z in (x, through_q)])
                errors = np.array(errors)
                ratios += list(errors[:, 0] / errors[:, 1])
                worst = max(worst, errors[:, 0].max() / errors[:, 1].max())
    assert any(declined)
    assert by_svd == declined
    assert np.median(ratios) <= 4.0
    assert worst <= 10.0


def test_restricted_ls_tall_gram_error_against_the_r_solution(monkeypatch):
    # Tall A_S = U diag(sigma) V^T with log-spaced singular values and
    # condition number kappa, solved through the Gram matrix with one
    # correction (or, where the correction is too large, by QR) against
    # the solution from the R of [A_S | y], each measured by its distance
    # to the SVD oracle.  Normal equations alone lose accuracy as kappa^2;
    # the correction limit keeps the result within a small factor of the
    # R solution's error.
    calls = _counting(monkeypatch, "lstsq")
    ratios, worst = [], 0.0
    for m, s in ((40, 10), (125, 50), (300, 150), (125, 125)):
        for kappa in 10.0 ** np.arange(2, 11):
            errors = []
            for seed in range(8):
                rng = np.random.default_rng([m, s, int(np.log10(kappa)), seed])
                U = np.linalg.qr(rng.standard_normal((m, s)))[0]
                V = np.linalg.qr(rng.standard_normal((s, s)))[0]
                As = (U * np.geomspace(1.0, 1.0 / kappa, s)) @ V.T
                y = rng.standard_normal(m)
                oracle = np.linalg.pinv(As) @ y
                R = np.linalg.qr(np.column_stack([As, y]), mode="r")
                through_r = np.linalg.solve(R[:s, :s], R[:s, s])
                x = linalg._solve_submatrix_ls(As, y, np.arange(s))
                errors.append([np.linalg.norm(z - oracle) / np.linalg.norm(oracle)
                               for z in (x, through_r)])
            errors = np.array(errors)
            ratios += list(errors[:, 0] / errors[:, 1])
            worst = max(worst, errors[:, 0].max() / errors[:, 1].max())
    assert calls == []
    assert np.median(ratios) <= 4.0
    assert worst <= 10.0


@pytest.mark.parametrize("s", [50, 150], ids=["tall", "wide"])
def test_restricted_ls_takes_the_gram_route_unless_its_correction_is_large(monkeypatch, s):
    # Gaussian supports are well conditioned: the corrected Gram solve is
    # accepted and no QR runs.  At kappa = 1e8 the correction measures the
    # squared condition number and the solve falls back: a tall support to
    # the R of [A_S | y], a wide one to lstsq.
    rng = np.random.default_rng(31)
    A = rng.standard_normal((125, 500))
    y = rng.standard_normal(125)
    support = np.sort(rng.choice(500, size=s, replace=False))
    r = min(125, s)
    U = np.linalg.qr(rng.standard_normal((125, r)))[0]
    V = np.linalg.qr(rng.standard_normal((s, r)))[0]
    As = (U * np.geomspace(1.0, 1e-8, r)) @ V.T
    qr_calls = _counting(monkeypatch, "qr")
    lstsq_calls = _counting(monkeypatch, "lstsq")
    x = linalg.restricted_least_squares(A, y, support)
    assert qr_calls == [] and lstsq_calls == []
    assert np.abs(x[support] - np.linalg.pinv(A[:, support]) @ y).max() <= 1e-10
    linalg.restricted_least_squares(As, y, np.arange(s))
    expected = ([(125, s + 1)], []) if s <= 125 else ([], [(125, s)])
    assert (qr_calls, lstsq_calls) == expected


@pytest.mark.parametrize("exponent", [520, -540])
@pytest.mark.parametrize("s", [10, 60], ids=["tall", "wide"])
def test_restricted_ls_declines_an_overflowing_or_underflowing_gram_matrix(monkeypatch, exponent,
                                                                          s):
    # With A and y scaled by 2^520 the Gram matrix overflows, and by
    # 2^-540 it underflows: the Gram route is declined without a warning
    # and the result is the fallback's (QR or lstsq), bit for bit.
    rng = np.random.default_rng(32)
    A = np.ldexp(rng.standard_normal((40, 120)), exponent)
    y = np.ldexp(rng.standard_normal(40), exponent)
    support = np.sort(rng.choice(120, size=s, replace=False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = linalg.restricted_least_squares(A, y, support)
        monkeypatch.setattr(linalg, "_gram_ls", lambda As, y: None)
        fallback = linalg.restricted_least_squares(A, y, support)
    assert np.array_equal(x, fallback)
    assert np.abs(x[support] - np.linalg.pinv(A[:, support]) @ y).max() <= 1e-10


@pytest.mark.parametrize("defect", ["zero", "duplicate"])
def test_restricted_ls_square_rank_deficient_support_falls_back_to_lstsq(monkeypatch, defect):
    # s = m is still the tall path (the R of [A_S | y] is m x (m+1)); a zero
    # or duplicate column fails its conditioning test and lstsq returns the
    # minimum-norm solution.
    calls = _counting(monkeypatch, "lstsq")
    rng = np.random.default_rng(28)
    A = rng.standard_normal((7, 10))
    A[:, 3] = 0.0 if defect == "zero" else A[:, 5]
    y = rng.standard_normal(7)
    support = np.arange(7)
    x = linalg.restricted_least_squares(A, y, support)
    assert calls == [(7, 7)]
    assert np.abs(x[support] - np.linalg.pinv(A[:, support]) @ y).max() <= 1e-10


def test_restricted_ls_first_order_condition():
    rng = np.random.default_rng(9)
    for _ in range(20):
        A = rng.standard_normal((15, 40))
        y = rng.standard_normal(15)
        support = rng.choice(40, size=6, replace=False)
        x = linalg.restricted_least_squares(A, y, support)
        r = A.T @ (y - A @ x)
        scale = 1e-8 * (1 + np.abs(A.T @ y).max())
        assert np.abs(r[np.sort(support)]).max() <= scale


def test_restricted_ls_residual_optimality():
    rng = np.random.default_rng(10)
    for _ in range(5):
        A = rng.standard_normal((12, 30))
        y = rng.standard_normal(12)
        support = np.sort(rng.choice(30, size=4, replace=False))
        x = linalg.restricted_least_squares(A, y, support)
        best = np.linalg.norm(y - A @ x)
        for _ in range(100):
            z = np.zeros(30)
            z[support] = rng.standard_normal(support.size)
            assert best <= np.linalg.norm(y - A @ z) + 1e-12


@pytest.mark.parametrize("values", [
    [np.nan], [1.0, np.inf], [-np.inf, 2.0], [np.inf, -np.inf], [3.0, np.nan, np.inf, -np.inf],
    [1e308, 1e308], [-1e308, 1.0, -1e308], [], [0.5, -2.0],
], ids=["nan", "+inf", "-inf", "+inf-inf", "nan+inf-inf", "overflow+", "overflow-", "empty",
        "finite"])
def test_require_finite_agrees_with_the_elementwise_test(values):
    # A sum that is NaN, infinite, or overflows from finite entries decides
    # by the elementwise test; no case warns.
    vector = np.array(values, dtype=float)
    finite = np.isfinite(vector).all()
    for arrays in [(vector,), (vector.reshape(1, -1),), (np.ones(2), vector.reshape(-1, 1))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if finite:
                linalg._require_finite(*arrays)
            else:
                with pytest.raises(ValueError, match="NaN or Inf"):
                    linalg._require_finite(*arrays)


def test_restricted_ls_rejects_nonfinite():
    A = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        linalg.restricted_least_squares(A, [1.0, 2.0], [0])


def test_penalized_ls_empty_penalty_matches_plain():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A = rng.standard_normal((10, 20))
        y = rng.standard_normal(10)
        support = rng.choice(20, size=5, replace=False)
        plain = linalg.restricted_least_squares(A, y, support)
        ridge = linalg.penalized_restricted_ls(A, y, support, [], 1.0)
        assert np.linalg.norm(plain - ridge) <= 1e-9


def test_penalized_ls_large_sigma_squeezes_penalized_entries():
    # The ridge objective forces sigma * ||x_penalized||^2 <= ||y||^2, so
    # ||x_penalized|| <= ||y|| / sqrt(sigma); the worst-fit residual over
    # nonempty supports tightens this to theta / sqrt(sigma).
    rng = np.random.default_rng(13)
    sigma = 1e12
    for _ in range(10):
        A = rng.standard_normal((10, 20))
        y = rng.standard_normal(10)
        support = np.sort(rng.choice(20, size=6, replace=False))
        penalized = support[:2]
        x = linalg.penalized_restricted_ls(A, y, support, penalized, sigma)
        theta = max(
            np.linalg.norm(y - A[:, [j]] @ (np.linalg.pinv(A[:, [j]]) @ y))
            for j in range(20)
        )
        assert np.linalg.norm(x[penalized]) <= theta / np.sqrt(sigma) + 1e-12


def test_penalized_ls_zero_measurements():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((6, 9))
    x = linalg.penalized_restricted_ls(A, np.zeros(6), [0, 3, 5], [3], 10.0)
    assert np.allclose(x, 0.0)


def test_penalized_ls_validation():
    A = np.eye(3)
    y = np.ones(3)
    with pytest.raises(ValueError):
        linalg.penalized_restricted_ls(A, y, [0, 1], [2], 1.0)
    with pytest.raises(ValueError):
        linalg.penalized_restricted_ls(A, y, [0, 1], [0], 0.0)
    with pytest.raises(ValueError):
        linalg.penalized_restricted_ls(A, y, [0, 1], [0], -3.0)


def test_penalized_ls_stationarity():
    # [-A^T(y - A x) + sigma * x_penalized]_support = 0 at the minimizer.
    rng = np.random.default_rng(15)
    sigma = 50.0
    A = rng.standard_normal((12, 25))
    y = rng.standard_normal(12)
    support = np.sort(rng.choice(25, size=8, replace=False))
    penalized = support[2:5]
    x = linalg.penalized_restricted_ls(A, y, support, penalized, sigma)
    x_penalized = np.zeros_like(x)
    x_penalized[penalized] = x[penalized]
    grad = -(A.T @ (y - A @ x)) + sigma * x_penalized
    assert np.abs(grad[support]).max() <= 1e-8 * (1 + np.abs(A.T @ y).max())


def test_spectral_norm_identity_and_diagonal():
    assert linalg.spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-10)
    assert linalg.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)
    assert linalg.spectral_norm(np.zeros((3, 5))) == 0.0
    assert linalg.spectral_norm(np.zeros((0, 3))) == 0.0


def test_vector_and_support_inputs_are_checked():
    with pytest.raises(ValueError, match=r"^v must be one-dimensional, got shape \(2, 3\)$"):
        linalg.top_q_indices(np.ones((2, 3)), 1)
    A = np.eye(4)
    with pytest.raises(ValueError, match=r"^y must be one-dimensional, got shape \(4, 1\)$"):
        linalg.restricted_least_squares(A, np.ones((4, 1)), [0])
    message = r"^support must be a one-dimensional collection of integers in \[0, 4\)$"
    for outside in ([1, 4], [-1]):
        with pytest.raises(ValueError, match=message):
            linalg.restricted_least_squares(A, np.ones(4), outside)
    # numpy integers of any width, repeated and unsorted, name their columns
    assert np.array_equal(linalg.restricted_least_squares(A, np.ones(4), np.uint8([3, 1, 3])), [0, 1, 0, 1])


# Each an index set that is not a one-dimensional collection of integers,
# though numpy converts it to an integer array.
BAD_SUPPORTS = {"bools": [True, False, True], "int-and-bool": [1, True], "numpy-int-and-bool": [np.int64(1), False],
                "floats": [3.7, 7.2], "strings": ["3"], "nested": [[0, 1]],
                "matrix": np.zeros((2, 2), dtype=np.int64)}
_EYE8 = np.eye(8)
_ONES8 = np.ones(8)
# (caller, the index set's name, call on the index set)
SUPPORT_INPUTS = [
    ("restricted_least_squares", "support", lambda s: linalg.restricted_least_squares(_EYE8, _ONES8, s)),
    ("penalized-support", "support", lambda s: linalg.penalized_restricted_ls(_EYE8, _ONES8, s, [], 1.0)),
    ("penalized-penalized", "penalized", lambda s: linalg.penalized_restricted_ls(_EYE8, _ONES8, range(8), s, 1.0)),
    ("proximity-support", "support", lambda s: theory.verify_projection_proximity(_EYE8, _ONES8, s, [1], 2, 1.0)),
    ("proximity-selected", "selected", lambda s: theory.verify_projection_proximity(_EYE8, _ONES8, [0], s, 2, 1.0)),
    ("proximity-true_support", "true_support",
     lambda s: theory.verify_projection_proximity(_EYE8, _ONES8, [0], [1], 2, 1.0, true_support=s)),
]


@pytest.mark.parametrize("bad", BAD_SUPPORTS.values(), ids=BAD_SUPPORTS)
@pytest.mark.parametrize("caller,name,call", SUPPORT_INPUTS, ids=[c[0] for c in SUPPORT_INPUTS])
def test_an_index_set_must_be_a_one_dimensional_collection_of_integers(monkeypatch, caller, name, call, bad):
    monkeypatch.setattr(linalg, "_restricted_ls", lambda *a: pytest.fail("a solve started"))
    with pytest.raises(ValueError, match=rf"^{name} must be a one-dimensional collection of integers in \[0, 8\)$"):
        call(bad)


@pytest.mark.parametrize("empty", [[], (), range(0), np.array([]), np.array([], dtype=np.int64)],
                         ids=["list", "tuple", "range", "float-array", "int-array"])
@pytest.mark.parametrize("caller,name,call", SUPPORT_INPUTS, ids=[c[0] for c in SUPPORT_INPUTS])
def test_an_empty_index_set_is_valid(caller, name, call, empty):
    call(empty)


def test_spectral_norm_matches_svd_oracle():
    rng = np.random.default_rng(16)
    for _ in range(20):
        A = rng.standard_normal((5, 8))
        oracle = np.linalg.svd(A, compute_uv=False)[0]
        assert abs(linalg.spectral_norm(A) - oracle) <= 1e-8 * oracle


def test_spectral_norm_resolves_clustered_top_singular_values():
    # The top two singular values are 1e-6 apart.
    rng = np.random.default_rng(24)
    U = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    V = np.linalg.qr(rng.standard_normal((60, 40)))[0]
    s = np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.9, 0.1, 38)])
    A = (U * s) @ V.T
    oracle = np.linalg.svd(A, compute_uv=False)[0]
    assert abs(linalg.spectral_norm(A) - oracle) <= 1e-12 * oracle


def test_spectral_norm_dominates_column_norms():
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = rng.standard_normal((6, 9))
        assert linalg.spectral_norm(A) >= np.linalg.norm(A, axis=0).max() - 1e-10


def test_incremental_qr_matches_from_scratch():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((20, 40))
    y = rng.standard_normal(20)
    solver = linalg.IncrementalQRSolver(A, y)
    support = []
    for j in [3, 17, 5, 30, 11, 8]:
        solver = solver.extended([j])
        support.append(j)
        x = solver.solve()
        assert x is not None
        expect = linalg.restricted_least_squares(A, y, support)
        assert np.allclose(x, expect, atol=1e-10)
        assert np.allclose(solver.misfit(), y - A @ x, rtol=0, atol=1e-12)


def test_incremental_qr_extended_leaves_original_untouched():
    rng = np.random.default_rng(18)
    A = rng.standard_normal((10, 15))
    y = rng.standard_normal(10)
    base = linalg.IncrementalQRSolver(A, y).extended([2, 7])
    snapshot = base.solve().copy()
    base.extended([1, 9])
    assert np.array_equal(base.solve(), snapshot)
    assert base.columns == [2, 7]


def test_incremental_qr_snapshot_extended_twice():
    # The second extension of one snapshot must not overwrite the columns
    # the first extension appended to the shared buffer.
    rng = np.random.default_rng(26)
    A = rng.standard_normal((12, 30))
    y = rng.standard_normal(12)
    base = linalg.IncrementalQRSolver(A, y).extended([4, 9, 21])
    before = base.solve().tobytes()
    first = base.extended([0, 13])
    first_bytes = first.solve().tobytes()
    second = base.extended([27, 2, 16])
    assert base.solve().tobytes() == before
    assert first.solve().tobytes() == first_bytes
    for solver in (base, first, second):
        expect = linalg.restricted_least_squares(A, y, solver.columns)
        assert np.allclose(solver.solve(), expect, rtol=0, atol=1e-10)
    assert (base.columns, first.columns, second.columns) == ([4, 9, 21], [4, 9, 21, 0, 13],
                                                             [4, 9, 21, 27, 2, 16])


def test_incremental_qr_extends_over_a_dropped_snapshot_in_place(qr_buffers):
    # Once the first extension is dropped, the second writes over its
    # columns in place: no copy, and the bytes of a fresh factorization.
    rng = np.random.default_rng(26)
    A = rng.standard_normal((12, 30))
    y = rng.standard_normal(12)
    base = linalg.IncrementalQRSolver(A, y).extended([4, 9, 21])
    base.extended([0, 13])
    second = base.extended([27, 2, 16])
    fresh = linalg.IncrementalQRSolver(A, y).extended([4, 9, 21]).extended([27, 2, 16])
    assert qr_buffers.rewinds == 1 and qr_buffers.branch_copies == []
    assert second.solve().tobytes() == fresh.solve().tobytes()
    assert second.misfit().tobytes() == fresh.misfit().tobytes()


def _snapshot_bytes(solver):
    x = solver.solve()
    return None if x is None else x.tobytes(), solver.misfit().tobytes()


@pytest.mark.parametrize("held", ["appended", "empty", "unsolvable"])
def test_incremental_qr_copies_for_a_held_longer_snapshot(qr_buffers, held):
    # A snapshot that holds columns past the one extended forces a copy and
    # keeps its bytes, also when it was made by an extension that appended
    # nothing: no indices, or a receiver that cannot be solved (its last
    # column duplicates an earlier one).  The snapshot that did append is
    # dropped by then.
    rng = np.random.default_rng(26)
    A = rng.standard_normal((12, 30))
    A[:, 6] = A[:, 13]
    y = rng.standard_normal(12)
    base = linalg.IncrementalQRSolver(A, y).extended([4, 9, 21])
    later = base.extended([0, 13, 6] if held == "unsolvable" else [0, 13])
    assert later.degenerate == (held == "unsolvable")
    if held != "appended":
        later = later.extended([] if held == "empty" else [17])
    kept = _snapshot_bytes(later)
    second = base.extended([27, 2, 16])
    assert qr_buffers.branch_copies == [3]
    assert _snapshot_bytes(later) == kept
    expect = linalg.restricted_least_squares(A, y, second.columns)
    assert np.allclose(second.solve(), expect, rtol=0, atol=1e-10)


def test_incremental_qr_grows_past_its_capacity():
    # Up to m = 40 columns, one and many at a time: the buffer is
    # reallocated several times on the way, the last time capped at m.
    rng = np.random.default_rng(27)
    A = rng.standard_normal((40, 80))
    y = rng.standard_normal(40)
    perm = rng.permutation(80).tolist()
    order = perm[:40]
    solver = linalg.IncrementalQRSolver(A, y)
    for t, j in enumerate(order, start=1):
        solver = solver.extended([j])
        expect = linalg.restricted_least_squares(A, y, order[:t])
        assert np.allclose(solver.solve(), expect, rtol=0, atol=1e-9)
    at_once = linalg.IncrementalQRSolver(A, y).extended(order)
    assert np.allclose(at_once.solve(), expect, rtol=0, atol=1e-9)
    assert not at_once.degenerate
    assert at_once.extended([perm[40]]).degenerate


def test_incremental_qr_near_collinear_supports():
    # One column is another plus noise of 1e-9 to 1e-5, so cond(A_S) reaches
    # about 1e9 and R still passes the conditioning test.  The product with
    # the carried R^-1 stays as close to lstsq, in the worst case, as a
    # triangular solve on a Householder R (both about 4e-6 here).  The misfit
    # read from Q stays orthogonal to the support's columns at machine
    # precision; the gather y - A x loses that (about 1e-7 here).
    rng = np.random.default_rng(29)
    worst = worst_reference = 0.0
    for _ in range(100):
        A = rng.standard_normal((60, 40))
        i, j = rng.choice(40, size=2, replace=False)
        A[:, j] = A[:, i] + 10.0 ** rng.uniform(-9, -5) * rng.standard_normal(60)
        y = rng.standard_normal(60)
        oracle = np.linalg.lstsq(A, y, rcond=None)[0]
        solver = linalg.IncrementalQRSolver(A, y).extended(range(40))
        x = solver.solve()
        assert x is not None
        Q, R = np.linalg.qr(A)
        reference = np.linalg.solve(R, Q.T @ y)
        worst = max(worst, np.linalg.norm(x - oracle) / np.linalg.norm(oracle))
        worst_reference = max(worst_reference, np.linalg.norm(reference - oracle) / np.linalg.norm(oracle))
        misfit = solver.misfit()
        assert np.linalg.norm(A.T @ misfit) <= 1e-14 * np.linalg.norm(A, 2) * np.linalg.norm(misfit)
    assert worst <= 2 * worst_reference


def test_incremental_qr_flags_dependent_column():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((8, 6))
    A[:, 4] = A[:, 1]
    y = rng.standard_normal(8)
    solver = linalg.IncrementalQRSolver(A, y).extended([1, 2, 4])
    assert solver.degenerate
    assert solver.solve() is None
    # Mid-block, the block is cut before the copy: its leading two columns
    # are factored, and every index stays listed.
    solver = linalg.IncrementalQRSolver(A, y).extended([0, 1, 4, 2])
    assert solver.degenerate
    assert solver._t == 2
    assert solver.columns == [0, 1, 4, 2]
    assert solver.solve() is None
    two = linalg.restricted_least_squares(A, y, [0, 1])
    assert np.allclose(solver.misfit(), y - A @ two, rtol=0, atol=1e-12)
    # A DOMP step that selects the copy mid-block falls back to a
    # from-scratch solve on the whole support.
    A[:, 2:4] *= 1e-3
    state = algorithms.domp_step(algorithms.initial_state(A, y), A, y, 4, 1e-6)
    assert state.support.tolist() == [0, 1, 4, 5]
    assert state.solver.degenerate
    assert np.array_equal(state.x, linalg.restricted_least_squares(A, y, [0, 1, 4, 5]))


def test_incremental_qr_cuts_a_block_at_m_columns():
    # Column 5 is column 4 plus noise of 1e-10: it is independent, but the
    # pair pins the block's span only to about 1e-6, so the block's third
    # diagonal entry is rounding of about 1e-7 of its column's norm, above
    # the dependence test.  Only the cut at m columns stops the block there.
    rng = np.random.default_rng(0)
    m = 6
    A = rng.standard_normal((m, 12))
    A[:, 5] = A[:, 4] + 1e-10 * rng.standard_normal(m)
    y = rng.standard_normal(m)
    base = linalg.IncrementalQRSolver(A, y).extended([0, 1, 2, 3])
    crossing = base.extended([4, 5, 6, 7, 8])
    assert crossing.degenerate
    assert crossing._t == m
    assert crossing.columns == list(range(9))
    exact = base.extended([4, 6])
    assert not exact.degenerate
    assert exact._t == m
    expect = linalg.restricted_least_squares(A, y, [0, 1, 2, 3, 4, 6])
    assert np.allclose(exact.solve(), expect, rtol=0, atol=1e-9)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_incremental_qr_any_split_into_blocks_agrees(data):
    # One order of a tall A's columns, some of them copies or zero, appended
    # in blocks split anywhere: every split stops at the first dependent
    # column, and solves and misfits agree with the from-scratch solve.
    m, n = 12, 9
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=3)):
        A[:, j] = A[:, i]
    A[:, data.draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    y = rng.standard_normal(m)
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))))
    independent = next((p for p, j in enumerate(order)
                        if not A[:, j].any()
                        or any(np.array_equal(A[:, j], A[:, i]) for i in order[:p])), n)
    solver = linalg.IncrementalQRSolver(A, y)
    for block in np.split(np.array(order), cuts):
        solver = solver.extended(block)
        factored = A[:, solver.columns[:solver._t]]
        misfit = solver.misfit()
        assert np.linalg.norm(factored.T @ misfit) <= (
            1e-14 * np.linalg.norm(factored, 2) * np.linalg.norm(misfit))
        if solver.degenerate:
            assert solver.solve() is None
        else:
            expect = linalg.restricted_least_squares(A, y, solver.columns)
            assert np.allclose(solver.solve(), expect, rtol=0, atol=1e-9)
    assert solver.degenerate == (independent < n)
    assert solver._t == independent


def test_matrix_file_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    A = rng.standard_normal((4, 7))
    path = tmp_path / "mat.txt"
    linalg.save_matrix(path, A)
    assert np.array_equal(linalg.load_matrix(path), A)


def test_vector_file_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    v = rng.standard_normal(9)
    path = tmp_path / "vec.txt"
    linalg.save_vector(path, v)
    assert np.array_equal(linalg.load_vector(path), v)


def _joined_17g(path, header, rows):
    """The oracle: the writer as it was, one format(v, ".17g") per value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in rows:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1, 1.0, -3.0, 2.0**53, 1e22, 123456789.0, 2.2250738585072014e-308]


@pytest.mark.parametrize("shape", [(13, 1), (1, 13), (300, 1200)])
def test_save_matrix_writes_the_bytes_of_a_17g_join(tmp_path, shape):
    A = np.random.default_rng(22).standard_normal(shape)
    flat = A.reshape(-1)
    flat[:len(_SPECIAL)] = _SPECIAL
    flat[len(_SPECIAL):2 * len(_SPECIAL)] = np.round(flat[len(_SPECIAL):2 * len(_SPECIAL)] * 1e3)
    written, expected = tmp_path / "written.txt", tmp_path / "expected.txt"
    linalg.save_matrix(written, A)
    _joined_17g(expected, f"{shape[0]} {shape[1]}\n", A)
    assert written.read_bytes() == expected.read_bytes()
    assert np.array_equal(linalg.load_matrix(written), A)


@pytest.mark.parametrize("v", [np.array([]), np.array([-0.0]), np.array(_SPECIAL),
                               np.random.default_rng(23).standard_normal(1200)])
def test_save_vector_writes_the_bytes_of_a_17g_join(tmp_path, v):
    written, expected = tmp_path / "written.txt", tmp_path / "expected.txt"
    linalg.save_vector(written, v)
    _joined_17g(expected, f"{v.size}\n", [v])
    assert written.read_bytes() == expected.read_bytes()
    assert np.array_equal(linalg.load_vector(written), v)
    assert np.array_equal(np.signbit(linalg.load_vector(written)), np.signbit(v))


def test_vector_file_multiline(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("5\n1 2\n3\n4 5\n")
    assert linalg.load_vector(path).tolist() == [1, 2, 3, 4, 5]


def test_files_with_blank_lines(tmp_path):
    matrix = tmp_path / "mat.txt"
    matrix.write_text("2 3\n\n1 2 3\n\n\n4 5 6\n\n")
    assert linalg.load_matrix(matrix).tolist() == [[1, 2, 3], [4, 5, 6]]
    vector = tmp_path / "vec.txt"
    vector.write_text("4\n\n1\n\n\n2 3\n4\n\n")
    assert linalg.load_vector(vector).tolist() == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "content,line",
    [
        ("", 1),
        ("-1\n", 1),
        ("2\n1 2 3\n", 2),
        ("3\n1 nan 3\n", 2),
        ("3\n1 inf 3\n", 2),
        ("x\n1\n", 1),
        ("3\n1 2\n", 2),
        # a bad token after blank lines is reported at its own line
        ("3\n\n1\n\nnan 2\n", 5),
        ("3\n1\n\n\n2 x\n", 5),
    ],
)
def test_vector_file_errors(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(linalg.FileFormatError) as err:
        linalg.load_vector(path)
    assert err.value.line == line


@pytest.mark.parametrize(
    "content,line",
    [
        ("", 1),
        ("2\n1 2\n", 1),
        ("2 2\n1 2\n3\n", 3),
        ("2 2\n1 2\n3 nan\n", 3),
        ("2 2\n1 2\n", 2),
        ("1 2\n1 2\n3 4\n", 3),
        ("0 2\n", 1),
        ("2 2\n\n1 2\n\n3 x\n", 5),
        ("2 2\n1 2\n\n\n3 inf\n", 5),
    ],
)
def test_matrix_file_errors(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(linalg.FileFormatError) as err:
        linalg.load_matrix(path)
    assert err.value.line == line


def test_incremental_qr_ratio_rule_is_applied_at_solve_time():
    # A column scaled by 1e-13 is independent of the unit columns, so it is
    # factored, but R's diagonal then spans 13 decades: solve() falls back,
    # also after one more column, and the factorization is not degenerate.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((10, 6))
    A /= np.linalg.norm(A, axis=0)
    A[:, 2] *= 1e-13
    y = rng.standard_normal(10)
    solver = linalg.IncrementalQRSolver(A, y).extended([0, 1, 2])
    assert solver.solve() is None
    assert not solver.degenerate
    grown = solver.extended([3])
    assert grown.solve() is None
    assert not grown.degenerate
    assert grown.columns == [0, 1, 2, 3]
    assert grown._t == 3


# Number formats that numpy's C reader converts; tokens that it rejects,
# of which some only float() takes and the others are format errors; and
# at most one defect per file, so that each kind is drawn often.
_C_FORMS = (repr, "{:.17g}".format, "{:+.6e}".format, "{:E}".format, lambda v: f" {v!r}")
_OTHER_TOKENS = ("1_000", "\u0661\u0662", "\u0663.5", "nan", "-inf", "Infinity", "1e999",
                 "x", "0x10", "1d5", "1,5", "")
_SEPARATORS = (" ", "\t", "  ", " \t ", "\xa0", "\u2003")
_DEFECTS = (None, None, None, "token", "token", "header", "rows", "width", "byte")


@st.composite
def matrix_files(draw):
    """(file bytes, whether numpy's reader must accept it as it stands)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    defect = draw(st.sampled_from(_DEFECTS))
    header = f"{m} {n}"
    if defect == "header":
        header = draw(st.sampled_from([f"{m + 1} {n}", f"{m} {n + 1}", f"0 {n}", f"{m}", "a b"]))
    rows = draw(st.sampled_from([m - 1, m + 1, 0])) if defect == "rows" else m
    odd = draw(st.integers(0, max(rows - 1, 0)))  # the row of a width or token defect
    lines = [header]
    for row in range(rows):
        width = n + draw(st.sampled_from([-1, 1])) if defect == "width" and row == odd else n
        tokens = [draw(st.sampled_from(_C_FORMS))(draw(st.floats(allow_nan=False, allow_infinity=False)))
                  for _ in range(width)]
        if defect == "token" and row == odd:
            tokens[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_OTHER_TOKENS))
        lines.append(draw(st.sampled_from(_SEPARATORS)).join(tokens))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\xa0"])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("utf-8")
    if defect == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, defect is None


def _outcome(load, path):
    try:
        A = load(path)
    except linalg.FileFormatError as exc:
        return ("error", str(exc), exc.line)
    return ("matrix", A.shape, A.tobytes())


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix_files())
def test_matrix_file_c_reader_agrees_with_the_line_reader(tmp_path, case):
    data, clean = case
    path = tmp_path / "mat.txt"
    path.write_bytes(data)
    line_reader = linalg._load_matrix_lines
    with mock.patch.object(linalg, "_load_matrix_lines", side_effect=line_reader) as fallback:
        got = _outcome(linalg.load_matrix, path)
    assert got == _outcome(line_reader, path)
    if clean:
        assert not fallback.called
