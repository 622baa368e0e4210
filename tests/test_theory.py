import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dompkit import linalg, theory


def test_ric_exact_orthonormal_columns_is_zero():
    A = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 4)))[0]
    for q in range(1, 5):
        est = theory.ric_exact(A, q)
        assert est.delta <= 1e-12
        assert est.supports_examined == math.comb(4, q)
        assert est.method == "exact-exhaustive"


def test_ric_exact_duplicate_columns_break_order_two():
    A = np.zeros((5, 3))
    A[0, 0] = 1.0
    A[0, 1] = 1.0
    A[1, 2] = 1.0
    assert theory.ric_exact(A, 2).delta >= 1.0


def test_ric_exact_matches_pairwise_gram_oracle():
    # Independent oracle: closed-form eigenvalues of every 2x2 Gram block.
    rng = np.random.default_rng(1)
    A = rng.standard_normal((10, 20)) / np.sqrt(10)
    gram = A.T @ A
    worst = 0.0
    for i, j in itertools.combinations(range(20), 2):
        a, b, c = gram[i, i], gram[j, j], gram[i, j]
        half_trace = (a + b) / 2.0
        radius = math.sqrt(((a - b) / 2.0) ** 2 + c * c)
        worst = max(worst, abs(half_trace + radius - 1.0), abs(1.0 - (half_trace - radius)))
    assert theory.ric_exact(A, 2).delta == pytest.approx(worst, abs=1e-10)


def test_ric_exact_enumeration_cap():
    A = np.random.default_rng(2).standard_normal((10, 40))
    with pytest.raises(theory.EnumerationCapExceeded) as err:
        theory.ric_exact(A, 10, cap=1000)
    assert "shrink" in str(err.value)


def _every_support_eigensolved(gram, q):
    """The oracle: one eigvalsh of every q x q Gram block, nothing skipped."""
    idx = np.array(list(itertools.combinations(range(gram.shape[0]), q)), dtype=np.int64)
    eigs = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
    return max(0.0, float(eigs[:, -1].max() - 1.0), float(1.0 - eigs[:, 0].min()))


def _check_ric_keeps_the_exhaustive_maximum_bit_for_bit(data):
    # Tall and wide Gaussian matrices, up to C(12, 6) = 924 supports (so
    # past the 256 that are all eigensolved), orders 1 to n, with a
    # duplicated column (delta >= 1 from order 2), a zero column, and
    # columns scaled by 2^-40 to 2^40; a matrix scaled by 1/2 has delta
    # from the smallest eigenvalue, one scaled by 2 from the largest.
    if data.draw(st.booleans()):  # C(n, q) from 330 to 924
        n = data.draw(st.integers(11, 12))
        q = data.draw(st.integers(4, n - 4))
    else:
        n = data.draw(st.integers(1, 12))
        q = data.draw(st.integers(1, n))
    m = data.draw(st.integers(1, 2 * n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n)) * data.draw(st.sampled_from([0.5, 1.0, 2.0])) / np.sqrt(m)
    if n > 1 and data.draw(st.booleans()):
        A[:, -1] = A[:, 0]
    if data.draw(st.booleans()):
        A[:, rng.integers(n)] = 0.0
    if data.draw(st.booleans()):
        A *= 2.0 ** rng.integers(-40, 41, n)
    gram = A.T @ A
    est = theory._ric(gram, q, theory.DEFAULT_ENUMERATION_CAP)
    assert est.delta == _every_support_eigensolved(gram, q)
    assert est.supports_examined == math.comb(n, q)
    assert 1 <= est.eigensolved <= est.supports_examined


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_ric_skipping_certified_supports_keeps_the_exhaustive_maximum_bit_for_bit(data):
    _check_ric_keeps_the_exhaustive_maximum_bit_for_bit(data)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_ric_keeps_the_exhaustive_maximum_across_batches_of_seven(data):
    # Batches of 7 are smaller than the seed, so the seed is a whole first
    # batch and every later batch is certified against it.
    with mock.patch.object(theory, "_RIC_BATCH", 7):
        _check_ric_keeps_the_exhaustive_maximum_bit_for_bit(data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_supports_are_the_combinations_in_their_order(data):
    n = data.draw(st.integers(1, 20))
    q = data.draw(st.integers(1, n))
    count = math.comb(n, q)
    start = data.draw(st.integers(0, count - 1))
    stop = data.draw(st.integers(start, min(count, start + 5000)))
    expected = list(itertools.islice(itertools.combinations(range(n), q), start, stop))
    got = theory._supports(n, q, start, stop)
    assert got.dtype == np.int64 and got.shape == (stop - start, q)
    assert [tuple(row) for row in got.tolist()] == expected


@pytest.mark.parametrize("n", [255, 256, 257])
def test_ric_eigensolves_every_support_of_an_enumeration_of_at_most_256(n):
    A = np.random.default_rng(10).standard_normal((300, n)) / np.sqrt(300)
    gram = A.T @ A
    est = theory.ric_exact(A, 1)
    assert est.delta == _every_support_eigensolved(gram, 1)
    assert est.eigensolved == n if n <= 256 else theory._RIC_SEED <= est.eigensolved <= n
    full = theory.ric_exact(A[:, :12], 12)
    assert (full.supports_examined, full.eigensolved) == (1, 1)


@pytest.mark.parametrize("scale", [1.0, 0.8])  # delta from the largest, the smallest eigenvalue
def test_ric_eigensolves_few_supports_of_a_gaussian_matrix(scale):
    A = np.random.default_rng(11).standard_normal((400, 16)) * scale / 20.0
    est = theory.ric_exact(A, 8)
    assert est.supports_examined == 12870
    assert est.eigensolved <= est.supports_examined // 50  # 2%; measured 32 and 56
    assert est.delta == _every_support_eigensolved(A.T @ A, 8)


def test_ric_seeds_from_the_supports_farthest_from_the_identity():
    # Column 13 nearly repeats column 2, so every support holding both is
    # far from an isometry, and none of them comes early in lexicographic
    # order; the seed must find them.
    A = np.random.default_rng(14).standard_normal((400, 14)) / 20.0
    A[:, 13] = A[:, 2] + 1e-3 * A[:, 13]
    est = theory.ric_exact(A, 6)
    assert est.delta == _every_support_eigensolved(A.T @ A, 6)
    assert est.delta > 0.9
    assert est.eigensolved <= 2 * theory._RIC_SEED


@pytest.mark.parametrize("A, q", [
    (np.array([[1e160] * 6, [-1e160] * 6, [1.0, 0.0] * 3]), 2),  # A^T A overflows to inf
    (np.random.default_rng(15).standard_normal((5, 30)) * 1e155, 4),  # to inf and NaN
])
def test_ric_raises_a_numeric_failure_when_the_gram_matrix_overflows(A, q):
    with pytest.raises(FloatingPointError, match="overflows"):
        theory.ric_exact(A, q)
    with pytest.raises(FloatingPointError, match="overflows"):
        theory.highest_rip_order(A)


def test_eigvalsh_gives_a_matrix_the_same_bits_in_any_batch():
    # _ric eigensolves only the supports its certificate cannot rule out,
    # so a support's spectrum must not depend on what else is in its batch.
    A = np.random.default_rng(12).standard_normal((40, 14)) / np.sqrt(40)
    gram = A.T @ A
    idx = np.array(list(itertools.combinations(range(14), 6)), dtype=np.int64)
    blocks = gram[idx[:, :, None], idx[:, None, :]]
    whole = np.linalg.eigvalsh(blocks)
    for start, size in [(0, 1), (3, 1), (17, 5), (100, 256), (1001, 2002), (2900, 103)]:
        assert np.array_equal(np.linalg.eigvalsh(blocks[start:start + size]), whole[start:start + size])
    assert np.array_equal(np.linalg.eigvalsh(blocks[::7].copy()), whole[::7])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cholesky_certificate_agrees_with_the_spectrum_away_from_its_edge(sign):
    # bound I + sign (I - G_S) passes exactly when its smallest eigenvalue
    # is positive; matrices within 1e-9 of singular are left out
    rng = np.random.default_rng(13)
    A = rng.standard_normal((9, 12)) / 3.0
    gram = A.T @ A
    idx = np.array(list(itertools.combinations(range(12), 5)), dtype=np.int64)
    outcomes = set()
    for bound in (0.3, 0.8, 1.5, 3.0):
        shifted = bound * np.eye(5) + sign * (np.eye(5) - gram[idx[:, :, None], idx[:, None, :]])
        lowest = np.linalg.eigvalsh(shifted)[:, 0]
        far = np.abs(lowest) > 1e-9
        passed = theory._cholesky_completes(gram, idx.T.copy(), sign, bound)
        assert np.array_equal(passed[far], lowest[far] > 0)
        outcomes.update(passed[far].tolist())
    assert outcomes == {False, True}


def test_highest_rip_order_identity():
    assert theory.highest_rip_order(np.eye(5)) == 5


def test_highest_rip_order_duplicate_pair():
    A = np.zeros((4, 3))
    A[0, 0] = 1.0
    A[0, 1] = 1.0
    A[1, 2] = 1.0
    assert theory.highest_rip_order(A) == 1


def test_highest_rip_order_matches_full_table():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 12)) / np.sqrt(8)
    table = {t: theory.ric_exact(A, t).delta for t in range(1, 13)}
    expected = max([t for t, d in table.items() if d < 1.0], default=0)
    assert theory.highest_rip_order(A) == expected


def _bottom_up(A, cap=theory.DEFAULT_ENUMERATION_CAP):
    """The reference sweep: the first order whose exact RIC reaches 1."""
    n = A.shape[1]
    for t in range(1, n + 1):
        if theory.ric_exact(A, t, cap=cap).delta >= 1.0:
            return t - 1
    return n


def _outcome(order, A, cap=theory.DEFAULT_ENUMERATION_CAP):
    try:
        return order(A, cap=cap)
    except theory.EnumerationCapExceeded as exc:
        return str(exc)


def _unit_columns(m, n, seed=7):
    A = np.random.default_rng(seed).standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


def _with_column(A, j, column):
    A = A.copy()
    A[:, j] = column
    return A


TALL = _unit_columns(40, 8)
RIP_MATRICES = {
    "tall": TALL,
    "tall-middle-order": _unit_columns(10, 8),
    "square": _unit_columns(9, 9),
    "wide": _unit_columns(8, 12),
    "duplicate-column": _with_column(TALL, 7, TALL[:, 0]),
    "zero-column": _with_column(TALL, 2, 0.0),
}


@pytest.mark.parametrize("name", RIP_MATRICES)
def test_highest_rip_order_equals_the_bottom_up_sweep(name):
    A = RIP_MATRICES[name]
    assert theory.highest_rip_order(A) == _bottom_up(A)


def _count_ric(monkeypatch):
    orders = []
    original = theory._ric

    def counted(gram, q, cap):
        orders.append(q)
        return original(gram, q, cap)

    monkeypatch.setattr(theory, "_ric", counted)
    return orders


def _count_gram_eigensolves(monkeypatch, n):
    """The n x n eigensolves that highest_rip_order makes (the sweep's are
    batched, so 3-D)."""
    shapes = []
    original = np.linalg.eigvalsh

    def counted(H):
        shapes.append(np.shape(H))
        return original(H)

    monkeypatch.setattr(theory.np.linalg, "eigvalsh", counted)
    return lambda: [s for s in shapes if s == (n, n)]


def test_highest_rip_order_settles_a_full_rank_tall_matrix_from_the_gram(monkeypatch):
    # delta_20 < 1, so every order passes: past order 1 no support is
    # enumerated, and the cap that the middle orders (C(20, 10) = 184756
    # supports) exceed does not apply.  The sweep raises at order 3,
    # C(20, 3) = 1140 > 1000.
    A = np.random.default_rng(8).standard_normal((400, 20)) / 20.0
    orders = _count_ric(monkeypatch)
    gram_solves = _count_gram_eigensolves(monkeypatch, 20)
    assert theory.highest_rip_order(A, cap=1000) == 20
    assert orders == [1]
    assert len(gram_solves()) == 1
    with pytest.raises(theory.EnumerationCapExceeded) as err:
        _bottom_up(A, cap=1000)
    assert err.value.q == 3


def test_highest_rip_order_sweeps_when_delta_n_is_within_rounding_of_one(monkeypatch):
    # delta_3 = 1 - 1e-15 lies below 1 by less than the eigensolver's error
    # bound, so the sweep decides (and finds every order below 1).
    A = np.diag(np.sqrt([2.0 - 1e-15, 1.0, 1.0]))
    orders = _count_ric(monkeypatch)
    assert theory.highest_rip_order(A) == 3
    assert orders == [1, 2, 3]


def test_highest_rip_order_sweeps_when_delta_n_is_within_the_ric_margin_of_one(monkeypatch):
    # delta_3 = 1 - 4e-14 lies below 1 by less than tau(3) = 6.7e-14, the
    # margin _ric uses at order 3, though by more than the 2.2e-14 of
    # 2 (8n + 1) eps ||G||_2, so the sweep decides
    A = np.diag(np.sqrt([2.0 - 4e-14, 1.0, 1.0]))
    assert 4e-14 < theory._eig_margin(A.T @ A, 3)
    assert _bottom_up(A) == 3
    orders = _count_ric(monkeypatch)
    assert theory.highest_rip_order(A) == 3
    assert orders == [1, 2, 3]


@pytest.mark.parametrize("scale", [1.5, 0.0])
def test_highest_rip_order_stops_at_order_one_before_the_gram_eigensolve(monkeypatch, scale):
    # a tall A with a column of squared norm 2.25 or 0 has delta_1 >= 1: it
    # gets 0 from the n one-entry supports, as the sweep gives, and pays no
    # n x n eigensolve
    A = _with_column(TALL, 3, scale * TALL[:, 3])
    assert _bottom_up(A) == 0
    orders = _count_ric(monkeypatch)
    gram_solves = _count_gram_eigensolves(monkeypatch, 8)
    assert theory.highest_rip_order(A) == 0
    assert orders == [1]
    assert gram_solves() == []


def test_highest_rip_order_sweeps_a_tall_matrix_whose_delta_n_reaches_one(monkeypatch):
    # two unit columns at correlation 1 - 1e-3 give delta_2 < 1, and a
    # third with squared norm 1.9 pushes delta_3 past 1: the Gram test
    # fails and the sweep finds 2
    rng = np.random.default_rng(9)
    u, v = np.linalg.qr(rng.standard_normal((30, 3)))[0][:, :2].T
    c = 1 - 1e-3
    A = np.column_stack([u, c * u + np.sqrt(1 - c * c) * v, np.sqrt(1.9) * v])
    assert _bottom_up(A) == 2
    orders = _count_ric(monkeypatch)
    assert theory.highest_rip_order(A) == 2
    assert orders == [1, 2, 3]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cap", [50, 66, theory.DEFAULT_ENUMERATION_CAP])
def test_highest_rip_order_on_a_wide_matrix_matches_the_sweep_or_its_cap_error(monkeypatch, seed, cap):
    A = _unit_columns(5, 12, seed)
    expected = _outcome(_bottom_up, A, cap)
    orders = _count_ric(monkeypatch)
    gram_solves = _count_gram_eigensolves(monkeypatch, 12)
    assert _outcome(theory.highest_rip_order, A, cap) == expected
    assert orders
    assert gram_solves() == []  # a wide matrix skips the full-Gram test


def test_theta_orthogonal_measurements():
    # every column lives in coordinates 2..4, y in coordinate 0
    rng = np.random.default_rng(4)
    A = np.zeros((5, 6))
    A[2:, :] = rng.standard_normal((3, 6))
    y = np.zeros(5)
    y[0] = 3.5
    assert theory.theta_constant(A, y) == pytest.approx(3.5, abs=1e-12)


def test_theta_single_column_span():
    A = np.array([[2.0], [1.0]])
    y = 0.75 * A[:, 0]
    assert theory.theta_constant(A, y) == pytest.approx(0.0, abs=1e-12)


def test_theta_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.standard_normal((6, 8))
        y = rng.standard_normal(6)
        assert theory.theta_constant(A, y) == pytest.approx(
            theory.exhaustive_theta(A, y), abs=1e-10
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_theory_matrix_entry_points_reject_nonfinite_input(bad):
    # one bad entry used to give ric_exact a perfect isometry (delta 0 at
    # order 2) and theta_constant sqrt(y.y) on an all-NaN matrix
    A = np.random.default_rng(6).standard_normal((6, 5))
    A[2, 3] = bad
    y = np.ones(6)
    with pytest.raises(ValueError, match="NaN or Inf"):
        theory.ric_exact(A, 2)
    with pytest.raises(ValueError, match="NaN or Inf"):
        theory.highest_rip_order(A)
    with pytest.raises(ValueError, match="NaN or Inf"):
        theory.theta_constant(np.full((6, 5), bad), y)
    y[0] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        theory.theta_constant(np.eye(6, 5), y)


def test_domp_ric_bound_monotone_in_gamma_and_k():
    gammas = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    for k in (1, 5, 50, 100):
        values = [theory.domp_ric_bound(k, g) for g in gammas]
        assert all(b < a for a, b in zip(values, values[1:]))
    for g in gammas:
        values = [theory.domp_ric_bound(k, g) for k in (1, 2, 5, 20, 100)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_domp_ric_bound_validation():
    with pytest.raises(ValueError):
        theory.domp_ric_bound(10, 0.0)
    with pytest.raises(ValueError):
        theory.domp_ric_bound(10, 1.5)


def test_edomp_ric_bound_frozen_values():
    # frozen from direct high-precision evaluation of the closed form
    assert theory.edomp_ric_bound(100, 0.9) == pytest.approx(0.0612325, abs=1e-4)
    assert theory.edomp_ric_bound(100, 1e-9) == pytest.approx(0.2840790, abs=1e-4)


def test_edomp_bound_strictly_below_domp_bound():
    for k in (1, 3, 10, 100):
        for g in (0.05, 0.3, 0.6, 0.9, 1.0):
            assert theory.edomp_ric_bound(k, g) < theory.domp_ric_bound(k, g)


def test_bound_constants_at_zero_delta():
    consts = theory.bound_constants(0.0, k=7, gamma=0.5, sigma=1e8, matrix_norm=3.0, theta=1.0)
    assert consts.beta == 0.0
    assert consts.varrho == 1.0
    assert consts.c1 == 2.0
    # geometric sum collapses to k at varrho = 1
    assert consts.tau == pytest.approx(2.0 * 7 + consts.c2, abs=1e-12)
    assert consts.beta_lt_one and consts.beta_star_lt_one


def test_bound_constants_beta_below_one_at_threshold():
    for k, g in [(1, 0.9), (10, 0.5), (100, 0.9), (40, 0.1)]:
        edge = theory.domp_ric_bound(k, g) - 1e-6
        consts = theory.bound_constants(edge, k, g, sigma=1e8, matrix_norm=1.0, theta=1.0)
        assert consts.beta < 1.0


def test_bound_constants_cross_derived():
    # independent re-derivation of beta and tau through different expressions
    delta, k, g = 0.05, 10, 0.9
    consts = theory.bound_constants(delta, k, g, sigma=1e8, matrix_norm=2.0, theta=1.5)
    beta_again = (1 + math.hypot(1.0, math.sqrt(k) * g)) * delta / math.sqrt((1 - delta) * (1 + delta))
    assert consts.beta == pytest.approx(beta_again, rel=1e-12)
    assert consts.beta == pytest.approx((1 + math.sqrt(9.1)) * 0.05 / math.sqrt(1 - 0.0025), rel=1e-12)
    tau_again = consts.c1 * sum(consts.varrho**i for i in range(k)) + consts.c2 / (1 - consts.beta)
    assert consts.tau == pytest.approx(tau_again, rel=1e-10)
    # thresholded-variant constants inflate by the golden-ratio factor
    inflate = consts.eta / math.sqrt(1 - delta**2)
    assert consts.beta_star == pytest.approx(inflate * consts.beta, rel=1e-12)


def test_bound_threshold_consistency_grid():
    for k in (1, 4, 25, 100):
        for g in (0.1, 0.4, 0.7, 1.0):
            edge = theory.domp_ric_bound(k, g)
            below = theory.bound_constants(edge - 1e-9, k, g, 1e8, 1.0, 1.0)
            above = theory.bound_constants(min(edge + 1e-9, 1 - 1e-12), k, g, 1e8, 1.0, 1.0)
            assert below.beta < 1.0 <= above.beta
            star_edge = theory.edomp_ric_bound(k, g)
            below = theory.bound_constants(star_edge - 1e-9, k, g, 1e8, 1.0, 1.0)
            above = theory.bound_constants(star_edge + 1e-9, k, g, 1e8, 1.0, 1.0)
            assert below.beta_star < 1.0 <= above.beta_star


def test_bound_constants_validation():
    with pytest.raises(ValueError):
        theory.bound_constants(1.0, 5, 0.9, 1e8, 1.0, 1.0)
    with pytest.raises(ValueError):
        theory.bound_constants(-0.1, 5, 0.9, 1e8, 1.0, 1.0)
    with pytest.raises(ValueError):
        theory.bound_constants(0.5, 5, 0.9, 0.0, 1.0, 1.0)


def test_rate_constants_are_the_bound_constants_of_delta_k_and_gamma():
    consts = theory.bound_constants(0.3, 4, 0.9, sigma=1e8, matrix_norm=2.0, theta=1.5)
    rates = theory._rate_constants(0.3, 4, 0.9)
    assert rates == {key: getattr(consts, key) for key in rates}
    assert set(rates) >= {"beta", "tau", "varrho", "beta_star", "tau_star"}


def test_proximity_constant_shrinks_with_sigma():
    c1 = theory.bound_constants(0.1, 5, 0.9, 1e8, 2.0, 1.0).proximity_constant
    c2 = theory.bound_constants(0.1, 5, 0.9, 2e8, 2.0, 1.0).proximity_constant
    assert c2 < c1


def test_projection_proximity_trivial_when_nothing_penalized():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((10, 20))
    y = rng.standard_normal(10)
    # declaring every index as part of the true support empties the
    # penalized set, so both projections coincide
    check = theory.verify_projection_proximity(
        A, y, support=[], selected=[3], k=4, sigma=1e10, true_support=range(20)
    )
    assert check.penalized_size == 0
    assert check.lhs <= 1e-8
    assert check.passed


@pytest.mark.parametrize("k", [0, 13])
def test_projection_proximity_rejects_a_sparsity_outside_one_to_n(k):
    rng = np.random.default_rng(6)
    A = rng.standard_normal((40, 12))
    y = rng.standard_normal(40)
    with pytest.raises(ValueError, match=rf"sparsity k={k} must lie in \[1, n\] for n=12 columns"):
        theory.verify_projection_proximity(A, y, [], [3], k, 1.0)


def test_projection_proximity_suite_clean():
    summary = theory.projection_proximity_suite(40, seed=2024)
    assert summary.violations == 0
    assert summary.min_slack is not None and summary.min_slack >= 0


def test_recovery_bound_gate_failure_is_inconclusive():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 12)) / np.sqrt(8)
    x = np.zeros(12)
    x[4] = 1.0
    check = theory.verify_recovery_bound(A, x, np.zeros(8), k=1, gamma=0.9, c=3)
    assert not check.applicable
    assert check.passed is None
    assert check.delta >= check.delta_limit


def test_recovery_bound_holds_on_gated_tall_instances():
    summary = theory.recovery_bound_suite(
        12, seed=99, m=300, n=12, k=2, c=4, gamma=0.9, algorithm="domp"
    )
    assert summary.violations == 0
    assert summary.instances - summary.inconclusive >= 2
    assert summary.min_slack is not None and summary.min_slack >= 0


def test_recovery_bound_holds_with_noise():
    summary = theory.recovery_bound_suite(
        12, seed=100, m=300, n=12, k=2, c=4, gamma=0.9, algorithm="domp", noise_amplitude=0.02
    )
    assert summary.violations == 0
    assert summary.instances - summary.inconclusive >= 2


def test_recovery_bound_thresholded_variant():
    summary = theory.recovery_bound_suite(
        10, seed=101, m=800, n=12, k=2, c=4, gamma=0.9, algorithm="edomp"
    )
    assert summary.violations == 0
    assert summary.instances - summary.inconclusive >= 2
    assert summary.min_slack is not None and summary.min_slack >= 0


@pytest.mark.parametrize("algorithm", ["domp", "edomp"])
def test_recovery_bound_suites_check_something_at_their_defaults(algorithm):
    summary = theory.recovery_bound_suite(5, 1, algorithm=algorithm)
    assert summary.parameters["m"] == 800
    assert summary.inconclusive == 0
    assert summary.min_slack is not None


def test_recovery_bound_rejects_bad_inputs():
    A = np.eye(4)
    with pytest.raises(ValueError):
        theory.verify_recovery_bound(A, np.ones(4), np.zeros(4), 1, 0.9, c=2)
    with pytest.raises(ValueError):
        theory.verify_recovery_bound(A, np.ones(4), np.zeros(4), 1, 0.9, c=3, algorithm="omp")
    with pytest.raises(ValueError, match=r"c\*k = 6 \(c=3, k=2\) exceeds n=4"):
        theory.verify_recovery_bound(A, np.ones(4), np.zeros(4), 2, 0.9, c=3)
    with pytest.raises(ValueError, match=r"sparsity k=0 must lie in \[1, n\] for n=4 columns"):
        theory.verify_recovery_bound(A, np.ones(4), np.zeros(4), 0, 0.9, c=3)


def test_recovery_bound_checks_gamma_before_the_ric(monkeypatch):
    monkeypatch.setattr(theory, "_ric", lambda *a: pytest.fail("the RIC was enumerated"))
    with pytest.raises(ValueError, match="gamma must lie in"):
        theory.verify_recovery_bound(np.eye(4), np.ones(4), np.zeros(4), 1, 0.0, c=3)


@pytest.mark.parametrize("bad,message", [
    ({"c": 2}, "c must exceed 2, got 2"),
    ({"gamma": 0.0}, r"gamma must lie in \(0, 1\], got 0.0"),
    ({"gamma": -1.0}, r"gamma must lie in \(0, 1\], got -1.0"),
    ({"algorithm": "omp"}, "applies to the dynamic-selection solvers"),
    ({"m": 0}, "m must be at least 1, got 0"),
    ({"m": -1}, "m must be at least 1, got -1"),
], ids=["c", "gamma-zero", "gamma-negative", "algorithm", "m-zero", "m-negative"])
def test_recovery_bound_suite_checks_its_inputs_before_trial_zero(monkeypatch, bad, message):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    with pytest.raises(ValueError, match=message):
        theory.recovery_bound_suite(3, 1, **bad)


@pytest.mark.parametrize("bad,message", [
    ({"gamma": 0.0}, r"gamma must lie in \(0, 1\], got 0.0"),
    ({"gamma": 1.5}, r"gamma must lie in \(0, 1\], got 1.5"),
    ({"m": 0}, "m must be at least 1, got 0"),
], ids=["gamma-zero", "gamma-above-one", "m-zero"])
def test_projection_proximity_suite_checks_its_inputs_before_trial_zero(monkeypatch, bad, message):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    with pytest.raises(ValueError, match=message):
        theory.projection_proximity_suite(3, 1, **bad)


def test_recovery_bound_suite_rejects_an_order_above_n_before_trial_zero(monkeypatch):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    with pytest.raises(ValueError, match=r"c\*k = 15 \(c=3, k=5\) exceeds n=12"):
        theory.recovery_bound_suite(1, 1, k=5, c=3)


def test_recovery_bound_reads_neither_the_norm_nor_theta(monkeypatch):
    # the bound reads only constants of (delta, k, gamma)
    def unused(*args):
        raise AssertionError("the recovery bound does not read ||A||_2 or theta")

    monkeypatch.setattr(linalg, "_spectral_norm", unused)
    monkeypatch.setattr(theory, "_theta", unused)
    A = np.random.default_rng(33).standard_normal((80, 6)) / np.sqrt(80)
    x = np.zeros(6)
    x[2] = 1.0
    check = theory.verify_recovery_bound(A, x, np.zeros(80), 1, 0.9, 3)
    assert check.applicable
    assert check.passed


def test_threshold_inequality_zero_slope_edge():
    # with a1 = 0 the premise is t <= a3 and the first conclusion matches it
    rng = np.random.default_rng(8)
    for _ in range(20):
        a3 = float(rng.uniform(0, 4))
        t = float(rng.uniform(0, a3)) if a3 > 0 else 0.0
        assert t <= 0.0 * math.sqrt(t * t + 1.0) + a3
        assert t <= a3 / (1 - 0.0)


def test_thresholding_distance_zero_edge():
    z = np.array([1.0, 0.0, -2.0, 0.0])
    hk = linalg.hard_threshold(z, 2)
    assert np.linalg.norm(z - hk) == 0.0


def test_auxiliary_inequality_suite_clean():
    summary = theory.auxiliary_inequality_suite(100, seed=31337)
    assert summary.violations == 0
    assert summary.inconclusive == 0
    assert summary.min_slack is not None and summary.min_slack >= 0


def test_theta_equivalence_suite_clean():
    summary = theory.theta_equivalence_suite(10, seed=555)
    assert summary.violations == 0


def test_ric_monotonicity_suite_clean():
    summary = theory.ric_monotonicity_suite(10, seed=556)
    assert summary.violations == 0


def test_summary_json_roundtrip():
    import json

    summary = theory.theta_equivalence_suite(3, seed=1)
    payload = json.loads(summary.to_json())
    assert payload["suite"] == "theta"
    assert payload["instances"] == 3
    assert payload["violations"] == 0
    assert "seed" in payload and "parameters" in payload


def test_threshold_inequality_premise_failure_raises():
    # a sampler bug (here a "uniform" draw above 1) must raise, not be
    # scored as a violation, and must not depend on assert statements
    class StubRng:
        def __init__(self):
            self.draws = iter([0.5, 1.0, 1.0, 1.5])

        def uniform(self, low, high):
            return next(self.draws)

    with pytest.raises(RuntimeError):
        theory._threshold_inequality_trial(StubRng())


@pytest.mark.parametrize("suite", [theory.projection_proximity_suite, theory.recovery_bound_suite])
def test_suites_check_sparsity_before_trial_zero(monkeypatch, suite):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    with pytest.raises(ValueError, match="k=40.*n=30"):
        suite(1, 0, m=15, n=30, k=40)
    with pytest.raises(ValueError, match="k=0"):
        suite(1, 0, m=15, n=30, k=0)


@pytest.mark.parametrize("suite", [
    theory.projection_proximity_suite,
    theory.recovery_bound_suite,
    theory.auxiliary_inequality_suite,
    theory.theta_equivalence_suite,
    theory.ric_monotonicity_suite,
])
@pytest.mark.parametrize("trials", [0, -1])
def test_suites_reject_fewer_than_one_trial_before_trial_zero(monkeypatch, suite, trials):
    monkeypatch.setattr(theory, "_trial_rng", lambda *a: pytest.fail("a trial started"))
    with pytest.raises(ValueError, match=f"at least one trial, got {trials}"):
        suite(trials, 1)


def test_recovery_bound_suite_rejects_nonfinite_noise():
    with pytest.raises(ValueError, match="finite"):
        theory.recovery_bound_suite(1, 0, noise_amplitude=float("nan"))
