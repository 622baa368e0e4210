import itertools
import math

import numpy as np
import pytest

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
