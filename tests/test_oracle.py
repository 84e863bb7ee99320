"""Oracle tests: the three moment routes (enumeration, collapse, Monte
Carlo) against each other and against plain-Python brute force."""

import math
import warnings
from itertools import product

import numpy as np
import pytest
from scipy.special import gammaln

from stablebounds.oracle import (MomentSpec, SignFunction, collapse_lp,
                                 constant_function, coordinate_function,
                                 empirical_tail, enumerate_lp,
                                 hitczenko_functional,
                                 latala_allones_estimate,
                                 log_binomial_weights, mc_lp, sign_matrix,
                                 sum_function, weighted_sum_function)


def brute_force_lp(n, scalar_f, p):
    """Independent plain-Python oracle: loop over all 2^n sign tuples."""
    total = 0.0
    for z in product((-1, 1), repeat=n):
        total += abs(scalar_f(z)) ** p
    return (total / 2 ** n) ** (1.0 / p)


class TestEnumerateLp:
    def test_sum_two_coordinates_fourth_moment(self):
        # outcomes +-2, 0, 0 -> E|S|^4 = 8
        assert enumerate_lp(sum_function(2), 4) == pytest.approx(8 ** 0.25, rel=1e-12)

    def test_constant_function_any_p(self):
        f = constant_function(5, -3.5)
        for p in (1, 2, 3.5, 7):
            assert enumerate_lp(f, p) == pytest.approx(3.5, rel=1e-12)

    def test_single_coordinate_is_one(self):
        for p in (1, 2, 5):
            assert enumerate_lp(coordinate_function(4, 2), p) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,p", [(3, 1), (5, 2), (8, 3), (8, 7)])
    def test_matches_plain_python_brute_force(self, n, p):
        f = SignFunction(n, lambda rows: rows.sum(axis=1) ** 3 - 2.0 * rows[:, 0])
        expected = brute_force_lp(n, lambda z: sum(z) ** 3 - 2.0 * z[0], p)
        assert enumerate_lp(f, p) == pytest.approx(expected, rel=1e-12)

    def test_rejects_oversized_arity(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_lp(sum_function(27), 2)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError, match="p must be"):
            enumerate_lp(sum_function(3), 0.5)

    def test_lp_monotone_in_p(self):
        f = SignFunction(6, lambda rows: rows.sum(axis=1) ** 2 - 6.0)
        norms = [enumerate_lp(f, p) for p in range(1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_streamed_path_beyond_cache(self):
        # arity 22 exceeds the cached-matrix range and runs the chunked
        # enumeration with the range-ordered pairwise reduction
        f = sum_function(22)
        assert enumerate_lp(f, 2) == pytest.approx(math.sqrt(22.0), rel=1e-10)
        assert enumerate_lp(f, 3) == pytest.approx(
            collapse_lp(lambda s: s, 22, 3), rel=1e-10)

    def test_large_p_overflow_is_scaled(self):
        # 0.65^1024 * 8^1024 overflows float64; the collapse works in log space
        f = SignFunction(16, lambda rows: 0.65 * rows[:, 8:16].sum(axis=1, dtype=np.float64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = enumerate_lp(f, 1024)
        assert value == pytest.approx(5.175419065859016, rel=1e-12)
        assert value == pytest.approx(collapse_lp(lambda s: 0.65 * s, 8, 1024), rel=1e-12)

    def test_large_p_underflow_is_scaled(self):
        # 0.65^2000 underflows to 0 while max|f| > 0
        assert enumerate_lp(constant_function(4, 0.65), 2000) == pytest.approx(0.65, rel=1e-12)

    @pytest.mark.parametrize("scale,p", [(0.65, 1024), (1e-300, 4)])
    def test_streamed_path_is_scaled_per_block(self, scale, p):
        # arity 21 streams 32 blocks; z_17..z_20 are constant within each,
        # so f is 0 on 12 of them, and max|f| sits in neither end block
        w = scale * np.array([1.0, 1.0, 1.0, -1.0])
        f = SignFunction(21, lambda rows: rows[:, 17:21] @ w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = enumerate_lp(f, p)
        assert value == pytest.approx(collapse_lp(lambda s: scale * s, 4, p), rel=1e-12)

    def test_streamed_tail_beyond_cache(self):
        # P(|S| >= 22) = 2^-21 for 22 coordinates, via the chunked counter
        assert empirical_tail(sum_function(22), 22.0) == pytest.approx(2.0 ** -21)


class TestCollapseLp:
    def test_plain_sum_n100(self):
        assert collapse_lp(lambda s: s, 100, 2) == pytest.approx(10.0, rel=1e-12)

    def test_square_shift_n2(self):
        # |S^2 - 2| is identically 2 on outcomes of S for n = 2
        assert collapse_lp(lambda s: s * s - 2.0, 2, 3) == pytest.approx(2.0, rel=1e-12)

    def test_square_shift_n4(self):
        # E (S^2 - n)^2 = 2n(n-1) = 24
        assert collapse_lp(lambda s: s * s - 4.0, 4, 2) == pytest.approx(
            math.sqrt(24.0), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 14, 17, 20])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8, 10])
    def test_agrees_with_enumeration(self, n, p):
        g = lambda s: 0.5 * s + 0.25 * (s * s - n)
        f = SignFunction(n, lambda rows: g(rows.sum(axis=1, dtype=np.float64)))
        a = enumerate_lp(f, p)
        b = collapse_lp(g, n, p)
        assert b == pytest.approx(a, rel=1e-10)

    def test_huge_values_no_overflow(self):
        # |g|^p overflows float64 head-on; the log-space path must not
        val = collapse_lp(lambda s: 5.0 * (s * s - 1024.0), 1024, 64)
        assert np.isfinite(val) and val > 0

    def test_zero_function(self):
        assert collapse_lp(lambda s: 0.0 * s, 6, 2) == 0.0

    def test_log_terms_out_of_range(self):
        # p * log|g| overflows (max|g| = 4 > 1) or underflows (max|g| = 4e-300)
        # to +-inf; the norm tends to max|g| as p grows
        assert collapse_lp(lambda s: s, 4, 1e308) == 4.0
        assert collapse_lp(lambda s: 1e-300 * s, 4, 1e306) == 4e-300

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            collapse_lp(lambda s: s, 4, p)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="non-finite"):
            with np.errstate(divide="ignore"):
                collapse_lp(lambda s: 1.0 / (s + 4.0), 4, 2)   # pole at s = -4


class TestLogBinomialWeights:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 16384])
    def test_equals_gammaln_formula(self, n):
        k = np.arange(n + 1, dtype=np.float64)
        expected = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                    - n * math.log(2.0))
        assert np.array_equal(log_binomial_weights(n), expected)

    def test_read_only_and_shared(self):
        w = log_binomial_weights(9)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert log_binomial_weights(9) is w


class TestMonteCarlo:
    def test_constant_is_exact_with_zero_spread(self):
        est = mc_lp(constant_function(4, 3.0), MomentSpec(p=2, reps=1000, seed=7))
        assert est.value == pytest.approx(3.0, abs=0)
        assert est.spread == 0.0

    def test_single_coordinate_is_exact(self):
        est = mc_lp(coordinate_function(6, 1), MomentSpec(p=2, reps=2000, seed=7))
        assert est.value == pytest.approx(1.0, abs=0)
        assert est.batch_median == 1.0

    def test_converges_to_enumeration(self):
        f = sum_function(16)
        exact = enumerate_lp(f, 2)
        assert exact == pytest.approx(4.0, rel=1e-12)
        est = mc_lp(f, MomentSpec(p=2, reps=100_000, seed=3))
        assert abs(est.batch_median - exact) <= 3 * est.spread

    @pytest.mark.parametrize("f,p", [
        (sum_function(20), 4),
        (weighted_sum_function([2.0 ** -i for i in range(12)]), 3),
        (SignFunction(14, lambda rows: (rows.sum(axis=1, dtype=np.float64) ** 2
                                        - 14.0)), 2),
    ])
    def test_median_within_three_spreads(self, f, p):
        exact = enumerate_lp(f, p)
        est = mc_lp(f, MomentSpec(p=p, reps=40_000, seed=8))
        assert abs(est.batch_median - exact) <= 3 * est.spread

    def test_same_seed_same_result(self):
        f = sum_function(10)
        spec = MomentSpec(p=3, reps=5000, seed=42)
        assert mc_lp(f, spec).value == mc_lp(f, spec).value

    def test_rejects_few_reps(self):
        with pytest.raises(ValueError, match="reps"):
            MomentSpec(p=2, reps=99)


class TestEmpiricalTail:
    def test_single_coordinate(self):
        assert empirical_tail(coordinate_function(3, 0), 0.5) == 1.0

    def test_sum_of_two(self):
        # only the outcomes +-2 reach 1
        assert empirical_tail(sum_function(2), 1.0) == 0.5

    def test_threshold_zero(self):
        assert empirical_tail(sum_function(5), 0.0) == 1.0

    def test_montecarlo_branch_beyond_cap(self):
        f = SignFunction(30, lambda rows: rows[:, 0].astype(float))
        assert empirical_tail(f, 0.5, reps=500, seed=1) == 1.0

    def test_matches_enumeration_probability(self):
        # P(|S| >= 2) for n = 4: S in {-4,.. ,4}, |S| >= 2 misses only S = 0
        expected = 1.0 - math.comb(4, 2) / 16.0
        assert empirical_tail(sum_function(4), 2.0) == pytest.approx(expected, abs=0)


class TestHitczenkoFunctional:
    def test_three_weights_p1(self):
        assert hitczenko_functional([3, 2, 1], 1) == pytest.approx(
            3 + math.sqrt(5), rel=1e-12)

    def test_flat_weights_p2(self):
        assert hitczenko_functional([1, 1, 1, 1], 2) == pytest.approx(4.0, rel=1e-12)
        exact = enumerate_lp(weighted_sum_function([1, 1, 1, 1]), 2)
        assert exact == pytest.approx(2.0, rel=1e-12)
        assert exact / 4.0 == pytest.approx(0.5, rel=1e-12)

    def test_single_weight_matches_exact(self):
        for p in (1, 2, 3, 6):
            assert hitczenko_functional([1, 0, 0, 0], p) == pytest.approx(1.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            hitczenko_functional([1, -1], 2)

    def test_unsorted_input_is_sorted_internally(self):
        assert hitczenko_functional([1, 3, 2], 1) == hitczenko_functional([3, 2, 1], 1)

    def test_two_sided_equivalence_window(self):
        # the equivalence constant is absolute but not explicit; measure it
        grids = [
            [1.0] * 4, [1.0] * 8, [1.0] * 12,
            [2.0 ** -i for i in range(8)],
            [3, 2, 1], [1] + [0.1] * 10, [5, 1, 1, 1, 1, 1],
        ]
        ratios = []
        for weights in grids:
            f = weighted_sum_function(weights)
            for p in (1, 2, 3, 4, 6, 8):
                ratios.append(enumerate_lp(f, p) / hitczenko_functional(weights, p))
        lo, hi = min(ratios), max(ratios)
        print(f"hitczenko ratio window on shipped grid: [{lo:.4f}, {hi:.4f}]")
        assert 0.2 <= lo and hi <= 3.0


class TestLatalaAllOnes:
    def test_direct_substitution(self):
        assert latala_allones_estimate(4, 2) == pytest.approx(
            8 + 4 + 4 * math.sqrt(2), rel=1e-12)
        assert latala_allones_estimate(2, 1) == pytest.approx(
            2 + math.sqrt(2) + 2, rel=1e-12)

    def test_dominates_exact_second_moment(self):
        # sum_{i != j} Z_i Z_j = S^2 - n has L2 norm sqrt(2n(n-1))
        for n in (2, 4, 8, 16):
            exact = collapse_lp(lambda s: s * s - n, n, 2)
            assert exact == pytest.approx(math.sqrt(2 * n * (n - 1)), rel=1e-12)
            assert exact <= latala_allones_estimate(n, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n must be"):
            latala_allones_estimate(1, 2)


class TestSignMatrix:
    def test_shape_and_entries(self):
        m = sign_matrix(5)
        assert m.shape == (32, 5)
        assert set(np.unique(m)) == {-1, 1}
        # rows are distinct
        assert len({tuple(r) for r in m.tolist()}) == 32

    def test_cached_matrix_is_read_only(self):
        m = sign_matrix(5)
        with pytest.raises(ValueError):
            m[0, 0] = 1
        assert sign_matrix(5)[0, 0] == -1

    def test_rejects_arity_above_matrix_cap(self):
        # the whole matrix is held only up to n = 20; enumerate_lp streams
        # beyond that (TestEnumerateLp.test_streamed_path_beyond_cache)
        with pytest.raises(ValueError, match="cap"):
            sign_matrix(21)
