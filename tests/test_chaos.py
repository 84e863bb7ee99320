"""Chaos family tests: the construction's defining identities, its moment
norms against both oracles, and the anti-concentration certificates."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablebounds.bounds import dyadic_sum_moment_bound, second_moment_bound
from stablebounds.chaos import (ChaosParams, chaos_g, chaos_lp, chaos_sum,
                                chaos_sum_function, lower_ratio,
                                paley_zygmund_certificate, second_moment_exact,
                                tail_probability, verify_chaos_conditions)
from stablebounds.oracle import empirical_tail, enumerate_lp, sign_matrix

GRID = [ChaosParams(n, M, beta)
        for n, M, beta in product((2, 3, 4, 6, 8), (0.0, 0.5, 1.0), (0.0, 1.0, 2.5))
        if (M, beta) != (0.0, 0.0)]


class TestChaosG:
    def test_direct_substitution(self):
        params = ChaosParams(2, 1.0, 2.0)
        assert chaos_g(0, [1, 1], params) == pytest.approx(2.0)

    def test_beta_zero_is_linear(self):
        params = ChaosParams(4, 1.5, 0.0)
        for z in sign_matrix(4):
            for i in range(4):
                assert chaos_g(i, z, params) == pytest.approx(1.5 * z[i])

    def test_pure_chaos_term(self):
        # i = 1 (0-based), z = (+1, -1, +1): (beta/2) * (-1) * 2 = -beta
        for beta in (2.0, 3.0):
            params = ChaosParams(3, 0.0, beta)
            assert chaos_g(1, [1, -1, 1], params) == pytest.approx(-beta)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            chaos_g(3, [1, 1, 1], ChaosParams(3, 1.0, 1.0))


class TestChaosSum:
    def test_pure_quadratic_n2(self):
        params = ChaosParams(2, 0.0, 2.0)
        values = {chaos_sum(z, params) for z in map(tuple, sign_matrix(2))}
        assert values == {2.0, -2.0}

    def test_beta_zero_reduces_to_plain_sum(self):
        params = ChaosParams(5, 1.0, 0.0)
        for z in sign_matrix(5)[::7]:
            assert chaos_sum(z, params) == pytest.approx(float(z.sum()))

    def test_all_ones_vector(self):
        n, beta = 6, 1.5
        params = ChaosParams(n, 0.0, beta)
        assert chaos_sum([1] * n, params) == pytest.approx(0.5 * beta * (n * n - n))

    @pytest.mark.parametrize("params", GRID[::3])
    def test_identity_with_direct_sum(self, params):
        # spec-level invariant: closed form equals sum of chaos_g to 1e-12
        for z in sign_matrix(params.n):
            direct = sum(chaos_g(i, z, params) for i in range(params.n))
            assert abs(direct - chaos_sum(z, params)) <= 1e-12


class TestVerifyConditions:
    @pytest.mark.parametrize("params", GRID)
    def test_all_hypotheses_hold_exactly(self, params):
        report = verify_chaos_conditions(params)
        assert report.worst == 0.0
        assert report.passed

    def test_uniform_bound_attained(self):
        # max |g_i| = beta*(n-1)/2 = 3 at n = 4, beta = 2, M = 0
        params = ChaosParams(4, 0.0, 2.0)
        assert params.uniform_bound == pytest.approx(3.0)
        worst = max(abs(chaos_g(i, z, params))
                    for z in sign_matrix(4) for i in range(4))
        assert worst == pytest.approx(3.0)

    def test_rejects_oversized_n(self):
        with pytest.raises(ValueError, match="cap"):
            verify_chaos_conditions(ChaosParams(27, 1.0, 1.0))

    def test_rejects_n_above_matrix_cap(self):
        # the enumeration of the n - 1 other coordinates holds sign_matrix(n - 1)
        with pytest.raises(ValueError, match="cap"):
            verify_chaos_conditions(ChaosParams(22, 1.0, 1.0))

    @pytest.mark.parametrize("M,beta", [(0.0, 1.0), (1.0, 0.0), (2.5, 3.0)])
    def test_single_coordinate(self, M, beta):
        # no other coordinates: g_0 = M*z_0, and every violation is 0
        report = verify_chaos_conditions(ChaosParams(1, M, beta))
        assert (report.conditional_centering, report.conditional_mean,
                report.bounded_difference, report.uniform_bound) == (0.0, 0.0, 0.0, 0.0)
        assert report.passed


def _per_coordinate_reference(params):
    """The four hypotheses evaluated for every coordinate i separately, from
    ``chaos_g`` on every sign vector (row r of ``sign_matrix`` with z_j
    flipped is row r ^ (1 << j))."""
    n, M, beta = params.n, params.M, params.beta
    zs = sign_matrix(n)
    rows = np.arange(1 << n)
    g = np.array([[chaos_g(i, z, params) for i in range(n)] for z in zs])
    center = mean = bdiff = 0.0
    for i in range(n):
        flipped_i = g[rows ^ (1 << i), i]
        center = max(center, float(np.max(np.abs(0.5 * (g[:, i] + flipped_i)))))
        for zi in (1, -1):
            mean = max(mean, abs(abs(float(np.mean(g[zs[:, i] == zi, i]))) - M))
        for j in range(n):
            if j != i:
                diff = float(np.max(np.abs(g[:, i] - g[rows ^ (1 << j), i])))
                bdiff = max(bdiff, max(diff - beta, 0.0))
    unif = abs(float(np.max(np.abs(g))) - params.uniform_bound)
    return center, mean, bdiff, unif


_QUARTERS = st.integers(0, 80).map(lambda k: k / 4)
_REALS = st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)


class TestVerifyConditionsPerCoordinate:
    """One conditioning pass stands for every coordinate because the family
    is exchangeable; this checks that against each coordinate evaluated on
    its own."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), M=st.one_of(_QUARTERS, _REALS),
           beta=st.one_of(_QUARTERS, _REALS))
    def test_matches_every_coordinate(self, n, M, beta):
        params = ChaosParams(n, M, beta)
        report = verify_chaos_conditions(params)
        got = (report.conditional_centering, report.conditional_mean,
               report.bounded_difference, report.uniform_bound)
        expected = _per_coordinate_reference(params)
        if (4 * M).is_integer() and (4 * beta).is_integer():
            assert got == expected == (0.0, 0.0, 0.0, 0.0)
        else:
            tol = 1e-12 * max(1.0, params.uniform_bound)
            assert got == pytest.approx(expected, abs=tol)


class TestChaosLp:
    def test_constant_magnitude_family(self):
        params = ChaosParams(2, 0.0, 2.0)
        for p in (1, 2, 3.5, 8):
            assert chaos_lp(params, p) == pytest.approx(2.0, rel=1e-12)

    def test_linear_family_second_moment(self):
        for n in (4, 25, 100):
            assert chaos_lp(ChaosParams(n, 1.0, 0.0), 2) == pytest.approx(
                math.sqrt(n), rel=1e-12)

    def test_mixed_second_moment_closed_form(self):
        params = ChaosParams(4, 1.0, 1.0)
        assert chaos_lp(params, 2) == pytest.approx(math.sqrt(10.0), rel=1e-10)
        assert chaos_lp(params, 2) == pytest.approx(second_moment_exact(params), rel=1e-10)

    @pytest.mark.parametrize("params", GRID[::2])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_agrees_with_enumeration(self, params, p):
        assert chaos_lp(params, p) == pytest.approx(
            enumerate_lp(chaos_sum_function(params), p), rel=1e-10)

    def test_extreme_p_tends_to_max(self):
        # p * log|f| overflows at p = 1e308; max|f| = M*n + beta*n*(n-1)/2 = 10
        assert chaos_lp(ChaosParams(4, 1.0, 1.0), 1e308) == 10.0
        with pytest.raises(ValueError, match="finite"):
            chaos_lp(ChaosParams(4, 1.0, 1.0), math.inf)

    def test_second_moment_beyond_squares(self):
        # M^2 overflows, the root sqrt(10) * 1e300 does not
        assert second_moment_exact(ChaosParams(4, 1e300, 1e300)) == 3.1622776601683795e300
        assert second_moment_exact(ChaosParams(4, 1e300, 0.0)) == 2e300

    @pytest.mark.parametrize("params", GRID)
    def test_second_moment_identity_and_bound(self, params):
        exact = chaos_lp(params, 2)
        assert exact == pytest.approx(second_moment_exact(params), rel=1e-10)
        assert exact <= second_moment_bound(params.n, params.beta, params.M) + 1e-12

    @pytest.mark.parametrize("params", GRID)
    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
    def test_dominated_by_dyadic_bound(self, params, p):
        bound = dyadic_sum_moment_bound(p, params.n, params.beta, params.M).value
        assert chaos_lp(params, p) <= bound * (1 + 1e-12)


class TestLowerRatio:
    def test_pure_chaos_small_case(self):
        # ||(1/2)(S^2-4)||_2 / (2*4*1) = (sqrt(24)/2) / 8
        got = lower_ratio(ChaosParams(4, 0.0, 1.0), 2)
        assert got == pytest.approx(math.sqrt(24.0) / 16.0, rel=1e-10)
        assert got == pytest.approx(0.30619, abs=1e-5)

    def test_linear_family_is_inverse_sqrt2(self):
        for n in (4, 16, 64):
            got = lower_ratio(ChaosParams(n, 2.0, 0.0), 2)
            assert got == pytest.approx(1 / math.sqrt(2.0), rel=1e-10)

    def test_large_mixed_case_above_floor(self):
        got = lower_ratio(ChaosParams(1024, 1.0, 1 / 32), 32)
        print(f"lower_ratio(n=1024, p=32, M=1, beta=1/32) = {got:.5f}")
        assert got >= 0.02

    def test_rejects_degenerate_family(self):
        with pytest.raises(ValueError, match="degenerate"):
            lower_ratio(ChaosParams(4, 0.0, 0.0), 2)

    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValueError, match="2 <= p <= n"):
            lower_ratio(ChaosParams(4, 1.0, 1.0), 8)


class TestPaleyZygmund:
    def test_pure_chaos_certificate(self):
        cert = paley_zygmund_certificate(ChaosParams(4, 0.0, 2.0), 2)
        assert cert.norm_p == pytest.approx(math.sqrt(24.0), rel=1e-10)
        assert cert.norm_2p ** 2 == pytest.approx(math.sqrt(2688.0), rel=1e-10)
        assert cert.lhs == pytest.approx(0.5, abs=1e-12)
        # (||f||_2^2 / (2*||f||_4^2))^2 = (24 / (2*sqrt(2688)))^2 = 3/56
        assert cert.rhs == pytest.approx((24.0 / (2 * math.sqrt(2688.0))) ** 2, rel=1e-10)
        assert cert.rhs == pytest.approx(0.05357142857, rel=1e-9)
        assert cert.valid

    def test_linear_family_certificate(self):
        cert = paley_zygmund_certificate(ChaosParams(2, 1.0, 0.0), 2)
        assert cert.lhs == pytest.approx(0.5, abs=1e-12)
        assert cert.rhs == pytest.approx(0.125, rel=1e-10)

    def test_tail_matches_enumeration(self):
        for params in GRID[::3]:
            t = 0.5 * chaos_lp(params, 3)
            exact = empirical_tail(chaos_sum_function(params), t)
            assert tail_probability(params, t) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8, 12, 16, 20])
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_valid_on_grid(self, n, p):
        for M, beta in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.1, 10.0)):
            cert = paley_zygmund_certificate(ChaosParams(n, M, beta), p)
            assert cert.lhs >= cert.rhs

    def test_scales_beyond_enumeration(self):
        cert = paley_zygmund_certificate(ChaosParams(2 ** 14, 1.0, 0.01), 4)
        assert cert.valid and 0 < cert.rhs < cert.lhs <= 1


class TestValidation:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError, match="M"):
            ChaosParams(4, -1.0, 1.0)

    def test_rejects_bad_vector_shape(self):
        with pytest.raises(ValueError, match="shape"):
            chaos_sum([1, 1, 1], ChaosParams(4, 1.0, 1.0))
