"""Bound evaluator tests: frozen direct-substitution values, explicit
constants, and the ordering/monotonicity properties the formulas promise."""

import math
import re
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog     # independent reference for the fit only

from stablebounds.bounds import (BoundInputs, BoundValue, EXPLICIT,
                                 GENERALIZATION_KINDS, SHAPE,
                                 capped_moment_bound, ceil_log2,
                                 classical_moment_bound,
                                 dyadic_sum_moment_bound,
                                 fit_tail_coefficients, generalization_bound,
                                 log_or_one, moments_from_tail,
                                 second_moment_bound, tail_from_moments,
                                 variance_bound)
from stablebounds.chaos import ChaosParams, chaos_lp

E = math.e
SQRT2 = math.sqrt(2.0)


class TestGeneralizationBounds:
    INPUTS = BoundInputs(n=100, gamma=0.1, L=1.0, delta=0.01)

    def test_single_log_direct_substitution(self):
        # n*g*log(n)*log(1/d) + L*sqrt(n*log(1/d)); log(100) plays both roles
        ln100 = math.log(100.0)
        expected = 10.0 * ln100 * ln100 + math.sqrt(100.0 * ln100)
        bv = generalization_bound("single_log", self.INPUTS)
        assert bv.value == pytest.approx(expected, rel=1e-12)
        assert bv.value == pytest.approx(233.5356, abs=1e-3)
        assert bv.constant_convention == SHAPE

    def test_bousquet02_direct_substitution(self):
        expected = (100.0 * 10.0 * 0.1 + 10.0) * math.sqrt(math.log(100.0))
        bv = generalization_bound("bousquet02", self.INPUTS)
        assert bv.value == pytest.approx(expected, rel=1e-12)
        assert bv.value == pytest.approx(236.056, abs=1e-2)

    def test_zero_parameters_give_zero(self):
        inputs = BoundInputs(n=50, gamma=0.0, L=0.0, delta=0.1)
        for kind in GENERALIZATION_KINDS:
            assert generalization_bound(kind, inputs).value == 0.0

    def test_log_clipping_below_one(self):
        # delta = 0.5 has log(1/delta) < 1; the convention clips it to 1
        inputs = BoundInputs(n=2, gamma=0.0, L=1.0, delta=0.5)
        bv = generalization_bound("bousquet02", inputs)
        assert bv.value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_rejects_missing_delta(self):
        with pytest.raises(ValueError, match="delta"):
            generalization_bound("fv2018", BoundInputs(n=10, gamma=0.1, L=1.0))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            generalization_bound("sharpest", self.INPUTS)

    def test_single_log_never_exceeds_fv2019(self):
        # they differ exactly by the dropped n*g*log(n)^2 term
        for n, g, L, d in product((3, 10, 100, 1000), (0.0, 1e-3, 0.1, 2.0),
                                  (0.0, 1.0, 5.0), (0.3, 0.1, 0.01)):
            inputs = BoundInputs(n=n, gamma=g, L=L, delta=d)
            a = generalization_bound("single_log", inputs).value
            b = generalization_bound("fv2019", inputs).value
            assert a <= b + 1e-12

    def test_monotone_in_each_magnitude(self):
        base = BoundInputs(n=64, gamma=0.05, L=1.0, delta=0.05)
        bumped = [BoundInputs(n=64, gamma=0.06, L=1.0, delta=0.05),
                  BoundInputs(n=64, gamma=0.05, L=1.5, delta=0.05)]
        for kind in GENERALIZATION_KINDS:
            v0 = generalization_bound(kind, base).value
            for inputs in bumped:
                assert generalization_bound(kind, inputs).value >= v0 - 1e-12


class TestDyadicSumMomentBound:
    def test_direct_substitution(self):
        assert dyadic_sum_moment_bound(2, 4, 1.0, 0.0).value == pytest.approx(
            12 * SQRT2 * 2 * 4 * 2, rel=1e-12)

    def test_n_equal_one_log_factor(self):
        bv = dyadic_sum_moment_bound(2, 1, 0.0, 1.0)
        assert bv.value == pytest.approx(4 * SQRT2, rel=1e-12)
        assert bv.constant_convention == EXPLICIT

    def test_dominates_exact_chaos_norm_small_case(self):
        # exact ||sum g_i||_p at n=2, beta=1, M=0 is 1 for every p
        assert chaos_lp(ChaosParams(2, 0.0, 1.0), 2) == pytest.approx(1.0, rel=1e-12)
        assert dyadic_sum_moment_bound(2, 2, 1.0, 0.0).value == pytest.approx(
            48 * SQRT2, rel=1e-12)

    def test_explicit_constant_normalization(self):
        # at (p, n, beta, M) = (2, 1, 0, 1) the bound over sqrt(p*n) is exactly 4
        bv = dyadic_sum_moment_bound(2, 1, 0.0, 1.0)
        assert bv.value / math.sqrt(2.0) == pytest.approx(4.0, rel=1e-15)

    def test_monotone_in_p(self):
        values = [dyadic_sum_moment_bound(p, 16, 0.5, 2.0).value
                  for p in (2, 3, 4, 8, 16)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError, match="p must be"):
            dyadic_sum_moment_bound(1.5, 4, 1.0, 0.0)

    @pytest.mark.parametrize("M", [0.0, 1.0])
    def test_overflow_names_p_and_n(self, M):
        # p * n overflows: at M = 0 the M term was 0 * inf = nan
        with pytest.raises(ValueError, match=r"overflows at p = 1e\+308, n = 9,"):
            dyadic_sum_moment_bound(1e308, 9, 0.25, M)

    @pytest.mark.parametrize("p,n,beta", [(2, 1, 1.0), (7.5, 9, 0.25), (1e300, 3, 1e-10)])
    def test_zero_M_adds_nothing(self, p, n, beta):
        assert (dyadic_sum_moment_bound(p, n, beta, 0).value
                == 12 * math.sqrt(2.0) * p * n * beta * ceil_log2(n))

    @pytest.mark.parametrize("k", [1, 2, 49, 52, 62])
    def test_ceil_log2_exact_at_powers_of_two(self, k):
        # in floats log2(2**k + 1) rounds to k from k = 49 on, so ceil(log2 n)
        # would drop the + 1; the factor is computed on integers
        assert ceil_log2(2 ** k) == k
        assert ceil_log2(2 ** k + 1) == k + 1


class TestCappedMomentBound:
    def test_cap_active(self):
        res = capped_moment_bound(p=4, n=4, beta=10.0, M=1.0, L=1.0)
        assert res.capped.value == pytest.approx(4.0, rel=1e-12)   # n*L wins

    def test_beta_zero_takes_min(self):
        p, n, L = 4, 9, 2.0
        res = capped_moment_bound(p=p, n=n, beta=0.0, M=L, L=L)
        assert res.capped.value == pytest.approx(
            min(4 * L * math.sqrt(p * n), n * L), rel=1e-12)

    def test_relaxed_subgaussian_form(self):
        res = capped_moment_bound(p=2, n=16, beta=0.25, M=1.0, L=1.0)
        expected = 16 * math.sqrt(2 * 0.25 * 1.0 * math.log(16.0)) + math.sqrt(32.0)
        assert res.relaxed.value == pytest.approx(expected, rel=1e-12)
        assert res.relaxed.value == pytest.approx(24.4954, abs=1e-3)
        assert res.relaxed.constant_convention == SHAPE

    def test_rejects_M_above_L(self):
        with pytest.raises(ValueError, match="exceeds"):
            capped_moment_bound(p=2, n=4, beta=1.0, M=2.0, L=1.0)


class TestTailMomentEquivalence:
    def test_moments_from_tail_values(self):
        assert moments_from_tail(1.0, 0.0, 4) == pytest.approx(6.0, rel=1e-12)
        assert moments_from_tail(0.0, 1.0, 1) == pytest.approx(9.0, rel=1e-12)
        assert moments_from_tail(0.0, 0.0, 7) == 0.0

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
    def test_moments_from_tail_rejects_bad_p(self, p):
        with pytest.raises(ValueError, match=f"p must be finite and >= 1, got {p}"):
            moments_from_tail(1.0, 1.0, p)

    def test_tail_from_moments_values(self):
        # delta = 1/e makes log(e/delta) = 2
        assert tail_from_moments(1.0, 0.0, 1 / E) == pytest.approx(E * SQRT2, rel=1e-12)
        assert tail_from_moments(0.0, 1.0, 1 / E) == pytest.approx(2 * E, rel=1e-12)
        assert tail_from_moments(0.0, 0.0, 0.3) == 0.0

    def test_tail_rejects_bad_delta(self):
        for delta in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError, match="delta"):
                tail_from_moments(1.0, 1.0, delta)

    def test_round_trip_preserves_order(self):
        coeffs = [(0.0, 0.0), (0.5, 0.1), (1.0, 0.1), (1.0, 1.0), (2.0, 1.5)]
        for delta in (0.2, 0.05, 0.01):
            outs = [tail_from_moments(a, b, delta) for a, b in coeffs]
            assert all(x <= y + 1e-12 for x, y in zip(outs, outs[1:]))
        for p in (1, 2, 4, 9):
            outs = [moments_from_tail(a, b, p) for a, b in coeffs]
            assert all(x <= y + 1e-12 for x, y in zip(outs, outs[1:]))


class TestClassicalMomentBounds:
    def test_mcdiarmid(self):
        assert classical_moment_bound("mcdiarmid", n=4, p=4, beta=0.5) == pytest.approx(4.0)

    def test_hoeffding(self):
        assert classical_moment_bound("hoeffding", n=9, p=4, M=1.0) == pytest.approx(24.0)

    def test_marcinkiewicz_zygmund(self):
        got = classical_moment_bound("mz", n=2, p=2, norms=(1.0, 1.0))
        assert got == pytest.approx(3 * math.sqrt(8.0), rel=1e-12)

    @pytest.mark.parametrize("w", [10.0, 1e-5])
    def test_marcinkiewicz_zygmund_out_of_range_norms(self, w):
        # w**p overflows at w = 10 and underflows at w = 1e-5 when p = 400;
        # the bound is 3*sqrt(2*n*p)*w = 120*w either way, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = classical_moment_bound("mz", n=2, p=400, norms=(w, w))
        assert got == pytest.approx(120.0 * w, rel=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_mz_rejects_negative_or_nan_norms(self, bad):
        with pytest.raises(ValueError, match="norms must be non-negative"):
            classical_moment_bound("mz", n=2, p=2, norms=[bad, 1.0])

    def test_mz_rejects_empty_norms(self):
        with pytest.raises(ValueError, match="non-empty"):
            classical_moment_bound("mz", n=2, p=2, norms=())

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError, match="p must be"):
            classical_moment_bound("mcdiarmid", n=4, p=1.5, beta=1.0)


class TestInputGuards:
    """Guards that no other test reaches, each with its message."""

    @pytest.mark.parametrize("call,message", [
        (lambda: ceil_log2(0), "n must be >= 1, got 0"),
        (lambda: BoundInputs(n=0, gamma=0.1, L=1.0), "n must be >= 1, got 0"),
        (lambda: BoundValue("x", 1.0, "vague"), "unknown convention 'vague'"),
        (lambda: classical_moment_bound("mcdiarmid", n=0, p=2, beta=1.0),
         "n must be >= 1, got 0"),
        (lambda: classical_moment_bound("mcdiarmid", n=2, p=2), "mcdiarmid requires beta"),
        (lambda: classical_moment_bound("hoeffding", n=2, p=2), "hoeffding requires M"),
        (lambda: classical_moment_bound("mz", n=3, p=2, norms=[1.0, 1.0]),
         "mz expects 3 norms, got 2"),
        (lambda: classical_moment_bound("bernstein", n=2, p=2),
         "unknown classical bound kind 'bernstein'"),
        (lambda: second_moment_bound(0, 1.0, 1.0), "n must be >= 1, got 0"),
        (lambda: variance_bound(0, 0.1, 1.0), "n must be >= 1, got 0"),
        (lambda: ceil_log2(2.5), "n must be an integer, got 2.5"),
        (lambda: dyadic_sum_moment_bound(2, 2.5, 1, 1), "n must be an integer, got 2.5"),
        (lambda: BoundInputs(n=2.5), "n must be an integer, got 2.5"),
        (lambda: log_or_one(math.nan), "log_or_one requires x > 0, got nan"),
    ], ids=["ceil_log2", "inputs_n", "convention", "classical_n", "mcdiarmid", "hoeffding",
            "mz_count", "kind", "second_moment_n", "variance_n", "ceil_log2_not_integer",
            "dyadic_n_not_integer", "inputs_n_not_integer", "log_or_one_nan"])
    def test_guard(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestSecondMomentAndVariance:
    def test_second_moment_direct(self):
        assert second_moment_bound(4, 1.0, 1.0) == pytest.approx(
            (1 + 2 * SQRT2) * 4 + 2.0, rel=1e-12)

    def test_second_moment_dominates_exact_chaos(self):
        # exact second moment sqrt(M^2 n + (beta^2/2) n (n-1)) = sqrt(10)
        exact = chaos_lp(ChaosParams(4, 1.0, 1.0), 2)
        assert exact == pytest.approx(math.sqrt(10.0), rel=1e-10)
        assert exact <= second_moment_bound(4, 1.0, 1.0)

    def test_zero_case(self):
        assert second_moment_bound(9, 0.0, 0.0) == 0.0

    def test_variance_bound_values(self):
        assert variance_bound(100, 0.1, 1.0) == pytest.approx(200.0, rel=1e-12)
        assert variance_bound(7, 0.0, 2.0) == pytest.approx(28.0, rel=1e-12)
        assert variance_bound(7, 0.0, 0.0) == 0.0


class TestMonotonicity:
    """Every evaluator is non-decreasing in each magnitude parameter."""

    def test_dyadic_bound_in_beta_and_M(self):
        grid = [(0.0, 0.0), (0.1, 0.0), (0.1, 0.5), (1.0, 0.5), (1.0, 2.0)]
        values = [dyadic_sum_moment_bound(4, 32, beta, M).value
                  for beta, M in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_second_moment_bound(self):
        assert (second_moment_bound(8, 0.5, 1.0)
                <= second_moment_bound(8, 0.6, 1.0)
                <= second_moment_bound(8, 0.6, 2.0))

    def test_classical_bounds_in_their_parameter(self):
        assert (classical_moment_bound("mcdiarmid", n=16, p=4, beta=0.5)
                <= classical_moment_bound("mcdiarmid", n=16, p=4, beta=0.7))
        assert (classical_moment_bound("hoeffding", n=16, p=4, M=1.0)
                <= classical_moment_bound("hoeffding", n=16, p=4, M=1.5))

    def test_capped_bound_in_L(self):
        lo = capped_moment_bound(p=3, n=8, beta=2.0, M=0.5, L=0.6)
        hi = capped_moment_bound(p=3, n=8, beta=2.0, M=0.5, L=1.0)
        assert lo.capped.value <= hi.capped.value + 1e-12


class TestValidation:
    def test_bound_inputs_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            BoundInputs(n=10, delta=1.5)

    def test_bound_inputs_rejects_negative(self):
        with pytest.raises(ValueError, match="gamma"):
            BoundInputs(n=10, gamma=-0.1)

    def test_bound_value_rejects_negative(self):
        with pytest.raises(ValueError, match="finite"):
            BoundValue(kind="x", value=-1.0, constant_convention=SHAPE)

    def test_log_or_one(self):
        assert log_or_one(math.e ** 2) == pytest.approx(2.0)
        assert log_or_one(1.5) == 1.0
        with pytest.raises(ValueError):
            log_or_one(0.0)


class TestFitTailCoefficients:
    def test_covers_measured_norms(self):
        norms = {p: math.sqrt(p) * 0.8 for p in (1, 2, 4, 8)}
        a, b = fit_tail_coefficients(norms)
        for p, m in norms.items():
            assert math.sqrt(p) * a + p * b >= m - 1e-9

    def test_pure_subexponential(self):
        norms = {p: 2.0 * p for p in (1, 2, 3, 4)}
        a, b = fit_tail_coefficients(norms)
        assert math.sqrt(4) * a + 4 * b >= 8.0 - 1e-9

    def test_criterion_9_norms_reach_the_axis_vertex(self):
        # the measured norms of criterion 9's normal sample
        rng = np.random.Generator(np.random.Philox(key=np.uint64(0xC0FFEE)))
        sample = np.abs(rng.standard_normal(1_000_000))
        norms = {float(p): float(np.mean(sample ** p) ** (1.0 / p)) for p in range(1, 11)}
        assert fit_tail_coefficients(norms) == (0.7988136866564928, 0.0)

    def test_parallel_p1_constraint_takes_smaller_b(self):
        # a + b >= 2 binds along the edge from (0, 2) to (2, 0); the p = 4
        # constraint 2a + 4b >= 5 cuts it at b = 0.5
        assert fit_tail_coefficients({1: 2.0, 4: 5.0}) == pytest.approx((1.5, 0.5), rel=1e-15)
        assert fit_tail_coefficients({1: 2.0, 4: 3.0}) == (2.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_norms(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_tail_coefficients({1: 1.0, 2: bad})

    @pytest.mark.parametrize("norms", [{}, {0.5: 1.0}, {math.inf: 1.0}, {2: -1.0}])
    def test_rejects_bad_grids(self, norms):
        with pytest.raises(ValueError):
            fit_tail_coefficients(norms)


_P_GRID = [1.0] + [k / 4 for k in range(5, 257)]      # p = 1 and 1.25 .. 64
_NORM = st.just(0.0) | st.floats(1e-3, 1e3)


@st.composite
def _norm_grids(draw):
    ps = draw(st.lists(st.sampled_from(_P_GRID), min_size=1, max_size=12, unique=True))
    if draw(st.booleans()):
        return {p: draw(_NORM) for p in ps}
    # every m_p <= p * m_1: the p = 1 constraint binds along an edge of optima
    m1 = draw(_NORM)
    return {1.0: m1, **{p: m1 * draw(st.floats(0.0, p)) for p in ps if p > 1}}


class TestFitTailCoefficientsAgainstLinprog:
    @settings(max_examples=200, deadline=None)
    @given(_norm_grids())
    @example({1.0: 0.0, 2.0: 0.0, 8.0: 0.0})
    def test_matches_reference_lp(self, norms):
        a, b = fit_tail_coefficients(norms)
        ps = np.array(sorted(norms))
        ms = np.array([norms[p] for p in ps])
        ref = linprog([1.0, 1.0], A_ub=np.column_stack([-np.sqrt(ps), -ps]), b_ub=-ms,
                      bounds=[(0, None), (0, None)], method="highs")
        assert ref.success
        assert a + b == pytest.approx(ref.fun, rel=1e-12, abs=0.0)
        assert a >= 0 and b >= 0
        for p, m in norms.items():
            assert math.sqrt(p) * a + p * b >= m * (1 - 1e-12)
        # only the p = 1 constraint a + b >= m_1 is parallel to the objective;
        # where it binds, the optimal edge starts at the least b its line allows
        m1 = norms.get(1.0)
        if m1 is not None and a + b <= m1 * (1 + 1e-12):
            least_b = max([0.0] + [(m - math.sqrt(p) * m1) / (p - math.sqrt(p))
                                   for p, m in norms.items() if p > 1])
            assert b <= least_b + 1e-12 * m1
