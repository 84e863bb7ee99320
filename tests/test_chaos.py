"""Chaos family tests: the construction's defining identities, its moment
norms against both oracles, and the anti-concentration certificates."""

import math
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from stablebounds import cli, oracle
from stablebounds.bounds import dyadic_sum_moment_bound, second_moment_bound
from stablebounds.chaos import (ChaosConditionsReport, ChaosParams, TailCertificate,
                                _collapsed, chaos_collapsed,
                                chaos_g, chaos_lp, chaos_sum_function, lower_ratio,
                                paley_zygmund_certificate, second_moment_exact,
                                tail_probability, verify_chaos_conditions)
from stablebounds.oracle import (MomentSpec, _collapse_lp, _sign_columns, empirical_tail,
                                 enumerate_lp, mc_lp, sign_matrix)

GRID = [ChaosParams(n, M, beta)
        for n, M, beta in product((2, 3, 4, 6, 8), (0.0, 0.5, 1.0), (0.0, 1.0, 2.5))
        if (M, beta) != (0.0, 0.0)]


@pytest.mark.parametrize("call,message", [
    (lambda: TailCertificate(2.0, 1.5, 0.1, 1.0, 1.0), "lhs must be a probability, got 1.5"),
    (lambda: TailCertificate(2.0, 0.5, -0.1, 1.0, 1.0), "rhs must be >= 0, got -0.1"),
    (lambda: paley_zygmund_certificate(ChaosParams(4, 1.0, 1.0), 1.5),
     "p must be >= 2, got 1.5"),
    (lambda: ChaosParams(0, 1.0, 1.0), "n must be >= 1, got 0"),
], ids=["lhs", "rhs", "pz_p", "params_n"])
def test_input_guard(call, message):
    """Guards that no other test reaches, each with its message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
    """The closed form the package runs: ``chaos_sum_function`` on sign rows."""

    def test_pure_quadratic_n2(self):
        values = chaos_sum_function(ChaosParams(2, 0.0, 2.0)).eval(sign_matrix(2))
        assert set(values.tolist()) == {2.0, -2.0}

    def test_beta_zero_reduces_to_plain_sum(self):
        rows = sign_matrix(5)[::7]
        values = chaos_sum_function(ChaosParams(5, 1.0, 0.0)).eval(rows)
        assert values == pytest.approx(rows.sum(axis=1))

    def test_all_ones_vector(self):
        n, beta = 6, 1.5
        values = chaos_sum_function(ChaosParams(n, 0.0, beta)).eval(np.ones((1, n), np.int8))
        assert values[0] == pytest.approx(0.5 * beta * (n * n - n))

    @pytest.mark.parametrize("params", GRID[::3])
    def test_identity_with_direct_sum(self, params):
        # spec-level invariant: closed form equals sum of chaos_g to 1e-12
        rows = sign_matrix(params.n)
        closed = chaos_sum_function(params).eval(rows)
        for z, value in zip(rows, closed):
            direct = sum(chaos_g(i, z, params) for i in range(params.n))
            assert abs(direct - value) <= 1e-12


class TestVerifyConditions:
    @pytest.mark.parametrize("params", GRID)
    def test_all_hypotheses_hold_exactly(self, params):
        report = verify_chaos_conditions(params)
        assert report.worst == 0.0
        assert report.passed

    def test_rounding_residue_passes(self):
        # every hypothesis holds; rounding leaves bounded_difference 1.4e-15
        report = verify_chaos_conditions(ChaosParams(2, 10.0, 0.1))
        assert 0.0 < report.worst <= 1e-12 * report.scale
        assert report.scale == ChaosParams(2, 10.0, 0.1).uniform_bound
        assert report.passed

    @pytest.mark.parametrize("field", range(4))
    def test_violation_beyond_tolerance_fails(self, field):
        scale = ChaosParams(9, 10.0, 0.1).uniform_bound
        violations = [0.0] * 4
        violations[field] = 1e-9 * scale
        assert not ChaosConditionsReport(*violations, scale).passed

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

    def test_reads_matrix_in_place(self):
        # sign_matrix(16) is 1 MiB of int8; a float64 copy of it would be 8 MiB
        _sign_columns.held = None
        tracemalloc.start()
        try:
            report = verify_chaos_conditions(ChaosParams(17, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n", [17, 19])
    def test_holds_two_rows(self, n):
        # t and the conditional-mean row, float64 over 2^(n-1) each, beside the
        # held matrix; full-width branches, flips and differences took six
        row = 8 << (n - 1)
        sign_matrix(n - 1)
        tracemalloc.start()
        try:
            verify_chaos_conditions(ChaosParams(n, 0.3, 1.7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * row <= peak < 3 * row

    @pytest.mark.parametrize("n", range(1, 22))
    def test_equals_full_row_reference(self, n):
        for M, beta in product((0, 0.1, 0.3, 1, 10, 1e10), (0.1, 0.3, 1.7, 7)):
            params = ChaosParams(n, M, beta)
            got, want = verify_chaos_conditions(params), _full_row_reference(params)
            assert (repr(got), got.scale) == (repr(want), want.scale)

    @pytest.mark.parametrize("M,beta", [(0.1, 0.3), (1e10, 0.2), (1e200, 1e200)])
    def test_one_flip_stands_for_every_flip(self, M, beta):
        # every j != i gives the same values permuted; the loop over all of them
        flips = sign_matrix(16).T
        t = flips.sum(axis=0, dtype=np.float64)
        worst = 0.0
        for zi in (1.0, -1.0):
            g = zi * M + 0.5 * beta * zi * t
            for zj in flips:
                diff = float(np.max(np.abs(g - (zi * M + 0.5 * beta * zi * (t - 2.0 * zj)))))
                worst = max(worst, max(diff - beta, 0.0))
        assert verify_chaos_conditions(ChaosParams(17, M, beta)).bounded_difference == worst

    @pytest.mark.parametrize("M,beta", [(0.0, 1.0), (1.0, 0.0), (2.5, 3.0)])
    def test_single_coordinate(self, M, beta):
        # no other coordinates: g_0 = M*z_0, and every violation is 0
        report = verify_chaos_conditions(ChaosParams(1, M, beta))
        assert (report.conditional_centering, report.conditional_mean,
                report.bounded_difference, report.uniform_bound) == (0.0, 0.0, 0.0, 0.0)
        assert report.passed


def _full_row_reference(params):
    """``verify_chaos_conditions`` with every quantity taken over full rows of
    2^(n-1): each branch, its flip of z_0 and their difference."""
    n, M, beta = params.n, params.M, params.beta
    worst_mean = 0.0
    worst_bdiff = 0.0
    max_abs_g = 0.0
    others = sign_matrix(n - 1)
    t = others.sum(axis=1, dtype=np.float64)
    branches = {}
    for zi in (1.0, -1.0):
        g_branch = zi * M + 0.5 * beta * zi * t
        branches[zi] = g_branch
        worst_mean = max(worst_mean, abs(abs(float(np.mean(g_branch))) - M))
        max_abs_g = max(max_abs_g, float(np.max(np.abs(g_branch))))
        for zj in others.T[:1]:
            g_flip = zi * M + 0.5 * beta * zi * (t - 2.0 * zj)
            diff = float(np.max(np.abs(g_branch - g_flip)))
            worst_bdiff = max(worst_bdiff, max(diff - beta, 0.0))
    center = 0.5 * (branches[1.0] + branches[-1.0])
    worst_center = float(np.max(np.abs(center)))
    worst_unif = abs(max_abs_g - params.uniform_bound)
    return ChaosConditionsReport(worst_center, worst_mean, worst_bdiff, worst_unif,
                                 max(1.0, params.uniform_bound))


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

    def test_second_moment_beyond_products(self):
        # M^2 * n overflows to inf without raising; the root 1e155 does not
        assert second_moment_exact(ChaosParams(10**10, 1e150, 0.0)) == pytest.approx(
            1e155, rel=1e-15)
        assert second_moment_exact(ChaosParams(10**10, 0.0, 1e150)) == pytest.approx(
            math.sqrt(0.5 * 10**10 * (10**10 - 1)) * 1e150, rel=1e-15)
        # n * (n - 1) = 1e400 overflows even at M = beta = 1
        assert second_moment_exact(ChaosParams(10**200, 1.0, 1.0)) == pytest.approx(
            math.sqrt(0.5) * 1e200, rel=1e-15)

    @pytest.mark.parametrize("params", GRID)
    def test_second_moment_identity_and_bound(self, params):
        exact = chaos_lp(params, 2)
        assert exact == pytest.approx(second_moment_exact(params), rel=1e-10)
        n, M, beta = params.n, params.M, params.beta     # in range: the direct form
        assert second_moment_exact(params) == math.sqrt(M ** 2 * n + 0.5 * beta ** 2 * n * (n - 1))
        assert exact <= second_moment_bound(params.n, params.beta, params.M) + 1e-12

    @pytest.mark.parametrize("params", GRID)
    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
    def test_dominated_by_dyadic_bound(self, params, p):
        bound = dyadic_sum_moment_bound(p, params.n, params.beta, params.M).value
        assert chaos_lp(params, p) <= bound * (1 + 1e-12)


class TestChaosMemo:
    """Equal params share one collapsed function, so each distinct norm of a
    run is evaluated once."""

    @pytest.mark.parametrize("first", [0, 0.0, -0.0])
    def test_signed_zero_M_gives_equal_norms(self, first):
        _collapsed.cache_clear()
        for p in (2, 3.5, 8):
            expected = _collapse_lp.__wrapped__(lambda s: 0.5 * (s * s - 6), 6, p)
            got = [chaos_lp(ChaosParams(6, M, 1.0), p) for M in (first, 0, 0.0, -0.0)]
            assert got == [expected] * 4

    def test_unhashable_params_are_computed(self):
        # a 0-d array M makes the params unhashable; the norm skips the cache
        params = ChaosParams(6, np.array(0.5), 1.0)
        with pytest.raises(TypeError):
            hash(params)
        assert chaos_lp(params, 3.5) == chaos_lp(ChaosParams(6, 0.5, 1.0), 3.5)

    def test_cli_chaos_evaluates_each_norm_once(self):
        # Derived from cli._row_chaos, not fitted to a run: a row at order p
        # asks for the norm at p (again in lower_ratio when 8 <= p <= n, and
        # in the Paley-Zygmund certificate), at 2p (the certificate) and at 2
        # (second moment). Rows p = 2 and p = 8 of one (n, M) thus need the
        # orders {2, 4} and {8, 16, 2}: 4 distinct norms per (n, M), 16 in all.
        _collapse_lp.cache_clear()
        _collapsed.cache_clear()
        rows, code = cli.run({"command": "chaos", "threads": 1,
                              "grid": {"n": [12, 40], "M": [0, 1], "beta": [1], "p": [2, 8]}})
        assert (len(rows), code) == (8, 0)
        assert _collapse_lp.cache_info().misses == 16


def per_call_collapse_lp(g, n, p):
    """The collapse as one call computes it from nothing: no support record,
    no memo, the weights rebuilt from gammaln."""
    s = 2.0 * np.arange(n + 1) - n
    vals = np.abs(np.asarray(g(s), dtype=np.float64))
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite")
    k = np.arange(n + 1, dtype=np.float64)
    logw = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) - n * math.log(2.0)
    with np.errstate(divide="ignore", over="ignore"):
        terms = logw + p * np.log(vals)
    top = vals.max() if p > 1e305 else 0.0
    if top > 0 and not np.isfinite(terms[np.argmax(vals)]):
        return float(top * per_call_collapse_lp(lambda s: g(s) / top, n, p))
    terms = terms[np.isfinite(terms)]
    if terms.size == 0:
        return 0.0
    terms = np.sort(terms)[::-1]
    with np.errstate(over="ignore"):
        return float(np.exp(np.logaddexp.reduce(terms) / p))


def per_call_tail(g, n, t):
    s = 2.0 * np.arange(n + 1) - n
    vals = np.abs(np.asarray(g(s), dtype=np.float64))
    k = np.arange(n + 1, dtype=np.float64)
    w = np.exp(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) - n * math.log(2.0))
    return float(w[vals >= t].sum() / w.sum())


class Unhashable:
    """A pure callable that cannot be a cache key."""

    __hash__ = None

    def __init__(self, g):
        self.g = g

    def __call__(self, s):
        return self.g(s)


_MAGNITUDES = st.one_of(st.just(0.0), st.integers(0, 80).map(lambda k: k / 4),
                        st.floats(1e-200, 1e200))


class TestSupportRecord:
    """The collapse and the tail read |g| and the binomial weights from one
    record per (g, n); every float must equal the per-call formula, bit for
    bit, however the calls interleave."""

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(st.tuples(
               st.one_of(st.integers(1, 200), st.integers(1, 14).map(lambda k: k * k)),
               _MAGNITUDES, _MAGNITUDES, st.booleans()), min_size=1, max_size=4),
           orders=st.lists(st.one_of(st.sampled_from([1, 2, 3.5, 8, 64, 1e306]),
                                     st.floats(1.0, 1e306)), min_size=1, max_size=4),
           share=st.floats(0.0, 1.0))
    @example(points=[(16, 0.0, 1.0, False), (16, 1.0, 1.0, False)], orders=[2, 8], share=0.5)
    @example(points=[(9, 0.0, 2.0, True), (9, 0.0, 2.0, False)], orders=[1e306], share=0.0)
    @example(points=[(5, 1e150, 0.0, False), (7, 1e-150, 1e-150, False)],
             orders=[1e306, 2], share=1.0)
    def test_equals_per_call_formula(self, points, orders, share):
        # zero outcomes: M = 0 and n = k^2 put g = 0 at S = +-k; p near 1e306
        # takes the rescaled pass at large or tiny max|g|
        for p in orders:
            for n, M, beta, unhashable in points:
                assume((M, beta) != (0.0, 0.0))
                plain = lambda s, n=n, M=M, beta=beta: M * s + 0.5 * beta * (s * s - n)
                params = ChaosParams(n, M, beta)
                expected = per_call_collapse_lp(plain, n, p)
                g = Unhashable(plain) if unhashable else chaos_collapsed(params)
                assert oracle.collapse_lp(g, n, p) == expected
                assert chaos_lp(params, p) == expected
                t = share * expected
                assert tail_probability(params, t) == per_call_tail(plain, n, t)
                assert tail_probability(params, 0.0) == per_call_tail(plain, n, 0.0)

    def test_more_functions_than_the_caches_hold(self):
        # 306 functions over three n, three rounds at p = 3.5, 8, 3.5: every
        # record and memo entry is evicted between the calls that share it
        fns = [(n, (lambda s, c=c, n=n: c * s + 0.25 * (s * s - n)))
               for c in range(100) for n in (16, 25, 40)]
        one = lambda s: 0.3 * s * s - s                 # one g at three n
        fns += [(n, one) for n in (16, 25, 40)] * 2
        for p in (3.5, 8, 3.5):
            for n, g in fns:
                assert oracle.collapse_lp(g, n, p) == per_call_collapse_lp(g, n, p)

    def test_record_arrays_are_read_only(self):
        params = ChaosParams(36, 0.0, 1.0)        # g = 0 at S = +-6
        chaos_lp(params, 2)
        record = oracle._support(chaos_collapsed(params), 36)
        assert np.count_nonzero(record.vals == 0) == 2
        for a in (record.vals, record.logv, record.logw, record.weights):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            record.vals[0] = 1.0

    def test_records_of_one_n_share_the_weights(self):
        a = oracle._support(chaos_collapsed(ChaosParams(50, 1.0, 1.0)), 50)
        b = oracle._support(chaos_collapsed(ChaosParams(50, 2.0, 1.0)), 50)
        assert b.logw is a.logw and b.weights is a.weights
        assert oracle._support(chaos_collapsed(ChaosParams(50, 2.0, 1.0)), 50) is b


class TestCrossRoutes:
    """The three oracle routes on the chaos sum: enumeration, binomial
    collapse and seeded Monte Carlo."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), M=_QUARTERS, beta=_QUARTERS,
           p=st.sampled_from([1, 2, 3.5, 8]))
    def test_enumeration_equals_collapse(self, n, M, beta, p):
        assume((M, beta) != (0.0, 0.0))
        params = ChaosParams(n, M, beta)
        assert enumerate_lp(chaos_sum_function(params), p) == pytest.approx(
            chaos_lp(params, p), rel=1e-10)

    @pytest.mark.parametrize("n,M,beta", [(4, 1.0, 0.25), (8, 0.0, 1.0), (12, 0.5, 2.0)])
    @pytest.mark.parametrize("p", [1, 2, 3.5, 8])
    def test_monte_carlo_batches_bracket_exact(self, n, M, beta, p):
        params = ChaosParams(n, M, beta)
        exact = chaos_lp(params, p)
        est = mc_lp(chaos_sum_function(params), MomentSpec(p=p, reps=20_000, seed=11))
        assert est.batch_min <= exact <= est.batch_max


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
    def test_tail_probability_is_capped_in_n(self, monkeypatch):
        monkeypatch.setattr(oracle, "_COLLAPSE_CAP", 64)
        with pytest.raises(ValueError, match="collapse cap"):
            tail_probability(ChaosParams(65, 1.0, 1.0), 1.0)
        assert tail_probability(ChaosParams(64, 1.0, 1.0), 0.0) == 1.0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError, match="M"):
            ChaosParams(4, -1.0, 1.0)

    @pytest.mark.parametrize("n", [2.5, 4.0, "4"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            ChaosParams(n, 1.0, 1.0)

    @pytest.mark.parametrize("n", [4, np.int64(4), np.int8(4)])
    def test_accepts_python_and_numpy_integers(self, n):
        assert chaos_lp(ChaosParams(n, 1.0, 1.0), 2) == chaos_lp(ChaosParams(4, 1.0, 1.0), 2)

    def test_rejects_bad_vector_shape(self):
        with pytest.raises(ValueError, match="shape"):
            chaos_g(0, [1, 1, 1], ChaosParams(4, 1.0, 1.0))
