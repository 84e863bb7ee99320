"""Oracle tests: the three moment routes (enumeration, collapse, Monte
Carlo) against each other and against plain-Python brute force."""

import math
import re
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from stablebounds import oracle
from stablebounds.bounds import classical_moment_bound, dyadic_sum_moment_bound
from stablebounds.chaos import ChaosParams, tail_probability
from stablebounds.oracle import (ENUMERATION_CAP, MomentSpec, SignFunction, _blocks_lp,
                                 _collapse_lp, _last,
                                 _mc_values, _sign_columns, collapse_lp,
                                 constant_function, coordinate_function,
                                 empirical_tail, enumerate_lp,
                                 hitczenko_functional,
                                 latala_allones_estimate,
                                 log_binomial_weights, lp_norm, mc_lp,
                                 sign_matrix, sum_function,
                                 weighted_sum_function)


@pytest.mark.parametrize("call,message", [
    (lambda: SignFunction(0, lambda rows: rows), "arity must be >= 1, got 0"),
    (lambda: SignFunction(2.5, lambda rows: rows), "arity must be an integer, got 2.5"),
    (lambda: SignFunction(math.nan, lambda rows: rows), "arity must be an integer, got nan"),
    (lambda: sign_matrix(-1), "arity must be >= 0, got -1"),
    (lambda: coordinate_function(3, 3), "coordinate 3 out of range for arity 3"),
    (lambda: collapse_lp(lambda s: s, 0, 2.0), "n must be >= 1, got 0"),
    (lambda: empirical_tail(sum_function(ENUMERATION_CAP + 1), 1.0, reps=10),
     "reps must be >= 100, got 10"),
    (lambda: hitczenko_functional([], 2.0), "weights must be a non-empty 1-d sequence"),
    (lambda: collapse_lp(lambda s: s, 2.5, 2), "n must be an integer, got 2.5"),
    (lambda: log_binomial_weights(-1), "n must be >= 0, got -1"),
    (lambda: coordinate_function(3, 1.5), "i must be an integer, got 1.5"),
    (lambda: MomentSpec(2, 10), "reps must be >= 100, got 10"),
    (lambda: mc_lp(sum_function(4), MomentSpec(2, 1000.5)), "reps must be an integer, got 1000.5"),
    (lambda: MomentSpec(2, 100, seed=1.5), "seed must be an integer, got 1.5"),
], ids=["arity", "arity_not_integer", "arity_nan", "sign_matrix_negative",
        "coordinate", "collapse_n", "tail_reps", "hitczenko_empty", "collapse_n_not_integer",
        "binomial_weights_n", "coordinate_not_integer", "mc_reps", "mc_reps_not_integer",
        "seed_not_integer"])
def test_input_guard(call, message):
    """Guards that no other test reaches, each with its message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class _Int(int):
    pass


@pytest.mark.parametrize("value", [3, True, np.int64(3), np.uint8(3), _Int(3)],
                         ids=["int", "bool", "int64", "uint8", "int_subclass"])
def test_check_int_accepts_integrals(value):
    oracle._check_int("n", value)


@pytest.mark.parametrize("value", [2.0, np.float64(2), "2", math.nan, None],
                         ids=["float", "float64", "text", "nan", "none"])
def test_check_int_refuses_non_integrals(value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'n must be an integer, got {value!r}')}$"):
        oracle._check_int("n", value)


def brute_force_lp(n, scalar_f, p):
    """Independent plain-Python oracle: loop over all 2^n sign tuples."""
    total = 0.0
    for z in product((-1, 1), repeat=n):
        total += abs(scalar_f(z)) ** p
    return (total / 2 ** n) ** (1.0 / p)


def traced_peak(run) -> int:
    """Peak traced bytes of ``run()``, built with no sign matrix held."""
    _sign_columns.held = None
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # arity 22 exceeds the sign matrix cap; its 64 blocks take their high
        # coordinates from the block number, summed by the pairwise reduction
        f = sum_function(22)
        assert enumerate_lp(f, 2) == pytest.approx(math.sqrt(22.0), rel=1e-10)
        assert enumerate_lp(f, 3) == pytest.approx(
            collapse_lp(lambda s: s, 22, 3), rel=1e-10)

    @pytest.mark.parametrize("n", [17, 18])
    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_blocks_equal_whole_matrix(self, n, p):
        # 2 and 4 blocks of 2**16 rows hold |f| on the matrix bit for bit, also
        # where f sums floats along each row (the sum's order follows the
        # layout), and add up as one pass over the matrix does
        for f in (sum_function(n),
                  SignFunction(n, lambda rows: 0.3 * rows.sum(axis=1, dtype=np.float64) ** 2
                               - 0.7 * rows[:, n - 1]),
                  SignFunction(n, lambda rows: (0.1 * rows).sum(axis=1))):
            whole = np.abs(f.eval(sign_matrix(n)))
            assert np.array_equal(np.concatenate(list(oracle._abs_blocks(f))), whole)
            assert enumerate_lp(f, p) == lp_norm(whole, p)

    def test_memory_is_one_block(self):
        # the whole enumeration of 22 coordinates would be 2**22 x 22 int8
        # (92 MB); a block of 2**16 rows and its values take about 3 MB
        assert traced_peak(lambda: enumerate_lp(sum_function(22), 2)) < 8 * 2**20

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
        # arity 21 enumerates 32 blocks; z_17..z_20 are constant within each,
        # so f is 0 on 12 of them, and max|f| sits in neither end block
        w = scale * np.array([1.0, 1.0, 1.0, -1.0])
        f = SignFunction(21, lambda rows: rows[:, 17:21] @ w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = enumerate_lp(f, p)
        assert value == pytest.approx(collapse_lp(lambda s: scale * s, 4, p), rel=1e-12)

    def test_streamed_tail_beyond_cache(self):
        # P(|S| >= 22) = 2^-21 for 22 coordinates, counted block by block
        assert empirical_tail(sum_function(22), 22.0) == pytest.approx(2.0 ** -21)


def counted(n, fn):
    """A sign function of arity n and the list its evaluations append the
    length and column-major flag of their rows to."""
    calls = []

    def evaluate(rows):
        calls.append((len(rows), rows.flags.f_contiguous))
        return fn(rows)

    return SignFunction(n, evaluate), calls


class TestLastEntry:
    """``_last`` holds one value: a miss drops the held value before it builds
    the next, and nothing unhashable or failed is held."""

    ROW = 8 << 16

    def test_second_miss_holds_one_value(self):
        # a cache that drops the old value only after the new one is built,
        # as lru_cache(maxsize=1) does, peaks at two rows here
        row = _last(lambda c: np.full(self.ROW // 8, c))
        tracemalloc.start()
        try:
            row(1.0)
            tracemalloc.reset_peak()
            row(2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.ROW <= peak < 1.5 * self.ROW

    def test_hit_returns_the_held_object(self):
        builds = []
        row = _last(lambda c: builds.append(c) or np.full(4, c))
        first = row(1.0)
        assert row(1.0) is first and builds == [1.0]
        assert row.held == ((1.0,), first)

    def test_unhashable_key_is_built_fresh(self):
        row = _last(lambda c: np.full(4, c[0]))
        held = row((1.0,))
        assert np.array_equal(row([2.0]), np.full(4, 2.0))
        assert np.array_equal(row([2.0]), np.full(4, 2.0))
        assert row.held == (((1.0,),), held)
        assert row((1.0,)) is held

    def test_failed_build_holds_nothing(self):
        def build(c):
            if c < 0:
                raise ValueError("negative")
            return np.full(4, c)

        row = _last(build)
        row(1.0)
        with pytest.raises(ValueError, match="negative"):
            row(-1.0)
        assert row.held is None


class TestFreshBlocks:
    """Enumeration keeps nothing between calls: every pass evaluates f afresh
    on column-major blocks."""

    @pytest.mark.parametrize("n,blocks", [(20, 16), (21, 32)])
    def test_f_runs_once_per_block_per_call(self, n, blocks):
        f, calls = counted(n, lambda rows: rows[:, 3].astype(np.float64))
        for p in (1, 2, 8):
            enumerate_lp(f, p)
        assert empirical_tail(f, 0.5) == 1.0
        assert calls == [(1 << 16, True)] * (4 * blocks)

    def test_call_holds_nothing_after_it_returns(self):
        # a cache of |f| would hold 2**17 floats (1 MB) here
        sign_matrix(16)                             # the cached hypercube, built untraced
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            enumerate_lp(sum_function(17), 2)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 16 * 2**10

    def test_one_public_sign_matrix_call_per_call(self, monkeypatch):
        calls = []

        def counted_sign_matrix(n):
            calls.append(n)
            return sign_matrix(n)

        monkeypatch.setattr(oracle, "sign_matrix", counted_sign_matrix)
        f = sum_function(18)
        enumerate_lp(f, 2)
        enumerate_lp(f, 8)
        empirical_tail(f, 1.0)
        assert calls == [16, 16, 16]


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

    @pytest.mark.parametrize("case,n,windowed", [
        ("wide", 4000, True), ("narrow", 1200, False), ("zero", 4000, False)])
    @pytest.mark.parametrize("p", [1, 2, 8, 64])
    def test_window_equals_full_reduction(self, case, n, windowed, p):
        # at most the terms within 746 of the largest are summed (the log
        # weights span n log 2 > 746 here); the float is that of the full log-sum
        g = {"wide": lambda s: 1.0 + 0.5 * np.abs(s),
             # p log g = s^2 / 2n offsets most of the log weights
             "narrow": lambda s: np.exp(0.5 * s * s / (n * p)),
             "zero": lambda s: 0.0 * s}[case]
        sup = oracle._Support(g, n)
        terms = p * sup.logv + sup.logw
        full = np.exp(np.logaddexp.reduce(np.sort(terms)[::-1]) / p)
        assert oracle._support_lp(sup, p) == full
        kept = np.count_nonzero(terms >= terms.max() - 746.0)
        assert (kept < n + 1) == windowed

    def test_window_edge(self):
        # a term 746 below the sum adds exactly 0 to it; 745 below, it adds a bit
        assert np.logaddexp(0.0, -746.0) == 0.0 < np.logaddexp(0.0, -745.0)

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


def window_support_lp(sup, p):
    """The collapse kernel that reduces, above n = 1076, every log term within
    746 of the largest: the float ``oracle._support_lp`` must return."""
    if not sup.finite:
        raise ValueError("g produced non-finite values on the support of S")
    with np.errstate(over="ignore"):
        terms = p * sup.logv
        terms += sup.logw
    top = sup.vals.max() if p > 1e305 else 0.0
    if top > 0 and not np.isfinite(terms[np.argmax(sup.vals)]):
        return float(top * window_support_lp(oracle._Support(lambda s: sup.g(s) / top, sup.n), p))
    with np.errstate(over="ignore"):
        return float(np.exp(window_log_sum(terms, sup.n) / p))


def window_log_sum(terms, n):
    """log sum exp(terms) over the terms within 746 of the largest above
    n = 1076, every term below, reduced largest first."""
    if n * math.log(2.0) > 746.0:
        terms = terms[terms >= terms.max() - 746.0]
    return np.logaddexp.reduce(np.sort(terms)[::-1])


def tabulated(vals):
    """g over the support {-n, ..., n} of S given by its n + 1 values."""
    n = len(vals) - 1
    return lambda s: vals[((s + n) / 2).astype(np.int64)]


class TestLogSumStop:
    """Above n = 1076 the collapse reduces the terms within 64 of the largest
    and stops where one more step leaves the sum unchanged; it must return
    the float of the reduce over every term within 746, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1077, 1 << 16), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["normal", "zeros", "constant", "zero"]),
           scale=st.floats(-300, 300), normalize=st.booleans(),
           p=st.one_of(st.floats(1.0, 1e4), st.sampled_from([1.0, 2.0, 8.0]),
                       st.floats(1e305, 1e308, exclude_min=True)))
    @example(n=1077, seed=0, shape="constant", scale=0.0, normalize=True, p=2.0)
    @example(n=1 << 16, seed=1, shape="zeros", scale=300.0, normalize=False, p=1e308)
    @example(n=5000, seed=2, shape="normal", scale=-300.0, normalize=False, p=1e306)
    @example(n=3000, seed=3, shape="normal", scale=0.0, normalize=True, p=2.0)  # falls back
    def test_equals_window_reduce(self, n, seed, shape, scale, normalize, p):
        # huge and tiny |g|, zero outcomes, g = 0, and, normalized by its own
        # norm, a log-sum near 0, where the stop must fall back to the window
        rng = np.random.default_rng(seed)
        vals = {"normal": lambda: rng.standard_normal(n + 1),
                "zeros": lambda: rng.standard_normal(n + 1) * (rng.random(n + 1) < 0.5),
                "constant": lambda: np.ones(n + 1),
                "zero": lambda: np.zeros(n + 1)}[shape]() * 10.0 ** scale
        if normalize:
            norm = window_support_lp(oracle._Support(tabulated(vals), n), p)
            if 0 < norm < np.inf:
                vals /= norm
        sup = oracle._Support(tabulated(vals), n)
        assert oracle._support_lp(sup, p) == window_support_lp(sup, p)
        # the log-sum itself: a change of e^-64 in it seldom moves exp(r / p)
        with np.errstate(over="ignore"):
            terms = oracle._terms(sup, p)
            assert oracle._log_sum(terms.copy(), n) == window_log_sum(terms, n)

    def test_fallback_where_the_sum_is_near_zero(self):
        # r = 0 from the largest term alone, and the terms 70 below add
        # 2000 e^-70 to it: the stop must not return r
        n = 2000
        terms = np.r_[0.0, np.full(n, -70.0)]
        expected = window_log_sum(terms, n)
        assert oracle._log_sum(terms, n) == expected > 0.0


class TestCollapseMemo:
    """``collapse_lp`` memoizes per (g, n, p): a hit must be the float a
    fresh, uncached evaluation gives, and nothing else may be shared."""

    def test_repeated_and_interleaved_orders_equal_fresh(self):
        g = lambda s: 0.5 * s + 0.25 * (s * s - 40.0)
        orders = [2, 8, 2, 3.5, 8, 16, 2, 3.5, 16]
        got = [collapse_lp(g, 40, p) for p in orders]
        assert got == [_collapse_lp.__wrapped__(g, 40, p) for p in orders]

    def test_closures_never_share_an_entry(self):
        # same code, different closures; more of them than the cache holds,
        # so evicted functions are freed and their ids can be reused
        make = lambda c: (lambda s: c * s + 0.5 * (s * s - 6.0))
        for c in range(300):
            g = make(float(c))
            assert collapse_lp(g, 6, 3) == _collapse_lp.__wrapped__(g, 6, 3)
        a, b = make(1.0), make(2.0)
        assert collapse_lp(a, 6, 3) != collapse_lp(b, 6, 3)

    def test_non_finite_raises_on_every_call(self):
        g = lambda s: 1.0 / (s + 4.0)       # pole at s = -4
        for _ in range(3):
            with pytest.raises(ValueError, match="non-finite"), np.errstate(divide="ignore"):
                collapse_lp(g, 4, 2)

    def test_large_p_fallback_adds_one_entry(self):
        # the scaled function of the out-of-range path is evaluated uncached:
        # a fresh closure could never hit, and its entry would keep g alive
        _collapse_lp.cache_clear()
        g = lambda s: 1e10 * s
        assert collapse_lp(g, 4, 1e308) == 4e10
        assert _collapse_lp.cache_info().currsize == 1
        assert oracle._support.held[1].g is g       # nor its support record

    def test_unhashable_callable_is_computed(self):
        class Scaled:
            def __init__(self, c):
                self.c = c

            def __eq__(self, other):        # no __hash__: instances are unhashable
                return isinstance(other, Scaled) and other.c == self.c

            def __call__(self, s):
                return self.c * s

        g = Scaled(2.0)
        with pytest.raises(TypeError):
            hash(g)
        assert collapse_lp(g, 100, 2) == pytest.approx(20.0, rel=1e-12)
        assert collapse_lp(g, 100, 2) == _collapse_lp.__wrapped__(g, 100, 2)


class TestLpNormInput:
    """``lp_norm`` takes |v| into a fresh float64 array: ``v`` is never
    written, and an int8 ``v`` is raised in float64."""

    @pytest.mark.parametrize("p", [2.0, 3.5, 8.0])
    def test_input_unchanged(self, p):
        v = np.random.default_rng(3).normal(size=4099) * 7.0
        kept = v.copy()
        lp_norm(v, p)
        assert np.array_equal(v, kept)

    @pytest.mark.parametrize("p", [2, 3.5, 8.0, 1024])
    def test_int8_input_is_taken_in_float64(self, p):
        # an int8 power overflows at an int p >= 128; in float64 |v|^1024
        # leaves the float range and takes the scaled pass
        v = _sign_columns(12)[5] * np.int8(3) - _sign_columns(12)[2]     # values 2 and 4
        kept = v.copy()
        expected = lp_norm(v.astype(np.float64), p)
        assert lp_norm(v, p) == expected
        assert np.array_equal(v, kept)

    @pytest.mark.parametrize("scale", [1e10, 1e-10])
    def test_range_safe_fallback(self, scale):
        # |v|^1000 overflows (1e10) or underflows (1e-10): the second pass
        # takes |v| afresh, with no warning
        v = scale * (1.0 + np.random.default_rng(5).random(257))
        kept = v.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = lp_norm(v, 1000)
        assert np.array_equal(v, kept)
        top = v.max()
        assert value == pytest.approx(top * np.mean((v / top) ** 1000) ** 1e-3, rel=1e-12)


class TestRepeatedBlock:
    """A block with ``repeat`` K stands for K copies of it side by side, bit
    for bit: numpy sums a contiguous float64 row as a pairwise tree of halves
    down to leaves of 128. The partition verifiers take their periodic rows
    this way, so a numpy that sums otherwise fails here first."""

    @pytest.mark.parametrize("bits", range(7, 13))
    @pytest.mark.parametrize("repeat", [2, 8, 64])
    @pytest.mark.parametrize("scale,p", [
        (7.0, 3.5),         # plain
        (10.0, 1e4),        # |v|^p overflows: the scaled pass
        (1e-3, 1e3),        # |v|^p underflows: the scaled pass
    ], ids=["plain", "overflow", "underflow"])
    def test_equals_the_tiled_row(self, bits, repeat, scale, p):
        v = scale * (1.0 + np.random.default_rng(bits).random(1 << bits))
        row = np.tile(v, repeat)
        with np.errstate(over="ignore", under="ignore"):
            powered = float(np.sum(row ** p))
        assert (0 < powered < np.inf) == (p < 100)     # which pass is held
        value = _blocks_lp(lambda: (v.copy(),), row.size, p, repeat)
        assert value == lp_norm(row, p)


class TestSignSum:
    """``_sign_sum``, the row sum of ``sum_function`` and of the chaos family,
    adds fewer than 128 signs in int8: equal bit for bit to the float64 sum,
    on the column-major enumeration blocks and the row-major Monte Carlo
    batches f is given."""

    @staticmethod
    def checked(arity, layouts):
        def f(rows):
            layouts.append("C" if rows.strides[1] == 1 else "F")
            got = oracle._sign_sum(rows)
            assert got.dtype == np.float64
            assert np.array_equal(got, rows.sum(axis=1, dtype=np.float64))
            return got
        return SignFunction(arity, f)

    @pytest.mark.parametrize("arity", [1, 20, 26, 127, 128, 300])
    def test_equals_the_float64_sum(self, arity):
        layouts = []
        f = self.checked(arity, layouts)
        next(oracle._abs_blocks(f))         # one enumeration block, its first row all -1
        _mc_values(f, 2 * oracle.MC_BLOCK, seed=arity)
        assert layouts == ["F", "C", "C"]
        # the all-+1 row: 127 is int8's edge
        assert f.eval(np.ones((3, arity), np.int8)).tolist() == [float(arity)] * 3

    @pytest.mark.parametrize("arity,value", [(100, 11.676368890658843),
                                             (200, 16.37628338716541)])
    def test_seeded_monte_carlo_pinned(self, arity, value):
        assert mc_lp(sum_function(arity), MomentSpec(p=3, reps=5000, seed=5)).value == value


class TestCollapseCap:
    """Every array over the support of S is capped in n before it is built."""

    def test_cap_is_checked_before_any_array(self, monkeypatch):
        monkeypatch.setattr(oracle, "_COLLAPSE_CAP", 64)

        def g(s):
            raise AssertionError("g evaluated past the cap")

        with pytest.raises(ValueError, match="collapse cap"):
            collapse_lp(g, 65, 2)
        with pytest.raises(ValueError, match="collapse cap"):
            log_binomial_weights(65)
        assert collapse_lp(lambda s: s, 64, 2) == pytest.approx(8.0, rel=1e-12)


def _gammaln_weights(n):
    k = np.arange(n + 1, dtype=np.float64)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) - n * math.log(2.0)


class TestLogBinomialWeights:
    # the weights come from a port of cephes lgam; scipy's gammaln, the same
    # cephes code, is the independent reference, bit for bit
    def test_lgam_equals_gammaln_on_every_integer(self):
        # every x up to 2**20 + 1, both branches of the series; on AVX-512
        # hardware numpy's SIMD log differs from libm's at 48 of these x
        m = (1 << 20) + 1
        got = oracle._lgam(m)
        expected = gammaln(np.arange(1, m + 1, dtype=np.float64))
        assert np.flatnonzero(got != expected).tolist() == []

    # the branch edges of lgam at x = 13 and x = 1000 (x = n + 1 at k = n)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 11, 12, 13, 64, 998, 999, 1000,
                                   16384, 32768])
    def test_equals_gammaln_formula(self, n):
        w = log_binomial_weights(n)
        assert np.array_equal(w, _gammaln_weights(n))
        assert not w.flags.writeable

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 5000))
    def test_equals_gammaln_formula_drawn(self, n):
        w = log_binomial_weights(n)
        assert np.array_equal(w, _gammaln_weights(n))
        assert not w.flags.writeable

    def test_read_only(self):
        w = log_binomial_weights(9)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_weights_of_one_n_are_held(self):
        # the weights live in the collapse's one support record, with |g|, its
        # log and exp(weights): four arrays of n + 1, where a cache of the
        # weights of every n would hold eight more over these eight n. n is
        # kept to 2**12 since tracemalloc traces every int and float that
        # ``_lgam`` makes for log x, about 2n per collapse
        row = 8 * ((1 << 12) + 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(8):
                n = (1 << 12) - k
                collapse_lp(lambda s: s * s - 3.0 * s, n, 8)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 5 * row


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

    @pytest.mark.parametrize("f,p", [(sum_function(8), 3.5), (sum_function(16), 8),
                                     (weighted_sum_function([0.5, -1.5, 2.0]), 1)])
    def test_in_range_equals_plain_mean(self, f, p):
        spec = MomentSpec(p=p, reps=5000, seed=7)
        powers = _mc_values(f, spec.reps, spec.seed) ** p
        assert mc_lp(f, spec).value == float(np.mean(powers)) ** (1.0 / p)

    def test_large_p_underflow_is_scaled(self):
        # 0.65^2000 underflows to 0 while max|f| > 0
        est = mc_lp(constant_function(4, 0.65), MomentSpec(p=2000, reps=1000, seed=1))
        assert (est.value, est.batch_min, est.batch_max) == (0.65, 0.65, 0.65)

    def test_large_p_overflow_is_scaled(self):
        # (0.65 * 8)^1024 overflows float64
        f = SignFunction(16, lambda rows: 0.65 * rows[:, 8:16].sum(axis=1, dtype=np.float64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mc_lp(f, MomentSpec(p=1024, reps=2000, seed=1))
        for value in (est.value, est.batch_min, est.batch_median, est.batch_max):
            assert 0 < value <= 0.65 * 8


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

    @pytest.mark.parametrize("a", [[1, -1], [math.nan, 1.0]])
    def test_rejects_negative_weights(self, a):
        with pytest.raises(ValueError, match="non-negative"):
            hitczenko_functional(a, 3)

    def test_infinite_p_is_the_limit_of_large_p(self):
        # every finite p >= len(a) takes all weights in the head
        for a in ([1.0, 0.5], [0.1, 0.7, 0.2, 0.3, 1e-17]):
            limit = hitczenko_functional(a, math.inf)
            assert limit == hitczenko_functional(a, len(a)) == hitczenko_functional(a, 1e300)

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

    @pytest.mark.parametrize("n", range(21))
    def test_lexicographic_layout(self, n):
        # row by row: the whole int64 reference at n = 20 would take 160 MiB
        m, r = sign_matrix(n), np.arange(1 << n)
        assert m.shape == (1 << n, n)
        for i, col in enumerate(m.T):
            assert np.array_equal(col, ((r >> i) & 1) * 2 - 1)

    def test_columns_are_contiguous_int8(self):
        cols = sign_matrix(12).T
        assert cols.dtype == np.int8 and cols.flags.c_contiguous
        assert not cols.flags.writeable

    def test_built_without_temporaries(self):
        # 18 x 2**18 int8 is 4.5 MiB
        assert traced_peak(lambda: sign_matrix(18)) < 8 * 2**20

    def test_one_matrix_held(self):
        # 17 x 2**17 int8 is 2.1 MiB; the n = 18 matrix beside it would add 4.5 MiB
        _sign_columns.held = None
        tracemalloc.start()
        try:
            sign_matrix(18)
            sign_matrix(17)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 3 * 2**20
        assert _sign_columns(17) is _sign_columns(17)

    def test_rejects_arity_above_matrix_cap(self):
        # the whole matrix is held only up to n = 20; enumerate_lp runs in
        # blocks beyond that (TestEnumerateLp.test_streamed_path_beyond_cache)
        with pytest.raises(ValueError, match="cap"):
            sign_matrix(21)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("call", [
    lambda seed: MomentSpec(p=2, reps=100, seed=seed),
    lambda seed: empirical_tail(sum_function(ENUMERATION_CAP + 1), 1.0, reps=100, seed=seed),
], ids=["MomentSpec", "empirical_tail"])
def test_seed_outside_uint64_is_refused(call, seed):
    # a Philox key is a uint64; numpy raised OverflowError for these
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}$"):
        call(seed)


@pytest.mark.parametrize("call", [
    lambda x: enumerate_lp(sum_function(4), x),
    lambda x: MomentSpec(p=x, reps=100),
    lambda x: hitczenko_functional([1.0, 0.5], x),
    lambda x: latala_allones_estimate(4, x),
    lambda x: classical_moment_bound("mcdiarmid", n=4, p=x, beta=1.0),
    lambda x: dyadic_sum_moment_bound(x, 4, 1, 1),
    lambda x: empirical_tail(sum_function(4), x),
    lambda x: tail_probability(ChaosParams(4, 1, 1), x),
], ids=["enumerate_lp", "MomentSpec", "hitczenko_functional", "latala_allones_estimate",
        "classical_moment_bound", "dyadic_sum_moment_bound", "empirical_tail",
        "tail_probability"])
def test_nan_order_or_threshold_is_rejected(call):
    # a NaN fails every comparison, so each check is written as `not x >= bound`
    with pytest.raises(ValueError, match=r"must be >= \d, got nan"):
        call(float("nan"))
