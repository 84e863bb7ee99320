"""Partition scheme tests: structure, the telescoping identity, the generic
conditional-expectation path against block sums built here from the sign
matrix, and the per-layer moment bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablebounds.chaos import ChaosParams, chaos_g, chaos_lp
from stablebounds.oracle import lp_norm, sign_matrix
from stablebounds import partition
from stablebounds.partition import (PartitionTree, block_of, telescope_term_generic,
                                    verify_level_bounds, verify_telescoping)


def block_sums(n: int):
    """The partition tree and the block sums over the enumeration, built from
    ``sign_matrix(n)`` alone: for level l an int8 array whose b-th row sums
    z_j over block b. Only blocks that hold a real index are stored."""
    tree = PartitionTree(n)
    levels = [sign_matrix(n).T]
    for _ in range(tree.k):
        prev = levels[-1]
        pairs = prev[0::2].copy()           # an odd last block has only padding beside it
        pairs[:len(prev) // 2] += prev[1::2]
        levels.append(pairs)
    return tree, levels


def sibling_sum(sums, i: int, l: int):
    """Row of block sums over B^{l+1}(i) \\ B^l(i), or None where it is padding alone."""
    sib = (i >> l) ^ 1
    return sums[l][sib] if sib < len(sums[l]) else None


class TestBuildPartition:
    def test_power_of_two_levels(self):
        tree = PartitionTree(4)
        assert (tree.n_padded, tree.k) == (4, 2)
        assert [list(b) for b in tree.blocks(0)] == [[0], [1], [2], [3]]
        assert [list(b) for b in tree.blocks(1)] == [[0, 1], [2, 3]]
        assert [list(b) for b in tree.blocks(2)] == [[0, 1, 2, 3]]

    def test_padding_to_next_power(self):
        tree = PartitionTree(3)
        assert (tree.n_padded, tree.k) == (4, 2)

    def test_degenerate_single_index(self):
        tree = PartitionTree(1)
        assert (tree.n_padded, tree.k) == (1, 0)
        assert tree.blocks(0) == [range(0, 1)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 100, 999, 2 ** 13 + 1, 2 ** 14])
    def test_structural_invariants(self, n):
        tree = PartitionTree(n)
        assert tree.n <= tree.n_padded < 2 * tree.n or n == 1
        assert tree.n_padded == 1 << tree.k
        for l in range(tree.k + 1):
            blocks = tree.blocks(l)
            assert len(blocks) == tree.n_padded >> l
            assert all(len(b) == 1 << l for b in blocks)
        # each level-l block is the disjoint union of two level-(l-1) blocks
        for l in range(1, tree.k + 1):
            below = tree.blocks(l - 1)
            for m, b in enumerate(tree.blocks(l)):
                left, right = below[2 * m], below[2 * m + 1]
                assert (left.start, left.stop) == (b.start, b.start + len(b) // 2)
                assert (right.start, right.stop) == (b.start + len(b) // 2, b.stop)

    def test_padding_invariant_every_n_up_to_2_14(self):
        for n in range(1, 2 ** 14 + 1):
            tree = PartitionTree(n)
            assert tree.n_padded == 1 << tree.k
            assert tree.n <= tree.n_padded
            assert tree.n_padded < 2 * tree.n or n == 1

    @pytest.mark.parametrize("fields,message", [
        ((0,), "n must be >= 1, got 0"),
        ((2.5,), "^n must be an integer, got 2.5$"),
    ], ids=["n_below_one", "non_integer_n"])
    def test_invalid_construction_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            PartitionTree(*fields)

    def test_build_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            PartitionTree(0)

    @pytest.mark.parametrize("n", [2.5, math.nan])
    def test_build_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            PartitionTree(n)

    def test_level_above_k_rejected(self):
        tree = PartitionTree(5)
        with pytest.raises(ValueError, match=r"level 4 out of range 0..3"):
            tree.blocks(tree.k + 1)


class TestBlockOf:
    def test_spec_block(self):
        # third index (0-based 2) at level 1 sits in the second pair
        tree = PartitionTree(4)
        assert block_of(tree, 2, 1) == range(2, 4)

    def test_singleton_and_top(self):
        tree = PartitionTree(8)
        assert list(block_of(tree, 5, 0)) == [5]
        assert block_of(tree, 5, tree.k) == range(0, 8)

    def test_out_of_range(self):
        tree = PartitionTree(4)
        with pytest.raises(IndexError):
            block_of(tree, 4, 0)
        with pytest.raises(ValueError):
            block_of(tree, 0, 3)


class TestGenericConditionalPath:
    """The nested-enumeration reference path must reproduce the terms
    (beta/2) * z_i * (sibling block sum), built from the sign matrix."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 8), M=st.integers(0, 12).map(lambda q: q / 4),
           beta=st.integers(0, 12).map(lambda q: q / 4), r=st.integers(0, 255))
    @example(n=2, M=0.0, beta=2.0, r=1)       # z = (+1, -1): each term is -1
    @example(n=4, M=2.0, beta=0.0, r=5)       # beta = 0: every term vanishes
    @example(n=3, M=0.5, beta=1.5, r=6)       # index 2 has a padding sibling
    def test_matches_verifier_block_sums(self, n, M, beta, r):
        # the term is (beta/2) * z_i * (sum over the sibling block); the terms
        # and M*z_i rebuild g_i
        params = ChaosParams(n, M, beta)
        tree, sums = block_sums(n)
        r %= 1 << n                              # a row of sign_matrix(n)
        z = sign_matrix(n)[r]
        for i in range(n):
            g_i = _chaos_g_function(params, i)
            total = 0.0
            for l in range(tree.k):
                generic = telescope_term_generic(g_i, tree, i, l, z)
                sib = sibling_sum(sums, i, l)
                if sib is None:                  # the sibling block is padding alone
                    assert generic == 0.0
                    continue
                expected = 0.5 * beta * sums[0][i][r] * sib[r]
                assert abs(generic - expected) <= 1e-12
                total += generic
            assert abs(total + M * z[i] - chaos_g(i, z, params)) <= 1e-12

    def test_level_out_of_range(self):
        tree = PartitionTree(4)
        with pytest.raises(ValueError, match="level"):
            telescope_term_generic(_chaos_g_function(ChaosParams(4, 1.0, 1.0), 0),
                                   tree, 0, 2, [1, 1, 1, 1])

    def test_z_of_wrong_shape_rejected(self):
        tree = PartitionTree(4)
        with pytest.raises(ValueError, match=r"z must have shape \(4,\), got \(3,\)"):
            telescope_term_generic(_chaos_g_function(ChaosParams(4, 1.0, 1.0), 0),
                                   tree, 0, 0, [1, 1, 1])

    def test_cap_enforced(self):
        tree = PartitionTree(16)
        from stablebounds.oracle import sum_function
        with pytest.raises(ValueError, match="capped"):
            telescope_term_generic(sum_function(16), tree, 0, 0, [1] * 16)


def _chaos_g_function(params, i):
    from stablebounds.oracle import SignFunction

    def _eval(rows):
        s = rows.sum(axis=1, dtype=np.float64)
        zi = rows[:, i].astype(np.float64)
        return params.M * zi + 0.5 * params.beta * zi * (s - zi)

    return SignFunction(params.n, _eval, f"g[{i}]")


class TestVerifyTelescoping:
    @pytest.mark.parametrize("params", [
        ChaosParams(4, 1.0, 1.0),
        ChaosParams(2, 0.0, 3.0),
        ChaosParams(8, 0.0, 3.0),
        ChaosParams(3, 1.0, 2.0),    # padded
        ChaosParams(6, 0.5, 0.5),    # padded
        ChaosParams(1, 2.0, 0.0),    # degenerate: no levels
    ])
    def test_identity_holds(self, params):
        report = verify_telescoping(params)
        assert report.max_deviation <= 1e-12
        assert report.passed

    def test_rejects_n_above_matrix_cap(self):
        with pytest.raises(ValueError, match="cap"):
            verify_telescoping(ChaosParams(21, 1.0, 1.0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_nan_deviation_is_reported_and_fails(self):
        # half_beta * 4 overflows to inf, and inf - inf is NaN; a max that
        # kept the running worst over NaN reported 0.0 and passed
        report = verify_telescoping(ChaosParams(8, 0, 1.7e308))
        assert math.isnan(report.max_deviation)
        assert not report.passed

    def test_integer_parameters(self):
        # level 0 is the int8 sign matrix; an int M = 1000 must not be cast to it
        as_int, as_float = ChaosParams(6, 1000, 300), ChaosParams(6, 1000.0, 300.0)
        assert verify_telescoping(as_int) == verify_telescoping(as_float)
        assert verify_level_bounds(as_int, 4) == verify_level_bounds(as_float, 4)
        assert verify_level_bounds(ChaosParams(1, 1000, 3), 2).sum_norm == 1000.0


class TestVerifyLevelBounds:
    def test_two_point_term_norm(self):
        # the only term at n=2 is (beta/2) z_0 z_1 with |.| = beta/2
        beta, p = 1.7, 3.0
        report = verify_level_bounds(ChaosParams(2, 0.0, beta), p)
        bound = 2 * math.sqrt(p) * beta
        assert report.terms.count == 2
        assert report.terms.min_slack == pytest.approx(bound - beta / 2, rel=1e-12)
        assert report.passed

    def test_beta_zero_trivial(self):
        report = verify_level_bounds(ChaosParams(8, 1.0, 0.0), 4)
        assert report.terms.min_slack == 0.0   # bounds and norms all zero
        assert report.passed

    @pytest.mark.parametrize("params", [
        ChaosParams(8, 0.0, 1.0),
        ChaosParams(8, 1.0, 1.0),
        ChaosParams(12, 0.5, 2.0),   # padded
        ChaosParams(16, 10.0, 0.1),
    ])
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_all_layers_hold(self, params, p):
        report = verify_level_bounds(params, p)
        assert report.terms.violations == 0
        assert report.blocks.violations == 0
        assert report.levels.violations == 0
        assert report.passed

    @pytest.mark.parametrize("params", [ChaosParams(1, 2.0, 0.5), ChaosParams(6, 0.5, 2.0),
                                        ChaosParams(13, 10.0, 0.1)])
    @pytest.mark.parametrize("p", [2, 7.5, 1024])
    def test_sum_norm_matches_collapse(self, params, p):
        # two exact routes to ||sum_i g_i||_p: the enumerated closed form and
        # the binomial collapse
        assert verify_level_bounds(params, p).sum_norm == pytest.approx(
            chaos_lp(params, p), rel=1e-12)

    def test_chain_orders_up_to_final_bound(self):
        report = verify_level_bounds(ChaosParams(8, 1.0, 1.0), 4)
        assert (report.sum_norm <= report.chain_value
                <= report.chain_bound <= report.final_bound)

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError, match="p must be"):
            verify_level_bounds(ChaosParams(4, 1.0, 1.0), 1.0)

    def test_rejects_n_above_matrix_cap(self, monkeypatch):
        # the cap is checked before any sign matrix or row of 2^21 is built
        calls = []
        monkeypatch.setattr(partition, "sign_matrix", calls.append)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^arity 21 exceeds sign matrix cap 20$"):
                verify_level_bounds(ChaosParams(21, 1.0, 1.0), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [] and peak < 64 * 2**10

    @pytest.mark.parametrize("p,message", [
        (math.nan, "p must be finite and >= 2, got nan"),
        (math.inf, "p must be finite and >= 2, got inf"),
        (1e308, r"dyadic sum bound overflows at p = 1e\+308, n = 18"),   # the final bound
    ])
    def test_bad_p_fails_before_any_enumeration(self, monkeypatch, p, message):
        calls = []

        def counted(n):
            calls.append(n)
            return sign_matrix(n)

        monkeypatch.setattr(partition, "sign_matrix", counted)
        with pytest.raises(ValueError, match=message):
            verify_level_bounds(ChaosParams(18, 1.0, 1.0), p)
        assert calls == []


def warm_traced_peak(run) -> int:
    """Peak traced bytes of ``run()`` once an untraced call has filled every cache."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerifierMemory:
    """Each verifier call writes only into a few rows of its own, allocated
    per call, and holds nothing once it returns."""

    def test_one_public_sign_matrix_call_per_verifier_call(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return sign_matrix(n)

        monkeypatch.setattr(partition, "sign_matrix", counted)
        verify_telescoping(ChaosParams(10, 1.0, 0.5))
        verify_level_bounds(ChaosParams(10, 1.0, 0.5), 4.0)
        verify_telescoping(ChaosParams(10, 1.0, 0.5))   # a repeated report too
        assert calls == [10, 10, 10]

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_level_bounds_read_the_sixteen_sign_matrix(self, monkeypatch, n):
        # a sibling holds at most 16 indices, and the first m rows over 2^m
        # entries are the same in every matrix
        calls = []

        def counted(n):
            calls.append(n)
            return sign_matrix(n)

        monkeypatch.setattr(partition, "sign_matrix", counted)
        verify_level_bounds(ChaosParams(n, 1.0, 0.5), 2.0)
        assert calls == [16]

    @pytest.mark.parametrize("n", [14, 16])
    def test_warm_call_holds_at_most_eight_rows(self, n):
        # float64 levels rebuilt per call, plus a fresh row per elementwise
        # step, would take 20-26 rows of 2^n, growing with n
        params, rows = ChaosParams(n, 1.0, 0.3), 8 * 8 << n
        assert warm_traced_peak(lambda: verify_telescoping(params)) <= rows
        assert warm_traced_peak(lambda: verify_level_bounds(params, 8.0)) <= rows

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_level_bounds_hold_their_three_work_rows(self, n):
        # three float64 rows of 2^n: the level sums, the block tables, and
        # the powers; the exact sum and S are gathered from n + 1 values by a
        # popcount index held in the block row. A sibling's popcount index
        # adds at most 2^16 entries (a quarter row at n = 18); any temporary
        # of 2^n would cross the fourth row
        row = 8 << n
        peak = warm_traced_peak(lambda: verify_level_bounds(ChaosParams(n, 1.0, 0.3), 8.0))
        assert 3 * row <= peak < 4 * row

    @pytest.mark.parametrize("verify", [lambda params: verify_level_bounds(params, 8.0),
                                        verify_telescoping], ids=["level_bounds", "telescoping"])
    def test_call_holds_nothing_after_it_returns(self, verify):
        # a call at another n first: anything held per n would be rebuilt,
        # and kept, inside the traced call (the level sums of n = 16 are 0.9 MB)
        verify(ChaosParams(15, 1.0, 0.3))
        sign_matrix(16)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verify(ChaosParams(16, 1.0, 0.3))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 4096


def max_over_every_index(n: int, M: float, half_beta: float) -> float:
    """The telescoping deviation written out from the enumeration: every
    index, every sign vector, the verifier's float operations in its order."""
    tree, sums = block_sums(n)
    total = sums[-1][0]
    worst = 0.0
    for i in range(n):
        zi = sums[0][i]
        half_zi, m_zi = half_beta * zi, M * zi
        g = half_zi * (total - zi) + m_zi - m_zi
        acc = np.zeros(1 << n)
        for l in range(tree.k):
            sib = sibling_sum(sums, i, l)
            if sib is not None:
                acc = acc + half_zi * sib
        worst = max(worst, float(np.max(np.abs(acc - g))))
    return worst


class TestTelescopingMemo:
    """The telescoping report holds no memo: each call computes it afresh."""

    @pytest.mark.parametrize("params", [ChaosParams(1, 2.0, 0.0), ChaosParams(6, 0.5, 0.5),
                                        ChaosParams(9, 1000, 300), ChaosParams(12, 0.1, 10.0),
                                        # M sets the rounding of g_i + M*z_i - M*z_i here
                                        ChaosParams(7, 0.1, 0.3), ChaosParams(12, 1e10, 0.2)])
    def test_equals_uncached_core(self, params):
        expected = max_over_every_index(params.n, float(params.M), float(0.5 * params.beta))
        for _ in range(2):
            report = verify_telescoping(params)
            assert report == partition.TelescopeReport(params.n, expected)


class TestTermNormClosedForm:
    """Dual route across modules: each telescoping term is (beta/2) * z_i *
    (sum over a sibling block of size 2^l), so its enumerated L_p norm must
    equal (beta/2) * ||S_{2^l}||_p from the binomial collapse."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("p", [2, 3, 6, 128, 1024])
    def test_enumerated_term_norm_matches_collapse(self, n, p):
        from stablebounds.oracle import SignFunction, collapse_lp, enumerate_lp, lp_norm
        beta = 1.3
        tree, sums = block_sums(n)
        i = 0   # sibling block for index 0 at level l is [2^l, 2^(l+1)), block 1
        for l in range(tree.k):
            d = 1 << l
            term = SignFunction(n, lambda rows, d=d: (
                0.5 * beta * rows[:, i].astype(np.float64)
                * rows[:, d:2 * d].sum(axis=1, dtype=np.float64)))
            # the vectorized form is the verifiers' term, spot-checked here
            step = max(1, (1 << n) // 8)
            assert term.eval(sign_matrix(n)[::step]) == pytest.approx(
                0.5 * beta * (sums[0][i] * sums[l][1])[::step], abs=1e-12)
            expected = 0.5 * beta * collapse_lp(lambda s: s, d, p)
            # the verifiers' norm: |v|^p leaves the float range at large p
            assert lp_norm(term.eval(sign_matrix(n)), p) == pytest.approx(expected, rel=1e-10)
            assert enumerate_lp(term, p) == pytest.approx(expected, rel=1e-10)


class TestSymmetryReductions:
    """Each verifier computes once what the family's symmetry makes equal:
    the telescoping check one grid of the values its terms take per tuple of
    sibling sizes, the level bounds one level-0 norm, the chaos conditions one
    flip. Each is held here to the loop it replaces, written out from the
    enumeration."""

    @pytest.mark.parametrize("n,M,half_beta", [
        (17, 0.1, 0.15), (17, 1e10, 0.1), (19, 0.1, 0.15), (19, 1e10, 0.1),
        # here the worst index lies outside index 0's tuple of sibling sizes
        (11, 78.751, 0.185), (15, 227148239.767, 0.047),
        (20, 1e10, 0.1), (13, 227148239.767, 0.047),
        *((n, M, half_beta) for n in range(1, 17)
          for M, half_beta in ((0.1, 0.15), (78.751, 0.185), (1e10, 0.1))),
    ])
    def test_telescoping_deviation_equals_max_over_every_index(self, n, M, half_beta):
        report = verify_telescoping(ChaosParams(n, M, 2.0 * half_beta))
        assert report.max_deviation == max_over_every_index(n, M, half_beta)

    def test_level_zero_slacks_equal_every_row_norm(self):
        n, p, beta = 17, 3.5, 0.3
        report = verify_level_bounds(ChaosParams(n, 0.1, beta), p)
        z = sign_matrix(n).T
        # i = 16 has only padding beside it; every other level-0 term and block
        # is z_i * (beta/2) * z_{i^1}
        norms = {lp_norm(0.0 + z[i] * (0.5 * beta * z[i ^ 1]), p) for i in range(n - 1)}
        assert len(norms) == 1
        norm = norms.pop()
        assert report.terms.min_slack == 2.0 * math.sqrt(p) * beta - norm
        assert report.blocks.min_slack == 6.0 * math.sqrt(2.0) * p * beta - norm


class TestPeriodRows:
    """``verify_level_bounds`` raises each term, block and sum row only over
    the distinct values of its table, gathers them by popcount where a
    sibling's or S's values stand for its sign patterns, lays them out over
    one period of at least 128 entries, and takes their norms with a repeat
    factor. Held here with ``==``, norm for norm, to the full-row loop it
    replaces, written out from the enumeration: around the 128-entry floor
    (n = 7, 8), with top-level siblings of 5 to 8 indices (n = 13, 14, 16),
    above the golden grid (n = 17..20), and where |v|^p leaves the float
    range (every p at beta = 1e200, p = 1000 at beta = 1), so the rescaled
    pass runs too."""

    @pytest.mark.parametrize("n,M,beta,orders", [
        pytest.param(n, M, beta, orders, id=f"{n}-{M}-{beta}-p{'_'.join(map(str, orders))}")
        for n, M, beta, orders in (
            *((n, M, beta, (2, 3.5, 8)) for n in (7, 8, 17, 18, 19, 20)
              for M, beta in ((1.0, 1.0), (0.1, 0.3)) if n < 20 or M == 1.0),
            # top-level blocks with their sibling below and above them
            *((n, 0.1, 0.3, (2, 3.5, 8)) for n in (13, 14, 16)),
            (12, 0.0, 1e200, (2, 3.5, 8)), (17, 1.0, 1.0, (1000,)))])
    def test_norms_equal_the_full_row_loop(self, monkeypatch, n, M, beta, orders):
        expected = {p: [] for p in orders}
        tree, sums = block_sums(n)
        for l in range(tree.k):
            level = np.zeros(1 << n)
            for block in tree.blocks(l):
                sib = sibling_sum(sums, block.start, l)
                if block.start >= n or sib is None:
                    continue
                half_sib = 0.5 * beta * sib
                values = np.zeros(1 << n)
                for i in range(block.start, min(block.stop, n)):
                    values += sums[0][i] * half_sib
                for p in orders:
                    if l > 0 or not expected[p]:    # one level-0 norm serves every block
                        expected[p].append(lp_norm(half_sib, p))
                    if l > 0:
                        expected[p].append(lp_norm(values, p))
                level += values
            for p in orders:
                expected[p].append(lp_norm(level, p))
        total = sums[-1][0].astype(np.float64)      # S, then sum_i g_i = M*S + (beta/2)(S*S - n)
        chaos_sum = M * total + 0.5 * beta * (total * total - n)
        for p in orders:
            expected[p] += [lp_norm(chaos_sum, p), lp_norm(total, p)]

        taken = []
        norm = partition._period_lp

        def recorded(*args, **kwargs):
            taken.append(norm(*args, **kwargs))
            return taken[-1]

        monkeypatch.setattr(partition, "_period_lp", recorded)
        for p in orders:
            taken.clear()
            verify_level_bounds(ChaosParams(n, M, beta), p)
            assert taken == expected[p]

    @pytest.mark.parametrize("n,full", [(16, 4), (18, 2)])
    def test_full_width_norms(self, monkeypatch, n, full):
        # tables of all 2**n entries, each raised to p in full: the level
        # rows that read the last coordinate, z_(n-1); every term and block
        # table is raised over its own patterns and its sibling's m + 1 values
        lengths = []
        norm = partition._period_lp

        def recorded(table, *args, **kwargs):
            lengths.append(table.size)
            return norm(table, *args, **kwargs)

        monkeypatch.setattr(partition, "_period_lp", recorded)
        verify_level_bounds(ChaosParams(n, 1.0, 1.0), 8.0)
        assert lengths.count(1 << n) == full
