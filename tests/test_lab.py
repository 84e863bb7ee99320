"""Stability lab tests.

The clipped-mean learner on Bernoulli(1/2) labels admits closed forms that
serve as independent oracles here: with K ones among n labels the fitted
mean is K/n, the risk of any constant c in [0,1] under absolute loss is
exactly 1/2, the empirical risk is 2K(n-K)/n^2, and therefore

    gap = n/2 - 2K(n-K)/n = 2(K - n/2)^2 / n.
"""

import dataclasses
import math
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablebounds import lab
from stablebounds.lab import (Example, FiniteDistribution, GammaEstimate,
                              LearnerSpec, _draws, _losses, _replace_one,
                              absolute_loss, bernoulli_labels,
                              check_deterministic, clipped_mean_learner,
                              collect_gaps, constant_learner,
                              correlation_check, empirical_risk,
                              estimate_gamma, four_point, g_i_exact, g_values,
                              gap, gap_loo, gap_quantiles, labelled_pair,
                              memorizer_learner, refit, replace,
                              replace_one_terms, risk, sandwich_check,
                              sandwich_sweep, shrunk_mean_learner,
                              zero_one_loss)

BERN = bernoulli_labels(0.5)
PAIR = labelled_pair(0.5)


def dataset_of_labels(labels):
    return tuple(Example(0.0, float(y)) for y in labels)


def clipped_gap_oracle(labels):
    n, k = len(labels), sum(labels)
    return n / 2.0 - 2.0 * k * (n - k) / n


class TestDistributions:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            FiniteDistribution(support=(Example(0, 0), Example(0, 1)),
                               probs=(0.5, 0.4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_probabilities_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            FiniteDistribution(support=(Example(0, 0), Example(0, 1)),
                               probs=(bad, 1.0))

    def test_sampling_is_seeded(self):
        rng1 = np.random.Generator(np.random.Philox(key=np.uint64(9)))
        rng2 = np.random.Generator(np.random.Philox(key=np.uint64(9)))
        assert BERN.sample(rng1, 8) == BERN.sample(rng2, 8)


class TestRisk:
    def test_constant_loss(self):
        spec = constant_learner(0.0, loss=lambda pred, y: 0.3, loss_bound=1.0)
        assert risk(spec, spec.fit(()), BERN) == pytest.approx(0.3)

    def test_two_point_average(self):
        spec = constant_learner(0.0, loss=zero_one_loss)
        # predicts 0.0; wrong exactly on the y = 1 half
        assert risk(spec, spec.fit(()), BERN) == pytest.approx(0.5)

    def test_clipped_mean_exact_support_enumeration(self):
        spec = clipped_mean_learner()
        h = spec.fit(dataset_of_labels([1, 1, 1, 0]))
        # c = 3/4; E|c - y| = 0.5*(3/4) + 0.5*(1/4) = 1/2
        assert risk(spec, h, BERN) == pytest.approx(0.5)


class TestGap:
    def test_constant_predictor_matching_dataset(self):
        spec = constant_learner(0.0, loss=zero_one_loss)
        ds = dataset_of_labels([0, 1, 0, 1])    # empirical loss 1/2 = risk
        assert gap(spec, ds, BERN) == pytest.approx(0.0)

    @pytest.mark.parametrize("labels", list(product((0, 1), repeat=4)))
    def test_clipped_mean_matches_closed_form(self, labels):
        spec = clipped_mean_learner()
        assert gap(spec, dataset_of_labels(labels), BERN) == pytest.approx(
            clipped_gap_oracle(labels), abs=1e-12)

    def test_bounded_by_nL(self):
        spec = memorizer_learner()
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        for _ in range(50):
            ds = PAIR.sample(rng, 12)
            assert abs(gap(spec, ds, PAIR)) <= 12 * spec.loss_bound + 1e-12


class TestGapLoo:
    def test_constant_predictor_equals_gap(self):
        spec = constant_learner(0.0, loss=zero_one_loss)
        ds = dataset_of_labels([0, 1, 1, 1])
        assert gap_loo(spec, ds, BERN) == pytest.approx(gap(spec, ds, BERN))

    def test_memorizer_interpolation_case(self):
        # zero empirical risk makes gap = n*risk, while leaving out the only
        # occurrence of x = 1 exposes the default prediction in the loo score
        spec = memorizer_learner(default=0.0)
        ds = (Example(0.0, 0.0), Example(1.0, 1.0), Example(0.0, 0.0))
        assert empirical_risk(spec, spec.fit(ds), ds) == 0.0
        assert gap(spec, ds, PAIR) == pytest.approx(3 * risk(spec, spec.fit(ds), PAIR))
        assert gap_loo(spec, ds, PAIR) == pytest.approx(3 * (0.0 - 1.0 / 3.0))
        # unseen instance: risk is positive while the training loss is zero
        unseen = (Example(0.0, 0.0),) * 3
        assert gap(spec, unseen, PAIR) == pytest.approx(1.5)

    def test_clipped_mean_against_manual_refits(self):
        spec = clipped_mean_learner()
        labels = [1, 1, 1, 0]
        ds = dataset_of_labels(labels)
        loo = 0.0
        for i, y in enumerate(labels):
            rest = labels[:i] + labels[i + 1:]
            c = sum(rest) / len(rest)
            loo += abs(c - y)
        loo /= len(labels)
        expected = len(labels) * (0.5 - loo)
        assert gap_loo(spec, ds, BERN) == pytest.approx(expected, abs=1e-12)

    def test_rejects_singleton(self):
        with pytest.raises(ValueError, match="n >= 2"):
            gap_loo(clipped_mean_learner(), dataset_of_labels([1]), BERN)


class TestReplaceOneFastPaths:
    @pytest.mark.parametrize("factory", [clipped_mean_learner,
                                         lambda: shrunk_mean_learner(1.0)])
    def test_hook_matches_full_refit(self, factory):
        spec = factory()
        rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
        for _ in range(30):
            ds = BERN.sample(rng, 9)
            base = spec.fit(ds)
            i = int(rng.integers(9))
            for example in BERN.support:
                fast = refit(spec, ds, base, i, example)
                slow = spec.fit(replace(ds, i, example))
                assert fast(0.0) == pytest.approx(slow(0.0), abs=1e-12)


class TestGValues:
    def test_constant_predictor_sum_equals_gap(self):
        spec = constant_learner(0.0, loss=zero_one_loss)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(2)))
        for _ in range(10):
            ds = BERN.sample(rng, 8)
            vals = g_values(spec, ds, BERN)
            assert sum(vals) == pytest.approx(gap(spec, ds, BERN), abs=1e-12)

    def test_constant_predictor_pointwise_form(self):
        spec = constant_learner(0.0, loss=zero_one_loss)
        ds = dataset_of_labels([1, 0, 1])
        h = spec.fit(ds)
        r = risk(spec, h, BERN)
        for i in range(3):
            expected = r - spec.loss(h(ds[i].x), ds[i].y)
            assert g_i_exact(spec, ds, BERN, i) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("spec_factory,dist", [
        (clipped_mean_learner, BERN),
        (memorizer_learner, PAIR),
    ])
    def test_zero_mean_over_exhaustive_datasets(self, spec_factory, dist):
        # law of total expectation: E over iid datasets of g_i is exactly 0
        spec = spec_factory()
        n, i = 4, 1
        total = 0.0
        for combo in product(range(len(dist.support)), repeat=n):
            prob = math.prod(dist.probs[j] for j in combo)
            ds = tuple(dist.support[j] for j in combo)
            total += prob * g_i_exact(spec, ds, dist, i)
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_magnitude_bounded_by_L(self):
        for spec, dist in ((clipped_mean_learner(), BERN),
                           (memorizer_learner(), PAIR),
                           (shrunk_mean_learner(2.0), BERN)):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
            for _ in range(20):
                ds = dist.sample(rng, 6)
                assert all(abs(v) <= spec.loss_bound + 1e-12
                           for v in g_values(spec, ds, dist))

    def test_work_cap(self):
        with pytest.raises(ValueError, match="cap"):
            g_values(clipped_mean_learner(), dataset_of_labels([0, 1]), BERN,
                     max_refits=1)


class TestSandwich:
    def test_constant_predictor_equality(self):
        spec = constant_learner(0.0, loss=zero_one_loss)
        ds = dataset_of_labels([1, 1, 0, 1])
        report = sandwich_check(spec, ds, BERN, gamma=0.0)
        assert report.bound == 0.0
        assert report.slack == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    @pytest.mark.parametrize("factory,dist", [
        (clipped_mean_learner, BERN),
        (lambda: shrunk_mean_learner(0.5), BERN),
        (memorizer_learner, PAIR),
    ])
    def test_holds_over_seeded_datasets(self, factory, dist):
        spec = factory()
        sweep = sandwich_sweep(spec, dist, n=10, reps=300, seed=17)
        assert sweep.violations == 0
        assert sweep.passed

    def test_explicit_gamma_override(self):
        spec = clipped_mean_learner()
        ds = dataset_of_labels([1, 0, 0, 0])
        report = sandwich_check(spec, ds, BERN, gamma=0.25)
        assert report.bound == pytest.approx(2.0)
        assert report.passed


class TestEstimateGamma:
    def test_constant_predictor_is_zero(self):
        est = estimate_gamma(constant_learner(0.0), BERN, n=5)
        assert est.value == 0.0
        assert est.mode == "exhaustive"

    def test_clipped_mean_exhaustive_exact(self):
        est = estimate_gamma(clipped_mean_learner(), BERN, n=10, mode="exhaustive")
        assert est.value == pytest.approx(0.1, abs=1e-12)
        assert est.mode == "exhaustive"

    def test_shrunk_mean_matches_analytic(self):
        spec = shrunk_mean_learner(1.0)
        est = estimate_gamma(spec, BERN, n=6, mode="exhaustive")
        assert est.value == pytest.approx(spec.analytic_gamma(6), abs=1e-12)

    def test_memorizer_is_unstable(self):
        est = estimate_gamma(memorizer_learner(), PAIR, n=4, mode="exhaustive")
        assert est.value == pytest.approx(1.0)   # equals the loss bound

    def test_sampled_mode_is_lower_estimate(self):
        exhaustive = estimate_gamma(clipped_mean_learner(), BERN, n=8,
                                    mode="exhaustive")
        sampled = estimate_gamma(clipped_mean_learner(), BERN, n=8,
                                 trials=200, seed=4, mode="sampled")
        assert sampled.mode == "sampled"
        assert sampled.value <= exhaustive.value + 1e-12

    def test_auto_falls_back_to_sampling(self):
        est = estimate_gamma(clipped_mean_learner(), BERN, n=64, trials=50, seed=1)
        assert est.mode == "sampled"

    def test_exhaustive_skips_equal_replacements(self):
        # this array form claims that replacing z_i by itself moves every
        # loss by 1; exhaustive mode never evaluates such a replacement
        def batch_losses(idx, dist, refits):
            n, reps = idx.shape
            moved = np.zeros((n, len(dist.support), len(dist.support), reps))
            moved[np.arange(n)[:, None], idx, :, np.arange(reps)] = 1.0
            return np.zeros((len(dist.support), reps)), moved

        spec = LearnerSpec(name="self-moving", fit=lambda ds: (lambda x: 0.0),
                           loss=absolute_loss, loss_bound=1.0, batch_losses=batch_losses)
        est = estimate_gamma(spec, four_point(), n=3, mode="exhaustive")
        assert (est.value, est.evaluations) == (0.0, 3 * 4 ** 3 * 12)

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_empty_datasets(self, n):
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(ValueError, match="n must be >= 1"):
                estimate_gamma(clipped_mean_learner(), BERN, n=n, mode=mode)

    @pytest.mark.parametrize("learner", ["clipped_mean", "memorizer"])
    def test_sampled_without_array_form_equals_array_form(self, learner):
        spec, dist = SHIPPED[learner](), PAIR if learner == "memorizer" else BERN
        with_array = estimate_gamma(spec, dist, n=64, trials=300, seed=1, mode="sampled")
        assert estimate_gamma(reference_of(spec), dist, n=64, trials=300, seed=1,
                              mode="sampled") == with_array

    def test_sampled_without_array_form_refits_once_per_trial(self):
        # one fit and at most one refit per trial, not all n * K refits
        calls = []
        spec = clipped_mean_learner()

        def fit(ds):
            calls.append("fit")
            return spec.fit(ds)

        def replace_one(ds, h, i, e):
            calls.append("refit")
            return spec.replace_one(ds, h, i, e)

        counted = dataclasses.replace(spec, fit=fit, replace_one=replace_one,
                                      batch_losses=None)
        estimate_gamma(counted, BERN, n=64, trials=300, seed=1, mode="sampled")
        assert calls.count("fit") == 300 and calls.count("refit") <= 300

    def test_sampled_memory_is_bounded(self):
        # datasets are drawn block by block; all 1250 at once would hold
        # 1250 x 8192 indices (80 MB). Few long datasets rather than many
        # short ones, because tracemalloc slows every per-trial draw.
        tracemalloc.start()
        try:
            est = estimate_gamma(memorizer_learner(), PAIR, n=8192, trials=1250,
                                 seed=3, mode="sampled")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.mode == "sampled"
        assert peak < 16 * 2**20


class TestCorrelation:
    def test_constant_predictor_within_noise_of_zero(self):
        spec = constant_learner(0.0, loss=zero_one_loss)
        report = correlation_check(spec, BERN, n=20, reps=1500, seed=23)
        assert report.passed
        for pair in report.pairs:
            assert abs(pair.estimate) <= 3.0 * pair.stderr + 1e-12

    def test_clipped_mean_weak_correlation(self):
        report = correlation_check(clipped_mean_learner(), BERN, n=50,
                                   reps=1200, seed=31)
        assert report.gamma == pytest.approx(0.02)
        assert report.passed

    def test_variance_within_shape_bound(self):
        report = correlation_check(clipped_mean_learner(), BERN, n=30,
                                   reps=1500, seed=7)
        margin = 3.0 * report.gap_variance_stderr
        assert report.gap_variance <= report.gap_variance_bound + margin

    def test_rejects_few_reps(self):
        with pytest.raises(ValueError, match="reps"):
            correlation_check(clipped_mean_learner(), BERN, n=10, reps=500, seed=0)


class TestQuantiles:
    def test_zero_learner_all_zero(self):
        spec = constant_learner(0.0, loss=lambda pred, y: 0.0, loss_bound=0.0)
        table = gap_quantiles(spec, BERN, n=40, reps=1000, deltas=[0.1], seed=5)
        assert table.rows[0].quantile == 0.0
        assert table.rows[0].single_log == 0.0
        assert table.passed

    def test_clipped_mean_dominated_by_bounds(self):
        table = gap_quantiles(clipped_mean_learner(), BERN, n=50, reps=2000,
                              deltas=[0.1, 0.01], seed=13)
        for row in table.rows:
            assert row.quantile <= row.single_log
            assert row.moment_tail <= 50 * 1.0 + 1e-12   # capped at n*L
        assert table.passed

    def test_gaps_match_closed_form(self):
        gaps = collect_gaps(clipped_mean_learner(), BERN, n=16, reps=500, seed=2)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(2)))
        for r in range(500):
            labels = [e.y for e in BERN.sample(rng, 16)]
            assert gaps[r] == pytest.approx(clipped_gap_oracle(labels), abs=1e-12)


class TestSampleSizeCap:
    """Sample sizes above ``lab._MAX_N`` are refused before any dataset is drawn."""

    def test_every_drawing_path_is_capped(self, monkeypatch):
        monkeypatch.setattr("stablebounds.lab._MAX_N", 64)
        spec = clipped_mean_learner()
        for run in (lambda: check_deterministic(spec, BERN, n=65),
                    lambda: collect_gaps(spec, BERN, n=65, reps=10, seed=1),
                    lambda: sandwich_sweep(spec, BERN, n=65, reps=10, seed=1),
                    lambda: correlation_check(spec, BERN, n=65, reps=1000, seed=1),
                    lambda: estimate_gamma(spec, BERN, n=65, trials=10, mode="sampled")):
            with pytest.raises(ValueError, match="sample size cap"):
                run()
        assert collect_gaps(spec, BERN, n=64, reps=10, seed=1).shape == (10,)

    @pytest.mark.parametrize("run", [
        lambda spec: collect_gaps(spec, BERN, n=0, reps=10, seed=1),
        lambda spec: sandwich_sweep(spec, BERN, n=0, reps=10, seed=1),
        lambda spec: gap_quantiles(spec, BERN, 0, 1000, [0.1], seed=1),
        lambda spec: estimate_gamma(spec, BERN, n=0),
    ], ids=["collect_gaps", "sandwich_sweep", "gap_quantiles", "estimate_gamma"])
    def test_empty_sample_is_refused(self, run):
        # n is checked first: the analytic gamma and the draw blocks divide by n
        with pytest.raises(ValueError, match=r"n must be >= 1, got 0"):
            run(clipped_mean_learner())


class TestInputChecks:
    """NaN fails every comparison, so each check is written as `not x >= c`;
    a Philox key is a uint64, so a seed outside [0, 2**64) is refused."""

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_shrinkage_is_refused(self, bad):
        # a NaN lam made a sandwich sweep with gamma = nan that checked nothing
        with pytest.raises(ValueError, match=f"lam must be >= 0, got {bad}"):
            shrunk_mean_learner(bad)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_loss_bound_is_refused(self, bad):
        with pytest.raises(ValueError, match=f"loss_bound must be >= 0, got {bad}"):
            LearnerSpec(name="bad", fit=lambda ds: (lambda x: 0.0), loss=absolute_loss,
                        loss_bound=bad)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("run", [
        lambda spec, seed: check_deterministic(spec, BERN, n=4, seed=seed),
        lambda spec, seed: collect_gaps(spec, BERN, n=5, reps=10, seed=seed),
        lambda spec, seed: gap_quantiles(spec, BERN, 5, 1000, [0.1], seed=seed),
        lambda spec, seed: sandwich_sweep(spec, BERN, n=5, reps=10, seed=seed),
        lambda spec, seed: correlation_check(spec, BERN, n=5, reps=1000, seed=seed),
        lambda spec, seed: estimate_gamma(spec, BERN, n=5, trials=10, seed=seed,
                                          mode="sampled"),
    ], ids=["check_deterministic", "collect_gaps", "gap_quantiles", "sandwich_sweep",
            "correlation_check", "estimate_gamma"])
    def test_seed_outside_uint64_is_refused(self, run, seed):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}$"):
            run(clipped_mean_learner(), seed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("run", [
        lambda gamma: sandwich_sweep(clipped_mean_learner(), BERN, 5, 10, 1, gamma=gamma),
        lambda gamma: correlation_check(clipped_mean_learner(), BERN, 5, 1000, 1,
                                        gamma=gamma),
        lambda gamma: gap_quantiles(clipped_mean_learner(), BERN, 5, 1000, [0.1], 1,
                                    gamma=gamma),
    ], ids=["sandwich_sweep", "correlation_check", "gap_quantiles"])
    def test_given_gamma_not_finite_and_nonneg_is_refused(self, monkeypatch, run, bad):
        # a NaN gamma made a sweep with violations = 0 and max_excess = nan
        def draws(*args):
            pytest.fail("a dataset was drawn before gamma was checked")

        monkeypatch.setattr(lab, "_draws", draws)
        with pytest.raises(ValueError, match=f"gamma must be finite and >= 0, got {bad}$"):
            run(bad)

    @pytest.mark.parametrize("call,message", [
        (lambda: FiniteDistribution(support=(Example(0.0, 0.0),), probs=(0.5, 0.5)),
         "support and probs must be non-empty and match"),
        (lambda: g_i_exact(clipped_mean_learner(), dataset_of_labels([0, 1]), BERN, 2),
         "index 2 out of range for n=2"),
        (lambda: estimate_gamma(clipped_mean_learner(), BERN, n=4, trials=0),
         "trials must be >= 1, got 0"),
        (lambda: estimate_gamma(clipped_mean_learner(), BERN, n=4, mode="guess"),
         "unknown mode 'guess'"),
        (lambda: estimate_gamma(clipped_mean_learner(), BERN, n=4, mode="exhaustive",
                                exhaustive_cap=10),
         "exhaustive enumeration needs 256 evaluations, cap is 10"),
        (lambda: correlation_check(clipped_mean_learner(), BERN, n=1, reps=1000, seed=1),
         "need n >= 2 for index pairs, got 1"),
        (lambda: gap_quantiles(clipped_mean_learner(), BERN, 5, 999, [0.1], seed=1),
         "reps must be >= 1000, got 999"),
        (lambda: sandwich_sweep(dataclasses.replace(clipped_mean_learner(),
                                                    analytic_gamma=None), BERN, 5, 10, 1),
         "clipped_mean has no analytic gamma; pass one explicitly"),
        (lambda: bernoulli_labels(0.0), "p must lie in (0, 1), got 0.0"),
        (lambda: labelled_pair(1.0), "p must lie in (0, 1), got 1.0"),
    ], ids=["distribution", "g_i_index", "trials", "mode", "exhaustive_cap", "pairs_n",
            "quantile_reps", "no_analytic_gamma", "bernoulli_p", "pair_p"])
    def test_guard(self, call, message):
        # guards that no other test reaches, each with its message
        with pytest.raises((ValueError, IndexError), match=f"^{re.escape(message)}$"):
            call()


class TestDeterminismGuard:
    def test_accepts_deterministic_learner(self):
        check_deterministic(clipped_mean_learner(), BERN, n=8)

    def test_rejects_randomized_learner(self):
        state = np.random.default_rng(0)

        def fit(ds):
            noise = float(state.normal())
            return lambda x: noise

        spec = LearnerSpec(name="noisy", fit=fit, loss=absolute_loss,
                           loss_bound=10.0)
        with pytest.raises(ValueError, match="deterministic"):
            check_deterministic(spec, BERN, n=4)


class TestFourPoint:
    def test_memorizer_on_conflicting_labels(self):
        # same x can carry both labels; first occurrence must win
        spec = memorizer_learner()
        ds = (Example(0.0, 1.0), Example(0.0, 0.0), Example(1.0, 1.0))
        h = spec.fit(ds)
        assert h(0.0) == 1.0
        assert h(1.0) == 1.0
        assert risk(spec, h, four_point()) == pytest.approx(
            0.4 * 1.0 + 0.1 * 0.0 + 0.2 * 1.0 + 0.3 * 0.0)


SHIPPED = {"constant": constant_learner,
           "clipped_mean": clipped_mean_learner,
           "shrunk_mean": lambda: shrunk_mean_learner(1.0),
           "memorizer": memorizer_learner}
DISTRIBUTIONS = {"bernoulli_labels": bernoulli_labels,
                 "labelled_pair": labelled_pair,
                 "four_point": lambda p: four_point()}


def reference_of(spec):
    """The same learner without its array form: every call then runs the
    per-example reference path."""
    return dataclasses.replace(spec, batch_losses=None)


class TestKernelMatchesReference:
    """The batched kernel and the per-example reference give equal floats
    (``==``, not approx) for every shipped learner and distribution."""

    @pytest.mark.parametrize("dist_name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("learner", sorted(SHIPPED))
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           p=st.floats(0.05, 0.95))
    def test_gaps_terms_and_g_values(self, learner, dist_name, n, seed, p):
        spec, dist = SHIPPED[learner](), DISTRIBUTIONS[dist_name](p)
        ref = reference_of(spec)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        for _, idx in _draws(dist, n, 4, rng):
            gaps, terms = _replace_one(spec, dist, idx)
            ref_gaps, ref_terms = _replace_one(ref, dist, idx)
            assert np.array_equal(gaps, ref_gaps)
            assert np.array_equal(terms, ref_terms)
            for r in range(idx.shape[1]):
                ds = tuple(dist.support[k] for k in idx[:, r])
                assert gaps[r] == gap(spec, ds, dist)
                g = g_values(spec, ds, dist)
                assert g == g_values(ref, ds, dist)
                assert g == [sum(row) for row in replace_one_terms(spec, ds, dist).tolist()]
                assert (sandwich_check(spec, ds, dist, 1.0)
                        == sandwich_check(ref, ds, dist, 1.0))
        for reps in (1, 9):     # a one-dataset block is summed in order too
            assert np.array_equal(collect_gaps(spec, dist, n, reps, seed),
                                  collect_gaps(ref, dist, n, reps, seed))
            assert (sandwich_sweep(spec, dist, n, reps, seed, gamma=1.0)
                    == sandwich_sweep(ref, dist, n, reps, seed, gamma=1.0))

    def test_memorizer_conflicting_labels(self):
        # x = 0 carries both labels; the first occurrence decides, so the
        # replace-one refits depend on the order of the examples
        spec, dist = memorizer_learner(), four_point()
        ds = (Example(1.0, 0.0), Example(0.0, 1.0), Example(0.0, 0.0),
              Example(1.0, 1.0), Example(0.0, 1.0))
        g = g_values(spec, ds, dist)
        assert g == g_values(reference_of(spec), ds, dist)
        assert g != g_values(spec, ds[::-1], dist)[::-1]
        assert [g_i_exact(spec, ds, dist, i) for i in range(len(ds))] == g

    def test_correlation_check_matches(self):
        spec = shrunk_mean_learner(0.5)
        assert (correlation_check(spec, four_point(), 6, 1000, 3)
                == correlation_check(reference_of(spec), four_point(), 6, 1000, 3))

    def test_dataset_off_the_support_uses_reference(self):
        spec = clipped_mean_learner()
        ds = dataset_of_labels([0, 1]) + (Example(0.0, 0.25),)
        g = g_values(spec, ds, BERN)
        assert g == g_values(reference_of(spec), ds, BERN)
        # refits of z_3 = (0, 1/4) predict 1/3 and 2/3; every risk is 1/2
        assert g[2] == pytest.approx(0.5 - 0.5 * (1 / 12 + 5 / 12), abs=1e-12)

    def test_empty_sweep(self):
        sweep = sandwich_sweep(clipped_mean_learner(), BERN, n=5, reps=0, seed=1)
        assert (sweep.violations, sweep.max_slack, sweep.max_excess) == (0, 0.0, -math.inf)
        assert collect_gaps(clipped_mean_learner(), BERN, n=5, reps=0, seed=1).shape == (0,)


def gamma_loop(spec, dist, n, trials=1000, seed=0, mode="auto",
               exhaustive_cap=2_000_000):
    """``estimate_gamma`` as a per-example loop over datasets, positions,
    replacements and test points: the brute-force reference."""
    k = len(dist.support)
    cost = (k ** n) * n * k * k if n * np.log(k) < 50 else float("inf")
    if mode == "exhaustive" or (mode == "auto" and cost <= exhaustive_cap):
        worst = 0.0
        count = 0
        for ds in product(dist.support, repeat=n):
            base = spec.fit(ds)
            base_losses = [spec.loss(base(e.x), e.y) for e in dist.support]
            for i in range(n):
                for repl in dist.support:
                    if repl == ds[i]:
                        continue
                    h = refit(spec, ds, base, i, repl)
                    for j, e in enumerate(dist.support):
                        worst = max(worst, abs(spec.loss(h(e.x), e.y) - base_losses[j]))
                        count += 1
        return GammaEstimate(value=worst, mode="exhaustive", evaluations=count)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    worst = 0.0
    probs = np.asarray(dist.probs)
    for _ in range(trials):
        ds = dist.sample(rng, n)
        i = int(rng.integers(n))
        repl = dist.support[int(rng.choice(k, p=probs))]
        test = dist.support[int(rng.choice(k, p=probs))]
        base = spec.fit(ds)
        h = refit(spec, ds, base, i, repl)
        worst = max(worst, abs(spec.loss(h(test.x), test.y)
                               - spec.loss(base(test.x), test.y)))
    return GammaEstimate(value=worst, mode="sampled", evaluations=trials)


class TestLossArrays:
    """``estimate_gamma`` and the learners' array forms against per-example
    references, with ``==``."""

    @pytest.mark.parametrize("dist_name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("learner", sorted(SHIPPED))
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 6), array_form=st.booleans(),
           mode=st.sampled_from(["exhaustive", "sampled"]),
           trials=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           p=st.floats(0.05, 0.95))
    def test_estimate_gamma_equals_loop(self, learner, dist_name, n, array_form,
                                        mode, trials, seed, p):
        spec, dist = SHIPPED[learner](), DISTRIBUTIONS[dist_name](p)
        if not array_form:
            spec = reference_of(spec)
        assert (estimate_gamma(spec, dist, n, trials, seed, mode)
                == gamma_loop(spec, dist, n, trials, seed, mode))

    @pytest.mark.parametrize("dist_name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("learner", sorted(SHIPPED))
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 30), reps=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), p=st.floats(0.05, 0.95))
    def test_batch_losses_contract(self, learner, dist_name, n, reps, seed, p):
        spec, dist = SHIPPED[learner](), DISTRIBUTIONS[dist_name](p)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        for _, idx in _draws(dist, n, reps, rng):
            base, moved = spec.batch_losses(idx, dist, True)
            ref_base, ref_moved = _losses(reference_of(spec), dist, idx, True)
            assert np.array_equal(base, ref_base)
            assert np.array_equal(moved, ref_moved)
            assert np.array_equal(spec.batch_losses(idx, dist, False)[0], ref_base)
