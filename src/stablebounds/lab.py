"""Simulated learners on finite-support distributions.

Everything here is exactly computable: distributions have explicitly
enumerated finite support, learners are deterministic, so risks, gaps,
leave-one-out estimates and the replace-one functions

    g_i = E_{z'_i} [ E_{(X,Y)} loss(A_{S^i}(X), Y) - loss(A_{S^i}(X_i), Y_i) ]

are finite sums, not estimates. The module checks the gap/sum-of-g sandwich
| |gap| - |sum_i g_i| | <= 2*gamma*n, the weak-correlation bound
|E g_i g_j| <= 4*gamma^2, the variance shape bound, and compares empirical
gap quantiles against every closed-form generalization bound.

All of them, and ``estimate_gamma``, read the loss arrays of ``_losses``:
the learner's array form ``LearnerSpec.batch_losses`` (the four shipped
learners have one), else the same arrays built one dataset at a time
(sampled ``estimate_gamma`` then builds only the one refit each trial reads).
Sample sizes are capped at ``_MAX_N``, checked before any dataset is drawn. The
batched replace-one kernel ``_replace_one`` sums them left to right, so its
floats equal those of the per-example reference ``replace_one_terms``.

Learners must be deterministic; randomized rules would break the
replace-one bookkeeping and are rejected by ``check_deterministic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable

import numpy as np

from .bounds import (BoundInputs, ceil_log2, generalization_bound, tail_from_moments,
                     variance_bound)
from .oracle import _check_int, _check_real, _check_seed, _require_nonneg

Predictor = Callable[[object], object]

# Float64 cells (examples x support points^2 x datasets) in one block of the
# replace-one kernel: its temporaries hold about 0.5 MB each, whatever the
# number of datasets, while n * K^2 <= 2^16. Past that a block is one dataset,
# and the kernel holds about 116 B per example at K = 2.
_BLOCK_CELLS = 1 << 16
# The largest sample size drawn: about 120 MB for one dataset at K = 2.
_MAX_N = 1 << 20
# Support points up to which ``_pick`` counts by K - 1 comparisons, not
# numpy's binary search; on a 2000 x 100 block 0.4 against 4.0 ms at K = 2,
# about 10 ms each at K = 32, 20 against 11 ms at K = 64.
_COMPARE_K = 32


@dataclass(frozen=True)
class Example:
    """One labelled point."""

    x: object
    y: object


Dataset = tuple  # tuple[Example, ...]; order matters (index i is replaceable)


@dataclass(frozen=True)
class FiniteDistribution:
    """Explicitly enumerated distribution over examples."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be non-empty and match")
        if not all(np.isfinite(q) and q >= 0 for q in self.probs):
            raise ValueError("probabilities must be finite and non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(self.probs)!r}, not 1")

    def sample(self, rng: np.random.Generator, n: int) -> Dataset:
        """n examples drawn i.i.d.; the stream of ``Generator.choice(K, n,
        p=probs)``: inverse CDF on ``rng.random(n)``."""
        idx = _pick(_cdf(self), rng.random(n))
        return tuple(self.support[i] for i in idx.tolist())


def _cdf(dist: FiniteDistribution) -> np.ndarray:
    """``Generator.choice``'s CDF of ``dist.probs``: the cumulative sum, divided
    by its last entry."""
    cdf = np.cumsum(dist.probs, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf


def _pick(cdf: np.ndarray, u):
    """The support indices ``Generator.choice(K, p=probs)`` picks for its
    uniforms ``u = rng.random(size)``, ``cdf = _cdf(dist)``: the count of CDF
    entries <= u, ``cdf.searchsorted(u, side="right")``. An array ``u`` (any
    layout, a transposed view too) gives C-contiguous intp indices of its
    shape, a float one int. The last entry, 1.0, exceeds every u."""
    if np.ndim(u) == 0:
        return int(cdf.searchsorted(u, side="right"))
    if len(cdf) > _COMPARE_K:
        return cdf.searchsorted(u, side="right")
    idx = np.greater_equal(u, cdf[0], out=np.empty(u.shape, dtype=np.intp))
    for c in cdf[1:-1]:
        idx += u >= c
    return idx


@dataclass(frozen=True)
class LearnerSpec:
    """A deterministic learning rule with a bounded loss.

    ``fit`` maps a dataset to a predictor; ``loss(prediction, y)`` takes
    values in [0, loss_bound]. ``analytic_gamma``, when present, maps the
    sample size to a provable uniform-stability constant. ``replace_one``
    is an optional fast path for refitting with a single example replaced;
    it must agree with a full refit to float precision (the tests enforce
    1e-12 on the shipped rules).

    ``batch_losses(idx, dist, refits)``, optional, is the array form the
    replace-one kernel runs on. Given the support indices of ``reps``
    datasets, one per column of ``idx`` (shape (n, reps)), it returns the
    loss of each fit at each support point, shape (K, reps), and if
    ``refits`` that of each refit, shape (n, K, K, reps): [i, k, j, r] is
    the loss at point j after example i of dataset r is replaced by point k.
    Its floats must equal those of ``fit``, ``replace_one`` and ``loss``.
    """

    name: str
    fit: Callable[[Dataset], Predictor]
    loss: Callable[[object, object], float]
    loss_bound: float
    analytic_gamma: Callable[[int], float] | None = None
    replace_one: Callable[[Dataset, Predictor, int, Example], Predictor] | None = None
    batch_losses: Callable[[np.ndarray, FiniteDistribution, bool], tuple] | None = None

    def __post_init__(self):
        _check_real("loss_bound", self.loss_bound, 0, finite=False)


def replace(dataset: Dataset, i: int, example: Example) -> Dataset:
    return dataset[:i] + (example,) + dataset[i + 1:]


def refit(spec: LearnerSpec, dataset: Dataset, fitted: Predictor,
          i: int, example: Example) -> Predictor:
    if spec.replace_one is not None:
        return spec.replace_one(dataset, fitted, i, example)
    return spec.fit(replace(dataset, i, example))


def risk(spec: LearnerSpec, predictor: Predictor, dist: FiniteDistribution) -> float:
    """Exact E loss(h(X), Y) over the finite support."""
    loss = spec.loss
    return sum(q * loss(predictor(e.x), e.y)
               for e, q in zip(dist.support, dist.probs))


def empirical_risk(spec: LearnerSpec, predictor: Predictor, dataset: Dataset) -> float:
    loss = spec.loss
    return sum(loss(predictor(e.x), e.y) for e in dataset) / len(dataset)


def gap(spec: LearnerSpec, dataset: Dataset, dist: FiniteDistribution) -> float:
    """n * (risk - empirical risk) of the fitted predictor."""
    n = len(dataset)
    _check_int("n", n)
    h = spec.fit(dataset)
    return n * (risk(spec, h, dist) - empirical_risk(spec, h, dataset))


def gap_loo(spec: LearnerSpec, dataset: Dataset, dist: FiniteDistribution) -> float:
    """n * (risk - leave-one-out risk); each point is scored by the
    predictor trained without it."""
    n = len(dataset)
    _check_int("n", n, 2)
    h = spec.fit(dataset)
    loo = sum(spec.loss(spec.fit(dataset[:i] + dataset[i + 1:])(e.x), e.y)
              for i, e in enumerate(dataset)) / n
    return n * (risk(spec, h, dist) - loo)


def replace_one_terms(spec: LearnerSpec, dataset: Dataset,
                      dist: FiniteDistribution) -> np.ndarray:
    """Reference per-example path: the terms q_k * (risk(h) - loss(h(x_i),
    y_i)) of h = the fit with z_i replaced by z_k, shape (n, K), one scalar
    refit each. It takes any learner and any dataset; the tests hold the
    batched kernel to it float for float, for the order-dependent memorizer
    too."""
    base = spec.fit(dataset)
    base_risk = risk(spec, base, dist)
    out = np.empty((len(dataset), len(dist.support)))
    for i, e_i in enumerate(dataset):
        for k, (example, q) in enumerate(zip(dist.support, dist.probs)):
            if example == e_i:
                h, h_risk = base, base_risk
            else:
                h = refit(spec, dataset, base, i, example)
                h_risk = risk(spec, h, dist)
            out[i, k] = q * (h_risk - spec.loss(h(e_i.x), e_i.y))
    return out


def _ordered_sum(a: np.ndarray, axis: int = 0):
    """0.0 + a[0] + a[1] + ... along ``axis`` of a float64 array, in one numpy
    call: the order of the per-example loops, bit for bit.

    numpy adds pairwise only along the axis its inner loop runs on, the one
    of smallest nonzero stride. So where a kept axis with >= 2 entries has a
    smaller nonzero stride than ``axis`` (a block of >= 2 datasets), the
    reduce adds row after row in index order. Elsewhere (1-d input, an
    innermost ``axis``, a block of one dataset) a summed axis shorter than
    the kept part (the K terms of a block of one dataset) is the loop itself,
    one add per slice from 0.0, and a longer one takes the last entry of its
    running sum, which is then no larger than the input. The trailing
    ``+ 0.0`` is the loop's start: it turns a -0.0 total (every entry -0.0)
    into 0.0 and leaves every other value as it is."""
    stride = abs(a.strides[axis])
    if any(m > 1 and 0 < abs(s) < stride
           for k, (m, s) in enumerate(zip(a.shape, a.strides)) if k != axis % a.ndim):
        return np.add.reduce(a, axis=axis) + 0.0
    if a.shape[axis] ** 2 < a.size:
        rows = np.moveaxis(a, axis, 0)
        total = 0.0 + rows[0]
        for row in rows[1:]:
            total += row
        return total
    return np.add.accumulate(a, axis=axis).take(-1, axis=axis) + 0.0


def _take_along(a: np.ndarray, idx: np.ndarray, axis: int) -> np.ndarray:
    """``np.take_along_axis(a, idx, axis)`` for ``idx`` >= 0, C-ordered as numpy's
    is for a C-ordered ``idx``: one flat ``take`` on ``a`` made C-contiguous,
    with offsets from its strides."""
    a = np.ascontiguousarray(a)
    flat = idx * (a.strides[axis] // a.itemsize)
    for d, (m, s) in enumerate(zip(a.shape, a.strides)):
        if d != axis % a.ndim:
            flat = flat + (np.arange(m) * (s // a.itemsize)).reshape((m,) + (1,) * (a.ndim - 1 - d))
    return a.take(flat)


def _losses(spec: LearnerSpec, dist: FiniteDistribution, idx: np.ndarray,
            refits: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """``LearnerSpec.batch_losses`` for any learner: the array form, else built per
    dataset from ``fit``, ``refit`` and ``loss``; an equal replacement keeps the fit."""
    if spec.batch_losses is not None:
        return spec.batch_losses(idx, dist, refits)
    (n, reps), support = idx.shape, dist.support
    base = np.empty((len(support), reps))
    moved = np.empty((n, len(support), len(support), reps)) if refits else None
    for r, col in enumerate(idx.T.tolist()):
        ds = tuple(support[a] for a in col)
        h = spec.fit(ds)
        base[:, r] = [spec.loss(h(e.x), e.y) for e in support]
        for i, a in enumerate(col if refits else ()):
            for k, example in enumerate(support):
                g = h if example == support[a] else refit(spec, ds, h, i, example)
                moved[i, k, :, r] = [spec.loss(g(e.x), e.y) for e in support]
    return base, moved


def _replace_one(spec: LearnerSpec, dist: FiniteDistribution, idx: np.ndarray,
                 refits: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The batched replace-one kernel on the datasets with support indices
    ``idx`` (shape (n, reps), one per column): their gaps n * (risk -
    empirical risk) and, if ``refits``, the terms q_k * (risk(h) - loss(h(x_i),
    y_i)) of h = the fit with z_i replaced by z_k, shape (n, K, reps). The losses
    at the datasets' own points are gathered by one flat ``take`` each
    (``_take_along``), C-ordered as ``take_along_axis`` returns them: on that
    layout ``_ordered_sum`` adds a block's rows in one reduce, not a loop."""
    n = idx.shape[0]
    base, refit_losses = _losses(spec, dist, idx, refits)
    q = np.asarray(dist.probs)[:, None]
    emp = _ordered_sum(_take_along(base, idx, 0)) / n
    gaps = n * (_ordered_sum(q * base) - emp)
    if not refits:
        return gaps, None
    # q weighs axis 2 (test point j) of the losses, then axis 1 (replacement k)
    own = _take_along(refit_losses, idx[:, None, None, :], 2)[:, :, 0]
    return gaps, q * (_ordered_sum(q * refit_losses, axis=2) - own)


def _check_n(n: int, lo: int = 1) -> None:
    _check_int("n", n, lo)
    if n > _MAX_N:
        raise ValueError(f"n = {n} exceeds the sample size cap {_MAX_N}")


def _philox(seed: int) -> np.random.Generator:
    """The seeded stream of a lab driver."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _draws(dist: FiniteDistribution, n: int, reps: int, rng: np.random.Generator):
    """Support indices of ``reps`` seeded datasets as (rows, idx) blocks, idx
    C-contiguous of shape (n, len(rows)); the random stream of one
    ``dist.sample(rng, n)`` per dataset, that is ``Generator.choice``'s: inverse
    CDF on ``rng.random``, n uniforms per dataset; the caller has checked n."""
    k = len(dist.support)
    block = max(1, _BLOCK_CELLS // (n * k * k))
    cdf = _cdf(dist)
    for start in range(0, reps, block):
        rows = slice(start, min(start + block, reps))
        yield rows, _pick(cdf, rng.random((rows.stop - start, n)).T)


def _terms(spec: LearnerSpec, dataset: Dataset, dist: FiniteDistribution) -> np.ndarray:
    """The replace-one terms of one dataset, shape (n, K): by the kernel
    when it can take them, else by the reference."""
    _check_int("n", len(dataset))
    if any(e not in dist.support for e in dataset):
        return replace_one_terms(spec, dataset, dist)
    idx = np.array([[dist.support.index(e)] for e in dataset])
    return _replace_one(spec, dist, idx)[1][:, :, 0]


def g_i_exact(spec: LearnerSpec, dataset: Dataset, dist: FiniteDistribution, i: int) -> float:
    """Exact replace-one function value at coordinate i (both expectations
    are finite sums over the support)."""
    n = len(dataset)
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for n={n}")
    return float(_ordered_sum(_terms(spec, dataset, dist)[i]))


def g_values(spec: LearnerSpec, dataset: Dataset, dist: FiniteDistribution,
             max_refits: int = 1_000_000) -> list[float]:
    """All n replace-one values, sharing one base fit across coordinates."""
    work = len(dataset) * len(dist.support)
    if work > max_refits:
        raise ValueError(f"support too large: {work} refits exceed cap {max_refits}")
    return _ordered_sum(_terms(spec, dataset, dist), axis=1).tolist()


def _gamma_or_analytic(spec: LearnerSpec, n: int, gamma: float | None) -> float:
    if gamma is None and spec.analytic_gamma is None:
        raise ValueError(f"{spec.name} has no analytic gamma; pass one explicitly")
    if gamma is not None:
        _require_nonneg(gamma=gamma)
    return spec.analytic_gamma(n) if gamma is None else gamma


@dataclass(frozen=True)
class SandwichReport:
    """| |gap| - |sum g_i| | <= 2*gamma*n, with the realized slack."""

    gap: float
    sum_g: float
    bound: float

    @property
    def slack(self) -> float:
        return abs(abs(self.gap) - abs(self.sum_g))

    @property
    def passed(self) -> bool:
        return self.slack <= self.bound + 1e-12


def sandwich_check(spec: LearnerSpec, dataset: Dataset, dist: FiniteDistribution,
                   gamma: float) -> SandwichReport:
    return SandwichReport(gap=gap(spec, dataset, dist),
                          sum_g=sum(g_values(spec, dataset, dist)),
                          bound=2.0 * gamma * len(dataset))


@dataclass(frozen=True)
class SandwichSweep:
    """Sandwich check over seeded replicates."""

    learner: str
    n: int
    reps: int
    gamma: float
    gamma_mode: str
    violations: int
    max_slack: float            # worst | |gap| - |sum g| |
    max_excess: float           # worst slack - bound (negative when all pass)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def sandwich_sweep(spec: LearnerSpec, dist: FiniteDistribution, n: int,
                   reps: int, seed: int, gamma: float | None = None) -> SandwichSweep:
    """Run the sandwich check over ``reps`` seeded datasets.

    gamma defaults to the learner's analytic constant (``gamma_mode``
    "analytic"); a value passed in is reported as "given".
    """
    _check_n(n)
    _check_int("reps", reps, 0)
    gamma_mode = "analytic" if gamma is None else "given"
    gamma = _gamma_or_analytic(spec, n, gamma)
    rng = _philox(seed)
    bound = 2.0 * gamma * n
    slack = np.empty(reps)
    for rows, idx in _draws(dist, n, reps, rng):
        gaps, terms = _replace_one(spec, dist, idx)
        sum_g = _ordered_sum(terms.reshape(-1, idx.shape[1]))   # over (i, k), i-major
        slack[rows] = np.abs(np.abs(gaps) - np.abs(sum_g))
    return SandwichSweep(learner=spec.name, n=n, reps=reps, gamma=gamma,
                         gamma_mode=gamma_mode,
                         violations=int(np.count_nonzero(slack > bound + 1e-12)),
                         max_slack=float(np.max(slack, initial=0.0)),
                         max_excess=float(np.max(slack - bound, initial=-np.inf)))


@dataclass(frozen=True)
class GammaEstimate:
    """Estimated uniform-stability constant.

    ``exhaustive`` mode enumerates every dataset, replacement and test point
    on the support and is exact at desk scale; ``sampled`` mode is a lower
    estimate of the true constant and must never be read as uniform.
    """

    value: float
    mode: str
    evaluations: int


def estimate_gamma(spec: LearnerSpec, dist: FiniteDistribution, n: int,
                   trials: int = 1000, seed: int = 0, mode: str = "auto",
                   exhaustive_cap: int = 2_000_000) -> GammaEstimate:
    """max over (S, i, z', (x,y)) of |loss(A_S(x),y) - loss(A_{S^i}(x),y)|, z' != z_i
    when exhaustive, from ``_losses`` in blocks of about ``_BLOCK_CELLS`` cells.
    Sampled trials read the array form in blocks too; a learner without one
    fits each drawn dataset and refits only its drawn replacement. A trial
    draws S, i, z' and (x, y) in that order; S, z' and (x, y) on
    ``Generator.choice``'s stream, inverse CDF on ``rng.random``."""
    _check_n(n)
    _check_int("trials", trials)
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    k = len(dist.support)
    block = max(1, _BLOCK_CELLS // (n * k * k))
    worst = 0.0
    cost = (k ** n) * n * k * k if n * np.log(k) < 50 else float("inf")
    if mode == "exhaustive" or (mode == "auto" and cost <= exhaustive_cap):
        if cost > exhaustive_cap:
            raise ValueError(f"exhaustive enumeration needs {cost} evaluations, "
                             f"cap is {exhaustive_cap}")
        same = np.array([[a == b for b in dist.support] for a in dist.support])
        digits = k ** np.arange(n - 1, -1, -1)[:, None]
        for start in range(0, k ** n, block):
            idx = np.arange(start, min(start + block, k ** n)) // digits % k
            base, moved = _losses(spec, dist, idx, True)
            skip = same.take(idx, axis=0).transpose(0, 2, 1)[:, :, None]  # [i, k, ., r]: z_k == z_i
            worst = max(worst, float(np.where(skip, 0.0, np.abs(moved - base)).max()))
        return GammaEstimate(value=worst, mode="exhaustive",
                             evaluations=n * k ** n * int(np.count_nonzero(~same)))
    rng = _philox(seed)
    cdf = _cdf(dist)
    for start in range(0, trials, block):
        draws = np.empty((min(block, trials - start), n + 3), dtype=np.intp)
        for row in draws:           # per trial, in stream order: dataset, i, z', test point
            row[:n] = _pick(cdf, rng.random(n))
            row[n:] = rng.integers(n), _pick(cdf, rng.random()), _pick(cdf, rng.random())
        if spec.batch_losses is None:   # the drawn refit alone, not all n * K of them
            change = np.array([_drawn_change(spec, dist.support, row) for row in draws.tolist()])
        else:
            i, repl, test = draws[:, n:].T
            base, moved = spec.batch_losses(np.ascontiguousarray(draws[:, :n].T), dist, True)
            cols = np.arange(len(draws))
            change = np.abs(moved[i, repl, test, cols] - base[test, cols])
        worst = max(worst, float(change.max()))
    return GammaEstimate(value=worst, mode="sampled", evaluations=trials)


def _drawn_change(spec: LearnerSpec, support: tuple, row: list) -> float:
    """|loss(A_{S^i}(x), y) - loss(A_S(x), y)| for one sampled trial ``row``
    (support indices of S, then i, z', (x, y)): the entry of ``_losses`` it
    reads, from one fit and one refit."""
    *col, i, k, j = row
    ds = tuple(support[a] for a in col)
    h = spec.fit(ds)
    g = h if support[k] == ds[i] else refit(spec, ds, h, i, support[k])
    e = support[j]
    return abs(float(spec.loss(g(e.x), e.y)) - float(spec.loss(h(e.x), e.y)))


@dataclass(frozen=True)
class PairCorrelation:
    i: int
    j: int
    estimate: float
    stderr: float
    bound: float                 # 4*gamma^2 + 3*stderr

    @property
    def passed(self) -> bool:
        return abs(self.estimate) <= self.bound


@dataclass(frozen=True)
class CorrelationReport:
    """Weak-correlation and variance checks over seeded datasets."""

    learner: str
    n: int
    reps: int
    gamma: float
    pairs: tuple
    gap_variance: float
    gap_variance_stderr: float
    gap_variance_bound: float    # n^2*gamma^2 + n*L^2 (shape constants)

    @property
    def passed(self) -> bool:
        margin = 3.0 * self.gap_variance_stderr
        return (all(p.passed for p in self.pairs)
                and self.gap_variance <= self.gap_variance_bound + margin)


def correlation_check(spec: LearnerSpec, dist: FiniteDistribution, n: int,
                      reps: int, seed: int, n_pairs: int = 3,
                      gamma: float | None = None) -> CorrelationReport:
    """Estimate E[g_i*g_j] for sampled index pairs and Var(gap); assert the
    weak-correlation bound 4*gamma^2 and the variance shape bound, both with
    a 3-standard-error Monte Carlo margin."""
    _check_int("reps", reps, 1000)
    _check_n(n, 2)
    _check_int("n_pairs", n_pairs)
    gamma = _gamma_or_analytic(spec, n, gamma)
    rng = _philox(seed)
    pair_count = min(n_pairs, n * (n - 1) // 2)
    pairs = set()
    while len(pairs) < pair_count:
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((int(i), int(j)))
    pairs = sorted(pairs)
    products = np.empty((len(pairs), reps))
    gaps = np.empty(reps)
    for rows, idx in _draws(dist, n, reps, rng):
        gaps[rows], terms = _replace_one(spec, dist, idx)
        g = _ordered_sum(terms, axis=1)
        products[:, rows] = [g[i] * g[j] for i, j in pairs]
    pair_reports = []
    for (i, j), vals in zip(pairs, products):
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / sqrt(reps))
        pair_reports.append(PairCorrelation(i=i, j=j, estimate=est, stderr=se,
                                            bound=4.0 * gamma ** 2 + 3.0 * se))
    var = float(gaps.var(ddof=1))
    centered_sq = (gaps - gaps.mean()) ** 2
    var_se = float(centered_sq.std(ddof=1) / sqrt(reps))
    return CorrelationReport(
        learner=spec.name, n=n, reps=reps, gamma=gamma, pairs=tuple(pair_reports),
        gap_variance=var, gap_variance_stderr=var_se,
        gap_variance_bound=variance_bound(n, gamma, spec.loss_bound),
    )


@dataclass(frozen=True)
class QuantileRow:
    """Empirical (1-delta) quantile of |gap| next to every closed-form bound."""

    delta: float
    quantile: float
    bousquet02: float
    fv2018: float
    fv2019: float
    single_log: float
    moment_tail: float          # capped dyadic moments -> tail, + sandwich slack

    @property
    def dominated(self) -> bool:
        return self.quantile <= self.single_log


@dataclass(frozen=True)
class QuantileTable:
    learner: str
    n: int
    reps: int
    seed: int
    gamma: float
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.dominated for r in self.rows)


def gap_quantiles(spec: LearnerSpec, dist: FiniteDistribution, n: int,
                  reps: int, deltas, seed: int,
                  gamma: float | None = None) -> QuantileTable:
    """Empirical (1-delta) quantiles of |gap| over seeded replicates, side by
    side with the four generalization bounds and the moment-derived tail.

    The moment-derived tail converts the capped dyadic moment coefficients
    (M = L, beta = 2*gamma) to a deviation bound, adds the 2*gamma*n sandwich
    slack, and is capped at the trivial n*L.
    """
    _check_n(n)
    _check_int("reps", reps, 1000)
    gamma = _gamma_or_analytic(spec, n, gamma)
    gaps = collect_gaps(spec, dist, n, reps, seed)
    abs_gaps = np.abs(gaps)
    L = spec.loss_bound
    rows = []
    a_coef = 4.0 * L * sqrt(n)                                   # sqrt(p) coefficient
    b_coef = 24.0 * sqrt(2.0) * n * gamma * ceil_log2(n)         # p coefficient
    for delta in deltas:
        inputs = BoundInputs(n=n, gamma=gamma, L=L, delta=delta)
        q = float(np.quantile(abs_gaps, 1.0 - delta, method="higher"))
        # |gap| <= |sum g_i| + 2*gamma*n and |gap| <= n*L hold pathwise
        tail = tail_from_moments(a_coef, b_coef, delta) + 2.0 * gamma * n
        rows.append(QuantileRow(
            delta=delta,
            quantile=q,
            bousquet02=generalization_bound("bousquet02", inputs).value,
            fv2018=generalization_bound("fv2018", inputs).value,
            fv2019=generalization_bound("fv2019", inputs).value,
            single_log=generalization_bound("single_log", inputs).value,
            moment_tail=min(tail, n * L),
        ))
    return QuantileTable(learner=spec.name, n=n, reps=reps, seed=seed,
                         gamma=gamma, rows=tuple(rows))


def collect_gaps(spec: LearnerSpec, dist: FiniteDistribution, n: int,
                 reps: int, seed: int) -> np.ndarray:
    """Scaled gaps over ``reps`` seeded replicates (one fit each)."""
    _check_n(n)
    _check_int("reps", reps, 0)
    rng = _philox(seed)
    out = np.empty(reps)
    for rows, idx in _draws(dist, n, reps, rng):
        out[rows] = _replace_one(spec, dist, idx, refits=False)[0]
    return out


def check_deterministic(spec: LearnerSpec, dist: FiniteDistribution, n: int,
                        seed: int = 0) -> None:
    """Reject randomized rules: two fits of the same data must agree on the
    whole support."""
    _check_n(n)
    rng = _philox(seed)
    ds = dist.sample(rng, n)
    h1, h2 = spec.fit(ds), spec.fit(ds)
    for e in dist.support:
        if h1(e.x) != h2(e.x):
            raise ValueError(f"learner {spec.name!r} is not deterministic at x={e.x!r}")


# ---------------------------------------------------------------------------
# shipped losses, learners and distributions
# ---------------------------------------------------------------------------

def absolute_loss(prediction, y) -> float:
    return abs(prediction - y)


def zero_one_loss(prediction, y) -> float:
    return 0.0 if prediction == y else 1.0


class _MeanPredictor:
    """Shrunk-and-clipped label mean; carries the raw mean for O(1) refits."""

    __slots__ = ("mean", "shrink")

    def __init__(self, mean: float, shrink: float):
        self.mean = mean
        self.shrink = shrink

    def __call__(self, x):
        return min(1.0, max(0.0, self.mean / self.shrink))


def constant_learner(value: float = 0.0, loss=zero_one_loss,
                     loss_bound: float = 1.0) -> LearnerSpec:
    """Ignores the data entirely; uniformly stable with gamma = 0."""
    def predictor(x):
        return value

    def batch_losses(idx, dist, refits):
        n, reps = idx.shape
        losses = np.array([loss(value, e.y) for e in dist.support], dtype=float)[:, None]
        k = len(losses)
        return (np.broadcast_to(losses, (k, reps)),
                np.broadcast_to(losses, (n, k, k, reps)) if refits else None)

    return LearnerSpec(
        name="constant",
        fit=lambda ds: predictor,
        loss=loss,
        loss_bound=loss_bound,
        analytic_gamma=lambda n: 0.0,
        replace_one=lambda ds, h, i, e: predictor,
        batch_losses=batch_losses,
    )


def _mean_learner(name: str, lam: float) -> LearnerSpec:
    shrink = 1.0 + lam

    def fit(ds: Dataset) -> Predictor:
        return _MeanPredictor(sum(e.y for e in ds) / len(ds), shrink)

    def replace_one(ds, h, i, e):
        return _MeanPredictor(h.mean + (e.y - ds[i].y) / len(ds), shrink)

    def predict(mean):
        return np.minimum(1.0, np.maximum(0.0, mean / shrink))

    def batch_losses(idx, dist, refits):
        n = idx.shape[0]
        ys = _labels(dist)
        held = ys[idx]
        mean = _ordered_sum(held) / n
        base = np.abs(predict(mean) - ys[:, None])
        if not refits:
            return base, None
        moved = mean + (ys[:, None] - held[:, None, :]) / n    # [i, k, r]: z_i -> z_k
        return base, np.abs(predict(moved)[:, :, None, :] - ys[:, None])

    # labels in [0,1], absolute loss: replacing one label moves the clipped,
    # shrunk mean by at most 1/(n*(1+lam)), and the loss is 1-Lipschitz
    return LearnerSpec(
        name=name,
        fit=fit,
        loss=absolute_loss,
        loss_bound=1.0,
        analytic_gamma=lambda n: 1.0 / (n * shrink),
        replace_one=replace_one,
        batch_losses=batch_losses,
    )


def clipped_mean_learner() -> LearnerSpec:
    """Predicts the clipped empirical label mean; gamma = 1/n exactly."""
    return _mean_learner("clipped_mean", lam=0.0)


def shrunk_mean_learner(lam: float = 1.0) -> LearnerSpec:
    """Ridge-style shrunk mean, mean/(1+lam) clipped to [0,1];
    gamma = 1/(n*(1+lam))."""
    _check_real("lam", lam, 0, finite=False)
    return _mean_learner("shrunk_mean", lam=lam)


def memorizer_learner(default=0.0) -> LearnerSpec:
    """Recalls the label of the first training occurrence of x, else a
    default: the interpolation regime. Not stable (gamma = loss bound)."""

    def fit(ds: Dataset) -> Predictor:
        table = {e.x: e.y for e in reversed(ds)}   # first occurrence wins
        return lambda x: table.get(x, default)

    def batch_losses(idx, dist, refits):
        n, reps = idx.shape
        ys = _labels(dist)
        same_x = np.array([[a.x == b.x for b in dist.support] for a in dist.support])
        # at[j, i, r]: example i of dataset r lies at x_j. The all-True
        # position n makes argmax return n for an x the dataset lacks.
        at = same_x.take(idx, axis=1)
        end = np.ones((len(ys), 1, reps), dtype=bool)
        first = np.argmax(np.concatenate([at, end], axis=1), axis=1)    # [j, r]
        labels = np.vstack([ys[idx], np.full(reps, default)])  # row n: the default
        recalled = _take_along(labels, first, 0)
        base = np.abs(recalled - ys[:, None])
        if not refits:
            return base, None
        at &= np.arange(n)[:, None] != first[:, None, :]
        second = np.argmax(np.concatenate([at, end], axis=1), axis=1)
        runner_up = _take_along(labels, second, 0)
        # refit [i, k, j, r], z_i -> z_k, recalls at x_j: y_k if z_k lies at
        # x_j and no earlier example does; else the first example's label,
        # or the second's when the first was z_i. Its loss comes from three
        # tables, broadcast once: |y_k - y_j|, base [j, r] and kept [i, j, r],
        # which is base but |runner_up - y_j| where example i is first at x_j
        i = np.arange(n)[:, None, None]
        kept = np.where(first == i, np.abs(runner_up - ys[:, None]), base)
        return base, np.where(same_x[:, :, None] & (first >= i)[:, None],
                              np.abs(ys[:, None] - ys)[:, :, None], kept[:, None])

    return LearnerSpec(
        name="memorizer",
        fit=fit,
        loss=absolute_loss,
        loss_bound=1.0,
        analytic_gamma=lambda n: 1.0,
        batch_losses=batch_losses,
    )


def _labels(dist: FiniteDistribution) -> np.ndarray:
    return np.array([e.y for e in dist.support], dtype=float)


def bernoulli_labels(p: float = 0.5, x=0.0) -> FiniteDistribution:
    """Constant instance, Bernoulli(p) label."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return FiniteDistribution(support=(Example(x, 0.0), Example(x, 1.0)),
                              probs=(1.0 - p, p))


def labelled_pair(p: float = 0.5) -> FiniteDistribution:
    """Two instances with deterministic labels y = x (memorizer setting)."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return FiniteDistribution(support=(Example(0.0, 0.0), Example(1.0, 1.0)),
                              probs=(1.0 - p, p))


def four_point() -> FiniteDistribution:
    """Two instances times two labels with uneven probabilities."""
    return FiniteDistribution(
        support=(Example(0.0, 0.0), Example(0.0, 1.0),
                 Example(1.0, 0.0), Example(1.0, 1.0)),
        probs=(0.4, 0.1, 0.2, 0.3),
    )
