"""Exact and Monte Carlo L_p norms of functions of i.i.d. Rademacher signs.

Ground truth for every moment claim in this package comes from three routes
that are kept deliberately independent of each other:

* ``enumerate_lp`` -- full enumeration of {-1,+1}^n, streamed in row
  chunks up to n = 26;
* ``collapse_lp``  -- exact binomial weights for functions that factor
  through the coordinate sum S = sum(Z_i), usable at any n;
* ``mc_lp``        -- seeded, scheduling-independent Monte Carlo; a
  ``MomentSpec`` describes only such a run.

``sign_matrix`` holds all of {-1,+1}^n at once and is capped at n = 20, so
checks that need the whole matrix (the partition verifiers) stop there, and
the chaos hypotheses, which enumerate n - 1 coordinates, at n = 21.

Also provides the two reference moment functionals for weighted Rademacher
sums (Hitczenko) and for the all-ones off-diagonal Rademacher quadratic form
(Latala).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log, sqrt
from typing import Callable, Iterable

import numpy as np
from scipy.special import gammaln

ENUMERATION_CAP = 26   # 2**26 ~ 6.7e7 evaluations keeps the oracle interactive
MC_BLOCK = 4096        # replicate block size; fixed so streams never depend on scheduling
_ENUM_CHUNK = 1 << 16
_CACHED_ARITY = 20     # sign matrices up to 2**20 x 20 (~21 MB) are cached; also their cap
_LOG2 = log(2.0)


@dataclass(frozen=True)
class SignFunction:
    """Deterministic map {-1,+1}^n -> R, evaluated on batches of sign rows.

    ``eval`` receives an (m, arity) array with entries +-1 and must return an
    (m,) float array; it must be pure and total on the hypercube.
    """

    arity: int
    eval: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")


@dataclass(frozen=True)
class MomentSpec:
    """A seeded Monte Carlo moment for ``mc_lp``: order p, replicates, seed."""

    p: float
    reps: int
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.reps < 100:
            raise ValueError(f"montecarlo requires reps >= 100, got {self.reps}")


@dataclass(frozen=True)
class MonteCarloNorm:
    """Plug-in L_p estimate with a 20-batch error summary."""

    value: float
    batch_min: float
    batch_median: float
    batch_max: float
    reps: int
    seed: int

    @property
    def spread(self) -> float:
        return self.batch_max - self.batch_min


def constant_function(arity: int, c: float, name: str = "") -> SignFunction:
    return SignFunction(arity, lambda rows: np.full(len(rows), float(c)), name or f"const({c})")


def sum_function(arity: int) -> SignFunction:
    """f(z) = sum(z_i)."""
    return SignFunction(arity, lambda rows: rows.sum(axis=1, dtype=np.float64), "sum")


def coordinate_function(arity: int, i: int) -> SignFunction:
    if not 0 <= i < arity:
        raise ValueError(f"coordinate {i} out of range for arity {arity}")
    return SignFunction(arity, lambda rows: rows[:, i].astype(np.float64), f"z[{i}]")


def weighted_sum_function(weights) -> SignFunction:
    w = np.asarray(weights, dtype=np.float64)
    return SignFunction(len(w), lambda rows: rows @ w, "weighted_sum")


@lru_cache(maxsize=4)
def _cached_sign_matrix(n: int) -> np.ndarray:
    m = _sign_rows(n, 0, 1 << n)
    m.flags.writeable = False           # shared by every caller of this arity
    return m


def _sign_rows(n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop`` of the lexicographic enumeration of {-1,+1}^n."""
    idx = np.arange(start, stop, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def sign_matrix(n: int) -> np.ndarray:
    """All 2**n sign vectors as a read-only (2**n, n) matrix of +-1 (n <= 20)."""
    if n > _CACHED_ARITY:
        raise ValueError(f"arity {n} exceeds sign matrix cap {_CACHED_ARITY}")
    return _cached_sign_matrix(n)


def _abs_eval(f: SignFunction, rows: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(f.eval(rows), dtype=np.float64))


def _abs_blocks(f: SignFunction):
    """|f| over {-1,+1}^n in lexicographic row blocks: the cached matrix as
    one block up to n = 20, ``_ENUM_CHUNK``-row slices up to the cap."""
    n = f.arity
    if n > ENUMERATION_CAP:
        raise ValueError(f"arity {n} exceeds enumeration cap {ENUMERATION_CAP}")
    if n <= _CACHED_ARITY:
        yield _abs_eval(f, sign_matrix(n))
        return
    total = 1 << n
    for start in range(0, total, _ENUM_CHUNK):
        yield _abs_eval(f, _sign_rows(n, start, min(start + _ENUM_CHUNK, total)))


def _pairwise_sum(parts: list[float]) -> float:
    """Range-ordered pairwise reduction of one or more partials; result is
    independent of how many workers produced them, as long as their order
    is fixed."""
    vals = list(parts)
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


def _blocks_lp(blocks: Callable[[], Iterable[np.ndarray]], count: int, p: float) -> float:
    """(count^-1 * sum v^p)^(1/p) over the non-negative arrays ``blocks()``
    yields. Where that sum is non-finite, or 0 while max v > 0, a second pass
    scales each block by its max, so streamed blocks keep bounded memory."""
    with np.errstate(over="ignore"):
        mean = _pairwise_sum([float(np.sum(v ** p)) for v in blocks()]) / count
    if not (np.isfinite(mean) and mean > 0):
        with np.errstate(invalid="ignore"):     # 0/0 in all-zero blocks, dropped below
            parts = [(float(v.max()), float(np.sum((v / v.max()) ** p))) for v in blocks()]
        top = float(np.max([t for t, _ in parts]))
        if 0 < top < np.inf:                    # v^p overflowed or underflowed
            scaled = _pairwise_sum([(t / top) ** p * s for t, s in parts if t > 0]) / count
            return float(top * scaled ** (1.0 / p))
    return float(mean ** (1.0 / p))


def lp_norm(values: np.ndarray, p: float) -> float:
    """Range-safe (mean |v|^p)^(1/p) of one array."""
    return _blocks_lp(lambda: (np.abs(values),), values.size, p)


def enumerate_lp(f: SignFunction, p: float) -> float:
    """Exact, range-safe (2^-n * sum_z |f(z)|^p)^(1/p) over the full hypercube."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _blocks_lp(lambda: _abs_blocks(f), 1 << f.arity, p)


@lru_cache(maxsize=8)
def _cached_log_binomial_weights(n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=np.float64)
    w = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) - n * _LOG2
    w.flags.writeable = False           # shared by every caller of this n
    return w


def log_binomial_weights(n: int) -> np.ndarray:
    """log of C(n,k) * 2^-n for k = 0..n, as a read-only array."""
    return _cached_log_binomial_weights(n)


def collapse_lp(g: Callable[[np.ndarray], np.ndarray], n: int, p: float) -> float:
    """Exact L_p norm of g(S), S = sum of n independent signs.

    ``g`` must be defined (vectorized) on the support {-n, -n+2, ..., n}.
    Terms are evaluated in log space and accumulated in decreasing magnitude
    order, so results are bitwise stable and immune to overflow of |g|^p.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    s = 2.0 * np.arange(n + 1) - n
    vals = np.abs(np.asarray(g(s), dtype=np.float64))
    if not np.all(np.isfinite(vals)):
        raise ValueError("g produced non-finite values on the support of S")
    logw = log_binomial_weights(n)
    with np.errstate(divide="ignore", over="ignore"):
        terms = logw + p * np.log(vals)
    top = vals.max() if p > 1e305 else 0.0      # p * log|g| is in range below (|log v| < 745)
    if top > 0 and not np.isfinite(terms[np.argmax(vals)]):
        return float(top * collapse_lp(lambda s: g(s) / top, n, p))     # max|g| * ||g / max|g|||
    terms = terms[np.isfinite(terms)]       # zero outcomes contribute nothing
    if terms.size == 0:
        return 0.0
    terms = np.sort(terms)[::-1]
    return float(np.exp(np.logaddexp.reduce(terms) / p))


def _mc_values(f: SignFunction, reps: int, seed: int) -> np.ndarray:
    """|f| over seeded draws; block starting at replicate r uses key seed^r."""
    out = np.empty(reps, dtype=np.float64)
    for start in range(0, reps, MC_BLOCK):
        stop = min(start + MC_BLOCK, reps)
        key = np.uint64(seed) ^ np.uint64(start)
        rng = np.random.Generator(np.random.Philox(key=key))
        rows = (2 * rng.integers(0, 2, size=(stop - start, f.arity), dtype=np.int8) - 1)
        out[start:stop] = _abs_eval(f, rows)
    return out


def _batch_slices(reps: int, nbatch: int = 20) -> list[slice]:
    edges = np.linspace(0, reps, nbatch + 1).astype(int)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def mc_lp(f: SignFunction, spec: MomentSpec) -> MonteCarloNorm:
    """Plug-in estimator (reps^-1 * sum |f|^p)^(1/p) over seeded i.i.d. draws.

    The error summary is the min/median/max of the 20 equal-batch estimates;
    for a converged run the batch spread brackets the enumeration value.
    """
    vals = _mc_values(f, spec.reps, spec.seed)
    powers = vals ** spec.p
    estimate = float(np.mean(powers)) ** (1.0 / spec.p)
    batches = np.array([float(np.mean(powers[s])) ** (1.0 / spec.p)
                        for s in _batch_slices(spec.reps)])
    return MonteCarloNorm(
        value=estimate,
        batch_min=float(batches.min()),
        batch_median=float(np.median(batches)),
        batch_max=float(batches.max()),
        reps=spec.reps,
        seed=spec.seed,
    )


def empirical_tail(f: SignFunction, t: float, reps: int = 100_000, seed: int = 0) -> float:
    """P(|f(Z)| >= t); exact by enumeration whenever the arity permits."""
    if t < 0:
        raise ValueError(f"threshold must be >= 0, got {t}")
    if f.arity <= ENUMERATION_CAP:
        hits = [float(np.count_nonzero(v >= t)) for v in _abs_blocks(f)]
        return _pairwise_sum(hits) / (1 << f.arity)
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    vals = _mc_values(f, reps, seed)
    return float(np.count_nonzero(vals >= t)) / reps


def hitczenko_functional(a, p: float) -> float:
    """Two-sided moment equivalent for ||sum a_i eps_i||_p:

        sum_{i <= floor(p)} a_(i)  +  sqrt(p) * (sum_{i > floor(p)} a_(i)^2)^(1/2)

    with a_(1) >= a_(2) >= ... the non-increasing rearrangement. The
    equivalence constants are absolute but not explicit; the test suite
    measures them on a weight grid.
    """
    w = np.asarray(a, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    w = np.sort(w)[::-1]
    head = int(p)  # floor(p) largest weights
    return float(w[:head].sum() + sqrt(p) * sqrt(float((w[head:] ** 2).sum())))


def latala_allones_estimate(n: int, p: float) -> float:
    """Moment estimate p*n + p*sqrt(n) + sqrt(p)*n for the all-ones
    off-diagonal quadratic form sum_{i != j} Z_i Z_j (shape constants)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p * n + p * sqrt(n) + sqrt(p) * n
