"""Exact and Monte Carlo L_p norms of functions of i.i.d. Rademacher signs.

Ground truth for every moment claim in this package comes from three routes
that are kept deliberately independent of each other:

* ``enumerate_lp`` -- full enumeration of {-1,+1}^n, in blocks of 2**16
  rows at every n up to 26;
* ``collapse_lp``  -- exact binomial weights for functions that factor
  through the coordinate sum S = sum(Z_i), usable at any n up to
  ``_COLLAPSE_CAP`` (the arrays over the support of S hold about 41 B per
  unit of n);
* ``mc_lp``        -- seeded, scheduling-independent Monte Carlo; a
  ``MomentSpec`` describes only such a run.

Every check sweeps the moment order p, so what does not depend on p is built
once, below the public calls (each call still makes its public
``sign_matrix`` call). One rule covers every cache: a one-entry record of
arrays (the |f| blocks up to n = 20, the collapse's support record and
binomial law) is a ``_last``, which drops the held value before it builds
the next; a memo of floats or closures is a bounded ``lru_cache``, through
``_memo`` where its key may be unhashable.
Neither holds an unhashable key or an error, held arrays are read-only, and
a race between pool threads costs a rebuild, never a wrong value.

{-1,+1}^n is cached once per n <= 20 as a read-only int8 array (n, 2**n),
z_i as row i; ``sign_matrix`` is its transpose. The partition's level bounds
(n <= 20) and the chaos hypotheses (n - 1 coordinates, n <= 21) read it in
place, and the enumeration copies ``sign_matrix(min(n, 16))`` into every block.

``lp_norm`` takes |v| into an optional float64 scratch row and raises it
there in place (``v **= p``), so a caller that takes many norms of one
length reuses one row and never has its input written.

The log binomial weights come from ``_lgam``, a numpy port of cephes
``lgam`` at integer x, bit for bit scipy's ``gammaln``, so no scipy submodule
is loaded at run time. It takes log x from ``math.log``, libm's log as in
cephes, since numpy's SIMD log differs from it in the last bit at some
integers.

Also provides the two reference moment functionals for weighted Rademacher
sums (Hitczenko) and for the all-ones off-diagonal Rademacher quadratic form
(Latala).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, log, sqrt
from typing import Callable, Iterable

import numpy as np
# The top-level package alone, no submodule: bench/server.py reads
# sys.modules["scipy"].__version__ for the version record of every run.
import scipy  # noqa: F401

ENUMERATION_CAP = 26   # 2**26 ~ 6.7e7 evaluations keeps the oracle interactive
MC_BLOCK = 4096        # replicate block size; fixed so streams never depend on scheduling
_BLOCK_ARITY = 16      # enumeration blocks of 2**16 rows
_CACHED_ARITY = 20     # sign matrices up to 20 x 2**20 (~21 MB) are cached; also their cap
_COLLAPSE_CAP = 1 << 24  # a collapse over n signs peaks near 41 B * n: ~0.7 GB at the cap
_LOG2 = log(2.0)
# cephes lgam (scipy.special.gammaln): log sqrt(2 pi), and the coefficients in
# 1/x^2 of its Stirling series, highest power first, for 13 <= x < 1000 and for
# x >= 1000 (x - c is x + (-c) in floating point)
_LS2PI = 0.91893853320467274178
_LGAM_SERIES = ((slice(0, 1000 - 13), (8.11614167470508450300E-4, -5.95061904284301438324E-4,
                                       7.93650340457716943945E-4, -2.77777777730099687205E-3,
                                       8.33333333333331927722E-2)),
                (slice(1000 - 13, None), (7.9365079365079365079365e-4,
                                          -2.7777777777777777777778e-3,
                                          0.0833333333333333333333)))


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
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.reps < 100:
            raise ValueError(f"montecarlo requires reps >= 100, got {self.reps}")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """A Philox key is a uint64."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


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


def _hashable(key) -> bool:
    try:
        hash(key)
    except TypeError:
        return False
    return True


def _memo(cached, *key):
    """``cached(*key)``, or its uncached ``__wrapped__`` where the key is not
    hashable, so every argument the uncached function accepts stays accepted."""
    return cached(*key) if _hashable(key) else cached.__wrapped__(*key)


def _last(build):
    """A one-entry cache of ``build``, keyed by the call's arguments. A miss
    drops the held value before it builds the next, so one is alive at a
    time; unhashable arguments and a build that raises leave nothing held.
    ``held`` is one ``(key, value)`` tuple, published whole: no lock."""
    def cached(*key):
        if not _hashable(key):
            return build(*key)
        held = cached.held
        if held is not None and held[0] == key:
            return held[1]
        cached.held = held = None
        value = build(*key)
        cached.held = (key, value)
        return value

    cached.held = None
    return cached


@lru_cache(maxsize=4)
def _sign_columns(n: int) -> np.ndarray:
    """{-1,+1}^n coordinate-major: row i is z_i over the 2**n lexicographic
    sign vectors, -1 for 2**i entries, then +1 for 2**i, repeated."""
    cols = np.ones((n, 1 << n), dtype=np.int8)
    for i, col in enumerate(cols):
        col.reshape(-1, 2, 1 << i)[:, 0] = -1
    cols.flags.writeable = False        # shared by every caller of this arity
    return cols


def sign_matrix(n: int) -> np.ndarray:
    """All 2**n sign vectors as a read-only (2**n, n) view of +-1 (n <= 20)."""
    if n > _CACHED_ARITY:
        raise ValueError(f"arity {n} exceeds sign matrix cap {_CACHED_ARITY}")
    return _sign_columns(n).T


def _abs_eval(f: SignFunction, rows: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(f.eval(rows), dtype=np.float64))


def _abs_blocks(f: SignFunction, writable: bool = False):
    """|f| over {-1,+1}^n in lexicographic blocks of 2**min(n, 16) rows: low
    coordinates from ``sign_matrix``, high ones the bits of the block number.

    Up to ``_CACHED_ARITY`` the blocks come from ``_held_abs``, so the orders
    p of one f evaluate it once; ``writable`` yields copies. Above that they
    are evaluated afresh. Every call takes ``sign_matrix`` once, hit or miss."""
    n = f.arity
    if n > ENUMERATION_CAP:
        raise ValueError(f"arity {n} exceeds enumeration cap {ENUMERATION_CAP}")
    low_rows = sign_matrix(min(n, _BLOCK_ARITY))
    if n > _CACHED_ARITY:
        return _evaluated_blocks(f, low_rows)
    blocks = _held_abs(f)
    return (v.copy() for v in blocks) if writable else iter(blocks)


def _evaluated_blocks(f: SignFunction, low_rows: np.ndarray):
    n, low = f.arity, low_rows.shape[1]
    for b in range(1 << (n - low)):
        rows = np.empty((1 << low, n), dtype=np.int8)
        rows[:, :low] = low_rows
        rows[:, low:] = 2 * ((b >> np.arange(n - low)) & 1) - 1
        yield _abs_eval(f, rows)


@_last
def _held_abs(f: SignFunction) -> tuple:
    """The read-only |f| blocks of ``_abs_blocks`` for n <= ``_CACHED_ARITY``
    (2**n floats, 8 MB at n = 20), from the private ``_sign_columns``, so a
    miss adds no public ``sign_matrix`` call."""
    blocks = tuple(_evaluated_blocks(f, _sign_columns(min(f.arity, _BLOCK_ARITY)).T))
    for v in blocks:
        v.flags.writeable = False
    return blocks


def _pairwise_sum(parts: list[float]) -> float:
    """Range-ordered pairwise reduction of one or more partials; result is
    independent of how many workers produced them, as long as their order
    is fixed."""
    vals = list(parts)
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


def _blocks_lp(blocks: Callable[[], Iterable[np.ndarray]], count: int, p: float,
               repeat: int = 1) -> float:
    """(count^-1 * sum v^p)^(1/p) over the fresh non-negative float64 arrays
    ``blocks()`` yields, each raised in place (``v **= p`` takes the path of
    ``v ** p``, the square at p = 2 included). Where that sum is non-finite, or
    0 while max v > 0, a second pass scales each block by its max, so streamed
    blocks keep bounded memory.

    Each block's sum counts ``repeat`` times, a power of two, before the
    division by ``count``: a block of 2**j >= 128 entries then stands for its
    ``repeat`` copies side by side, bit for bit, since numpy sums a contiguous
    float64 row as a pairwise tree of halves down to leaves of 128, so the sum
    of the copies is ``repeat`` exact doublings of the block's (inf in both
    forms where it overflows)."""
    def powered_sum(v):
        v **= p
        return float(np.sum(v)) * repeat

    with np.errstate(over="ignore"):
        mean = _pairwise_sum([powered_sum(v) for v in blocks()]) / count
    if not (np.isfinite(mean) and mean > 0):
        with np.errstate(invalid="ignore"):     # 0/0 in all-zero blocks, dropped below
            parts = [(float(v.max()), float(np.sum((v / v.max()) ** p)) * repeat)
                     for v in blocks()]
        top = float(np.max([t for t, _ in parts]))
        if 0 < top < np.inf:                    # v^p overflowed or underflowed
            scaled = _pairwise_sum([(t / top) ** p * s for t, s in parts if t > 0]) / count
            return float(top * scaled ** (1.0 / p))
    return float(mean ** (1.0 / p))


def lp_norm(values: np.ndarray, p: float, work: np.ndarray | None = None) -> float:
    """Range-safe (mean |v|^p)^(1/p) of one array, in float64. ``work``, a
    float64 array of the shape of ``values``, takes |v| in place of a fresh
    array; ``values`` itself is never written."""
    return _blocks_lp(lambda: (np.abs(values, out=work, dtype=np.float64),), values.size, p)


def enumerate_lp(f: SignFunction, p: float) -> float:
    """Exact, range-safe (2^-n * sum_z |f(z)|^p)^(1/p) over the full hypercube."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _blocks_lp(lambda: _abs_blocks(f, writable=True), 1 << f.arity, p)


def _check_collapse_n(n: int) -> None:
    """The cap on n of every array over the support of S, checked before it is built."""
    if n > _COLLAPSE_CAP:
        raise ValueError(f"n = {n} exceeds the binomial collapse cap {_COLLAPSE_CAP}")


def _lgam(m: int) -> np.ndarray:
    """log Gamma(x) at x = 1..m, bit for bit cephes ``lgam`` (scipy's
    ``gammaln``) at integers up to 2**24 + 1, with its constants and order of
    operations: below 13 the log of the exact (x - 1)!, from 13 on Stirling's
    series (cephes drops the series only above 1e8). log x is libm's
    ``math.log``, the ``log`` cephes calls; numpy's SIMD ``np.log`` differs from
    it in the last bit at some integers, and so would the weights."""
    out = np.empty(m)
    out[:12] = [log(factorial(x - 1)) for x in range(1, min(m, 12) + 1)]
    if m <= 12:
        return out
    x = np.arange(13, m + 1, dtype=np.float64)
    q = out[12:]
    p = np.fromiter(map(log, range(13, m + 1)), np.float64, m - 12)    # log x, then 1/x^2
    np.subtract(x, 0.5, out=q)
    q *= p
    q -= x
    q += _LS2PI                         # (x - 0.5) log x - x + log sqrt(2 pi)
    np.multiply(x, x, out=p)
    np.divide(1.0, p, out=p)
    for part, coefs in _LGAM_SERIES:    # q += polevl(p, coefs) / x
        t = np.full_like(p[part], coefs[0])
        for c in coefs[1:]:
            t *= p[part]
            t += c
        t /= x[part]
        q[part] += t
    return out


def log_binomial_weights(n: int) -> np.ndarray:
    """log of C(n,k) * 2^-n for k = 0..n, as a read-only array: log n! -
    log k! - log (n - k)! - n log 2 from one ``_lgam`` over 1..n + 1."""
    _check_collapse_n(n)
    lg = _lgam(n + 1)                   # lg[k] = log k!
    w = lg[n] - lg
    w -= lg[::-1]
    w -= n * _LOG2
    w.flags.writeable = False           # shared by the support records of this n
    return w


def collapse_lp(g: Callable[[np.ndarray], np.ndarray], n: int, p: float) -> float:
    """Exact L_p norm of g(S), S = sum of n independent signs.

    ``g`` must be pure and defined (vectorized) on the support {-n, -n+2,
    ..., n}, the contract ``SignFunction.eval`` has. Results are memoized per
    (g, n, p) in a bounded cache, so a repeated call returns the float of the
    first; an unhashable ``g`` is computed without it, and errors are not
    cached. What does not depend on p (|g|, its log, the binomial weights) is
    built once per (g, n), in a one-entry support record. Terms are evaluated
    in log space and accumulated in decreasing magnitude order, so results
    are bitwise stable and immune to overflow of |g|^p.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    _check_collapse_n(n)
    return _memo(_collapse_lp, g, n, p)


@_last
def _law(n: int) -> tuple:
    """log P(S = s), P(S = s) and the sum of the latter over the support of S,
    read-only, shared by the support records of one n."""
    logw = log_binomial_weights(n)
    weights = np.exp(logw)
    weights.flags.writeable = False
    return logw, weights, weights.sum()


class _Support:
    """What every order p of one collapse reads, built once per (g, n), read-only.

    ``vals`` is |g| over the support {-n, -n+2, ..., n} of S and ``logv`` its
    log (-inf where g = 0); ``logw``, ``weights`` and ``total`` are the
    ``_law`` of n. Four float64 arrays of n + 1 in all.
    """

    def __init__(self, g, n):
        self.g, self.n = g, n
        self.logw, self.weights, self.total = _law(n)
        with np.errstate(over="ignore", invalid="ignore"):     # caught by ``finite`` below
            self.vals = np.abs(np.asarray(g(2.0 * np.arange(n + 1) - n), dtype=np.float64))
        self.vals.flags.writeable = False
        self.finite = bool(np.all(np.isfinite(self.vals)))
        if self.finite:
            with np.errstate(divide="ignore"):
                self.logv = np.log(self.vals)
            self.logv.flags.writeable = False


_support = _last(_Support)      # one record of O(n) held, the last (g, n) collapsed


@lru_cache(maxsize=256)
def _collapse_lp(g, n, p) -> float:
    return _support_lp(_support(g, n), p)


def _support_lp(sup: _Support, p) -> float:
    if not sup.finite:
        raise ValueError("g produced non-finite values on the support of S")
    with np.errstate(over="ignore"):
        terms = p * sup.logv
        terms += sup.logw
    top = sup.vals.max() if p > 1e305 else 0.0     # p * log|g| is in range below (|log v| < 745)
    if top > 0 and not np.isfinite(terms[np.argmax(sup.vals)]):    # max|g| * ||g / max|g|||,
        scaled = _Support(lambda s: sup.g(s) / top, sup.n)  # a record of its own
        return float(top * _support_lp(scaled, p))
    # a zero outcome (log 0) or an underflowed term is -inf, and
    # logaddexp(a, -inf) = a exactly, so such terms change no bit of the sum
    terms.sort()
    with np.errstate(over="ignore"):        # so does a finite gap past the float range
        return float(np.exp(np.logaddexp.reduce(terms[::-1]) / p))


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
    for a converged run the batch spread brackets the enumeration value. The
    estimates are range-safe, as ``lp_norm`` is.
    """
    vals = _mc_values(f, spec.reps, spec.seed)
    batches = np.array([lp_norm(vals[s], spec.p) for s in _batch_slices(spec.reps)])
    return MonteCarloNorm(
        value=lp_norm(vals, spec.p),
        batch_min=float(batches.min()),
        batch_median=float(np.median(batches)),
        batch_max=float(batches.max()),
        reps=spec.reps,
        seed=spec.seed,
    )


def empirical_tail(f: SignFunction, t: float, reps: int = 100_000, seed: int = 0) -> float:
    """P(|f(Z)| >= t); exact by enumeration whenever the arity permits."""
    if not t >= 0:
        raise ValueError(f"threshold must be >= 0, got {t}")
    if f.arity <= ENUMERATION_CAP:
        hits = [float(np.count_nonzero(v >= t)) for v in _abs_blocks(f)]
        return _pairwise_sum(hits) / (1 << f.arity)
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    _check_seed(seed)
    vals = _mc_values(f, reps, seed)
    return float(np.count_nonzero(vals >= t)) / reps


def hitczenko_functional(a, p: float) -> float:
    """Two-sided moment equivalent for ||sum a_i eps_i||_p:

        sum_{i <= floor(p)} a_(i)  +  sqrt(p) * (sum_{i > floor(p)} a_(i)^2)^(1/2)

    with a_(1) >= a_(2) >= ... the non-increasing rearrangement. The
    equivalence constants are absolute but not explicit; the test suite
    measures them on a weight grid. p = inf gives sum a_i, the value at every
    finite p >= len(a).
    """
    w = np.asarray(a, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if not np.all(w >= 0):
        raise ValueError("weights must be non-negative")
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    w = np.sort(w)[::-1]
    if p == np.inf:
        return float(w.sum())
    head = int(p)  # floor(p) largest weights
    return float(w[:head].sum() + sqrt(p) * sqrt(float((w[head:] ** 2).sum())))


def latala_allones_estimate(n: int, p: float) -> float:
    """Moment estimate p*n + p*sqrt(n) + sqrt(p)*n for the all-ones
    off-diagonal quadratic form sum_{i != j} Z_i Z_j (shape constants)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p * n + p * sqrt(n) + sqrt(p) * n
