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

Every check sweeps the moment order p. The collapse builds what does not
depend on p once, below the public calls; the enumeration evaluates f afresh
on every call and keeps nothing once it returns. One rule covers every cache:
every array cache is a one-entry ``_last`` (the sign matrix, the collapse's
support record and its binomial law), which drops the held value before it
builds the next; a memo of floats or closures is a bounded ``lru_cache``,
through ``_memo`` where its key may be unhashable.
Neither holds an unhashable key or an error, held arrays are read-only, and
a race between pool threads costs a rebuild, never a wrong value.

{-1,+1}^n (n <= 20) is a read-only int8 array (n, 2**n), z_i as row i, and
only the last one built is held; ``sign_matrix`` is its transpose. Each row
is written as its first period, 2**i entries of -1 and 2**i of +1, then
doubled by copies of its filled prefix: contiguous writes, no temporaries.
The chaos hypotheses (n - 1 coordinates, n <= 21) read it in place, the
partition's level bounds read ``sign_matrix(min(n, 16))``, whose first m
rows over 2**m entries are those of every larger matrix, and the
enumeration copies ``sign_matrix(min(n, 16))`` into every block,
column-major as that matrix is, so f sees one layout at every n.
``sum_function`` and the chaos sum add the signs of a row in int8 where it
has fewer than 128 columns (``_sign_sum``): a sum of at most 127 signs is
exact there, so its float64 values are those of a float64 sum, and the int8
reduction is about 10x faster on the enumeration's blocks.

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
from numbers import Integral
from typing import Callable, Iterable

import numpy as np
# The top-level package alone, no submodule: bench/server.py reads
# sys.modules["scipy"].__version__ for the version record of every run.
import scipy  # noqa: F401

ENUMERATION_CAP = 26   # 2**26 ~ 6.7e7 evaluations keeps the oracle interactive
MC_BLOCK = 4096        # replicate block size; fixed so streams never depend on scheduling
_BLOCK_ARITY = 16      # enumeration blocks of 2**16 rows
_CACHED_ARITY = 20     # sign matrices up to 20 x 2**20 (~21 MB); the last one built is held
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
_LOG_FACTORIALS = tuple(log(factorial(k)) for k in range(12))     # lgam below 13: log (x - 1)!


@dataclass(frozen=True)
class SignFunction:
    """Deterministic map {-1,+1}^n -> R, evaluated on batches of sign rows.

    ``eval`` receives an (m, arity) int8 array with entries +-1, column-major
    from the enumeration and row-major from Monte Carlo, and must return an
    (m,) float array; it must be pure and total on the hypercube.
    """

    arity: int
    eval: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        _check_int("arity", self.arity)


@dataclass(frozen=True)
class MomentSpec:
    """A seeded Monte Carlo moment for ``mc_lp``: order p, replicates, seed."""

    p: float
    reps: int
    seed: int = 0

    def __post_init__(self):
        _check_real("p", self.p, 1, finite=False)
        _check_int("reps", self.reps, 100)
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """A Philox key is a uint64."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    _check_int("seed", seed, 0)


def _check_int(name: str, value, lo: int = 1) -> None:
    """A size, count or index: an ``Integral`` >= lo (a plain int is
    accepted before the slower ABC check)."""
    if type(value) is not int and not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")


def _check_real(name: str, value, lo: float, finite: bool = True) -> None:
    """An order, threshold or scale: a number >= lo, and finite unless told
    otherwise. NaN fails it, as it fails every comparison."""
    if not (value >= lo and (value < np.inf or not finite)):
        raise ValueError(f"{name} must be {'finite and ' if finite else ''}>= {lo}, got {value}")


def _require_nonneg(**params: float) -> None:
    for name, value in params.items():
        _check_real(name, value, 0)


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


def _sign_sum(rows: np.ndarray) -> np.ndarray:
    """Row sums of +-1 int8 rows as float64. A sum of at most 127 signs is
    exact in int8, so below 128 columns it is taken there; wider rows are
    summed in float64."""
    if rows.shape[1] < 128:
        return rows.sum(axis=1, dtype=np.int8).astype(np.float64)
    return rows.sum(axis=1, dtype=np.float64)


def sum_function(arity: int) -> SignFunction:
    """f(z) = sum(z_i)."""
    return SignFunction(arity, _sign_sum, "sum")


def coordinate_function(arity: int, i: int) -> SignFunction:
    if not 0 <= i < arity:
        raise ValueError(f"coordinate {i} out of range for arity {arity}")
    _check_int("i", i, 0)
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


def _tile(row: np.ndarray, filled: int, width: int) -> int:
    """Repeat ``row[:filled]`` up to ``row[:width]`` (powers of two) by
    doubling copies that never overlap, so numpy takes no temporary."""
    while filled < width:
        row[filled:2 * filled] = row[:filled]
        filled *= 2
    return filled


@_last
def _sign_columns(n: int) -> np.ndarray:
    """{-1,+1}^n coordinate-major: row i is z_i over the 2**n lexicographic
    sign vectors, -1 for 2**i entries, then +1 for 2**i, repeated. Each row
    is written as its first period and tiled by doubling copies."""
    cols = np.empty((n, 1 << n), dtype=np.int8)
    for i, col in enumerate(cols):
        col[:1 << i] = -1
        col[1 << i:2 << i] = 1
        _tile(col, 2 << i, 1 << n)
    cols.flags.writeable = False        # shared by every caller of this arity
    return cols


def _check_sign_arity(n: int) -> None:
    """The cap on n of every sign matrix, checked before it is built."""
    _check_int("arity", n, 0)
    if n > _CACHED_ARITY:
        raise ValueError(f"arity {n} exceeds sign matrix cap {_CACHED_ARITY}")


def sign_matrix(n: int) -> np.ndarray:
    """All 2**n sign vectors as a read-only (2**n, n) view of +-1 (n <= 20)."""
    _check_sign_arity(n)
    return _sign_columns(n).T


def _abs_eval(f: SignFunction, rows: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(f.eval(rows), dtype=np.float64))


def _abs_blocks(f: SignFunction):
    """|f| over {-1,+1}^n in lexicographic blocks of 2**min(n, 16) rows, built
    afresh each pass and column-major, as ``sign_matrix`` is: the low coordinates
    from one ``sign_matrix`` call, the high ones the bits of the block number."""
    n = f.arity
    low_rows = sign_matrix(min(n, _BLOCK_ARITY))
    low = low_rows.shape[1]
    for b in range(1 << (n - low)):
        rows = np.empty((1 << low, n), dtype=np.int8, order="F")
        rows[:, :low] = low_rows
        rows[:, low:] = 2 * ((b >> np.arange(n - low)) & 1) - 1
        yield _abs_eval(f, rows)


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
               repeat: int = 1, spread: Callable[[np.ndarray], np.ndarray] | None = None
               ) -> float:
    """(count^-1 * sum v^p)^(1/p) over the fresh non-negative float64 arrays
    ``blocks()`` yields, each raised in place (``v **= p`` takes the path of
    ``v ** p``, the square at p = 2 included). Where that sum is non-finite, or
    0 while max v > 0, a second pass scales each block in place by its max, so
    streamed blocks keep bounded memory.

    Each block's sum counts ``repeat`` times, a power of two, before the
    division by ``count``: a block of 2**j >= 128 entries then stands for its
    ``repeat`` copies side by side, bit for bit, since numpy sums a contiguous
    float64 row as a pairwise tree of halves down to leaves of 128, so the sum
    of the copies is ``repeat`` exact doublings of the block's (inf in both
    forms where it overflows). ``spread``, where given, maps each raised block
    to the row summed in its place: a table of distinct values, raised once,
    then laid out as the row it stands for."""
    def powered_sum(v):
        v **= p
        return float(np.sum(v if spread is None else spread(v))) * repeat

    with np.errstate(over="ignore"):
        mean = _pairwise_sum([powered_sum(v) for v in blocks()]) / count
    if not (np.isfinite(mean) and mean > 0):
        parts = []
        with np.errstate(invalid="ignore"):     # 0/0 in all-zero blocks, dropped below
            for v in blocks():
                top = v.max()
                v /= top
                parts.append((float(top), powered_sum(v)))
        top = float(np.max([t for t, _ in parts]))
        if 0 < top < np.inf:                    # v^p overflowed or underflowed
            scaled = _pairwise_sum([(t / top) ** p * s for t, s in parts if t > 0]) / count
            return float(top * scaled ** (1.0 / p))
    return float(mean ** (1.0 / p))


def lp_norm(values: np.ndarray, p: float) -> float:
    """Range-safe (mean |v|^p)^(1/p) of one array, in float64; ``values``
    itself is never written."""
    return _blocks_lp(lambda: (np.abs(values, dtype=np.float64),), values.size, p)


def enumerate_lp(f: SignFunction, p: float) -> float:
    """Exact, range-safe (2^-n * sum_z |f(z)|^p)^(1/p) over the full hypercube."""
    _check_real("p", p, 1, finite=False)
    if f.arity > ENUMERATION_CAP:
        raise ValueError(f"arity {f.arity} exceeds enumeration cap {ENUMERATION_CAP}")
    return _blocks_lp(lambda: _abs_blocks(f), 1 << f.arity, p)


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
    out[:12] = _LOG_FACTORIALS[:m]
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
    _check_int("n", n, 0)
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
    are bitwise stable and immune to overflow of |g|^p. Above n = 1076 the
    terms within 64 of the largest are summed first, and the sum stops there
    where a term 64 below the largest would leave it unchanged; elsewhere
    the terms within 746 of the largest are summed. Either way the terms
    left out add exactly 0, so the float is that of the full sum.
    """
    _check_int("n", n)
    _check_real("p", p, 1)
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
        # non-finite values of g are caught by ``finite``; log 0 is -inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.vals = np.abs(np.asarray(g(2.0 * np.arange(n + 1) - n), dtype=np.float64))
            self.finite = bool(np.isfinite(self.vals).all())
            if self.finite:
                self.logv = np.log(self.vals)
                self.logv.flags.writeable = False
        self.vals.flags.writeable = False


_support = _last(_Support)      # one record of O(n) held, the last (g, n) collapsed


@lru_cache(maxsize=256)
def _collapse_lp(g, n, p) -> float:
    return _support_lp(_support(g, n), p)


def _support_lp(sup: _Support, p) -> float:
    if not sup.finite:
        raise ValueError("g produced non-finite values on the support of S")
    if p <= 1e305:      # |log v| < 745: every term, and every gap between two, is in range
        return _root(_log_sum(_terms(sup, p), sup.n), p)
    with np.errstate(over="ignore"):        # p * log|g| and the gaps can leave it
        terms = _terms(sup, p)
        top = sup.vals.max()
        if top > 0 and not np.isfinite(terms[np.argmax(sup.vals)]):    # max|g| * ||g / max|g|||,
            scaled = _Support(lambda s: sup.g(s) / top, sup.n)  # a record of its own
            return float(top * _support_lp(scaled, p))
        return _root(_log_sum(terms, sup.n), p)


def _terms(sup: _Support, p) -> np.ndarray:
    """log(P(S = s) * |g(s)|^p) over the support of S, a fresh array."""
    terms = p * sup.logv
    terms += sup.logw
    return terms


def _log_sum(terms: np.ndarray, n: int):
    """log sum exp(terms): the float of ``logaddexp.reduce`` over the terms in
    decreasing order. ``terms`` may be sorted in place.

    Each step logaddexp(r, t) = r + log1p(exp(t - r)) is monotone in t, and
    the running sum r never falls below the largest term. Above n = 1076
    (the log weights span n log 2 > 746) the terms within 64 of the largest
    are reduced first; if one step more, with a term 64 below the largest,
    returns r, so does every term left out, and r is the full sum's float.
    That fails only near r = 0 (|r| below about 1e-12); there the terms
    within 746 of the largest are reduced, since log1p(exp(t - r)) is
    exactly 0 once t - r < -745.14. Zero outcomes (log 0) and underflowed
    terms (-inf) fall below both cuts; at g = 0 every term is -inf and all
    are kept. Below n = 1076 a cut rarely drops a term and costs more than
    it saves (4 us a call at n = 64).
    """
    if n * _LOG2 > 746.0:
        top = terms.max()
        head = terms[terms >= top - 64.0]
        head.sort()
        r = np.logaddexp.reduce(head[::-1])
        if np.logaddexp(r, top - 64.0) == r:
            return r
        terms = terms[terms >= top - 746.0]
    terms.sort()
    return np.logaddexp.reduce(terms[::-1])


def _root(r, p) -> float:
    """exp(r / p), the norm from the log-sum of its p-th power."""
    x = r / p
    if x > 709.0:                       # exp leaves the float range
        with np.errstate(over="ignore"):
            return float(np.exp(x))
    return float(np.exp(x))


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
    _check_real("threshold", t, 0, finite=False)
    if f.arity <= ENUMERATION_CAP:
        hits = [float(np.count_nonzero(v >= t)) for v in _abs_blocks(f)]
        return _pairwise_sum(hits) / (1 << f.arity)
    _check_int("reps", reps, 100)
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
    _check_real("p", p, 1, finite=False)
    w = np.sort(w)[::-1]
    if p == np.inf:
        return float(w.sum())
    head = int(p)  # floor(p) largest weights
    return float(w[:head].sum() + sqrt(p) * sqrt(float((w[head:] ** 2).sum())))


def latala_allones_estimate(n: int, p: float) -> float:
    """Moment estimate p*n + p*sqrt(n) + sqrt(p)*n for the all-ones
    off-diagonal quadratic form sum_{i != j} Z_i Z_j (shape constants)."""
    _check_int("n", n, 2)
    _check_real("p", p, 1, finite=False)
    return p * n + p * sqrt(n) + sqrt(p) * n
