"""Nested dyadic partitions and the telescoping decomposition they induce.

The index set is padded to the next power of two ``2**k`` (the extra indices
carry identically-zero functions). Level l consists of ``2**(k-l)``
contiguous blocks of size ``2**l``: level 0 is singletons, level k the full
set, and each block is the disjoint union of two blocks one level down.

Conditioning g_i on Z_i and everything outside its level-l block defines
g_i^l; the differences g_i^l - g_i^{l+1} telescope:

    g_i - E[g_i | Z_i] = sum_{l < k} (g_i^l - g_i^{l+1}).

For the chaos family the conditional expectations have closed forms

    g_i^l = M*z_i + (beta/2)*z_i*sum_{j not in B^l(i)} z_j,
    g_i^l - g_i^{l+1} = (beta/2)*z_i*sum_{j in B^{l+1}(i) \\ B^l(i)} z_j,

and every step of the decomposition is checkable by exact enumeration:
per-term norms against 2*sqrt(p*2^l)*beta, block sums against
6*sqrt(2)*p*2^l*beta, level sums against 6*sqrt(2)*p*2^k*beta, and the
assembled chain against the dyadic sum moment bound. The enumeration is
coordinate-major: z_i over all 2^n sign vectors is one contiguous row of the
int8 sign matrix, read in place.

The level-bounds check writes into three float64 rows of 2^n of its own and
one popcount index of at most 2^16 entries, allocated per call, and holds
nothing once it returns. Every term of a block has the same norm,
(beta/2)*||sibling sum||_p, since |z_i| = 1, and every level-0 term and
block is +-beta/2 at each entry, so one norm serves them all. Norms whose
|v|^p leaves the float range are taken scaled by max|v|
(``oracle._blocks_lp``).

Each row is built, and raised to p, at its parent's resolution. Entry x of
the enumeration has z_j = +1 where bit j of x is set, so a row that reads
only the coordinates [a, c) is a table over their 2^(c-a) sign patterns:
constant over runs of 2^a entries, repeating every 2^c. A block's terms are
(beta/2) times its sibling's sum over [s, s + m), in runs of 2^s; its own
sum reads its parent's coordinates [P, hi), P the parent's start and hi its
real end, in runs of 2^P. Its table T is built by prefix doubling over the
block's coordinates in increasing i, T -> [T - hs, T + hs] with hs the
sibling's sum times beta/2, from T = 0.0. z_i * hs is +-hs exactly and each
partial sum depends only on its prefix of signs, so every entry of T is the
float sum of the full-row loop, in its order. S = sum_i z_i is
2*popcount(x) - n: |S| and the closed form of sum_i g_i are evaluated on its
n + 1 values and gathered by a popcount index, built by the same doubling.
Only the level sums stay rows: a level sum is built in block order, the
partial sum tiled up to each block's period before that block's table is
added across its runs, so every entry sees the adds of the full rows in
their order.

Each norm raises its table alone and lays the powers out over one period of
at least 128 entries (at most 2^n), and that period's sum is bit for bit the
full row's: the power is elementwise, and numpy sums a contiguous float64
row of 2^n as a pairwise tree of halves down to leaves of 128, so the full
sum is exact doublings of the period's sum (or inf in both forms), and the
norm counts the period's sum 2^n / period times before it divides by 2^n. A
sibling's sum depends on its 2^m sign patterns only through their popcount
c, as 2c - m: m + 1 values. Term and block tables are built and raised over
those values (a block's T holds 2^own * (m + 1) entries, not 2^(own + m)),
then gathered along the sibling axis by c, read from the int8 (exact) column
sums of ``sign_matrix(min(n, 16))``: into the block row the level sum adds,
and, raised, into the row its norm sums. A gather moves floats and
computes none, so every norm stays bit for bit. Only the level rows that
read z_(n-1) are raised over all 2^n entries.

The telescoping check takes no p and reads no rows. At every sign vector,
index i's deviation is one float expression of z_i and its sibling sums,
and S - z_i is their sum. The siblings hold disjoint coordinates other than
i, so over the enumeration (z_i, sibling sums) takes every value in
{-1, 1} x prod_l {-m_l, -m_l + 2, ..., m_l}, m_l the level-l sibling's real
size. A max depends on neither order nor multiplicity, so one grid per
tuple of sizes (at most 4 grids of at most 2700 entries for n <= 20) gives
the max over every sign vector and index bit for bit.

A slow generic conditional-expectation path (nested enumeration) is kept as
an independent cross-check of the terms (beta/2)*z_i*(sibling sum).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from math import sqrt

import numpy as np

from .bounds import dyadic_sum_moment_bound
from .chaos import ChaosParams, chaos_collapsed
from .oracle import (_BLOCK_ARITY, SignFunction, _blocks_lp, _check_int, _check_real,
                     _check_sign_arity, _tile, sign_matrix)

_SQRT2 = sqrt(2.0)
GENERIC_CAP = 12   # nested enumeration blows up past desk scale
_LEAF_BITS = 7     # numpy's pairwise sum ends in leaves of 2**7 entries


@dataclass(frozen=True)
class PartitionTree:
    """Dyadic partition scheme of n indices, padded to the next power of two:
    indices 0..n_padded-1, n_padded = 2**k."""

    n: int

    def __post_init__(self):
        _check_int("n", self.n)

    @property
    def k(self) -> int:
        return (self.n - 1).bit_length()

    @property
    def n_padded(self) -> int:
        return 1 << self.k

    def blocks(self, l: int) -> list[range]:
        if not 0 <= l <= self.k:
            raise ValueError(f"level {l} out of range 0..{self.k}")
        size = 1 << l
        return [range(a, a + size) for a in range(0, self.n_padded, size)]


def block_of(tree: PartitionTree, i: int, l: int) -> range:
    """B^l(i): the unique level-l block containing index i (O(1))."""
    if not 0 <= i < tree.n_padded:
        raise IndexError(f"index {i} out of range 0..{tree.n_padded - 1}")
    if not 0 <= l <= tree.k:
        raise ValueError(f"level {l} out of range 0..{tree.k}")
    start = (i >> l) << l
    return range(start, start + (1 << l))


def telescope_term_generic(f: SignFunction, tree: PartitionTree, i: int, l: int, z) -> float:
    """g_i^l - g_i^{l+1} for an arbitrary sign function, via nested
    enumeration of the conditioned coordinates (slow reference path,
    n <= GENERIC_CAP)."""
    if f.arity > GENERIC_CAP:
        raise ValueError(f"generic path capped at n <= {GENERIC_CAP}, got {f.arity}")
    if not 0 <= l < tree.k:
        raise ValueError(f"level {l} out of range 0..{tree.k - 1}")
    return (_conditional_mean_generic(f, tree, i, l, z)
            - _conditional_mean_generic(f, tree, i, l + 1, z))


def _conditional_mean_generic(f: SignFunction, tree: PartitionTree, i: int, l: int, z) -> float:
    """E[f | Z_i, Z outside B^l(i)], averaging over the in-block coordinates."""
    zz = np.asarray(z, dtype=np.int8)
    if zz.shape != (f.arity,):
        raise ValueError(f"z must have shape ({f.arity},), got {zz.shape}")
    block = block_of(tree, i, l)
    coords = [j for j in block if j != i and j < f.arity]
    if not coords:
        return float(np.asarray(f.eval(zz[None, :]), dtype=np.float64)[0])
    fill = sign_matrix(len(coords))
    rows = np.repeat(zz[None, :], len(fill), axis=0)
    rows[:, coords] = fill
    return float(np.mean(np.asarray(f.eval(rows), dtype=np.float64)))


@dataclass(frozen=True)
class TelescopeReport:
    """Worst deviation of sum_l (g_i^l - g_i^{l+1}) from g_i - M*z_i over the
    full enumeration and all real indices."""

    n: int
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= 1e-12


def _sibling_size(n: int, i: int, l: int) -> int:
    """Real indices in the sibling block B^{l+1}(i) \\ B^l(i), which starts
    at ((i >> l) ^ 1) << l; 0 where it is padding alone."""
    return min(1 << l, max(0, n - (((i >> l) ^ 1) << l)))


def verify_telescoping(params: ChaosParams) -> TelescopeReport:
    """Check the telescoping identity on every sign vector and index, over
    the grid of values its terms take (see the module docstring). It reads
    no rows; its one ``sign_matrix(n)`` call caps n at 20, as for every
    verifier. A NaN deviation is reported as NaN and fails."""
    n = params.n
    tree = PartitionTree(n)
    sign_matrix(n)
    M, half_beta = float(params.M), float(0.5 * params.beta)
    worst = 0.0
    for sizes in {tuple(_sibling_size(n, i, l) for l in range(tree.k)) for i in range(n)}:
        zi, *sibs = np.ix_([-1, 1], *(range(-m, m + 1, 2) for m in sizes if m))
        half_zi = half_beta * zi                  # shared by g_i and every term
        g_i = half_zi * sum(sibs) + M * zi - M * zi   # g_i - M*z_i, rounded as checked
        acc = 0.0
        for sib in sibs:                          # a padding sibling adds 0
            acc = acc + half_zi * sib
        worst = np.maximum(worst, np.max(np.abs(acc - g_i)))   # NaN propagates
    return TelescopeReport(n=n, max_deviation=float(worst))


@dataclass(frozen=True)
class LayerCheck:
    """One layer of the decomposition: worst slack of bound - exact norm."""

    label: str
    count: int
    min_slack: float
    violations: int


@dataclass(frozen=True)
class LevelBoundsReport:
    """Exact norms of every term, block sum and level sum against their
    stated bounds, plus the assembled chain up to the dyadic sum bound."""

    n: int
    p: float
    terms: LayerCheck
    blocks: LayerCheck
    levels: LayerCheck
    sum_norm: float               # exact ||sum_i g_i||_p
    chain_value: float            # M*||S||_p + sum of exact level norms
    chain_bound: float            # 4*M*sqrt(p*n) + sum of level bounds
    final_bound: float            # dyadic sum moment bound

    @property
    def passed(self) -> bool:
        return (self.terms.violations == 0 and self.blocks.violations == 0
                and self.levels.violations == 0
                and self.sum_norm <= self.chain_value <= self.chain_bound <= self.final_bound)


def _period_width(period: int, n: int) -> int:
    """Entries that stand for a row of 2**n repeating every ``period``: one
    period, at least 128 (numpy's pairwise leaves), at most 2**n."""
    return max(period, min(1 << _LEAF_BITS, 1 << n))


def _gather(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table`` (high, values, low) gathered along its middle axis by
    ``index`` into the head of ``out``, returned flat."""
    high, _, low = table.shape
    size = high * index.size * low
    table.take(index, 1, out[:size].reshape(high, index.size, low), "clip")  # "raise" buffers out
    return out[:size]


def _period_lp(table: np.ndarray, p: float, n: int, work: np.ndarray, run: int = 1,
               index: np.ndarray | None = None, spare: np.ndarray | None = None,
               fresh: Callable[[], np.ndarray] | None = None) -> float:
    """``lp_norm`` of a row of 2**n entries, bit for bit, from ``table``: the
    row repeats ``table``, gathered by ``index`` along its middle axis
    (``table`` is then (high, values, low)), each entry taken ``run`` times
    (a power of two). |table|**p is raised once: in ``work`` without
    ``index``, in place where ``fresh`` rebuilds ``table`` for a rescaled
    pass, else in a new array. The powers are laid out in ``work`` (through
    ``spare`` where ``run`` > 1) over one period of at least 128 entries (or
    2**n), whose sum counts 2**n / period times: the row's, by the leaf rule."""
    size = table.size if index is None else table.size // table.shape[1] * index.size
    width = _period_width(size * run, n)
    row = work[:width]
    tables = [table]

    def blocks():
        if index is None:
            return (np.abs(table, out=work[:table.size]),)
        if fresh is None:
            return (np.abs(table),)
        t = tables.pop() if tables else fresh()
        return (np.abs(t, out=t),)

    def total(v):
        if index is not None:
            v = _gather(v, index, row if run == 1 else spare)
        if run > 1:
            row[:size * run].reshape(size, run)[:] = v[:, None]
        _tile(work, size * run, width)
        return float(np.sum(row)) * ((1 << n) // width)

    return _blocks_lp(blocks, 1 << n, p, total)


def _block_table(out: np.ndarray, scratch: np.ndarray, half_sib: np.ndarray, own: int,
                 sib_low: bool) -> np.ndarray:
    """sum_i z_i * half_sib over the block's ``own`` coordinates, added from
    0.0 in increasing i, as a table in ``out`` over the sign patterns of its
    own coordinates and the sibling values ``half_sib``, shaped (high, values,
    low): the sibling axis below the block's own where ``sib_low``, above it
    otherwise. Built by prefix doubling, one coordinate at a time,
    T -> [T - half_sib, T + half_sib], each step read from one of ``out`` and
    ``scratch`` and written to the other, so no ufunc reads and writes one
    buffer."""
    low, high = (half_sib.size, 1) if sib_low else (1, half_sib.size)
    hs = half_sib.reshape(high, 1, low)
    src, dst = (out, scratch) if own % 2 == 0 else (scratch, out)
    src[:half_sib.size] = 0.0
    for j in range(own):
        t = src[:half_sib.size << j].reshape(high, 1 << j, low)
        doubled = dst[:half_sib.size << (j + 1)].reshape(high, 2, 1 << j, low)
        np.subtract(t, hs, out=doubled[:, 0])       # z_i = -1 where bit j is clear
        np.add(t, hs, out=doubled[:, 1])
        src, dst = dst, src
    return out[:half_sib.size << own].reshape((1 << own, -1, 1) if sib_low else (1, -1, 1 << own))


def verify_level_bounds(params: ChaosParams, p: float) -> LevelBoundsReport:
    """Exact-norm check of every bound used by the telescoping argument.

    p and the final bound are checked before any enumeration."""
    _check_real("p", p, 2)
    n = params.n
    final = dyadic_sum_moment_bound(p, n, params.beta, params.M).value
    _check_sign_arity(n)
    # a sibling's table reads rows [0, m) over 2**m entries, m <= 16: the
    # m-sign patterns, the same in every sign matrix of at least m rows
    cols = sign_matrix(min(n, _BLOCK_ARITY)).T
    tree = PartitionTree(n)
    beta, half_beta = params.beta, float(0.5 * params.beta)
    level_values, block_values, work = np.empty((3, 1 << n))
    # a sibling of m indices sums to 2c - m at c signs +1, m + 1 values: its
    # tables are built over them and gathered by c, the popcount of each of
    # its 2**m patterns, the first 2**m popcounts of the widest sibling's
    widest = tree.n_padded >> 1
    sib_popcount = np.add(np.add.reduce(cols[:widest, :1 << widest], axis=0, dtype=np.int8),
                          widest, dtype=np.intp)
    sib_popcount >>= 1
    half_sums = half_beta * np.arange(-widest, widest + 1)[None, :, None]

    term_slacks = []
    block_slacks = []
    level_slacks = []
    level_norms = []
    norm0 = None
    for l in range(tree.k):
        term_bound = 2.0 * sqrt(p * (1 << l)) * beta
        block_bound = 6.0 * _SQRT2 * p * (1 << l) * beta
        level_bound = 6.0 * _SQRT2 * p * tree.n_padded * beta
        level_values[0], filled = 0.0, 1
        for block in tree.blocks(l):
            real = range(block.start, min(block.stop, n))
            m = _sibling_size(n, block.start, l)
            if not real or not m:
                # padding alone, or beside padding alone: every value is 0
                term_slacks.extend([term_bound] * len(real))
                block_slacks.append(block_bound)
                continue
            # the block's rows read its parent's coordinates [parent, hi)
            # alone: tables over their sign patterns (the sibling's by their
            # popcount), in runs of 2**parent
            parent = (block.start >> (l + 1)) << (l + 1)
            s = ((block.start >> l) ^ 1) << l
            hi = max(real.stop, s + m)
            index, half_sib = sib_popcount[:1 << m], half_sums[:, widest - m:widest + m + 1:2]
            build = partial(_block_table, block_values, work, half_sib, len(real), s < block.start)
            # term_i = z_i * (beta/2) * sib and |z_i| = 1, so every term of
            # the block has the norm of (beta/2) * sib, in runs of 2**s
            if l == 0:      # every level-0 term and block is +-beta/2 at each entry
                if norm0 is None:
                    norm0 = _period_lp(half_sib, p, n, work, 1 << s, index, block_values)
                term_norm = block_norm = norm0
            else:
                term_norm = _period_lp(half_sib, p, n, work, 1 << s, index, block_values)
            table = build()
            bv = _gather(table, index, work)
            # every block so far repeats within ``filled``: tiled, each entry
            # of the level sum sees the adds of the full rows, in their order
            width = _period_width(1 << hi, n)
            filled = _tile(level_values, filled, width)
            lv = level_values[:width].reshape(-1, bv.size, 1 << parent)
            lv += bv[:, None]
            if l > 0:       # the table is raised in place, once the level sum has read it
                block_norm = _period_lp(table, p, n, work, 1 << parent, index,
                                        block_values[table.size:], build)
            term_slacks.extend([term_bound - term_norm] * len(real))
            block_slacks.append(block_bound - block_norm)
        level_norms.append(_period_lp(level_values[:filled], p, n, work))
        level_slacks.append(level_bound - level_norms[-1])

    # S = 2 * popcount - n at each sign vector, gathered from its n + 1 values
    # by the popcount, built by the same doubling
    popcount = block_values.view(np.intp)
    popcount[0] = 0
    for j in range(n):
        np.add(popcount[:1 << j], 1, out=popcount[1 << j:2 << j])
    s_values = np.arange(-n, n + 1, 2, dtype=np.float64)[None, :, None]
    sum_norm = _period_lp(chaos_collapsed(params)(s_values), p, n, work, index=popcount)
    chain_value = (params.M * _period_lp(s_values, p, n, work, index=popcount)
                   + float(np.sum(level_norms)))
    chain_bound = (4.0 * params.M * sqrt(p * n)
                   + 6.0 * _SQRT2 * p * tree.n_padded * beta * tree.k)

    def layer(label: str, slacks: list[float]) -> LayerCheck:
        if not slacks:
            return LayerCheck(label, 0, 0.0, 0)
        arr = np.asarray(slacks)
        return LayerCheck(label, len(slacks), float(arr.min()),
                          int(np.count_nonzero(arr < 0)))

    return LevelBoundsReport(
        n=n, p=p,
        terms=layer("term", term_slacks),
        blocks=layer("block", block_slacks),
        levels=layer("level", level_slacks),
        sum_norm=sum_norm,
        chain_value=chain_value,
        chain_bound=chain_bound,
        final_bound=final,
    )
