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
cached int8 sign matrix, read in place.

The level-bounds check sums each sibling block it reads from those rows
into an int8 row (a sum of at most 20 signs is exact) and writes every
elementwise step into four float64 rows of 2^n, the closed form of
sum_i g_i included. All five rows are its own, so it holds nothing once it
returns. Every term of a block has the same norm, (beta/2)*||sibling
sum||_p, since |z_i| = 1, and every level-0 term and block is +-beta/2 at
each entry, so one norm serves them all. Each block's rows are taken over
their period, with norms bit for bit those of the full rows (README states
why). Norms whose |v|^p leaves the float range are taken scaled by max|v|.

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

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .bounds import dyadic_sum_moment_bound
from .chaos import ChaosParams, chaos_collapsed
from .oracle import SignFunction, _blocks_lp, lp_norm, sign_matrix

_SQRT2 = sqrt(2.0)
GENERIC_CAP = 12   # nested enumeration blows up past desk scale
_LEAF_BITS = 7     # numpy's pairwise sum ends in leaves of 2**7 entries


@dataclass(frozen=True)
class PartitionTree:
    """Dyadic partition scheme over indices 0..n_padded-1."""

    n_original: int
    n_padded: int
    k: int                      # n_padded == 2**k

    def __post_init__(self):
        if self.n_original < 1:
            raise ValueError(f"n must be >= 1, got {self.n_original}")
        if self.n_padded != 1 << self.k:
            raise ValueError("n_padded must equal 2**k")
        if not self.n_original <= self.n_padded < 2 * self.n_original:
            raise ValueError("padding must be the next power of two")

    def blocks(self, l: int) -> list[range]:
        if not 0 <= l <= self.k:
            raise ValueError(f"level {l} out of range 0..{self.k}")
        size = 1 << l
        return [range(a, a + size) for a in range(0, self.n_padded, size)]


def build_partition(n: int) -> PartitionTree:
    """Pad n to the next power of two and build the dyadic scheme."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = (n - 1).bit_length()
    return PartitionTree(n_original=n, n_padded=1 << k, k=k)


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
    tree = build_partition(n)
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


def _tile(row: np.ndarray, filled: int, width: int) -> int:
    """Repeat ``row[:filled]`` up to ``row[:width]`` (powers of two) by
    doubling copies that never overlap, so numpy takes no temporary."""
    while filled < width:
        row[filled:2 * filled] = row[:filled]
        filled *= 2
    return filled


def _period_lp(row: np.ndarray, p: float, n: int, work: np.ndarray) -> float:
    """``lp_norm`` of ``row`` repeated to 2**n entries, from the one period
    ``row`` (2**j >= 128 entries, or all 2**n), bit for bit."""
    return _blocks_lp(lambda: (np.abs(row, out=work[:row.size]),), 1 << n, p,
                      (1 << n) // row.size)


def verify_level_bounds(params: ChaosParams, p: float) -> LevelBoundsReport:
    """Exact-norm check of every bound used by the telescoping argument.

    p and the final bound are checked before any enumeration."""
    if not isfinite(p) or p < 2:
        raise ValueError(f"p must be finite and >= 2, got {p}")
    n = params.n
    final = dyadic_sum_moment_bound(p, n, params.beta, params.M).value
    cols = sign_matrix(n).T                  # row i: z_i over every sign vector
    tree = build_partition(n)
    beta, half_beta = params.beta, float(0.5 * params.beta)
    level_values, half_sib, block_values, work = np.empty((4, 1 << n))
    sib_row = np.empty(1 << n, dtype=np.int8)   # |a sum of at most 20 signs| <= 20

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
            # z_j repeats every 2**(j+1) entries, so the rows of this block and
            # its sibling repeat every 2**stop, stop the parent block's real
            # end; they are taken over one such period of at least 128
            stop = ((block.start >> (l + 1)) + 1) << (l + 1)
            width = 1 << min(max(stop, _LEAF_BITS), n)
            hs, bv, tmp = half_sib[:width], block_values[:width], work[:width]
            s = ((block.start >> l) ^ 1) << l
            sib = np.add.reduce(cols[s:s + m, :width], axis=0, dtype=np.int8,
                                out=sib_row[:width])
            # term_i = z_i * (beta/2) * sib and |z_i| = 1, so every term of
            # the block has the norm of (beta/2) * sib
            np.multiply(half_beta, sib, out=hs)
            bv.fill(0.0)
            for i in real:
                bv += np.multiply(cols[i, :width], hs, out=tmp)
            if l == 0:      # every level-0 term and block is +-beta/2 at each entry
                norm0 = _period_lp(hs, p, n, work) if norm0 is None else norm0
                term_norm = block_norm = norm0
            else:
                term_norm = _period_lp(hs, p, n, work)
                block_norm = _period_lp(bv, p, n, work)
            term_slacks.extend([term_bound - term_norm] * len(real))
            block_slacks.append(block_bound - block_norm)
            # every block so far repeats within ``filled``: tiled, each entry
            # of the level sum sees the adds of the full rows, in their order
            filled = _tile(level_values, filled, width)
            lv = level_values[:width]
            lv += bv
        _tile(level_values, filled, 1 << n)
        level_norms.append(lp_norm(level_values, p, work))
        level_slacks.append(level_bound - level_norms[-1])

    total = level_values                  # float64: an int M or p overflows the int8 S
    total[:] = np.add.reduce(cols, axis=0, dtype=np.int8, out=sib_row)
    sum_norm = lp_norm(chaos_collapsed(params)(total, half_sib, block_values), p, work)
    chain_value = params.M * lp_norm(total, p, work) + float(np.sum(level_norms))
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
