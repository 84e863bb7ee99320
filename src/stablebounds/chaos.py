"""The adversarial lower-bound family over Rademacher signs.

The family

    g_i(z) = M*z_i + (beta/2) * z_i * sum_{j != i} z_j

satisfies every hypothesis of the dyadic sum moment bound (conditional
centering, conditional means of magnitude exactly M, bounded differences
beta), while its sum

    sum_i g_i = M*S + (beta/2)*S^2 - (beta/2)*n,      S = sum_i z_i,

is a linear-plus-quadratic Rademacher chaos whose moments grow like
p*n*beta + M*sqrt(p*n). This module certifies all of that numerically:
the hypotheses by exhaustive enumeration, the moments by exact binomial
collapse, and the anti-concentration step by a Paley-Zygmund certificate.
The family is exchangeable, so the hypotheses take one conditioning pass
over {-1,+1}^(n-1) that stands for every coordinate.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite, sqrt

import numpy as np

from .oracle import (SignFunction, _check_collapse_n, _check_int, _check_real, _memo,
                     _require_nonneg, _sign_sum, _support, collapse_lp, sign_matrix)


@dataclass(frozen=True)
class ChaosParams:
    """(n, M, beta) selecting one member of the lower-bound family."""

    n: int
    M: float
    beta: float

    def __post_init__(self):
        _check_int("n", self.n)
        _require_nonneg(M=self.M, beta=self.beta)

    @property
    def uniform_bound(self) -> float:
        """max_z |g_i(z)| = M + beta*(n-1)/2, attained at the all-ones vector."""
        return self.M + 0.5 * self.beta * (self.n - 1)


@dataclass(frozen=True)
class ChaosConditionsReport:
    """Worst violation, over all coordinates and all sign vectors, of each
    hypothesis of the dyadic sum moment bound. ``passed`` accepts rounding
    residues up to 1e-12 * ``scale``, where ``scale`` is max(1, uniform bound)."""

    conditional_centering: float    # max |E[g_i | Z_{-i}]|
    conditional_mean: float         # max | |E[g_i | Z_i]| - M |
    bounded_difference: float       # max over j != i of (|delta_j g_i| - beta)+
    uniform_bound: float            # | max |g_i| - (M + beta*(n-1)/2) |
    scale: float = field(repr=False)

    @property
    def worst(self) -> float:
        return max(self.conditional_centering, self.conditional_mean,
                   self.bounded_difference, self.uniform_bound)

    @property
    def passed(self) -> bool:
        return self.worst <= 1e-12 * self.scale


@dataclass(frozen=True)
class TailCertificate:
    """Exact Paley-Zygmund certificate P(|f| >= ||f||_p / 2) >= rhs with
    rhs = (||f||_p^2 / (2*||f||_{2p}^2))^p."""

    p: float
    lhs: float
    rhs: float
    norm_p: float
    norm_2p: float

    def __post_init__(self):
        if not 0 <= self.lhs <= 1:
            raise ValueError(f"lhs must be a probability, got {self.lhs}")
        if self.rhs < 0:
            raise ValueError(f"rhs must be >= 0, got {self.rhs}")

    @property
    def valid(self) -> bool:
        return self.lhs >= self.rhs


def chaos_g(i: int, z, params: ChaosParams) -> float:
    """g_i(z) = M*z_i + (beta/2)*z_i*sum_{j != i} z_j (0-based i)."""
    zz = np.asarray(z, dtype=np.float64)
    if zz.shape != (params.n,):
        raise ValueError(f"z must have shape ({params.n},), got {zz.shape}")
    if not 0 <= i < params.n:
        raise IndexError(f"index {i} out of range for n={params.n}")
    return float(params.M * zz[i] + 0.5 * params.beta * zz[i] * (zz.sum() - zz[i]))


def chaos_sum_function(params: ChaosParams) -> SignFunction:
    """sum_i g_i as a batch sign function (closed form; identity tested separately)."""
    g = chaos_collapsed(params)
    return SignFunction(params.n, lambda rows: g(_sign_sum(rows)),
                        f"chaos(n={params.n},M={params.M},beta={params.beta})")


def chaos_collapsed(params: ChaosParams):
    """sum_i g_i as a function of S alone, for the binomial collapse. Equal
    params give the same function, so ``collapse_lp`` memoizes across callers.

    The function takes S in float64 and returns M*S + (beta/2)*(S*S - n).
    """
    return _memo(_collapsed, params.n, params.M, params.beta)


# A closure, not a value-equal object, so the memo stays: bench/tracer.py keys
# each traced collapse on ``g.__closure__`` (``_collapse_key``).
@lru_cache(maxsize=256)
def _collapsed(n, M, beta):
    def chaos_sum(s):
        total = np.multiply(M, s, dtype=np.float64)
        square = np.multiply(s, s, dtype=np.float64)
        square -= n
        square *= 0.5 * beta
        total += square
        return total
    return chaos_sum


def chaos_lp(params: ChaosParams, p: float) -> float:
    """Exact ||sum_i g_i||_p at any n up to the collapse cap (the sum factors
    through S)."""
    return collapse_lp(chaos_collapsed(params), params.n, p)


def second_moment_exact(params: ChaosParams) -> float:
    """Closed form ||sum_i g_i||_2 = sqrt(M^2*n + (beta^2/2)*n*(n-1))."""
    n, M, beta = params.n, params.M, params.beta
    with suppress(ArithmeticError):     # a square leaves the float range,
        direct = sqrt(M ** 2 * n + 0.5 * beta ** 2 * n * (n - 1))
        if isfinite(direct):            # or a product overflows to inf without raising
            return direct
    s = max(M, beta)                    # the root does not
    return s * sqrt(n) * sqrt((M / s) ** 2 + 0.5 * (beta / s) ** 2 * (n - 1))


def verify_chaos_conditions(params: ChaosParams) -> ChaosConditionsReport:
    """Check all four hypotheses by exhaustive enumeration of {-1,+1}^n.

    g_i depends on the coordinates only through z_i and t = sum_{j != i} z_j,
    and the family is exchangeable: every coordinate i sees the same function
    of (z_i, Z_{-i}). So one conditioning pass covers every i. It sums t over
    the 2^(n-1) assignments of the other coordinates, read in place from the
    rows of the coordinate-major sign matrix, and averages each branch z_i
    over them in one float64 row of its own. A flip of z_j changes g_i only
    through t, and swapping j with j' maps the enumeration onto itself and
    keeps t, so every j gives the same values permuted and the same max: one
    flip stands for all. The three maxima read no row: a max depends on
    neither order nor multiplicity, so each is taken bit for bit over the n
    values of t. A flip of z_0 moves t by 2 (exactly, in float64), so g_i
    after it is the neighbouring entry of the same table, from the same
    operations: the flip differences are those of neighbouring entries, as
    z_0 = +1 and z_0 = -1 give the same pairs swapped. The family meets
    every hypothesis, but the violations are exactly 0 only where the
    arithmetic is exact, as at dyadic M and beta; elsewhere rounding leaves
    residues near 1e-15 (bounded_difference 1.4e-15 at n = 2, M = 10,
    beta = 0.1), which ``passed`` accepts. The enumeration holds
    ``sign_matrix(n - 1)``, so n is capped at 21.
    """
    n, M, beta = params.n, params.M, params.beta
    t = _sign_sum(sign_matrix(n - 1))                # sum over j != i, one Z_{-i} each
    row = np.empty_like(t)
    values = np.arange(1 - n, n, 2, dtype=np.float64)   # the n values of t
    worst_mean = 0.0
    worst_bdiff = 0.0
    max_abs_g = 0.0
    branches = {}
    for zi in (1.0, -1.0):
        c = 0.5 * beta * zi
        np.multiply(t, c, out=row)
        row += zi * M                                # g_i over every Z_{-i}
        worst_mean = max(worst_mean, abs(abs(float(np.mean(row))) - M))
        g_branch = c * values + zi * M
        branches[zi] = g_branch
        max_abs_g = max(max_abs_g, float(np.max(np.abs(g_branch))))
        if n > 1:   # a flip of z_0 moves t to a neighbouring value
            diff = float(np.max(np.abs(np.diff(g_branch))))
            worst_bdiff = max(worst_bdiff, max(diff - beta, 0.0))
    # centering given Z_{-i}: average the two z_i branches pointwise
    center = 0.5 * (branches[1.0] + branches[-1.0])
    worst_center = float(np.max(np.abs(center)))
    worst_unif = abs(max_abs_g - params.uniform_bound)
    return ChaosConditionsReport(worst_center, worst_mean, worst_bdiff, worst_unif,
                                 max(1.0, params.uniform_bound))


def lower_ratio(params: ChaosParams, p: float) -> float:
    """Exact norm divided by its conjectured growth rate:

        ||sum g_i||_p / (p*n*beta + M*sqrt(p*n)),       2 <= p <= n.

    The absolute constant in front of the rate is not explicit; the test
    suite pins a measured floor (0.02 for p >= 8) as a regression threshold.
    """
    if not 2 <= p <= params.n:
        raise ValueError(f"lower_ratio requires 2 <= p <= n, got p={p}, n={params.n}")
    if params.M == 0 and params.beta == 0:
        raise ValueError("degenerate family (M = beta = 0) has no lower bound to test")
    denom = p * params.n * params.beta + params.M * sqrt(p * params.n)
    return chaos_lp(params, p) / denom


def tail_probability(params: ChaosParams, t: float) -> float:
    """Exact P(|sum_i g_i| >= t) via binomial weights (any n up to the collapse
    cap)."""
    _check_real("threshold", t, 0, finite=False)
    _check_collapse_n(params.n)
    support = _support(chaos_collapsed(params), params.n)   # shared with chaos_lp
    return float(support.weights[support.vals >= t].sum() / support.total)


def paley_zygmund_certificate(params: ChaosParams, p: float) -> TailCertificate:
    """Exact anti-concentration certificate for f = sum_i g_i:

        lhs = P(|f| >= ||f||_p / 2)
        rhs = (||f||_p^2 / (2*||f||_{2p}^2))^p

    Validity (lhs >= rhs) is the Paley-Zygmund inequality; both sides are
    computed exactly through the binomial collapse, so the certificate
    scales far beyond enumeration range.
    """
    _check_real("p", p, 2, finite=False)
    norm_p = chaos_lp(params, p)
    norm_2p = chaos_lp(params, 2 * p)
    lhs = tail_probability(params, 0.5 * norm_p)
    try:
        rhs = (norm_p ** 2 / (2.0 * norm_2p ** 2)) ** p if norm_2p else 0.0
    except ArithmeticError:     # the squares leave the float range, their ratio does not
        rhs = ((norm_p / norm_2p) ** 2 / 2.0) ** p
    return TailCertificate(p=p, lhs=lhs, rhs=rhs, norm_p=norm_p, norm_2p=norm_2p)
