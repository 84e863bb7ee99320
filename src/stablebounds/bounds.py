"""Closed-form moment and deviation bounds, each a pure function of its
parameters.

Every result carries one of two constant conventions:

* ``explicit`` -- the source inequality has explicit constants and the value
  is a certified numeric bound;
* ``shape``    -- the source holds up to an unspecified universal constant,
  evaluated here with that constant set to 1; never read a shape value as a
  certified dominance claim.

Logarithms are natural and every ``log x`` is evaluated as ``max(log x, 1)``.
The lone base-2 exception is the ``ceil(log2 n)`` factor of the dyadic sum
bound, evaluated as 1 when n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, log, sqrt
from typing import Mapping

import numpy as np

from .oracle import _check_int, _check_real, _require_nonneg, lp_norm

EXPLICIT = "explicit"
SHAPE = "shape"

GENERALIZATION_KINDS = ("bousquet02", "fv2018", "fv2019", "single_log")

_SQRT2 = sqrt(2.0)
_FIT_RTOL = 1e-13   # vertex feasibility and tie tolerance of fit_tail_coefficients


def log_or_one(x: float) -> float:
    """Natural log clipped below at 1 (the convention used by every bound)."""
    if not x > 0:
        raise ValueError(f"log_or_one requires x > 0, got {x}")
    return max(log(x), 1.0)


def ceil_log2(n: int) -> int:
    """ceil(log2 n), evaluated as 1 for n = 1; exact in integer arithmetic."""
    _check_int("n", n)
    return max((n - 1).bit_length(), 1)


def _require_delta(delta) -> float:
    if delta is None or not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return float(delta)


@dataclass(frozen=True)
class BoundInputs:
    """Parameter bundle feeding the generalization bound evaluators.

    n      -- sample size / number of summands
    gamma  -- uniform stability constant
    L      -- uniform loss bound
    delta  -- confidence level
    """

    n: int
    gamma: float = 0.0
    L: float = 0.0
    delta: float | None = None

    def __post_init__(self):
        _check_int("n", self.n)
        _require_nonneg(gamma=self.gamma, L=self.L)
        if self.delta is not None:
            _require_delta(self.delta)


@dataclass(frozen=True)
class BoundValue:
    """A single evaluated bound, tagged with its formula and convention."""

    kind: str
    value: float
    constant_convention: str

    def __post_init__(self):
        _check_real("bound value", self.value, 0)
        if self.constant_convention not in (EXPLICIT, SHAPE):
            raise ValueError(f"unknown convention {self.constant_convention!r}")


def generalization_bound(kind: str, inputs: BoundInputs) -> BoundValue:
    """High-probability bounds on n(R - R_emp) for stability gamma and loss
    bound L (shape constants, implicit constant taken as 1):

        bousquet02  (n*sqrt(n)*g + L*sqrt(n)) * sqrt(log(1/d))
        fv2018      (n*sqrt(g*L) + L*sqrt(n)) * sqrt(log(1/d))
        fv2019      n*g*log(n)^2 + n*g*log(n)*log(1/d) + L*sqrt(n)*sqrt(log(1/d))
        single_log  n*g*log(n)*log(1/d) + L*sqrt(n*log(1/d))

    single_log drops fv2019's n*g*log(n)^2 term, so it never exceeds fv2019.
    """
    n, g, L = inputs.n, inputs.gamma, inputs.L
    d = _require_delta(inputs.delta)
    ln = log_or_one(n)
    ld = log_or_one(1.0 / d)
    if kind == "bousquet02":
        value = (n * sqrt(n) * g + L * sqrt(n)) * sqrt(ld)
    elif kind == "fv2018":
        value = (n * sqrt(g * L) + L * sqrt(n)) * sqrt(ld)
    elif kind == "fv2019":
        value = n * g * ln ** 2 + n * g * ln * ld + L * sqrt(n) * sqrt(ld)
    elif kind == "single_log":
        value = n * g * ln * ld + L * sqrt(n * ld)
    else:
        raise ValueError(f"unknown generalization bound kind {kind!r}")
    return BoundValue(kind=kind, value=value, constant_convention=SHAPE)


def dyadic_sum_moment_bound(p: float, n: int, beta: float, M: float) -> BoundValue:
    """Moment bound for sums of n functions that are conditionally centered
    given the other coordinates, have conditional means bounded by M, and
    have bounded differences beta in every coordinate but their own:

        ||sum g_i||_p <= 12*sqrt(2)*p*n*beta*ceil(log2 n) + 4*M*sqrt(p*n),   p >= 2.

    Explicit constants.
    """
    _check_real("p", p, 2, finite=False)
    _check_int("n", n)
    _require_nonneg(beta=beta, M=M)
    value = (12 * _SQRT2 * p * n * beta * ceil_log2(n)
             + (4 * M * sqrt(p * n) if M else 0.0))    # not 0 * inf once p * n overflows
    if not isfinite(value):
        raise ValueError(f"the dyadic sum bound overflows at p = {p}, n = {n}, "
                         f"beta = {beta}, M = {M}")
    return BoundValue(kind="dyadic", value=value, constant_convention=EXPLICIT)


@dataclass(frozen=True)
class CappedMomentBound:
    """Dyadic sum bound capped at the trivial n*L, plus the relaxed
    sub-Gaussian form it implies."""

    capped: BoundValue    # min(dyadic bound, n*L); explicit constants
    relaxed: BoundValue   # n*sqrt(p*beta*L*log n) + L*sqrt(p*n); shape constants


def capped_moment_bound(p: float, n: int, beta: float, M: float, L: float) -> CappedMomentBound:
    """min(dyadic sum bound, n*L), with the companion relaxed form obtained
    via a*min(1,b/a) <= sqrt(a*b):  n*sqrt(p*beta*L*log n) + L*sqrt(p*n)."""
    _require_nonneg(L=L)
    if M > L:
        raise ValueError(f"M={M} exceeds the uniform bound L={L}")
    dyadic = dyadic_sum_moment_bound(p, n, beta, M)
    capped = BoundValue(kind="capped_dyadic",
                        value=min(dyadic.value, n * L),
                        constant_convention=EXPLICIT)
    relaxed = BoundValue(kind="subgaussian_recovery",
                         value=n * sqrt(p * beta * L * log_or_one(n)) + L * sqrt(p * n),
                         constant_convention=SHAPE)
    return CappedMomentBound(capped=capped, relaxed=relaxed)


def moments_from_tail(a: float, b: float, p: float) -> float:
    """Moment bound implied by a mixed sub-Gaussian/sub-exponential tail:
    if |Y| <= a*sqrt(log(e/d)) + b*log(e/d) w.p. 1-d for all d, then
    ||Y||_p <= 3*sqrt(p)*a + 9*p*b for all p >= 1."""
    _require_nonneg(a=a, b=b)
    _check_real("p", p, 1)
    return 3 * sqrt(p) * a + 9 * p * b


def tail_from_moments(a: float, b: float, delta: float) -> float:
    """Deviation bound implied by two-level moment growth: if
    ||Y||_p <= sqrt(p)*a + p*b for all p >= 1, then w.p. at least 1-delta

        |Y| <= e * (a*sqrt(log(e/delta)) + b*log(e/delta)).
    """
    _require_nonneg(a=a, b=b)
    d = _require_delta(delta)
    le = log(exp(1.0) / d)
    return exp(1.0) * (a * sqrt(le) + b * le)


def classical_moment_bound(kind: str, *, n: int, p: float,
                           beta: float | None = None,
                           M: float | None = None,
                           norms=None) -> float:
    """Reference moment inequalities for sums/functions of independent
    variables (explicit constants, p >= 2):

        mcdiarmid   2*sqrt(n*p)*beta      bounded differences beta
        hoeffding   4*sqrt(n*p)*M         centered summands, |X_i| <= M
        mz          3*sqrt(2*n*p)*(n^-1 * sum ||X_i||_p^p)^(1/p)
                                          Marcinkiewicz-Zygmund
    """
    _check_int("n", n)
    _check_real("p", p, 2, finite=False)
    if kind == "mcdiarmid":
        if beta is None:
            raise ValueError("mcdiarmid requires beta")
        _require_nonneg(beta=beta)
        return 2 * sqrt(n * p) * beta
    if kind == "hoeffding":
        if M is None:
            raise ValueError("hoeffding requires M")
        _require_nonneg(M=M)
        return 4 * sqrt(n * p) * M
    if kind == "mz":
        w = np.asarray([] if norms is None else norms, dtype=np.float64)
        if w.size == 0:
            raise ValueError("mz requires a non-empty list of per-variable p-norms")
        if w.size != n:
            raise ValueError(f"mz expects {n} norms, got {w.size}")
        if not np.all(w >= 0):          # NaN fails every comparison
            raise ValueError("norms must be non-negative")
        return 3 * sqrt(2 * n * p) * lp_norm(w, p)
    raise ValueError(f"unknown classical bound kind {kind!r}")


def second_moment_bound(n: int, beta: float, M: float) -> float:
    """Second-moment bound using weak pairwise correlation (explicit):
    ||sum g_i||_2 <= (1 + 2*sqrt(2))*n*beta + sqrt(n)*M."""
    _check_int("n", n)
    _require_nonneg(beta=beta, M=M)
    return (1 + 2 * _SQRT2) * n * beta + sqrt(n) * M


def variance_bound(n: int, gamma: float, L: float) -> float:
    """Shape bound on Var(n*(R - R_emp)): n^2*gamma^2 + n*L^2."""
    _check_int("n", n)
    _require_nonneg(gamma=gamma, L=L)
    return n ** 2 * gamma ** 2 + n * L ** 2


def fit_tail_coefficients(norms: Mapping[float, float]) -> tuple[float, float]:
    """Smallest (a, b), by a+b, with sqrt(p)*a + p*b >= ||Y||_p on a measured
    grid of moment norms. Feed the result to ``tail_from_moments``.

    The LP is solved exactly at its vertices: the axis points
    (max m_p/sqrt(p), 0) and (0, max m_p/p) and the pairwise intersections of
    the constraint lines, kept where a, b >= 0 and every constraint holds to
    a relative ``_FIT_RTOL``. Ties within a relative ``_FIT_RTOL`` of the
    least a+b (a whole edge is optimal when the p = 1 constraint a+b >= m_1
    binds) go to the smallest b, which gives the smaller tail for any delta.
    """
    ps = np.asarray(sorted(norms), dtype=np.float64)
    ms = np.asarray([norms[p] for p in ps], dtype=np.float64)
    if ps.size == 0:
        raise ValueError("need at least one measured norm")
    if not np.all(np.isfinite(ps) & (ps >= 1)):
        raise ValueError("moment orders must be finite and >= 1")
    if not np.all(np.isfinite(ms) & (ms >= 0)):
        raise ValueError("norms must be finite and non-negative")
    roots = np.sqrt(ps)
    i, j = np.triu_indices(ps.size, k=1)
    det = roots[i] * ps[j] - ps[i] * roots[j]
    with np.errstate(all="ignore"):          # near-parallel pairs fail the checks below
        a = np.concatenate([[np.max(ms / roots), 0.0], (ms[i] * ps[j] - ms[j] * ps[i]) / det])
        b = np.concatenate([[0.0, np.max(ms / ps)], (roots[i] * ms[j] - roots[j] * ms[i]) / det])
        covered = np.outer(a, roots) + np.outer(b, ps) >= ms * (1.0 - _FIT_RTOL)
    feasible = (a >= 0) & (b >= 0) & np.all(covered, axis=1)
    a, b = a[feasible], b[feasible]
    tied = a + b <= (a + b).min() * (1.0 + _FIT_RTOL)
    best = np.argmin(np.where(tied, b, np.inf))
    return float(a[best]), float(b[best])
