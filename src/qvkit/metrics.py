"""Decentralization metrics: relative voting ratios, Gini, Nakamoto, Lorenz.

Two independent routes are kept for the Gini coefficient: the rank-weighted
formula over sorted credits, and a trapezoid integration of the discrete
Lorenz curve. They must agree to within floating-point accumulation noise,
which the test suite enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    GammaOutOfRange,
    LengthMismatch,
    NonPositiveCount,
    ThresholdOutOfRange,
    Unsorted,
)
from .stake import StakeDistribution


def _check_gamma(gamma, allow_one=True):
    hi_ok = gamma <= 1.0 if allow_one else gamma < 1.0
    if not (0.0 < gamma and hi_ok):
        raise GammaOutOfRange(gamma, 0.0, 1.0)


def rvr_split(dist: StakeDistribution, gamma: float) -> np.ndarray:
    """Relative voting ratios s_i**gamma / sum_j s_j**gamma (split stake)."""
    _check_gamma(gamma)
    w = dist.stakes() ** gamma
    return w / math.fsum(w.tolist())


def rvr_unsplit(dist: StakeDistribution, counts, gamma: float) -> np.ndarray:
    """Unsplit-stake ratios c_i * s_i**gamma / sum_j c_j * s_j**gamma.

    counts[i] is the number of proposals voter i casts their full credit on.
    """
    _check_gamma(gamma)
    counts = np.asarray(counts)
    if counts.shape != (dist.n,):
        raise LengthMismatch(dist.n, counts.size, "counts")
    for idx, c in enumerate(counts):
        if c < 1 or int(c) != c:
            raise NonPositiveCount(idx, c)
    w = counts.astype(float) * dist.stakes() ** gamma
    return w / math.fsum(w.tolist())


def eta(dist: StakeDistribution, gamma: float) -> np.ndarray:
    """Per-voter ratio of gamma-power RVR to linear RVR.

    eta_i > 1 means voter i gains influence when moving from linear voting
    to the gamma-power scheme.
    """
    _check_gamma(gamma)
    return rvr_split(dist, gamma) / rvr_split(dist, 1.0)


def eta_threshold(dist: StakeDistribution) -> float:
    """Stake threshold for gaining influence under square-root voting.

    Returns t = sum(s_j) / sum(sqrt(s_j)); a voter gains (eta_i > 1)
    exactly when sqrt(s_i) < t.
    """
    stakes = dist.stakes()
    return math.fsum(stakes.tolist()) / math.fsum(np.sqrt(stakes).tolist())


def _check_credits(credits):
    c = np.asarray(credits, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise AllZero("credit vector must be a non-empty 1-d array")
    if np.any(np.diff(c) < 0):
        raise Unsorted("credits must be sorted ascending")
    if np.any(c < 0):
        raise Unsorted("credits must be nonnegative")
    if not np.any(c > 0):
        raise AllZero("at least one credit must be positive")
    return c


def gini(credits) -> float:
    """Gini coefficient of an ascending credit vector via the rank formula.

    G = (2 * sum_i i*c_i - (n+1) * total) / (n * total), i counted from 1.
    Equal credits give 0; full concentration gives (n-1)/n.
    """
    c = _check_credits(credits)
    n = c.size
    total = math.fsum(c.tolist())
    weighted = math.fsum((i + 1) * v for i, v in enumerate(c))
    return (2.0 * weighted - (n + 1) * total) / (n * total)


def _kahan_cumsum(values):
    """Compensated running sum; sequential np.cumsum loses too much at scale."""
    out = np.empty(len(values))
    total = 0.0
    carry = 0.0
    for i, v in enumerate(values):
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[i] = total
    return out


def lorenz_points(credits):
    """Discrete Lorenz curve [(i, S_i / total)] for i = 0..n."""
    c = _check_credits(credits)
    cum = _kahan_cumsum(c)
    total = cum[-1]
    points = [(0, 0.0)]
    points.extend((i + 1, float(s / total)) for i, s in enumerate(cum))
    return points


def gini_from_lorenz(credits) -> float:
    """Gini via the area between the equality line and the Lorenz curve.

    The discrete Lorenz curve is a union of segments through (i, S_i), so
    the area underneath is an exact trapezoid sum; the coefficient is
    A / (A + B) with A + B = n * total / 2.
    """
    c = _check_credits(credits)
    n = c.size
    cum = _kahan_cumsum(c)
    # work in cumulative-share units so tiny totals cannot underflow the area
    shares = cum / cum[-1]
    prev = np.concatenate(([0.0], shares[:-1]))
    area_under = math.fsum((p + s) / 2.0 for p, s in zip(prev, shares))
    half = n / 2.0
    return (half - area_under) / half


def nakamoto(credits, a: float) -> int:
    """Minimum number of top credit holders controlling fraction a of the total."""
    if not (0.0 < a < 1.0):
        raise ThresholdOutOfRange(a)
    c = _check_credits(credits)
    target = a * math.fsum(c.tolist())
    acc = 0.0
    for k, v in enumerate(c[::-1], start=1):
        acc += v
        if acc >= target:
            return k
    return c.size  # accumulation shortfall; the whole set always controls


def nakamoto_normalized(credits, a: float) -> float:
    """Nakamoto coefficient as a fraction of the population size."""
    return nakamoto(credits, a) / len(credits)


@dataclass(frozen=True)
class DecentralizationReport:
    gamma: float
    rvr: tuple
    eta: tuple
    gini: float
    nakamoto: dict  # threshold -> (classical, normalized)
    lorenz: tuple  # ((i, cumulative share), ...)


def report(dist: StakeDistribution, gamma: float, thresholds) -> DecentralizationReport:
    """Full decentralization summary of one distribution at one gamma."""
    _check_gamma(gamma)
    credits = dist.stakes() ** gamma
    ratios = rvr_split(dist, gamma)
    eta_vec = ratios / rvr_split(dist, 1.0)
    return DecentralizationReport(
        gamma=gamma,
        rvr=tuple(float(r) for r in ratios),
        eta=tuple(float(e) for e in eta_vec),
        gini=gini(credits),
        nakamoto={float(a): (nakamoto(credits, a), nakamoto_normalized(credits, a))
                  for a in thresholds},
        lorenz=tuple(lorenz_points(credits)),
    )
