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
    InvalidSpec,
    LengthMismatch,
    NonPositiveCount,
    ThresholdOutOfRange,
    Unsorted,
)
from . import stake
from .stake import StakeDistribution


def rvr_split(dist: StakeDistribution, gamma: float) -> np.ndarray:
    """Relative voting ratios s_i^gamma / sum_j s_j^gamma (split stake)."""
    w = stake.credits(dist.stakes(), gamma)
    return w / math.fsum(w.tolist())


def rvr_unsplit(dist: StakeDistribution, counts, gamma: float) -> np.ndarray:
    """Unsplit-stake ratios c_i * s_i^gamma / sum_j c_j * s_j^gamma.

    counts[i] is the number of proposals voter i casts their full credit on:
    a finite whole number >= 1, else NonPositiveCount at the first bad index.
    """
    w = stake.credits(dist.stakes(), gamma)
    counts = np.asarray(counts)
    if counts.shape != (dist.n,):
        raise LengthMismatch(dist.n, counts.size, "counts")
    if counts.dtype.kind not in "biuf":
        raise InvalidSpec(f"counts must be real numbers, got dtype {counts.dtype}")
    c = counts.astype(float)
    bad = ~(np.isfinite(c) & (c >= 1) & (c == np.floor(c)))
    if bad.any():
        idx = int(bad.argmax())
        raise NonPositiveCount(idx, counts[idx])
    w = c * w
    return w / math.fsum(w.tolist())


def eta(dist: StakeDistribution, gamma: float) -> np.ndarray:
    """Per-voter ratio of gamma-power RVR to linear RVR.

    eta_i > 1 means voter i gains influence when moving from linear voting
    to the gamma-power scheme.
    """
    return rvr_split(dist, gamma) / stake.normalize(dist)


def eta_threshold(dist: StakeDistribution) -> float:
    """Stake threshold for gaining influence under square-root voting.

    Returns t = sum(s_j) / sum(sqrt(s_j)); a voter gains (eta_i > 1)
    exactly when sqrt(s_i) < t.
    """
    return dist.total() / math.fsum(stake.credits(dist.stakes(), 0.5).tolist())


def _check_credits(credits):
    c = np.asarray(credits, dtype=float)
    if not np.isfinite(c).all():
        raise InvalidSpec("credits must be finite")
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
    # a running sum from the top; on a shortfall the whole set still controls
    reached = np.cumsum(c[::-1]) >= target
    return int(reached.argmax()) + 1 if reached.any() else c.size


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
    c = stake.credits(dist.stakes(), gamma)
    ratios = c / math.fsum(c.tolist())
    ks = {float(a): nakamoto(c, a) for a in thresholds}
    return DecentralizationReport(
        gamma=gamma,
        rvr=tuple(float(r) for r in ratios),
        eta=tuple(float(e) for e in ratios / stake.normalize(dist)),
        gini=gini(c),
        nakamoto={a: (k, k / dist.n) for a, k in ks.items()},
        lorenz=tuple(lorenz_points(c)),
    )
