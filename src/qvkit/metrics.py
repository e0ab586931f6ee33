"""Decentralization metrics: relative voting ratios, Gini, Nakamoto, Lorenz.

Two independent routes are kept for the Gini coefficient: the rank-weighted
formula over sorted credits, and a trapezoid integration of the discrete
Lorenz curve. They must agree to within floating-point accumulation noise,
which the test suite enforces.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AllZero,
    InvalidSpec,
    LengthMismatch,
    NegativeCredit,
    NonPositiveCount,
    ThresholdOutOfRange,
    Unsorted,
    _fsum,
    _real,
    _reals,
)
from . import stake
from .stake import StakeDistribution, _check_gamma, _power


def rvr_split(dist: StakeDistribution, gamma: float) -> np.ndarray:
    """Relative voting ratios s_i^gamma / sum_j s_j^gamma (split stake)."""
    w = _power(dist.stakes(), _check_gamma(gamma))
    return w / _fsum(w, "credit")


def rvr_unsplit(dist: StakeDistribution, counts, gamma: float) -> np.ndarray:
    """Unsplit-stake ratios c_i * s_i^gamma / sum_j c_j * s_j^gamma.

    counts[i] is the number of proposals voter i casts their full credit on:
    a finite whole number >= 1, else NonPositiveCount at the first bad index.
    A bool is no count (InvalidSpec), as in errors._whole_number.
    """
    w = _power(dist.stakes(), _check_gamma(gamma))
    c = _reals(counts, "counts", finite=False)  # a non-finite count is NonPositiveCount
    if c.shape != (dist.n,):
        raise LengthMismatch(dist.n, c.size, "counts")
    if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(counts, dtype=object)):
        raise InvalidSpec(f"counts must be whole numbers, not bools, got {reprlib.repr(counts)}")
    bad = ~(np.isfinite(c) & (c >= 1) & (c == np.floor(c)))
    if bad.any():
        idx = int(bad.argmax())
        raise NonPositiveCount(idx, counts[idx])
    with np.errstate(over="ignore"):  # _fsum rejects an overflowed term
        w = c * w
    return w / _fsum(w, "credit")


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
    return dist.total() / _fsum(_power(dist.stakes(), 0.5), "credit")


def _check_credits(credits):
    c = _reals(credits, "credits")
    if c.ndim != 1 or c.size < 1:
        raise AllZero("credit vector must be a non-empty 1-d array")
    if np.any(np.diff(c) < 0):
        raise Unsorted("credits must be sorted ascending")
    if np.any(c < 0):
        raise NegativeCredit("credits must be nonnegative")
    if not np.any(c > 0):
        raise AllZero("at least one credit must be positive")
    return c


def gini(credits) -> float:
    """Gini coefficient of an ascending credit vector via the rank formula.

    G = (2 * sum_i i*c_i - (n+1) * total) / (n * total), i counted from 1.
    Equal credits give 0; full concentration gives (n-1)/n.
    """
    c = _check_credits(credits)
    return _rank_gini(c, _fsum(c, "credit"))


def _rank_gini(c, total):
    """gini of checked credits c, given their sum."""
    n = c.size
    weighted = _fsum(np.arange(1, n + 1) * c, "credit")
    # fsum of two terms rounds as - does; the numerator may overflow alone
    return _fsum([2.0 * weighted, -(n + 1) * total], "credit") / (n * total)


def _prefix_sums(x):
    """Running sums of a float64 array x >= 0 by the prefix form of Sum2
    (Ogita, Rump and Oishi): the plain running sum s, plus the running sum
    of each step's exact TwoSum error s[i-1] + x[i] - s[i]. InvalidSpec past
    the float range, where an overflowed s[i] makes its error NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.cumsum(x)
        step = s[1:] - s[:-1]  # Knuth's branch-free TwoSum of s[i-1] and x[i]
        s[1:] += np.cumsum((s[:-1] - (s[1:] - step)) + (x[1:] - step))
    _fsum(s[-1:], "credit")
    return s


def _lorenz_shares(credits):
    """The Lorenz curve's cumulative shares [S_i / total for i = 0..n], an array."""
    cum = _prefix_sums(_check_credits(credits))
    return np.concatenate(([0.0], cum / cum[-1]))


def lorenz_points(credits):
    """Discrete Lorenz curve [(i, S_i / total)] for i = 0..n."""
    return list(enumerate(_lorenz_shares(credits).tolist()))


def gini_from_lorenz(credits) -> float:
    """Gini via the area between the equality line and the Lorenz curve.

    The discrete Lorenz curve is a union of segments through (i, S_i), so
    the area underneath is an exact trapezoid sum; the coefficient is
    A / (A + B) with A + B = n * total / 2.
    """
    # work in cumulative-share units so tiny totals cannot underflow the area
    shares = _lorenz_shares(credits)
    area_under = _fsum((shares[:-1] + shares[1:]) / 2.0, "credit")
    half = (len(shares) - 1) / 2.0
    return (half - area_under) / half


def _nakamoto_counts(credits, thresholds, total=None):
    """nakamoto(credits, a) for each threshold a, in order.

    Before the first threshold that passes its range check, the credits
    are checked and summed (unless `total` is given: then they are checked
    and it is their sum) and summed from the top once; each count is then
    one search of that running sum.
    """
    counts, running = [], None
    for a in thresholds:
        a = _real(a, "threshold")
        if not (0.0 < a < 1.0):
            raise ThresholdOutOfRange(a)
        if running is None:
            if total is None:
                credits = _check_credits(credits)
                total = _fsum(credits, "credit")
            # nondecreasing, as every credit is >= 0
            running = np.cumsum(credits[::-1])
        # the first holder count whose running sum reaches the target; on a
        # shortfall the whole set still controls
        counts.append(min(int(np.searchsorted(running, a * total)) + 1, running.size))
    return counts


def nakamoto(credits, a: float) -> int:
    """Minimum number of top credit holders controlling fraction a of the total."""
    return _nakamoto_counts(credits, [a])[0]


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
    credits: np.ndarray = field(repr=False, compare=False)  # ascending

    @cached_property
    def lorenz(self):
        """((i, cumulative share), ...) of the credits, built on first read."""
        return tuple(lorenz_points(self.credits))


def report(dist: StakeDistribution, gamma: float, thresholds) -> DecentralizationReport:
    """Full decentralization summary of one distribution at one gamma."""
    gamma = _check_gamma(gamma)
    c = _check_credits(_power(dist.stakes(), gamma))
    c.flags.writeable = False
    total = _fsum(c, "credit")
    ratios = c / total
    thresholds = _reals(tuple(thresholds), "thresholds").tolist()
    ks = dict(zip(thresholds, _nakamoto_counts(c, thresholds, total)))
    return DecentralizationReport(
        gamma=gamma,
        rvr=tuple(ratios.tolist()),
        eta=tuple((ratios / stake.normalize(dist)).tolist()),
        gini=_rank_gini(c, total),
        nakamoto={a: (k, k / dist.n) for a, k in ks.items()},
        credits=c,
    )
