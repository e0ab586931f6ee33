"""Power-law stake transformation and the whale-capping gamma search.

The transformation raises every stake to a power gamma in (0, 1]; the
top-share function measures the combined relative weight of the k largest
stakeholders after the transformation. Because the top share is strictly
increasing in gamma (for non-degenerate distributions) and has an analytic
slope, a target share is hit by safeguarded Newton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import (
    InvalidSpec,
    KOutOfRange,
    NoConvergence,
    TargetBelowFloor,
    _REAL_TYPES,
    _fsum,
    _real,
    _reals,
    _tol,
    _whole_number,
)
from ._roots import monotone_root
from .stake import StakeDistribution, _check_gamma, _from_columns, _power, normalize


def apply_gamma(dist: StakeDistribution, gamma: float) -> StakeDistribution:
    """Replace each stake by stake^gamma; voter ranking is preserved, and
    stakes that the power rounds to one credit are ordered by id."""
    credits = _power(dist.stakes(), _check_gamma(gamma))
    if np.any(credits[1:] <= credits[:-1]):
        return _from_columns(dist.voter_ids, credits)
    return StakeDistribution._of_columns(dist.voter_ids, credits)


def _share_and_slope(w, k, log_s=None):
    """Top-k share of w = s^gamma and, given log s, its d/dgamma (else None)."""
    total = _fsum(w, "credit")
    top = _fsum(w[-k:], "credit")
    if log_s is None:
        return top / total, None
    with np.errstate(over="ignore"):  # _fsum rejects an overflowed term
        wl = w * log_s
    slope = ((_fsum(wl[-k:], "credit") * total
              - top * _fsum(wl, "credit")) / (total * total))
    return top / total, slope


def _check_k(dist, k):
    """k as an int: KOutOfRange for a real number outside [1, n], InvalidSpec
    if not whole. k is compared as given, so an int past the float range is
    out of range too."""
    if isinstance(k, _REAL_TYPES) and not 1 <= k <= dist.n:
        raise KOutOfRange(k, dist.n)
    return _whole_number(k, "k")


def top_share(dist: StakeDistribution, k: int, gamma: float) -> float:
    """Relative transformed weight of the k largest stakeholders.

    k counts the largest holders: with ascending stakes s_1..s_n the share
    is sum(s_i^gamma for the top k) / sum over everyone.
    """
    w = _power(dist.stakes(), _check_gamma(gamma))
    return _share_and_slope(w, _check_k(dist, k))[0]


def top_share_derivative(dist: StakeDistribution, k: int, gamma: float) -> float:
    """Analytic d/dgamma of top_share (log-weighted quotient rule)."""
    w = _power(dist.stakes(), _check_gamma(gamma))
    return _share_and_slope(w, _check_k(dist, k), np.log(dist.stakes()))[1]


@dataclass(frozen=True)
class GammaSearchResult:
    gamma: float
    achieved_share: float
    target: float
    iterations: int
    converged: bool


def gamma_search(dist: StakeDistribution, k: int, alpha: float,
                 tol: float = 1e-9, max_iter: int = 200,
                 bracket=(1e-9, 1.0), strict_input: bool = False) -> GammaSearchResult:
    """Find gamma in (0, 1] whose transformed top-k share is alpha.

    If the untransformed share is already <= alpha, returns gamma = 1
    (nothing to do); with strict_input=True this case is rejected instead.
    A target at or below k/n is unreachable (the gamma -> 0 limit) and
    raises TargetBelowFloor. iterations counts search steps; after max_iter
    steps the last iterate is returned with converged=False. tol is the
    share tolerance of converged, a real number >= 0 (at 0 only an exact
    hit converges); it does not steer the search. max_iter must be a whole
    number >= 1 and bracket a pair 0 < lo < hi <= 1; both are checked
    before any share is computed.
    """
    k = _check_k(dist, k)
    tol = _tol(tol)
    alpha = _real(alpha, "alpha")
    max_iter = _whole_number(max_iter, "max_iter")
    ends = _reals(bracket, "bracket")
    if ends.shape != (2,) or not 0.0 < ends[0] < ends[1] <= 1.0:
        raise InvalidSpec(f"bad bracket {bracket}")
    lo, hi = ends.tolist()
    floor = k / dist.n
    if alpha <= floor:
        raise TargetBelowFloor(alpha, floor)
    s = dist.stakes()
    current = _share_and_slope(s, k)[0]
    if alpha >= current:
        if strict_input:
            raise InvalidSpec(
                f"target {alpha} is not below the current top-{k} share {current}")
        return GammaSearchResult(gamma=1.0, achieved_share=current, target=alpha,
                                 iterations=0, converged=True)

    log_s = np.log(s)

    def fdf(gamma):
        share, slope = _share_and_slope(_power(s, gamma), k, log_s)
        return share - alpha, slope

    # pin gamma itself well past the share tolerance, so different starting
    # brackets land on the same gamma
    try:
        gamma, evals = monotone_root(fdf, lo, hi, 1e-12, max_iter)
    except NoConvergence as exc:
        gamma, evals = exc.best, max_iter
    share = _share_and_slope(_power(s, gamma), k)[0]
    return GammaSearchResult(gamma=gamma, achieved_share=share, target=alpha,
                             iterations=evals,
                             converged=abs(share - alpha) <= tol)


def verify_transform_properties(dist: StakeDistribution, gamma: float,
                                alpha: float = None, cap_tol: float = 1e-9,
                                thresholds=(0.33, 0.51, 0.67, 0.9)) -> dict:
    """Check the six desiderata of the power transformation on one input.

    Returns a dict of booleans: order preservation, endpoint gain/loss,
    prefix/suffix sign structure of the impact change, Gini improvement
    with Nakamoto non-degradation, and (when alpha is given) the cap on
    every transformed relative impact, within cap_tol, a real number >= 0
    that is checked only then. Distributions with tied stakes are flagged
    tie_degenerate since the strict claims weaken to non-strict.
    """
    gamma = _check_gamma(gamma, hi_included=False)
    if alpha is not None:
        alpha = _real(alpha, "alpha")
        cap_tol = _tol(cap_tol, "cap_tol")
    stakes = dist.stakes()
    rel = normalize(dist)
    transformed = _power(stakes, gamma)
    rel_t = transformed / _fsum(transformed, "credit")
    ties = bool(np.any(np.diff(stakes) == 0))
    diff = rel_t - rel

    order_ok = bool(np.all(np.diff(rel_t) >= 0)) if ties else \
        bool(np.all(np.diff(rel_t) > 0))
    endpoints_ok = bool(diff[0] > 0 and diff[-1] < 0) if dist.n >= 2 and not ties \
        else bool(diff[0] >= 0 and diff[-1] <= 0)

    gains = diff > 0
    losses = diff < 0
    prefix_ok = not np.any(gains[1:] & ~gains[:-1])
    suffix_ok = not np.any(losses[:-1] & ~losses[1:])

    gini_linear = metrics.gini(stakes)
    gini_t = metrics.gini(transformed)
    gini_ok = gini_t <= gini_linear if ties or dist.n < 2 else gini_t < gini_linear
    nakamoto_ok = all(metrics.nakamoto(transformed, a) >= metrics.nakamoto(stakes, a)
                      for a in thresholds)

    result = {
        "order_preserved": order_ok,
        "endpoints": endpoints_ok,
        "gain_prefix": prefix_ok,
        "loss_suffix": suffix_ok,
        "metrics_improve": bool(gini_ok and nakamoto_ok),
        "tie_degenerate": ties,
    }
    if alpha is not None:
        # cap_tol mirrors the gamma-search share tolerance: the search stops
        # within tol of the target, so the cap can overshoot by that much
        result["impact_capped"] = bool(np.all(rel_t <= alpha + cap_tol))
    return result
