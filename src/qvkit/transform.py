"""Power-law stake transformation and the whale-capping gamma search.

The transformation raises every stake to a power gamma in (0, 1]; the
top-share function measures the combined relative weight of the k largest
stakeholders after the transformation. Because the top share is strictly
increasing in gamma (for non-degenerate distributions) and has an analytic
slope, a target share is hit by safeguarded Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import (
    GammaOutOfRange,
    InvalidSpec,
    KOutOfRange,
    NoConvergence,
    TargetBelowFloor,
)
from ._roots import monotone_root
from .stake import StakeDistribution, credits


def apply_gamma(dist: StakeDistribution, gamma: float) -> StakeDistribution:
    """Replace each stake by stake^gamma; voter ranking is preserved."""
    transformed = credits(dist.stakes(), gamma).tolist()
    return StakeDistribution(tuple(zip(dist.voter_ids, transformed)))


def _share_and_slope(w, k, log_s=None):
    """Top-k share of w = s^gamma and, given log s, its d/dgamma (else None)."""
    total = math.fsum(w.tolist())
    top = math.fsum(w[-k:].tolist())
    if log_s is None:
        return top / total, None
    wl = w * log_s
    slope = ((math.fsum(wl[-k:].tolist()) * total - top * math.fsum(wl.tolist()))
             / (total * total))
    return top / total, slope


def _checked_credits(dist, k, gamma):
    w = credits(dist.stakes(), gamma)
    if not (1 <= k <= dist.n):
        raise KOutOfRange(k, dist.n)
    return w


def top_share(dist: StakeDistribution, k: int, gamma: float) -> float:
    """Relative transformed weight of the k largest stakeholders.

    k counts the largest holders: with ascending stakes s_1..s_n the share
    is sum(s_i^gamma for the top k) / sum over everyone.
    """
    return _share_and_slope(_checked_credits(dist, k, gamma), k)[0]


def top_share_derivative(dist: StakeDistribution, k: int, gamma: float) -> float:
    """Analytic d/dgamma of top_share (log-weighted quotient rule)."""
    w = _checked_credits(dist, k, gamma)
    return _share_and_slope(w, k, np.log(dist.stakes()))[1]


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
    steps the last iterate is returned with converged=False.
    """
    if not (1 <= k <= dist.n):
        raise KOutOfRange(k, dist.n)
    if not tol > 0:
        raise InvalidSpec(f"tol must be > 0, got {tol}")
    floor = k / dist.n
    if alpha <= floor:
        raise TargetBelowFloor(alpha, floor)
    s = dist.stakes()
    log_s = np.log(s)
    at_one = _share_and_slope(credits(s, 1.0), k, log_s)
    current = at_one[0]
    if alpha >= current:
        if strict_input:
            raise InvalidSpec(
                f"target {alpha} is not below the current top-{k} share {current}")
        return GammaSearchResult(gamma=1.0, achieved_share=current, target=alpha,
                                 iterations=0, converged=True)

    lo, hi = bracket
    if not (0.0 < lo < hi <= 1.0):
        raise InvalidSpec(f"bad bracket {bracket}")

    def fdf(gamma):
        # the default bracket starts the search at gamma = 1, already evaluated
        share, slope = at_one if gamma == 1.0 else _share_and_slope(
            credits(s, gamma), k, log_s)
        return share - alpha, slope

    # pin gamma itself well past the share tolerance, so different starting
    # brackets land on the same gamma
    try:
        gamma, evals = monotone_root(fdf, lo, hi, 1e-12, max_iter)
    except NoConvergence as exc:
        gamma, evals = exc.best, max_iter
    share = _share_and_slope(credits(s, gamma), k)[0]
    return GammaSearchResult(gamma=float(gamma), achieved_share=share, target=alpha,
                             iterations=evals,
                             converged=abs(share - alpha) <= tol)


def verify_transform_properties(dist: StakeDistribution, gamma: float,
                                alpha: float = None, cap_tol: float = 1e-9,
                                thresholds=(0.33, 0.51, 0.67, 0.9)) -> dict:
    """Check the six desiderata of the power transformation on one input.

    Returns a dict of booleans: order preservation, endpoint gain/loss,
    prefix/suffix sign structure of the impact change, Gini improvement
    with Nakamoto non-degradation, and (when alpha is given) the cap on
    every transformed relative impact. Distributions with tied stakes are
    flagged tie_degenerate since the strict claims weaken to non-strict.
    """
    if not (0.0 < gamma < 1.0):
        raise GammaOutOfRange(gamma, 0.0, 1.0)
    stakes = dist.stakes()
    rel = stakes / math.fsum(stakes.tolist())
    transformed = credits(stakes, gamma)
    rel_t = transformed / math.fsum(transformed.tolist())
    ties = bool(np.any(np.diff(stakes) == 0))
    diff = rel_t - rel

    order_ok = bool(np.all(np.diff(rel_t) >= 0)) if ties else \
        bool(np.all(np.diff(rel_t) > 0))
    endpoints_ok = bool(diff[0] > 0 and diff[-1] < 0) if dist.n >= 2 and not ties \
        else bool(diff[0] >= 0 and diff[-1] <= 0)

    gains = diff > 0
    losses = diff < 0
    prefix_ok = bool(np.all(gains[:np.max(np.nonzero(gains)[0], initial=-1) + 1])) \
        if gains.any() else True
    suffix_ok = bool(np.all(losses[np.min(np.nonzero(losses)[0],
                                          initial=dist.n):])) \
        if losses.any() else True

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
