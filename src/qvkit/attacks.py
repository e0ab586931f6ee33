"""Strategic behaviors: collusion spreading, Sybil stake-splitting, last-voter play.

Each operation compares an honest baseline against the strategic variant
and reports the multiplicative gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import utility as util
from .errors import InvalidSpec, LengthMismatch, _real, _reals, _whole_number
from .schemes import BallotProfile, SchemeSpec, _column_sums, _impact, _valid_rows, tally


@dataclass(frozen=True)
class AttackReport:
    attack_kind: str
    baseline: tuple
    attacked: tuple
    gain: float
    narrative: dict


def collusion_gain(stakes, m: int, honest_plan, colluding_plan) -> AttackReport:
    """Compare two qv1 ballot plans for the same voters.

    Plans are lists of BallotProfile matched to stakes by position. Gain is
    the minimum, over proposals the honest plan supports, of the colluding
    vscore over the honest vscore: how much better the coordinated spread
    does on every targeted proposal.
    """
    scheme = SchemeSpec("qv1")
    stake_vec = _reals(stakes, "stakes")
    if stake_vec.ndim != 1:
        raise InvalidSpec(f"stakes must be a vector, got shape {stake_vec.shape}")
    plans = [_plan(plan, stake_vec.size) for plan in (honest_plan, colluding_plan)]
    m = _whole_number(m, "m")
    nonpositive = np.flatnonzero(~(stake_vec > 0))
    if nonpositive.size:
        _real(stakes[nonpositive[0]], "stake", positive=True)  # raises
    credits = scheme._g(stake_vec)
    # validate_ballot's checks, ballot by ballot, honest plan first
    matrices = [_valid_rows(scheme, credits, plan, m) for plan in plans]
    for _, mismatch in matrices:  # then vscore's length check, plan by plan
        if mismatch is not None:
            raise mismatch
    honest, colluding = (_column_sums(_impact(scheme, alloc)) for alloc, _ in matrices)
    targeted = honest > 0
    if not targeted.any():
        raise InvalidSpec("honest plan supports no proposal")
    gain = float(np.min(colluding[targeted] / honest[targeted]))
    honest, colluding = honest.tolist(), colluding.tolist()
    return AttackReport(
        attack_kind="collusion",
        baseline=tuple(honest),
        attacked=tuple(colluding),
        gain=gain,
        narrative={
            "scheme": "qv1",
            "targeted_proposals": np.flatnonzero(targeted).tolist(),
            "per_proposal_ratio": [c / h if h > 0 else None
                                   for h, c in zip(honest, colluding)],
        },
    )


def _plan(plan, n):
    """A ballot plan as a list of n BallotProfiles; InvalidSpec or LengthMismatch."""
    try:
        plan = list(plan)
    except TypeError:
        plan = None
    if plan is None or not all(isinstance(b, BallotProfile) for b in plan):
        raise InvalidSpec("a ballot plan must be a list of BallotProfile")
    if len(plan) != n:
        raise LengthMismatch(n, len(plan), "ballot plan")
    return plan


def sybil_gain(scheme: SchemeSpec, stake: float, k: int) -> float:
    """Vote-mass multiplier from splitting one stake across k identities.

    Each identity holds stake/k and concentrates on a single proposal; the
    gain is k * f(g(stake/k)) / f(g(stake)). Linear voting is immune
    (gain 1); every square-root family gains sqrt(k). Note the arithmetic
    yields sqrt(k) for qv3 as well, despite unsplit voting often being
    described as Sybil-proof; the computed value is reported as-is.
    """
    k = _whole_number(k, "k")
    stake = _real(stake, "stake", positive=True)
    if scheme.family == "linear":
        return 1.0
    k = _real(k, "k")  # a whole number past the float range is InvalidSpec
    whole = float(scheme.f(scheme.g(stake)))
    split = float(scheme.f(scheme.g(stake / k)))
    return k * split / whole


def last_voter_advantage(scheme_family: str, prior_ballots, prior_stakes,
                         last_voter_stake: float, profits,
                         aligned_fraction=None) -> AttackReport:
    """Quantify how much the final voter gains by optimizing against the board.

    Prior ballots are tallied under the scheme; their per-proposal vscore
    mass becomes the external total b_r of the last voter's utility
    problem, and a caller-supplied per-proposal fraction of it counts as
    aligned (default 1.0, which makes the objective flat). The gain is the
    optimized utility over a naive profit-proportional allocation.
    """
    if scheme_family not in util.SCHEMES:
        raise InvalidSpec(f"last-voter analysis covers qv1/qv2, got {scheme_family!r}")
    pi = _reals(profits, "profits")
    if pi.ndim != 1:
        raise InvalidSpec(f"profits must be a vector, got shape {pi.shape}")
    m = pi.size
    scheme = SchemeSpec(scheme_family)
    if prior_ballots:
        result = tally(scheme, prior_stakes, prior_ballots, m)
        b = np.array(result.vscore, dtype=float)
    else:
        b = np.zeros(m)
    frac = np.ones(m) if aligned_fraction is None else _reals(aligned_fraction,
                                                              "aligned_fraction")
    if frac.shape != (m,):
        raise LengthMismatch(m, frac.size, "aligned_fraction")
    if np.any(frac < 0) or np.any(frac > 1):
        raise InvalidSpec("aligned fractions must lie in [0, 1]")
    problem = util.UtilityProblem(profits=pi, aligned=frac * b, total=b,
                                  stake=last_voter_stake, scheme=scheme_family)
    top = pi.max()
    if top <= 0:  # profits are >= 0
        raise InvalidSpec("need at least one positive profit")
    # the split of pi scaled by the power of two at its largest profit, so that
    # no sum in scale leaves the float range; where pi's own sums are normal
    # floats, the exact scaling gives the same bits as the split of pi
    unit = np.ldexp(pi, -math.frexp(top)[1])
    naive = unit * util._CONSTRAINTS[scheme_family].scale(unit, problem.budget())
    naive_u = util.utility(problem, naive)
    optimized = util.maximize(problem)
    if naive_u == 0.0:
        gain = 1.0 if optimized.utility == 0.0 else math.inf
    else:
        gain = optimized.utility / naive_u
    return AttackReport(
        attack_kind="last-voter",
        baseline=tuple(naive.tolist()),
        attacked=optimized.allocation,
        gain=float(gain),
        narrative={
            "scheme": scheme_family,
            "external_total": b.tolist(),
            "aligned_fraction": frac.tolist(),
            "naive_utility": float(naive_u),
            "optimized_utility": float(optimized.utility),
            "degenerate_objective": optimized.degenerate,
        },
    )
