"""Voting schemes: credit functions, ballot validation, score and vscore tallies.

A scheme is a (g, f, stake-mode, polarity) tuple. g maps stake to voting
credit, f maps an allocation to its vote impact. The three quadratic
families are qv1 (g=x, f=sqrt, split), qv2 (g=sqrt, f=x, split) and qv3
(g=sqrt, f=x, unsplit); gpv generalizes the credit map to g(x) = x**gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CreditMismatch,
    GammaOutOfRange,
    IllegalEntry,
    InvalidBallot,
    InvalidSpec,
    LengthMismatch,
    NegativeUnderYesAbstain,
    QvkitError,
    UnknownVoter,
)
from .stake import StakeDistribution

FAMILIES = ("linear", "qv1", "qv2", "qv3", "gpv")

#: Default absolute tolerance on credit sums. Real-valued allocations coming
#: out of optimizers carry rounding error, so exact equality is too strict.
DEFAULT_TOL = 1e-9

_FIXED_MODE = {"qv1": "split", "qv2": "split", "qv3": "unsplit", "gpv": "split"}


@dataclass(frozen=True)
class SchemeSpec:
    family: str
    gamma: float = None
    stake_mode: str = None
    polarity: str = "yes-abstain"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown scheme family {self.family!r}")
        if self.family == "gpv":
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                raise GammaOutOfRange(self.gamma, 0.0, 1.0)
        elif self.gamma is not None:
            raise InvalidSpec(f"gamma only applies to gpv, not {self.family}")
        if self.polarity not in ("yes-abstain", "yes-no-abstain"):
            raise InvalidSpec(f"unknown polarity {self.polarity!r}")
        fixed = _FIXED_MODE.get(self.family)
        if fixed is not None:
            if self.stake_mode is not None and self.stake_mode != fixed:
                raise InvalidSpec(
                    f"{self.family} is a {fixed}-stake scheme, got {self.stake_mode!r}")
            object.__setattr__(self, "stake_mode", fixed)
        else:
            # linear may run either way; default to split.
            if self.stake_mode is None:
                object.__setattr__(self, "stake_mode", "split")
            elif self.stake_mode not in ("split", "unsplit"):
                raise InvalidSpec(f"unknown stake mode {self.stake_mode!r}")

    def g(self, x):
        """Credit function applied to stake."""
        if self.family in ("linear", "qv1"):
            return x
        if self.family in ("qv2", "qv3"):
            return np.sqrt(x)
        return x ** self.gamma

    def f(self, x):
        """Impact function applied to |allocation|."""
        if self.family == "qv1":
            return np.sqrt(x)
        return x


@dataclass(frozen=True)
class BallotProfile:
    """One voter's allocation vector over the round's proposals."""

    voter_id: str
    allocations: tuple

    def __post_init__(self):
        object.__setattr__(self, "allocations",
                           tuple(float(b) for b in self.allocations))
        for b in self.allocations:
            if not math.isfinite(b):
                raise InvalidSpec(f"non-finite allocation {b} for {self.voter_id!r}")

    def as_array(self):
        return np.array(self.allocations, dtype=float)


@dataclass(frozen=True)
class TallyResult:
    scheme: SchemeSpec
    score: tuple
    vscore: tuple
    credit_used: tuple  # (voter_id, credit) pairs, ballot order


def voting_credit(scheme: SchemeSpec, stake: float) -> float:
    """g(stake) for the scheme's credit function."""
    if not stake > 0:
        raise InvalidSpec(f"stake must be > 0, got {stake}")
    return float(scheme.g(stake))


def validate_ballot(scheme: SchemeSpec, stake: float, profile: BallotProfile,
                    tol: float = DEFAULT_TOL, allow_undervote: bool = False):
    """Check a ballot against the voter's credit; raises on violation.

    Split mode requires sum(|b_l|) == g(stake) (<= with allow_undervote);
    unsplit mode requires every entry in {-g(stake), 0, +g(stake)}. Under
    yes-abstain polarity negative entries are rejected in both modes.
    """
    credit = voting_credit(scheme, stake)
    b = profile.as_array()
    if scheme.polarity == "yes-abstain":
        for idx, val in enumerate(b):
            if val < 0:
                raise NegativeUnderYesAbstain(idx, val)
    if scheme.stake_mode == "split":
        used = math.fsum(abs(v) for v in b)
        if used > credit + tol:
            raise CreditMismatch(credit, used)
        if not allow_undervote and used < credit - tol:
            raise CreditMismatch(credit, used)
    else:
        for idx, val in enumerate(b):
            if not (abs(val) <= tol
                    or abs(val - credit) <= tol
                    or abs(val + credit) <= tol):
                raise IllegalEntry(idx, val)


def score(ballots, m: int) -> np.ndarray:
    """Per-proposal raw sum of allocations."""
    out = np.zeros(m)
    for ballot in ballots:
        if len(ballot.allocations) != m:
            raise LengthMismatch(m, len(ballot.allocations),
                                 f"ballot of {ballot.voter_id!r}")
        out += ballot.as_array()
    return out


def vscore(scheme: SchemeSpec, ballots, m: int) -> np.ndarray:
    """Per-proposal sum of sign(b) * f(|b|).

    For families with identity f this coincides with score; for qv1 each
    allocation contributes the square root of its magnitude.
    """
    out = np.zeros(m)
    for ballot in ballots:
        if len(ballot.allocations) != m:
            raise LengthMismatch(m, len(ballot.allocations),
                                 f"ballot of {ballot.voter_id!r}")
        b = ballot.as_array()
        out += np.sign(b) * scheme.f(np.abs(b))
    return out


def tally(scheme: SchemeSpec, dist: StakeDistribution, ballots, m: int,
          tol: float = DEFAULT_TOL, allow_undervote: bool = False) -> TallyResult:
    """Validate every ballot against the distribution and tally the round."""
    credit_used = []
    for ballot in ballots:
        if ballot.voter_id not in dist:
            raise UnknownVoter(ballot.voter_id)
        stake = dist.stake_of(ballot.voter_id)
        try:
            validate_ballot(scheme, stake, ballot, tol=tol,
                            allow_undervote=allow_undervote)
        except QvkitError as exc:
            raise InvalidBallot(ballot.voter_id, exc) from exc
        if scheme.stake_mode == "split":
            used = math.fsum(abs(v) for v in ballot.allocations)
        else:
            used = voting_credit(scheme, stake)
        credit_used.append((ballot.voter_id, used))
    return TallyResult(
        scheme=scheme,
        score=tuple(score(ballots, m)),
        vscore=tuple(vscore(scheme, ballots, m)),
        credit_used=tuple(credit_used),
    )
