"""Voting schemes: credit functions, ballot validation, score and vscore tallies.

A scheme is a (g, f, stake-mode, polarity) tuple. g maps stake to voting
credit, f maps an allocation to its vote impact. The three quadratic
families are qv1 (g=x, f=sqrt, split), qv2 (g=sqrt, f=x, split) and qv3
(g=sqrt, f=x, unsplit); gpv generalizes the credit map to g(x) = x^gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CreditMismatch,
    DuplicateVoter,
    GammaOutOfRange,
    IllegalEntry,
    InvalidBallot,
    InvalidSpec,
    LengthMismatch,
    NegativeUnderYesAbstain,
    UnknownVoter,
)
from .stake import StakeDistribution, credits

FAMILIES = ("linear", "qv1", "qv2", "qv3", "gpv")

#: Default absolute tolerance on credit sums. Real-valued allocations coming
#: out of optimizers carry rounding error, so exact equality is too strict.
DEFAULT_TOL = 1e-9

_FIXED_MODE = {"qv1": "split", "qv2": "split", "qv3": "unsplit", "gpv": "split"}

#: Credit exponent of each family; gpv uses its own gamma.
_EXPONENT = {"linear": 1.0, "qv1": 1.0, "qv2": 0.5, "qv3": 0.5}


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
        """Credit function applied to stake, as a float64 array (stake.credits)."""
        return credits(x, _EXPONENT.get(self.family, self.gamma))

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


def _stack(ballots, width):
    """(B, width) allocation matrix, each row zero-padded on the right."""
    if all(len(ballot.allocations) == width for ballot in ballots):
        return np.array([ballot.allocations for ballot in ballots],
                        dtype=float).reshape(len(ballots), width)
    out = np.zeros((len(ballots), width))
    for row, ballot in enumerate(ballots):
        out[row, :len(ballot.allocations)] = ballot.allocations
    return out


def _check_lengths(ballots, m):
    for ballot in ballots:
        if len(ballot.allocations) != m:
            raise LengthMismatch(m, len(ballot.allocations),
                                 f"ballot of {ballot.voter_id!r}")


def _credit_used(scheme, credits, alloc):
    """Credit each row spends: fsum(|b|) with split stake, else the full credit."""
    if scheme.stake_mode == "split":
        return np.array([math.fsum(row) for row in np.abs(alloc).tolist()], dtype=float)
    return credits


def _first_invalid(scheme, credits, alloc, used, tol, allow_undervote, inside=None):
    """(row, error) for the first row of `alloc` that validate_ballot rejects.

    Returns None when every row is valid. `inside` masks out padding from
    the unsplit entry check.
    """
    if scheme.polarity == "yes-abstain":
        negative = alloc < 0
    else:
        negative = np.zeros(alloc.shape, dtype=bool)
    bad = negative.any(axis=1)
    split = scheme.stake_mode == "split"
    if split:
        bad |= used > credits + tol
        if not allow_undervote:
            bad |= used < credits - tol
    else:
        c = credits[:, None]
        illegal = ~((np.abs(alloc) <= tol)
                    | (np.abs(alloc - c) <= tol)
                    | (np.abs(alloc + c) <= tol))
        if inside is not None:
            illegal &= inside
        bad |= illegal.any(axis=1)
    if not bad.any():
        return None
    row = int(bad.argmax())
    if negative[row].any():
        idx = int(negative[row].argmax())
        return row, NegativeUnderYesAbstain(idx, alloc[row, idx])
    if split:
        return row, CreditMismatch(float(credits[row]), float(used[row]))
    idx = int(illegal[row].argmax())
    return row, IllegalEntry(idx, alloc[row, idx])


def _first_repeat(rows):
    """Position of the first row already seen earlier in `rows`, else len(rows)."""
    if len(set(rows)) == len(rows):
        return len(rows)
    seen = set()
    for pos, row in enumerate(rows):
        if row in seen:
            return pos
        seen.add(row)
    return len(rows)


def _impact(scheme, alloc):
    """sign(b) * f(|b|), elementwise."""
    return np.sign(alloc) * scheme.f(np.abs(alloc))


def _column_sums(alloc):
    """Column sums added row by row from 0.0, as `out += row` per ballot does.

    A running sum keeps the ballot order that a plain axis-0 sum may change.
    """
    start = np.zeros((1, alloc.shape[1]))
    return np.cumsum(np.concatenate((start, alloc)), axis=0)[-1]


def validate_ballot(scheme: SchemeSpec, stake: float, profile: BallotProfile,
                    tol: float = DEFAULT_TOL, allow_undervote: bool = False):
    """Check a ballot against the voter's credit; raises on violation.

    Split mode requires sum(|b_l|) == g(stake) (<= with allow_undervote);
    unsplit mode requires every entry in {-g(stake), 0, +g(stake)}. Under
    yes-abstain polarity negative entries are rejected in both modes, and
    that check comes first.
    """
    credits = np.array([voting_credit(scheme, stake)])
    alloc = profile.as_array()[None, :]
    bad = _first_invalid(scheme, credits, alloc, _credit_used(scheme, credits, alloc),
                         tol, allow_undervote)
    if bad is not None:
        raise bad[1]


def score(ballots, m: int) -> np.ndarray:
    """Per-proposal raw sum of allocations."""
    ballots = list(ballots)
    _check_lengths(ballots, m)
    return _column_sums(_stack(ballots, m))


def vscore(scheme: SchemeSpec, ballots, m: int) -> np.ndarray:
    """Per-proposal sum of sign(b) * f(|b|).

    For families with identity f this coincides with score; for qv1 each
    allocation contributes the square root of its magnitude.
    """
    ballots = list(ballots)
    _check_lengths(ballots, m)
    return _column_sums(_impact(scheme, _stack(ballots, m)))


def tally(scheme: SchemeSpec, dist: StakeDistribution, ballots, m: int,
          tol: float = DEFAULT_TOL, allow_undervote: bool = False) -> TallyResult:
    """Validate every ballot against the distribution and tally the round.

    One pass over the ballots, in time linear in their number. Errors come
    from the first offending ballot in ballot order: UnknownVoter,
    DuplicateVoter for a voter's second ballot, or InvalidBallot wrapping
    validate_ballot's error. LengthMismatch is raised only once every
    ballot has validated.
    """
    ballots = list(ballots)
    row_of = dist._row
    rows = [row_of(ballot.voter_id) for ballot in ballots]
    unknown = rows.index(None) if None in rows else len(rows)
    known = _first_repeat(rows[:unknown])
    # The rows are validated zero-padded to a common width, so that each
    # ballot's own error comes before any LengthMismatch; `inside` keeps the
    # padding out of the unsplit entry check.
    lengths = np.array([len(ballot.allocations) for ballot in ballots[:known]], dtype=int)
    width = max(m, int(lengths.max(initial=0)))
    alloc = _stack(ballots[:known], width)
    credits = scheme.g(dist.stakes()[rows[:known]])
    used = _credit_used(scheme, credits, alloc)
    inside = np.arange(width) < lengths[:, None]
    bad = _first_invalid(scheme, credits, alloc, used, tol, allow_undervote, inside)
    if bad is not None:
        row, exc = bad
        raise InvalidBallot(ballots[row].voter_id, exc) from exc
    if known < unknown:
        raise DuplicateVoter(ballots[known].voter_id)
    if unknown < len(ballots):
        raise UnknownVoter(ballots[unknown].voter_id)
    _check_lengths(ballots, m)
    return TallyResult(
        scheme=scheme,
        score=tuple(_column_sums(alloc)),
        vscore=tuple(_column_sums(_impact(scheme, alloc))),
        credit_used=tuple(zip((ballot.voter_id for ballot in ballots), used.tolist())),
    )
