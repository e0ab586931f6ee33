"""Voting schemes: credit functions, ballot validation, score and vscore tallies.

A scheme is a (g, f, stake-mode, polarity) tuple. g maps stake to voting
credit, f maps an allocation to its vote impact. The three quadratic
families are qv1 (g=x, f=sqrt, split), qv2 (g=sqrt, f=x, split) and qv3
(g=sqrt, f=x, unsplit); gpv generalizes the credit map to g(x) = x^gamma.
They are the paper's three QV types: qv2 is Type 1 (the square root of the
total stake, then the split), qv1 is Type 2 (the split, then the square
root of each part) and qv3 is Type 3 (unsplit: the square root of the
total stake goes whole to each chosen proposal).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import (
    CreditMismatch,
    DuplicateVoter,
    IllegalEntry,
    InvalidBallot,
    InvalidSpec,
    LengthMismatch,
    NegativeUnderYesAbstain,
    UnknownVoter,
    _REAL_TYPES,
    _fsum,
    _real,
    _tol,
    _whole_number,
)
from .stake import StakeDistribution, _check_gamma, _first_repeat, _power, _stake_values

FAMILIES = ("linear", "qv1", "qv2", "qv3", "gpv")
POLARITIES = ("yes-abstain", "yes-no-abstain")

#: Default absolute tolerance on credit sums. Real-valued allocations coming
#: out of optimizers carry rounding error, so exact equality is too strict.
DEFAULT_TOL = 1e-9

_FIXED_MODE = {"qv1": "split", "qv2": "split", "qv3": "unsplit", "gpv": "split"}

#: Credit exponent of each family; gpv uses its own gamma.
_EXPONENT = {"linear": 1.0, "qv1": 1.0, "qv2": 0.5, "qv3": 0.5}

#: A ballot entry is a real number (see errors); rows of _PLAIN types alone
#: skip the abstract-class test.
_PLAIN = {float, int, bool}

#: What _ballot_columns puts after each packed row: a NaN, which no row holds.
_END = array("d", [math.nan]).tobytes()


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
            object.__setattr__(self, "gamma", _check_gamma(self.gamma, hi_included=False))
        elif self.gamma is not None:
            raise InvalidSpec(f"gamma only applies to gpv, not {self.family}")
        if self.polarity not in POLARITIES:
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
        return self._g(_stake_values(x))

    def _g(self, stakes):
        """g of a float64 array of finite stakes >= 0, unchecked."""
        return _power(stakes, _EXPONENT.get(self.family, self.gamma))

    def f(self, x):
        """Impact function applied to |allocation|."""
        if self.family == "qv1":
            return np.sqrt(x)
        return x


@dataclass(frozen=True, init=False)
class BallotProfile:
    """One voter's allocation vector over the round's proposals.

    `voter_id` is stored as `str(voter_id)`, as canonicalize stores a stake
    id, so 1 and "1" are the same voter. The validated row is kept as packed
    float64 bytes (`_row`, 8 bytes per proposal), which tally joins into its
    allocation matrix. Both are plain attributes: on Python 3.11+ a ballot
    has no per-instance dict until `allocations`, the tuple of floats, is
    built from the row on first read and cached. Equality, hashing and repr
    go through voter_id and `allocations`.
    """

    voter_id: str
    allocations: tuple  # the class attribute is the cached property below

    def __init__(self, voter_id, allocations):
        voter_id = str(voter_id)
        try:
            allocations = tuple(allocations)  # a bytes object is read item by item
            # the types decide, before array("d") converts an entry: it would
            # take a numpy complex's real part, and numpy scalars are not added
            real = (_PLAIN.issuperset(map(type, allocations))
                    or all(isinstance(x, _REAL_TYPES) for x in allocations))
            row = array("d", allocations) if real else None
        except (TypeError, ValueError, OverflowError):  # an int past the float range
            row = None
        if row is None:
            raise InvalidSpec(f"non-numeric allocation for {voter_id!r}")
        if not all(map(math.isfinite, row)):
            raise InvalidSpec(f"non-finite allocation for {voter_id!r}")
        # not __dict__.update, which would make a dict for every ballot
        object.__setattr__(self, "voter_id", voter_id)
        object.__setattr__(self, "_row", row.tobytes())

    @cached_property
    def allocations(self):
        return tuple(array("d", self._row))


@dataclass(frozen=True, init=False)
class TallyResult:
    """A tallied round: the scheme, per-proposal score and vscore, and each
    ballot's credit spend in ballot order.

    The spends are stored as two columns: `voter_ids`, a tuple, and one
    read-only float64 array that `used()` returns. A tally keeps its
    validated rows and builds that array on first read. `credit_used`, the
    (voter_id, credit) pairs, is a view built on first read.
    `TallyResult(scheme, score, vscore, credit_used)` takes the columns from
    the pairs and keeps the tuple of pairs as that view. Equality, hashing
    and repr go through scheme, score, vscore and `credit_used`.
    """

    scheme: SchemeSpec
    score: tuple
    vscore: tuple
    credit_used: tuple  # the class attribute is the cached property below

    def __init__(self, scheme, score, vscore, credit_used):
        credit_used = tuple(credit_used)
        used = np.array([credit for _, credit in credit_used], dtype=float)
        used.flags.writeable = False
        self.__dict__.update(scheme=scheme, score=score, vscore=vscore,
                             credit_used=credit_used, _used=used,
                             voter_ids=tuple([vid for vid, _ in credit_used]))

    @classmethod
    def _of_columns(cls, scheme, score, vscore, voter_ids, credits, alloc):
        """The result of an id tuple and the validated rows in ballot order:
        each ballot's credit and its row of the allocation matrix."""
        result = cls.__new__(cls)
        result.__dict__.update(scheme=scheme, score=score, vscore=vscore,
                               voter_ids=voter_ids, _rows=(credits, alloc))
        return result

    @cached_property
    def _used(self):
        # the rows stay held, so a second build gives the same array
        used = _credit_used(self.scheme, *self._rows)
        used.flags.writeable = False
        return used

    @cached_property
    def credit_used(self):
        # a list first, as StakeDistribution.entries is built
        return tuple(list(zip(self.voter_ids, self._used.tolist())))

    def used(self) -> np.ndarray:
        """The credit each ballot spent, in ballot order."""
        return self._used


def voting_credit(scheme: SchemeSpec, stake: float) -> float:
    """g(stake) for the scheme's credit function."""
    return float(scheme.g(_real(stake, "stake", positive=True)))


def _ballot_columns(ballots, m):
    """One columnar pass over a ballot list: (ids, alloc, mismatch).

    alloc is the (B, width) float64 allocation matrix, width = max(m, longest
    ballot), read from the ballots' packed rows; shorter rows are zero-padded
    on the right. The rows are joined with the NaN _END after each, and no
    row holds a NaN: so when the join is B * (m + 1) floats long and column m
    of it, read as a (B, m + 1) array, is B copies of _END, every row has
    length m. alloc is then the read-only view of its first m columns: a
    copy would be one more (B, m) buffer per round, and each fresh buffer
    can cost the page faults of its first touch. Any other round is copied
    row by row. mismatch is the LengthMismatch of the first ballot whose
    length is not m, or None.
    """
    try:
        ballots = list(ballots)
        ids = [ballot.voter_id for ballot in ballots]
        rows = [ballot._row for ballot in ballots]
    except (TypeError, AttributeError):
        raise InvalidSpec("ballots must be a list of BallotProfile") from None
    rows.append(b"")  # so that the last row is followed by a NaN too
    joined = _END.join(rows)
    rows.pop()
    if len(joined) == 8 * len(rows) * (m + 1):
        alloc = np.frombuffer(joined, float).reshape(len(rows), m + 1)
        if alloc[:, m].tobytes() == _END * len(rows):
            return ids, alloc[:, :m], None
    lengths = [len(row) // 8 for row in rows]
    first = next(row for row, n in enumerate(lengths) if n != m)
    mismatch = LengthMismatch(m, lengths[first], f"ballot of {ids[first]!r}")
    alloc = np.zeros((len(rows), max(m, max(lengths))))
    for row, (values, n) in enumerate(zip(rows, lengths)):
        alloc[row, :n] = np.frombuffer(values, float)
    return ids, alloc, mismatch


def _voter_rows(dist, ids):
    """(rows, unknown): the row of each str id in dist, as an intp array, and
    the position of the first id that no voter has, or len(ids). Rows from
    `unknown` on are undefined.

    One itemgetter call fetches every row; an unknown id, and a round of
    fewer than two ballots (itemgetter needs one id, and returns a lone row
    unwrapped), take the scan that finds the first unknown id.
    """
    if len(ids) > 1:
        try:
            return (np.fromiter(itemgetter(*ids)(dist._index), np.intp, len(ids)),
                    len(ids))
        except KeyError:
            pass
    rows = np.array([dist._index.get(vid, -1) for vid in ids], dtype=np.intp)
    missing = np.flatnonzero(rows < 0)
    return rows, int(missing[0]) if missing.size else len(ids)


def _spend(row):
    """fsum of one row of |b|; past the float range +inf, which overspends."""
    try:
        return _fsum(row, "spend")
    except InvalidSpec:
        return math.inf


def _spends(rows):
    """_spend of each row of a nonnegative (B, w) array, as a float64 array.

    For finite nonnegative rows math.fsum raises OverflowError exactly where
    _spend gives +inf, so the rows go through _spend only when it does.
    """
    rows = rows.tolist()
    try:
        return np.array(list(map(math.fsum, rows)), dtype=float)
    except OverflowError:
        return np.array(list(map(_spend, rows)), dtype=float)


def _credit_used(scheme, credits, alloc):
    """Credit each row spends: fsum(|b|) with split stake, else the full credit."""
    if scheme.stake_mode != "split":
        return credits
    return _spends(np.abs(alloc))


def _off_credit(credits, spend, tol, allow_undervote):
    """Rows whose exact spend fsum(spend) is above credits + tol, or below
    credits - tol unless allow_undervote. `spend` is |b|, or b itself when
    no entry is negative: its -0.0 entries change no comparison.

    The float row sum p lies within (w + 2) * 2**-52 * p of the exact sum
    for any order of adding w nonnegative terms (twice Higham's
    gamma_(w-1) bound), so p decides each row farther than that from both
    bounds. Only the other rows, and rows whose sum overflowed, get their
    exact spend.
    """
    hi, lo = credits + tol, credits - tol
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed p is unsure
        p = spend @ np.ones(spend.shape[1])
        slack = (spend.shape[1] + 2) * 2.0 ** -52 * p
        unsure = np.flatnonzero(~(np.abs(p - hi) > slack) | ~(np.abs(p - lo) > slack))
    if unsure.size:
        p[unsure] = _spends(spend[unsure])
    off = p > hi
    if not allow_undervote:
        off |= p < lo
    return off


def _signed(alloc):
    """Whether any entry of alloc is negative; -0.0 is not."""
    return alloc.min(initial=0.0) < 0


def _first_invalid(scheme, credits, alloc, tol, allow_undervote, signed):
    """(row, error) for the first row of `alloc` that validate_ballot rejects.

    Returns None when every row is valid. tol must be >= 0, so a zero that
    pads a short row passes every check. `signed` is _signed(alloc): the
    per-row mask of negative entries and the |b| copy are built only when
    it is true.
    """
    tol = _tol(tol)
    negative = alloc < 0 if signed and scheme.polarity == "yes-abstain" else None
    bad = np.zeros(len(alloc), dtype=bool) if negative is None else negative.any(axis=1)
    split = scheme.stake_mode == "split"
    if split:
        spend = np.abs(alloc) if signed else alloc
        bad |= _off_credit(credits, spend, tol, allow_undervote)
    else:
        # b - c and b + c are ±(|b| - c) and ±(|b| + c), and |b| + c <= tol
        # only where |b| <= tol: so |b| alone decides (a NaN stays illegal)
        size = np.abs(alloc)
        illegal = ~((size <= tol) | (np.abs(size - credits[:, None]) <= tol))
        bad |= illegal.any(axis=1)
    if not bad.any():
        return None
    row = int(bad.argmax())
    if negative is not None and negative[row].any():
        idx = int(negative[row].argmax())
        return row, NegativeUnderYesAbstain(idx, alloc[row, idx])
    if split:
        return row, CreditMismatch(float(credits[row]),
                                   _spend(np.abs(alloc[row]).tolist()))
    idx = int(illegal[row].argmax())
    return row, IllegalEntry(idx, alloc[row, idx])


def _impact(scheme, alloc):
    """sign(b) * f(|b|), elementwise."""
    return np.sign(alloc) * scheme.f(np.abs(alloc))


def _column_sums(alloc):
    """Column sums added row by row from 0.0, as `out += row` per ballot does.

    A running sum keeps the ballot order that a plain axis-0 sum may change.
    Started from the first row instead of 0.0, it differs only in giving
    -0.0 where every entry so far was -0.0; the closing + 0.0 makes that
    +0.0 again.
    """
    if not len(alloc):
        return np.zeros(alloc.shape[1])
    return np.cumsum(alloc, axis=0)[-1] + 0.0


def _vscore_sums(scheme, alloc, score, signed):
    """Column sums of sign(b) * f(|b|) given `score`, those of b, and
    `signed`, _signed(alloc).

    f is the identity outside qv1, and for finite b sign(b) * |b| is b but
    for the sign of a zero, which a running sum from 0.0 absorbs; so the
    sums are `score` itself. For the same reason, with no negative entry the
    qv1 sums are those of sqrt(b).
    """
    if scheme.family != "qv1":
        return score
    if not signed:
        return _column_sums(np.sqrt(alloc))
    return _column_sums(_impact(scheme, alloc))


def validate_ballot(scheme: SchemeSpec, stake: float, profile: BallotProfile,
                    tol: float = DEFAULT_TOL, allow_undervote: bool = False):
    """Check a ballot against the voter's credit; raises on violation.

    Split mode requires sum(|b_l|) == g(stake) (<= with allow_undervote);
    unsplit mode requires every entry in {-g(stake), 0, +g(stake)}. Under
    yes-abstain polarity negative entries are rejected in both modes, and
    that check comes first.
    """
    credits = np.array([voting_credit(scheme, stake)])  # the stake is checked first
    try:
        m = len(profile._row) // 8
    except (TypeError, AttributeError):  # as _ballot_columns rejects it
        raise InvalidSpec("profile must be a BallotProfile") from None
    _valid_rows(scheme, credits, [profile], m, tol, allow_undervote)


def _valid_rows(scheme, credits, ballots, m, tol=DEFAULT_TOL, allow_undervote=False):
    """(alloc, mismatch) of _ballot_columns, once no ballot fails the checks
    of validate_ballot against its credit; else the first failure's error."""
    _, alloc, mismatch = _ballot_columns(ballots, m)
    bad = _first_invalid(scheme, credits, alloc, tol, allow_undervote, _signed(alloc))
    if bad is not None:
        raise bad[1]
    return alloc, mismatch


def _checked_matrix(ballots, m):
    """The (B, m) allocation matrix; LengthMismatch at the first ballot of
    another length."""
    m = _whole_number(m, "m")
    _, alloc, mismatch = _ballot_columns(ballots, m)
    if mismatch is not None:
        raise mismatch
    return alloc


def score(ballots, m: int) -> np.ndarray:
    """Per-proposal raw sum of allocations."""
    return _column_sums(_checked_matrix(ballots, m))


def vscore(scheme: SchemeSpec, ballots, m: int) -> np.ndarray:
    """Per-proposal sum of sign(b) * f(|b|).

    For families with identity f this coincides with score; for qv1 each
    allocation contributes the square root of its magnitude.
    """
    alloc = _checked_matrix(ballots, m)
    return _vscore_sums(scheme, alloc, _column_sums(alloc), _signed(alloc))


def tally(scheme: SchemeSpec, dist: StakeDistribution, ballots, m: int,
          tol: float = DEFAULT_TOL, allow_undervote: bool = False) -> TallyResult:
    """Validate every ballot against the distribution and tally the round.

    One columnar pass over the ballots, in time linear in their number.
    Errors come from the first offending ballot in ballot order:
    UnknownVoter, DuplicateVoter for a voter's second ballot, or
    InvalidBallot wrapping validate_ballot's error. LengthMismatch is
    raised only once every ballot has validated.
    """
    m = _whole_number(m, "m")
    # The rows are validated zero-padded to a common width, so that each
    # ballot's own error comes before any LengthMismatch.
    ids, alloc, mismatch = _ballot_columns(ballots, m)
    rows, unknown = _voter_rows(dist, ids)
    known = unknown
    if np.bincount(rows[:unknown], minlength=1).max() > 1:  # some voter has two ballots
        known = _first_repeat(rows[:unknown].tolist())
    credits = scheme._g(dist.stakes()[rows[:known]])
    signed = _signed(alloc[:known])
    bad = _first_invalid(scheme, credits, alloc[:known], tol, allow_undervote, signed)
    if bad is not None:
        row, exc = bad
        raise InvalidBallot(ids[row], exc) from exc
    if known < unknown:
        raise DuplicateVoter(ids[known])
    if unknown < len(ids):
        raise UnknownVoter(ids[unknown])
    if mismatch is not None:
        raise mismatch
    score_ = _column_sums(alloc)
    return TallyResult._of_columns(scheme, tuple(score_.tolist()),
                                   tuple(_vscore_sums(scheme, alloc, score_, signed).tolist()),
                                   tuple(ids), credits, alloc)
