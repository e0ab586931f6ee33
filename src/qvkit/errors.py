"""Domain error types shared across the package, and the count, real and
tolerance checks.

This module is the one home of the real-number rule. A real number is a
`numbers.Real`, or numpy's `bool_` (which `numbers.Real` omits), that
`float()` converts: a bool, int, float, `Fraction` or numpy real scalar,
but not an int or `Fraction` past the float range (about 1.8e308), a str,
`None`, a `Decimal` or a complex number. Each check returns the float, or
float64 array, that it accepted, and callers compute with that, never with
the raw input.

It is also the one home of the count rule (_whole_number: a real number,
not a bool, equal to an int >= a least value) and of the tolerance rule
(_tol: one real number >= 0).
"""

import math
import numbers
import reprlib

import numpy as np


class QvkitError(Exception):
    """Base class for all domain errors raised by qvkit."""


class NonPositiveStake(QvkitError):
    def __init__(self, voter_id, stake):
        self.voter_id = voter_id
        self.stake = stake
        super().__init__(f"stake for voter {voter_id!r} must be > 0, got {stake}")


class DuplicateVoter(QvkitError):
    def __init__(self, voter_id):
        self.voter_id = voter_id
        super().__init__(f"duplicate voter id {voter_id!r}")


class InvalidSpec(QvkitError):
    pass


class GammaOutOfRange(QvkitError):
    def __init__(self, gamma, lo=0.0, hi=1.0, hi_included=True):
        self.gamma = gamma
        close = "]" if hi_included else ")"
        super().__init__(f"gamma must be in ({lo}, {hi}{close}, got {gamma}")


class LengthMismatch(QvkitError):
    def __init__(self, expected, actual, what="vector"):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what} length mismatch: expected {expected}, got {actual}")


class NonPositiveCount(QvkitError):
    def __init__(self, index, count):
        self.index = index
        self.count = count
        super().__init__(f"count at index {index} must be >= 1, got {count}")


class Unsorted(QvkitError):
    pass


class NegativeCredit(Unsorted):
    """A negative credit; an Unsorted, so `except Unsorted` still catches it."""


class AllZero(QvkitError):
    pass


class ThresholdOutOfRange(QvkitError):
    def __init__(self, a):
        self.a = a
        super().__init__(f"threshold must be in (0, 1), got {a}")


class KOutOfRange(QvkitError):
    def __init__(self, k, n):
        self.k = k
        self.n = n
        super().__init__(f"k must be in [1, {n}], got {k}")


class TargetBelowFloor(QvkitError):
    def __init__(self, alpha, floor):
        self.alpha = alpha
        self.floor = floor
        super().__init__(
            f"target share {alpha} is unreachable: the gamma -> 0 limit is {floor}"
        )


class NoConvergence(QvkitError):
    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class CreditMismatch(QvkitError):
    def __init__(self, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(f"credit mismatch: expected {expected}, got {actual}")


class IllegalEntry(QvkitError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"illegal ballot entry at index {index}: {value}")


class NegativeUnderYesAbstain(QvkitError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(
            f"negative allocation {value} at index {index} under yes-abstain polarity"
        )


class UnknownVoter(QvkitError):
    def __init__(self, voter_id):
        self.voter_id = voter_id
        super().__init__(f"ballot from unknown voter {voter_id!r}")


class InvalidBallot(QvkitError):
    def __init__(self, voter_id, cause):
        self.voter_id = voter_id
        self.cause = cause
        super().__init__(f"invalid ballot from {voter_id!r}: {cause}")


class AlignedExceedsTotal(QvkitError):
    def __init__(self, index, aligned, total):
        self.index = index
        super().__init__(
            f"aligned mass {aligned} exceeds total mass {total} at index {index}"
        )


class DegenerateDenominator(QvkitError):
    def __init__(self, index=None):
        self.index = index
        where = "" if index is None else f" at index {index}"
        super().__init__(f"success probability undefined (s_r = b_r = 0){where}")


class DimensionTooLarge(QvkitError):
    def __init__(self, m, limit):
        self.m = m
        super().__init__(f"oracle supports at most {limit} proposals, got {m}")


class InfeasibleSolution(QvkitError):
    pass


#: The types a real number may have; float() must also convert the value.
_REAL_TYPES = (numbers.Real, np.bool_)


def _as_real(value):
    """float(value) when value is a real number, else None."""
    if isinstance(value, _REAL_TYPES):
        try:
            return float(value)
        except OverflowError:  # an int or Fraction past the float range
            pass
    return None


def _whole_number(value, name, least=1):
    """int(value) for a whole number >= least that is not a bool; else InvalidSpec.

    The test is exact, so an int or Fraction of any size is read as is.
    """
    whole = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            whole = int(value)
        except (ValueError, OverflowError):  # NaN, ±inf
            pass
    if whole is None or value != whole or whole < least:
        raise InvalidSpec(f"{name} must be a whole number >= {least}, got {value!r}")
    return whole


def _reals(values, name, finite=True):
    """values as a float64 array, 0-d for a scalar, and a float64 array as is;
    InvalidSpec unless every value is a real number, finite unless finite=False.

    An array of bools, ints or floats converts by its dtype. Any other
    object array, such as one of ints past 2**64 or of Fractions, is read
    item by item with _as_real.
    """
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):  # e.g. a ragged nesting
        a = np.asarray(None)
    if a.dtype.kind == "O":
        floats = [_as_real(x) for x in a.flat]
        if None not in floats:
            a = np.array(floats, dtype=np.float64).reshape(a.shape)
    if a.dtype.kind not in "biuf" or finite and np.count_nonzero(np.isfinite(a)) < a.size:
        raise InvalidSpec(f"{name} must be finite real numbers, got {reprlib.repr(values)}")
    return a.astype(np.float64, copy=False)


def _real(value, name, positive=False):
    """float(value) for one finite real number, > 0 with positive; else InvalidSpec."""
    a = _reals(value, name)
    if a.ndim or positive and not a > 0:
        raise InvalidSpec(f"{name} must be one real number{' > 0' * positive}, "
                          f"got {reprlib.repr(value)}")
    return float(a)


def _tol(tol, name="tol"):
    """tol as a float, for one real number >= 0; else InvalidSpec naming `name`."""
    tol = _real(tol, name)
    if tol < 0:
        raise InvalidSpec(f"{name} must be >= 0, got {tol}")
    return tol


def _fsum(terms, what):
    """math.fsum of terms; InvalidSpec ("<what> sums leave the float range") if not finite.

    A float64 array is summed through its buffer, in order, without a list copy.
    """
    if isinstance(terms, np.ndarray):
        terms = memoryview(terms)
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # fsum's own overflow, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise InvalidSpec(f"{what} sums leave the float range")
    return total


class ParseError(QvkitError):
    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")
