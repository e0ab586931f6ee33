"""Stake distributions: canonical ordering, normalization, credits, generation.

All stakes are real-valued coin amounts. A distribution is always stored
sorted ascending by stake (ties broken by voter id) so that rank-sensitive
metrics can index voters directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateVoter,
    GammaOutOfRange,
    InvalidSpec,
    NonPositiveStake,
    ParseError,
)


@dataclass(frozen=True)
class StakeDistribution:
    """Sorted list of (voter_id, stake) pairs with strictly positive stakes.

    The stake array and the id -> row index are built from `entries` on
    first use and kept; `stakes()` returns the one read-only array.
    """

    entries: tuple

    @property
    def n(self):
        return len(self.entries)

    @property
    def voter_ids(self):
        return tuple(vid for vid, _ in self.entries)

    @cached_property
    def _stake_array(self):
        arr = np.array([s for _, s in self.entries], dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _index(self):
        # built last row first, so a repeated id keeps its first row, the
        # one a scan of entries finds
        return {self.entries[row][0]: row for row in reversed(range(self.n))}

    def _row(self, voter_id):
        """Row of `voter_id` in entries, or None when no voter has that id."""
        try:
            return self._index.get(voter_id)
        except TypeError:  # unhashable, so no voter's id
            return None

    def stakes(self) -> np.ndarray:
        return self._stake_array

    def total(self) -> float:
        return math.fsum(self._stake_array.tolist())

    def stake_of(self, voter_id):
        row = self._row(voter_id)
        if row is None:
            raise KeyError(voter_id)
        return float(self._stake_array[row])

    def __contains__(self, voter_id):
        return self._row(voter_id) is not None


def canonicalize(raw) -> StakeDistribution:
    """Validate and sort raw (voter_id, stake) pairs into a StakeDistribution.

    `raw` may be any iterable; it is read once. Ids are stored and compared
    as str, so 1 and "1" are the same voter. Raises NonPositiveStake,
    DuplicateVoter, or InvalidSpec when there is no pair. Idempotent.
    """
    entries = []
    seen = set()
    for vid, stake in raw:
        if not (stake > 0) or not math.isfinite(stake):
            raise NonPositiveStake(vid, stake)
        key = str(vid)
        if key in seen:
            raise DuplicateVoter(vid)
        seen.add(key)
        entries.append((key, float(stake)))
    if not entries:
        raise InvalidSpec("a stake distribution needs at least one voter")
    entries.sort(key=lambda e: (e[1], e[0]))
    return StakeDistribution(tuple(entries))


def normalize(dist: StakeDistribution) -> np.ndarray:
    """Relative stakes s_i / total, order preserved, summing to 1."""
    return dist.stakes() / dist.total()


def _check_gamma(gamma):
    if not (0.0 < gamma <= 1.0):
        raise GammaOutOfRange(gamma, 0.0, 1.0)


def credits(stakes, gamma) -> np.ndarray:
    """Voting credits stakes**gamma for gamma in (0, 1], as a float64 array.

    The one stake -> credit power in qvkit: sqrt at gamma = 1/2, a copy at 1,
    and one stake rounds as it does inside a longer array.
    """
    _check_gamma(gamma)
    return np.asarray(np.asarray(stakes, dtype=np.float64) ** gamma)


@dataclass(frozen=True)
class DistributionSpec:
    """Seeded synthetic population: constant, uniform-range or Pareto stakes."""

    kind: str
    n: int
    seed: int
    lo: float = 1.0
    hi: float = 2.0
    shape: float = 1.16
    scale: float = 1.0
    value: float = 1.0

    def validate(self):
        if self.kind not in ("constant", "uniform", "pareto"):
            raise InvalidSpec(f"unknown distribution kind {self.kind!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) \
                or self.n < 1:
            raise InvalidSpec(f"n must be an integer >= 1, got {self.n!r}")
        if self.kind == "uniform" and not (0 < self.lo < self.hi):
            raise InvalidSpec(f"need 0 < lo < hi, got lo={self.lo}, hi={self.hi}")
        if self.kind == "pareto" and not (self.shape > 0 and self.scale > 0):
            raise InvalidSpec("pareto shape and scale must be > 0")
        if self.kind == "constant" and not self.value > 0:
            raise InvalidSpec("constant stake value must be > 0")


def generate(spec: DistributionSpec) -> StakeDistribution:
    """Deterministic synthetic stake distribution.

    The generator is pinned to numpy's PCG64 so that a (spec, seed) pair is
    bit-identical across runs and platforms. Pareto samples use the inverse
    CDF scale * (1 - u)^(-1/shape).
    """
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.kind == "constant":
        stakes = np.full(spec.n, float(spec.value))
    elif spec.kind == "uniform":
        stakes = spec.lo + (spec.hi - spec.lo) * rng.random(spec.n)
    else:
        u = rng.random(spec.n)
        stakes = spec.scale * (1.0 - u) ** (-1.0 / spec.shape)
    width = len(str(spec.n - 1)) if spec.n > 1 else 1
    raw = [(f"v{i:0{width}d}", float(s)) for i, s in enumerate(stakes)]
    return canonicalize(raw)


def read_csv(path) -> StakeDistribution:
    """Parse a `voter_id,stake` CSV file; errors carry line numbers."""
    raw = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if [c.strip() for c in row] != ["voter_id", "stake"]:
                    raise ParseError(path, 1, "expected header 'voter_id,stake'")
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(path, lineno, f"expected 2 fields, got {len(row)}")
            vid, stake_text = row[0].strip(), row[1].strip()
            try:
                stake = float(stake_text)
            except ValueError:
                raise ParseError(path, lineno, f"bad stake value {stake_text!r}")
            if not (stake > 0) or not math.isfinite(stake):
                raise ParseError(path, lineno,
                                 f"stake for voter {vid!r} must be > 0, got {stake}")
            raw.append((vid, stake))
    return canonicalize(raw)


def write_csv(dist: StakeDistribution, fh):
    """Emit a distribution in the `voter_id,stake` format read_csv accepts."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["voter_id", "stake"])
    for vid, stake in dist.entries:
        writer.writerow([vid, repr(stake)])
