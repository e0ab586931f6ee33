"""Stake distributions: canonical ordering, normalization, credits, generation.

All stakes are real-valued coin amounts. A distribution is always stored
sorted ascending by stake (ties broken by voter id) so that rank-sensitive
metrics can index voters directly.
"""

from __future__ import annotations

import csv
import io
import math
import reprlib
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import contains

import numpy as np

from .errors import (
    DuplicateVoter,
    GammaOutOfRange,
    InvalidSpec,
    NonPositiveStake,
    ParseError,
    _MOST_FLOATS,
    _as_real,
    _fsum,
    _reals,
    _whole_number,
)


@dataclass(frozen=True, init=False)
class StakeDistribution:
    """Voters sorted ascending by (stake, id), stored as two columns.

    `voter_ids` is a tuple of distinct str ids and `stakes()` the one
    read-only float64 stake array; the id -> row index is built from the
    ids on first use, and `stake_of` and `in` look up `str(voter_id)`.
    `entries`, the (voter_id, stake) pairs, is a view built on first read.
    `StakeDistribution(entries)` is `canonicalize(entries)`: it validates,
    converts and sorts the pairs, and raises as canonicalize does.
    Equality, hashing and repr go through `entries`.
    """

    entries: tuple  # the class attribute is the cached property below

    def __init__(self, entries):
        self.__dict__.update(vars(canonicalize(entries)))

    @classmethod
    def _of_columns(cls, voter_ids, stakes):
        """The distribution of an id tuple and a float64 stake array that are
        already in (stake, id) order; the array is made read-only."""
        dist = cls.__new__(cls)
        stakes.flags.writeable = False
        dist.__dict__.update(voter_ids=voter_ids, _stake_array=stakes)
        return dist

    @cached_property
    def entries(self):
        # a list first: a tuple grown from an iterator is re-tracked by the
        # garbage collector at each resize, and each young collection then
        # walks it again
        return tuple(list(zip(self.voter_ids, self._stake_array.tolist())))

    @property
    def n(self):
        return len(self.voter_ids)

    @cached_property
    def _index(self):
        return dict(zip(self.voter_ids, range(self.n)))

    def _row(self, voter_id):
        """Row of `str(voter_id)` in entries, or None when no voter has that id."""
        return self._index.get(str(voter_id))

    def stakes(self) -> np.ndarray:
        return self._stake_array

    def total(self) -> float:
        """The correctly rounded sum of the stakes; InvalidSpec past the float range."""
        return _fsum(self._stake_array, "stake")

    def stake_of(self, voter_id):
        row = self._row(voter_id)
        if row is None:
            raise KeyError(voter_id)
        return float(self._stake_array[row])

    def __contains__(self, voter_id):
        return self._row(voter_id) is not None


def canonicalize(raw) -> StakeDistribution:
    """Validate and sort raw (voter_id, stake) pairs into a StakeDistribution.

    The one rule for a valid distribution; `StakeDistribution(raw)` calls
    it. `raw` may be any iterable; it is read once. Ids are stored and
    compared as str, so 1 and "1" are the same voter. A stake is a real
    number (see errors) whose float is finite and > 0, and that float is
    stored. Raises NonPositiveStake or DuplicateVoter, which name the str
    id, or InvalidSpec when there is no pair or `raw` is not an iterable of
    pairs. Idempotent.
    """
    ids, values = [], []
    seen = set()
    try:
        raw = iter(raw)
    except TypeError:
        raise InvalidSpec(f"expected (voter_id, stake) pairs, got {reprlib.repr(raw)}") from None
    for pair in raw:
        try:
            vid, stake = pair
        except (TypeError, ValueError):  # not a pair
            raise InvalidSpec(f"expected a (voter_id, stake) pair, "
                              f"got {reprlib.repr(pair)}") from None
        key = str(vid)
        value = _as_real(stake)
        if value is None or not 0.0 < value < math.inf:
            raise NonPositiveStake(key, stake)
        if key in seen:
            raise DuplicateVoter(key)
        seen.add(key)
        ids.append(key)
        values.append(value)
    return _from_columns(ids, np.array(values, dtype=float))


def _from_columns(ids, stakes) -> StakeDistribution:
    """The distribution of distinct str `ids` with valid float64 `stakes`.

    Sorts by (stake, id): a stable argsort on stake, then each run of equal
    stakes by id in Python, because numpy drops trailing NULs when it
    compares str arrays ("a\\x00" would sort before "a"). The sorted stakes
    become the distribution's stake array. Raises InvalidSpec when there is
    no voter.
    """
    if not ids:
        raise InvalidSpec("a stake distribution needs at least one voter")
    order = np.argsort(stakes, kind="stable")
    sorted_stakes = stakes[order]
    tied = np.concatenate(([False], sorted_stakes[1:] == sorted_stakes[:-1], [False]))
    edges = np.flatnonzero(tied[1:] != tied[:-1]).tolist()
    # edges pair up: a run of equal stakes spans rows [start, end]
    for start, end in zip(edges[::2], edges[1::2]):
        order[start:end + 1] = sorted(order[start:end + 1].tolist(), key=ids.__getitem__)
    # the ids are taken through an object array, which holds one reference
    # per id where a list of the row numbers would hold one int object each
    return StakeDistribution._of_columns(tuple(np.array(ids, dtype=object)[order]),
                                         sorted_stakes)


def normalize(dist: StakeDistribution) -> np.ndarray:
    """Relative stakes s_i / total, order preserved, summing to 1."""
    return dist.stakes() / dist.total()


def _check_gamma(gamma, hi_included=True):
    """The one gamma check: gamma as a float, for a real number in (0, 1], or
    (0, 1) without hi_included; else GammaOutOfRange."""
    try:
        g = _reals(gamma, "gamma").tolist()  # a float, or a list for a sequence
    except InvalidSpec:
        g = math.nan
    if not (isinstance(g, float) and (0.0 < g < 1.0 or (hi_included and g == 1.0))):
        raise GammaOutOfRange(gamma, 0.0, 1.0, hi_included)
    return g


def credits(stakes, gamma) -> np.ndarray:
    """Voting credits stakes**gamma for gamma in (0, 1], as a float64 array.

    The one stake -> credit power in qvkit: sqrt at gamma = 1/2, a copy at 1,
    and one stake rounds as it does inside a longer array. Stakes that are
    not finite real numbers >= 0 are InvalidSpec; a zero stake has credit 0.
    """
    gamma = _check_gamma(gamma)
    return _power(_stake_values(stakes), gamma)


def _stake_values(stakes):
    """stakes as a float64 array; InvalidSpec unless each is a finite real
    number >= 0."""
    values = _reals(stakes, "stakes")
    if np.any(values < 0):
        raise InvalidSpec(f"stakes must be >= 0, got {reprlib.repr(stakes)}")
    return values


def _power(stakes, gamma):
    """credits without its checks, for a float64 array of finite stakes >= 0
    and a float gamma in (0, 1]."""
    return np.asarray(stakes ** gamma)


#: The distribution kinds that generate draws from.
KINDS = ("constant", "uniform", "pareto")


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
        """Check the spec; returns its (lo, hi, shape, scale, value) as floats,
        with value None unless kind is "constant", the one kind that reads it."""
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown distribution kind {self.kind!r}")
        _whole_number(self.n, "n", most=_MOST_FLOATS)  # n floats, numpy-indexable
        lo, hi, shape, scale = _reals((self.lo, self.hi, self.shape, self.scale),
                                      "lo, hi, shape and scale").tolist()
        if self.kind == "uniform" and not (0 < lo < hi):
            raise InvalidSpec(f"need 0 < lo < hi, got lo={self.lo}, hi={self.hi}")
        if self.kind == "pareto" and not (shape > 0 and scale > 0):
            raise InvalidSpec("pareto shape and scale must be > 0")
        value = None
        if self.kind == "constant":
            value = _as_real(self.value)
            if value is None or not value > 0:
                raise InvalidSpec("constant stake value must be > 0")
        _whole_number(self.seed, "seed", least=0)
        return lo, hi, shape, scale, value


def generate(spec: DistributionSpec) -> StakeDistribution:
    """Deterministic synthetic stake distribution.

    The generator is pinned to numpy's PCG64, whose stream is the same on
    every platform, so a (spec, seed) pair draws the same numbers across runs
    and platforms, and constant and uniform stakes are bit-identical. Pareto
    samples use the inverse CDF scale * (1 - u)^(-1/shape), through numpy's
    array power: its last bit can differ between the SIMD levels numpy
    dispatches to (AVX-512, AVX2, SSE), so Pareto stakes are bit-identical
    across runs on one host, not across hosts. An n past the float64
    arrays that numpy can index is InvalidSpec before any array is built; a
    smaller n past the available memory still raises numpy's MemoryError.
    """
    lo, hi, shape, scale, value = spec.validate()
    n = int(spec.n)
    rng = np.random.Generator(np.random.PCG64(int(spec.seed)))
    if spec.kind == "constant":
        stakes = np.full(n, value)
    elif spec.kind == "uniform":
        stakes = lo + (hi - lo) * rng.random(n)
    else:
        u = rng.random(n)
        stakes = scale * (1.0 - u) ** (-1.0 / shape)
    width = len(str(n - 1)) if n > 1 else 1
    id_format = f"v%0{width}d"  # printf-style: half the time of a nested f-string spec
    ids = [id_format % i for i in range(n)]
    bad = _bad_stakes(stakes)
    if bad.any():
        row = int(bad.argmax())
        raise NonPositiveStake(ids[row], float(stakes[row]))
    return _from_columns(ids, stakes)


#: characters of stake CSV text that read_csv checks and splits at a time
_READ_CHARS = 1 << 18
#: rows per write of write_csv
_WRITE_ROWS = 8192


def _bad_stakes(stakes):
    """Mask of the stakes that are not finite and > 0."""
    return ~(np.isfinite(stakes) & (stakes > 0))


def _plain_columns(text):
    """(ids, stakes) of a stake CSV's text by str.split, or None.

    Takes the text when it holds no quote, lone CR or NUL, no line past the
    csv module's field limit, a `voter_id,stake` header and one comma on
    every line, so that csv.reader would split each line at its comma; CR
    LF ends a line as LF does. The text is checked and split _READ_CHARS at
    a time, cut after a line break, into ids stripped as the csv route
    strips them and a stake array filled in place; Python's float reads a
    stake as the csv route does, and the padding it does not strip
    (\\x1c-\\x1f) fails it. Any other text, and a row with a fault in any
    chunk, gives None.
    """
    if not text:
        return None
    ids = []
    stakes = np.empty(text.count("\n") - text.endswith("\n"))  # a row a line past the header
    start = 0
    while start < len(text):
        end = text.find("\n", start + _READ_CHARS) + 1 or len(text)
        chunk = text[start:end].replace("\r\n", "\n")
        if '"' in chunk or "\r" in chunk or "\x00" in chunk:
            return None
        lines = chunk.split("\n")
        if not lines[-1]:
            del lines[-1]  # the break that ends the chunk's last line
        n = len(lines)
        # as many commas as lines, and one on each line: exactly one on each
        if (chunk.count(",") != n or not all(map(contains, lines, repeat(",")))
                or max(map(len, lines)) > csv.field_size_limit()):
            return None
        skip = 0
        if not start:
            if [c.strip() for c in lines[0].split(",")] != ["voter_id", "stake"]:
                return None
            skip = 2  # the header's two cells
        cells = chunk.replace("\n", ",").split(",")  # two a line
        rows = n - skip // 2
        try:
            stakes[len(ids):len(ids) + rows] = np.fromiter(
                map(float, cells[skip + 1:2 * n:2]), dtype=float, count=rows)
        except ValueError:
            return None
        ids += map(str.strip, cells[skip:2 * n:2])
        start = end
    if _bad_stakes(stakes).any():
        return None
    return ids, stakes


def _csv_columns(path, text, read_error):
    """(ids, stakes) of a stake CSV's text read by the csv module.

    Rows are read one at a time, and the first fault in file order is
    raised: the header, then a faulty row at the line where it ends, then a
    CSV error or `read_error` (the ParseError of a byte that is not UTF-8 on
    the line after `text`). Blank rows are skipped.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    ids, values = [], []
    try:
        for i, row in enumerate(reader):
            if not i:
                if [c.strip() for c in row] != ["voter_id", "stake"]:
                    raise ParseError(path, 1, "expected header 'voter_id,stake'")
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank row
            line = reader.line_num  # the line the row ends on
            if len(row) != 2:
                raise ParseError(path, line, f"expected 2 fields, got {len(row)}")
            vid, stake_text = row[0].strip(), row[1].strip()
            try:
                stake = float(stake_text)
            except ValueError:
                raise ParseError(path, line, f"bad stake value {stake_text!r}") from None
            if not (stake > 0) or not math.isfinite(stake):
                raise ParseError(path, line,
                                 f"stake for voter {vid!r} must be > 0, got {stake}")
            ids.append(vid)
            values.append(stake)
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, str(exc)) from None
    if read_error is not None:
        raise read_error
    return ids, np.array(values, dtype=float)


def _utf8_text(path):
    """(text, None) of a UTF-8 file; else the text of the lines before its
    first byte that is not UTF-8, and the ParseError at that byte's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        end = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
        return data[:end].decode(), ParseError(path, len(data[:end].splitlines()) + 1,
                                               f"not UTF-8 text: {exc.reason}")


def read_csv(path) -> StakeDistribution:
    """Parse a `voter_id,stake` CSV file; errors carry line numbers.

    The file is read once. Plain text (see _plain_columns) is checked and
    split a chunk of lines at a time; quoted fields, lone CRs, blank rows
    and any fault go through the csv module. The first fault in file order
    is the one reported: a bad row, then a CSV error or a byte that is not
    UTF-8 after it, then a repeated voter id.
    """
    text, read_error = _utf8_text(path)
    columns = None if read_error else _plain_columns(text)
    if columns is None:
        columns = _csv_columns(path, text, read_error)
    del text  # freed before the repeat scan and the sort
    ids, stakes = columns
    repeat_at = _first_repeat(ids)
    if repeat_at < len(ids):
        raise DuplicateVoter(ids[repeat_at])
    return _from_columns(ids, stakes)


def _first_repeat(rows):
    """Position of the first row already seen earlier in `rows`, else len(rows)."""
    if len(set(rows)) == len(rows):
        return len(rows)
    seen = set()  # set.add returns None, so `or` adds each row not yet seen
    return next(pos for pos, row in enumerate(rows) if row in seen or seen.add(row))


def write_csv(dist: StakeDistribution, fh):
    """Emit a distribution in the `voter_id,stake` format read_csv accepts.

    Rows are written _WRITE_ROWS at a time. A chunk whose ids hold no
    comma, quote, CR or LF is joined straight from the columns, with the
    bytes csv.writer would write; a chunk with other ids goes through
    csv.writer.
    """
    fh.write("voter_id,stake\n")
    writer = csv.writer(fh, lineterminator="\n")
    ids, stakes = dist.voter_ids, dist.stakes()
    for start in range(0, len(ids), _WRITE_ROWS):
        chunk = ids[start:start + _WRITE_ROWS]
        rows = zip(chunk, map(repr, stakes[start:start + _WRITE_ROWS].tolist()))
        if not any(c in "".join(chunk) for c in ',"\r\n'):
            fh.write("\n".join(map(",".join, rows)) + "\n")
        else:
            writer.writerows(rows)
