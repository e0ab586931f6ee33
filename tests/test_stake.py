import csv
import dataclasses
import hashlib
import io
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qvkit import stake, transform
from qvkit.errors import (
    DuplicateVoter,
    GammaOutOfRange,
    InvalidSpec,
    NonPositiveStake,
    ParseError,
    QvkitError,
)
from qvkit.schemes import SchemeSpec, voting_credit
from qvkit.stake import StakeDistribution
from tests.conftest import pareto_reference

#: sha256 of the 1,000 PCG64 draws of seed 7 as float64 bytes, which
#: pareto(shape=1.16, scale=1.0) maps through its inverse CDF
PARETO_DRAWS = "04cb301accba852a0c21b67ed212be9d45ac980d3af38688805516990bc0bc0a"


def test_canonicalize_sorts_by_stake():
    dist = stake.canonicalize([("b", 3), ("a", 1)])
    assert dist.entries == (("a", 1.0), ("b", 3.0))


def test_canonicalize_tie_breaks_by_id():
    dist = stake.canonicalize([("b", 1), ("a", 1)])
    assert dist.entries == (("a", 1.0), ("b", 1.0))


def test_canonicalize_rejects_nonpositive_stake():
    with pytest.raises(NonPositiveStake) as exc:
        stake.canonicalize([("a", 0)])
    assert exc.value.voter_id == "a"


def test_canonicalize_rejects_duplicates():
    with pytest.raises(DuplicateVoter):
        stake.canonicalize([("a", 1), ("a", 2)])


def test_canonicalize_reads_a_generator_once():
    dist = stake.canonicalize((vid, s) for vid, s in [("b", 3), ("a", 1)])
    assert dist.entries == (("a", 1.0), ("b", 3.0))


@pytest.mark.parametrize("raw", [[5], [["a", 1, 2]], [("a",)], 5, None])
def test_canonicalize_rejects_what_is_not_pairs(raw):
    with pytest.raises(InvalidSpec):
        stake.canonicalize(raw)


def test_canonicalize_finds_duplicates_after_str_coercion():
    with pytest.raises(DuplicateVoter) as exc:
        stake.canonicalize([(1, 1.0), ("1", 2.0)])
    assert exc.value.voter_id == "1"


def test_canonicalize_errors_name_the_str_id():
    with pytest.raises(DuplicateVoter) as duplicate:
        stake.canonicalize([("1", 1.0), (1, 2.0)])
    with pytest.raises(NonPositiveStake) as negative:
        stake.canonicalize([(1, -1.0)])
    assert duplicate.value.voter_id == negative.value.voter_id == "1"


def test_canonicalize_rejects_empty_input():
    with pytest.raises(InvalidSpec):
        stake.canonicalize([])
    with pytest.raises(InvalidSpec):
        stake.canonicalize(iter(()))


#: items of a raw pair list: pairs with int and str ids (some repeated as
#: str) and int, Fraction and float stakes, zero, negative, NaN and +-inf
#: among them, and items that are not pairs
raw_items = st.one_of(
    st.tuples(st.one_of(st.integers(-2, 3), st.sampled_from(["a", "b", "1", "2"])),
              st.one_of(st.integers(-3, 9), st.fractions(), st.floats(),
                        st.sampled_from([0.0, -4.0, math.nan, math.inf, -math.inf]))),
    st.sampled_from([5, None, ("a",), ("a", 1.0, 2.0), "ab", "a"]))


@settings(max_examples=300)
@given(st.one_of(st.lists(raw_items, max_size=8), st.sampled_from([5, None])))
def test_the_constructor_is_canonicalize(raw):
    def built(make):
        try:
            dist = make(raw)
        except QvkitError as exc:
            return type(exc), str(exc)
        return dist.entries, dist.voter_ids, dist.stakes().tolist()

    assert built(StakeDistribution) == built(stake.canonicalize)


def test_the_constructor_validates_its_pairs():
    dist = StakeDistribution([("a", 5.0), ("b", 1.0), ("c", 2)])
    assert dist.entries == (("b", 1.0), ("c", 2.0), ("a", 5.0))
    with pytest.raises(InvalidSpec, match="at least one voter"):
        StakeDistribution([])
    with pytest.raises(NonPositiveStake):
        StakeDistribution([("a", -4.0), ("b", 1.0)])
    with pytest.raises(DuplicateVoter):
        StakeDistribution([("a", 1.0), ("b", 2.0), ("a", 3.0)])
    assert "1" in StakeDistribution([(1, 1.0)])


def test_lookups_use_the_cached_array_and_index():
    dist = stake.canonicalize([("b", 3), ("a", 1), ("c", 2)])
    assert dist.stakes() is dist.stakes()
    assert dist.stakes().tolist() == [1.0, 2.0, 3.0]
    assert dist.stake_of("b") == 3.0 and type(dist.stake_of("b")) is float
    assert "c" in dist and "z" not in dist
    with pytest.raises(KeyError):
        dist.stake_of("z")
    assert ["a"] not in dist  # an unhashable id is no voter's id
    with pytest.raises(KeyError):
        dist.stake_of(["a"])
    assert dist.total() == 6.0
    # the caches are not dataclass fields: equality still compares entries
    assert dist == stake.canonicalize([("a", 1), ("b", 3), ("c", 2)])


def test_normalize_direct_division():
    dist = stake.canonicalize([("a", 1), ("b", 4), ("c", 9)])
    assert np.allclose(stake.normalize(dist), [1 / 14, 4 / 14, 9 / 14],
                       rtol=0, atol=1e-15)


def test_normalize_equal_stakes():
    dist = stake.canonicalize([("a", 7), ("b", 7), ("c", 7)])
    assert np.allclose(stake.normalize(dist), [1 / 3] * 3, rtol=0, atol=1e-15)


def test_normalize_single_voter():
    dist = stake.canonicalize([("solo", 42.0)])
    assert stake.normalize(dist).tolist() == [1.0]


@given(st.lists(st.floats(min_value=1e-6, max_value=1e9), min_size=1, max_size=60))
def test_normalize_sums_to_one_and_preserves_order(stakes):
    dist = stake.canonicalize([(f"v{i}", s) for i, s in enumerate(stakes)])
    rel = stake.normalize(dist)
    assert abs(math.fsum(rel) - 1.0) <= 1e-12
    assert np.all(np.diff(rel) >= 0)


@given(st.lists(st.tuples(st.text(min_size=1, max_size=4),
                          st.floats(min_value=1e-6, max_value=1e6)),
                min_size=1, max_size=30,
                unique_by=lambda e: e[0]))
def test_canonicalize_idempotent(raw):
    once = stake.canonicalize(raw)
    twice = stake.canonicalize(once.entries)
    assert once.entries == twice.entries


def test_generate_constant():
    spec = stake.DistributionSpec(kind="constant", n=5, seed=1, value=2.5)
    dist = stake.generate(spec)
    assert dist.n == 5
    assert all(s == 2.5 for _, s in dist.entries)


@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 100_000])
def test_generate_ids_are_the_zero_padded_indices(n):
    dist = stake.generate(stake.DistributionSpec(kind="constant", n=n, seed=1, value=1.0))
    width = len(str(n - 1)) if n > 1 else 1
    # equal stakes sort by id, and padded ids sort as their indices
    assert list(dist.voter_ids) == [f"v{i:0{width}d}" for i in range(n)]


def test_generate_deterministic():
    spec = stake.DistributionSpec(kind="uniform", n=50, seed=99, lo=1.0, hi=9.0)
    assert stake.generate(spec).entries == stake.generate(spec).entries


def test_generate_pareto_golden():
    spec = stake.DistributionSpec(kind="pareto", n=1000, seed=7,
                                  shape=1.16, scale=1.0)
    dist = stake.generate(spec)
    stakes = dist.stakes()
    assert dist.n == 1000
    assert np.all(stakes > 0)
    assert stakes.max() / stakes.min() > 10
    u, entries = pareto_reference(1000, 7)
    assert hashlib.sha256(u.tobytes()).hexdigest() == PARETO_DRAWS
    assert dist.entries == tuple(entries)


def test_generate_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        stake.generate(stake.DistributionSpec(kind="uniform", n=3, seed=0,
                                              lo=5.0, hi=1.0))
    with pytest.raises(InvalidSpec):
        stake.generate(stake.DistributionSpec(kind="pareto", n=3, seed=0,
                                              shape=-1.0))
    with pytest.raises(InvalidSpec):
        stake.generate(stake.DistributionSpec(kind="constant", n=0, seed=0))


def test_generate_rejects_an_unknown_kind():
    with pytest.raises(InvalidSpec, match="unknown distribution kind 'lognormal'"):
        stake.generate(stake.DistributionSpec(kind="lognormal", n=3, seed=0))


@pytest.mark.parametrize("n", [2.5, "3", True, None])
def test_generate_rejects_a_non_integer_n(n):
    with pytest.raises(InvalidSpec):
        stake.generate(stake.DistributionSpec(kind="uniform", n=n, seed=1))


def test_generate_accepts_a_whole_float_n():
    assert stake.generate(stake.DistributionSpec(kind="uniform", n=3.0, seed=1)) == \
        stake.generate(stake.DistributionSpec(kind="uniform", n=3, seed=1))


def test_generate_accepts_a_numpy_integer_n():
    assert stake.generate(stake.DistributionSpec(kind="uniform", n=np.int64(4),
                                                 seed=1)).n == 4


def test_csv_round_trip(tmp_path):
    dist = stake.generate(stake.DistributionSpec(kind="pareto", n=20, seed=11))
    path = tmp_path / "stakes.csv"
    with open(path, "w") as fh:
        stake.write_csv(dist, fh)
    assert stake.read_csv(path).entries == dist.entries


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("voter_id,stake\nv1,0\n")
    with pytest.raises(ParseError) as exc:
        stake.read_csv(path)
    assert exc.value.line == 2

    path.write_text("voter_id,stake\nv1,abc\n")
    with pytest.raises(ParseError) as exc:
        stake.read_csv(path)
    assert exc.value.line == 2

    path.write_text("wrong,header\n")
    with pytest.raises(ParseError) as exc:
        stake.read_csv(path)
    assert exc.value.line == 1


class TestCredits:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, 2.0, 1.0 + 1e-15, math.nan,
                                       math.inf])
    def test_gamma_outside_zero_one(self, gamma):
        with pytest.raises(GammaOutOfRange):
            stake.credits([1.0, 4.0], gamma)

    @pytest.mark.parametrize("stakes", [4, 4.0, [4], (1, 4), np.array([1.0, 4.0])])
    def test_returns_a_float64_array(self, stakes):
        got = stake.credits(stakes, 0.5)
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64
        assert got.shape == np.shape(stakes)

    def test_sqrt_and_copy(self):
        s = stake.generate(stake.DistributionSpec("pareto", 1000, 11)).stakes()
        assert np.array_equal(stake.credits(s, 0.5), np.sqrt(s))
        assert np.array_equal(stake.credits(s, 1.0), s)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    def test_one_stake_rounds_as_in_the_array(self, gamma):
        s = stake.generate(stake.DistributionSpec("pareto", 2000, 12)).stakes()
        whole = stake.credits(s, gamma)
        assert [float(stake.credits(x, gamma)) for x in s.tolist()] == whole.tolist()
        assert [stake.credits([x], gamma)[0] for x in s.tolist()] == whole.tolist()


def test_every_credit_route_is_the_array_power():
    """apply_gamma, voting_credit and SchemeSpec.g give dist.stakes() ** gamma.

    Python's scalar power differs from numpy's array power in the last ulp
    for a few percent of Pareto stakes, so any route that takes it shows.
    """
    dist = stake.generate(stake.DistributionSpec("pareto", 10_000, 301))
    s = dist.stakes()
    searched = transform.gamma_search(dist, 10, 0.05).gamma
    assert 0.0 < searched < 1.0
    for gamma in (0.3, 0.7, searched):
        want = (s ** gamma).tolist()
        scheme = SchemeSpec("gpv", gamma=gamma)
        assert transform.apply_gamma(dist, gamma).stakes().tolist() == want
        assert [voting_credit(scheme, x) for x in s.tolist()] == want
        assert [float(scheme.g(x)) for x in s.tolist()] == want


@pytest.mark.parametrize("credit_map", [
    lambda s: stake.credits(s, 0.5),
    lambda s: stake.credits(s, 1.0),
    SchemeSpec("qv1").g,
    SchemeSpec("linear").g,
    SchemeSpec("qv2").g,
    SchemeSpec("gpv", gamma=0.3).g,
], ids=["credits 1/2", "credits 1", "qv1", "linear", "qv2", "gpv"])
def test_a_negative_stake_has_no_credit(credit_map):
    for stakes in ([-1.0], [-1.0, 4.0], [4.0, -1e-300], -2.0):
        with pytest.raises(InvalidSpec, match="stakes must be >= 0"):
            credit_map(stakes)
    assert credit_map([0.0, -0.0, 4.0]).tolist()[:2] == [0.0, 0.0]


def test_gamma_one_is_outside_the_open_intervals():
    dist = stake.canonicalize([("a", 1.0), ("b", 4.0)])
    for call in (lambda: SchemeSpec("gpv", gamma=1.0),
                 lambda: transform.verify_transform_properties(dist, 1.0)):
        with pytest.raises(GammaOutOfRange) as exc:
            call()
        assert str(exc.value) == "gamma must be in (0.0, 1.0), got 1.0"
    with pytest.raises(GammaOutOfRange) as exc:
        stake.credits([1.0], 1.5)
    assert str(exc.value) == "gamma must be in (0.0, 1.0], got 1.5"


@pytest.mark.parametrize("seed", [2.5, -1, None, True, "3"])
def test_generate_rejects_a_bad_seed(seed):
    with pytest.raises(InvalidSpec, match="seed must be a whole number >= 0"):
        stake.generate(stake.DistributionSpec("uniform", 3, seed))


def test_generate_accepts_a_whole_float_seed():
    assert stake.generate(stake.DistributionSpec("uniform", 3, np.float64(3.0))) == \
        stake.generate(stake.DistributionSpec("uniform", 3, 3))


def test_generate_accepts_a_numpy_integer_seed():
    spec = stake.DistributionSpec("pareto", 50, 9)
    assert stake.generate(spec) == stake.generate(
        stake.DistributionSpec("pareto", 50, np.uint64(9)))


def test_generate_rejects_a_non_finite_stake():
    with pytest.raises(NonPositiveStake) as exc:
        stake.generate(stake.DistributionSpec("constant", 3, 1, value=math.inf))
    assert str(exc.value) == "stake for voter 'v0' must be > 0, got inf"


# ids that sort differently as Python str and as a numpy U array, or by
# code point and by locale
TRICKY_IDS = ["a", "a\x00", "a\x00\x00", "", "\x00", "é", "e", "E", "ß", "☃",
              "\U0001f600", "10", "9", " a"]


@given(st.lists(st.tuples(st.one_of(st.sampled_from(TRICKY_IDS), st.text(max_size=3)),
                          st.sampled_from([1.0, 2.0, 2.5, 1e-300, 7e22])),
                min_size=1, max_size=40, unique_by=lambda e: e[0]))
def test_canonicalize_order_is_sorted_by_stake_then_id(raw):
    dist = stake.canonicalize(raw)
    assert dist.entries == tuple(sorted(raw, key=lambda e: (e[1], e[0])))
    assert dist.stakes().tolist() == [s for _, s in dist.entries]


def test_generate_ties_are_ordered_by_id():
    dist = stake.generate(stake.DistributionSpec("constant", 1200, 5, value=2.0))
    assert dist.voter_ids == tuple(sorted(f"v{i:04d}" for i in range(1200)))


def test_constructors_seed_the_cached_stake_array(tmp_path):
    dist = stake.generate(stake.DistributionSpec("pareto", 500, 3))
    path = tmp_path / "stakes.csv"
    with open(path, "w") as fh:
        stake.write_csv(dist, fh)
    for built in (dist, stake.read_csv(path), stake.canonicalize(dist.entries)):
        arr = built.__dict__["_stake_array"]
        assert not arr.flags.writeable
        assert arr.tolist() == [s for _, s in built.entries]
        assert built == StakeDistribution(built.entries)
        assert built.stakes() is arr


def reference_read_csv(path):
    """Row-by-row read_csv and canonicalize, as before the columnar read."""
    raw = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            lineno = reader.line_num  # the line the row ends on
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
                value = float(stake_text)
            except ValueError:
                raise ParseError(path, lineno, f"bad stake value {stake_text!r}")
            if not (value > 0) or not math.isfinite(value):
                raise ParseError(path, lineno,
                                 f"stake for voter {vid!r} must be > 0, got {value}")
            raw.append((vid, value))
    entries = []
    seen = set()
    for vid, value in raw:
        if vid in seen:
            raise DuplicateVoter(vid)
        seen.add(vid)
        entries.append((vid, value))
    if not entries:
        raise InvalidSpec("a stake distribution needs at least one voter")
    entries.sort(key=lambda e: (e[1], e[0]))
    return StakeDistribution(tuple(entries))


def outcome(read, path):
    try:
        return read(path).entries
    except Exception as exc:  # compare the error type and message
        return type(exc).__name__, str(exc)


GOOD_ROWS = ["a,1", "b, 2.5 ", " c ,3e2", "d,1_000", "e,١٢", "a\x00,1", "é,1",
             "f,0.1", '"g,h",4', '"i\nj",5', '"k\r\n\rl",6']
BAD_ROWS = ["x", "x,1,2", ",", "x,", "x,abc", "x,0", "x,-1", "x,nan", "x,inf",
            "x,1e400", "x,-0", "a,5", "b,2.5", '"y\n",-1', '"\r\nz",0']
BLANK_ROWS = ["", "  ", '""']


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(GOOD_ROWS + BAD_ROWS + BLANK_ROWS), max_size=12),
       st.sampled_from(["voter_id,stake", " voter_id , stake", "id,stake", ""]))
def test_read_csv_matches_the_row_loop(tmp_path_factory, rows, header):
    path = tmp_path_factory.mktemp("csv") / "stakes.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert outcome(stake.read_csv, path) == outcome(reference_read_csv, path)


#: ids and stakes of the text that read_csv splits without the csv module,
#: and some that send it to the csv module (NUL) or fail there
PLAIN_IDS = ["a", "b", " c ", "é", "☃ x", "a\x00", "\x00", "", "v1"]
PLAIN_STAKES = ["1", "2.5", " 2.5 ", "1_000", "١٢", "\x1c4", "3e-320", "7e22", "nan",
                "-0", "1e400", "0", "x", ""]
plain_rows = st.one_of(
    st.builds("{},{}".format,
              st.one_of(st.sampled_from(PLAIN_IDS),
                        st.text(st.characters(codec="utf-8", blacklist_characters=',"\r\n'),
                                max_size=3)),
              st.sampled_from(PLAIN_STAKES)),
    # blank rows, and rows with extra or missing commas ("5" and "2,3,4" pair
    # up as two rows of one comma each when the text is split as a whole)
    st.sampled_from(["", "  ", "\t", "a,1,2", "b,2,", "a1", ",", "5", "2,3,4"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(plain_rows, max_size=12),
       st.sampled_from(["voter_id,stake", " voter_id , stake", "voter_id,stake,", "id,stake"]),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example(rows=["5", "2,3,4"], header="voter_id,stake", newline="\r\n", last_newline=False)
def test_read_csv_of_unquoted_text_matches_the_row_loop(tmp_path_factory, rows, header,
                                                        newline, last_newline):
    path = tmp_path_factory.mktemp("csv") / "stakes.csv"
    text = newline.join([header, *rows]) + newline * last_newline
    path.write_bytes(text.encode("utf-8"))
    assert outcome(stake.read_csv, path) == outcome(reference_read_csv, path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_csv_of_a_written_file_never_calls_csv_reader(tmp_path, monkeypatch, newline):
    dist = stake.generate(stake.DistributionSpec("pareto", 20_000, 301))
    out = io.StringIO()
    stake.write_csv(dist, out)
    path = tmp_path / "stakes.csv"
    path.write_bytes(out.getvalue().replace("\n", newline).encode())

    def reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", reader)
    assert stake.read_csv(path) == dist
    path.write_text('voter_id,stake\n"a",1\n')  # a quoted id needs the csv module
    with pytest.raises(AssertionError, match="csv.reader called"):
        stake.read_csv(path)


@pytest.mark.parametrize("body, line", [
    ("a,1\nb,1,1\nc,0\n", 3), ("a,1\nb,zz\nc,1,1\n", 3),
    ("a,1\n\nb,0\nc,x\n", 4), ("a,1\na,2\nb,-1\n", 4),
    ("a,1\nb,nan\n", 3), ("a,inf\n", 2),
])
def test_read_csv_reports_the_first_faulty_row(tmp_path, body, line):
    path = tmp_path / "stakes.csv"
    path.write_text("voter_id,stake\n" + body)
    with pytest.raises(ParseError) as exc:
        stake.read_csv(path)
    assert exc.value.line == line
    assert outcome(stake.read_csv, path) == outcome(reference_read_csv, path)


@pytest.mark.parametrize("early_fault", [True, False])
def test_read_csv_decode_error_after_the_rows_read(tmp_path, early_fault):
    # the bad bytes sit past the reader's first decoded chunk, so the rows
    # before them are read first, and a fault among them is reported; else
    # the bad byte's own line is, as a ParseError (the row loop lets
    # UnicodeDecodeError out)
    path = tmp_path / "stakes.csv"
    second = b"b,0\n" if early_fault else b"b,2\n"
    path.write_bytes(b"voter_id,stake\na,1\n" + second + b"x" * 20000
                     + b",1\n\xff,2\n")
    with pytest.raises(ParseError) as exc:
        stake.read_csv(path)
    if early_fault:
        assert outcome(stake.read_csv, path) == outcome(reference_read_csv, path)
    else:
        assert exc.value.line == 5 and "not UTF-8" in str(exc.value)


@pytest.mark.parametrize("body, line, message", [
    # a fault in the lines just before the bad byte, which a chunked
    # decode never hands to the reader
    (b"a,1\n" + b"x" * 20000 + b",1\nb,0\n\xff,2\n", 4, "must be > 0"),
    (b"a,1\n" + b"x" * 20000 + b",1\nb,2\nc,\xff\n", 5, "not UTF-8"),
    (b"a,1\rb,2\rc,\xe9\r", 4, "not UTF-8"),  # lines end in CR alone
    (b"a,1\rb,-2\rc,\xe9\r", 3, "must be > 0"),
    (b"a,1\r\nb,2\r\n\xc3(,1\r\n", 4, "not UTF-8"),
], ids=["fault-before-byte", "byte-in-stake", "cr-lines", "cr-lines-fault", "crlf"])
def test_read_csv_reports_the_first_fault_around_a_bad_byte(tmp_path, body,
                                                             line, message):
    path = tmp_path / "stakes.csv"
    path.write_bytes(b"voter_id,stake\n" + body)
    with pytest.raises(ParseError) as exc:
        stake.read_csv(path)
    assert exc.value.line == line and message in str(exc.value)


def test_read_csv_bad_byte_in_the_header(tmp_path):
    path = tmp_path / "stakes.csv"
    path.write_bytes(b"voter_\xffid,stake\na,1\n")
    with pytest.raises(ParseError) as exc:
        stake.read_csv(path)
    assert exc.value.line == 1


@pytest.mark.parametrize("before, after, line", [
    ("a,1\n", "b,2\n", 3),
    ("a,1\n", "b,-1\n", 3),  # a fault after the long field does not win
    ('a,1\nb,"2\n\n', "", 5),  # a quoted field that spans lines
])
def test_read_csv_field_limit_is_a_parse_error_at_its_line(tmp_path, before, after,
                                                           line):
    path = tmp_path / "stakes.csv"
    long_field = "v" * (csv.field_size_limit() + 1)
    path.write_text(f"voter_id,stake\n{before}{long_field},1\n{after}")
    with pytest.raises(ParseError, match="field larger than field limit") as exc:
        stake.read_csv(path)
    assert exc.value.line == line


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_read_csv_reports_a_faulty_row_at_the_line_it_ends_on(tmp_path, newline):
    # a quoted id spans lines 2-3, so the faulty row is on line 4, where the
    # csv reader (and a CSV or decode error) counts it
    path = tmp_path / "stakes.csv"
    path.write_bytes(newline.join(["voter_id,stake", '"a', 'b",1', "c,-1", ""]).encode())
    with pytest.raises(ParseError, match="must be > 0") as exc:
        stake.read_csv(path)
    assert exc.value.line == 4


def test_read_csv_field_limit_before_a_bad_byte_is_a_parse_error(tmp_path):
    # the bad byte sends the read back to the bytes before its line, and that
    # reread meets the long field on line 2 first
    path = tmp_path / "stakes.csv"
    long_field = b"a" * 200_000
    path.write_bytes(b"voter_id,stake\n" + long_field + b",1.0\nb,2.0\n\xff,3\n")
    with pytest.raises(ParseError, match="field larger than field limit") as exc:
        stake.read_csv(path)
    assert exc.value.line == 2
    path.write_bytes(b"voter_id,stake\n" + long_field + b",1.0\nb,2.0\nc,3\n")
    with pytest.raises(ParseError, match="field larger than field limit") as exc:
        stake.read_csv(path)
    assert exc.value.line == 2


def test_read_csv_field_limit_error_after_a_faulty_row(tmp_path):
    path = tmp_path / "stakes.csv"
    path.write_text("voter_id,stake\na,-1\nb," + "1" * (csv.field_size_limit() + 1)
                    + "\n")
    assert outcome(stake.read_csv, path) == outcome(reference_read_csv, path)
    with pytest.raises(ParseError):
        stake.read_csv(path)


def test_read_csv_on_a_large_file_matches_the_row_loop(tmp_path):
    dist = stake.generate(stake.DistributionSpec("pareto", 20_000, 301))
    path = tmp_path / "stakes.csv"
    with open(path, "w") as fh:
        stake.write_csv(dist, fh)
    assert stake.read_csv(path) == reference_read_csv(path) == dist


#: padding that str.strip removes around a stake; float rejects \x1c-\x1f,
#: which sends the text to the csv module, and strips the rest itself
STAKE_PADS = ["\x1c", "\x1d", "\x1e", "\x1f", "\u3000", "\x85", "\v", "\f", "\t", " "]


@pytest.mark.parametrize("pad", STAKE_PADS)
def test_read_csv_of_padded_stakes_matches_the_row_loop(tmp_path, pad):
    path = tmp_path / "stakes.csv"
    path.write_text(f"voter_id,stake\n{pad}a{pad},{pad}2.5{pad}\nb,1\n", encoding="utf-8")
    assert outcome(stake.read_csv, path) == outcome(reference_read_csv, path)
    assert stake.read_csv(path).entries == (("b", 1.0), ("a", 2.5))


#: width of each row of chunked_text, its line break included
ROW_WIDTH = 40


def chunked_text(rows, newline="\n"):
    """The lines of a plain stake CSV with `rows` rows of ROW_WIDTH chars
    each, the header first, so row i is lines[i + 1]."""
    pad = ROW_WIDTH - len(newline) - len("v000000,") - len("1.000")
    return ["voter_id,stake", *(f"v{i:06d}{'x' * pad},{1 + i % 1000 / 1000:.3f}"
                                for i in range(rows))]


def chunk_row(position, rows):
    """The row index of a row in the first, a middle or the last read chunk."""
    header = len("voter_id,stake\n")
    return {"first": 2, "middle": (3 * stake._READ_CHARS // 2 - header) // ROW_WIDTH,
            "last": rows - 1}[position]


#: rows enough for three cuts: four read chunks, the last a short one
CHUNKED_ROWS = (3 * stake._READ_CHARS + stake._READ_CHARS // 2) // ROW_WIDTH


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("fault", ["bad stake", "quote", "lone CR", "blank row"])
def test_read_csv_reports_a_fault_in_any_chunk_as_the_row_loop(tmp_path, fault, position):
    lines = chunked_text(CHUNKED_ROWS)
    line = 1 + chunk_row(position, CHUNKED_ROWS)
    vid = lines[line].split(",")[0]
    lines[line] = {"bad stake": f"{vid},abc", "quote": f'"{vid},q",2',
                   "lone CR": f"{vid}a,1\r{vid}b,2", "blank row": f"{lines[line]}\n"}[fault]
    path = tmp_path / "stakes.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    got = outcome(stake.read_csv, path)
    assert got == outcome(reference_read_csv, path)
    if fault == "bad stake":
        assert got[0] == "ParseError" and f":{line + 1}: bad stake value 'abc'" in got[1]
    else:
        assert len(got) == CHUNKED_ROWS + (fault == "lone CR")


@pytest.mark.parametrize("cut", [-1, 0, 1])
def test_read_csv_with_a_cr_lf_pair_at_a_cut_splits_the_text(tmp_path, monkeypatch, cut):
    # the first id is lengthened so that a CR LF pair ends at the first
    # chunk's cut (`cut` 0), one char before or one after it
    lines = chunked_text(CHUNKED_ROWS, "\r\n")
    text = "\r\n".join(lines) + "\r\n"
    shift = (stake._READ_CHARS - text.rfind("\r\n", 0, stake._READ_CHARS) - 1 + cut) % ROW_WIDTH
    lines[1] = "y" * shift + lines[1]
    text = "\r\n".join(lines) + "\r\n"
    assert text[stake._READ_CHARS + cut - 1:stake._READ_CHARS + cut + 1] == "\r\n"
    path = tmp_path / "stakes.csv"
    path.write_bytes(text.encode())
    want = reference_read_csv(path)

    def reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", reader)
    assert stake.read_csv(path) == want and want.n == CHUNKED_ROWS


@pytest.mark.parametrize("text", [
    "\n".join(chunked_text(CHUNKED_ROWS)),  # no final newline
    "\n".join(chunked_text(CHUNKED_ROWS)) + "\nz,-1",  # nor after a fault
    "voter_id,stake\n", "voter_id,stake", "voter_id,stake\r\n", "",
], ids=["no-final-newline", "fault-at-the-end", "header-only", "header-only-no-newline",
        "header-only-crlf", "empty"])
def test_read_csv_of_the_text_ends_matches_the_row_loop(tmp_path, text):
    path = tmp_path / "stakes.csv"
    path.write_bytes(text.encode())
    assert outcome(stake.read_csv, path) == outcome(reference_read_csv, path)


def reference_write_csv(dist):
    """write_csv through csv.writer over the pairs, as before the columns."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["voter_id", "stake"])
    writer.writerows((vid, repr(s)) for vid, s in dist.entries)
    return out.getvalue()


def written(dist):
    out = io.StringIO()
    stake.write_csv(dist, out)
    return out.getvalue()


#: ids that csv.writer quotes, and some it does not
CSV_CHARS = [",", '"', "\r", "\n", " ", "\t", "é", "☃", "\x00", "a", "1", "'"]
csv_ids = st.one_of(st.text(st.sampled_from(CSV_CHARS), max_size=4),
                    st.text(max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(csv_ids, min_size=1, max_size=12, unique=True),
    # ids that need no quoting, the columnar route
    st.lists(st.text(st.characters(blacklist_characters=',"\r\n'), max_size=4),
             min_size=1, max_size=12, unique=True)),
    st.data())
def test_write_csv_bytes_equal_csv_writer(ids, data):
    values = data.draw(st.lists(st.floats(min_value=1e-300, max_value=1e300),
                                min_size=len(ids), max_size=len(ids)))
    dist = stake.canonicalize(zip(ids, values))
    assert written(dist) == reference_write_csv(dist)


def test_write_csv_of_a_hand_built_distribution_with_non_str_ids():
    dist = StakeDistribution(((1, 2.0), (None, 3.0)))
    assert dist.voter_ids == ("1", "None")
    assert written(dist) == reference_write_csv(dist) == "voter_id,stake\n1,2.0\nNone,3.0\n"


@pytest.mark.parametrize("n", [0, 1, stake._WRITE_ROWS - 1, stake._WRITE_ROWS,
                               stake._WRITE_ROWS + 1, 2 * stake._WRITE_ROWS + 1])
def test_write_csv_across_row_chunks(n):
    ids = [f"v{i}" for i in range(n)]
    if n > stake._WRITE_ROWS:  # a chunk that needs csv.writer between plain ones
        ids[stake._WRITE_ROWS] = 'q,"x"'
    pairs = zip(ids, (1.0 + i / 7 for i in range(n)))
    if not n:
        with pytest.raises(InvalidSpec, match="at least one voter"):
            StakeDistribution(pairs)
        return
    dist = StakeDistribution(pairs)
    assert written(dist) == reference_write_csv(dist)


def test_columnar_distributions_match_their_pairs(tmp_path):
    dist = stake.generate(stake.DistributionSpec("pareto", 500, 3))
    path = tmp_path / "stakes.csv"
    with open(path, "w") as fh:
        stake.write_csv(dist, fh)
    raw = list(zip(dist.voter_ids, dist.stakes().tolist()))
    for build in (lambda: dist, lambda: stake.read_csv(path),
                  lambda: stake.canonicalize(raw),
                  lambda: transform.apply_gamma(dist, 0.3),
                  lambda: transform.apply_gamma(dist, 1.0)):
        built = build()
        assert "entries" not in built.__dict__  # the pairs are built on first read
        pairs = StakeDistribution(built.entries)
        assert built == pairs and pairs == built
        assert hash(built) == hash(pairs) == hash((built.entries,))
        assert repr(built) == repr(pairs)
        assert pairs.voter_ids == built.voter_ids
        assert pairs.stakes().tolist() == built.stakes().tolist()
        assert not pairs.stakes().flags.writeable
        assert built.entries is built.entries
    assert dist != stake.canonicalize([("v0", 1.0)]) and dist != dist.entries


def test_repr_hash_and_immutability_are_kept():
    dist = stake.canonicalize([("b", 2), ("a", 1)])
    assert repr(dist) == "StakeDistribution(entries=(('a', 1.0), ('b', 2.0)))"
    hand = StakeDistribution((("a", 1), ("b", 2)))
    assert repr(hand) == "StakeDistribution(entries=(('a', 1.0), ('b', 2.0)))"
    assert hand == dist and hash(hand) == hash(dist)
    from_iterator = StakeDistribution(iter([("a", 1.0), ("b", 2.0)]))
    assert from_iterator == dist and from_iterator.voter_ids == ("a", "b")
    with pytest.raises(FrozenInstanceError):
        dist.voter_ids = ("x",)
    with pytest.raises(FrozenInstanceError):
        del dist.entries


@pytest.mark.parametrize("read", [
    lambda d: d.entries, hash, repr,
    lambda d: d == StakeDistribution((("a", 1.0), ("b", 2.0)))])
def test_a_distribution_is_a_dataclass_whose_entries_stay_lazy(tmp_path, read):
    path = tmp_path / "stakes.csv"
    path.write_text("voter_id,stake\nb,2\na,1\n")
    dist = stake.read_csv(path)
    assert dataclasses.is_dataclass(dist)
    assert [f.name for f in dataclasses.fields(dist)] == ["entries"]
    assert "entries" not in vars(dist)
    read(dist)
    assert vars(dist)["entries"] == (("a", 1.0), ("b", 2.0))
    moved = dataclasses.replace(dist, entries=[("c", 3.0)])
    assert moved == StakeDistribution((("c", 3.0),)) and moved.voter_ids == ("c",)
    assert dataclasses.asdict(dist) == {"entries": (("a", 1.0), ("b", 2.0))}


def test_total_past_the_float_range_is_invalid_spec():
    dist = stake.canonicalize([("a", 1e308), ("b", 1.5e308)])
    for call in (dist.total, lambda: stake.normalize(dist)):
        with pytest.raises(InvalidSpec, match="float range"):
            call()
