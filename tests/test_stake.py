import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qvkit import stake, transform
from qvkit.errors import (
    DuplicateVoter,
    GammaOutOfRange,
    InvalidSpec,
    NonPositiveStake,
    ParseError,
)
from qvkit.schemes import SchemeSpec, voting_credit

# sha256 of repr(entries) for pareto(shape=1.16, scale=1.0), n=1000, seed=7;
# pinned from one reference run of the PCG64-backed generator
PARETO_GOLDEN = "b002f1b3a15c883b92cde6e57eb43c5d4df8171ab90e00b389e298266476c27a"


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


def test_canonicalize_finds_duplicates_after_str_coercion():
    with pytest.raises(DuplicateVoter) as exc:
        stake.canonicalize([(1, 1.0), ("1", 2.0)])
    assert exc.value.voter_id == "1"


def test_canonicalize_rejects_empty_input():
    with pytest.raises(InvalidSpec):
        stake.canonicalize([])
    with pytest.raises(InvalidSpec):
        stake.canonicalize(iter(()))


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
    digest = hashlib.sha256(repr(dist.entries).encode()).hexdigest()
    assert digest == PARETO_GOLDEN


def test_generate_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        stake.generate(stake.DistributionSpec(kind="uniform", n=3, seed=0,
                                              lo=5.0, hi=1.0))
    with pytest.raises(InvalidSpec):
        stake.generate(stake.DistributionSpec(kind="pareto", n=3, seed=0,
                                              shape=-1.0))
    with pytest.raises(InvalidSpec):
        stake.generate(stake.DistributionSpec(kind="constant", n=0, seed=0))


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
def test_generate_rejects_a_non_integer_n(n):
    with pytest.raises(InvalidSpec):
        stake.generate(stake.DistributionSpec(kind="uniform", n=n, seed=1))


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
