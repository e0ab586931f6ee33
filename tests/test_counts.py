"""Counts (k, m, resolution, identities) are whole numbers >= 1 everywhere."""

import math

import numpy as np
import pytest

from qvkit import attacks, canonicalize, transform, utility as util
from qvkit.errors import InvalidSpec, KOutOfRange, QvkitError, _whole_number
from qvkit.schemes import BallotProfile, SchemeSpec, score, tally, vscore


@pytest.mark.parametrize("value", [1, 3, 3.0, np.int64(4), np.float64(2.0), 10**30])
def test_whole_numbers_pass_as_int(value):
    got = _whole_number(value, "n")
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [0, -1, 0.5, 1.5, 150.5, math.nan, math.inf, -math.inf,
                                   True, False, np.bool_(True), "3", None, 2 + 0j])
def test_everything_else_is_invalid_spec(value):
    with pytest.raises(InvalidSpec, match="n must be a whole number >= 1"):
        _whole_number(value, "n")


def two_voters():
    return canonicalize([("a", 1), ("b", 99)])


class TestTransform:
    def test_nan_alpha(self):
        with pytest.raises(InvalidSpec):
            transform.gamma_search(two_voters(), 1, math.nan)

    @pytest.mark.parametrize("k", [1.5, True])
    def test_k_that_is_no_whole_number(self, k):
        dist = two_voters()
        for call in (lambda: transform.gamma_search(dist, k, 0.6),
                     lambda: transform.top_share(dist, k, 0.5),
                     lambda: transform.top_share_derivative(dist, k, 0.5)):
            with pytest.raises(InvalidSpec):
                call()

    @pytest.mark.parametrize("max_iter", [-1, 0, 1.5, True, "3", None])
    def test_max_iter_that_is_no_whole_number(self, max_iter):
        with pytest.raises(InvalidSpec, match="max_iter must be a whole number >= 1"):
            transform.gamma_search(two_voters(), 1, 0.6, max_iter=max_iter)

    def test_whole_float_max_iter_is_the_int(self):
        dist = two_voters()
        assert transform.gamma_search(dist, 1, 0.6, max_iter=3.0) == \
            transform.gamma_search(dist, 1, 0.6, max_iter=3)

    def test_k_outside_the_population_keeps_its_error(self):
        for k in (0, 3, math.nan):
            with pytest.raises(KOutOfRange):
                transform.gamma_search(two_voters(), k, 0.6)

    def test_whole_float_k_is_the_int(self):
        dist = two_voters()
        assert transform.gamma_search(dist, 1.0, 0.6) == transform.gamma_search(dist, 1, 0.6)
        assert transform.top_share(dist, np.int64(1), 0.5) == transform.top_share(dist, 1, 0.5)


class TestCountsElsewhere:
    def test_oracle_resolution(self):
        problem = util.UtilityProblem((1, 1), (0, 0), (1, 1), 1.0, "qv2")
        with pytest.raises(QvkitError):
            util.brute_force_oracle(problem, resolution=150.5)
        assert util.brute_force_oracle(problem, resolution=150.0) == \
            util.brute_force_oracle(problem, resolution=150)

    @pytest.mark.parametrize("m", [-1, 0, 1.5])
    def test_proposal_counts(self, m):
        dist = canonicalize([("a", 4.0)])
        with pytest.raises(QvkitError):
            tally(SchemeSpec("qv2"), dist, [], m)
        with pytest.raises(QvkitError):
            score([], m)
        with pytest.raises(QvkitError):
            vscore(SchemeSpec("qv1"), [], m)

    def test_whole_float_proposal_count(self):
        dist = canonicalize([("a", 4.0)])
        ballots = [BallotProfile("a", (2.0, 0.0))]
        assert tally(SchemeSpec("qv2"), dist, ballots, 2.0) == \
            tally(SchemeSpec("qv2"), dist, ballots, 2)
        assert score(ballots, 2.0).tolist() == [2.0, 0.0]
        assert vscore(SchemeSpec("qv2"), ballots, np.float64(2.0)).tolist() == [2.0, 0.0]

    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf, True])
    def test_sybil_identities(self, k):
        with pytest.raises(QvkitError):
            attacks.sybil_gain(SchemeSpec("qv2"), 100.0, k)

    def test_sybil_whole_float_identities(self):
        assert attacks.sybil_gain(SchemeSpec("qv2"), 9.0, 9.0) == \
            attacks.sybil_gain(SchemeSpec("qv2"), 9.0, 9)
