"""One count rule and one tolerance rule, both in qvkit.errors.

A count (k, m, max_iter, resolution, Sybil identities, and a generated
population's n) is a whole number >= 1, and a seed one >= 0: a real
number that is not a bool and equals an int, read exactly, so that a whole
float, numpy scalar or Fraction gives what the int gives. k outside
[1, n] keeps KOutOfRange. A count that sizes an array (n, and m with the
round's ballot count) is also bounded above, before any array is built,
by what numpy can index. A tolerance (tally's and validate_ballot's tol,
gamma_search's tol, verify_transform_properties' cap_tol) is one real
number >= 0, and its error names the argument.
"""

import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qvkit import attacks, canonicalize, stake, transform, utility as util
from qvkit.cli import main
from qvkit.errors import InvalidSpec, KOutOfRange, QvkitError, _whole_number
from qvkit.schemes import (
    BallotProfile,
    SchemeSpec,
    score,
    tally,
    validate_ballot,
    vscore,
)


@pytest.mark.parametrize("value", [1, 3, 3.0, np.int64(4), np.float64(2.0), 10**30,
                                   Fraction(10**400)])
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

    @pytest.mark.parametrize("m, resolution", [
        (2, 2 ** 22),  # 2**22 + 1 points
        (3, 2895),  # the least resolution past the cap at m = 3
        *((m, r) for m in (2, 3, 4) for r in (10 ** 400, Fraction(10 ** 400)))])
    def test_an_oracle_grid_past_2_22_points_is_built_by_no_array(self, m, resolution):
        problem = util.UtilityProblem((1,) * m, (0,) * m, (1,) * m, 4.0, "qv2")
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpec, match=r"at most 2\*\*22 points"):
                util.brute_force_oracle(problem, resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_a_one_proposal_grid_is_one_point_at_any_resolution(self):
        problem = util.UtilityProblem((1,), (0,), (1,), 4.0, "qv2")
        want = util.brute_force_oracle(problem)
        for resolution in (2 ** 63, 10 ** 400, Fraction(10 ** 400)):
            assert util.brute_force_oracle(problem, resolution=resolution) == want

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


def three_voters():
    return canonicalize([("a", 1), ("b", 4), ("c", 99)])


def two_qv2_voters():
    return canonicalize([("a", 4.0), ("b", 9.0)])


BALLOTS = [BallotProfile("a", (2.0, 0.0)), BallotProfile("b", (1.0, 2.0))]
HONEST = [BallotProfile("x", (4.0, 0.0)), BallotProfile("y", (0.0, 4.0))]
COLLUDING = [BallotProfile("x", (2.0, 2.0)), BallotProfile("y", (2.0, 2.0))]
ORACLE_PROBLEM = util.UtilityProblem((1, 2), (0, 0), (1, 1), 4.0, "qv2")

#: slot name -> (call of the count, a valid whole value, the least value,
#: the error below the least)
COUNT_SLOTS = {
    "generate n": (lambda v: stake.generate(stake.DistributionSpec("uniform", v, 1)),
                   3, 1, InvalidSpec),
    "generate seed": (lambda v: stake.generate(stake.DistributionSpec("pareto", 4, v)),
                      7, 0, InvalidSpec),
    "tally m": (lambda v: tally(SchemeSpec("qv2"), two_qv2_voters(), BALLOTS, v),
                2, 1, InvalidSpec),
    "score m": (lambda v: score(BALLOTS, v), 2, 1, InvalidSpec),
    "vscore m": (lambda v: vscore(SchemeSpec("qv1"), BALLOTS, v), 2, 1, InvalidSpec),
    "collusion_gain m": (lambda v: attacks.collusion_gain([4.0, 4.0], v, HONEST,
                                                        COLLUDING),
                         2, 1, InvalidSpec),
    "top_share k": (lambda v: transform.top_share(three_voters(), v, 0.5),
                    2, 1, KOutOfRange),
    "sybil_gain k": (lambda v: attacks.sybil_gain(SchemeSpec("qv2"), 9.0, v),
                     3, 1, InvalidSpec),
    "max_iter": (lambda v: transform.gamma_search(three_voters(), 1, 0.5, max_iter=v),
                 3, 1, InvalidSpec),
    "resolution": (lambda v: util.brute_force_oracle(ORACLE_PROBLEM, resolution=v),
                   150, 100, InvalidSpec),
}


def bits(result):
    """A result in a form whose equality is bit for bit."""
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    return repr(result)


class TestCountSlots:
    @pytest.mark.parametrize("slot", COUNT_SLOTS)
    @pytest.mark.parametrize("as_type", [float, np.float64, np.int64, Fraction])
    def test_a_whole_value_of_any_type_is_the_int(self, slot, as_type):
        call, whole, _, _ = COUNT_SLOTS[slot]
        assert bits(call(as_type(whole))) == bits(call(whole))

    @pytest.mark.parametrize("slot", COUNT_SLOTS)
    @pytest.mark.parametrize("value", [2.5, True, np.True_, "3", None])
    def test_anything_else_is_invalid_spec(self, slot, value):
        with pytest.raises(InvalidSpec):
            COUNT_SLOTS[slot][0](value)

    @pytest.mark.parametrize("slot", COUNT_SLOTS)
    def test_below_the_least_value(self, slot):
        call, _, least, error = COUNT_SLOTS[slot]
        with pytest.raises(error):
            call(least - 1)

    def test_a_count_rule_message_names_its_least(self):
        with pytest.raises(InvalidSpec, match=r"^n must be a whole number >= 1, got 0$"):
            COUNT_SLOTS["generate n"][0](0)
        with pytest.raises(InvalidSpec,
                           match=r"^seed must be a whole number >= 0, got -1$"):
            COUNT_SLOTS["generate seed"][0](-1)

    # only slots that size no array; those that do are bounded below
    def test_a_fraction_past_the_float_range(self):
        huge = Fraction(10 ** 400)
        with pytest.raises(KOutOfRange):
            COUNT_SLOTS["top_share k"][0](huge)
        for k in (huge, 10 ** 400):
            with pytest.raises(InvalidSpec):
                COUNT_SLOTS["sybil_gain k"][0](k)
        dist = three_voters()
        assert transform.gamma_search(dist, 1, 0.5, max_iter=huge) == \
            transform.gamma_search(dist, 1, 0.5)


#: the slots whose count sizes an array, and an empty round's m (B = 0)
SIZE_SLOTS = {**{slot: COUNT_SLOTS[slot][0] for slot in (
    "generate n", "tally m", "score m", "vscore m", "collusion_gain m")},
    "score m, no ballots": lambda v: score([], v)}


class TestSizeSlots:
    """A count that sizes an array is bounded before any array is built:
    its float64 arrays must be ones that numpy can index (a dimension and
    the byte size within np.intp), with the round's ballot count B taken
    into account for m. Counts within that range but past the available
    memory are never passed: numpy would try to allocate them."""

    @pytest.mark.parametrize("slot", SIZE_SLOTS)
    @pytest.mark.parametrize("value", [10 ** 400, Fraction(10 ** 400), 2 ** 63, 2 ** 62])
    def test_a_count_past_the_index_range_is_built_by_no_array(self, slot, value):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpec, match=r"^[nm] must be a whole number <= \d+, got "):
                SIZE_SLOTS[slot](value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_the_bound_on_m_counts_the_ballots(self):
        most = np.iinfo(np.intp).max // 8
        with pytest.raises(InvalidSpec, match=f"<= {most // 3}, got {most // 3 + 1}$"):
            score(BALLOTS, most // 3 + 1)

    @pytest.mark.parametrize("argv, scenario", [
        (["generate", "--kind", "uniform", "--n", str(10 ** 400), "--seed", "1"], None),
        (["tally", "--scheme", "qv2", "--stakes", "{stakes}", "--ballots", "{ballots}",
          "--proposals", str(10 ** 400)], None),
        (["attack", "collusion", "--scenario", "{scenario}"],
         f'{{"stakes": [4.0], "proposals": {10 ** 400}, "honest_plan": [[2.0, 0.0]], '
         f'"colluding_plan": [[2.0, 0.0]]}}'),
    ], ids=["generate", "tally", "attack collusion"])
    def test_the_cli_prints_one_error_object(self, tmp_path, argv, scenario):
        paths = {"stakes": tmp_path / "s.csv", "ballots": tmp_path / "b.json",
                 "scenario": tmp_path / "c.json"}
        paths["stakes"].write_text("voter_id,stake\na,4\n")
        paths["ballots"].write_text("[]")
        paths["scenario"].write_text(scenario or "")
        out, err = io.StringIO(), io.StringIO()
        assert main([arg.format(**paths) for arg in argv], stdout=out, stderr=err) == 1
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == "InvalidSpec"


#: slot name -> (call of the tolerance, the argument's name)
TOL_SLOTS = {
    "tally": (lambda t: tally(SchemeSpec("qv2"), two_qv2_voters(), BALLOTS, 2, tol=t),
              "tol"),
    "validate_ballot": (lambda t: validate_ballot(SchemeSpec("qv2"), 4.0, BALLOTS[0],
                                                  tol=t), "tol"),
    "gamma_search": (lambda t: transform.gamma_search(three_voters(), 1, 0.5, tol=t),
                     "tol"),
    "cap_tol": (lambda t: transform.verify_transform_properties(
        three_voters(), 0.5, alpha=0.9, cap_tol=t), "cap_tol"),
}


class TestTolSlots:
    @pytest.mark.parametrize("slot", TOL_SLOTS)
    def test_zero_is_accepted(self, slot):
        TOL_SLOTS[slot][0](0)

    @pytest.mark.parametrize("slot", TOL_SLOTS)
    @pytest.mark.parametrize("value", [-1e-9, math.nan, "x", None])
    def test_anything_else_is_invalid_spec_naming_the_argument(self, slot, value):
        call, name = TOL_SLOTS[slot]
        with pytest.raises(InvalidSpec, match=f"^{name} must be "):
            call(value)

    def test_cap_tol_is_checked_only_with_alpha(self):
        dist = three_voters()
        assert "impact_capped" not in transform.verify_transform_properties(
            dist, 0.5, cap_tol=-1.0)

    def test_a_bad_alpha_is_named_alone(self):
        with pytest.raises(InvalidSpec, match="^alpha must be "):
            transform.gamma_search(three_voters(), 1, math.nan)
        with pytest.raises(InvalidSpec, match="^alpha must be "):
            transform.verify_transform_properties(three_voters(), 0.5, alpha="x")
