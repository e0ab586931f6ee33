import math

import numpy as np
import pytest

from qvkit import attacks
from qvkit.errors import CreditMismatch, InvalidSpec, LengthMismatch
from qvkit.schemes import BallotProfile, SchemeSpec
from qvkit.stake import canonicalize

# pinned from one reference run of the qv2 last-voter scenario below
LAST_VOTER_GOLDEN_GAIN = 1.0173288571044725


def spread_plans(n):
    """n unit-stake voters over n proposals: concentrated vs evenly spread."""
    honest = [BallotProfile(f"v{i}", tuple(1.0 if j == i else 0.0
                                           for j in range(n)))
              for i in range(n)]
    colluding = [BallotProfile(f"v{i}", (1.0 / n,) * n) for i in range(n)]
    return honest, colluding


class TestCollusion:
    def test_three_voter_sqrt3(self):
        honest, colluding = spread_plans(3)
        report = attacks.collusion_gain([1.0] * 3, 3, honest, colluding)
        assert report.gain == pytest.approx(math.sqrt(3), abs=1e-12)
        assert report.baseline == (1.0, 1.0, 1.0)
        assert np.allclose(report.attacked, math.sqrt(3), rtol=0, atol=1e-12)

    def test_two_voter_sqrt2(self):
        honest, colluding = spread_plans(2)
        report = attacks.collusion_gain([1.0] * 2, 2, honest, colluding)
        assert report.gain == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_sqrt_n_generalizes(self):
        for n in range(2, 11):
            honest, colluding = spread_plans(n)
            report = attacks.collusion_gain([1.0] * n, n, honest, colluding)
            assert report.gain == pytest.approx(math.sqrt(n), abs=1e-12)

    def test_identical_plans_gain_one(self):
        honest, _ = spread_plans(3)
        report = attacks.collusion_gain([1.0] * 3, 3, honest, honest)
        assert report.gain == pytest.approx(1.0, abs=1e-15)

    def test_untargeted_proposals_reported_as_none(self):
        honest = [BallotProfile("a", (1.0, 0.0))]
        colluding = [BallotProfile("a", (0.5, 0.5))]
        report = attacks.collusion_gain([1.0], 2, honest, colluding)
        ratios = report.narrative["per_proposal_ratio"]
        assert ratios[1] is None
        assert ratios[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_plan_validation(self):
        honest, colluding = spread_plans(2)
        with pytest.raises(LengthMismatch):
            attacks.collusion_gain([1.0], 2, honest, colluding)
        bad = [BallotProfile("v0", (2.0, 0.0)), honest[1]]
        with pytest.raises(CreditMismatch):
            attacks.collusion_gain([1.0] * 2, 2, bad, colluding)

    def test_no_target_rejected(self):
        # zero-stake ballots aren't possible, so force an all-abstain plan
        honest = [BallotProfile("a", (0.0, 0.0))]
        with pytest.raises(Exception):
            attacks.collusion_gain([1.0], 2, honest, honest)

    def test_a_plan_that_supports_no_proposal(self):
        # every valid ballot spends a positive credit, so only the empty
        # plan supports nothing
        with pytest.raises(InvalidSpec, match="supports no proposal"):
            attacks.collusion_gain([], 2, [], [])

    @pytest.mark.parametrize("stakes, honest, colluding", [
        (3, [], []),  # stakes that are not a vector
        ([[1.0]], [BallotProfile("a", (1.0,))], [BallotProfile("a", (1.0,))]),
        ([1.0], 5, []),  # a plan that is not a list
        ([1.0], [5], [BallotProfile("a", (1.0,))]),  # nor a list of ballots
    ])
    def test_arguments_that_are_not_plans_are_typed_errors(self, stakes, honest, colluding):
        with pytest.raises(InvalidSpec):
            attacks.collusion_gain(stakes, 1, honest, colluding)

    def test_plan_length_names_the_mismatching_plan(self):
        honest, colluding = spread_plans(2)
        with pytest.raises(LengthMismatch) as exc:
            attacks.collusion_gain([1.0] * 2, 2, honest, colluding[:1])
        assert (exc.value.expected, exc.value.actual) == (2, 1)

    def test_checks_keep_validate_ballot_and_vscore_errors(self):
        honest, colluding = spread_plans(2)
        with pytest.raises(InvalidSpec, match="stake must be one real number > 0"):
            attacks.collusion_gain([1.0, -1.0], 2, honest, colluding)
        short = [BallotProfile("v0", (1.0,)), honest[1]]
        with pytest.raises(LengthMismatch, match="ballot of 'v0'"):
            attacks.collusion_gain([1.0] * 2, 2, short, colluding)
        with pytest.raises(CreditMismatch):  # a bad ballot before a short one
            attacks.collusion_gain([1.0] * 2, 2, short, [colluding[0],
                                                         BallotProfile("v1", (2.0, 0))])


class TestReportFloats:
    @staticmethod
    def assert_python_floats(report):
        for values in (report.baseline, report.attacked):
            assert all(type(v) is float for v in values)
        for values in report.narrative.values():
            if isinstance(values, list):
                assert all(type(v) in (float, int, type(None)) for v in values)
        assert "np." not in repr(report)

    def test_collusion(self):
        honest = [BallotProfile("a", (1.0, 0.0)), BallotProfile("b", (0.0, 4.0))]
        colluding = [BallotProfile("a", (0.5, 0.5)), BallotProfile("b", (2.0, 2.0))]
        report = attacks.collusion_gain([1.0, 4.0], 2, honest, colluding)
        self.assert_python_floats(report)
        assert report.baseline == (1.0, 2.0)
        assert report.narrative["targeted_proposals"] == [0, 1]

    @pytest.mark.parametrize("scheme", ["qv1", "qv2"])
    def test_last_voter(self, scheme):
        stakes = canonicalize([("whale", 100.0), ("contester", 1.0)])
        credit = 100.0 if scheme == "qv1" else 10.0
        ballots = [BallotProfile("whale", (credit, 0.0)),
                   BallotProfile("contester", (0.5, 0.5))]
        report = attacks.last_voter_advantage(scheme, ballots, stakes, 4.0, (1.0, 2.0),
                                              aligned_fraction=(0.5, 0.25))
        self.assert_python_floats(report)


class TestSybil:
    def test_sqrt_k_for_sqrt_families(self):
        for family, kw in (("qv1", {}), ("qv2", {}), ("qv3", {})):
            scheme = SchemeSpec(family, **kw)
            for k in (1, 2, 4, 9, 25, 100):
                for s in (0.5, 1.0, 9.0, 1e6):
                    assert attacks.sybil_gain(scheme, s, k) == pytest.approx(
                        math.sqrt(k), rel=1e-12)

    def test_gpv_power_law(self):
        scheme = SchemeSpec("gpv", gamma=0.25)
        # gain = k * (s/k)^0.25 / s^0.25 = k^0.75
        assert attacks.sybil_gain(scheme, 16.0, 16) == pytest.approx(
            16 ** 0.75, rel=1e-12)

    def test_linear_immune(self):
        scheme = SchemeSpec("linear")
        for k in (1, 3, 50):
            assert attacks.sybil_gain(scheme, 7.0, k) == 1.0

    def test_k_one_is_identity(self):
        assert attacks.sybil_gain(SchemeSpec("qv2"), 9.0, 1) == pytest.approx(
            1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            attacks.sybil_gain(SchemeSpec("qv2"), 9.0, 0)
        with pytest.raises(InvalidSpec):
            attacks.sybil_gain(SchemeSpec("qv2"), 0.0, 2)


class TestLastVoter:
    def board(self):
        stakes = canonicalize([("whale", 100.0), ("contester", 1.0)])
        ballots = [BallotProfile("whale", (10.0, 0.0)),
                   BallotProfile("contester", (0.5, 0.5))]
        return stakes, ballots

    def test_golden_scenario(self):
        stakes, ballots = self.board()
        report = attacks.last_voter_advantage(
            "qv2", ballots, stakes, 4.0, (1.0, 1.0),
            aligned_fraction=(0.5, 0.5))
        assert report.gain == pytest.approx(LAST_VOTER_GOLDEN_GAIN, rel=1e-9)
        assert report.narrative["naive_utility"] == pytest.approx(
            1.3768115942028984, rel=1e-12)
        assert report.narrative["optimized_utility"] == pytest.approx(
            1.4006701655786216, rel=1e-12)
        # the cheap-to-sway proposal (small external mass) soaks up the stake
        assert report.attacked[1] > report.attacked[0]
        assert math.fsum(report.attacked) == pytest.approx(2.0, abs=1e-9)

    def test_fully_aligned_board_is_flat(self):
        stakes, ballots = self.board()
        report = attacks.last_voter_advantage("qv2", ballots, stakes, 4.0,
                                              (1.0, 1.0))
        assert report.gain == pytest.approx(1.0, abs=1e-12)
        assert report.narrative["degenerate_objective"]

    def test_symmetric_board_gains_nothing(self):
        stakes = canonicalize([("a", 4.0), ("b", 4.0)])
        ballots = [BallotProfile("a", (1.0, 1.0)), BallotProfile("b", (1.0, 1.0))]
        report = attacks.last_voter_advantage(
            "qv2", ballots, stakes, 9.0, (5.0, 5.0),
            aligned_fraction=(0.0, 0.0))
        assert report.gain == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(report.attacked, 1.5, rtol=0, atol=1e-9)

    def test_gain_never_below_one(self, rng):
        # the optimizer can always replicate the naive split
        for _ in range(10):
            m = int(rng.integers(2, 4))
            n_prior = int(rng.integers(1, 4))
            stakes = canonicalize([(f"p{i}", float(rng.uniform(1, 50)))
                                   for i in range(n_prior)])
            scheme_family = "qv1" if rng.random() < 0.5 else "qv2"
            scheme = SchemeSpec(scheme_family)
            ballots = []
            for vid, s in stakes.entries:
                credit = scheme.g(s)
                weights = rng.dirichlet(np.ones(m))
                if scheme_family == "qv1":
                    ballots.append(BallotProfile(vid, tuple(weights * credit)))
                else:
                    ballots.append(BallotProfile(vid, tuple(weights * credit)))
            report = attacks.last_voter_advantage(
                scheme_family, ballots, stakes, float(rng.uniform(1, 20)),
                tuple(rng.uniform(0.5, 5.0, m)),
                aligned_fraction=tuple(rng.uniform(0, 1, m)))
            assert report.gain >= 1.0 - 1e-9

    def test_empty_board(self):
        report = attacks.last_voter_advantage(
            "qv2", [], canonicalize([("x", 1.0)]), 4.0, (3.0, 1.0),
            aligned_fraction=(0.0, 0.0))
        # with no external votes every allocation wins outright
        assert report.narrative["external_total"] == [0.0, 0.0]
        assert report.gain == 1.0
        assert report.narrative["optimized_utility"] == 4.0
        for family in ("qv1", "qv2"):
            report = attacks.last_voter_advantage(family, [], None, 4.0, [1.0, 2.0])
            assert report.gain == 1.0
            assert report.narrative["naive_utility"] == 3.0
            assert report.narrative["optimized_utility"] == 3.0
            assert report.narrative["degenerate_objective"]

    @pytest.mark.parametrize("family", ["qv1", "qv2"])
    def test_profits_scaled_by_a_power_of_two_keep_the_baseline(self, family):
        # the naive split's sums of these profits, squared for qv1, leave the
        # float range at 2**600 and underflow at 2**-600
        stakes = canonicalize([("whale", 100.0), ("contester", 1.0)])
        ballots = [BallotProfile("whale", (60.0, 30.0, 10.0) if family == "qv1"
                                 else (6.0, 3.0, 1.0)),
                   BallotProfile("contester", (0.5, 0.0, 0.5))]

        def report(scale):
            return attacks.last_voter_advantage(
                family, ballots, stakes, 4.0, [p * scale for p in (1.0, 2.5, 0.75)],
                aligned_fraction=(0.5, 0.25, 0.9))

        want = report(1.0)
        assert want.gain > 1.0
        for scale in (2.0 ** 600, 2.0 ** -600):
            got = report(scale)
            assert got.baseline == want.baseline
            assert got.narrative["naive_utility"] == want.narrative["naive_utility"] * scale
            # maximize's qv1 steps are not exact under scaling: its last bits may move
            assert got.gain == pytest.approx(want.gain, rel=1e-12)

    @pytest.mark.parametrize("profit", [1e200, 1e-160, 1e-200])
    def test_equal_profits_far_from_one_split_as_ones_do(self, profit):
        ones, far = (attacks.last_voter_advantage("qv1", [], None, 4.0, [p, p])
                     for p in (1.0, profit))
        assert far.baseline == pytest.approx(ones.baseline, rel=1e-15)
        assert far.gain == ones.gain

    def test_a_naive_utility_past_the_float_range_is_invalid_spec(self):
        with pytest.raises(InvalidSpec, match="utility sums leave the float range"):
            attacks.last_voter_advantage("qv2", [], None, 4.0, [1e308, 1e308])

    @pytest.mark.parametrize("family", ["qv1", "qv2"])
    def test_empty_board_with_a_zero_profit(self, family):
        # the naive split leaves x_2 = 0 on b_2 = 0, a term of profit 0
        report = attacks.last_voter_advantage(family, [], None, 4.0, [1.0, 0.0])
        assert report.baseline == (2.0, 0.0)
        assert report.gain == 1.0
        assert report.narrative["naive_utility"] == 1.0
        assert report.narrative["optimized_utility"] == 1.0

    @pytest.mark.parametrize("profits, fraction, error, message", [
        ((1.0, 1.0), (0.5,), LengthMismatch, "aligned_fraction"),
        ((1.0, 1.0), (0.5, 1.5), InvalidSpec, "must lie in"),
        ((1.0, 1.0), (-0.1, 0.5), InvalidSpec, "must lie in"),
        ((0.0, 0.0), (0.5, 0.5), InvalidSpec, "positive profit"),
        (3.0, None, InvalidSpec, "profits must be a vector"),
        ("ab", None, InvalidSpec, "profits must be finite real numbers"),
        (None, None, InvalidSpec, "profits must be finite real numbers"),
    ])
    def test_bad_profits_or_fractions(self, profits, fraction, error, message):
        stakes, ballots = self.board()
        with pytest.raises(error, match=message):
            attacks.last_voter_advantage("qv2", ballots, stakes, 4.0, profits,
                                         aligned_fraction=fraction)

    def test_scheme_restriction(self):
        with pytest.raises(InvalidSpec):
            attacks.last_voter_advantage("qv3", [], canonicalize([("x", 1.0)]),
                                         4.0, (1.0,))
