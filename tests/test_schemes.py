import copy
import dataclasses
import gc
import inspect
import itertools
import math
import pickle
import sys
import tracemalloc
import warnings
from array import array
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvkit import DistributionSpec, canonicalize, generate, schemes
from qvkit.errors import (
    CreditMismatch,
    DuplicateVoter,
    IllegalEntry,
    InvalidBallot,
    InvalidSpec,
    LengthMismatch,
    NegativeUnderYesAbstain,
    QvkitError,
    UnknownVoter,
)
from qvkit.schemes import (
    DEFAULT_TOL,
    BallotProfile,
    SchemeSpec,
    TallyResult,
    score,
    tally,
    validate_ballot,
    voting_credit,
    vscore,
)
from qvkit.stake import StakeDistribution


class TestSchemeSpec:
    def test_family_mode_consistency(self):
        assert SchemeSpec("qv1").stake_mode == "split"
        assert SchemeSpec("qv2").stake_mode == "split"
        assert SchemeSpec("qv3").stake_mode == "unsplit"
        assert SchemeSpec("linear").stake_mode == "split"
        assert SchemeSpec("linear", stake_mode="unsplit").stake_mode == "unsplit"

    def test_mode_override_rejected(self):
        with pytest.raises(InvalidSpec):
            SchemeSpec("qv3", stake_mode="split")
        with pytest.raises(InvalidSpec):
            SchemeSpec("qv1", stake_mode="unsplit")

    @pytest.mark.parametrize("kwargs, message", [
        ({"family": "cubic"}, "unknown scheme family 'cubic'"),
        ({"family": "qv2", "polarity": "yes-no"}, "unknown polarity 'yes-no'"),
        ({"family": "qv1", "gamma": 0.5}, "gamma only applies to gpv, not qv1"),
        ({"family": "linear", "stake_mode": "half"}, "unknown stake mode 'half'"),
    ])
    def test_rejected_specs(self, kwargs, message):
        with pytest.raises(InvalidSpec, match=message):
            SchemeSpec(**kwargs)

    def test_gpv_gamma_range(self):
        SchemeSpec("gpv", gamma=0.25)
        with pytest.raises(Exception):
            SchemeSpec("gpv", gamma=1.5)
        with pytest.raises(Exception):
            SchemeSpec("gpv")


class TestVotingCredit:
    def test_qv2_square_root(self):
        assert voting_credit(SchemeSpec("qv2"), 9) == 3.0

    def test_linear_identity(self):
        assert voting_credit(SchemeSpec("linear"), 7) == 7.0

    def test_gpv_quarter_power(self):
        assert voting_credit(SchemeSpec("gpv", gamma=0.25), 16) == pytest.approx(2.0)


class TestValidateBallot:
    def test_split_exact_credit(self):
        validate_ballot(SchemeSpec("qv2"), 9, BallotProfile("a", (1, 2, 0)))

    def test_unsplit_membership(self):
        validate_ballot(SchemeSpec("qv3"), 9, BallotProfile("a", (3, 0, 3)))

    def test_split_overspend(self):
        with pytest.raises(CreditMismatch) as exc:
            validate_ballot(SchemeSpec("qv2"), 9, BallotProfile("a", (2, 2, 0)))
        assert exc.value.expected == 3.0
        assert exc.value.actual == 4.0

    def test_split_underspend_rejected_unless_allowed(self):
        ballot = BallotProfile("a", (1, 0, 0))
        with pytest.raises(CreditMismatch):
            validate_ballot(SchemeSpec("qv2"), 9, ballot)
        validate_ballot(SchemeSpec("qv2"), 9, ballot, allow_undervote=True)

    def test_unsplit_partial_entry(self):
        with pytest.raises(IllegalEntry):
            validate_ballot(SchemeSpec("qv3"), 9, BallotProfile("a", (1.5, 0)))

    def test_negative_under_yes_abstain(self):
        with pytest.raises(NegativeUnderYesAbstain):
            validate_ballot(SchemeSpec("qv1"), 4, BallotProfile("a", (-2, 2)))

    def test_signed_split_consumes_credit(self):
        scheme = SchemeSpec("qv1", polarity="yes-no-abstain")
        validate_ballot(scheme, 4, BallotProfile("a", (-2, 2)))
        with pytest.raises(CreditMismatch):
            validate_ballot(scheme, 4, BallotProfile("a", (-3, 2)))

    def test_a_spend_past_the_float_range_is_a_credit_mismatch(self):
        with pytest.raises(CreditMismatch) as exc:
            validate_ballot(SchemeSpec("linear"), 1.0, BallotProfile("a", (1e308, 1e308)))
        assert exc.value.actual == math.inf

    def test_an_overflowing_spend_keeps_ballot_order_in_a_tally(self):
        dist = canonicalize([("a", 1.0), ("b", 1.0), ("c", 1.0)])
        over, overflow = BallotProfile("a", (5.0, 0.0)), BallotProfile("b", (1e308, 1e308))
        for ballots, voter, actual in [([over, overflow], "a", 5.0),
                                       ([overflow, over], "b", math.inf)]:
            with pytest.raises(InvalidBallot) as exc:
                tally(SchemeSpec("linear"), dist, ballots, 2)
            assert exc.value.voter_id == voter
            assert isinstance(exc.value.cause, CreditMismatch)
            assert exc.value.cause.actual == actual

    @pytest.mark.parametrize("profile", [None, 5, ("a", (2.0, 0.0)),
                                         SimpleNamespace(voter_id="a", allocations=("x", 0.0)),
                                         SimpleNamespace(voter_id="a", allocations=("1.5", 0.0))])
    def test_a_profile_that_is_not_a_ballot_is_an_invalid_spec(self, profile):
        with pytest.raises(InvalidSpec, match="BallotProfile"):
            validate_ballot(SchemeSpec("qv2"), 4.0, profile)
        with pytest.raises(InvalidSpec, match="stake"):  # the stake is checked first
            validate_ballot(SchemeSpec("qv2"), -4.0, profile)

    def test_all_on_one_proposal_always_valid(self):
        for family, kw in (("linear", {}), ("qv1", {}), ("qv2", {}),
                           ("gpv", {"gamma": 0.3})):
            scheme = SchemeSpec(family, **kw)
            for stake in (0.5, 1.0, 9.0, 1234.5):
                credit = voting_credit(scheme, stake)
                validate_ballot(scheme, stake,
                                BallotProfile("a", (credit, 0.0, 0.0)))


class TestScoreVscore:
    def test_score_sums(self):
        assert score([BallotProfile("a", (1, 0)), BallotProfile("b", (2, 0))],
                     2).tolist() == [3, 0]

    def test_score_empty(self):
        assert score([], 3).tolist() == [0, 0, 0]

    def test_score_signed(self):
        assert score([BallotProfile("a", (1, -1)), BallotProfile("b", (0, 1))],
                     2).tolist() == [1, 0]

    def test_qv1_concentrated_vscore(self):
        out = vscore(SchemeSpec("qv1"), [BallotProfile("a", (3, 0, 0))], 3)
        assert out[0] == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_qv1_spread_vscore(self):
        ballots = [BallotProfile(v, (1, 1, 1)) for v in "abc"]
        assert vscore(SchemeSpec("qv1"), ballots, 3).tolist() == [3, 3, 3]

    def test_identity_f_families_match_score(self, rng):
        for family, kw in (("linear", {}), ("qv2", {}), ("qv3", {}),
                           ("gpv", {"gamma": 0.7})):
            scheme = SchemeSpec(family, **kw)
            ballots = [BallotProfile(f"v{i}", rng.random(4))
                       for i in range(6)]
            assert np.allclose(vscore(scheme, ballots, 4), score(ballots, 4),
                               rtol=0, atol=0)

    def test_qv1_negative_allocation_signed_impact(self):
        scheme = SchemeSpec("qv1", polarity="yes-no-abstain")
        out = vscore(scheme, [BallotProfile("a", (-4.0, 0.0))], 2)
        assert out[0] == -2.0

    @pytest.mark.parametrize("tally_of", [score, lambda ballots, m: vscore(
        SchemeSpec("qv1"), ballots, m)])
    def test_a_ballot_of_another_length_is_a_length_mismatch(self, tally_of):
        ballots = [BallotProfile("a", (1, 0)), BallotProfile("b", (1, 0, 0)),
                   BallotProfile("c", (1,))]
        with pytest.raises(LengthMismatch, match="ballot of 'b'") as exc:
            tally_of(ballots, 2)
        assert (exc.value.expected, exc.value.actual) == (2, 3)


class TestTally:
    def test_linear_identity(self):
        dist = canonicalize([("v1", 1), ("v2", 2)])
        result = tally(SchemeSpec("linear"), dist,
                       [BallotProfile("v1", (1, 0)), BallotProfile("v2", (0, 2))], 2)
        assert result.score == (1, 2)
        assert result.vscore == (1, 2)

    def test_qv3_unsplit(self):
        dist = canonicalize([("v1", 4), ("v2", 9)])
        result = tally(SchemeSpec("qv3"), dist,
                       [BallotProfile("v1", (2, 2)), BallotProfile("v2", (3, 0))], 2)
        assert result.vscore == (5, 2)
        assert result.credit_used == (("v1", 2.0), ("v2", 3.0))

    def test_unknown_voter(self):
        dist = canonicalize([("v1", 4)])
        with pytest.raises(UnknownVoter):
            tally(SchemeSpec("qv2"), dist, [BallotProfile("ghost", (2,))], 1)

    def test_unhashable_voter_id_is_unknown(self):
        # a ballot stores str(["v1"]), which is no voter's id
        dist = canonicalize([("v1", 4)])
        with pytest.raises(UnknownVoter) as exc:
            tally(SchemeSpec("qv2"), dist, [BallotProfile(["v1"], (2,))], 1)
        assert exc.value.voter_id == "['v1']"

    def test_invalid_ballot_names_voter(self):
        dist = canonicalize([("v1", 9)])
        with pytest.raises(InvalidBallot) as exc:
            tally(SchemeSpec("qv2"), dist, [BallotProfile("v1", (9, 0))], 2)
        assert exc.value.voter_id == "v1"

    def test_additive_over_disjoint_voter_sets(self, rng):
        scheme = SchemeSpec("qv2")
        dist = canonicalize([(f"v{i}", float(s))
                             for i, s in enumerate(rng.uniform(1, 20, 8))])
        ballots = []
        for vid, stake in dist.entries:
            credit = voting_credit(scheme, stake)
            split = rng.dirichlet(np.ones(3)) * credit
            ballots.append(BallotProfile(vid, tuple(split)))
        whole = tally(scheme, dist, ballots, 3)
        part_a = tally(scheme, dist, ballots[:4], 3)
        part_b = tally(scheme, dist, ballots[4:], 3)
        assert np.allclose(np.array(whole.vscore),
                           np.array(part_a.vscore) + np.array(part_b.vscore),
                           rtol=0, atol=1e-12)

    def test_unsplit_contributes_count_times_credit(self):
        dist = canonicalize([("v1", 9)])
        result = tally(SchemeSpec("qv3"), dist,
                       [BallotProfile("v1", (3, 0, 3, 3))], 4)
        assert math.fsum(result.vscore) == pytest.approx(3 * 3.0, abs=1e-12)

    def test_repeated_voter_rejected_at_second_ballot(self):
        dist = canonicalize([("a", 4)])
        with pytest.raises(DuplicateVoter) as exc:
            tally(SchemeSpec("qv2"), dist,
                  [BallotProfile("a", (2, 0)), BallotProfile("a", (0, 2))], 2)
        assert exc.value.voter_id == "a"

    @pytest.mark.parametrize("ballots", [5, None, "ab", [("a", (2.0, 0.0))], [None],
                                         [SimpleNamespace(voter_id="a", allocations=2.0)],
                                         [SimpleNamespace(voter_id="a", allocations=("x", 0.0))],
                                         [SimpleNamespace(voter_id="a", allocations=("1.5", 0.0))]])
    def test_ballots_that_are_not_ballot_profiles(self, ballots):
        dist = canonicalize([("a", 4)])
        for call in (lambda: tally(SchemeSpec("qv2"), dist, ballots, 2),
                     lambda: score(ballots, 2),
                     lambda: vscore(SchemeSpec("qv1"), ballots, 2)):
            with pytest.raises(InvalidSpec, match="ballots must be a list of BallotProfile"):
                call()

    @pytest.mark.parametrize("family", ("qv2", "qv3"))
    def test_a_nan_entry_of_an_item_with_ballot_fields_is_rejected(self, family):
        # such an item has no packed row, so it is not read as a ballot
        dist = canonicalize([("a", 4)])
        with pytest.raises(InvalidSpec, match="ballots must be a list of BallotProfile"):
            tally(SchemeSpec(family), dist,
                  [SimpleNamespace(voter_id="a", allocations=(math.nan, 0.0))], 2)

    @pytest.mark.parametrize("order, error, voter", [
        ("a b! a", InvalidBallot, "b"),
        ("a a b!", DuplicateVoter, "a"),
        ("a ghost a", UnknownVoter, "ghost"),
        ("a a ghost", DuplicateVoter, "a"),
    ])
    def test_first_offending_ballot_decides(self, order, error, voter):
        dist = canonicalize([("a", 4), ("b", 9)])
        ballots = [BallotProfile(vid.rstrip("!"), (1, 1) if vid.endswith("!") else (2, 0))
                   for vid in order.split()]
        with pytest.raises(error) as exc:
            tally(SchemeSpec("qv2"), dist, ballots, 2)
        assert exc.value.voter_id == voter


@st.composite
def compensating_lengths(draw, m):
    """Up to six row lengths that sum to B * m, so that the rows and one
    separator after each fill B * (m + 1) slots: rows of m, then a few
    moves of entries between rows (m - 1 beside m + 1, two short or empty
    rows that fill one (m + 1) slot together beside a long one)."""
    lengths = [m] * draw(st.integers(0, 6))
    if len(lengths) > 1:
        rows = st.integers(0, len(lengths) - 1)
        for _ in range(draw(st.integers(0, 3))):
            src, dst = draw(rows), draw(rows)
            moved = draw(st.integers(0, lengths[src]))
            lengths[src] -= moved
            lengths[dst] += moved
    return lengths


def counting_rows(*lengths):
    """Rows of the given lengths whose entries tell every row and column apart."""
    return [tuple(float(10 * row + k) for k in range(n)) for row, n in enumerate(lengths)]


class TestBatchedTallyMatchesLoop:
    """tally, batched, against the per-ballot loop it replaced.

    The loop is kept here as the reference: it validates each ballot in
    order with scalar code and adds each ballot to running score and
    vscore vectors. The batched tally must raise the same error, or
    return bit-identical score, vscore and credit_used.
    """

    SCHEMES = (("linear", {}), ("linear", {"stake_mode": "unsplit"}),
               ("qv1", {}), ("qv2", {}), ("qv3", {}), ("gpv", {"gamma": 0.3}))

    @staticmethod
    def loop_spend(allocations):
        """fsum of |b|; past the float range +inf, which overspends."""
        try:
            return math.fsum(abs(v) for v in allocations)
        except OverflowError:
            return math.inf

    @staticmethod
    def loop_tol(tol):
        if tol < 0:
            raise InvalidSpec(f"tol must be >= 0, got {float(tol)}")

    @staticmethod
    def loop_validate(scheme, stake, allocations, tol, allow_undervote):
        TestBatchedTallyMatchesLoop.loop_tol(tol)
        credit = float(scheme.g(stake))
        b = np.array(allocations, dtype=float)
        if scheme.polarity == "yes-abstain":
            for idx, val in enumerate(b):
                if val < 0:
                    raise NegativeUnderYesAbstain(idx, val)
        if scheme.stake_mode == "split":
            used = TestBatchedTallyMatchesLoop.loop_spend(b)
            if used > credit + tol:
                raise CreditMismatch(credit, used)
            if not allow_undervote and used < credit - tol:
                raise CreditMismatch(credit, used)
        else:
            for idx, val in enumerate(b):
                if not (abs(val) <= tol
                        or abs(val - credit) <= tol
                        or abs(val + credit) <= tol):
                    raise IllegalEntry(idx, val)

    def loop_tally(self, scheme, dist, ballots, m, tol, allow_undervote):
        self.loop_tol(tol)
        stakes = dict(dist.entries)
        credit_used = []
        for ballot in ballots:
            if ballot.voter_id not in stakes:
                raise UnknownVoter(ballot.voter_id)
            stake = stakes[ballot.voter_id]
            try:
                self.loop_validate(scheme, stake, ballot.allocations, tol,
                                   allow_undervote)
            except QvkitError as exc:
                raise InvalidBallot(ballot.voter_id, exc) from exc
            if scheme.stake_mode == "split":
                used = self.loop_spend(ballot.allocations)
            else:
                used = float(scheme.g(stake))
            credit_used.append((ballot.voter_id, used))
        score_, vscore_ = np.zeros(m), np.zeros(m)
        for ballot in ballots:
            if len(ballot.allocations) != m:
                raise LengthMismatch(m, len(ballot.allocations),
                                     f"ballot of {ballot.voter_id!r}")
            b = np.array(ballot.allocations, dtype=float)
            score_ += b
            vscore_ += np.sign(b) * scheme.f(np.abs(b))
        return score_, vscore_, credit_used

    @staticmethod
    def outcome(run):
        """A comparable record: the error's details, or the hex of every sum.

        Floats are compared by their hex, which tells -0.0 from 0.0.
        """
        try:
            score_, vscore_, credit_used = run()
        except QvkitError as exc:
            cause = getattr(exc, "cause", None)
            details = None if cause is None else {
                k: v.hex() if isinstance(v, float) else v for k, v in vars(cause).items()}
            return (type(exc), str(exc), getattr(exc, "voter_id", None),
                    type(cause), details)
        return ([float(x).hex() for x in score_], [float(x).hex() for x in vscore_],
                [(vid, float(used).hex()) for vid, used in credit_used])

    def assert_same(self, scheme, dist, ballots, m, tol=DEFAULT_TOL,
                    allow_undervote=False, reference=None):
        def batched():
            result = tally(scheme, dist, ballots, m, tol=tol,
                           allow_undervote=allow_undervote)
            return result.score, result.vscore, result.credit_used

        reference = reference or self.loop_tally
        want = self.outcome(lambda: reference(scheme, dist, ballots, m, tol,
                                              allow_undervote))
        assert self.outcome(batched) == want
        return want

    @staticmethod
    def ballot(scheme, credit, weights, signs):
        if scheme.stake_mode == "split":
            total = math.fsum(weights)
            alloc = [credit * w / total if total > 0 else credit * (i == 0)
                     for i, w in enumerate(weights)]
        else:
            alloc = [credit * (w > 0.5) for w in weights]
        if scheme.polarity == "yes-no-abstain":
            alloc = [a * s for a, s in zip(alloc, signs)]
        else:  # zeros still take the sign: -0.0 is no negative entry
            alloc = [a or 0.0 * s for a, s in zip(alloc, signs)]
        return alloc

    FAULTS = ("unknown", "negative", "over", "illegal", "short", "long")

    @staticmethod
    def inject(fault, vid, alloc, credit):
        if fault == "unknown":
            return "ghost", alloc
        if fault == "negative":
            return vid, [-(abs(alloc[0]) or 1.0), *alloc[1:]]
        if fault == "over":
            return vid, [1.5 * a for a in alloc[:-1]] + [alloc[-1] + credit]
        if fault == "illegal":
            return vid, [credit / 2, *alloc[1:]]
        if fault == "short":
            return vid, alloc[:-1]
        return vid, [*alloc, credit]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_rounds(self, data):
        family, kw = data.draw(st.sampled_from(self.SCHEMES))
        if family == "gpv":
            kw = {"gamma": data.draw(st.floats(0.05, 0.95))}
        scheme = SchemeSpec(family, polarity=data.draw(
            st.sampled_from(("yes-abstain", "yes-no-abstain"))), **kw)
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 8))
        stakes = data.draw(st.lists(st.floats(1e-3, 1e4), min_size=n, max_size=n))
        dist = canonicalize([(f"v{i}", s) for i, s in enumerate(stakes)])
        voters = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
        allow_undervote = data.draw(st.booleans())
        # a negative tol is an InvalidSpec, from the batch and the loop alike
        tol = data.draw(st.sampled_from((DEFAULT_TOL, DEFAULT_TOL, 0.0, -1.0)))
        faults = dict(data.draw(st.lists(st.tuples(
            st.integers(0, max(len(voters) - 1, 0)), st.sampled_from(self.FAULTS)),
            max_size=2)))
        ballots = []
        for pos, i in enumerate(voters):
            vid, credit = f"v{i}", voting_credit(scheme, stakes[i])
            alloc = self.ballot(
                scheme, credit,
                data.draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)),
                data.draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=m,
                                   max_size=m)))
            if allow_undervote and data.draw(st.booleans()):
                alloc = [a * 0.5 for a in alloc]
            if pos in faults:
                vid, alloc = self.inject(faults[pos], vid, alloc, credit)
            ballots.append(BallotProfile(vid, alloc))
        self.assert_same(scheme, dist, ballots, m, tol, allow_undervote)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("polarity", ("yes-abstain", "yes-no-abstain"))
    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_each_fault(self, family, kw, polarity, fault):
        scheme = SchemeSpec(family, polarity=polarity, **kw)
        stakes = [2.0, 9.0, 30.0]
        dist = canonicalize([(f"v{i}", s) for i, s in enumerate(stakes)])
        ballots = []
        for i in (2, 0, 1):
            vid, credit = f"v{i}", voting_credit(scheme, stakes[i])
            alloc = self.ballot(scheme, credit, [0.7, 0.2, 0.6], [1.0, -1.0, 1.0])
            if i == 0:
                vid, alloc = self.inject(fault, vid, alloc, credit)
            ballots.append(BallotProfile(vid, alloc))
        outcome = self.assert_same(scheme, dist, ballots, 3)
        if fault in ("unknown", "over", "short", "long"):
            assert isinstance(outcome[0], type)  # every scheme rejects these

    @pytest.mark.parametrize("m", (1, 5))
    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_large_round(self, family, kw, m):
        scheme = SchemeSpec(family, polarity="yes-no-abstain", **kw)
        dist = generate(DistributionSpec(kind="pareto", n=300, seed=11))
        rng = np.random.default_rng(11)
        ballots = [BallotProfile(vid, self.ballot(scheme, voting_credit(scheme, s),
                                                  rng.random(m).tolist(),
                                                  rng.choice([1.0, -1.0], m).tolist()))
                   for vid, s in dist.entries]
        rng.shuffle(ballots)
        assert isinstance(self.assert_same(scheme, dist, ballots, m)[0], list)
        # every voter's credit, as an over-budget ballot's error reports it
        for vid, s in dist.entries:
            credit = voting_credit(scheme, s)
            self.assert_same(scheme, dist,
                             [BallotProfile(vid, [2 * credit] + [0.0] * (m - 1))], m)

    @pytest.mark.parametrize("m", (1, 5))
    @pytest.mark.parametrize("polarity", ("yes-abstain", "yes-no-abstain"))
    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_columns_of_negative_zeros(self, family, kw, polarity, m):
        # the last column holds -0.0 in every ballot; its sums are +0.0, as
        # a running sum from 0.0 gives. At m = 1 a split ballot spends 0.0,
        # which is an underspend unless allow_undervote.
        scheme = SchemeSpec(family, polarity=polarity, **kw)
        dist = generate(DistributionSpec(kind="pareto", n=40, seed=17))
        rng = np.random.default_rng(17)
        ballots = []
        for vid, s in dist.entries:
            alloc = self.ballot(scheme, voting_credit(scheme, s),
                                [*rng.random(m - 1).tolist(), 0.0],
                                rng.choice([1.0, -1.0], m).tolist())
            ballots.append(BallotProfile(vid, [*alloc[:-1], -0.0]))
        rng.shuffle(ballots)
        for allow_undervote in (False, True):
            outcome = self.assert_same(scheme, dist, ballots, m,
                                       allow_undervote=allow_undervote)
            if allow_undervote or m > 1 or scheme.stake_mode == "unsplit":
                assert outcome[0][-1] == outcome[1][-1] == (0.0).hex()
            else:
                assert outcome[3] is CreditMismatch
                assert outcome[4]["actual"] == (0.0).hex()
        assert score(ballots, m)[-1].hex() == vscore(scheme, ballots, m)[-1].hex() == \
            (0.0).hex()

    def test_padding_is_not_validated(self):
        # rows are zero-padded to a common width; at tol = 0 a padded 0 is
        # still a legal unsplit entry, so the empty ballot is first rejected
        # for its length
        scheme = SchemeSpec("qv3")
        dist = canonicalize([("a", 4), ("b", 9)])
        ballots = [BallotProfile("a", ()), BallotProfile("b", (3.0,))]
        outcome = self.assert_same(scheme, dist, ballots, 1, tol=0.0)
        assert outcome[0] is LengthMismatch
        assert "'a'" in outcome[1]

    def test_lookups_stay_plain_methods(self):
        # the benchmark's tracer wraps these from the class __dict__
        for name in ("stakes", "stake_of", "__contains__"):
            assert inspect.isfunction(StakeDistribution.__dict__[name])
        dist = canonicalize([("a", 1), ("b", 2)])
        assert not dist.stakes().flags.writeable
        with pytest.raises(ValueError):
            dist.stakes()[0] = 5.0

    @pytest.mark.parametrize("polarity", ("yes-abstain", "yes-no-abstain"))
    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_ragged_rounds(self, family, kw, polarity):
        # rows of every length from 0 to m + 2, each valid at its own length:
        # the loop and the padded batch must agree on the error and its voter
        scheme = SchemeSpec(family, polarity=polarity, **kw)
        dist = generate(DistributionSpec(kind="pareto", n=40, seed=5))
        rng = np.random.default_rng(5)
        m = 3
        for tol in (DEFAULT_TOL, 0.0, -1.0):
            for _ in range(4):
                ballots = []
                for vid, s in dist.entries:
                    n = int(rng.integers(0, m + 3)) if rng.random() < 0.3 else m
                    ballots.append(BallotProfile(vid, self.ballot(
                        scheme, voting_credit(scheme, s), rng.random(n).tolist(),
                        rng.choice([1.0, -1.0], n).tolist()) if n else ()))
                rng.shuffle(ballots)
                self.assert_same(scheme, dist, ballots, m, tol=tol)

    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_wide_round(self, family, kw):
        scheme = SchemeSpec(family, polarity="yes-no-abstain", **kw)
        dist = generate(DistributionSpec(kind="pareto", n=60, seed=13))
        rng = np.random.default_rng(13)
        m = 120
        ballots = [BallotProfile(vid, self.ballot(
            scheme, voting_credit(scheme, s),
            (rng.random(m) * (rng.random(m) < 0.3)).tolist(),
            rng.choice([1.0, -1.0], m).tolist())) for vid, s in dist.entries]
        rng.shuffle(ballots)
        assert isinstance(self.assert_same(scheme, dist, ballots, m)[0], list)
        over = BallotProfile(ballots[7].voter_id, [*ballots[7].allocations[:-1], 1e6])
        self.assert_same(scheme, dist, [*ballots[:7], over, *ballots[8:]], m)

    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_unhashable_voter_id_after_a_bad_ballot(self, family, kw):
        # the loop reaches no unhashable id (its dict lookup would raise
        # TypeError); the batch looks every id up first and must still
        # report the earlier ballot
        scheme = SchemeSpec(family, **kw)
        dist = canonicalize([("a", 4.0), ("b", 9.0)])
        bad = BallotProfile("a", (-1.0, 0.0))
        outcome = self.assert_same(scheme, dist, [bad, BallotProfile(["b"], (3.0, 0.0))], 2)
        assert outcome[:3] == (InvalidBallot, outcome[1], "a")

    @staticmethod
    def row_at(target, weights, signs):
        """A row whose |b| sums to `target` within a few ulps: the last entry
        takes what the others leave."""
        total = math.fsum(weights) or 1.0
        row = [target * w / total for w in weights[:-1]]
        row.append(abs(target - math.fsum(row)))
        return [a * s for a, s in zip(row, signs)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_at_the_credit_bounds(self, data):
        # a float row sum decides a split ballot only when it is clear of
        # credit ± tol; rows within ulps of a bound, credits so large that
        # tol is below one ulp, and rows whose sum overflows must still get
        # fsum's decision, error and spend
        family, kw = data.draw(st.sampled_from(self.SCHEMES))
        scheme = SchemeSpec(family, polarity=data.draw(
            st.sampled_from(("yes-abstain", "yes-no-abstain"))), **kw)
        m = data.draw(st.sampled_from((1, 2, 3, 5, 40)))
        n = data.draw(st.integers(1, 6))
        stakes = [10.0 ** e for e in data.draw(st.lists(
            st.one_of(st.floats(-3, 4), st.floats(32, 300)), min_size=n, max_size=n))]
        dist = canonicalize([(f"v{i}", s) for i, s in enumerate(stakes)])
        tol = data.draw(st.sampled_from((DEFAULT_TOL, DEFAULT_TOL, 0.0, 1e-300, 0.5, -1e-9)))
        allow_undervote = data.draw(st.booleans())
        ballots = []
        for i in data.draw(st.permutations(range(n))):
            credit = voting_credit(scheme, stakes[i])
            kind = data.draw(st.sampled_from(("hi", "lo", "credit", "overflow",
                                              "short", "long")))
            target = {"hi": credit + tol, "lo": credit - tol}.get(kind, credit)
            ulps = data.draw(st.integers(-4, 4))
            for _ in range(abs(ulps)):
                target = math.nextafter(target, math.copysign(math.inf, ulps))
            width = m + (kind == "long") - (kind == "short" and m > 1)
            signs = data.draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=width,
                                       max_size=width))
            if scheme.polarity == "yes-abstain":
                signs = [1.0] * width
            row = self.row_at(abs(target), data.draw(st.lists(
                st.floats(0, 1), min_size=width, max_size=width)), signs)
            if kind == "overflow":
                row = [1e308 * s for s in signs] + [1e308]
            ballots.append(BallotProfile(f"v{i}", row))
        self.assert_same(scheme, dist, ballots, m, tol, allow_undervote)
        try:
            result = tally(scheme, dist, ballots, m, tol=tol, allow_undervote=allow_undervote)
        except QvkitError:
            pass
        else:
            assert [x.hex() for x in result.used().tolist()] == \
                [used.hex() for _, used in result.credit_used]
        # validate_ballot decides each ballot alone as the loop does
        for ballot in ballots:
            outcomes = []
            for check in (validate_ballot, self.loop_validate):
                try:
                    check(scheme, dist.stake_of(ballot.voter_id),
                          ballot if check is validate_ballot else ballot.allocations,
                          tol, allow_undervote)
                    outcomes.append(None)
                except QvkitError as exc:
                    outcomes.append((type(exc), str(exc), vars(exc)))
            assert outcomes[0] == outcomes[1]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rounds_of_compensating_lengths(self, data):
        # ragged rows whose lengths add up to those of a uniform round, each
        # valid at its own length: the first short or long ballot is the
        # LengthMismatch, after every ballot's own error
        family, kw = data.draw(st.sampled_from(self.SCHEMES))
        scheme = SchemeSpec(family, polarity=data.draw(
            st.sampled_from(("yes-abstain", "yes-no-abstain"))), **kw)
        m = data.draw(st.integers(1, 4))
        lengths = data.draw(compensating_lengths(m))
        stakes = data.draw(st.lists(st.floats(1e-3, 1e4), min_size=len(lengths),
                                    max_size=len(lengths)))
        dist = canonicalize([(f"v{i}", s) for i, s in enumerate(stakes)] or [("x", 1.0)])
        ballots = []
        for i, n in enumerate(lengths):
            alloc = self.ballot(scheme, voting_credit(scheme, stakes[i]), data.draw(
                st.lists(st.floats(0, 1), min_size=n, max_size=n)), data.draw(
                st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n)))
            if n and data.draw(st.booleans()):
                alloc[0] = 1e6  # over the credit, or an illegal unsplit entry
            ballots.append(BallotProfile(f"v{i}", alloc))
        outcome = self.assert_same(scheme, dist, ballots, m,
                                   allow_undervote=data.draw(st.booleans()))
        if lengths != [m] * len(lengths):
            assert isinstance(outcome[0], type)

    def voter_loop_tally(self, scheme, dist, ballots, m, tol=DEFAULT_TOL,
                         allow_undervote=False):
        """loop_tally with the voter checks in ballot order: an id that no
        voter has is an UnknownVoter, and a voter's second ballot a
        DuplicateVoter, once every ballot before it has validated. The ids
        of `dist` are distinct, as its constructor checks."""
        self.loop_tol(tol)
        first = dict(dist.entries)
        seen = set()
        for ballot in ballots:
            vid = ballot.voter_id
            if vid not in first:
                raise UnknownVoter(vid)
            if vid in seen:
                raise DuplicateVoter(vid)
            seen.add(vid)
            try:
                self.loop_validate(scheme, first[vid], ballot.allocations, tol,
                                   allow_undervote)
            except QvkitError as exc:
                raise InvalidBallot(vid, exc) from exc
        return self.loop_tally(scheme, dist, ballots, m, tol, allow_undervote)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_voter_checks_in_ballot_order(self, data):
        # unknown, unhashable and repeated ids anywhere in rounds of 0 to 6
        # ballots, beside invalid and short ones, against a canonical
        # distribution; one with a repeated id is a DuplicateVoter
        family, kw = data.draw(st.sampled_from(self.SCHEMES))
        scheme = SchemeSpec(family, polarity=data.draw(
            st.sampled_from(("yes-abstain", "yes-no-abstain"))), **kw)
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 5))
        entries = [(f"v{i}", s) for i, s in enumerate(data.draw(
            st.lists(st.floats(1e-2, 1e3), min_size=n, max_size=n)))]
        if data.draw(st.booleans()):
            repeated = entries.copy()
            repeated.insert(data.draw(st.integers(0, n)),
                            (f"v{data.draw(st.integers(0, n - 1))}",
                             data.draw(st.floats(1e-2, 1e3))))
            with pytest.raises(DuplicateVoter):
                StakeDistribution(repeated)
        dist = canonicalize(entries)
        ballots = []
        for kind in data.draw(st.lists(st.sampled_from(
                ("voter", "voter", "ghost", "unhashable", "again", "invalid", "short")),
                max_size=6)):
            vid = f"v{data.draw(st.integers(0, n - 1))}"
            credit = voting_credit(scheme, dist.stake_of(vid))
            alloc = self.ballot(scheme, credit, data.draw(st.lists(
                st.floats(0, 1), min_size=m, max_size=m)), [1.0] * m)
            if kind == "ghost":
                vid = "ghost"
            elif kind == "unhashable":
                vid = [vid]
            elif kind == "again" and ballots:
                vid = data.draw(st.sampled_from(ballots)).voter_id
            elif kind in ("invalid", "short"):
                vid, alloc = self.inject({"invalid": "over"}.get(kind, kind), vid, alloc,
                                         credit)
            ballots.append(BallotProfile(vid, alloc))
        self.assert_same(scheme, dist, ballots, m, reference=self.voter_loop_tally)

    RAW_IDS = st.one_of(st.integers(-3, 12), st.floats(), st.text(max_size=3), st.none(),
                        st.tuples(st.integers(0, 2)), st.lists(st.integers(0, 2), max_size=2))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_raw_id_is_its_str(self, data):
        # stakes and ballots under raw ids of many types, and under the str
        # of each, give the same tally or the same error; unknown and
        # repeated ids included
        family, kw = data.draw(st.sampled_from(self.SCHEMES))
        scheme = SchemeSpec(family, **kw)
        m = data.draw(st.integers(1, 3))
        raw = data.draw(st.lists(self.RAW_IDS, min_size=1, max_size=5, unique_by=str))
        stakes = data.draw(st.lists(st.floats(1e-2, 1e3), min_size=len(raw),
                                    max_size=len(raw)))
        dist = canonicalize(zip(raw, stakes))
        known = set(map(str, raw))
        ghosts = self.RAW_IDS.filter(lambda v: str(v) not in known)
        for vid in [*raw, data.draw(ghosts)]:
            assert (vid in dist) == (str(vid) in dist) == (str(vid) in known)
            if str(vid) in known:
                assert dist.stake_of(vid) == dist.stake_of(str(vid))
        ballots = []
        for kind in data.draw(st.lists(st.sampled_from(("voter", "voter", "ghost", "again")),
                                       max_size=6)):
            pos = data.draw(st.integers(0, len(raw) - 1))
            vid = raw[pos]
            if kind == "ghost":
                vid = data.draw(ghosts)
            elif kind == "again" and ballots:
                vid = data.draw(st.sampled_from(ballots))[0]
            credit = voting_credit(scheme, stakes[pos])
            ballots.append((vid, self.ballot(scheme, credit, data.draw(st.lists(
                st.floats(0, 1), min_size=m, max_size=m)), [1.0] * m)))

        def run(key):
            def result():
                dist = canonicalize([(key(vid), s) for vid, s in zip(raw, stakes)])
                got = tally(scheme, dist, [BallotProfile(key(vid), b) for vid, b in ballots], m)
                return got.score, got.vscore, got.credit_used
            return self.outcome(result)

        assert run(lambda vid: vid) == run(str)

    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    @pytest.mark.parametrize("where", ("first", "middle", "last"))
    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_an_unknown_voter_anywhere(self, family, kw, where, n):
        scheme = SchemeSpec(family, **kw)
        dist = generate(DistributionSpec(kind="pareto", n=8, seed=9))
        ballots = [BallotProfile(vid, self.ballot(scheme, voting_credit(scheme, s),
                                                  [0.7, 0.2, 0.6], [1.0] * 3))
                   for vid, s in dist.entries[:n]]
        pos = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        for ghost in ("ghost", ["ghost"]):
            ghosted = [*ballots[:pos], BallotProfile(ghost, ballots[pos].allocations),
                       *ballots[pos + 1:]]
            outcome = self.assert_same(scheme, dist, ghosted, 3,
                                       reference=self.voter_loop_tally)
            assert outcome[:3] == (UnknownVoter, outcome[1], str(ghost))
        assert isinstance(self.assert_same(scheme, dist, ballots, 3,
                                           reference=self.voter_loop_tally)[0], list)


def tie_rows(rng, rows, width):
    """|b| of ballots built as the benchmark builds them: credit times
    Dirichlet-like fractions on a random support, the last supported entry
    set to credit - sum(others), which puts many rows on a half-ulp tie."""
    credits = rng.pareto(1.16, rows) + 1.0
    f = rng.exponential(size=(rows, width)) * (rng.random((rows, width)) < 0.6)
    f[np.arange(rows), rng.integers(0, width, rows)] += 1e-3
    f /= f.sum(axis=1, keepdims=True)
    b = credits[:, None] * f
    last = width - 1 - np.argmax(f[:, ::-1] > 0, axis=1)
    b[np.arange(rows), last] = 0.0
    b[np.arange(rows), last] = credits - b.sum(axis=1)
    return np.abs(b)


@st.composite
def spend_matrices(draw):
    """Nonnegative (rows, width) spends whose row sums fit the float range."""
    width = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("zero", "subnormal", "huge", "sparse", "tie",
                                 "half-ulp", "decades")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (rows, width)
    if kind == "zero":
        return np.zeros(shape)
    if kind == "subnormal":
        return rng.integers(0, 2 ** 20, shape) * 5e-324
    if kind == "huge":  # near overflow, every row sum still fits
        return rng.random(shape) * (0.999e308 / width)
    if kind == "sparse":
        return (rng.pareto(1.16, shape) + 1.0) * (rng.random(shape) < 0.05)
    if kind == "tie":
        return tie_rows(rng, rows, width)
    if kind == "half-ulp":  # a + ulp(a)/2 is an exact tie; with zeros around
        a = rng.random(rows) + 1.0
        x = np.zeros(shape)
        x[:, 0] = a
        x[:, -1] += np.spacing(a) / 2
        return rng.permuted(x, axis=1)
    return np.exp(rng.uniform(math.log(1e-300), math.log(1e300), shape)) / width


@st.composite
def mixed_spend_rows(draw):
    """Nonnegative (rows, width) spends that mix ordinary rows with rows near
    the top of the float range, whose sums fit or overflow."""
    width = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top, ulp = sys.float_info.max, math.ulp(sys.float_info.max)
    rows = []
    for kind in draw(st.lists(st.sampled_from(("ordinary", "tie", "fits", "edge", "over")),
                              min_size=1, max_size=8)):
        if kind == "ordinary":
            row = np.exp(rng.uniform(math.log(1e-320), math.log(1e300), width))
            row *= rng.random(width) < 0.8
        elif kind == "tie":
            row = tie_rows(rng, 1, width)[0]
        elif kind == "fits":  # fractions of just under the largest float
            f = rng.random(width) + 1e-3
            row = f / f.sum() * (top * (1 - rng.uniform(2 ** -46, 2 ** -20)))
        elif kind == "edge":  # the largest float, give or take ulps, plus quarter-ulps
            row = rng.integers(0, 4, width) * (ulp / 4)
            row[0] = top - int(rng.integers(0, 3)) * ulp
        else:
            row = rng.uniform(0.3, 1.0, width) * top
        rows.append(rng.permutation(row))
    return np.array(rows)


class TestCertifiedRowSums:
    """The split spend of each row is math.fsum of its |b|, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_spend_rows())
    def test_equals_the_spend_of_each_row(self, spend):
        # one route for every matrix: a row past the float range, or near
        # it, sits beside ordinary rows
        def fsum_or_inf(row):
            try:
                return math.fsum(row)
            except OverflowError:
                return math.inf

        got = schemes._credit_used(SchemeSpec("linear"), None, spend)
        assert [x.hex() for x in got.tolist()] == \
            [fsum_or_inf(row).hex() for row in spend.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(spend_matrices(), st.booleans())
    def test_equals_fsum(self, spend, signed):
        assert float(spend.max()) * spend.shape[1] < 1e308  # every row sum fits
        alloc = -spend if signed else spend
        got = schemes._credit_used(SchemeSpec("linear"), None, alloc)
        assert [x.hex() for x in got.tolist()] == \
            [math.fsum(row).hex() for row in spend.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(spend_matrices(), st.data())
    def test_spends_are_the_spend_of_each_row(self, spend, data):
        # rows whose sum leaves the float range, at random positions among
        # rows whose sums fit: math.fsum raises for them, and every row then
        # goes through _spend
        top, ulp = sys.float_info.max, math.ulp(sys.float_info.max)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        spend = spend.copy()
        for row in data.draw(st.lists(st.integers(0, len(spend) - 1), max_size=3)):
            if data.draw(st.booleans()):
                spend[row] = rng.uniform(0.3, 1.0, spend.shape[1]) * top
            else:  # the largest float plus quarter-ulps: a tie, a sum that fits, or not
                spend[row] = rng.integers(0, 4, spend.shape[1]) * (ulp / 4)
                spend[row, 0] = top
        got = schemes._spends(spend)
        assert [x.hex() for x in got.tolist()] == \
            [schemes._spend(row).hex() for row in spend.tolist()]

    def test_a_row_past_the_float_range_still_overspends(self):
        got = schemes._credit_used(SchemeSpec("linear"), None,
                                   np.array([[1e308, 1e308], [1.0, 2.0]]))
        assert got.tolist() == [math.inf, 3.0]


class TestTallyResult:
    SCHEME = SchemeSpec("qv2")

    def tallied(self):
        dist = canonicalize([("a", 4), ("b", 9)])
        return tally(self.SCHEME, dist, [BallotProfile("b", (1, 2)),
                                         BallotProfile("a", (2, 0))], 2)

    @pytest.mark.parametrize("scheme", [
        SchemeSpec("linear"), SchemeSpec("linear", stake_mode="unsplit"), SchemeSpec("qv1"),
        SchemeSpec("qv1", polarity="yes-no-abstain"), SchemeSpec("qv2"), SchemeSpec("qv3"),
        SchemeSpec("gpv", 0.5)])
    def test_scores_are_python_floats(self, scheme):
        # full-credit ballots; the signed qv1 one takes vscore's sign(b) * f(|b|) path
        a, b = scheme.g([4.0, 9.0]).tolist()
        sign = 1 if scheme.polarity == "yes-abstain" else -1
        first = (b, 0) if scheme.stake_mode == "unsplit" else (b / 2, sign * b / 2)
        result = tally(scheme, canonicalize([("a", 4), ("b", 9)]),
                       [BallotProfile("b", first), BallotProfile("a", (0, a))], 2)
        assert all(type(v) is float for v in result.score + result.vscore)
        assert "np." not in repr(result)

    def test_keyword_construction_equals_a_tally(self):
        result = self.tallied()
        built = TallyResult(scheme=self.SCHEME, score=result.score, vscore=result.vscore,
                            credit_used=(("b", 3.0), ("a", 2.0)))
        assert built == result and result == built
        assert hash(built) == hash(result)
        assert built.voter_ids == result.voter_ids == ("b", "a")
        assert built.used().tolist() == result.used().tolist() == [3.0, 2.0]
        assert TallyResult(self.SCHEME, result.score, result.vscore,
                           [("b", 3.0), ("a", 2.0)]) == result
        assert result != TallyResult(self.SCHEME, result.score, result.vscore,
                                     (("b", 3.0), ("a", 2.5)))
        assert result.__eq__(result.credit_used) is NotImplemented

    def test_hash_and_repr_are_those_of_the_fields(self):
        result = self.tallied()
        fields = (result.scheme, result.score, result.vscore, result.credit_used)
        assert hash(result) == hash(fields)
        assert repr(result) == (
            "TallyResult(scheme=SchemeSpec(family='qv2', gamma=None, stake_mode='split', "
            "polarity='yes-abstain'), score=(3.0, 2.0), vscore=(3.0, 2.0), "
            "credit_used=(('b', 3.0), ('a', 2.0)))")

    def test_frozen_and_read_only(self):
        result = self.tallied()
        assert not result.used().flags.writeable
        with pytest.raises(ValueError):
            result.used()[0] = 5.0
        for name in ("score", "credit_used", "voter_ids"):
            with pytest.raises(FrozenInstanceError):
                setattr(result, name, ())
            with pytest.raises(FrozenInstanceError):
                delattr(result, name)
        assert result.credit_used == (("b", 3.0), ("a", 2.0))


class TestTallyResultIsADataclass:
    def test_fields_and_replace(self):
        result = TestTallyResult().tallied()
        assert dataclasses.is_dataclass(result)
        assert [f.name for f in dataclasses.fields(result)] == [
            "scheme", "score", "vscore", "credit_used"]
        moved = dataclasses.replace(result, credit_used=[("b", 3.0)])
        assert moved.voter_ids == ("b",) and moved.used().tolist() == [3.0]
        assert (moved.scheme, moved.score, moved.vscore) == (
            result.scheme, result.score, result.vscore)

    @pytest.mark.parametrize("read", [
        lambda r: r.credit_used, hash, repr,
        lambda r: r == TallyResult(r.scheme, r.score, r.vscore, [("b", 3.0), ("a", 2.0)])])
    def test_the_spends_stay_lazy_until_read(self, read):
        result = TestTallyResult().tallied()
        assert dataclasses.is_dataclass(result) and len(dataclasses.fields(result)) == 4
        assert "_used" not in vars(result) and "credit_used" not in vars(result)
        read(result)
        assert vars(result)["credit_used"] == (("b", 3.0), ("a", 2.0))
        assert vars(result)["_used"].tolist() == [3.0, 2.0]


class TestSpendsOnFirstRead:
    """A tally decides the credit checks from float row sums and builds the
    exact spends on the first read of used(), credit_used, ==, hash or repr."""

    @staticmethod
    def valid_round():
        scheme = SchemeSpec("qv2")
        dist = generate(DistributionSpec(kind="pareto", n=300, seed=11))
        rng = np.random.default_rng(11)
        ballots = [BallotProfile(vid, TestBatchedTallyMatchesLoop.row_at(
            voting_credit(scheme, s), rng.random(5).tolist(), [1.0] * 5))
            for vid, s in dist.entries]
        return scheme, dist, ballots

    @pytest.fixture
    def spends_calls(self, monkeypatch):
        calls, spends = [], schemes._spends
        monkeypatch.setattr(schemes, "_spends",
                            lambda rows: calls.append(len(rows)) or spends(rows))
        return calls

    @pytest.mark.parametrize("read", [
        lambda r, other: r.used(), lambda r, other: r.credit_used,
        lambda r, other: r == other, lambda r, other: hash(r), lambda r, other: repr(r)],
        ids=["used", "credit_used", "eq", "hash", "repr"])
    def test_a_valid_round_sums_its_rows_once_when_read(self, spends_calls, read):
        scheme, dist, ballots = self.valid_round()
        result = tally(scheme, dist, ballots, 5)
        spends = tuple((b.voter_id, math.fsum(map(abs, b.allocations))) for b in ballots)
        # another equal instance, since the generated __eq__ may take r == r
        # as True without reading a field (Python 3.13)
        other = TallyResult(scheme, result.score, result.vscore, spends)
        assert spends_calls == []
        read(result, other)
        assert spends_calls == [300]
        result.used(), result.credit_used, hash(result), repr(result)
        assert spends_calls == [300]
        assert result.credit_used == spends and result == other

    def test_a_second_build_gives_the_same_spends(self, spends_calls):
        scheme, dist, ballots = self.valid_round()
        result = tally(scheme, dist, ballots, 5)
        first = result.used()
        del result.__dict__["_used"]  # as a second thread racing the first would
        assert result.used() is not first
        assert result.used().tolist() == first.tolist()
        assert not result.used().flags.writeable
        assert spends_calls == [300, 300]

    def test_only_rows_near_a_bound_are_summed_exactly_in_a_tally(self, spends_calls):
        scheme, dist, ballots = self.valid_round()
        vid = ballots[7].voter_id
        credit = voting_credit(scheme, dist.stake_of(vid))
        near = BallotProfile(vid, TestBatchedTallyMatchesLoop.row_at(
            credit + DEFAULT_TOL, [0.3, 0.3, 0.2, 0.1, 0.1], [1.0] * 5))
        # four quarter-ulps that a left-to-right float sum drops
        over = BallotProfile(vid, [credit + 2 * DEFAULT_TOL, *[math.ulp(credit) / 4] * 4])
        tally(scheme, dist, [*ballots[:7], near, *ballots[8:]], 5)
        assert spends_calls == [1]
        with pytest.raises(InvalidBallot) as exc:
            tally(scheme, dist, [*ballots[:7], over, *ballots[8:]], 5)
        assert exc.value.cause.actual == math.fsum(over.allocations)

    def test_unsplit_spends_are_the_credits(self, spends_calls):
        scheme = SchemeSpec("qv3")
        dist = canonicalize([("a", 4.0), ("b", 9.0)])
        result = tally(scheme, dist, [BallotProfile("b", (3.0, 0.0)),
                                      BallotProfile("a", (2.0, -0.0))], 2)
        assert result.used().tolist() == [3.0, 2.0]
        assert spends_calls == []


class TestPackedBallotRows:
    """BallotProfile keeps its validated row as packed float64 bytes and
    builds `allocations` on first read; _ballot_columns joins the rows.

    The per-field dataclass BallotProfile it replaced and the np.fromiter
    column read are kept here as the references.
    """

    @dataclasses.dataclass(frozen=True)
    class Reference:
        voter_id: str
        allocations: tuple

        def __post_init__(self):
            object.__setattr__(self, "voter_id", str(self.voter_id))
            allocations = self.allocations
            if isinstance(allocations, np.ndarray):  # a row of the Python floats it holds
                allocations = [float(x) for x in allocations]
            try:
                allocations = tuple(allocations)
                if any(isinstance(x, np.complexfloating) for x in allocations):
                    raise TypeError  # a numpy complex is no real number
                with np.errstate(all="ignore"):  # numpy scalars add in numpy arithmetic
                    sum(allocations, 0.0)  # a TypeError for a str, which float() would parse
                object.__setattr__(self, "allocations", tuple(map(float, allocations)))
            except (TypeError, ValueError, OverflowError):
                raise InvalidSpec(f"non-numeric allocation for {self.voter_id!r}") from None
            if not all(map(math.isfinite, self.allocations)):
                raise InvalidSpec(f"non-finite allocation for {self.voter_id!r}")

    @staticmethod
    def reference_columns(ballots, m):
        ids = [b.voter_id for b in ballots]
        allocs = [b.allocations for b in ballots]
        lengths = list(map(len, allocs))
        if lengths.count(m) == len(lengths):
            flat = np.fromiter(itertools.chain.from_iterable(allocs), float, len(allocs) * m)
            return ids, flat.reshape(len(allocs), m), None
        first = next(row for row, n in enumerate(lengths) if n != m)
        mismatch = LengthMismatch(m, lengths[first], f"ballot of {ids[first]!r}")
        alloc = np.zeros((len(allocs), max(m, max(lengths))))
        for row, (values, n) in enumerate(zip(allocs, lengths)):
            alloc[row, :n] = values
        return ids, alloc, mismatch

    @staticmethod
    def outcome(make):
        try:
            return make(), None
        except Exception as exc:  # the two constructors must fail alike
            return None, (type(exc), str(exc))

    ITEMS = st.one_of(
        st.floats(), st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
        st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]),
        st.integers(), st.integers(2 ** 1020, 2 ** 1030).map(lambda n: n * (-1) ** n),
        st.booleans(),
        st.floats().map(np.float64), st.floats(width=32).map(np.float32),
        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.fractions(), st.decimals(), st.sampled_from(["1.5", "nan", "x", ""]), st.text(max_size=2),
        st.binary(max_size=2), st.complex_numbers(), st.complex_numbers().map(np.complex128),
        st.none())
    # each kind builds a fresh argument, so that a generator is read once per call
    ROWS = st.one_of(
        st.lists(ITEMS, max_size=6).flatmap(lambda items: st.sampled_from([
            lambda: tuple(items), lambda: list(items), lambda: (x for x in items)])),
        st.lists(st.floats(), max_size=6).map(lambda xs: lambda: np.array(xs)),
        st.binary(max_size=4).map(lambda raw: lambda: raw),
        st.sampled_from([lambda: None, lambda: 2.0, lambda: "12"]))

    @settings(max_examples=500, deadline=None)
    @given(ROWS, st.sampled_from(["a", 7, ("v", 1)]))
    def test_the_constructor_is_the_reference(self, row, voter_id):
        got, got_error = self.outcome(lambda: BallotProfile(voter_id, row()))
        want, want_error = self.outcome(lambda: self.Reference(voter_id, row()))
        assert got_error == want_error
        if want is None:
            return
        assert "allocations" not in vars(got)
        assert all(type(x) is float for x in got.allocations)
        assert [x.hex() for x in got.allocations] == [x.hex() for x in want.allocations]
        again = BallotProfile(voter_id, row())
        assert (got == again) == (want == self.Reference(voter_id, row()))
        assert hash(got) == hash(want)
        assert repr(got).partition("(")[2] == repr(want).partition("(")[2]
        assert len(got._row) == 8 * len(want.allocations) and type(got._row) is bytes

    @pytest.mark.parametrize("row", [
        np.array([1e308, 1e308]), np.array([3e38, 3e38], dtype=np.float32),
        [np.float64(1e308)] * 2, [np.float32(3e38)] * 2, [np.float32(1.0), 2 ** 1020]],
        ids=["float64", "float32", "float64-items", "float32-items", "float32-and-int"])
    def test_a_numpy_row_adds_as_its_python_floats(self, row):
        # no numpy arithmetic may run on the entries: a sum past the float
        # range or an int cast to float32 is a RuntimeWarning there, an error
        # under the suite's filter, and in Python floats it is inf
        assert BallotProfile("a", row) == BallotProfile("a", [float(x) for x in row])

    def test_a_numpy_complex_item_is_an_invalid_spec(self):
        # as a Python complex is, and not read as its real part
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # so no ComplexWarning stands in for the error
            with pytest.raises(InvalidSpec, match="non-numeric allocation for 'a'"):
                BallotProfile("a", [np.complex128(1 + 2j), 0.5])

    @staticmethod
    def hex_columns(columns):
        ids, alloc, mismatch = columns
        return (ids, alloc.shape, [x.hex() for x in alloc.ravel().tolist()],
                None if mismatch is None else vars(mismatch))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_columns_are_the_fromiter_read(self, m, data):
        lengths = st.just(m) if data.draw(st.booleans()) else st.integers(0, 8)
        rows = data.draw(st.lists(lengths.flatmap(lambda n: st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)),
            max_size=8))
        ballots = [BallotProfile(f"v{i}", row) for i, row in enumerate(rows)]
        got = schemes._ballot_columns(ballots, m)
        assert all("allocations" not in vars(b) for b in ballots)
        assert self.hex_columns(got) == self.hex_columns(self.reference_columns(ballots, m))

    @pytest.mark.parametrize("rows, m", [
        ([], 3), ([], 0), ([(), ()], 0), ([(-0.0,) * 4] * 3, 4), ([(-0.0, 1.0), (-0.0,)], 2),
        ([(1.0, -0.0, 2.5), (5e-324, 0.0, -1e308)], 3), ([(1.0, 2.0, 3.0), (4.0,)], 2),
        # lengths that sum to B * m: m - 1 beside m + 1, and two short rows
        # that fill one (m + 1) slot together beside a long one
        (counting_rows(2, 4), 3), (counting_rows(4, 2), 3), (counting_rows(3, 2, 4), 3),
        (counting_rows(0, 2), 1), (counting_rows(1, 1, 7), 3), (counting_rows(7, 1, 1), 3),
        (counting_rows(1, 7, 1), 3), (counting_rows(0, 0, 3), 1), (counting_rows(0, 6, 0, 2), 2)])
    def test_columns_of_pinned_rounds(self, rows, m):
        ballots = [BallotProfile(f"v{i}", row) for i, row in enumerate(rows)]
        got = schemes._ballot_columns(ballots, m)
        assert self.hex_columns(got) == self.hex_columns(self.reference_columns(ballots, m))
        if got[2] is None:  # a uniform round is one read-only view of the joined rows
            assert not got[1].flags.writeable
            assert got[1].tobytes() == b"".join(b._row for b in ballots)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_columns_of_compensating_rounds(self, m, data):
        # row lengths that sum to B * m fill the (B, m + 1) join exactly, so
        # only the separators in column m tell such a round from a uniform one
        lengths = data.draw(compensating_lengths(m))
        rows = [data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=n, max_size=n)) for n in lengths]
        ballots = [BallotProfile(f"v{i}", row) for i, row in enumerate(rows)]
        got = schemes._ballot_columns(ballots, m)
        assert self.hex_columns(got) == self.hex_columns(self.reference_columns(ballots, m))
        assert (got[2] is None) == (lengths == [m] * len(lengths))

    def test_a_tally_reads_no_allocations(self):
        scheme, dist, ballots = TestSpendsOnFirstRead.valid_round()
        result = tally(scheme, dist, ballots, 5)
        score(ballots, 5), vscore(SchemeSpec("qv1"), ballots, 5)
        validate_ballot(scheme, dist.stake_of(ballots[0].voter_id), ballots[0])
        assert all("allocations" not in vars(b) for b in ballots)
        assert result.used().tolist() == [math.fsum(map(abs, b.allocations)) for b in ballots]

    def test_fields_replace_and_copies(self):
        ballot = BallotProfile("a", [1.5, -0.0, 2])
        assert dataclasses.is_dataclass(ballot)
        assert [f.name for f in dataclasses.fields(ballot)] == ["voter_id", "allocations"]
        moved = dataclasses.replace(ballot, allocations=(3.0,))
        assert moved == BallotProfile("a", (3.0,)) and moved._row == BallotProfile("a", [3])._row
        assert dataclasses.replace(ballot) == ballot
        for read in (lambda b: b, lambda b: b.allocations):  # before and after the first read
            read(ballot)
            for twin in (pickle.loads(pickle.dumps(ballot)), copy.deepcopy(ballot),
                         copy.copy(ballot)):
                assert twin == ballot and hash(twin) == hash(ballot)
                assert twin._row == ballot._row and repr(twin) == repr(ballot)
        assert repr(ballot) == "BallotProfile(voter_id='a', allocations=(1.5, -0.0, 2.0))"
        with pytest.raises(FrozenInstanceError):
            ballot.allocations = (1.0,)
        with pytest.raises(FrozenInstanceError):
            ballot.voter_id = "b"

    @pytest.mark.parametrize("read", [
        lambda b: b.allocations, lambda b: b == BallotProfile("a", (1.5, -0.0)), hash, repr])
    def test_allocations_stay_lazy_until_read(self, read):
        ballot = BallotProfile("a", [1.5, -0.0])
        assert "allocations" not in vars(ballot)
        read(ballot)
        assert vars(ballot)["allocations"] == (1.5, -0.0)


class TestBallotMemory:
    """A ballot keeps its id and packed row as plain attributes: on 3.11+
    they are inline values, and it has no dict until `allocations` is read."""

    ROW = [0.5, 1.5, 2.5, 3.5, 4.5]

    class DictBallot:
        """The same two attributes, written through __dict__.update."""

        def __init__(self, voter_id, row):
            self.__dict__.update(voter_id=voter_id, _row=row)

    @staticmethod
    def bytes_per_ballot(make, n=10_000):
        ids = [f"v{i}" for i in range(n)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ballots = [make(vid) for vid in ids]  # held while measured
            return (tracemalloc.get_traced_memory()[0] - before) / len(ballots)
        finally:
            tracemalloc.stop()

    def test_a_ballot_holds_no_dict(self):
        ballot = self.bytes_per_ballot(lambda vid: BallotProfile(vid, self.ROW))
        reference = self.bytes_per_ballot(
            lambda vid: self.DictBallot(vid, array("d", self.ROW).tobytes()))
        # 3.13 dicts share an object's inline values, so only the dict object goes
        least = (0 if sys.version_info < (3, 11) else 100 if sys.version_info < (3, 13)
                 else 48)
        assert reference - ballot >= least, (reference, ballot)

    def test_a_tally_leaves_the_ballots_as_they_were(self):
        scheme = SchemeSpec("qv2")
        dist = generate(DistributionSpec(kind="pareto", n=3600, seed=5))
        rng = np.random.default_rng(5)
        rows = [(vid, TestBatchedTallyMatchesLoop.row_at(
            voting_credit(scheme, s), rng.random(5).tolist(), [1.0] * 5))
            for vid, s in dist.entries]
        # a first call's caches are not the ballots': fill them with twin
        # ballots. A full collection empties the interpreter's free lists,
        # which the measured call would then refill (about 1.5 kB), so none
        # runs until the measurement ends.
        gc.disable()
        try:
            tally(scheme, dist, [BallotProfile(vid, row) for vid, row in rows], 5)
            ballots = [BallotProfile(vid, row) for vid, row in rows]
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            tally(scheme, dist, ballots, 5)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert abs(held) < 1024, held  # a dict per ballot would hold > 100 kB


class TestOnePassPerRound:
    """vscore reuses score outside qv1, and the sign test builds the
    per-row mask of negative entries only for a round that has one."""

    SCHEMES = TestBatchedTallyMatchesLoop.SCHEMES

    @pytest.fixture
    def impact_calls(self, monkeypatch):
        calls, impact = [], schemes._impact
        monkeypatch.setattr(schemes, "_impact", lambda scheme, alloc:
                            calls.append(scheme.family) or impact(scheme, alloc))
        return calls

    @pytest.fixture
    def negative_masks(self, monkeypatch):
        """The shapes of the (B, m) `alloc < 0` masks a tally builds."""
        masks = []

        class Watched(np.ndarray):
            def __lt__(self, other):
                if self.ndim == 2:
                    masks.append(self.shape)
                return np.ndarray.__lt__(self, other)

        columns = schemes._ballot_columns

        def watched_columns(ballots, m):
            ids, alloc, mismatch = columns(ballots, m)
            return ids, alloc.view(Watched), mismatch

        monkeypatch.setattr(schemes, "_ballot_columns", watched_columns)
        return masks

    @staticmethod
    def round_of(scheme, signs):
        dist = generate(DistributionSpec(kind="pareto", n=30, seed=3))
        rng = np.random.default_rng(3)
        return dist, [BallotProfile(vid, TestBatchedTallyMatchesLoop.ballot(
            scheme, voting_credit(scheme, s), (rng.random(4) * (rng.random(4) < 0.7)).tolist(),
            signs))
            for vid, s in dist.entries]

    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_impact_runs_for_qv1_alone(self, impact_calls, family, kw):
        scheme = SchemeSpec(family, polarity="yes-no-abstain", **kw)
        dist, ballots = self.round_of(scheme, [1.0, -1.0, 1.0, -1.0])
        result = tally(scheme, dist, ballots, 4)
        want = [family] if family == "qv1" else []
        assert impact_calls == want
        assert vscore(scheme, ballots, 4).tolist() == list(result.vscore)
        assert impact_calls == want * 2
        if family != "qv1":
            assert result.vscore == result.score

    @pytest.mark.parametrize("polarity, signs", [
        ("yes-abstain", [1.0] * 4),
        ("yes-abstain", [-1.0] * 4),  # zeros are -0.0, no negative entry
        ("yes-no-abstain", [1.0, -1.0, 1.0, -1.0]),
    ])
    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_no_negative_mask_without_a_negative_entry(self, negative_masks, family, kw,
                                                       polarity, signs):
        scheme = SchemeSpec(family, polarity=polarity, **kw)
        dist, ballots = self.round_of(scheme, signs)
        tally(scheme, dist, ballots, 4)
        assert negative_masks == []

    @pytest.mark.parametrize("ghost", (None, 0, 15, 29))
    @pytest.mark.parametrize("n", (0, 1, 2, 30))
    def test_known_voters_are_fetched_in_one_call(self, n, ghost):
        # a round of two or more known voters takes every row in one
        # itemgetter call; only a shorter round or an unknown id scans the
        # ids with the index's get
        gets = []

        class Watched(dict):
            def get(self, key, default=None):
                gets.append(key)
                return dict.get(self, key, default)

        scheme = SchemeSpec("qv2")
        dist, ballots = self.round_of(scheme, [1.0] * 4)
        ballots = ballots[:n]
        if ghost is not None and ghost < n:
            ballots[ghost] = BallotProfile("ghost", ballots[ghost].allocations)
        dist.__dict__["_index"] = Watched(dist._index)
        try:
            tally(scheme, dist, ballots, 4)
        except UnknownVoter:
            pass
        scanned = n < 2 or (ghost is not None and ghost < n)
        assert gets == ([b.voter_id for b in ballots] if scanned else [])

    @pytest.mark.parametrize("family, kw", SCHEMES)
    def test_a_negative_entry_builds_the_mask_once(self, negative_masks, family, kw):
        scheme = SchemeSpec(family, **kw)
        dist, ballots = self.round_of(scheme, [1.0] * 4)
        ballots[9] = BallotProfile(ballots[9].voter_id, (-1.0, *ballots[9].allocations[1:]))
        with pytest.raises(InvalidBallot) as exc:
            tally(scheme, dist, ballots, 4)
        assert isinstance(exc.value.cause, NegativeUnderYesAbstain)
        assert negative_masks == [(30, 4)]
