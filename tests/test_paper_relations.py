"""Metamorphic relations from the paper's definitions: two runs of qvkit whose
answers must agree, with no reference implementation.

- The paper's three types: a one-proposal ballot gets sqrt(s) votes under
  qv1, qv2 and qv3 (Types 2, 1 and 3), and splitting a stake over k
  identities multiplies its vote mass by sqrt(k), or by 1 under linear voting.
- Stake scaling by 4**k scales every credit by a power of two at gamma = 0.5
  and 1, so the shares, and all that is read from them, do not change.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from qvkit import (attacks, canonicalize, gamma_search, report, schemes, top_share,
                   top_share_derivative)
from qvkit.schemes import BallotProfile, SchemeSpec

SQUARE_ROOT_FAMILIES = ("qv1", "qv2", "qv3")
THRESHOLDS = (0.33, 0.5, 0.66)

# stakes e**u, u in [-30, 30]
stakes_ = st.floats(-30.0, 30.0).map(math.exp)


@settings(max_examples=200, deadline=None)
@given(s=stakes_)
def test_a_one_proposal_ballot_gets_the_square_root_of_its_stake(s):
    dist = canonicalize([("v", s)])
    for family in SQUARE_ROOT_FAMILIES:
        scheme = SchemeSpec(family)
        ballot = BallotProfile("v", (schemes.voting_credit(scheme, s),))
        assert schemes.tally(scheme, dist, [ballot], 1).vscore == (math.sqrt(s),)


@settings(max_examples=200, deadline=None)
@given(s=stakes_, k=st.integers(1, 10 ** 6))
def test_a_sybil_split_gains_the_square_root_of_its_count(s, k):
    # k * sqrt(s / k) / sqrt(s) rounds five times, which bounds its error by
    # 4.5 units of roundoff, so by 4.5 ulps; sqrt(k) adds half of one. The
    # error reached 3 ulps at s = 0.3513182732975657, k = 58,592
    root = math.sqrt(k)
    for family in SQUARE_ROOT_FAMILIES:
        assert abs(attacks.sybil_gain(SchemeSpec(family), s, k) - root) <= 5 * math.ulp(root)
    assert attacks.sybil_gain(SchemeSpec("linear"), s, k) == 1.0


# away from underflow and overflow
distributions = st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=30)


def scaled(stakes, k):
    return canonicalize([(f"v{i}", s * 4.0 ** k) for i, s in enumerate(stakes)])


@settings(max_examples=60, deadline=None)
@given(stakes=distributions, top=st.integers(1, 29))
def test_scaling_the_stakes_by_a_power_of_four_leaves_the_shares(stakes, top):
    top = min(top, len(stakes))
    base = scaled(stakes, 0)
    for k in (-3, 2, 5):
        dist = scaled(stakes, k)
        for gamma in (0.5, 1.0):
            want, got = report(base, gamma, THRESHOLDS), report(dist, gamma, THRESHOLDS)
            assert got.gini == want.gini
            assert got.nakamoto == want.nakamoto
            assert [p[1] for p in got.lorenz] == [p[1] for p in want.lorenz]
            assert top_share(dist, top, gamma) == top_share(base, top, gamma)


@settings(max_examples=40, deadline=None)
@given(stakes=distributions, top=st.integers(1, 28), at=st.floats(0.05, 0.95))
def test_scaling_the_stakes_by_a_power_of_four_moves_gamma_within_its_tolerance(stakes,
                                                                               top, at):
    # gamma is the root of share(gamma) = alpha, pinned to a step of 1e-12.
    # The last bits of the shares it is found from follow the stakes' logs,
    # so it is not bit-identical under scaling: it moves by that step, plus
    # the shares' rounding over their slope. Stakes (1.0, 0.5) at top 1 and
    # the middle target move it by 11 ulps; (2.0, 2.00001), whose shares are
    # nearly flat in gamma, by 8.9e-11
    top = min(top, len(stakes) - 1)
    base = scaled(stakes, 0)
    floor, current = top / base.n, top_share(base, top, 1.0)
    assume(current > floor * (1 + 1e-6))
    alpha = floor + at * (current - floor)
    want = gamma_search(base, top, alpha)
    assert want.converged
    slope = top_share_derivative(base, top, want.gamma)
    for k in (-3, 2, 5):
        got = gamma_search(scaled(stakes, k), top, alpha)
        assert got.converged
        assert abs(got.gamma - want.gamma) <= 1e-12 + 1e-15 / abs(slope)
