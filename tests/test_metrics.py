import dataclasses
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvkit import canonicalize, metrics, stake
from qvkit.errors import (
    AllZero,
    GammaOutOfRange,
    InvalidSpec,
    LengthMismatch,
    NegativeCredit,
    NonPositiveCount,
    ThresholdOutOfRange,
    Unsorted,
)
from tests.conftest import seeded_population

SLACK = 1e-12


def dist149():
    return canonicalize([("a", 1), ("b", 4), ("c", 9)])


class TestRvr:
    def test_split_sqrt(self):
        assert np.allclose(metrics.rvr_split(dist149(), 0.5),
                           [1 / 6, 2 / 6, 3 / 6], rtol=0, atol=1e-15)

    def test_split_linear(self):
        assert np.allclose(metrics.rvr_split(dist149(), 1.0),
                           [1 / 14, 4 / 14, 9 / 14], rtol=0, atol=1e-15)

    def test_split_equal_stakes(self):
        dist = canonicalize([("a", 5), ("b", 5), ("c", 5), ("d", 5)])
        for gamma in (0.1, 0.5, 1.0):
            assert np.allclose(metrics.rvr_split(dist, gamma), [0.25] * 4,
                               rtol=0, atol=1e-15)

    def test_gamma_out_of_range(self):
        with pytest.raises(GammaOutOfRange):
            metrics.rvr_split(dist149(), 0.0)
        with pytest.raises(GammaOutOfRange):
            metrics.rvr_split(dist149(), 1.5)

    def test_unsplit_reduces_to_split(self):
        dist = dist149()
        assert np.allclose(metrics.rvr_unsplit(dist, [1, 1, 1], 0.5),
                           metrics.rvr_split(dist, 0.5), rtol=0, atol=1e-15)

    def test_unsplit_small_voter_matches_whale(self):
        dist = canonicalize([("a", 1), ("b", 9)])
        assert np.allclose(metrics.rvr_unsplit(dist, [3, 1], 0.5), [0.5, 0.5],
                           rtol=0, atol=1e-15)
        assert np.allclose(metrics.rvr_unsplit(dist, [1, 1], 0.5), [0.25, 0.75],
                           rtol=0, atol=1e-15)

    def test_unsplit_bad_counts(self):
        with pytest.raises(LengthMismatch):
            metrics.rvr_unsplit(dist149(), [1, 1], 0.5)
        with pytest.raises(NonPositiveCount):
            metrics.rvr_unsplit(dist149(), [1, 0, 1], 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, 0.5, 0, -2])
    def test_unsplit_first_bad_count(self, bad):
        with pytest.raises(NonPositiveCount) as exc:
            metrics.rvr_unsplit(dist149(), [2, bad, bad], 0.5)
        assert exc.value.index == 1

    @pytest.mark.parametrize("counts", [[1, "a", 1], ["1", "2", "3"], [1, None, 1],
                                        [1, 1j, 1]])
    def test_unsplit_counts_must_be_numbers(self, counts):
        with pytest.raises(InvalidSpec):
            metrics.rvr_unsplit(dist149(), counts, 0.5)

    @pytest.mark.parametrize("counts", [[True, True, True], np.array([True, True, True]),
                                        [1, True, 1], [2, 1, np.True_]])
    def test_a_bool_is_no_count(self, counts):
        # as a bool is no scalar count (errors._whole_number)
        with pytest.raises(InvalidSpec, match="^counts must be whole numbers"):
            metrics.rvr_unsplit(dist149(), counts, 0.5)

    def test_unsplit_whole_float_counts(self):
        assert np.array_equal(metrics.rvr_unsplit(dist149(), [3.0, 1.0, 2.0], 0.5),
                              metrics.rvr_unsplit(dist149(), [3, 1, 2], 0.5))


class TestEta:
    def test_values(self):
        assert np.allclose(metrics.eta(dist149(), 0.5),
                           [14 / 6, 14 / 12, 14 / 18], rtol=0, atol=1e-14)

    def test_equal_stakes_all_one(self):
        dist = canonicalize([("a", 3), ("b", 3)])
        assert np.allclose(metrics.eta(dist, 0.5), [1, 1], rtol=0, atol=1e-15)

    def test_smallest_voter_gains(self):
        for seed in range(20):
            dist = seeded_population(seed, n=10)
            assert metrics.eta(dist, 0.5)[0] > 1

    def test_threshold_values(self):
        assert metrics.eta_threshold(dist149()) == pytest.approx(14 / 6, abs=1e-14)
        whale = canonicalize([("a", 1), ("b", 10 ** 6)])
        assert metrics.eta_threshold(whale) == pytest.approx(1000001 / 1001,
                                                             rel=1e-14)

    def test_threshold_boundary_equal_stakes(self):
        dist = canonicalize([("a", 4), ("b", 4)])
        assert metrics.eta_threshold(dist) == pytest.approx(2.0, abs=1e-15)


class TestGini:
    def test_arithmetic_sequence(self):
        assert metrics.gini([1, 2, 3, 4, 5]) == pytest.approx(20 / 75, abs=1e-15)

    def test_equal_credits_zero(self):
        assert metrics.gini([3, 3, 3, 3]) == pytest.approx(0.0, abs=1e-15)

    def test_full_concentration(self):
        assert metrics.gini([0, 0, 0, 0, 1]) == pytest.approx(4 / 5, abs=1e-15)

    def test_rejects_unsorted(self):
        with pytest.raises(Unsorted):
            metrics.gini([2, 1])

    def test_rejects_all_zero(self):
        with pytest.raises(AllZero):
            metrics.gini([0, 0])

    def test_negative_credit_is_an_unsorted(self):
        with pytest.raises(NegativeCredit, match="nonnegative"):
            metrics.gini([-1, 2])
        assert issubclass(NegativeCredit, Unsorted)

    @pytest.mark.parametrize("credits", [[], [[1.0, 2.0]], [[1.0], [2.0]]])
    def test_rejects_an_empty_or_2d_vector(self, credits):
        for f in (metrics.gini, metrics.gini_from_lorenz, metrics.lorenz_points,
                  lambda c: metrics.nakamoto(c, 0.5)):
            with pytest.raises(AllZero, match="non-empty 1-d"):
                f(credits)

    @pytest.mark.parametrize("credits", [["a", "b"], [1j, 2j], [{}, 1], [[1, 2], [3]]])
    def test_rejects_non_numeric_credits(self, credits):
        for f in (metrics.gini, metrics.gini_from_lorenz, metrics.lorenz_points,
                  lambda c: metrics.nakamoto(c, 0.5)):
            with pytest.raises(InvalidSpec):
                f(credits)

    def test_lorenz_route_agrees(self):
        for credits in ([1, 2, 3, 4, 5], [1, 1, 1, 1, 96], [5.0], [0, 0, 7, 7]):
            g1 = metrics.gini(credits)
            g2 = metrics.gini_from_lorenz(credits)
            assert math.isclose(g1, g2, rel_tol=1e-12, abs_tol=1e-15)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=80).filter(lambda c: sum(c) > 0))
    @settings(max_examples=200)
    def test_lorenz_route_agrees_property(self, credits):
        credits = sorted(credits)
        g1 = metrics.gini(credits)
        g2 = metrics.gini_from_lorenz(credits)
        assert math.isclose(g1, g2, rel_tol=1e-12, abs_tol=1e-15)
        assert -1e-15 <= g1 <= (len(credits) - 1) / len(credits) + 1e-15

    def test_lorenz_points_shape(self):
        points = metrics.lorenz_points([1, 2, 3])
        assert points[0] == (0, 0.0)
        assert points[-1][0] == 3
        assert points[-1][1] == pytest.approx(1.0, abs=1e-12)
        shares = [s for _, s in points]
        assert all(b >= a for a, b in zip(shares, shares[1:]))


class TestNakamoto:
    def test_linear_scan(self):
        assert metrics.nakamoto([1, 2, 3, 4, 5], 0.51) == 2

    def test_sqrt_credits_need_more(self):
        assert metrics.nakamoto(np.sqrt([1, 2, 3, 4, 5]), 0.51) == 3

    def test_tiny_threshold(self):
        assert metrics.nakamoto([1, 2, 3], 1e-9) == 1

    @pytest.mark.parametrize("a", [0.0, -0.0, 1.0, -0.5])
    def test_threshold_range(self, a):
        with pytest.raises(ThresholdOutOfRange):
            metrics.nakamoto([1, 2], a)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_running_sum_from_the_top(self, seed):
        rng = np.random.default_rng(seed)
        c = np.sort(rng.pareto(1.16, 5000) + 1.0)
        for a in (1e-9, 0.33, 0.51, 0.67, 0.9, 1 - 1e-16):
            target = a * math.fsum(c.tolist())
            acc, want = 0.0, c.size
            for k, v in enumerate(c[::-1].tolist(), start=1):
                acc += v
                if acc >= target:
                    want = k
                    break
            assert metrics.nakamoto(c, a) == want

    def test_normalized(self):
        assert metrics.nakamoto_normalized([1, 2, 3, 4, 5], 0.51) == 2 / 5
        assert metrics.nakamoto_normalized(np.sqrt([1, 2, 3, 4, 5]), 0.51) == 3 / 5
        assert metrics.nakamoto_normalized([9], 0.5) == 1.0


class TestNonFiniteCredits:
    @pytest.mark.parametrize("credits", [[1.0, math.nan], [1.0, math.inf],
                                         [1.0, math.nan, 2.0], [-math.inf, 1.0]])
    def test_every_credit_metric_rejects(self, credits):
        for call in (metrics.gini, metrics.gini_from_lorenz, metrics.lorenz_points,
                     lambda c: metrics.nakamoto(c, 0.5)):
            with pytest.raises(InvalidSpec):
                call(credits)

    @pytest.mark.parametrize("credits", [[1e308, 1e308], [1.0, 1e308, 1.7e308]])
    def test_every_credit_metric_rejects_an_overflowing_sum(self, credits):
        for call in (metrics.gini, metrics.gini_from_lorenz, metrics.lorenz_points,
                     lambda c: metrics.nakamoto(c, 0.5)):
            with pytest.raises(InvalidSpec):
                call(credits)

    def test_gini_rejects_an_overflowing_rank_sum(self):
        # the total fits; the rank-weighted sum, or twice it, does not
        for credits in ([1e305] * 1000, [4e307, 4e307]):
            with pytest.raises(InvalidSpec):
                metrics.gini(credits)
            assert metrics.gini_from_lorenz(credits) == pytest.approx(0.0, abs=1e-12)
            assert metrics.lorenz_points(credits)[-1] == (len(credits), 1.0)

    def test_report_and_ratios_reject_an_overflowing_sum(self):
        dist = canonicalize([("a", 1e308), ("b", 1.5e308)])
        for call in (lambda: metrics.report(dist, 1.0, [0.5]),
                     lambda: metrics.rvr_split(dist, 1.0),
                     lambda: metrics.rvr_unsplit(dist, [1, 1], 1.0)):
            with pytest.raises(InvalidSpec):
                call()
        assert metrics.rvr_split(dist, 0.5).sum() == pytest.approx(1.0)

    def test_stake_total_past_the_float_range_is_invalid_spec(self):
        # the square-root credits sum fine; the stakes' own total does not
        dist = canonicalize([("a", 1e308), ("b", 1.5e308)])
        for call in (lambda: metrics.report(dist, 0.5, [0.5]),
                     lambda: metrics.eta(dist, 0.5),
                     lambda: metrics.eta_threshold(dist)):
            with pytest.raises(InvalidSpec):
                call()

    def test_overflowing_unsplit_product_raises_without_a_warning(self):
        # the suite turns a RuntimeWarning into an error, so numpy's
        # "overflow encountered in multiply" would surface instead
        dist = canonicalize([("a", 1e308), ("b", 1.5e308)])
        with pytest.raises(InvalidSpec):
            metrics.rvr_unsplit(dist, [1, 2], 1.0)


class TestReport:
    def test_one_nakamoto_per_threshold(self):
        dist = seeded_population(8, n=60)
        rep = metrics.report(dist, 0.5, [0.33, 0.51, 0.51])
        credits = dist.stakes() ** 0.5
        assert rep.nakamoto == {
            a: (metrics.nakamoto(credits, a), metrics.nakamoto_normalized(credits, a))
            for a in (0.33, 0.51)}
        assert rep.eta == tuple(metrics.eta(dist, 0.5).tolist())
        assert rep.rvr == tuple(metrics.rvr_split(dist, 0.5).tolist())

    def test_credits_are_checked_once_for_all_thresholds(self, monkeypatch):
        dist = seeded_population(9, n=500)
        want = metrics.report(dist, 0.5, [0.2, 0.33, 0.51, 0.67, 0.9]).nakamoto
        checked = []
        check = metrics._check_credits
        monkeypatch.setattr(metrics, "_check_credits",
                            lambda c: checked.append(1) or check(c))
        rep = metrics.report(dist, 0.5, [0.2, 0.33, 0.51, 0.67, 0.9])
        assert rep.nakamoto == want
        assert len(checked) == 1  # once for gini and the Nakamoto counts

    def test_a_report_holds_its_fields_alone(self):
        rep = metrics.report(seeded_population(9, n=500), 0.5, [0.51])
        assert set(vars(rep)) <= {f.name for f in dataclasses.fields(rep)}

    @pytest.mark.parametrize("thresholds, error", [
        ([0.5, 1.5], ThresholdOutOfRange), ([1.5, 0.5], ThresholdOutOfRange),
        ([0.5, "x"], InvalidSpec), ([], None), ([0.5, 0.0], ThresholdOutOfRange)])
    def test_thresholds_are_checked_in_order(self, thresholds, error):
        dist = canonicalize([("a", 1), ("b", 4)])
        if error is None:
            assert metrics.report(dist, 0.5, thresholds).nakamoto == {}
        else:
            with pytest.raises(error):
                metrics.report(dist, 0.5, thresholds)

    def test_five_voter_sqrt(self):
        dist = canonicalize([(f"v{i}", s) for i, s in enumerate([1, 2, 3, 4, 5])])
        rep = metrics.report(dist, 0.5, [0.51])
        assert rep.gini == pytest.approx(0.1459, abs=5e-5)
        assert rep.nakamoto[0.51][0] == 3

    def test_five_voter_linear(self):
        dist = canonicalize([(f"v{i}", s) for i, s in enumerate([1, 2, 3, 4, 5])])
        rep = metrics.report(dist, 1.0, [0.51])
        assert rep.gini == pytest.approx(20 / 75, abs=1e-12)
        assert rep.nakamoto[0.51][0] == 2
        assert np.allclose(rep.eta, 1.0, rtol=0, atol=1e-15)

    def test_equal_stakes(self):
        dist = canonicalize([("a", 2), ("b", 2), ("c", 2)])
        rep = metrics.report(dist, 0.5, [0.51])
        assert rep.gini == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(rep.eta, 1.0, rtol=0, atol=1e-15)

    def test_invariants(self):
        dist = seeded_population(3, n=40)
        rep = metrics.report(dist, 0.5, [0.33, 0.51])
        assert math.fsum(rep.rvr) == pytest.approx(1.0, abs=1e-12)
        assert rep.lorenz[-1][1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    def test_lorenz_is_built_on_first_read(self, gamma):
        dist = seeded_population(5, n=300)
        rep = metrics.report(dist, gamma, [0.51])
        assert "lorenz" not in rep.__dict__
        want = tuple(metrics.lorenz_points(stake.credits(dist.stakes(), gamma)))
        assert repr(rep.lorenz) == repr(want)  # bit for bit: repr round-trips
        assert rep.lorenz is rep.lorenz
        assert rep == metrics.report(dist, gamma, [0.51])
        assert "lorenz" not in repr(rep)


class TestRatioStructure:
    """Randomized order/threshold structure of the ratio vectors."""

    GAMMAS = (0.1, 0.3, 0.5, 0.7, 0.9)

    def test_rvr_order_preservation(self):
        for seed in range(40):
            dist = seeded_population(seed)
            for gamma in self.GAMMAS + (1.0,):
                r = metrics.rvr_split(dist, gamma)
                assert np.all(np.diff(r) > -SLACK)

    def test_eta_structure(self):
        for seed in range(40):
            dist = seeded_population(seed)
            for gamma in self.GAMMAS:
                e = metrics.eta(dist, gamma)
                assert e[0] > 1 - SLACK
                assert e[-1] < 1 + SLACK
                assert np.all(np.diff(e) < SLACK)
                gains = (e > 1).astype(int)
                assert np.all(np.diff(gains) <= 0)  # prefix of gainers

    def test_eta_threshold_criterion(self):
        for seed in range(40):
            dist = seeded_population(seed)
            t = metrics.eta_threshold(dist)
            e = metrics.eta(dist, 0.5)
            roots = np.sqrt(dist.stakes())
            decided = np.abs(e - 1) > SLACK
            assert np.all((e[decided] > 1) == (roots[decided] < t))

    def test_unsplit_structure(self, rng):
        for seed in range(40):
            dist = seeded_population(seed)
            counts = rng.integers(1, 11, dist.n)
            for gamma in self.GAMMAS:
                u = metrics.rvr_unsplit(dist, counts, gamma)
                ul = metrics.rvr_unsplit(dist, counts, 1.0)
                assert u[0] > ul[0] - SLACK
                assert u[-1] < ul[-1] + SLACK
                gains = (u > ul).astype(int)
                assert np.all(np.diff(gains) <= 0)
                for c in np.unique(counts):
                    grp = u[counts == c]
                    assert np.all(np.diff(grp) > -SLACK)

    def test_gini_improves_for_sub_linear_gamma(self):
        for seed in range(40):
            dist = seeded_population(seed)
            stakes = dist.stakes()
            g_lin = metrics.gini(stakes)
            for gamma in self.GAMMAS:
                assert metrics.gini(stakes ** gamma) < g_lin

    def test_nakamoto_never_degrades(self):
        for seed in range(40):
            dist = seeded_population(seed)
            stakes = dist.stakes()
            for gamma in self.GAMMAS:
                for a in (0.33, 0.51, 0.67, 0.9):
                    assert metrics.nakamoto(stakes ** gamma, a) >= \
                        metrics.nakamoto(stakes, a)

    def test_partial_sum_comparison(self, rng):
        # summation-by-parts oracle: the linear weights dominate the
        # gamma-power weights against any ascending y
        for seed in range(30):
            dist = seeded_population(seed, n=25)
            stakes = dist.stakes()
            a = stakes / math.fsum(stakes)
            gamma = float(rng.uniform(0.05, 0.95))
            w = stakes ** gamma
            b = w / math.fsum(w)
            y = np.sort(rng.uniform(0, 100, 25))
            assert math.fsum(a * y) >= math.fsum(b * y) - 1e-9


def gini_loop(credits):
    """The rank-sum loop gini used before its array form: the reference."""
    c = np.asarray(credits, dtype=float)
    n = c.size
    total = math.fsum(c.tolist())
    weighted = math.fsum((i + 1) * v for i, v in enumerate(c))
    return (2.0 * weighted - (n + 1) * total) / (n * total)


def kahan_loop(values):
    """The Kahan running sum over numpy scalars, written into an array."""
    out = np.empty(len(values))
    total = 0.0
    carry = 0.0
    for i, v in enumerate(values):
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[i] = total
    return out


def gini_from_lorenz_loop(credits, cum=None):
    """gini_from_lorenz with its trapezoid fsum over numpy scalars, from the
    running sums `cum` (by default kahan_loop's)."""
    c = np.asarray(credits, dtype=float)
    cum = kahan_loop(c) if cum is None else cum
    shares = cum / cum[-1]
    prev = np.concatenate(([0.0], shares[:-1]))
    half = c.size / 2.0
    return (half - math.fsum((p + s) / 2.0 for p, s in zip(prev, shares))) / half


def lorenz_loop(credits, cum=None):
    """lorenz_points from the running sums `cum` (by default kahan_loop's)."""
    cum = kahan_loop(np.asarray(credits, dtype=float)) if cum is None else cum
    total = cum[-1]
    return [(0, 0.0)] + [(i + 1, float(s / total)) for i, s in enumerate(cum)]


def prefix_sums_checked(credits):
    """metrics._prefix_sums of the credits, once each sum that differs from
    kahan_loop's is shown to lie no farther than it from the exact prefix
    sum, taken as a fractions.Fraction."""
    c = np.asarray(credits, dtype=float)
    new, old = metrics._prefix_sums(c), kahan_loop(c)
    ratios = [v.as_integer_ratio() for v in c.tolist()]
    d = max(den for _, den in ratios)  # a power of two: each den divides it
    exact = list(accumulate(num * (d // den) for num, den in ratios))
    for i in np.flatnonzero(new != old).tolist():
        want = Fraction(exact[i], d)
        assert abs(Fraction(new[i]) - want) <= abs(Fraction(old[i]) - want), i
    return new


class TestArrayFormsMatchTheLoops:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    def test_gini_lorenz_and_report(self, seed, gamma):
        dist = stake.generate(stake.DistributionSpec("pareto", 5_000, seed))
        c = stake.credits(dist.stakes(), gamma)
        assert metrics.gini(c) == gini_loop(c)
        cum = prefix_sums_checked(c)
        assert metrics.lorenz_points(c) == lorenz_loop(c, cum)
        assert metrics.gini_from_lorenz(c) == gini_from_lorenz_loop(c, cum)
        rep = metrics.report(dist, gamma, [0.51])
        ratios = c / math.fsum(c.tolist())
        assert rep.rvr == tuple(float(r) for r in ratios)
        assert rep.eta == tuple(float(e) for e in ratios / stake.normalize(dist))
        assert all(type(v) is float for v in rep.rvr + rep.eta)

    @given(st.lists(st.floats(min_value=0, max_value=1e12), min_size=1,
                    max_size=60).filter(lambda c: sum(c) > 0))
    def test_gini_property(self, credits):
        credits = sorted(credits)
        assert metrics.gini(credits) == gini_loop(credits)
        cum = prefix_sums_checked(credits)
        assert metrics.lorenz_points(credits) == lorenz_loop(credits, cum)
        assert metrics.gini_from_lorenz(credits) == gini_from_lorenz_loop(credits, cum)

    def test_kahan_cumsum_bits_on_100k_credits(self):
        # each prefix sum keeps the Kahan loop's bits, or lies no farther
        # from the exact sum
        dist = stake.generate(stake.DistributionSpec("pareto", 100_000, 301))
        for gamma in (0.3, 0.5, 1.0):
            prefix_sums_checked(stake.credits(dist.stakes(), gamma))
