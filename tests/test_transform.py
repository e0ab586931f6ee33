import math

import numpy as np
import pytest

from qvkit import canonicalize, stake, transform
from qvkit.errors import (
    GammaOutOfRange,
    InvalidSpec,
    KOutOfRange,
    TargetBelowFloor,
)
from tests.conftest import seeded_population


def two_voters():
    return canonicalize([("a", 1), ("b", 99)])


class TestApplyGamma:
    def test_identity(self):
        dist = canonicalize([("a", 2), ("b", 5)])
        assert transform.apply_gamma(dist, 1.0).entries == dist.entries

    def test_square_root(self):
        dist = canonicalize([("a", 4), ("b", 16)])
        assert transform.apply_gamma(dist, 0.5).entries == (("a", 2.0), ("b", 4.0))

    def test_cube_root(self):
        dist = canonicalize([("a", 1), ("b", 8)])
        out = transform.apply_gamma(dist, 1 / 3)
        assert out.entries[0][1] == pytest.approx(1.0, abs=1e-15)
        assert out.entries[1][1] == pytest.approx(2.0, abs=1e-15)

    def test_preserves_ranking(self):
        dist = seeded_population(5, n=30)
        out = transform.apply_gamma(dist, 0.4)
        assert out.voter_ids == dist.voter_ids
        assert np.all(np.diff(out.stakes()) > 0)

    def test_gamma_range(self):
        with pytest.raises(GammaOutOfRange):
            transform.apply_gamma(two_voters(), 0.0)


class TestTopShare:
    def test_linear_whale(self):
        assert transform.top_share(two_voters(), 1, 1.0) == pytest.approx(0.99)

    def test_whole_population(self):
        dist = seeded_population(1, n=12)
        assert transform.top_share(dist, 12, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_small_gamma_approaches_uniform(self):
        assert transform.top_share(two_voters(), 1, 1e-8) == pytest.approx(
            0.5, abs=1e-6)

    def test_k_range(self):
        with pytest.raises(KOutOfRange):
            transform.top_share(two_voters(), 3, 0.5)

    def test_monotone_in_gamma(self):
        for seed in range(15):
            dist = seeded_population(seed, n=20)
            k = 1 + seed % 5
            grid = np.arange(0.05, 1.0001, 0.05)
            vals = [transform.top_share(dist, k, g) for g in grid]
            assert np.all(np.diff(vals) > 0)

    def test_derivative_matches_finite_difference(self, rng):
        dist = seeded_population(9, n=15)
        for _ in range(10):
            gamma = float(rng.uniform(0.05, 0.95))
            k = int(rng.integers(1, 6))
            h = 1e-6
            fd = (transform.top_share(dist, k, gamma + h)
                  - transform.top_share(dist, k, gamma - h)) / (2 * h)
            an = transform.top_share_derivative(dist, k, gamma)
            assert an > 0
            assert abs(fd - an) <= 1e-4 * abs(an)


class TestGammaSearch:
    def test_two_voter_closed_form(self):
        result = transform.gamma_search(two_voters(), 1, 0.6, tol=1e-9)
        assert result.converged
        assert abs(result.achieved_share - 0.6) <= 1e-9
        assert result.gamma == pytest.approx(math.log(1.5) / math.log(99),
                                             abs=1e-6)

    def test_target_already_met(self):
        result = transform.gamma_search(two_voters(), 1, 0.995)
        assert result.converged
        assert result.gamma == 1.0
        assert result.achieved_share == pytest.approx(0.99)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(InvalidSpec):
            transform.gamma_search(two_voters(), 1, 0.6, tol=tol)

    def test_strict_input_rejects_met_target(self):
        with pytest.raises(InvalidSpec):
            transform.gamma_search(two_voters(), 1, 0.995, strict_input=True)

    def test_target_below_floor(self):
        with pytest.raises(TargetBelowFloor):
            transform.gamma_search(two_voters(), 1, 0.4)

    def test_bracket_independence(self):
        dist = seeded_population(21, n=50)
        alpha = 0.5 * (1 / 50 + transform.top_share(dist, 1, 1.0))
        a = transform.gamma_search(dist, 1, alpha, bracket=(1e-9, 1.0))
        b = transform.gamma_search(dist, 1, alpha, bracket=(1e-7, 0.97))
        assert a.converged and b.converged
        assert abs(a.gamma - b.gamma) < 1e-8

    def test_iteration_budget(self):
        dist = seeded_population(30, n=80)
        alpha = 0.6 * transform.top_share(dist, 2, 1.0) + 0.4 * (2 / 80)
        result = transform.gamma_search(dist, 2, alpha)
        assert result.converged
        assert result.iterations <= 200

    def test_newton_needs_few_share_evaluations(self):
        # the populations and targets of acceptance criterion 7
        rng = np.random.Generator(np.random.PCG64(707))
        for trial in range(200):
            dist = seeded_population(5000 + trial)
            k = int(rng.integers(1, min(6, dist.n)))
            floor = k / dist.n
            current = transform.top_share(dist, k, 1.0)
            alpha = floor + float(rng.uniform(0.1, 0.9)) * (current - floor)
            result = transform.gamma_search(dist, k, alpha)
            assert result.converged
            assert result.iterations <= 10, (trial, result.iterations)

    def test_nearly_flat_share_still_terminates(self):
        # stakes equal to within 1e-6, so the share's slope is tiny and its
        # rounding noise moves Newton's target far more than the gamma tolerance
        dist = stake.generate(stake.DistributionSpec(
            kind="uniform", n=100_000, seed=3, lo=1.0, hi=1.0 + 1e-6))
        floor = 10 / dist.n
        alpha = 0.5 * (floor + transform.top_share(dist, 10, 1.0))
        result = transform.gamma_search(dist, 10, alpha)
        assert result.converged
        assert result.iterations <= 30


class TestVerifyProperties:
    def test_typical_distribution(self):
        dist = canonicalize([("a", 1), ("b", 4), ("c", 9)])
        report = transform.verify_transform_properties(dist, 0.5)
        assert report["order_preserved"]
        assert report["endpoints"]
        assert report["gain_prefix"]
        assert report["loss_suffix"]
        assert report["metrics_improve"]
        assert not report["tie_degenerate"]

    def test_ties_flagged(self):
        dist = canonicalize([("a", 2), ("b", 2), ("c", 2)])
        report = transform.verify_transform_properties(dist, 0.5)
        assert report["tie_degenerate"]

    def test_cap_holds_at_search_gamma(self):
        dist = seeded_population(44, n=30)
        alpha = 0.5 * (1 / 30 + transform.top_share(dist, 1, 1.0))
        found = transform.gamma_search(dist, 1, alpha)
        report = transform.verify_transform_properties(dist, found.gamma,
                                                       alpha=alpha)
        assert report["impact_capped"]
