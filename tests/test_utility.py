import decimal
import inspect
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qvkit
from qvkit import attacks, utility as util
from qvkit.errors import (
    AlignedExceedsTotal,
    DegenerateDenominator,
    DimensionTooLarge,
    InfeasibleSolution,
    InvalidSpec,
    QvkitError,
)

ORACLE_TOL = 1e-6


def random_problem(rng, scheme, m):
    b = rng.uniform(0.1, 10.0, m)
    a = b * rng.uniform(0.0, 0.95, m)
    return util.UtilityProblem(
        profits=tuple(rng.uniform(0.1, 10.0, m)),
        aligned=tuple(a),
        total=tuple(b),
        stake=float(rng.uniform(0.5, 50.0)),
        scheme=scheme,
    )


class TestSuccessProbability:
    def test_basic(self):
        assert util.success_probability(1, 0, 1) == 0.5
        assert util.success_probability(0, 2, 4) == 0.5
        assert util.success_probability(3, 1, 1) == 1.0

    def test_aligned_cannot_exceed_total(self):
        with pytest.raises(AlignedExceedsTotal):
            util.success_probability(1, 3, 2)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            util.success_probability(0, 0, 0)

    def test_monotone_in_allocation(self):
        probs = [util.success_probability(x, 1, 4) for x in (0, 1, 2, 10)]
        assert all(q > p for p, q in zip(probs, probs[1:]))


class TestUtilityAndGradient:
    def test_single_proposal_value(self):
        problem = util.UtilityProblem((10,), (0,), (1,), 1.0, "qv1")
        assert util.utility(problem, [1.0]) == pytest.approx(5.0, abs=1e-15)

    def test_wrong_length_rejected(self):
        problem = util.UtilityProblem((10,), (0,), (1,), 1.0, "qv1")
        with pytest.raises(InvalidSpec):
            util.utility(problem, [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(AlignedExceedsTotal):
            util.UtilityProblem((1,), (2,), (1,), 1.0, "qv1")
        with pytest.raises(InvalidSpec):
            util.UtilityProblem((1,), (0,), (1,), -1.0, "qv1")
        with pytest.raises(InvalidSpec):
            util.UtilityProblem((1,), (0,), (1,), 1.0, "cubic")

    @pytest.mark.parametrize("profits, aligned, total, message", [
        ((1, 2), (0,), (1, 1), "profits, aligned and total must be finite real numbers"),
        (((1,), (2,)), ((0,), (0,)), ((1,), (1,)), "equal-length and non-empty"),
        ((), (), (), "equal-length and non-empty"),
        ((1, -2), (0, 0), (1, 1), "profit at index 1 must be >= 0"),
        ((1, 2), (0, -1), (1, 1), "external masses at index 1"),
        ((1, 2), (0, 0), (-1, 1), "external masses at index 0"),
    ])
    def test_ragged_or_negative_vectors(self, profits, aligned, total, message):
        with pytest.raises(InvalidSpec, match=message):
            util.UtilityProblem(profits, aligned, total, 1.0, "qv2")

    @pytest.mark.parametrize("solver, scheme", [(util.maximize_qv1, "qv2"),
                                                (util.maximize_qv2, "qv1")])
    def test_a_solver_given_the_other_scheme(self, solver, scheme):
        problem = util.UtilityProblem((1, 2), (0, 0), (1, 1), 4.0, scheme)
        with pytest.raises(InvalidSpec, match=f"problem scheme must be {scheme[:2]}"):
            solver(problem)

    def test_gradient_matches_finite_difference(self, rng):
        for scheme in ("qv1", "qv2"):
            for _ in range(20):
                problem = random_problem(rng, scheme, 3)
                x = rng.uniform(0.05, 3.0, 3)
                grad = util.gradient(problem, x)
                h = 1e-6
                for r in range(3):
                    xp, xm = x.copy(), x.copy()
                    xp[r] += h
                    xm[r] -= h
                    fd = (util.utility(problem, xp)
                          - util.utility(problem, xm)) / (2 * h)
                    assert abs(fd - grad[r]) <= 1e-5 * max(1.0, abs(grad[r]))

    def test_arrays_are_cached_and_outside_the_fields(self):
        problem = util.UtilityProblem((1, 2), (0.5, 0), (1, 1), 4, "qv2")
        arrays = problem._vectors
        assert arrays is problem._vectors
        assert [a.tolist() for a in arrays] == [[1.0, 2.0], [0.5, 0.0], [1.0, 1.0]]
        with pytest.raises(ValueError):
            arrays[2][0] = 5.0
        twin = util.UtilityProblem((1.0, 2.0), (0.5, 0.0), (1.0, 1.0), 4, "qv2")
        assert problem == twin and hash(problem) == hash(twin)
        assert repr(problem) == ("UtilityProblem(profits=(1.0, 2.0), aligned=(0.5, 0.0), "
                                 "total=(1.0, 1.0), stake=4, scheme='qv2')")
        moved = replace(problem, total=(2, 2))
        assert moved._vectors[2].tolist() == [2.0, 2.0]
        assert problem._vectors[2].tolist() == [1.0, 1.0]


class TestMaximizeQv1:
    def test_single_proposal_all_in(self):
        problem = util.UtilityProblem((10,), (0,), (1,), 4.0, "qv1")
        sol = util.maximize(problem)
        assert sol.allocation[0] == pytest.approx(2.0, abs=1e-12)
        assert sol.utility == pytest.approx(10 * 2 / 3, abs=1e-12)

    def test_symmetric_split(self):
        problem = util.UtilityProblem((5, 5), (1, 1), (2, 2), 2.0, "qv1")
        sol = util.maximize(problem)
        assert sol.allocation[0] == pytest.approx(sol.allocation[1], abs=1e-9)
        assert math.fsum(v ** 2 for v in sol.allocation) == pytest.approx(
            2.0, abs=1e-9)

    def test_two_proposal_oracle_agreement(self):
        problem = util.UtilityProblem((10, 1), (0, 0), (1, 1), 1.0, "qv1")
        sol = util.maximize(problem)
        oracle = util.brute_force_oracle(problem)
        assert sol.utility >= oracle.utility - ORACLE_TOL * (1 + abs(oracle.utility))
        assert sol.kkt_residual <= 1e-8
        # the high-profit proposal should soak up most of the stake
        assert sol.allocation[0] > sol.allocation[1]

    @pytest.mark.parametrize("tol", [1e-9, 0.0, 1.0])
    def test_exact_at_multiplier_one_half_for_any_tol(self, tol):
        # x = (2, 3) solves x*(x+b)**2 = g*t at t = 1/(2*lam) = 1, where the
        # log multiplier the solver steps in is 0; the maximizers take no
        # tol, so none can change the solution
        problem = util.UtilityProblem((16, 37.5), (0, 0), (2, 2), 13.0, "qv1")
        for maximizer in (util.maximize, util.maximize_qv1):
            with pytest.raises(TypeError):
                maximizer(problem, tol=tol)
        sol = util.maximize(problem)
        assert np.allclose(sol.allocation, (2.0, 3.0), rtol=1e-14, atol=0)
        assert sol.multiplier == pytest.approx(0.5, rel=1e-14)

    def test_flat_objective_degenerate(self):
        problem = util.UtilityProblem((3, 4), (2, 5), (2, 5), 9.0, "qv1")
        sol = util.maximize(problem)
        assert sol.degenerate
        assert sol.utility == pytest.approx(7.0, abs=1e-12)

    def test_stationarity_sign_structure(self, rng):
        # larger gain-per-mass proposals receive larger allocations
        for _ in range(10):
            problem = random_problem(rng, "qv1", 3)
            sol = util.maximize(problem)
            x = np.array(sol.allocation)
            g = np.array(problem.profits) * (np.array(problem.total)
                                             - np.array(problem.aligned))
            b = np.array(problem.total)
            # at stationarity x*(x+b)^2 is proportional to g
            lhs = x * (x + b) ** 2
            assert np.allclose(lhs / g, lhs[0] / g[0], rtol=1e-6)


class TestMaximizeQv2:
    def test_single_proposal(self):
        problem = util.UtilityProblem((10,), (0,), (4,), 9.0, "qv2")
        sol = util.maximize(problem)
        assert sol.allocation[0] == pytest.approx(3.0, abs=1e-12)

    def test_clamping_drops_weak_proposal(self):
        # third proposal has tiny profit and a large external board; the
        # water-filling solution leaves it at zero
        problem = util.UtilityProblem((10, 8, 0.01), (0, 0, 0), (1, 1, 50),
                                      4.0, "qv2")
        sol = util.maximize(problem)
        assert sol.allocation[2] == 0.0
        assert math.fsum(sol.allocation) == pytest.approx(2.0, abs=1e-9)
        assert sol.kkt_residual <= 1e-8

    def test_symmetric_split(self):
        problem = util.UtilityProblem((5, 5, 5), (0, 0, 0), (1, 1, 1),
                                      9.0, "qv2")
        sol = util.maximize(problem)
        assert np.allclose(sol.allocation, 1.0, rtol=0, atol=1e-9)

    def test_oracle_agreement(self, rng):
        for _ in range(10):
            problem = random_problem(rng, "qv2", 3)
            sol = util.maximize(problem)
            oracle = util.brute_force_oracle(problem, resolution=120)
            assert sol.utility >= oracle.utility - ORACLE_TOL * (
                1 + abs(oracle.utility))
            assert sol.kkt_residual <= 1e-8

    def test_zero_gain_coordinate_gets_nothing(self):
        problem = util.UtilityProblem((4, 7), (3, 0), (3, 2), 4.0, "qv2")
        sol = util.maximize(problem)
        assert sol.allocation[0] == 0.0
        assert sol.allocation[1] == pytest.approx(2.0, abs=1e-12)

    def test_water_filling_is_exact_at_scale(self, rng):
        m = 1000
        b = rng.uniform(0.5, 2.0, m)
        problem = util.UtilityProblem(tuple(rng.uniform(0.1, 10.0, m)),
                                      tuple(b * rng.uniform(0.0, 0.95, m)),
                                      tuple(b), 400.0, "qv2")
        sol = util.maximize(problem)
        x = np.array(sol.allocation)
        assert 0 < np.count_nonzero(x == 0.0) < m  # some coordinates clamp
        assert abs(math.fsum(x) - 20.0) <= 1e-12 * 20.0
        assert sol.kkt_residual <= 1e-8


# profits, external masses and stake spread over eight decades
_wide = st.floats(min_value=math.log(1e-4), max_value=math.log(1e4)).map(math.exp)


@pytest.mark.parametrize("scheme", ["qv1", "qv2"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_wide_scale_solution_matches_oracle(scheme, data):
    m = data.draw(st.sampled_from([2, 3]))
    total = data.draw(st.lists(_wide, min_size=m, max_size=m))
    fractions = data.draw(st.lists(st.floats(0.0, 0.95), min_size=m, max_size=m))
    problem = util.UtilityProblem(
        profits=tuple(data.draw(st.lists(_wide, min_size=m, max_size=m))),
        aligned=tuple(f * b for f, b in zip(fractions, total)),
        total=tuple(total), stake=data.draw(_wide), scheme=scheme)
    sol = util.maximize(problem)
    x = np.array(sol.allocation)
    used = math.fsum(x ** 2) if scheme == "qv1" else math.fsum(x)
    assert np.all(x >= 0)
    assert used == pytest.approx(problem.budget(), rel=1e-9)
    assert sol.degenerate or sol.kkt_residual <= 1e-8
    oracle = util.brute_force_oracle(problem, resolution=120)
    assert sol.utility >= oracle.utility - ORACLE_TOL * (1 + abs(oracle.utility))


@pytest.mark.parametrize("scheme", ["qv1", "qv2"])
@pytest.mark.parametrize("profits, aligned, total", [
    ((10, 1, 3), (0, 0.5, 0), (1, 1, 2)),  # an active set
    ((7,), (0,), (1,)),  # one proposal
    ((1, 1), (1, 1), (1, 1)),  # flat: no gain anywhere
])
def test_solver_and_oracle_allocations_hold_floats(scheme, profits, aligned, total):
    problem = util.UtilityProblem(profits, aligned, total, 4.0, scheme)
    for sol in (util.maximize(problem), util.brute_force_oracle(problem)):
        assert [type(x) for x in sol.allocation] == [float] * problem.m
        assert "np.float64" not in repr(sol)


@pytest.mark.parametrize("scheme", ["qv1", "qv2"])
@pytest.mark.parametrize("total, on", [
    ((0, 0, 0), (0, 1, 2)),
    ((3, 0, 0), (1, 2)),
    ((3, 5, 0), (2,)),
    ((0, 5, 2), (0,)),  # as before: all on proposal 1
    ((3, 5, 2), (0,)),
])
def test_flat_objective_spreads_over_the_empty_proposals(scheme, total, on):
    # a proposal with no external mass has a utility term only if it gets
    # some; the budget goes evenly to those, else all to proposal 1
    problem = util.UtilityProblem((2, 0, 1), total, total, 9.0, scheme)
    sol = util.maximize(problem)
    assert sol.degenerate
    x = np.array(sol.allocation)
    assert np.flatnonzero(x).tolist() == list(on)
    assert len(set(x[list(on)].tolist())) == 1
    used = math.fsum(x ** 2) if scheme == "qv1" else math.fsum(x)
    assert used == pytest.approx(problem.budget(), rel=1e-12)
    assert sol.utility == 3.0
    if on == (0,):
        assert sol.allocation[0] == 3.0


class TestOracle:
    @pytest.mark.parametrize("scheme", ["qv1", "qv2"])
    @pytest.mark.parametrize("stake", [4.0, 0.3, 7e-5, 2e7])
    def test_one_proposal_takes_the_whole_budget(self, scheme, stake):
        problem = util.UtilityProblem((3.0,), (0.25,), (1.5,), stake, scheme)
        oracle = util.brute_force_oracle(problem)
        x = math.sqrt(stake)
        assert oracle == util.AllocationSolution(
            (x,), 0.0, util.utility(problem, [x]), kkt_residual=0.0, method="oracle")

    @pytest.mark.parametrize("scheme", ["qv1", "qv2"])
    def test_points_without_a_utility_never_win(self, scheme):
        # x_1 = 0 with b_1 = 0 is 0/0; the supremum is approached as x_1 -> 0+
        problem = util.UtilityProblem((1, 2), (0, 0), (0, 1), 4, scheme)
        oracle = util.brute_force_oracle(problem)
        assert math.isfinite(oracle.utility)
        assert all(type(x) is float for x in oracle.allocation)
        assert oracle.allocation[0] > 0
        assert oracle.utility == util.utility(problem, oracle.allocation)
        assert oracle.utility == pytest.approx(1 + 2 * 2 / 3, abs=1e-6)

    def test_no_point_with_a_utility_is_degenerate(self):
        # every grid coordinate below half the budget underflows to 0
        problem = util.UtilityProblem((1, 1), (0, 0), (0, 0), 5e-324, "qv1")
        with pytest.raises(DegenerateDenominator):
            util.brute_force_oracle(problem)

    @pytest.mark.parametrize("scheme", ["qv1", "qv2"])
    def test_a_term_without_profit_is_zero_where_its_probability_is_undefined(self, scheme):
        # pi_2 = 0 at x_2 = b_2 = 0: the term is 0 whatever P_2 is
        problem = util.UtilityProblem((1, 0), (0, 0), (1, 0), 4, scheme)
        assert util.utility(problem, [2.0, 0.0]) == 2 / 3
        assert util.utility(problem, [2.0, -0.0]) == 2 / 3
        with pytest.raises(DegenerateDenominator):  # pi_1 > 0 at x_1 = b_1 = 0
            util.utility(util.UtilityProblem((1, 0), (0, 0), (0, 0), 4, scheme), [0.0, 2.0])
        with pytest.raises(DegenerateDenominator):
            util.success_probability(0.0, 0.0, 0.0)
        sol = util.maximize(problem)
        assert sol.allocation == (2.0, 0.0) and sol.utility == 2 / 3
        assert sol.kkt_residual <= 1e-15
        assert util.kkt_residual(problem, sol) == sol.kkt_residual
        assert util.hessian_diagonal(problem, sol)[0] < 0
        oracle = util.brute_force_oracle(problem)
        assert oracle.allocation == (2.0, 0.0) and oracle.utility == 2 / 3

    def test_dimension_cap(self):
        problem = util.UtilityProblem((1,) * 5, (0,) * 5, (1,) * 5, 1.0, "qv2")
        with pytest.raises(DimensionTooLarge):
            util.brute_force_oracle(problem)

    def test_resolution_floor(self):
        problem = util.UtilityProblem((1, 1), (0, 0), (1, 1), 1.0, "qv2")
        with pytest.raises(InvalidSpec):
            util.brute_force_oracle(problem, resolution=10)

    def test_oracle_feasible(self, rng):
        for scheme in ("qv1", "qv2"):
            problem = random_problem(rng, scheme, 3)
            oracle = util.brute_force_oracle(problem, resolution=120)
            x = np.array(oracle.allocation)
            assert np.all(x >= 0)
            if scheme == "qv1":
                assert math.fsum(x ** 2) == pytest.approx(problem.stake,
                                                          rel=1e-9)
            else:
                assert math.fsum(x) == pytest.approx(problem.budget(),
                                                     rel=1e-9)

    def test_oracle_never_beats_solver_materially(self, rng):
        for scheme in ("qv1", "qv2"):
            for _ in range(5):
                problem = random_problem(rng, scheme, 2)
                sol = util.maximize(problem)
                oracle = util.brute_force_oracle(problem, resolution=150)
                assert sol.utility >= oracle.utility - ORACLE_TOL * (
                    1 + abs(oracle.utility))


class TestSecondOrderAndKkt:
    def test_an_overflowing_hessian_entry_is_minus_inf_without_a_warning(self):
        problem = util.UtilityProblem((1e308, 1e308), (0, 0), (1, 1), 4, "qv2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = util.maximize(problem)
            diag = util.hessian_diagonal(problem, sol)
        assert sol.allocation == (1.0, 1.0) and sol.kkt_residual == 0.0
        assert diag.tolist() == [-math.inf, -math.inf]

    def test_overflowing_utility_terms_are_invalid_spec(self):
        problem = util.UtilityProblem((1.5e308, 1.5e308), (0.5, 0.5), (1, 1), 1, "qv2")
        with pytest.raises(InvalidSpec, match="utility sums leave the float range"):
            util.utility(problem, [1, 1])
        with pytest.raises(InvalidSpec):
            util.maximize(problem)

    @pytest.mark.parametrize("scheme", ["qv1", "qv2"])
    @pytest.mark.parametrize("allocation, message", [
        ((2.0, -0.5), "negative allocation"),
        ((1.0, 1.0), "constraint violated"),
    ])
    def test_an_infeasible_solution(self, scheme, allocation, message):
        # stake 9: the constraint is 9 for qv1 and 3 for qv2, met by neither
        problem = util.UtilityProblem((1, 2), (0, 0), (1, 1), 9.0, scheme)
        sol = util.AllocationSolution(allocation, 0.1, 0.0, 0.0, "test")
        with pytest.raises(InfeasibleSolution, match=message):
            util.kkt_residual(problem, sol)

    def test_the_interior_cut_is_no_argument(self):
        params = inspect.signature(util.kkt_residual).parameters
        assert list(params) == ["problem", "solution"]

    def test_hessian_negative_at_optimum(self, rng):
        for scheme in ("qv1", "qv2"):
            problem = random_problem(rng, scheme, 3)
            sol = util.maximize(problem)
            diag = util.hessian_diagonal(problem, sol)
            assert np.all(diag < 0)

    def test_only_the_qv1_hessian_reads_the_multiplier(self, rng):
        # the sphere's curvature is 2*lam on each coordinate; the simplex has none
        for scheme in ("qv1", "qv2"):
            problem = random_problem(rng, scheme, 4)
            sol = util.maximize(problem)
            pi, a, b = (np.array(v) for v in (problem.profits, problem.aligned, problem.total))
            curvature = -2.0 * (pi * (b - a)) / (np.array(sol.allocation) + b) ** 3
            for lam in (sol.multiplier, 0.0, math.inf, math.nan):
                diag = util.hessian_diagonal(problem, replace(sol, multiplier=lam))
                want = curvature - 2.0 * lam if scheme == "qv1" else curvature
                assert diag.tobytes() == want.tobytes(), (scheme, lam)

    def test_perturbation_raises_residual(self, rng):
        for scheme in ("qv1", "qv2"):
            problem = random_problem(rng, scheme, 3)
            sol = util.maximize(problem)
            assert sol.kkt_residual <= 1e-8
            x = np.array(sol.allocation)
            # move mass between the two largest coordinates, staying feasible
            i, j = np.argsort(x)[-2:]
            if scheme == "qv1":
                q = x ** 2
                shift = 0.05 * q[i]
                q[i] -= shift
                q[j] += shift
                xp = np.sqrt(q)
            else:
                shift = 0.05 * x[i]
                xp = x.copy()
                xp[i] -= shift
                xp[j] += shift
            perturbed = util.AllocationSolution(
                tuple(xp), sol.multiplier, util.utility(problem, xp),
                kkt_residual=0.0, method="perturbed")
            assert util.kkt_residual(problem, perturbed) > 1e-3

    def test_utility_drops_under_perturbation(self, rng):
        for scheme in ("qv1", "qv2"):
            for _ in range(5):
                problem = random_problem(rng, scheme, 3)
                sol = util.maximize(problem)
                x = np.array(sol.allocation)
                order = np.argsort(x)
                i, j = order[-1], order[-2]
                if scheme == "qv1":
                    q = x ** 2
                    shift = 0.1 * q[i]
                    q[i] -= shift
                    q[j] += shift
                    xp = np.sqrt(q)
                else:
                    shift = 0.1 * x[i]
                    xp = x.copy()
                    xp[i] -= shift
                    xp[j] += shift
                assert util.utility(problem, xp) <= sol.utility + 1e-12


class TestComparativeStatics:
    def test_allocation_monotone_in_profit(self):
        # raising one proposal's profit never lowers its share
        base = dict(aligned=(0, 0), total=(1, 1), stake=4.0)
        prev = -1.0
        for pi0 in (1.0, 2.0, 5.0, 10.0, 50.0):
            for scheme in ("qv1", "qv2"):
                problem = util.UtilityProblem((pi0, 3.0), scheme=scheme, **base)
                sol = util.maximize(problem)
                if scheme == "qv1":
                    if pi0 == 1.0:
                        prev = -1.0
                    assert sol.allocation[0] > prev
                    prev = sol.allocation[0]

    def test_stake_scales_allocation(self):
        small = util.UtilityProblem((10, 1), (0, 0), (1, 1), 1.0, "qv2")
        large = util.UtilityProblem((10, 1), (0, 0), (1, 1), 100.0, "qv2")
        u_small = util.maximize(small).utility
        u_large = util.maximize(large).utility
        assert u_large > u_small


def post_init_loop(profits, aligned, total):
    """UtilityProblem's per-coordinate checks as one loop: the reference."""
    for r, (pi, a, b) in enumerate(zip(profits, aligned, total)):
        if pi < 0:
            raise InvalidSpec(f"profit at index {r} must be >= 0, got {pi}")
        if a < 0 or b < 0:
            raise InvalidSpec(f"external masses at index {r} must be >= 0")
        if a > b:
            raise AlignedExceedsTotal(r, a, b)


class TestProblemChecks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from((0.0, -0.0, 1.0, 2.5, -1.0, -3.0, 1e308,
                                                 5e-324, -5e-324))] * 3),
                    min_size=1, max_size=6))
    def test_first_faulty_index_matches_the_loop(self, rows):
        profits, aligned, total = zip(*rows)
        outcomes = []
        for build in (lambda: util.UtilityProblem(profits, aligned, total, 1.0, "qv2"),
                      lambda: post_init_loop(profits, aligned, total)):
            try:
                build()
                outcomes.append(None)
            except QvkitError as exc:
                outcomes.append((type(exc), str(exc), exc.args))
        assert outcomes[0] == outcomes[1]


def last_mover_problems(seeds):
    """The qv1 problems of the benchmark's last-mover workload, from its seeded
    draws: a 40-ballot Pareto board at m = 3 and at m = 100, each row a
    Dirichlet(1) split of the voter's stake whose last entry takes the
    rounding, and the median voter's stake as the last mover's."""
    for seed in seeds:
        rng = np.random.default_rng([seed, 3])
        for m in (3, 100):  # the qv1 problems are drawn first
            spec_seed = int(rng.integers(2**62))
            w = rng.exponential(size=(40, m))
            rng.random((40, m))  # the support ranks; every row is dense
            fractions = w / w.sum(axis=1, keepdims=True)
            profits, aligned = rng.uniform(0.5, 2.0, m).tolist(), rng.uniform(0.1, 0.9, m).tolist()
            prior = qvkit.generate(qvkit.DistributionSpec(
                kind="pareto", n=40, shape=1.16, seed=spec_seed))
            stakes = prior.stakes()
            board = stakes[:, None] * fractions
            board[:, -1] = 0.0
            board[:, -1] = stakes - board.sum(axis=1)
            yield {"m": m, "prior": prior, "profits": profits, "aligned": aligned,
                   "ballots": [qvkit.BallotProfile(vid, row)
                               for vid, row in zip(prior.voter_ids, board.tolist())],
                   "stake": float(prior.entries[20][1])}


@pytest.fixture
def search_evals(monkeypatch):
    """The fdf evaluation count of each qv1 multiplier search."""
    evals, root = [], util.monotone_root

    def counting(*args, **kwargs):
        u, n = root(*args, **kwargs)
        evals.append(n)
        return u, n

    monkeypatch.setattr(util, "monotone_root", counting)
    return evals


class TestQv1MultiplierSearch:
    def test_last_mover_problems_take_few_evaluations(self, search_evals):
        for p in last_mover_problems(range(301, 311)):
            search_evals.clear()
            report = attacks.last_voter_advantage(
                "qv1", p["ballots"], p["prior"], p["stake"], p["profits"],
                aligned_fraction=p["aligned"])
            assert len(search_evals) == 1
            assert search_evals[0] <= (6 if p["m"] == 100 else 5), p["m"]
            assert math.fsum(x * x for x in report.attacked) == pytest.approx(p["stake"],
                                                                               rel=1e-12)

    def test_random_problems_take_few_evaluations(self, rng, search_evals):
        for _ in range(300):
            problem = random_problem(rng, "qv1", int(rng.integers(2, 60)))
            sol = util.maximize(problem)
            assert sol.kkt_residual <= 1e-8
        assert len(search_evals) == 300 and max(search_evals) <= 6

    def test_a_norm_that_underflows_bisects(self, search_evals):
        # near the root the four equal roots square to 0, which has no log
        sol = util.maximize(util.UtilityProblem((1,) * 4, (0,) * 4, (1,) * 4, 5e-324, "qv1"))
        assert search_evals and len(set(sol.allocation)) == 1 and sol.allocation[0] > 0

    def test_a_norm_that_overflows_is_a_typed_error(self):
        # g*t overflows in the roots; with numpy's warnings off the search
        # bisects past the NaN norm and the result is a QvkitError
        problem = util.UtilityProblem((1, 2), (0, 0), (1e160, 1e160), 4.0, "qv1")
        with np.errstate(all="ignore"), pytest.raises(QvkitError):
            util.maximize(problem)


class TestSolverCertificate:
    def test_the_solver_residual_is_kkt_residual(self, rng, monkeypatch):
        calls, gains = [], util._gains
        monkeypatch.setattr(util, "_gains", lambda p: calls.append(1) or gains(p))
        for trial in range(200):
            problem = mixed_problem(rng, ("qv1", "qv2")[trial % 2], int(rng.integers(2, 12)))
            calls.clear()
            sol = util.maximize(problem)
            assert len(calls) == 1  # the certificate reuses the solver's gains
            assert sol.kkt_residual.hex() == util.kkt_residual(problem, sol).hex()


def exact_qv1_root(b, c):
    """60-digit root of x*(x+b)**2 = c by decimal Newton from above.

    The left side is increasing and convex for x >= 0, so Newton from
    cbrt(c) >= root descends monotonically onto the one real root.
    """
    x = decimal.Decimal(min(c ** (1 / 3), c / b ** 2) * (1 + 1e-15))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        b, c = decimal.Decimal(b), decimal.Decimal(c)
        while True:
            step = (x * (x + b) ** 2 - c) / ((x + b) * (3 * x + b))
            if step <= x * decimal.Decimal("1e-55"):
                return float(x - step)
            x -= step


def log_uniform_pairs(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.exp(rng.uniform(math.log(1e-100), math.log(1e100), (2, n)))


class TestQv1Roots:
    def test_closed_form_is_accurate_over_two_hundred_decades(self):
        b, c = log_uniform_pairs(2_000, 61)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = util._qv1_roots(c, b, 1.0)
        assert np.isfinite(x).all()
        want = np.array([exact_qv1_root(bi, ci) for bi, ci in zip(b, c)])
        assert np.all(np.abs(x - want) <= 2e-15 * want)

    def test_matches_the_hyperbolic_formula_in_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        b, c = log_uniform_pairs(300, 62)
        x = util._qv1_roots(c, b, 1.0)
        with mpmath.workdps(60):
            for xi, bi, ci in zip(x, b, c):
                w = mpmath.sqrt(27 * mpmath.mpf(ci) / (4 * mpmath.mpf(bi) ** 3))
                want = 4 * mpmath.mpf(bi) / 3 * mpmath.sinh(mpmath.asinh(w) / 3) ** 2
                assert abs(xi - want) <= 2e-15 * want

    def test_the_naive_float_formula_overflows_there(self):
        b, c = 1e-100, 1e100
        with np.errstate(over="ignore"):
            w = np.sqrt(27.0 * c / (4.0 * np.float64(b) ** 3))
        assert not np.isfinite(w)
        assert util._qv1_roots(np.array([c]), np.array([b]), 1.0)[0] == pytest.approx(
            exact_qv1_root(b, c), rel=2e-15)


def utility_loop(problem, allocation):
    """utility() as a generator of success_probability calls: the reference."""
    x = np.asarray(allocation, dtype=float)
    if x.shape != (problem.m,):
        raise InvalidSpec(f"allocation must have length {problem.m}")
    return math.fsum(
        pi * util.success_probability(s, a, b)
        for pi, a, b, s in zip(problem.profits, problem.aligned, problem.total, x))


def kkt_loop(problem, solution, interior_cut=1e-7):
    """kkt_residual's per-coordinate loop: the reference."""
    x = np.array(solution.allocation)
    if problem.scheme == "qv1":
        violation = abs(math.fsum(x ** 2) - problem.stake)
    else:
        violation = abs(math.fsum(x) - problem.budget())
    g, b = util._gains(problem)
    lam = solution.multiplier
    scale = math.sqrt(problem.stake) if problem.scheme == "qv1" else problem.budget()
    residual = violation
    grad = g / (x + b) ** 2
    for r in range(problem.m):
        if g[r] == 0:
            continue
        if problem.scheme == "qv1":
            residual = max(residual, abs(grad[r] - 2.0 * lam * x[r]))
        elif x[r] > interior_cut * scale:
            residual = max(residual, abs(grad[r] - 2.0 * lam))
        else:
            residual = max(residual, max(0.0, grad[r] - 2.0 * lam - 1e-9))
    if not solution.degenerate:
        diag = util.hessian_diagonal(problem, solution)
        active = g > 0
        if active.any():
            residual = max(residual, max(0.0, float(diag[active].max())))
    return float(residual)


def mixed_problem(rng, scheme, m):
    """Random problem with some inactive coordinates (g = 0) and, for qv2,
    a budget small enough that weak coordinates clamp to zero."""
    problem = random_problem(rng, scheme, m)
    profits, aligned = list(problem.profits), list(problem.aligned)
    for r in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False):
        if rng.random() < 0.5:
            profits[r] = 0.0
        else:
            aligned[r] = problem.total[r]
    return util.UtilityProblem(tuple(profits), tuple(aligned), problem.total,
                               float(rng.uniform(0.01, 4.0)) ** 2, scheme)


class TestArrayFormsMatchTheLoops:
    def test_utility_and_kkt_bits(self, rng):
        clamped = degenerate = 0
        for trial in range(400):
            scheme = "qv1" if trial % 2 else "qv2"
            problem = mixed_problem(rng, scheme, int(rng.integers(1, 12)))
            sol = util.maximize(problem)
            x = np.array(sol.allocation)
            clamped += scheme == "qv2" and bool(np.any(
                (x == 0) & (np.array(util._gains(problem)[0]) > 0)))
            degenerate += sol.degenerate
            candidates = [sol, replace(sol, multiplier=1.5 * sol.multiplier + 0.1),
                          replace(sol, multiplier=math.nan),
                          replace(sol, degenerate=not sol.degenerate)]
            for cand in candidates:
                assert util.kkt_residual(problem, cand) == kkt_loop(problem, cand)
            for y in (x, rng.uniform(0.0, 3.0, problem.m)):
                u, ref = util.utility(problem, y), utility_loop(problem, y)
                assert u == ref or (math.isnan(u) and math.isnan(ref))
        assert clamped > 20 and degenerate > 5

    @pytest.mark.parametrize("x", [(1.0, -2.0, -0.0, 3.0), (1.0, 0.0, -1.0, 2.0),
                                   (-1.0, 0.0, 1.0, 1.0), (math.nan, 0.0, -1.0, 0.0),
                                   (1.0, -1e-300, 0.0, 0.0)])
    def test_first_fault_matches(self, x):
        # coordinate 1 has no external mass, so x_1 = 0 there divides by zero
        problem = util.UtilityProblem((1.0, 2.0, 3.0, 4.0), (0.5, 0.0, 0.5, 0.0),
                                      (1.0, 0.0, 1.0, 0.0), 4.0, "qv2")
        outcomes = []
        for call in (util.utility, utility_loop):
            try:
                outcomes.append(("value", call(problem, x)))
            except QvkitError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] != "value"


def simplex_grid_itertools(m, resolution):
    """The oracle grid as itertools.combinations enumerates its cut positions;
    part k is the gap between cuts k-1 and k (cut -1 and the last bound)."""
    cuts = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(resolution + m - 1), m - 1)), dtype=np.int64)
    cuts = cuts.reshape(-1, m - 1)
    bounds = np.column_stack((np.full(len(cuts), -1), cuts,
                              np.full(len(cuts), resolution + m - 1)))
    return (np.diff(bounds, axis=1) - 1).astype(float) / resolution


def refine_loop(problem, budget_vec, steps=10):
    """_refine with one trial move per utility evaluation: the reference."""
    q = budget_vec.copy()
    arrays = problem._vectors

    def to_alloc(qv):
        return np.sqrt(qv) if problem.scheme == "qv1" else qv

    def value(qv):
        return util._batch_utility(arrays, to_alloc(qv)[None, :])[0]

    best_u = value(q)
    total = max(q.sum(), 1.0)
    step = q.sum() / 4.0
    m = len(q)
    while step > 1e-13 * total:
        for _ in range(steps):
            improved = False
            for i in range(m):
                for j in range(m):
                    if i == j or q[i] < step:
                        continue
                    trial = q.copy()
                    trial[i] -= step
                    trial[j] += step
                    u = value(trial)
                    if u > best_u:
                        q, best_u, improved = trial, u, True
            if not improved:
                break
        step /= 2.0
    return to_alloc(q), best_u


class TestOracleMatchesItsReference:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("resolution", [100, 120, 150, 200])
    def test_grid_bits_and_order(self, m, resolution):
        grid = util._simplex_grid(m, resolution)
        if m == 1:
            assert grid.tolist() == [[1.0]]
            return
        want = simplex_grid_itertools(m, resolution)
        assert grid.shape == want.shape and grid.dtype == want.dtype
        assert np.array_equal(grid.view(np.int64), want.view(np.int64))

    def test_refine_takes_the_same_moves(self, rng):
        for trial in range(60):
            scheme = ("qv1", "qv2")[trial % 2]
            m = 2 + trial % 3
            problem = mixed_problem(rng, scheme, m)
            budget = problem.stake if scheme == "qv1" else problem.budget()
            q = rng.dirichlet(np.ones(m)) * budget
            if trial % 4 == 0:
                q[rng.integers(m)] = 0.0  # a coordinate with no mass to give
            x, u = util._refine(problem, q)
            x_ref, u_ref = refine_loop(problem, q)
            assert u == u_ref
            assert np.array_equal(x, x_ref)
