"""Voter utility model and constrained maximizers for the two split schemes.

A voter facing m proposals with expected profits pi_r, aligned external
vote mass a_r and total external mass b_r maximizes

    U(x) = sum_r pi_r * (x_r + a_r) / (x_r + b_r)

subject to the scheme's credit constraint: sum(x_r**2) = stake for qv1
(allocations are vote counts, quadratic cost), or sum(x_r) = sqrt(stake)
for qv2 (allocations split the square-root credit). The qv1 maximizer
solves for the Lagrange multiplier by safeguarded Newton, the qv2 one by
exact water-filling; a grid-plus-refinement oracle provides an independent
check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AlignedExceedsTotal,
    DegenerateDenominator,
    DimensionTooLarge,
    InfeasibleSolution,
    InvalidSpec,
)
from ._roots import monotone_root

_FEAS_TOL = 1e-9
# qv1 Newton step tolerance, on u = log t and relative on each coordinate
_QV1_STEP_TOL = 1e-12


@dataclass(frozen=True)
class UtilityProblem:
    profits: tuple
    aligned: tuple
    total: tuple
    stake: float
    scheme: str  # "qv1" or "qv2"

    def __post_init__(self):
        object.__setattr__(self, "profits", tuple(float(v) for v in self.profits))
        object.__setattr__(self, "aligned", tuple(float(v) for v in self.aligned))
        object.__setattr__(self, "total", tuple(float(v) for v in self.total))
        m = len(self.profits)
        if len(self.aligned) != m or len(self.total) != m:
            raise InvalidSpec("profits, aligned and total must have equal length")
        if m == 0:
            raise InvalidSpec("need at least one proposal")
        if self.scheme not in ("qv1", "qv2"):
            raise InvalidSpec(f"scheme must be qv1 or qv2, got {self.scheme!r}")
        if not self.stake > 0:
            raise InvalidSpec(f"stake must be > 0, got {self.stake}")
        for r, (pi, a, b) in enumerate(zip(self.profits, self.aligned, self.total)):
            if pi < 0:
                raise InvalidSpec(f"profit at index {r} must be >= 0, got {pi}")
            if a < 0 or b < 0:
                raise InvalidSpec(f"external masses at index {r} must be >= 0")
            if a > b:
                raise AlignedExceedsTotal(r, a, b)

    @property
    def m(self):
        return len(self.profits)

    def budget(self) -> float:
        """Constraint right-hand side: stake for qv1, sqrt(stake) for qv2."""
        return self.stake if self.scheme == "qv1" else math.sqrt(self.stake)


@dataclass(frozen=True)
class AllocationSolution:
    allocation: tuple
    multiplier: float
    utility: float
    kkt_residual: float
    method: str
    degenerate: bool = False


def success_probability(s_r: float, a_r: float, b_r: float) -> float:
    """(s_r + a_r) / (s_r + b_r): chance the proposal resolves the voter's way."""
    if a_r > b_r:
        raise AlignedExceedsTotal(None, a_r, b_r)
    if s_r < 0:
        raise InvalidSpec(f"allocation must be >= 0, got {s_r}")
    if s_r + b_r == 0:
        raise DegenerateDenominator()
    return (s_r + a_r) / (s_r + b_r)


def utility(problem: UtilityProblem, allocation) -> float:
    """Expected payoff of an allocation; the stake constraint is not checked."""
    x = np.asarray(allocation, dtype=float)
    if x.shape != (problem.m,):
        raise InvalidSpec(f"allocation must have length {problem.m}")
    return math.fsum(
        pi * success_probability(s, a, b)
        for pi, a, b, s in zip(problem.profits, problem.aligned, problem.total, x))


def gradient(problem: UtilityProblem, allocation) -> np.ndarray:
    """Analytic dU/dx_r = pi_r * (b_r - a_r) / (x_r + b_r)**2."""
    x = np.asarray(allocation, dtype=float)
    pi = np.array(problem.profits)
    a = np.array(problem.aligned)
    b = np.array(problem.total)
    return pi * (b - a) / (x + b) ** 2


def _gains(problem):
    pi = np.array(problem.profits)
    a = np.array(problem.aligned)
    b = np.array(problem.total)
    return pi * (b - a), b


def _degenerate_solution(problem):
    """All-mass-on-proposal-1 point for a flat objective."""
    x = np.zeros(problem.m)
    x[0] = math.sqrt(problem.stake) if problem.scheme == "qv1" else problem.budget()
    try:
        u = utility(problem, x)
    except DegenerateDenominator:
        u = math.nan
    return AllocationSolution(allocation=tuple(x), multiplier=0.0, utility=u,
                              kkt_residual=0.0, method="analytic-lagrange",
                              degenerate=True)


def _qv1_roots(g, b, t):
    """Vectorized roots of x*(x+b_r)**2 = g_r*t, x >= 0, for g_r > 0.

    This is stationarity, g_r/(x+b_r)**2 = 2*lam*x, at t = 1/(2*lam). The
    left side is increasing and convex in x, and cbrt(g_r*t) and
    g_r*t/b_r**2 both bound the root, so Newton descends from the smaller.
    """
    c = g * t
    hi = np.minimum(np.cbrt(c), c / b ** 2)
    return monotone_root(lambda x: (x * (x + b) ** 2 - c, (x + b) * (3.0 * x + b)),
                         0.0, hi, _QV1_STEP_TOL * hi)[0]


def maximize_qv1(problem: UtilityProblem, tol: float = 1e-9) -> AllocationSolution:
    """Maximize utility under the sphere constraint sum(x_r**2) = stake.

    Stationarity for each coordinate at multiplier lam reads
    g_r/(x_r+b_r)**2 = 2*lam*x_r. With t = 1/(2*lam), the squared norm of
    the per-coordinate roots is increasing and convex in u = log t, and
    pinned between analytic bounds, so Newton on u meets the constraint.
    tol is unused.
    """
    if problem.scheme != "qv1":
        raise InvalidSpec("problem scheme must be qv1")
    g, b = _gains(problem)
    active = g > 0
    if problem.m == 1:
        x = np.array([math.sqrt(problem.stake)])
        return AllocationSolution(tuple(x), 0.0, utility(problem, x),
                                  kkt_residual=0.0, method="analytic-lagrange",
                                  degenerate=not active.any())
    if not active.any():
        return _degenerate_solution(problem)

    ga, ba = g[active], b[active]
    target = problem.stake
    radius = math.sqrt(target)

    def fdf(u):
        xa = _qv1_roots(ga, ba, math.exp(u))
        # d(sum x**2)/du, from dx/dt = g/((x+b)*(3x+b)) and x*(x+b)**2 = g*t
        return (math.fsum(xa ** 2) - target,
                math.fsum(2.0 * xa ** 2 * (xa + ba) / (3.0 * xa + ba)))

    # roots are below cbrt(g*t), so the norm is at most the target at u_lo;
    # at u_hi one coordinate alone reaches sqrt(target)
    u_lo = 1.5 * (math.log(target) - math.log(math.fsum(ga ** (2.0 / 3.0))))
    u_hi = float(np.min(np.log(radius) + 2.0 * np.log(radius + ba) - np.log(ga)))
    u, _ = monotone_root(fdf, u_lo, u_hi, _QV1_STEP_TOL)
    t = math.exp(u)
    xa = _qv1_roots(ga, ba, t)
    # exact sphere projection; the multiplier is converged so the
    # stationarity residual stays at numerical noise
    xa *= math.sqrt(target / math.fsum(xa ** 2))
    x = np.zeros(problem.m)
    x[active] = xa
    sol = AllocationSolution(tuple(x), 0.5 / t, utility(problem, x),
                             kkt_residual=0.0, method="analytic-lagrange")
    return replace(sol, kkt_residual=kkt_residual(problem, sol))


def maximize_qv2(problem: UtilityProblem, tol: float = 1e-9) -> AllocationSolution:
    """Maximize utility under the budget constraint sum(x_r) = sqrt(stake).

    For multiplier lam the stationary coordinates have the water-filling
    closed form x_r = max(0, tau*sqrt(g_r) - b_r) with tau = 1/sqrt(2*lam).
    Coordinate r is active once tau passes its breakpoint b_r/sqrt(g_r), so
    sorting the breakpoints finds the active set and tau exactly; the
    method does not iterate and tol is unused.
    """
    if problem.scheme != "qv2":
        raise InvalidSpec("problem scheme must be qv2")
    g, b = _gains(problem)
    active_mask = g > 0
    budget = problem.budget()
    if problem.m == 1:
        x = np.array([budget])
        return AllocationSolution(tuple(x), 0.0, utility(problem, x),
                                  kkt_residual=0.0, method="analytic-lagrange",
                                  degenerate=not active_mask.any())
    if not active_mask.any():
        return _degenerate_solution(problem)

    sg, ba = np.sqrt(g[active_mask]), b[active_mask]
    breakpoints = ba / sg
    order = np.argsort(breakpoints, kind="stable")
    # levels[j] is the water level with the first j+1 breakpoints active;
    # the active set is the prefix of breakpoints below their level
    levels = (budget + np.cumsum(ba[order])) / np.cumsum(sg[order])
    on = order[:np.count_nonzero(breakpoints[order] < levels)]
    tau = (budget + math.fsum(ba[on])) / math.fsum(sg[on])
    x = np.zeros(problem.m)
    x[active_mask] = np.maximum(0.0, tau * sg - ba)
    sol = AllocationSolution(tuple(x), 0.5 / tau ** 2, utility(problem, x),
                             kkt_residual=0.0, method="analytic-lagrange")
    return replace(sol, kkt_residual=kkt_residual(problem, sol))


def maximize(problem: UtilityProblem, tol: float = 1e-9) -> AllocationSolution:
    if problem.scheme == "qv1":
        return maximize_qv1(problem, tol)
    return maximize_qv2(problem, tol)


def _simplex_grid(m, resolution):
    """All compositions of `resolution` into m nonnegative parts, as fractions."""
    points = []
    for cuts in itertools.combinations(range(resolution + m - 1), m - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + m - 2 - prev)
        points.append(parts)
    return np.array(points, dtype=float) / resolution


def _batch_utility(problem, xs):
    pi = np.array(problem.profits)
    a = np.array(problem.aligned)
    b = np.array(problem.total)
    return ((xs + a) / (xs + b) * pi).sum(axis=1)


def _refine(problem, x, budget_vec, steps=10):
    """Pairwise mass-transfer local search on the feasible simplex.

    budget_vec is the allocation in 'budget space' (x for qv2, x**2 for
    qv1); mass is moved between coordinate pairs with a shrinking step.
    """
    q = budget_vec.copy()

    def to_alloc(qv):
        return np.sqrt(qv) if problem.scheme == "qv1" else qv

    best_u = _batch_utility(problem, to_alloc(q)[None, :])[0]
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
                    u = _batch_utility(problem, to_alloc(trial)[None, :])[0]
                    if u > best_u:
                        q, best_u, improved = trial, u, True
            if not improved:
                break
        step /= 2.0
    return to_alloc(q), best_u


def brute_force_oracle(problem: UtilityProblem, resolution: int = 200) -> AllocationSolution:
    """Exhaustive feasible-set search, independent of the Lagrange machinery.

    Grids the budget simplex (allocation for qv2, squared allocation for
    qv1, which maps the sphere octant onto a simplex), keeps the best grid
    point and refines it once by shrinking-step pairwise transfers.
    """
    if problem.m > 4:
        raise DimensionTooLarge(problem.m, 4)
    if resolution < 100:
        raise InvalidSpec(f"resolution must be >= 100, got {resolution}")
    total_budget = problem.stake if problem.scheme == "qv1" else problem.budget()
    if problem.m == 1:
        x = np.array([math.sqrt(problem.stake) if problem.scheme == "qv1"
                      else problem.budget()])
        return AllocationSolution(tuple(x), 0.0, utility(problem, x),
                                  kkt_residual=0.0, method="oracle")
    grid = _simplex_grid(problem.m, resolution) * total_budget
    xs = np.sqrt(grid) if problem.scheme == "qv1" else grid
    utils = _batch_utility(problem, xs)
    best = int(np.argmax(utils))
    x, u = _refine(problem, xs[best], grid[best])
    return AllocationSolution(tuple(x), 0.0, float(u),
                              kkt_residual=0.0, method="oracle")


def hessian_diagonal(problem: UtilityProblem, solution: AllocationSolution) -> np.ndarray:
    """Diagonal of the Lagrangian's second derivative at a solution.

    qv1: -2*g_r/(x_r+b_r)**3 - 2*lam; qv2: -2*g_r/(x_r+b_r)**3. All entries
    must be negative at a nondegenerate maximizer.
    """
    g, b = _gains(problem)
    x = np.array(solution.allocation)
    diag = -2.0 * g / (x + b) ** 3
    if problem.scheme == "qv1":
        diag = diag - 2.0 * solution.multiplier
    return diag


def kkt_residual(problem: UtilityProblem, solution: AllocationSolution,
                 interior_cut: float = 1e-7) -> float:
    """Max stationarity residual at interior coordinates plus constraint gap.

    Clamped coordinates are checked for complementary slackness (gradient
    not exceeding the multiplier's scale) and any violation of the
    second-order sign structure (a nonnegative Lagrangian diagonal) is
    added to the residual.
    """
    x = np.array(solution.allocation)
    if np.any(x < -_FEAS_TOL):
        raise InfeasibleSolution(f"negative allocation in {solution.allocation}")
    if problem.scheme == "qv1":
        violation = abs(math.fsum(x ** 2) - problem.stake)
    else:
        violation = abs(math.fsum(x) - problem.budget())
    if violation > 1e-6 * max(1.0, problem.stake):
        raise InfeasibleSolution(
            f"constraint violated by {violation} for scheme {problem.scheme}")

    g, b = _gains(problem)
    lam = solution.multiplier
    scale = math.sqrt(problem.stake) if problem.scheme == "qv1" else problem.budget()
    residual = violation
    grad = g / (x + b) ** 2
    for r in range(problem.m):
        if g[r] == 0:
            continue
        if problem.scheme == "qv1":
            # the qv1 stationarity equation has an interior root for every
            # active coordinate, so there is no clamped case to special-case
            residual = max(residual, abs(grad[r] - 2.0 * lam * x[r]))
        elif x[r] > interior_cut * scale:
            residual = max(residual, abs(grad[r] - 2.0 * lam))
        else:
            # clamped: gradient must not beat the multiplier
            residual = max(residual, max(0.0, grad[r] - 2.0 * lam - 1e-9))
    if not solution.degenerate:
        diag = hessian_diagonal(problem, solution)
        active = g > 0
        if active.any():
            residual = max(residual, max(0.0, float(diag[active].max())))
    return float(residual)
