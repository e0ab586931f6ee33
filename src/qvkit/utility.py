"""Voter utility model and constrained maximizers for the two split schemes.

A voter facing m proposals with expected profits pi_r, aligned external
vote mass a_r and total external mass b_r maximizes

    U(x) = sum_r pi_r * (x_r + a_r) / (x_r + b_r)

subject to the scheme's credit constraint: sum(x_r**2) = stake for qv1
(allocations are vote counts, quadratic cost), or sum(x_r) = sqrt(stake)
for qv2 (allocations split the square-root credit). The qv1 maximizer
takes each coordinate's stationary point in closed form (the real root of
a cubic) and finds the Lagrange multiplier by one safeguarded Newton
search; the qv2 one is exact water-filling. A grid-plus-refinement oracle
provides an independent check. The table _CONSTRAINTS is the one home of
what differs between qv1 and qv2; attacks.last_voter_advantage reads its
naive baseline's scaling from it too.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AlignedExceedsTotal,
    DegenerateDenominator,
    DimensionTooLarge,
    InfeasibleSolution,
    InvalidSpec,
    _fsum,
    _real,
    _reals,
    _whole_number,
)
from ._roots import monotone_root

_FEAS_TOL = 1e-9
_INTERIOR_CUT = 1e-7  # qv2 coordinates above this share of the budget are interior
_QV1_STEP_TOL = 1e-12  # qv1 Newton step tolerance on u = log t
#: most points per block of the oracle's simplex grid
_GRID_BLOCK = 2048


@dataclass(frozen=True)
class UtilityProblem:
    profits: tuple
    aligned: tuple
    total: tuple
    stake: float
    scheme: str  # "qv1" or "qv2"

    def __post_init__(self):
        vecs = _reals((self.profits, self.aligned, self.total), "profits, aligned and total")
        if vecs.ndim != 2 or vecs.shape[1] == 0:
            raise InvalidSpec("profits, aligned and total must be equal-length and non-empty")
        for name, vector in zip(("profits", "aligned", "total"), vecs.tolist()):
            object.__setattr__(self, name, tuple(vector))
        vecs.flags.writeable = False
        # (profits, aligned, total) as read-only float64 rows, which the
        # solvers use; not a field, so eq, repr and hash skip it
        object.__setattr__(self, "_vectors", tuple(vecs))
        if self.scheme not in SCHEMES:
            raise InvalidSpec(f"scheme must be qv1 or qv2, got {self.scheme!r}")
        # the checked stake, which the solvers use; not a field, as _vectors
        object.__setattr__(self, "_stake", _real(self.stake, "stake", positive=True))
        pi, a, b = vecs
        # b < 0 needs no term of its own: a < 0 or a > b then holds too
        for r in np.flatnonzero((pi < 0) | (a < 0) | (a > b))[:1].tolist():
            pi, a, b = self.profits[r], self.aligned[r], self.total[r]  # first faulty r
            if pi < 0:
                raise InvalidSpec(f"profit at index {r} must be >= 0, got {pi}")
            if a < 0 or b < 0:
                raise InvalidSpec(f"external masses at index {r} must be >= 0")
            raise AlignedExceedsTotal(r, a, b)

    @property
    def m(self):
        return len(self.profits)

    def budget(self) -> float:
        """Constraint right-hand side: stake for qv1, sqrt(stake) for qv2."""
        return _CONSTRAINTS[self.scheme].budget(self._stake)


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
    s_r, a_r, b_r = _reals((s_r, a_r, b_r), "s_r, a_r and b_r").tolist()
    if a_r > b_r:
        raise AlignedExceedsTotal(None, a_r, b_r)
    if s_r < 0:
        raise InvalidSpec(f"allocation must be >= 0, got {s_r}")
    if s_r + b_r == 0:
        raise DegenerateDenominator()
    return (s_r + a_r) / (s_r + b_r)


def utility(problem: UtilityProblem, allocation) -> float:
    """Expected payoff of an allocation; the stake constraint is not checked.

    A term with pi_r = 0 at x_r = b_r = 0 is 0: its success probability is
    undefined there, but the term is 0 whatever that probability is.
    """
    x = _reals(allocation, "allocation", finite=False)  # NaN, inf: faults below
    if x.shape != (problem.m,):
        raise InvalidSpec(f"allocation must have length {problem.m}")
    pi, a, b = problem._vectors
    denominator = x + b
    bad = (a > b) | ~(x >= 0) | (denominator == 0) | (x == np.inf)  # NaN fails x >= 0
    for r in np.flatnonzero(bad).tolist():
        if pi[r] == 0 and x[r] == 0 and b[r] == 0:
            denominator[r] = 1.0  # so the term is 0 * 0 / 1
        else:  # the first faulty r
            success_probability(x[r], problem.aligned[r], problem.total[r])  # raises
    return _fsum(pi * ((x + a) / denominator), "utility")


def gradient(problem: UtilityProblem, allocation) -> np.ndarray:
    """Analytic dU/dx_r = pi_r * (b_r - a_r) / (x_r + b_r)**2.

    At x_r = b_r = 0 it follows utility: the entry is 0 when pi_r = 0, and
    DegenerateDenominator when pi_r > 0.
    """
    pi, a, b = problem._vectors
    x = _reals(allocation, "allocation")
    denominator = (x + b) ** 2
    empty = (x == 0) & (b == 0)
    if empty.any():
        if (empty & (pi > 0)).any():
            raise DegenerateDenominator()
        denominator[empty] = 1.0  # so the entry is 0 * 0 / 1
    return pi * (b - a) / denominator


def _gains(problem):
    pi, a, b = problem._vectors
    return pi * (b - a), b


def _solve(problem, scheme):
    """The maximizer both schemes share.

    The scheme's kernel places the active coordinates (gain g > 0) on its
    constraint and returns them with the multiplier. With one proposal all
    mass goes on it. A flat objective (no gain) spreads the budget evenly
    over the proposals whose total b_r is 0, each of which needs some mass
    for its utility term to be defined, or puts it all on proposal 1 when no
    total is 0.
    """
    if problem.scheme != scheme:
        raise InvalidSpec(f"problem scheme must be {scheme}")
    g, b = _gains(problem)
    active = g > 0
    flat = not active.any()
    x = np.zeros(problem.m)
    if problem.m == 1 or flat:
        empty = np.flatnonzero(b == 0)
        if empty.size == 0:
            empty = np.zeros(1, dtype=np.intp)
        # an even share of the budget; sqrt(stake / k) for qv1 would round differently
        x[empty] = math.sqrt(problem._stake) / _CONSTRAINTS[scheme].to_alloc(empty.size)
        return AllocationSolution(tuple(x.tolist()), 0.0, utility(problem, x),
                                  kkt_residual=0.0, method="analytic-lagrange",
                                  degenerate=flat)
    x[active], multiplier = _CONSTRAINTS[scheme].kernel(g[active], b[active], problem.budget())
    solution = AllocationSolution(tuple(x.tolist()), multiplier, utility(problem, x),
                                  kkt_residual=0.0, method="analytic-lagrange")
    return replace(solution, kkt_residual=kkt_residual(problem, solution))


def _qv1_roots(g, b, t):
    """Vectorized root of x*(x+b)**2 = c = g*t, x >= 0, for g, b > 0.

    This is stationarity, g/(x+b)**2 = 2*lam*x, at t = 1/(2*lam). The one
    real root is Cardano's (4b/3)*sinh(asinh(w)/3)**2, w = sqrt(27c/(4b**3)),
    formed from r = cbrt(c)/b and as ((4b)*s)*s so that no step overflows or
    underflows. A large asinh(w) amplifies its own rounding in sinh, so one
    Newton step follows; it leaves a few ulps.
    """
    c = g * t
    r = np.cbrt(c) / b
    s = np.sinh(np.arcsinh(math.sqrt(6.75) * (r * np.sqrt(r))) / 3.0)
    x = 4.0 * b * s * s / 3.0
    return x - (x * (x + b) ** 2 - c) / ((x + b) * (3.0 * x + b))


def _sphere_allocation(g, b, target):
    """qv1 kernel: the cubic roots at the multiplier lam that puts them on
    the sphere sum(x**2) = target, and lam.

    The search runs on log(sum(x**2)), whose slope in u = log t lies in
    [2/3, 2], so Newton's steps stay inside the bracket.
    """
    log_target = math.log(target)

    def fdf(u):
        x = _qv1_roots(g, b, math.exp(u))
        sq = x * x
        norm = math.fsum(sq.tolist())
        if not 0.0 < norm < math.inf:  # underflowed, or overflowed (inf, NaN): bisect
            return (-math.inf if norm == 0.0 else math.inf), math.nan
        # d(norm)/du over norm, from dx/dt = g/((x+b)*(3x+b)) and x*(x+b)**2 = g*t
        slope = math.fsum((sq * ((x + b) / (3.0 * x + b))).tolist())
        return math.log(norm) - log_target, 2.0 * (slope / norm)

    # roots are below cbrt(g*t), so the norm is at most the target at u_lo;
    # at u_hi one coordinate alone reaches sqrt(target)
    radius = math.sqrt(target)
    u_lo = 1.5 * (log_target - math.log(math.fsum((g ** (2.0 / 3.0)).tolist())))
    u_hi = float(np.min(np.log(radius) + 2.0 * np.log(radius + b) - np.log(g)))
    u, _ = monotone_root(fdf, u_lo, u_hi, _QV1_STEP_TOL)
    t = math.exp(u)
    x = _qv1_roots(g, b, t)
    # exact sphere projection; the multiplier is converged so the
    # stationarity residual stays at numerical noise
    x *= math.sqrt(target / math.fsum((x ** 2).tolist()))
    return x, 0.5 / t


def _water_filling(g, b, budget):
    """qv2 kernel: x = max(0, tau*sqrt(g) - b) with sum(x) = budget, and
    lam = 1/(2*tau**2)."""
    sg = np.sqrt(g)
    breakpoints = b / sg
    order = np.argsort(breakpoints, kind="stable")
    # levels[j] is the water level with the first j+1 breakpoints active;
    # the active set is the prefix of breakpoints below their level
    levels = (budget + np.cumsum(b[order])) / np.cumsum(sg[order])
    on = order[:np.count_nonzero(breakpoints[order] < levels)]
    tau = (budget + math.fsum(b[on].tolist())) / math.fsum(sg[on].tolist())
    return np.maximum(0.0, tau * sg - b), 0.5 / tau ** 2


@dataclass(frozen=True)
class _Constraint:
    """All that differs between the split schemes' credit constraints."""
    budget: object  # stake -> right-hand side
    to_alloc: object  # budget space (x**2 for qv1, x for qv2) -> allocation
    cost: object  # allocation -> left-hand side, fsum'd
    scale: object  # (v >= 0, budget) -> c that puts c*v on the constraint
    kernel: object  # (g, b, budget) -> active coordinates, multiplier
    hessian: object  # (diag, lam) -> the Lagrangian's diagonal
    gaps: object  # (grad, x, lam, budget) -> stationarity gap per coordinate


_CONSTRAINTS = {
    # every active coordinate has an interior root: no clamped case
    "qv1": _Constraint(
        budget=lambda stake: stake, to_alloc=np.sqrt, cost=lambda x: math.fsum((x ** 2).tolist()),
        scale=lambda v, budget: math.sqrt(budget / float(v @ v)),
        kernel=_sphere_allocation, hessian=lambda diag, lam: diag - 2.0 * lam,
        gaps=lambda grad, x, lam, budget: np.abs(grad - 2.0 * lam * x)),
    # the diagonal reads no lam, not even inf or NaN; a clamped gradient must not beat lam
    "qv2": _Constraint(
        budget=math.sqrt, to_alloc=lambda q: q, cost=lambda x: math.fsum(x.tolist()),
        scale=lambda v, budget: budget / v.sum(), kernel=_water_filling,
        hessian=lambda diag, lam: diag,
        gaps=lambda grad, x, lam, budget: np.where(
            x > _INTERIOR_CUT * budget, np.abs(grad - 2.0 * lam),
            np.where(grad - 2.0 * lam - 1e-9 > 0, grad - 2.0 * lam - 1e-9, 0.0))),
}

#: The split schemes the maximizers solve.
SCHEMES = tuple(_CONSTRAINTS)


def maximize_qv1(problem: UtilityProblem) -> AllocationSolution:
    """Maximize utility under the sphere constraint sum(x_r**2) = stake.

    Stationarity for each coordinate at multiplier lam reads
    g_r/(x_r+b_r)**2 = 2*lam*x_r, a cubic in x_r whose root has a closed
    form. With t = 1/(2*lam), the squared norm of those roots is increasing
    and convex in u = log t, and pinned between analytic bounds, so one
    safeguarded Newton search on u meets the constraint.
    """
    return _solve(problem, "qv1")


def maximize_qv2(problem: UtilityProblem) -> AllocationSolution:
    """Maximize utility under the budget constraint sum(x_r) = sqrt(stake).

    For multiplier lam the stationary coordinates have the water-filling
    closed form x_r = max(0, tau*sqrt(g_r) - b_r) with tau = 1/sqrt(2*lam).
    Coordinate r is active once tau passes its breakpoint b_r/sqrt(g_r), so
    sorting the breakpoints finds the active set and tau exactly; the
    method does not iterate.
    """
    return _solve(problem, "qv2")


def maximize(problem: UtilityProblem) -> AllocationSolution:
    """maximize_qv1 or maximize_qv2, by the problem's scheme."""
    if problem.scheme == "qv1":
        return maximize_qv1(problem)
    return maximize_qv2(problem)


def _simplex_grid(m, resolution):
    """All compositions of `resolution` into m nonnegative parts, as fractions,
    in lexicographic order (that of itertools.combinations of the cuts),
    yielded in consecutive blocks of at most _GRID_BLOCK rows."""
    if m == 1:  # one point at any resolution, which int64 need not hold
        yield np.ones((1, 1))
        return
    for parts in _part_blocks(np.zeros(0, dtype=np.int64), resolution, m - 1):
        yield parts.astype(float) / resolution


def _part_blocks(prefix, left, free):
    """prefix followed by each composition of `left` into free + 1 parts, in
    lexicographic order, as int64 blocks of at most _GRID_BLOCK rows.

    When they all fit, they are one block. Else the next part p runs from 0
    to left: a p with more rows than a block recurses, and since the rows
    of p shrink as p grows, a run of _GRID_BLOCK // rows(p) parts from p
    fits one block.
    """
    if math.comb(left + free, free) <= _GRID_BLOCK:
        yield _completions(prefix[None, :], np.array([left]), free)
        return
    p = 0
    while p <= left:
        rows = math.comb(left - p + free - 1, free - 1)  # those whose next part is p
        if rows > _GRID_BLOCK:
            yield from _part_blocks(np.append(prefix, p), left - p, free - 1)
            p += 1
            continue
        part = np.arange(p, min(p + _GRID_BLOCK // rows, left + 1))
        heads = np.column_stack((np.repeat(prefix[None, :], part.size, axis=0), part))
        yield _completions(heads, left - part, free - 1)
        p += part.size


def _completions(parts, left, free):
    """Each row of parts followed by each composition of its left into
    free + 1 parts, in lexicographic order."""
    for _ in range(free):  # row i branches into part = 0..left[i]
        counts = left + 1
        rows = np.repeat(np.arange(left.size), counts)
        part = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        parts, left = np.column_stack((parts[rows], part)), left[rows] - part
    return np.column_stack((parts, left))


def _batch_utility(arrays, xs):
    """Utility of each row of xs; NaN where x_r = b_r = 0 with pi_r > 0 leaves
    it undefined. A term with pi_r = 0 is 0, as in utility."""
    pi, a, b = arrays  # a problem's _vectors
    with np.errstate(invalid="ignore"):  # 0/0 at an undefined point
        terms = (xs + a) / (xs + b) * pi
    terms[:, pi == 0] = 0.0  # 0 wherever it is defined too
    return terms.sum(axis=1)


def _refine(problem, budget_vec):
    """Pairwise mass-transfer local search on the feasible simplex.

    budget_vec is the allocation in 'budget space' (x for qv2, x**2 for
    qv1); mass is moved between coordinate pairs with a shrinking step, in
    up to ten sweeps per step. A sweep takes each improving move (i, j) in
    order; the moves after the last one taken are evaluated as one batch.
    """
    q = budget_vec.copy()
    arrays = problem._vectors
    src, dst = np.nonzero(~np.eye(len(q), dtype=bool))  # (0, 1), (0, 2), ...
    best_u = _batch_utility(arrays, _CONSTRAINTS[problem.scheme].to_alloc(q)[None, :])[0]
    total = max(q.sum(), 1.0)
    step = q.sum() / 4.0
    while step > 1e-13 * total:
        for _ in range(10):
            k, improved = 0, False
            while k < src.size:
                moves = k + np.flatnonzero(~(q[src[k:]] < step))  # mass to move
                rows = np.arange(moves.size)
                trials = np.repeat(q[None, :], moves.size, axis=0)
                trials[rows, src[moves]] -= step
                trials[rows, dst[moves]] += step
                u = _batch_utility(arrays, _CONSTRAINTS[problem.scheme].to_alloc(trials))
                better = np.flatnonzero(u > best_u)
                if better.size == 0:
                    break
                q, best_u, improved = trials[better[0]], u[better[0]], True
                k = int(moves[better[0]]) + 1
            if not improved:
                break
        step /= 2.0
    return _CONSTRAINTS[problem.scheme].to_alloc(q), best_u


def brute_force_oracle(problem: UtilityProblem, resolution: int = 200) -> AllocationSolution:
    """Exhaustive feasible-set search, independent of the Lagrange machinery.

    Grids the budget simplex (allocation for qv2, squared allocation for
    qv1, which maps the sphere octant onto a simplex), keeps the best grid
    point and refines it once by shrinking-step pairwise transfers. A point
    with x_r = b_r = 0 and pi_r > 0 has no utility and never wins;
    DegenerateDenominator when no grid point has one. The grid has
    C(resolution + m - 1, m - 1) points, 1,373,701 at the default resolution
    and m = 4; InvalidSpec, before any array is built, past 2**22 of them.
    It is scored one block of at most _GRID_BLOCK points at a time, so the
    cap bounds the time, and one block the memory; a later block's best
    replaces the best so far only if it is greater, so the first best point
    of the whole grid wins.
    """
    if problem.m > 4:
        raise DimensionTooLarge(problem.m, 4)
    resolution = _whole_number(resolution, "resolution", least=100)
    if math.comb(resolution + problem.m - 1, problem.m - 1) > 2 ** 22:
        raise InvalidSpec(f"an oracle grid has at most 2**22 points; resolution "
                          f"{reprlib.repr(resolution)} at m = {problem.m} gives more")
    budget, to_alloc = problem.budget(), _CONSTRAINTS[problem.scheme].to_alloc
    best = None  # (utility, budget-space point) of the first best defined point
    for block in _simplex_grid(problem.m, resolution):
        grid = block * budget
        utils = _batch_utility(problem._vectors, to_alloc(grid))
        defined = ~np.isnan(utils)
        if defined.any():
            i = int(np.argmax(np.where(defined, utils, -np.inf)))
            if best is None or utils[i] > best[0]:  # a tie keeps the earlier point
                best = utils[i], grid[i]
    if best is None:
        raise DegenerateDenominator()
    x, u = _refine(problem, best[1])
    return AllocationSolution(tuple(x.tolist()), 0.0, float(u),
                              kkt_residual=0.0, method="oracle")


def hessian_diagonal(problem: UtilityProblem, solution: AllocationSolution) -> np.ndarray:
    """Diagonal of the Lagrangian's second derivative at a solution.

    qv1: -2*g_r/(x_r+b_r)**3 - 2*lam; qv2: -2*g_r/(x_r+b_r)**3. All entries
    must be negative at a nondegenerate maximizer.
    """
    g, b = _gains(problem)
    x = np.array(solution.allocation)
    # an overflowed entry is -inf, still negative; 0/0 at x_r = b_r = 0 with
    # g_r = 0 is a NaN entry, which no active coordinate reads
    with np.errstate(over="ignore", invalid="ignore"):
        diag = -2.0 * g / (x + b) ** 3
    return _CONSTRAINTS[problem.scheme].hessian(diag, solution.multiplier)


def kkt_residual(problem: UtilityProblem, solution: AllocationSolution) -> float:
    """Max stationarity residual at interior coordinates plus constraint gap.

    Clamped coordinates are checked for complementary slackness (gradient
    not exceeding the multiplier's scale) and any violation of the
    second-order sign structure (a nonnegative Lagrangian diagonal) is
    added to the residual.
    """
    g, b = _gains(problem)
    x = np.array(solution.allocation)
    if np.any(x < -_FEAS_TOL):
        raise InfeasibleSolution(f"negative allocation in {solution.allocation}")
    violation = abs(_CONSTRAINTS[problem.scheme].cost(x) - problem.budget())
    if violation > 1e-6 * max(1.0, problem._stake):
        raise InfeasibleSolution(
            f"constraint violated by {violation} for scheme {problem.scheme}")

    with np.errstate(invalid="ignore"):  # 0/0 where g_r = 0: a gap not read below
        grad = g / (x + b) ** 2
    gaps = _CONSTRAINTS[problem.scheme].gaps(grad, x, solution.multiplier, problem.budget())
    # Python's max, in coordinate order: a NaN gap is passed over
    residual = max([violation, *gaps[g != 0].tolist()])
    active = g > 0
    if not solution.degenerate and active.any():
        diag = hessian_diagonal(problem, solution)
        residual = max(residual, max(0.0, float(diag[active].max())))
    return float(residual)
