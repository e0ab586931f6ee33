"""Safeguarded Newton root-finder shared by the solvers and the gamma search."""

import math

from .errors import NoConvergence

_ULPS = 4 * math.ulp(1.0)


def monotone_root(fdf, lo, hi, xtol, max_iter=100):
    """Root of an increasing function of one float.

    fdf(x) returns (f(x), f'(x)) with f(lo) <= 0 <= f(hi); Newton starts
    at hi. A step that would leave the bracket, which shrinks onto the root
    as f is evaluated, or is not half the step before last, becomes a
    bisection (rtsafe, Numerical Recipes 9.4), so noise in f cannot stall
    it; so does a zero or NaN slope. The search stops once its step is
    within xtol (absolute) or a few ulps of x. Returns the root and the
    number of fdf evaluations.
    """
    x = float(hi)
    older = last = abs(hi - lo)
    for evals in range(1, max_iter + 1):
        f, df = fdf(x)
        lo = x if f < 0 else lo
        hi = x if f > 0 else hi
        step = 0.0 if f == 0 else (f / df if df else math.inf)
        newton = x - step
        tiny = xtol + _ULPS * abs(x)
        use_newton = abs(step) <= tiny or (lo < newton < hi and 2.0 * abs(step) <= older)
        moved = newton if use_newton else 0.5 * (lo + hi)
        x, older, last = moved, last, abs(moved - x)
        if not last > tiny:
            return x, evals
    raise NoConvergence(f"no root within {max_iter} evaluations", best=x)
