"""Safeguarded Newton root-finder shared by the solvers and the gamma search."""

import numpy as np

from .errors import NoConvergence

_ULPS = 4 * np.finfo(float).eps


def monotone_root(fdf, lo, hi, xtol, max_iter=100):
    """Root of an increasing function, elementwise over numpy arrays.

    fdf(x) returns (f(x), f'(x)) with f(lo) <= 0 <= f(hi); Newton starts
    at hi. A step that would leave the bracket, which shrinks onto the root
    as f is evaluated, or is not half the step before last, becomes a
    bisection (rtsafe, Numerical Recipes 9.4), so noise in f cannot stall
    it. An element stops once its step is within xtol (absolute) or a few
    ulps of x. Returns the root and the number of fdf evaluations.
    """
    x = np.array(hi, dtype=float)
    older = last = np.abs(np.subtract(hi, lo))
    running = np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for evals in range(1, max_iter + 1):
            f, df = fdf(x)
            lo = np.where(f < 0, x, lo)
            hi = np.where(f > 0, x, hi)
            step = np.where(f == 0, 0.0, np.divide(f, df))  # f, df may be floats
            newton = x - step
            tiny = xtol + _ULPS * np.abs(x)
            use_newton = (np.abs(step) <= tiny) | (
                (newton > lo) & (newton < hi) & (2.0 * np.abs(step) <= older))
            moved = np.where(use_newton, newton, 0.5 * (lo + hi))
            older, last = last, np.abs(moved - x)
            x = np.where(running, moved, x)
            running &= last > tiny
            if not running.any():
                return x, evals
    raise NoConvergence(f"no root within {max_iter} evaluations", best=x)
