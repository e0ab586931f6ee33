import math

import numpy as np
import pytest

from qvkit._roots import monotone_root
from qvkit.errors import NoConvergence


def cube(c):
    return lambda x: (x ** 3 - c, 3.0 * x ** 2)


def test_scalar_root():
    root, evals = monotone_root(cube(2.0), 0.0, 2.0, 1e-12)
    assert root == pytest.approx(2.0 ** (1 / 3), rel=1e-15)
    assert evals <= 10
    assert type(root) is float and type(evals) is int


def test_array_roots_spanning_decades():
    for c in (1e-12, 1e-3, 1.0, 8.0, 1e9):
        hi = max(c, 1.0)
        root, _ = monotone_root(cube(c), 0.0, hi, 1e-12 * hi)
        assert root == pytest.approx(np.cbrt(c), rel=1e-14, abs=0), c


def test_root_at_zero_with_absolute_tolerance():
    # near its root at 0, f is never exactly 0 and moves in steps of an ulp
    # of 1, so Newton steps there never shrink relative to x
    root, _ = monotone_root(lambda x: ((x + 1.0) - 1.0 - 3e-17, np.ones_like(x)),
                            -0.5, 1.0, 1e-12)
    assert abs(root) <= 1e-15


def test_zero_tolerance_stops_within_ulps():
    # starting on the root, the Newton step is a few ulps at most
    start = np.cbrt(2.0)
    root, evals = monotone_root(cube(2.0), 1.0, start, 0.0)
    assert root == pytest.approx(start, rel=1e-15)
    assert evals == 1


def test_bisection_takes_over_from_bad_newton_steps():
    # arctan is flat far out, so Newton from 50 leaves the bracket
    root, _ = monotone_root(lambda x: (np.arctan(x - 1.0), 1.0 / (1.0 + (x - 1.0) ** 2)),
                            -60.0, 50.0, 1e-12)
    assert root == pytest.approx(1.0, abs=1e-15)


def test_a_zero_slope_from_float_arithmetic_takes_a_bisection_step():
    # fdf returns Python floats, as the gamma search's does; 0.0 / 0.0 slopes
    # must not raise ZeroDivisionError
    def fdf(x):
        x = float(x)
        return x ** 3 - 8.0, (0.0 if x > 3.0 else 3.0 * x * x)
    root, _ = monotone_root(fdf, 0.0, 5.0, 1e-12)
    assert root == pytest.approx(2.0, abs=1e-12)


def test_a_nan_slope_takes_bisection_steps():
    points = []

    def fdf(x):
        points.append(x)
        return x ** 3 - 8.0, math.nan
    root, evals = monotone_root(fdf, 0.0, 5.0, 1e-12)
    assert root == pytest.approx(2.0, abs=1e-12)
    # each step halves the bracket, from a width of 5 down to about 1e-12
    assert evals == len(points) and 40 <= evals <= 45
    assert points[1:3] == [2.5, 1.25]


def test_exhausted_budget_raises_with_best_point():
    with pytest.raises(NoConvergence) as info:
        monotone_root(cube(2.0), 0.0, 1e6, 1e-12, max_iter=3)
    assert 0.0 < info.value.best < 1e6
    assert type(info.value.best) is float
