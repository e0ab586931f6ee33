import numpy as np
import pytest

from qvkit import stake


def seeded_population(seed, n=None, kind=None):
    """Tie-free random distribution used across the property suites."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if n is None:
        n = int(rng.integers(2, 201))
    if kind is None:
        kind = "pareto" if rng.random() < 0.5 else "uniform"
    if kind == "pareto":
        spec = stake.DistributionSpec(kind="pareto", n=n, seed=int(seed),
                                      shape=1.16, scale=1.0)
    else:
        spec = stake.DistributionSpec(kind="uniform", n=n, seed=int(seed),
                                      lo=0.5, hi=50.0)
    dist = stake.generate(spec)
    # continuous generators make ties measure-zero; guard anyway
    assert len(set(s for _, s in dist.entries)) == dist.n
    return dist


def pareto_reference(n, seed, shape=1.16, scale=1.0):
    """(u, entries) of generate's Pareto kind rebuilt outside it.

    u holds the PCG64 draws, whose stream is portable. entries are the
    (id, stake) pairs of the inverse CDF scale * (1 - u) ** (-1 / shape),
    sorted by (stake, id); numpy's own ** computes it on this host, since
    the last bits of its SIMD power differ between dispatch levels.
    """
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    stakes = scale * (1.0 - u) ** (-1.0 / shape)
    width = len(str(n - 1))
    ids = [f"v{i:0{width}d}" for i in range(n)]
    return u, sorted(zip(ids, stakes.tolist()), key=lambda e: (e[1], e[0]))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20260824))
