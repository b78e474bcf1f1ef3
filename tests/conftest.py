import numpy as np
import pytest
from hypothesis import settings, strategies as st

import bethe_forge as bf


# the same hypothesis examples on every run, with no example database: a
# result must not depend on which draws a run happened to make
# (pytest --hypothesis-profile=default restores random search)
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def cdraw(rng, n=None, rmin=0.5, rmax=1.5):
    """Random complex numbers on an annulus (away from 0 and infinity)."""
    shape = () if n is None else (n,)
    r = rng.uniform(rmin, rmax, shape)
    ph = rng.uniform(0, 2 * np.pi, shape)
    out = r * np.exp(1j * ph)
    return complex(out) if n is None else out


@st.composite
def annulus(draw):
    """Hypothesis strategy: complex numbers with 0.5 <= |z| <= 1.5."""
    r = draw(st.floats(0.5, 1.5))
    return r * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))


def draw_free(tag, rng):
    """Generic free-parameter draw for a family."""
    fam = bf.FAMILIES[tag]
    return {name: cdraw(rng) for name in fam.free_names}


def family_instance(tag, rng, branch=None):
    fam = bf.FAMILIES[tag]
    if branch is None:
        branch = fam.branches[rng.integers(len(fam.branches))]
    return bf.construct(tag, draw_free(tag, rng), branch), branch


def take_nearest(pool, v, tol):
    """The oracle's matching rule on a list: remove the entry of pool nearest
    to v, the first of equals, if it lies within tol (a NaN distance
    removes nothing); return whether one was removed."""
    if not pool:
        return False
    dist = np.array([abs(v - r) for r in pool])
    dist[np.isnan(dist)] = np.inf
    k = int(np.argmin(dist))
    if np.isinf(dist[k]) or dist[k] > tol:
        return False
    pool.pop(k)
    return True


def match_multiset(values, reference, tol):
    """Greedy nearest matching of values into the reference multiset, by
    the oracle's rule: (number matched, list of unmatched values)."""
    pool = list(reference)
    unmatched = [v for v in values if not take_nearest(pool, v, tol)]
    return len(values) - len(unmatched), unmatched


def random_params(rng, scale=1.0):
    """Fully generic 19-parameter draw (almost surely not solvable)."""
    kw = {k: scale * cdraw(rng) for k in
          ("p", "q", "t1", "t2", "s1", "s2", "t3", "s3", "tp", "sp")}
    v = cdraw(rng, 9).reshape(3, 3)
    return bf.HamiltonianParams(v=v, **kw)


def dyadic(rng, shape=None):
    """Random complex numbers on a 2^-20 grid, where double arithmetic on
    sums is exact; used for bit-identity assertions."""
    re = rng.integers(-2**20, 2**20, shape) * 2.0**-20
    im = rng.integers(-2**20, 2**20, shape) * 2.0**-20
    return re + 1j * im


def dyadic_params(rng):
    kw = {k: dyadic(rng) for k in
          ("p", "q", "t1", "t2", "s1", "s2", "t3", "s3", "tp", "sp")}
    return bf.HamiltonianParams(v=dyadic(rng, (3, 3)), **kw)


@pytest.fixture
def rng():
    return np.random.default_rng(0xBE7E)
