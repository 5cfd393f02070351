import math

import numpy as np
import pytest

from zonotools import harmonics, sphere, transforms, zonoid


@pytest.fixture(scope="session")
def grid():
    """Default working grid (64 rings x 128 longitudes)."""
    return sphere.build_grid(64, 128)


@pytest.fixture(scope="session")
def small_grid():
    return sphere.build_grid(32, 64)


@pytest.fixture(scope="session")
def cap_u():
    return sphere.Cap(np.array([0.0, 0.0, 1.0]), 0.9)


@pytest.fixture(scope="session")
def cap_v():
    return sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.9)


@pytest.fixture(scope="session")
def counterexample(grid, cap_u, cap_v):
    """The constructed density with isotropic sections over cap_u.

    Built once per session (the plateau design dominates the cost).
    """
    return zonoid.build_counterexample(cap_u, cap_v, grid, L=48, transition=0.3)


@pytest.fixture(scope="session")
def counterexample_spec(counterexample):
    return zonoid.make_zonoid(counterexample.g)


def random_even_coeffs(L, rng):
    """Random coefficients on the even degrees, each standard normal."""
    c = harmonics.HarmonicCoeffs.zeros(L)
    for l in range(0, L + 1, 2):
        for m in range(-l, l + 1):
            c.set(l, m, rng.normal())
    return c


def random_density(grid, L, rng, floor=0.2):
    """Random even nonnegative band-L density on the grid."""
    c = random_even_coeffs(L, rng)
    v = harmonics.synthesize_grid(c, grid)
    c.set(0, 0, c.get(0, 0) + (abs(float(np.min(v))) + floor) * math.sqrt(4.0 * math.pi))
    return transforms.SphericalFunction.from_coeffs(grid, c)


def random_function(grid, L, rng, nonnegative=False, floor=0.1):
    """Random band-L function (all parities); optionally shifted positive."""
    c = harmonics.HarmonicCoeffs.zeros(L)
    c.c = rng.normal(size=c.c.size)
    f = transforms.SphericalFunction.from_coeffs(grid, c)
    if nonnegative:
        shift = abs(float(np.min(f.values))) + floor
        c.set(0, 0, c.get(0, 0) + shift * math.sqrt(4.0 * math.pi))
        f = transforms.SphericalFunction(grid=grid, values=f.values + shift, coeffs=c)
    return f


def random_unit(rng, n=None):
    v = rng.normal(size=(n, 3) if n else 3)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)
