"""The structured route held to the lattice closed form of the grid problem.

``lattice.Lattice`` derives det(Id + B), the Gram matrix M and the value at
start point 0 on the grid itself, so these gates test the discrete
identities, not a discretization error.  The tolerances follow the
rounding of the route:

* kappa = n + 1/d, where d is the distance of n theta from the nearest
  discrete caustic j pi/2.  The product prod(1 - sigma^2), the twisted FFT
  and the sums of the Gram matrix each add O(n eps) relative rounding, and
  a factor 1 +- sigma that is d-small carries its absolute rounding of a
  few eps as a relative eps/d.  So det(Id + B) and M are held at
  64 eps kappa.
* The value is exp(exponent) times det^{-1/2} (2 pi mu)^{-1} with
  exponent = (ik/2) cot(n theta) |y|^2.  M's relative error eps kappa enters
  the exponent times |exponent|, and the prefactor once, so the value is
  held at 64 eps kappa (1 + |exponent|), its modulus too.

Over 6 000 seeded draws (n in {2, 3, 7, 50, 100, 10^3, 10^4}, k in (-3, 3),
|kt| in (0, 3 pi), 1e-3 skipped around every j pi/2 in kt and n theta) the
worst ratio of error to eps kappa was 22 for the determinant and 8 for M,
and of error to eps kappa (1 + |exponent|) 6 for the modulus and 5 for
the value.  Next to a discrete caustic, 875 further draws with
n theta = j pi/2 + d, |d| in [1e-9, 1e-3], gave a worst determinant ratio
of 30.  The value itself is held only while |n theta| < pi: past it
the route lacks the sign (-1)^floor(n theta / pi) (ROADMAP item 1).
"""

import random

import numpy as np
import pytest

from hida_lab import MagneticModel, propagator
from hida_lab.grid import make_grid
from hida_lab.spectral import determinant_report
from lattice import Lattice

EPS = np.finfo(float).eps
SIZES = (2, 3, 7, 50, 100, 1000, 10_000)
HALF = np.pi / 2


def _draws(n: int, count: int = 100):
    """Seeded (k, t, y) with |kt| in (0, 3 pi), 1e-3 away from every j pi/2
    in kt and in n theta."""
    rng = random.Random(n)
    out = []
    while len(out) < count:
        k = rng.uniform(-3.0, 3.0)
        kt = np.copysign(rng.uniform(1e-3, 3 * np.pi), k)
        y = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        lat = Lattice(k, kt / k, n)
        if min(abs(kt - round(kt / HALF) * HALF), lat.caustic_distance) > 1e-3:
            out.append((lat, y))
    return out


def _kappa(lat: Lattice) -> float:
    return lat.n + 1.0 / lat.caustic_distance


@pytest.mark.parametrize("n", SIZES)
def test_determinant_and_gram_matrix_are_the_lattice_ones(n):
    for lat, y in _draws(n):
        m = MagneticModel(k=lat.k, t=lat.t)
        tol = 64 * EPS * _kappa(lat)
        discrete = determinant_report(m, make_grid(lat.t, n), n_max=1)["discrete"]
        assert abs(discrete - lat.determinant) <= tol * abs(lat.determinant)
        gram = propagator(m, y, n_grid=n).gram
        mu = lat.gram_diagonal
        assert np.abs(gram - mu * np.eye(2)).max() <= tol * abs(mu)


@pytest.mark.parametrize("n", SIZES)
def test_propagator_is_the_lattice_value_up_to_its_branch(n):
    held = 0
    for lat, y in _draws(n):
        value = propagator(MagneticModel(k=lat.k, t=lat.t), y, n_grid=n).value
        expected = lat.value(y)
        tol = 64 * EPS * _kappa(lat) * (1.0 + abs(lat.exponent(y)))
        assert abs(abs(value) - abs(expected)) <= tol * abs(expected)
        if abs(n * lat.theta) < np.pi:
            assert abs(value - expected) <= tol * abs(expected)
            held += 1
    assert held >= 20


def _caustic_draws(n: int, count: int = 125):
    """Seeded (k, t) with n theta = j pi/2 + d, j in 1 ... min(5, n - 1) and
    |d| in [1e-9, 1e-3], log-uniform, both signs of d and of k."""
    rng = random.Random(10_000 + n)
    out = []
    for _ in range(count):
        j = rng.randint(1, min(5, n - 1))
        d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -3.0)
        k = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        out.append(Lattice(k, n * np.tan((j * HALF + d) / n) / abs(k), n))
    return out


@pytest.mark.parametrize("n", SIZES)
def test_determinant_is_the_lattice_one_next_to_a_discrete_caustic(n):
    """The draws the test above skips: n theta within 1e-3 of j pi/2, held at
    the same 64 eps kappa, kappa = n + 1/d."""
    for lat in _caustic_draws(n):
        discrete = determinant_report(MagneticModel(k=lat.k, t=lat.t),
                                      make_grid(lat.t, n), n_max=1)["discrete"]
        tol = 64 * EPS * _kappa(lat)
        assert abs(discrete - lat.determinant) <= tol * abs(lat.determinant), (lat, discrete)
