"""The standing witnesses of a wrong value, pinned as strict expected failures.

Each test states what a right route must do and fails today for the reason
its mark names.  ``strict=True`` turns the mark into a gate: the change that
mends the defect (ROADMAP items 1, 4 and 14) makes the test pass, the suite
then reports XPASS as a failure, and that change removes the mark.
``raises=AssertionError`` keeps any other failure, such as a refusal where
a value is due, from passing as the expected one.  The one unmarked test is
a witness's partner: the structured route meets the gate its dense witness
misses.
"""

import mpmath
import numpy as np
import pytest
from lattice import Lattice

from hida_lab import (HidaLabError, LemmaEvaluator, MagneticModel, composed_closed_value,
                      free_K, indicator_pair, magnetic_L, make_grid, propagator)


def _relative_gap(m: MagneticModel, y, n_grid: int) -> float:
    closed = composed_closed_value(m, y)
    return abs(propagator(m, y, n_grid=n_grid).value - closed) / abs(closed)


def _refused_or_relative_gap(m: MagneticModel, y, n_grid: int) -> float:
    """0 when propagator refuses, else its relative gap to the closed form."""
    try:
        return _relative_gap(m, y, n_grid)
    except HidaLabError:
        return 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: past the first integer caustic the numeric "
                          "routes drop the sign (relative gap 1.998, 1.998, 1.997)")
@pytest.mark.parametrize("t", [3.5, 4.2, 5.0])
def test_propagator_keeps_the_sign_past_the_first_caustic(t):
    """At n = 4000 the branch-correct value is first-order close: 1.5e-3 to
    3.1e-3 relative, measured with the structured half of item 1."""
    assert _relative_gap(MagneticModel(k=1.0, t=t), (0.3, -0.4), n_grid=4000) <= 1e-2


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: kt = pi + 1e-7 at n = 200 is classed regular "
                          "and returns |value| 601 where the closed form is 1.59e6")
def test_propagator_next_to_a_caustic_is_refused_or_right():
    m = MagneticModel(k=1.0, t=np.pi + 1e-7)
    assert _refused_or_relative_gap(m, (0.0, 0.0), n_grid=200) <= 0.5


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 1 and 4: k = 100, t = 1 at n = 1000 returns "
                          "-0.145i where the closed form is 31.4i")
def test_propagator_on_a_coarse_grid_is_refused_or_right():
    m = MagneticModel(k=100.0, t=1.0)
    assert _refused_or_relative_gap(m, (0.0, 0.0), n_grid=1000) <= 0.5


def _mpmath_closed_value(k: float, t: float, y) -> complex:
    """k / (2 pi i sin kt) exp((ik/2) cot(kt) |y|^2) at 50 digits, on the float inputs."""
    with mpmath.workdps(50):
        k, t = mpmath.mpf(k), mpmath.mpf(t)
        r2 = mpmath.mpf(y[0]) ** 2 + mpmath.mpf(y[1]) ** 2
        return complex(k / (2j * mpmath.pi * mpmath.sin(k * t))
                       * mpmath.exp(0.5j * k * mpmath.cot(k * t) * r2))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: at t = 1e-13 rounding decides the phase "
                          "|y|^2/(2t) = 1e13 rad (eps |exponent| = 1.1e-3); propagator "
                          "is 3.0e-4 off, and so is composed_closed_value")
def test_propagator_at_a_short_time_is_refused_or_right():
    """The gap to mpmath is 3.6e-7 at t = 1e-10 and 2.0e-5 at 1e-12; the
    structured and the closed float routes agree with each other to 1.6e-16."""
    m, y = MagneticModel(k=1.0, t=1e-13), (1.0, 1.0)
    try:
        value = propagator(m, y, n_grid=50).value
    except HidaLabError:
        return
    exact = _mpmath_closed_value(m.k, m.t, y)
    assert abs(value - exact) <= 1e-6 * abs(exact)


_NEXT_TO_PI = MagneticModel(k=1.0, t=np.pi + 1e-5)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 14 and 4: next to kt = pi the dense oracle's M "
                          "is off, and the delta exponent (3.7e5 rad) multiplies it: "
                          "2.3e-2 off the lattice value at n = 1000")
def test_dense_oracle_next_to_a_caustic_meets_the_lattice_value():
    """At y = 0 the dense value is within 2e-7 of the lattice value, so the
    error sits in M.  The dense build takes about a second."""
    m, y, g = _NEXT_TO_PI, (0.3, -0.4), make_grid(_NEXT_TO_PI.t, 1000)
    dense = LemmaEvaluator(free_K(m, g), magnetic_L(m, g),
                           (indicator_pair(g, 1), indicator_pair(g, 2))).evaluate(ys=y)
    exact = Lattice(m.k, m.t, 1000).value(y)
    assert abs(dense.value - exact) <= 1e-3 * abs(exact)


def test_structured_route_next_to_a_caustic_meets_the_lattice_value():
    """The dense witness's partner: propagator at the same point reads 1.0e-4."""
    m, y = _NEXT_TO_PI, (0.3, -0.4)
    exact = Lattice(m.k, m.t, 1000).value(y)
    assert abs(propagator(m, y, n_grid=1000).value - exact) <= 1e-3 * abs(exact)
