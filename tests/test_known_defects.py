"""The three standing witnesses of a wrong value, pinned as strict expected failures.

Each test states what a right route must do and fails today for the reason
its mark names.  ``strict=True`` turns the mark into a gate: the change that
mends the defect (ROADMAP items 1 and 4) makes the test pass, the suite then
reports XPASS as a failure, and that change removes the mark.
``raises=AssertionError`` keeps any other failure, such as a refusal where
a value is due, from passing as the expected one.
"""

import numpy as np
import pytest

from hida_lab import HidaLabError, MagneticModel, composed_closed_value, propagator


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
