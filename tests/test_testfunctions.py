"""The indicator directions and the seeded Gaussian-bump suite."""

import numpy as np
import pytest

from hida_lab import InvalidParameterError
from hida_lab.grid import make_grid
from hida_lab.testfunctions import indicator_pair, random_suite

G = make_grid(1.0, 200)


def test_indicator_pairs():
    e1 = indicator_pair(G, 1)
    np.testing.assert_array_equal(e1.comp1, 1.0)
    np.testing.assert_array_equal(e1.comp2, 0.0)
    e2 = indicator_pair(G, 2)
    np.testing.assert_array_equal(e2.comp1, 0.0)
    np.testing.assert_array_equal(e2.comp2, 1.0)
    with pytest.raises(InvalidParameterError):
        indicator_pair(G, 3)


def test_random_suite_is_seeded_and_supported_inside():
    a = random_suite(123, 4, G)
    b = random_suite(123, 4, G)
    assert len(a) == 4
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.comp1, fb.comp1)
        np.testing.assert_array_equal(fa.comp2, fb.comp2)
        # Both components populated, decayed at the boundary.
        assert np.abs(fa.comp1).max() > 0.1 and np.abs(fa.comp2).max() > 0.1
        assert abs(fa.comp1[0]) < 1e-12 and abs(fa.comp1[-1]) < 1e-12
    c = random_suite(124, 4, G)
    assert np.abs(c[0].comp1 - a[0].comp1).max() > 0


def test_random_suite_rejects_empty():
    with pytest.raises(InvalidParameterError):
        random_suite(1, 0, G)
