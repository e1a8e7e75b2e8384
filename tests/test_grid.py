"""Grid construction, sampling, and the bilinear pairing."""

import dataclasses

import numpy as np
import pytest

from hida_lab import GridMismatchError, InvalidParameterError
from hida_lab.grid import (Grid, conj_norm_sq, make_grid, pair, pair_from_vector,
                           sample)


def test_midpoint_nodes_and_weights():
    g = make_grid(2.0, 4)
    np.testing.assert_allclose(g.nodes, [0.25, 0.75, 1.25, 1.75])
    assert g.h == 0.5
    assert g.nodes[0] > 0 and g.nodes[-1] < g.t


def test_grid_equality_is_by_parameters():
    """(t, n) are the only fields: equality and hashing are exactly on them."""
    assert [f.name for f in dataclasses.fields(Grid)] == ["t", "n"]
    assert make_grid(1.0, 8) == make_grid(1.0, 8) == Grid(1.0, 8)
    assert make_grid(1.0, 8) != make_grid(1.0, 9)
    assert make_grid(1.0, 8) != make_grid(np.nextafter(1.0, 2.0), 8)
    assert hash(make_grid(1.0, 8)) == hash(make_grid(1, 8))
    assert len({make_grid(1.0, 8), Grid(1.0, 8), Grid(1.0, 9)}) == 2


@pytest.mark.parametrize("t,n", [(2.0, 4), (1.0, 300), (1.7, 999), (3.3, 1000)])
def test_grid_step_and_nodes(t, n):
    g = Grid(t, n)
    assert g.h == t / n
    np.testing.assert_array_equal(g.nodes, (np.arange(n) + 0.5) * (t / n))


@pytest.mark.parametrize("t,n", [(0.0, 4), (-1.0, 4), (1.0, 1), (1.0, 0)])
def test_make_grid_rejects_bad_parameters(t, n):
    for build in (make_grid, Grid):
        with pytest.raises(InvalidParameterError):
            build(t, n)


def test_grid_refuses_an_infinite_duration():
    for build in (make_grid, Grid):
        with pytest.raises(InvalidParameterError, match="finite"):
            build(np.inf, 4)


def test_sample_accepts_constants_and_callables():
    g = make_grid(1.0, 10)
    f = sample(2.0, lambda s: s, g)
    np.testing.assert_allclose(f.comp1, 2.0)
    np.testing.assert_allclose(f.comp2, g.nodes)


def test_vector_round_trip():
    g = make_grid(1.0, 5)
    f = sample(lambda s: s, lambda s: 1j * s, g)
    back = pair_from_vector(g, f.as_vector())
    np.testing.assert_array_equal(back.comp1, f.comp1)
    np.testing.assert_array_equal(back.comp2, f.comp2)


def test_pair_is_bilinear_not_sesquilinear():
    g = make_grid(1.0, 50)
    u = sample(1j, 0.0, g)
    # Bilinear: (i 1, i 1) integrates (i)^2 = -1, not |i|^2 = +1.
    assert pair(u, u) == pytest.approx(-1.0)
    assert conj_norm_sq(u) == pytest.approx(1.0)


def test_pair_matches_exact_integral():
    # int_0^1 s * s^2 ds = 1/4, midpoint rule error O(n^-2).
    g = make_grid(1.0, 400)
    u = sample(lambda s: s, 0.0, g)
    v = sample(lambda s: s ** 2, 0.0, g)
    assert pair(u, v) == pytest.approx(0.25, abs=1e-5)


def test_pair_rejects_mismatched_grids():
    u = sample(1.0, 0.0, make_grid(1.0, 8))
    v = sample(1.0, 0.0, make_grid(1.0, 9))
    with pytest.raises(GridMismatchError):
        pair(u, v)
