"""Grid construction, sampling, and the bilinear pairing."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from hida_lab import (InvalidParameterError, LemmaEvaluator, MagneticModel, apply_N,
                      determinant_report, discrete_spectrum, free_K, gram_matrix, magnetic_L,
                      magnetic_T, propagator, solve_N, verify_preimage)
from hida_lab.fredholm import Resolvent, closed_solve, resolvent
from hida_lab.grid import (Grid, conj_norm_sq, make_grid, pair, pair_from_vector,
                           sample)
from hida_lab.testfunctions import indicator_pair


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


@pytest.mark.parametrize("t", [Fraction(10 ** 400), 10 ** 400], ids=["fraction", "int"])
def test_grid_refuses_an_exact_duration_beyond_the_float_range(t):
    """An int or a Fraction too large for a float is refused as not finite,
    where math.isfinite would let its OverflowError escape."""
    for build in (make_grid, Grid):
        with pytest.raises(InvalidParameterError, match="must be a finite float"):
            build(t, 4)


def test_grid_takes_an_integer_node_count_only():
    """numpy integers pass and are stored as int; a fractional n is refused,
    where Grid once placed a node at s = t and make_grid truncated n."""
    g = make_grid(1.0, np.int64(8))
    assert g == Grid(1.0, np.int32(8)) == Grid(1.0, 8) and type(g.n) is int
    for build in (make_grid, Grid):
        with pytest.raises(InvalidParameterError, match="integer"):
            build(1.0, 2.5)


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
    with pytest.raises(InvalidParameterError, match="does not match grid with n=5"):
        pair_from_vector(g, f.as_vector()[:-1])


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
    with pytest.raises(InvalidParameterError):
        pair(u, v)


def _on_another_grid():
    """Each call that takes an object on a grid, with one object on `other`."""
    m, g, other = MagneticModel(k=1.0, t=1.0), make_grid(1.0, 8), make_grid(2.0, 8)
    f, foreign = sample(1.0, 0.5, g), sample(1.0, 0.5, other)
    etas = (indicator_pair(g, 1), indicator_pair(g, 2))
    y = (0.3, -0.4)
    return {
        "pair": lambda: pair(f, foreign),
        "BlockOperator.apply": lambda: free_K(m, g).apply(foreign),
        "apply_N": lambda: apply_N(m, g, foreign),
        "solve_N": lambda: solve_N(m, g, foreign),
        "gram_matrix": lambda: gram_matrix(m, g, [etas[0], indicator_pair(other, 2)]),
        "LemmaEvaluator_L": lambda: LemmaEvaluator(free_K(m, g), magnetic_L(m, other), etas),
        "LemmaEvaluator_eta": lambda: LemmaEvaluator(free_K(m, g), magnetic_L(m, g),
                                                     (etas[0], indicator_pair(other, 2))),
        "LemmaEvaluator.evaluate": lambda: LemmaEvaluator(free_K(m, g), magnetic_L(m, g),
                                                          etas).evaluate(f=foreign, ys=y),
        "propagator": lambda: propagator(m, y, n_grid=8, f=foreign),
        "magnetic_T": lambda: magnetic_T(m, y, f=foreign),
    }


@pytest.mark.parametrize("site", list(_on_another_grid()))
def test_every_site_refuses_an_object_on_another_grid_with_one_message(site):
    """check_same_grid is the one grid rule: one exception class and one message,
    naming the object's type, its grid and the expected one."""
    kind = "BlockOperator" if site == "LemmaEvaluator_L" else "GridFunctionPair"
    message = f"{kind} lives on a different grid: (t=2.0, n=8), expected (t=1.0, n=8)"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        _on_another_grid()[site]()


def _span_sites(m, g):
    """Each call that reads a model's t and a grid."""
    eta = indicator_pair(g, 1)
    return {
        "Resolvent.of": lambda: Resolvent.of(m, g),
        "resolvent": lambda: resolvent(m, g),
        "closed_solve": lambda: closed_solve(m, g, eta.as_vector()),
        "solve_N": lambda: solve_N(m, g, eta),
        "gram_matrix": lambda: gram_matrix(m, g, [eta]),
        "verify_preimage": lambda: verify_preimage(m, g),
        "discrete_spectrum": lambda: discrete_spectrum(m, g),
        "determinant_report": lambda: determinant_report(m, g),
    }


def _on_another_span():
    """Each call that reads a model's t and a grid, on a grid of another span."""
    return _span_sites(MagneticModel(k=1.0, t=1.0), make_grid(np.pi / 2, 400))


@pytest.mark.parametrize("site", list(_on_another_span()))
def test_every_site_refuses_a_grid_on_another_span_with_one_message(site):
    """check_same_span is the one span rule: a grid whose t is not the
    model's is refused, where its step h and the model's kt would mix two
    spans into numbers for neither (a Gram entry 1.24e5i for 1.557i)."""
    message = f"the grid spans [0, {np.pi / 2}), the model [0, 1.0)"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        _on_another_span()[site]()


def test_a_span_mismatch_is_refused_before_any_other_refusal():
    """Resolvent.of checks the span before its callers' other refusals: the
    half-integer band, a count below 1 and an n_max below 1."""
    g = make_grid(np.pi / 2, 400)
    band, m = MagneticModel(k=1.0, t=np.pi / 2 + 1e-5), MagneticModel(k=1.0, t=1.0)
    for model, call in [(band, lambda: resolvent(band, g)),
                        (m, lambda: discrete_spectrum(m, g, count=0)),
                        (m, lambda: determinant_report(m, g, n_max=0))]:
        message = f"the grid spans [0, {np.pi / 2}), the model [0, {model.t})"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            call()


def test_a_model_at_a_fraction_time_is_on_the_span_of_its_own_grid():
    """Models and grids hold float times, so a model at t = Fraction(1, 3) shares
    its span with make_grid(m.t, n) and with Grid(Fraction(1, 3), n) at every
    site of the span rule and in propagator, which builds its own grid."""
    m = MagneticModel(k=1, t=Fraction(1, 3))
    assert type(m.k) is type(m.t) is float and (m.k, m.t) == (1.0, 1 / 3)
    propagator(m, (0.3, -0.4), n_grid=64)
    for g in (make_grid(m.t, 64), Grid(Fraction(1, 3), 64)):
        assert type(g.t) is float and g.nodes.dtype == np.float64
        for call in _span_sites(m, g).values():
            call()
