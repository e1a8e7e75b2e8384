"""Volterra discretization, pairing-adjointness, and the block operators."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hida_lab import (InvalidParameterError, MagneticModel, analytic_gram_diagonal, apply_N,
                      build_N, composed_closed_value, free_K, free_limit_reference, magnetic_L,
                      symmetric_core, volterra)
from hida_lab.grid import GridFunctionPair, make_grid, pair, pair_from_vector, sample
from hida_lab.operators import BlockOperator, apply_volterra


def test_model_requires_positive_time():
    with pytest.raises(InvalidParameterError):
        MagneticModel(k=1.0, t=0.0)
    with pytest.raises(InvalidParameterError):      # positive, but its float is 0.0
        MagneticModel(k=0, t=Fraction(1, 10**400))
    MagneticModel(k=0.0, t=1.0)  # zero coupling is allowed


@pytest.mark.parametrize("k, t", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (1.0, np.inf)])
def test_model_refuses_a_non_finite_coupling_or_time(k, t):
    with pytest.raises(InvalidParameterError, match="finite"):
        MagneticModel(k=k, t=t)


@pytest.mark.parametrize("k, t", [(0, Fraction(10 ** 400)), (0, 10 ** 400), (10 ** 400, 1.0)],
                         ids=["fraction_t", "int_t", "int_k"])
def test_model_refuses_an_exact_number_beyond_the_float_range(k, t):
    """An int or a Fraction too large for a float is refused as not finite,
    where math.isfinite would let its OverflowError escape."""
    with pytest.raises(InvalidParameterError, match="must be finite floats"):
        MagneticModel(k=k, t=t)


@pytest.mark.parametrize("k, t", [(1e308, 1e308), (-1e200, 1e200), (1e150, 1e150),
                                  (1e77, 1e77), (-2.0 ** 52, 1.0), (1e-320, 0.7),
                                  (1e-170, 1e-150), (-1e-200, 1e-200)],
                         ids=["overflow", "overflow_kneg", "kt_1e300",
                              "kt_1e154", "kt_at_2_52", "subnormal_k",
                              "subnormal_kt", "kt_underflows_to_zero"])
def test_model_refuses_a_kt_it_cannot_represent(k, t):
    """|k t| is 2**52 or more, where the float k t has no fractional digit and
    the sigma route overflows from about 1e154 on, or k != 0 and |k t| is below
    the smallest normal float, where sin(kt) keeps a handful of bits and the
    closed forms go wrong."""
    with pytest.raises(InvalidParameterError, match=r"k\*t = "):
        MagneticModel(k=k, t=t)


def test_model_takes_k_zero_at_any_time_and_the_smallest_normal_kt():
    tiny = sys.float_info.min
    for k, t in [(0.0, 5e-324), (0.0, 1e308), (-0.0, 1.0), (tiny, 1.0), (-tiny / 0.5, 0.5),
                 (-math.nextafter(2.0 ** 52, 0.0), 1.0)]:
        MagneticModel(k=k, t=t)
    m = MagneticModel(k=tiny, t=1.5)
    assert composed_closed_value(m, (0.3, -0.4)) == pytest.approx(
        free_limit_reference(1.5, (0.3, -0.4)), rel=1e-15)
    assert analytic_gram_diagonal(m) == pytest.approx(1.5j, rel=1e-15)


def test_volterra_matches_cumulative_integral():
    # A applied to s -> s^2 should give s^3/3 with O(n^-2) error.
    g = make_grid(1.0, 500)
    vals = volterra(g) @ g.nodes ** 2
    np.testing.assert_allclose(vals, g.nodes ** 3 / 3.0, atol=2e-6)


def test_volterra_adjoint_matches_tail_integral():
    g = make_grid(1.0, 500)
    vals = volterra(g).T @ g.nodes ** 2
    np.testing.assert_allclose(vals, (1.0 - g.nodes ** 3) / 3.0, atol=2e-6)


def test_adjoint_is_exact_for_the_bilinear_pairing():
    """(A u, v) = (u, A* v) holds to machine precision, not just quadrature order."""
    g = make_grid(1.0, 60)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.n)
    v = rng.standard_normal(g.n)
    lhs = np.sum(g.h * (volterra(g) @ u) * v)
    rhs = np.sum(g.h * u * (volterra(g).T @ v))
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_free_kernel_is_diagonal_constant():
    m = MagneticModel(k=1.0, t=1.0)
    g = make_grid(1.0, 6)
    entries = free_K(m, g).entries
    np.testing.assert_array_equal(entries, -(1.0 + 1.0j) * np.eye(12))


def test_symmetric_core_is_real_symmetric():
    m = MagneticModel(k=0.7, t=1.3)
    g = make_grid(m.t, 40)
    b = symmetric_core(m, g)
    assert np.isrealobj(b)
    np.testing.assert_array_equal(b, b.T)


def test_core_equals_i_times_L():
    m = MagneticModel(k=0.7, t=1.3)
    g = make_grid(m.t, 30)
    np.testing.assert_allclose(symmetric_core(m, g),
                               (1j * magnetic_L(m, g).entries).real, atol=1e-15)
    assert np.abs((1j * magnetic_L(m, g).entries).imag).max() == 0.0


def test_build_N_is_minus_i_times_id_plus_core():
    m = MagneticModel(k=0.5, t=1.0)
    g = make_grid(m.t, 25)
    n_op = build_N(m, g)
    expected = -1j * (np.eye(2 * g.n) + symmetric_core(m, g))
    np.testing.assert_allclose(n_op.entries, expected, atol=1e-15)


@pytest.mark.parametrize("k", [-0.7, 0.0, 1.3])
def test_build_N_equals_the_sum_of_its_terms(k):
    """The in-place N against Id + K + L summed from the separate builders."""
    m, g = MagneticModel(k=k, t=2.0), make_grid(2.0, 40)
    expected = np.eye(2 * g.n) + free_K(m, g).entries + magnetic_L(m, g).entries
    np.testing.assert_array_equal(build_N(m, g).entries, expected)


def test_build_N_holds_one_dense_buffer():
    """The tracemalloc peak of build_N is its entries plus L's n x n temporaries."""
    m, g = MagneticModel(k=0.9, t=1.0), make_grid(1.0, 500)
    tracemalloc.start()
    try:
        n_op = build_N(m, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n_op.entries.nbytes


def potential_form_direct(m, f):
    """Direct quadrature of -ik int_0^t ((A f1) f2 - f1 (A f2)) dtau.

    Equals half the quadratic form of L on smooth functions (up to
    quadrature error); serves as the independent route for checking L.
    """
    g = f.grid
    inner1 = apply_volterra(g, f.comp1)
    inner2 = apply_volterra(g, f.comp2)
    integrand = inner1 * f.comp2 - f.comp1 * inner2
    return complex(-1j * m.k * np.sum(g.h * integrand))


def test_potential_form_polynomial_value():
    """f = (1, s) on [0,1] with k = 1 integrates to -i/6."""
    m = MagneticModel(k=1.0, t=1.0)
    g = make_grid(1.0, 2000)
    f = sample(1.0, lambda s: s, g)
    assert potential_form_direct(m, f) == pytest.approx(-1j / 6.0, abs=1e-5)


def test_potential_form_is_half_the_quadratic_form_of_L():
    m = MagneticModel(k=0.8, t=1.0)
    g = make_grid(1.0, 1500)
    f = sample(lambda s: np.sin(3 * s), lambda s: s ** 2, g)
    lhs = potential_form_direct(m, f)
    rhs = 0.5 * pair(f, magnetic_L(m, g).apply(f))
    assert lhs == pytest.approx(rhs, abs=1e-5)


def test_block_operator_shape_and_grid_checks():
    g = make_grid(1.0, 4)
    with pytest.raises(InvalidParameterError):
        BlockOperator(grid=g, entries=np.eye(5, dtype=complex))
    other = sample(1.0, 0.0, make_grid(1.0, 5))
    with pytest.raises(InvalidParameterError):
        free_K(MagneticModel(k=1.0, t=1.0), g).apply(other)


@pytest.mark.parametrize("n", [7, 300])
@pytest.mark.parametrize("k", [-0.7, 0.0, 1.3])
def test_free_K_and_magnetic_L_match_their_block_construction(k, n):
    """The in-place builders against n x n blocks put together by np.block."""
    m, g = MagneticModel(k=k, t=2.0), make_grid(2.0, n)
    d, z = -(1.0 + 1.0j) * np.eye(n), np.zeros((n, n))
    a, w = volterra(g), np.full(n, g.h)
    c = 1j * k * (a - (a.T * w[None, :]) / w[:, None])
    for built, expected in ((free_K(m, g), np.block([[d, z], [z, d]])),
                            (magnetic_L(m, g), np.block([[z, c], [-c, z]]))):
        np.testing.assert_allclose(built.entries, expected, rtol=0,
                                   atol=1e-15 * np.abs(expected).max())


@pytest.mark.parametrize("t,n", [(1.0, 300), (2.0, 300), (3.3, 999), (0.1, 7)])
def test_adjoint_is_the_exact_transpose_and_B_is_exactly_symmetric(t, n):
    """A* is the plain transpose A^T, so B = iL is symmetric to the bit.

    A weighted transpose (h a_lj) / h rounds (h h) / h away from h at some of
    these (t, n); the plain transpose has no such rounding.
    """
    g = make_grid(t, n)
    b = (1j * magnetic_L(MagneticModel(k=1.3, t=t), g).entries).real
    np.testing.assert_array_equal(b, b.T)


def test_apply_matches_matrix_vector_product():
    m = MagneticModel(k=1.1, t=1.0)
    g = make_grid(1.0, 20)
    f = sample(lambda s: s, lambda s: 1.0 - s, g)
    out = magnetic_L(m, g).apply(f)
    direct = pair_from_vector(g, magnetic_L(m, g).entries @ f.as_vector())
    np.testing.assert_allclose(out.as_vector(), direct.as_vector())


def test_apply_volterra_is_the_volterra_matrix_product():
    g = make_grid(2.0, 37)
    v = np.random.default_rng(3).standard_normal(g.n) * (1.0 - 0.5j)
    np.testing.assert_allclose(apply_volterra(g, v), volterra(g) @ v, rtol=0,
                               atol=1e-15 * np.abs(volterra(g) @ v).max())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False),
       st.floats(min_value=0.0, max_value=10.0, exclude_min=True, allow_subnormal=False),
       st.integers(min_value=2, max_value=200),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(0.0, 1.0, 2, 0)        # k = 0: N = -i Id
@example(-3.0, 10.0, 200, 1)
@example(1.0, 1.0, 3, 2)
def test_apply_N_matches_the_dense_N(k, t, n, seed):
    """The O(n) apply equals build_N(m, g).apply(f) for complex f, relative to max|N f|."""
    assume(k == 0 or abs(k * t) >= sys.float_info.min)     # MagneticModel refuses such k t
    assume(t / n >= sys.float_info.min)                    # Grid refuses a subnormal step
    m, g = MagneticModel(k=k, t=t), make_grid(t, n)
    rng = np.random.default_rng(seed)
    comps = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    f = GridFunctionPair(grid=g, comp1=comps[0], comp2=comps[1])
    dense = build_N(m, g).apply(f).as_vector()
    fast = apply_N(m, g, f).as_vector()
    np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-13 * np.abs(dense).max())


def test_apply_N_rejects_a_foreign_grid():
    m = MagneticModel(k=1.0, t=1.0)
    with pytest.raises(InvalidParameterError):
        apply_N(m, make_grid(1.0, 4), sample(1.0, 0.0, make_grid(1.0, 5)))
