"""The skew-circulant route for Id + B against the dense operators as oracle."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hida_lab import (MagneticModel, analytic_gram_diagonal, closed_preimage_f,
                      discrete_spectrum, gram_matrix, solve_N)
from hida_lab.feynman import LemmaEvaluator
from hida_lab.fredholm import resolvent
from hida_lab.grid import make_grid
from hida_lab.operators import (BlockOperator, free_K, magnetic_L, skew_spectrum,
                                solve_id_plus_core, symmetric_core)
from hida_lab.testfunctions import indicator_pair

DENSE = settings(max_examples=25, deadline=None, derandomize=True, database=None)

couplings = st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False)
times = st.floats(min_value=0.0, max_value=10.0, exclude_min=True, allow_subnormal=False)
sizes = st.integers(min_value=2, max_value=200)


def _model(k, t, n):
    """Model and grid, kept away from the half-integer caustics (j + 1/2) pi."""
    assume(abs(np.cos(k * t)) > 1e-3)
    return MagneticModel(k=k, t=t), make_grid(t, n)


def _dense_cond(m, g):
    """2-norm condition number of the dense Id + B, skipping ill-posed draws."""
    cond = np.linalg.cond(np.eye(2 * g.n) + symmetric_core(m, g))
    assume(cond < 1e8)
    return cond


@DENSE
@given(couplings, times, sizes)
@example(1.3, 3.0, 7)       # odd n, kt > pi
@example(-2.5, 9.5, 199)    # odd n, kt ~ 7.6 pi
@example(0.0, 1.0, 2)
def test_structured_spectrum_matches_dense_and_closed_form(k, t, n):
    m, g = _model(k, t, n)
    dense = np.linalg.eigvalsh(symmetric_core(m, g))
    sigma = skew_spectrum(m, g)
    scale = max(1.0, np.abs(dense).max())
    np.testing.assert_allclose(np.sort(np.concatenate([sigma, -sigma])), dense,
                               rtol=0, atol=1e-13 * scale)
    h = t / n
    cot = m.k * h / np.tan((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
    np.testing.assert_allclose(np.sort(np.concatenate([cot, -cot])), dense,
                               rtol=0, atol=1e-12 * scale)


@DENSE
@given(couplings, times, sizes, st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(1.3, 3.0, 7, 0)
@example(-2.5, 9.5, 199, 1)
def test_structured_solve_matches_dense_solve(k, t, n, seed):
    m, g = _model(k, t, n)
    cond = _dense_cond(m, g)
    rhs = np.random.default_rng(seed).standard_normal(2 * n)
    dense = np.linalg.solve(np.eye(2 * n) + symmetric_core(m, g), rhs)
    structured = solve_id_plus_core(skew_spectrum(m, g), rhs)
    assert np.linalg.norm(structured - dense) <= 1e-13 * cond * np.linalg.norm(dense)


@DENSE
@given(couplings, times, sizes)
@example(1.3, 3.0, 7)
@example(-2.5, 9.5, 199)
def test_cond_estimate_is_the_dense_two_norm_condition(k, t, n):
    m, g = _model(k, t, n)
    cond = _dense_cond(m, g)
    assert abs(resolvent(m, g).cond_estimate - cond) <= 1e-13 * cond * cond


@DENSE
@given(couplings, times, sizes)
@example(1.3, 3.0, 7)
@example(-2.5, 9.5, 199)
def test_lemma_determinant_is_the_eigenvalue_product(k, t, n):
    m, g = _model(k, t, n)
    cond = _dense_cond(m, g)
    expected = np.prod(1.0 + np.linalg.eigvalsh(symmetric_core(m, g)))
    assume(abs(expected) > 1e-9)
    det = LemmaEvaluator(free_K(m, g), magnetic_L(m, g)).determinant
    assert abs(det - expected) <= 1e-12 * cond * abs(expected)


@DENSE
@given(couplings, times, sizes, st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(1.3, 3.0, 7, 0)
def test_lemma_determinant_with_non_diagonal_K(k, t, n, seed):
    """A dense K: det(Id + L(Id+K)^{-1}) against the product over its eigenvalues."""
    m, g = _model(k, t, n)
    rng = np.random.default_rng(seed)
    n2 = 2 * n
    noise = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
    K = BlockOperator(grid=g, entries=free_K(m, g).entries + 0.2 * noise / np.sqrt(n2))
    L = magnetic_L(m, g)
    id_plus_k = np.eye(n2) + K.entries
    n_matrix = id_plus_k + L.entries
    cond = np.linalg.cond(n_matrix)
    assume(cond < 1e8)
    core = L.entries @ np.linalg.inv(id_plus_k)
    expected = np.prod(1.0 + np.linalg.eigvals(core))
    assume(abs(expected) > 1e-9)
    det = LemmaEvaluator(K, L).determinant
    assert abs(det - expected) <= 1e-12 * cond * abs(expected)


def test_structured_route_at_a_size_the_dense_route_cannot_hold():
    """n = 100 000: a dense Id + B would take 320 GB."""
    m = MagneticModel(k=1.0, t=1.0)
    g = make_grid(m.t, 100_000)
    assert 1.0 <= resolvent(m, g).cond_estimate < 10.0
    solved = solve_N(m, g, indicator_pair(g, 1))
    assert np.abs(solved.as_vector() - closed_preimage_f(m, g).as_vector()).max() < 1e-9
    gram = gram_matrix(m, g, [indicator_pair(g, 1), indicator_pair(g, 2)]).entries
    assert abs(gram[0, 0] - 1j * np.tan(1.0)) < 1e-9
    assert abs(gram[0, 0] - analytic_gram_diagonal(m)) < 1e-9
    rep = discrete_spectrum(m, g, count=10)
    assert rep.discrete.shape == (2 * g.n,)
    assert rep.match_errors.max() < 1e-6
