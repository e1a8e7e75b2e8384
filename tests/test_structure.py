"""The skew-circulant route for Id + B against the dense operators as oracle."""

import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hida_lab import (MagneticModel, analytic_gram_diagonal, composed_closed_value,
                      discrete_spectrum, feynman, gram_matrix, magnetic_T, operators,
                      propagator, solve_N)
from hida_lab.errors import HidaLabError
from hida_lab.feynman import LemmaEvaluator
from hida_lab.fredholm import Resolvent, caustic_check, closed_solve, resolvent
from hida_lab.grid import GridFunctionPair, make_grid
from hida_lab.operators import (BlockOperator, build_N, free_K, magnetic_L,
                                symmetric_core)
from hida_lab.testfunctions import indicator_pair, random_suite

DENSE = settings(max_examples=25, deadline=None, derandomize=True, database=None)

couplings = st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False)
times = st.floats(min_value=0.0, max_value=10.0, exclude_min=True, allow_subnormal=False)
sizes = st.integers(min_value=2, max_value=200)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _model(k, t, n):
    """Model and grid, kept away from the half-integer caustics (j + 1/2) pi."""
    assume(abs(np.cos(k * t)) > 1e-3)
    assume(k == 0 or abs(k * t) >= sys.float_info.min)     # MagneticModel refuses such k t
    assume(t / n >= sys.float_info.min)                    # Grid refuses a subnormal step
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
    sigma = Resolvent.of(m, g).sigma
    scale = max(1.0, np.abs(dense).max())
    np.testing.assert_allclose(np.sort(np.concatenate([sigma, -sigma])), dense,
                               rtol=0, atol=1e-13 * scale)
    h = t / n
    cot = m.k * h / np.tan((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
    np.testing.assert_allclose(np.sort(np.concatenate([cot, -cot])), dense,
                               rtol=0, atol=1e-12 * scale)


@DENSE
@given(couplings, times, sizes, seeds)
@example(1.3, 3.0, 7, 0)
@example(-2.5, 9.5, 199, 1)
def test_structured_solve_matches_dense_solve(k, t, n, seed):
    m, g = _model(k, t, n)
    cond = _dense_cond(m, g)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(2 * n)
    dense = np.linalg.solve(np.eye(2 * n) + symmetric_core(m, g), rhs)
    structured = -1j * Resolvent.of(m, g).solve(rhs)     # (Id + B)^{-1} = -i N^{-1}
    assert np.linalg.norm(structured - dense) <= 1e-13 * cond * np.linalg.norm(dense)
    # N = -i (Id + B) has the same condition number as Id + B.
    rhs = rhs + 1j * rng.standard_normal(2 * n)
    dense = np.linalg.solve(build_N(m, g).entries, rhs)
    structured = resolvent(m, g).solve(rhs)
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
@given(couplings, times, sizes)
@example(1.3, 3.0, 7)
@example(-2.5, 9.5, 199)
@example(0.0, 1.0, 2)
@example(2.53515625, 9.359375, 161)   # kappa_1 ~ 1.8e5: the reference is off by 2.5e-12
def test_lemma_cond_estimate_is_the_one_norm_condition(k, t, n):
    m, g = _model(k, t, n)
    _dense_cond(m, g)
    assume(abs(resolvent(m, g).determinant) > 1e-9)
    kappa = np.linalg.cond(build_N(m, g).entries, 1)
    estimate = LemmaEvaluator(free_K(m, g), magnetic_L(m, g)).cond_estimate
    # kappa comes from a computed inverse and the estimate from computed solves:
    # each is off by a relative eps kappa.
    assert abs(estimate - kappa) <= (1e-12 + np.finfo(float).eps * kappa) * kappa


@DENSE
@given(couplings, times, sizes, seeds)
@example(1.3, 3.0, 7, 0)        # kt > pi
@example(-2.5, 9.5, 199, 1)     # k < 0, kt ~ 7.6 pi
@example(0.0, 1.0, 2, 2)        # k = 0: N = -i Id
@example(1.9263267919580302, 5.563708223055348, 178, 0)   # det 1.28x past 1e-12 + eps kappa_1
@example(2.622344437835052, 8.476817097084291, 177, 0)    # (eta_1, x) cancels 180-fold
@example(2.011, 3.857, 180, 0)  # det 1.05x past 1e-12 + 4 eps kappa_1
def test_lemma_real_factorization_matches_the_complex_N(k, t, n, seed):
    """The magnetic N = -i(Id + B), factored as a real matrix, against the complex N.

    The Gram matrix and the couplings u of a complex f are held to numpy's
    complex solves, and the estimate to kappa_1, up to a rounding eps kappa_1 on
    both sides.  The Gram matrix and u are pairings (eta_a, x) of solves x, which
    cancel, so their error is taken relative to the pairing of the moduli,
    (|eta_a|, |x|).  The determinant is held to numpy's complex slogdet up to
    sqrt(2n) eps kappa_1: a backward error E with ||E||_1 = eps ||N||_1 moves
    det N by the relative tr(N^{-1} E), a sum of 2n rounding terms each up to
    eps kappa_1, which add like a random walk rather than in step.  Over about
    1000 draws of this test's (k, t, n) the error stayed within 0.46 of that
    bound; 1e-12 + eps kappa_1 and 1e-12 + 4 eps kappa_1 are each exceeded at
    one of the examples above.
    """
    m, g = _model(k, t, n)
    _dense_cond(m, g)
    K, L = free_K(m, g), magnetic_L(m, g)
    n_matrix = np.eye(2 * n) + K.entries + L.entries
    sign, logdet = np.linalg.slogdet(n_matrix)
    expected = sign * np.exp(logdet) / np.prod(1.0 + np.diagonal(K.entries))
    assume(abs(expected) > 1e-9)
    kappa = np.linalg.cond(n_matrix, 1)
    tol = 1e-12 + np.finfo(float).eps * kappa
    etas = (indicator_pair(g, 1), indicator_pair(g, 2))
    comps = np.random.default_rng(seed).standard_normal((4, n))
    f = GridFunctionPair(grid=g, comp1=comps[0] + 1j * comps[1],
                         comp2=comps[2] + 1j * comps[3])
    ys = np.array([0.3, -0.4])
    etas_mat = np.array([eta.as_vector() for eta in etas])
    weighted = g.h * etas_mat
    x_etas = np.linalg.solve(n_matrix, etas_mat.T)
    x_f = np.linalg.solve(n_matrix, f.as_vector())
    gram = weighted @ x_etas
    assume(np.linalg.det(gram) != 0)     # else evaluate refuses an underflowed det M
    u = 1j * ys + weighted @ x_f
    evaluator = LemmaEvaluator(K, L, etas)
    rep = evaluator.evaluate(f=f, ys=ys)
    det_tol = 1e-12 + np.sqrt(2 * n) * np.finfo(float).eps * kappa
    assert abs(evaluator.determinant - expected) <= det_tol * abs(expected)
    assert np.abs(rep.gram - gram).max() <= tol * (np.abs(weighted) @ np.abs(x_etas)).max()
    assert np.abs(rep.u - u).max() <= tol * (np.abs(weighted) @ np.abs(x_f)).max()
    assert kappa / 3.0 <= evaluator.cond_estimate <= kappa * (1.0 + tol)


@DENSE
@given(couplings, times, sizes, seeds)
@example(1.3, 3.0, 7, 0)
@example(0.0, 1.0, 2, 1)
def test_lemma_determinant_with_diagonal_K(k, t, n, seed):
    """A random complex diagonal K, whose det(Id + K) is read off its diagonal."""
    m, g = _model(k, t, n)
    rng = np.random.default_rng(seed)
    n2 = 2 * n
    # 1 + K_jj has modulus in [0.5, 2] and any phase, so K is not scalar.
    k_diag = rng.uniform(0.5, 2.0, n2) * np.exp(2j * np.pi * rng.uniform(size=n2)) - 1.0
    K = BlockOperator(grid=g, entries=np.diag(k_diag))
    L = magnetic_L(m, g)
    n_matrix = np.eye(n2) + K.entries + L.entries
    cond = np.linalg.cond(n_matrix)
    assume(cond < 1e8)
    expected = np.linalg.det(n_matrix) / np.prod(1.0 + k_diag)
    assume(abs(expected) > 1e-9)
    det = LemmaEvaluator(K, L).determinant
    assert abs(det - expected) <= 1e-12 * cond * abs(expected)


def _dense_K(m, g, seed):
    """free_K plus complex Gaussian noise: a dense, non-symmetric K."""
    rng = np.random.default_rng(seed)
    n2 = 2 * g.n
    noise = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
    return BlockOperator(grid=g, entries=free_K(m, g).entries + 0.2 * noise / np.sqrt(n2))


@DENSE
@given(couplings, times, sizes, seeds)
@example(1.3, 3.0, 7, 0)
def test_lemma_determinant_with_non_diagonal_K(k, t, n, seed):
    """A dense K: det(Id + L(Id+K)^{-1}) against the product over its eigenvalues."""
    m, g = _model(k, t, n)
    n2 = 2 * n
    K = _dense_K(m, g, seed)
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


@DENSE
@given(couplings, times, sizes, seeds)
@example(1.3, 3.0, 7, 0)
def test_lemma_cond_estimate_bounds_the_one_norm_condition_of_a_dense_N(k, t, n, seed):
    """LAPACK estimates ||N^{-1}||_1 from below, so never above kappa_1, and here within 3x.

    As above, both sides round at a relative eps kappa.
    """
    m, g = _model(k, t, n)
    K = _dense_K(m, g, seed)
    L = magnetic_L(m, g)
    id_plus_k = np.eye(2 * n) + K.entries
    n_matrix = id_plus_k + L.entries
    assume(np.linalg.cond(n_matrix) < 1e8)
    assume(abs(np.linalg.det(n_matrix) / np.linalg.det(id_plus_k)) > 1e-9)
    kappa = np.linalg.cond(n_matrix, 1)
    estimate = LemmaEvaluator(K, L).cond_estimate
    assert kappa / 3.0 <= estimate <= kappa * (1.0 + 1e-12 + np.finfo(float).eps * kappa)


def test_structured_route_at_a_size_the_dense_route_cannot_hold():
    """n = 100 000: a dense Id + B would take 320 GB."""
    m = MagneticModel(k=1.0, t=1.0)
    g = make_grid(m.t, 100_000)
    assert 1.0 <= resolvent(m, g).cond_estimate < 10.0
    solved = solve_N(m, g, indicator_pair(g, 1))
    closed = closed_solve(m, g, indicator_pair(g, 1).as_vector())
    assert np.abs(solved.as_vector() - closed).max() < 1e-9
    gram = gram_matrix(m, g, [indicator_pair(g, 1), indicator_pair(g, 2)])
    assert abs(gram[0, 0] - 1j * np.tan(1.0)) < 1e-9
    assert abs(gram[0, 0] - analytic_gram_diagonal(m)) < 1e-9
    rep = discrete_spectrum(m, g, count=10)
    assert rep["discrete"].shape == (2 * g.n,)
    assert rep["match_errors"].max() < 1e-6


def _dense_evaluator(m, g):
    """The dense oracle LemmaEvaluator with the magnetic K, L and pinning directions."""
    return LemmaEvaluator(free_K(m, g), magnetic_L(m, g),
                          etas=(indicator_pair(g, 1), indicator_pair(g, 2)))


def _dense_propagator(m, y, n):
    """The propagator's ingredients through the dense oracle LemmaEvaluator."""
    return _dense_evaluator(m, make_grid(m.t, n)).evaluate(ys=y)


def _outcome(fn):
    """(value, None) or (None, class of the refusal)."""
    try:
        return fn(), None
    except HidaLabError as exc:
        return None, type(exc)


endpoints = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)


@DENSE
@given(couplings, times, sizes, endpoints, endpoints)
@example(0.0, 1.0, 2, 0.3, -0.4)       # k = 0: the free propagator
@example(0.0, 7.5, 151, -1.0, 1.0)
@example(1.3, 3.0, 7, 0.5, 0.2)        # odd n, kt > pi
@example(-2.5, 9.5, 199, -0.7, 0.9)    # odd n, kt ~ 7.6 pi
@example(1.0, 5.0, 200, 0.3, -0.4)     # kt past the first two caustics
@example(0.0, 1e-200, 2, 0.3, -0.4)    # det M = -t^2 underflows: both refuse
@example(2.0, 1e-160, 7, 1.0, 1.0)     # det M = -t^2 is subnormal
@example(1.0, 1e-12, 50, 0.3, -0.4)    # kt ~ 0: the short-time limit
def test_structured_propagator_matches_dense_oracle(k, t, n, y1, y2):
    assume(k == 0 or abs(k * t) >= sys.float_info.min)     # MagneticModel refuses such k t
    m = MagneticModel(k=k, t=t)
    # Both routes first refuse continuum caustics.
    assume(caustic_check(m)["classification"] == "regular")
    kt, step = abs(k * t), abs(k) * t / n
    j = round(kt / np.pi)
    assume(j == 0 or abs(kt - j * np.pi) > 10 * step)
    assume(abs(kt - (np.floor(kt / np.pi) + 0.5) * np.pi) > 1e-6)
    y = (y1, y2)
    dense, dense_refusal = _outcome(lambda: _dense_propagator(m, y, n))
    structured, refusal = _outcome(lambda: propagator(m, y, n_grid=n))
    assert refusal is dense_refusal
    if dense_refusal is None:
        # A relative rounding e of M turns into a phase error e |u^T M^-1 u / 2|.
        tol = 1e-8 + 1e-13 * abs(dense.exponent_delta)
        assert abs(structured.value - dense.value) <= tol * abs(dense.value)
        assert structured.branch_note == dense.branch_note
        assert (structured.route, dense.route) == ("structured", "dense")


def _parity_points(n, js):
    points = []
    for j in js:
        points += [j * np.pi + s * d for d in (1e-7, 1e-5, 1e-3) for s in (-1, 1)]
        points += [(j + 0.5) * np.pi + s * 1e-7 for s in (-1, 1)]
        # The discrete half-integer caustic, where sigma_m = 1: refused by both.
        points.append(n * np.tan((2 * j + 1) * np.pi / (2 * n)))
    return [(n, kt) for kt in points]


@pytest.mark.parametrize("n, kt", _parity_points(200, (1, 2)) + _parity_points(1000, (1,)))
def test_structured_and_dense_propagator_refuse_alike(n, kt):
    m = MagneticModel(k=1.0, t=kt)
    y = (0.3, -0.2)
    _, dense_refusal = _outcome(lambda: _dense_propagator(m, y, n))
    _, refusal = _outcome(lambda: propagator(m, y, n_grid=n))
    assert refusal is dense_refusal


def test_structured_propagator_at_a_million_nodes_builds_no_dense_matrix(monkeypatch):
    def dense_route(*args, **kwargs):
        raise AssertionError("the structured propagator took a dense route")
    monkeypatch.setattr(operators, "volterra", dense_route)
    monkeypatch.setattr(feynman, "LemmaEvaluator", dense_route)
    m = MagneticModel(k=1.0, t=2.0)
    y = (0.3, -0.4)
    rep = propagator(m, y, n_grid=1_000_000)
    closed = composed_closed_value(m, y)
    assert abs(rep.value - closed) <= 1e-5 * abs(closed)
    assert rep.route == "structured"
    assert 1.0 <= rep.cond_estimate < 100.0


# --------------------------------- the T-transform at f: dense, structured, closed

VERIFY_Y = (0.3, -0.4)


@pytest.mark.parametrize("n", [1000, 2000])
def test_dense_oracle_holds_both_routes_of_two_path_consistency(n):
    """The dense oracle on verify's seeded suite (quick and full sizes): it
    agrees with the structured route to rounding and with the closed route
    at two_path_consistency's 1e-3 gate, which it held itself before."""
    m = MagneticModel(k=1.0, t=1.0)
    g = make_grid(m.t, n)
    evaluator = _dense_evaluator(m, g)
    for f in random_suite(777, 5, g):
        dense = evaluator.evaluate(f=f, ys=VERIFY_Y).value
        structured = propagator(m, VERIFY_Y, n_grid=n, f=f).value
        closed = magnetic_T(m, VERIFY_Y, f=f).value
        assert abs(closed - dense) <= 1e-3 * abs(dense)
        assert abs(structured - dense) <= 1e-12 * abs(dense)


@pytest.mark.parametrize("k", [-0.7, 0.0, 1.3])
def test_structured_T_transform_at_f_matches_the_dense_oracle(k):
    m = MagneticModel(k=k, t=1.0)       # kt < pi
    g = make_grid(m.t, 400)
    evaluator = _dense_evaluator(m, g)
    for f in random_suite(777, 5, g):
        dense = evaluator.evaluate(f=f, ys=VERIFY_Y).value
        structured = propagator(m, VERIFY_Y, n_grid=g.n, f=f)
        assert abs(structured.value - dense) <= 1e-12 * abs(dense)
        assert structured.route == "structured"
