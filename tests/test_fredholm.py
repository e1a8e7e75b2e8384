"""Resolvent solves, closed-form preimages, and the Gram matrix."""

import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hida_lab import (CausticError, InvalidParameterError, MagneticModel,
                      NearSingularError, analytic_gram_diagonal, determinant_report,
                      discrete_spectrum, gram_matrix, magnetic_T, propagator,
                      solve_N, verify_preimage)
from hida_lab import fredholm
from hida_lab.fredholm import Resolvent, check_away_from_caustic, closed_solve, resolvent
from hida_lab.grid import (GridFunctionPair, conj_norm_sq, make_grid, pair,
                           pair_from_vector, sample)
from hida_lab.operators import build_N
from hida_lab.testfunctions import indicator_pair

M11 = MagneticModel(k=1.0, t=1.0)


def _preimage(m, g, a):
    """closed_solve's N^{-1} eta_a as a pair."""
    return pair_from_vector(g, closed_solve(m, g, indicator_pair(g, a).as_vector()))


def _paper_preimage(m, g):
    """The paper's closed form of N^{-1} eta_1 at the nodes, the oracle of
    closed_solve: i (cos 2ks + tan(kt) sin 2ks, tan(kt) cos 2ks - sin 2ks)."""
    r = np.tan(m.k * m.t)
    c, s = np.cos(2 * m.k * g.nodes), np.sin(2 * m.k * g.nodes)
    return 1j * np.concatenate([c + r * s, r * c - s])


def test_solve_round_trips_through_N():
    g = make_grid(1.0, 400)
    rhs = sample(lambda s: np.sin(2 * s), lambda s: s, g)
    x = solve_N(M11, g, rhs)
    back = build_N(M11, g).apply(x)
    np.testing.assert_allclose(back.as_vector(), rhs.as_vector(), atol=1e-12)


def test_solve_of_real_rhs_is_purely_imaginary():
    g = make_grid(1.0, 200)
    x = solve_N(M11, g, indicator_pair(g, 1))
    assert np.abs(x.comp1.real).max() == 0.0
    assert np.abs(x.comp2.real).max() == 0.0


def test_solve_rejects_foreign_grid():
    g = make_grid(1.0, 100)
    rhs = indicator_pair(make_grid(1.0, 101), 1)
    with pytest.raises(InvalidParameterError):
        solve_N(M11, g, rhs)


def test_closed_preimage_values_at_zero_coupling_limit():
    """As k -> 0 the preimage of (1,0) tends to (i, 0)."""
    g = make_grid(1.0, 50)
    f = _preimage(MagneticModel(k=1e-9, t=1.0), g, 1)
    np.testing.assert_allclose(f.comp1, 1j, atol=1e-8)
    np.testing.assert_allclose(f.comp2, 0.0, atol=1e-8)


def test_closed_preimage_matches_solver():
    g = make_grid(1.0, 1000)
    closed = _preimage(M11, g, 1)
    solved = solve_N(M11, g, indicator_pair(g, 1))
    assert np.abs(closed.as_vector() - solved.as_vector()).max() < 1e-5
    closed_g = _preimage(M11, g, 2)
    solved_g = solve_N(M11, g, indicator_pair(g, 2))
    assert np.abs(closed_g.as_vector() - solved_g.as_vector()).max() < 1e-5


def test_preimage_g_is_rotation_of_f():
    """N^{-1} eta_2 = R N^{-1} eta_1, R(x1, x2) = (-x2, x1), to rounding."""
    g = make_grid(1.0, 64)
    f = _preimage(M11, g, 1)
    gg = _preimage(M11, g, 2)
    tol = 4 * g.n * np.finfo(float).eps * f.sup_norm()
    np.testing.assert_allclose(gg.comp1, -f.comp2, rtol=0, atol=tol)
    np.testing.assert_allclose(gg.comp2, f.comp1, rtol=0, atol=tol)


def test_residual_report_second_order():
    sups = [verify_preimage(M11, make_grid(1.0, n)).sup_f for n in (200, 400, 800)]
    orders = np.log2(np.array(sups[:-1]) / np.array(sups[1:]))
    assert np.all(orders > 1.9)
    assert sups[-1] < 1e-5


@pytest.mark.parametrize("k, t", [(1.0, 1.0), (0.7, 2.3), (-2.0, 0.9), (0.0, 1.5)])
def test_verify_preimage_matches_the_dense_apply(k, t):
    """All four residuals agree with those of the dense build_N at n = 200.

    Each residual is N x - eta with N x = eta + O(h^2), so both applies
    round at eps (1 + |k| t) max|x| and the residuals can agree only to
    that, absolutely: 1e-14 of it here is about 1e-9 relative to the residual.
    """
    m = MagneticModel(k=k, t=t)
    g = make_grid(t, 200)
    n_op = build_N(m, g)
    dense, scale = [], 0.0
    x_f = _preimage(m, g, 1)
    x_g = GridFunctionPair(grid=g, comp1=-x_f.comp2, comp2=x_f.comp1)
    for x, eta in ((x_f, indicator_pair(g, 1)), (x_g, indicator_pair(g, 2))):
        res = n_op.apply(x)
        diff = GridFunctionPair(grid=g, comp1=res.comp1 - eta.comp1,
                                comp2=res.comp2 - eta.comp2)
        dense.append((diff.sup_norm(), np.sqrt(conj_norm_sq(diff))))
        scale = max(scale, (1.0 + abs(k) * t) * x.sup_norm())
    rep = verify_preimage(m, g)
    fast = [(rep.sup_f, rep.quad_f), (rep.sup_g, rep.quad_g)]
    np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-14 * scale)


def test_gram_matrix_closed_form():
    g = make_grid(1.0, 1500)
    m = gram_matrix(M11, g, [indicator_pair(g, 1), indicator_pair(g, 2)])
    assert m.shape == (2, 2)
    assert np.abs(m.real).max() < 1e-12
    assert abs(m[0, 1]) < 1e-12
    assert abs(m[1, 0]) < 1e-12
    assert m[0, 0] == pytest.approx(1j * np.tan(1.0), abs=1e-5)
    assert m[1, 1] == pytest.approx(1j * np.tan(1.0), abs=1e-5)


def test_gram_matrix_reads_the_spectrum_once(monkeypatch):
    calls = []
    of = Resolvent.of

    def counted(cls, m, g):
        calls.append(g.n)
        return of(m, g)
    monkeypatch.setattr(Resolvent, "of", classmethod(counted))
    g = make_grid(1.0, 64)
    etas = [indicator_pair(g, 1), indicator_pair(g, 2)]
    entries = gram_matrix(M11, g, etas)
    assert calls == [64]
    pairings = [[pair(a, solve_N(M11, g, b)) for b in etas] for a in etas]
    np.testing.assert_allclose(entries, pairings, rtol=0, atol=1e-14 * abs(entries).max())
    foreign = make_grid(1.0, 32)
    with pytest.raises(InvalidParameterError):
        gram_matrix(M11, g, [indicator_pair(g, 1), indicator_pair(foreign, 2)])


@pytest.mark.parametrize("k, t, n", [(1.0, 2.0, 100), (0.0, 1.3, 50), (-0.7, 5.57, 37),
                                     (2.3, 1.1, 8), (-1.3, 4.0, 1001)])
def test_preimage_residuals_are_rotation_symmetric_bit_for_bit(k, t, n):
    """N commutes with R(x1, x2) = (-x2, x1), so N^{-1} eta_2 = R N^{-1} eta_1
    and the g-residuals are the f-residuals, bit for bit.  propagator's
    one-solve Gram matrix rests on this; a kernel that breaks the symmetry
    (the Landau gauge of ROADMAP item 2) shows here first."""
    rep = verify_preimage(MagneticModel(k=k, t=t), make_grid(t, n))
    assert (rep.sup_g, rep.quad_g) == (rep.sup_f, rep.quad_f)


@pytest.mark.parametrize("k, t, n", [(-0.7, 2.0, 100), (1.0, 4.0, 300), (-1.3, 5.0, 77),
                                     (0.9, 10.0, 1000)])
def test_propagator_one_solve_gram_is_the_two_solve_gram(k, t, n):
    """propagator's [[m11, -m21], [m21, m11]] from N^{-1} eta_1 alone equals
    gram_matrix's two solves, at k < 0 and past kt = pi, to the O(n eps)
    rounding of their sums (measured 4e-16 to 2.6e-15 relative)."""
    m = MagneticModel(k=k, t=t)
    g = make_grid(t, n)
    one = propagator(m, (0.1, 0.2), n_grid=n).gram
    two = gram_matrix(m, g, (indicator_pair(g, 1), indicator_pair(g, 2)))
    assert np.abs(one - two).max() <= 4 * n * np.finfo(float).eps * np.abs(two).max()


def test_only_fredholm_takes_the_fft(monkeypatch):
    """The sigma-route lives in Resolvent alone: every FFT of the spectrum,
    the determinant, the solves, the Gram matrix and the propagator is
    taken in hida_lab.fredholm."""
    callers = set()
    for name in ("fft", "ifft"):
        def traced(*args, _original=getattr(np.fft, name), **kwargs):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, traced)
    m, g = MagneticModel(k=0.7, t=1.3), make_grid(1.3, 64)
    etas = [indicator_pair(g, 1), indicator_pair(g, 2)]
    discrete_spectrum(m, g, count=3)
    determinant_report(m, g, n_max=10)
    solve_N(m, g, etas[0])
    gram_matrix(m, g, etas)
    propagator(m, (0.3, -0.4), n_grid=64)
    assert callers == {"hida_lab.fredholm"}


def test_analytic_gram_diagonal_values():
    assert analytic_gram_diagonal(M11) == pytest.approx(1j * np.tan(1.0))
    assert analytic_gram_diagonal(MagneticModel(k=0.0, t=0.7)) == 0.7j
    # Continuity of the k -> 0 limit.
    small = analytic_gram_diagonal(MagneticModel(k=1e-6, t=0.7))
    assert small == pytest.approx(0.7j, abs=1e-9)


def test_caustic_guard_refuses_half_integer_times():
    near = MagneticModel(k=1.0, t=np.pi / 2.0)
    with pytest.raises(CausticError) as exc:
        check_away_from_caustic(near)
    assert exc.value.classification == "half_integer_caustic"
    with pytest.raises(CausticError):
        _preimage(near, make_grid(near.t, 32), 1)


def test_caustic_guard_band_is_where_cos_2kt_plus_one_vanishes():
    """2 cos^2(kt) < 1e-8 refuses |kt - pi/2| < 7.07e-5 and nothing wider."""
    inside = MagneticModel(k=1.0, t=np.pi / 2.0 + 1e-5)
    with pytest.raises(CausticError) as exc:
        check_away_from_caustic(inside)
    assert exc.value.classification == "half_integer_caustic"
    with pytest.raises(CausticError):
        resolvent(inside, make_grid(inside.t, 64))
    check_away_from_caustic(MagneticModel(k=1.0, t=np.pi / 2.0 + 1e-4))


def test_half_integer_refusal_names_the_band_and_no_preimage():
    """solve_N and the closed route at f meet the band with no preimage in sight."""
    m = MagneticModel(k=1.0, t=np.pi / 2.0 + 1e-5)
    g = make_grid(m.t, 64)
    f = sample(lambda s: np.exp(-((s - 0.8) / 0.1) ** 2), 0.0, g)
    for refuse in (lambda: solve_N(m, g, f), lambda: magnetic_T(m, (0.3, -0.4), f=f)):
        with pytest.raises(CausticError) as exc:
            refuse()
        assert exc.value.classification == "half_integer_caustic"
        text = str(exc.value)
        assert "|kt - (j + 1/2) pi| < 7.07e-5" in text and "kt = 1.57081" in text
        assert "preimage" not in text


def test_resolvent_refuses_near_singular_system():
    """Just off the caustic the guard passes but the solve must still refuse."""
    m = MagneticModel(k=1.0, t=np.pi / 2.0 + 1e-7)
    with pytest.raises((NearSingularError, CausticError)):
        resolvent(m, make_grid(m.t, 64))


def test_resolvent_reports_condition_estimate():
    fact = resolvent(M11, make_grid(1.0, 64))
    assert 1.0 <= fact.cond_estimate < 1e3


# ------------------------------------------- the closed O(n) solve of (Id + B)x = r

CLOSED = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _smooth_rhs(g, c, complex_rhs):
    """A nonzero 2n-vector of smooth functions of s / t, real or complex."""
    s = g.nodes / g.t
    rhs = np.concatenate([1.0 + c[0] * np.cos(np.pi * s + c[1]),
                          c[2] * s + c[3] * np.sin(2.0 * s)])
    if complex_rhs:
        rhs = rhs + 1j * np.concatenate([c[4] * s ** 2, c[1] - c[0] * np.cos(s)])
    return rhs


def _closed_gap(m, n, c, complex_rhs):
    """max|closed_solve - Resolvent.solve| / max|Resolvent.solve| on n nodes."""
    g = make_grid(m.t, n)
    rhs = _smooth_rhs(g, c, complex_rhs)
    fft = fredholm.Resolvent.of(m, g).solve(rhs)
    return np.abs(closed_solve(m, g, rhs) - fft).max() / np.abs(fft).max()


@CLOSED
@given(st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False),
       st.floats(min_value=0.0, max_value=10.0, exclude_min=True, allow_subnormal=False),
       st.integers(min_value=50, max_value=4000),
       st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=5, max_size=5),
       st.booleans())
@example(0.0, 1.0, 50, [0.3, -0.5, 0.2, 0.9, -0.4], True)     # k = 0: z = rho exactly
@example(0.8, 2.1, 500, [0.3, -0.5, 0.2, 0.9, -0.4], False)
@example(-2.9, 10.0, 4000, [1.0, 1.0, 1.0, 1.0, 1.0], True)    # kt ~ 9.2 pi
@example(1.0, np.pi / 2 + 1.1e-3, 200, [0.5, 0.1, -0.3, 0.7, 0.2], False)
def test_closed_solve_converges_to_the_fft_solve_at_second_order(k, t, n, c, complex_rhs):
    """Both solve (Id + B)x = r to O(h^2), so their gap halves twice per halving of h.

    Skipped: kt within 1e-3 of a half-integer caustic, and grids with
    |k| h > 0.2, fewer than about 15 nodes per period of the e^{-2iks} the
    solution carries, where h^2 is not yet the leading term.
    """
    kt = k * t
    assume(abs(kt - (np.floor(kt / np.pi) + 0.5) * np.pi) > 1e-3)
    assume(abs(k) * t / n <= 0.2)
    assume(k == 0 or abs(k * t) >= sys.float_info.min)     # MagneticModel refuses such k t
    assume(t / (2 * n) >= sys.float_info.min)              # Grid refuses a subnormal step
    m = MagneticModel(k=k, t=t)
    coarse, fine = _closed_gap(m, n, c, complex_rhs), _closed_gap(m, 2 * n, c, complex_rhs)
    if coarse < 1e-10:          # rounding level: k h ~ 0, as at k = 0
        assert fine < 1e-10
    else:
        assert np.log2(coarse / fine) >= 1.9


def test_closed_solve_keeps_a_real_rhs_exactly_imaginary():
    g = make_grid(2.0, 300)
    x = closed_solve(MagneticModel(k=0.7, t=2.0), g, _smooth_rhs(g, [0.3, 1, 0, -1, 2], False))
    assert np.count_nonzero(x.real) == 0 and np.count_nonzero(x.imag) > 0


@pytest.mark.parametrize("k, t", [(1.0, 1.0), (-0.7, 2.5), (2.0, 4.0), (0.3, 9.0), (0.0, 1.5),
                                  (-3.0, 2.5), (2.87, 2.0), (1e-9, 1.0)])
def test_closed_solve_at_the_indicators_is_the_closed_preimage(k, t):
    """eta_1 and eta_2 are constant on every cell, so closed_solve is the
    continuum N^{-1} there: the paper's closed preimage and its rotation,
    to rounding (16 n eps relative), on any grid, n = 2 and kt past 2 pi
    included."""
    m = MagneticModel(k=k, t=t)
    for n in (2, 7, 400, 1000):
        g = make_grid(t, n)
        paper_f = _paper_preimage(m, g)
        paper_g = np.concatenate([-paper_f[n:], paper_f[:n]])
        tol = 16 * n * np.finfo(float).eps * np.abs(paper_f).max()
        for a, paper in ((1, paper_f), (2, paper_g)):
            solved = closed_solve(m, g, indicator_pair(g, a).as_vector())
            np.testing.assert_allclose(solved, paper, rtol=0, atol=tol)


def _green_solve(k, t, rho):
    """i z, z = (Id + B)^{-1} rho at the midpoints tau_j, for rho constant on n cells:
    z(tau) = rho(tau) + int_0^t G(tau, s) rho(s) ds with the continuum Green's
    function G = 2ik e^{-2ik(tau - s)} (1 / (1 + e^{2ikt}) - [s < tau]), its
    e^{2iks} integrated by mpmath.quad over each cell and each half cell at
    30 digits."""
    with mpmath.workdps(30):
        k, t = mpmath.mpf(k), mpmath.mpf(t)
        n = len(rho)
        h = t / n

        def integral(lo, hi):
            return mpmath.quad(lambda s: mpmath.exp(2j * k * s), [lo, hi])

        first = 1 / (1 + mpmath.exp(2j * k * t))
        cells = [rho[l] * integral(l * h, (l + 1) * h) for l in range(n)]
        whole, before, z = sum(cells), mpmath.mpc(0), []
        for j in range(n):
            tau = (j + mpmath.mpf(1) / 2) * h
            below = before + rho[j] * integral(j * h, tau)        # the s < tau part
            z.append(complex(rho[j] + 2j * k * mpmath.exp(-2j * k * tau)
                             * (first * whole - below)))
            before += cells[j]
    z = np.array(z)
    return 1j * np.concatenate([z.real, z.imag])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False),
       st.floats(min_value=0.05, max_value=8.0),
       st.integers(min_value=2, max_value=12).flatmap(
           lambda n: st.lists(st.floats(min_value=-1.0, max_value=1.0),
                              min_size=2 * n, max_size=2 * n)))
@example(0.0, 1.0, [0.5, -0.2, 0.1, 0.9])
@example(-2.9, 8.0, [1.0] * 12 + [-1.0] * 12)
def test_closed_solve_is_the_continuum_green_function_on_cellwise_constant_data(k, t, r):
    """rho = r1 + i r2 constant on each cell: closed_solve against an mpmath
    evaluation of the continuum Green's function, to 256 eps of rounding
    amplified by 1 / |1 + e^{2ikt}| (measured: at most 26 eps of it on 400
    seeded draws).  Skipped: kt within 1e-3 of the half-integer band."""
    kt = k * t
    assume(abs(kt - (np.floor(kt / np.pi) + 0.5) * np.pi) > 1e-3)
    assume(max(map(abs, r)) > 1e-3)
    assume(k == 0 or abs(k * t) >= sys.float_info.min)     # MagneticModel refuses such k t
    n = len(r) // 2
    rhs = np.array(r)
    oracle = _green_solve(k, t, rhs[:n] + 1j * rhs[n:])
    solved = closed_solve(MagneticModel(k=k, t=t), make_grid(t, n), rhs)
    scale = max(np.abs(oracle).max(), np.abs(rhs).max())
    amplification = max(1.0, 1.0 / abs(1.0 + np.exp(2j * kt)))
    assert np.abs(solved - oracle).max() <= 256 * np.finfo(float).eps * amplification * scale


def test_closed_solve_refuses_a_half_integer_caustic():
    m = MagneticModel(k=1.0, t=np.pi / 2)
    g = make_grid(m.t, 100)
    with pytest.raises(CausticError):
        closed_solve(m, g, indicator_pair(g, 1).as_vector())
