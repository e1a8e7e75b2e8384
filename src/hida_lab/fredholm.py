"""Resolvent solves N x = eta, closed-form preimages, and the Gram matrix.

On the grid N = -i (Id + B).  :class:`Resolvent` is the structured N^{-1}
and the only code that takes the FFT: it reads the spectrum sigma of B's
skew-circulant block once and gives the Fredholm determinant
det(Id + B) = prod(1 - sigma^2), the exact 2-norm condition number
max|1 +- sigma| / min|1 +- sigma|, which doubles as the caustic diagnostic,
and solves x = N^{-1} rhs = i (Id + B)^{-1} rhs by a twisted FFT.
:func:`closed_solve` is the closed route's own N^{-1}, from the continuum
Green's function in O(n).  The closed-form preimages of the indicator
directions serve the paper's preimage check, :func:`verify_preimage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (CausticError, GridMismatchError, InvalidParameterError,
                     NearSingularError)
from .grid import Grid, GridFunctionPair, conj_norm_sq, pair_from_vector
from .operators import MagneticModel, apply_N, apply_volterra
from .testfunctions import indicator_pair

# Refuse closed forms and solves this close to a half-integer caustic,
# where the closed forms divide by cos(2kt) + 1 = 2 cos^2(kt).
CAUSTIC_GUARD = 1e-8
COND_LIMIT = 1e12


def refuse_ill_conditioned(cond_estimate: float) -> None:
    """Refuse a condition number of N above COND_LIMIT."""
    if cond_estimate > COND_LIMIT:
        raise NearSingularError(
            f"N = Id+K+L is numerically singular (cond = {cond_estimate:.3g})",
            cond_estimate=cond_estimate)


def check_away_from_caustic(m: MagneticModel) -> None:
    """Refuse |cos(2kt) + 1| < CAUSTIC_GUARD, i.e. |kt - (j + 1/2) pi| < 7.07e-5."""
    kt = m.k * m.t
    if abs(np.cos(2 * kt) + 1.0) < CAUSTIC_GUARD:
        raise CausticError(f"kt = {kt:.6g} lies in the band |kt - (j + 1/2) pi| < 7.07e-5 "
                           f"around a half-integer caustic",
                           classification="half_integer_caustic", kt=kt)


@dataclass(frozen=True)
class Resolvent:
    """N^{-1} = i (Id + B)^{-1} through the spectrum sigma of B's skew-circulant block.

    S = k(A* - A) = k h sign(l - j) is skew-circulant: the FFT of its first
    column twisted by exp(i pi j / n) gives its eigenvalues i sigma, and B's
    are +-sigma (Davis, *Circulant Matrices*, 1979)."""

    sigma: np.ndarray = field(repr=False)
    cond_estimate: float

    @classmethod
    def of(cls, m: MagneticModel, g: Grid) -> "Resolvent":
        """sigma and the exact max|1+-sigma|/min|1+-sigma|; no refusals."""
        column = np.full(g.n, -m.k * g.h)
        column[0] = 0.0
        sigma = np.fft.fft(column * _twist(g.n)).imag
        moduli = np.abs(np.concatenate([1.0 + sigma, 1.0 - sigma]))
        smallest = moduli.min()
        cond = np.inf if smallest == 0 else float(moduli.max() / smallest)
        return cls(sigma=sigma, cond_estimate=cond)

    @property
    def determinant(self) -> complex:
        """det(Id + B) = det(Id + L(Id+K)^{-1}) = prod(1 - sigma^2)."""
        return complex(np.prod(1.0 - self.sigma ** 2))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """N^{-1} rhs = i (Id + B)^{-1} rhs for a real or complex 2n-vector rhs."""
        return _lift(self._id_plus_core, rhs)

    def _id_plus_core(self, rhs: np.ndarray) -> np.ndarray:
        """(Id + B)^{-1} rhs for a real 2n-vector rhs.

        (Id + B)(x1, x2) = (x1 + S x2, x2 - S x1), so z = x1 + i x2 solves
        (I - iS) z = rhs1 + i rhs2, whose eigenvalues in the twisted Fourier
        basis are 1 + sigma.
        """
        n = len(self.sigma)
        twist = _twist(n)
        z = np.fft.fft(twist * (rhs[:n] + 1j * rhs[n:])) / (1.0 + self.sigma)
        z = np.conj(twist) * np.fft.ifft(z)
        return np.concatenate([z.real, z.imag])


def _twist(n: int) -> np.ndarray:
    return np.exp(1j * np.pi * np.arange(n) / n)


def _lift(real_solve, rhs: np.ndarray) -> np.ndarray:
    """i real_solve(rhs) for a real or complex rhs, given a real linear solve;
    the parts are solved apart, so a real rhs gives an exactly imaginary x."""
    sol = real_solve(rhs.real)
    if np.iscomplexobj(rhs) and np.count_nonzero(rhs.imag):
        sol = sol + 1j * real_solve(rhs.imag)
    return 1j * sol


def resolvent(m: MagneticModel, g: Grid) -> Resolvent:
    """Structured N^{-1}; refuses the caustic band and a condition above COND_LIMIT."""
    check_away_from_caustic(m)
    res = Resolvent.of(m, g)
    refuse_ill_conditioned(res.cond_estimate)
    return res


def solve_N(m: MagneticModel, g: Grid, rhs: GridFunctionPair) -> GridFunctionPair:
    """x = N^{-1} rhs = i (Id + B)^{-1} rhs on the grid."""
    if rhs.grid != g:
        raise GridMismatchError("rhs lives on a different grid")
    return pair_from_vector(g, resolvent(m, g).solve(rhs.as_vector()))


def closed_solve(m: MagneticModel, g: Grid, rhs: np.ndarray) -> np.ndarray:
    """N^{-1} rhs = i (Id + B)^{-1} rhs from the continuum Green's function, in O(n).

    With z = x1 + i x2 and rho = r1 + i r2, (Id + B) x = r reads
    z - i S z = rho, where S z(tau) = k (W - 2 Z(tau)), Z(tau) = int_0^tau z
    and W = Z(t).  So Z' + 2ik Z = rho + ik W with Z(0) = 0, whence

        Z = P + W (1 - e^{-2ik tau}) / 2,   W = 2 P(t) / (1 + e^{-2ikt}),
        z = rho + ik (W - 2 Z),

    with P(tau) = int_0^tau e^{-2ik(tau - s)} rho(s) ds.  P is the midpoint
    running sum of :func:`operators.apply_volterra` and P(t) the midpoint
    sum, so x is second order in h and uses neither the FFT nor a matrix.
    W's denominator vanishes at the half-integer caustics, which are
    refused.  A complex rhs is solved as its real and imaginary parts, as
    :meth:`Resolvent.solve` does.
    """
    check_away_from_caustic(m)
    return _lift(partial(_closed_id_plus_core, m, g), rhs)


def _closed_id_plus_core(m: MagneticModel, g: Grid, rhs: np.ndarray) -> np.ndarray:
    """(Id + B)^{-1} rhs for a real 2n-vector rhs: the z = x1 + i x2 of closed_solve."""
    rho = rhs[:g.n] + 1j * rhs[g.n:]
    phase = np.exp(2j * m.k * g.nodes)              # e^{2ik s_j}
    decay = np.conj(phase)                          # e^{-2ik s_j}
    weighted = phase * rho
    p = decay * apply_volterra(g, weighted)
    end = np.exp(-2j * m.k * m.t)
    w = 2.0 * end * g.h * np.sum(weighted) / (1.0 + end)
    z = rho + 1j * m.k * (w - 2.0 * (p + 0.5 * w * (1.0 - decay)))
    return np.concatenate([z.real, z.imag])


def _tan_ratio(m: MagneticModel) -> float:
    """sin(2kt) / (cos(2kt) + 1) = tan(kt), written with the guard applied."""
    kt2 = 2.0 * m.k * m.t
    return np.sin(kt2) / (np.cos(kt2) + 1.0)


def closed_preimage_f(m: MagneticModel, g: Grid) -> GridFunctionPair:
    """Closed form of N^{-1} (1_[0,t), 0)."""
    check_away_from_caustic(m)
    r = _tan_ratio(m)
    s = g.nodes
    comp1 = 1j * np.cos(2 * m.k * s) + 1j * r * np.sin(2 * m.k * s)
    comp2 = 1j * r * np.cos(2 * m.k * s) - 1j * np.sin(2 * m.k * s)
    return GridFunctionPair(grid=g, comp1=comp1, comp2=comp2)


def closed_preimage_g(m: MagneticModel, g: Grid) -> GridFunctionPair:
    """Closed form of N^{-1} (0, 1_[0,t)): (g1, g2) = (-f2, f1)."""
    f = closed_preimage_f(m, g)
    return GridFunctionPair(grid=g, comp1=-f.comp2, comp2=f.comp1)


@dataclass(frozen=True)
class PreimageResidualReport:
    model: MagneticModel
    grid: Grid
    sup_f: float
    sup_g: float
    quad_f: float
    quad_g: float


def verify_preimage(m: MagneticModel, g: Grid) -> PreimageResidualReport:
    """Residuals of N applied to the closed-form preimages against the indicators.

    N is applied in O(n) by :func:`operators.apply_N`, which uses neither
    the structured solve nor the closed form it checks.
    """
    eta1 = indicator_pair(g, 1)
    eta2 = indicator_pair(g, 2)

    res_f = apply_N(m, g, closed_preimage_f(m, g))
    res_g = apply_N(m, g, closed_preimage_g(m, g))
    diff_f = GridFunctionPair(grid=g, comp1=res_f.comp1 - eta1.comp1,
                              comp2=res_f.comp2 - eta1.comp2)
    diff_g = GridFunctionPair(grid=g, comp1=res_g.comp1 - eta2.comp1,
                              comp2=res_g.comp2 - eta2.comp2)
    return PreimageResidualReport(
        model=m, grid=g,
        sup_f=diff_f.sup_norm(), sup_g=diff_g.sup_norm(),
        quad_f=float(np.sqrt(conj_norm_sq(diff_f))),
        quad_g=float(np.sqrt(conj_norm_sq(diff_g))))


def gram_matrix(m: MagneticModel, g: Grid, etas) -> np.ndarray:
    """The matrix of bilinear pairings M_ab = (eta_a, N^{-1} eta_b), from one
    resolvent: (h E) @ solutions."""
    etas = tuple(etas)
    if not etas:
        raise InvalidParameterError("need at least one generating function")
    if any(eta.grid != g for eta in etas):
        raise GridMismatchError("every eta must live on the grid")
    res = resolvent(m, g)
    stacked = np.array([eta.as_vector() for eta in etas])
    solutions = np.array([res.solve(vec) for vec in stacked]).T
    return (g.h * stacked) @ solutions


def analytic_gram_diagonal(m: MagneticModel) -> complex:
    """(i/k) tan(kt), the k -> 0 limit being i t.

    Implementer-derived by integrating the closed preimages over [0, t);
    confirmed numerically before use (see the test suite).
    """
    if m.k == 0:
        return 1j * m.t
    return 1j * np.tan(m.k * m.t) / m.k
