"""Resolvent solves N x = eta, closed-form preimages, the Gram matrix, and every refusal.

On the grid N = -iR with R = Id + B real, so N^{-1} = i R^{-1}: every route
(structured, closed and the dense oracle) supplies a real solve of R, and
:func:`lift` alone makes it N^{-1}.  :class:`Resolvent` is the structured N^{-1}
and the only code that takes the FFT: it reads the spectrum sigma of B's
skew-circulant block once and gives the Fredholm determinant
det(Id + B) = prod(1 - sigma^2), the exact 2-norm condition number
max|1 +- sigma| / min|1 +- sigma|, which doubles as the caustic diagnostic,
and solves x = N^{-1} rhs = i (Id + B)^{-1} rhs by a twisted FFT.
:func:`closed_solve` is the closed route's own N^{-1}, the continuum
Green's function integrated exactly over each cell, in O(n).  At the
indicator directions it is the paper's closed-form preimages, which serve
the paper's preimage check, :func:`verify_preimage`.  Its report holds
their residuals under N, their sup gap to one structured solve of eta_1,
and the indicators' Gram matrix from that one solve by the rotation
N^{-1} eta_2 = (-x2, x1) (:func:`rotation_gram`, which the structured
propagator uses too).

The integrand is a Hida distribution off the exclusion set
kt in {j pi} u {(j + 1/2) pi}.  Four guards enforce it, defined here alone:

  guard     tolerance, refuser           routes that apply it          error, classification exit
  window    |kt - j pi/2|                structured; closed at f = 0   CausticError,         4
            <= 1e-9 max(1, |kt|),        and at f; residual (an        integer_caustic or
            refuse_caustic               integer j pi in its span)     half_integer_caustic
  band      |kt - (j+1/2) pi| < 7.07e-5, closed at f; solve_N and      CausticError,         4
            check_away_from_caustic      gram_matrix; preimage         half_integer_caustic
  floor     |det(Id + B)| < 1e-12,       structured; dense             CausticError,         4
            refuse_singular_determinant                                half_integer_caustic
  condition cond(N) > 1e12,              structured; dense; solve_N    NearSingularError     3
            refuse_ill_conditioned       and gram_matrix; preimage

:func:`caustic_check` classifies without refusing, and the residual's window
is :func:`refuse_caustic_in_span`.  Each CausticError carries kt (the
residual's: the caustic j pi), except the floor's.  The exit code is the CLI's.
Where a route's numbers leave the float range, :func:`refuse_overflow`
refuses with NumericFailureError (exit 3).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (CausticError, InvalidParameterError, NearSingularError,
                     NumericFailureError)
from .grid import Grid, GridFunctionPair, check_same_grid, conj_norm_sq, pair_from_vector
from .operators import MagneticModel, apply_N
from .testfunctions import indicator_pair

_CAUSTIC_WINDOW = 1e-9          # window: |kt - j pi/2| <= this share of max(1, |kt|)
CAUSTIC_GUARD = 1e-8            # band: |cos(2kt) + 1| = 2 cos^2(kt) < this
_DET_FLOOR = 1e-12              # floor on |det(Id + B)|
COND_LIMIT = 1e12               # limit on cond(N)


@dataclass(frozen=True)
class CausticClassification:
    classification: str               # regular | integer_caustic | half_integer_caustic
    kt: float
    distance: float                   # |kt - nearest caustic value of kt|


def caustic_check(m: MagneticModel) -> CausticClassification:
    """Classify kt against the exclusion set; kt = 0 is the t -> 0 limit, not a
    caustic, and reads as pi/2 from the nearest one."""
    kt, half = m.k * m.t, np.pi / 2.0
    nearest_idx = round(kt / half) or (1 if kt >= 0 else -1)
    distance = abs(kt - nearest_idx * half)
    kind = ("regular" if distance > _CAUSTIC_WINDOW * max(1.0, abs(kt))
            else "integer_caustic" if nearest_idx % 2 == 0 else "half_integer_caustic")
    return CausticClassification(kind, kt, distance)


def refuse_caustic(m: MagneticModel) -> None:
    """Refuse kt in the window of a caustic, with caustic_check's classification."""
    cls = caustic_check(m)
    if cls.classification != "regular":
        raise CausticError(f"kt = {cls.kt:.6g} is at a caustic of class {cls.classification}",
                           classification=cls.classification, kt=cls.kt)


def refuse_caustic_in_span(m: MagneticModel, start: float) -> None:
    """Refuse j pi (j != 0) in k [start, t], each end widened by the window."""
    lo, hi = sorted((m.k * start, m.k * m.t))
    lo -= _CAUSTIC_WINDOW * max(1.0, abs(lo))
    hi += _CAUSTIC_WINDOW * max(1.0, abs(hi))
    j = np.floor(hi / np.pi)
    if j != 0 and j * np.pi >= lo:
        raise CausticError(f"integer caustic kt = {j:.0f} pi inside the time span "
                           f"[{start:.6g}, {m.t:.6g}]",
                           classification="integer_caustic", kt=float(j * np.pi))


def check_away_from_caustic(m: MagneticModel) -> None:
    """Refuse |cos(2kt) + 1| < CAUSTIC_GUARD, i.e. |kt - (j + 1/2) pi| < 7.07e-5."""
    kt = m.k * m.t
    if abs(np.cos(2 * kt) + 1.0) < CAUSTIC_GUARD:
        raise CausticError(f"kt = {kt:.6g} lies in the band |kt - (j + 1/2) pi| < 7.07e-5 "
                           f"around a half-integer caustic",
                           classification="half_integer_caustic", kt=kt)


def refuse_singular_determinant(determinant: complex) -> None:
    """Refuse |det(Id + B)| below the floor: a half-integer caustic of the grid."""
    if abs(determinant) < _DET_FLOOR:
        raise CausticError(f"det(Id + L(Id+K)^{{-1}}) = {determinant:.3g} is singular",
                           classification="half_integer_caustic")


def refuse_ill_conditioned(cond_estimate: float) -> None:
    """Refuse a condition number of N above COND_LIMIT."""
    if cond_estimate > COND_LIMIT:
        raise NearSingularError(f"N = Id+K+L is numerically singular "
                                f"(cond = {cond_estimate:.3g})")


@contextmanager
def refuse_overflow(what: str):
    """Refuse, with NumericFailureError, an overflow or a division by zero in numpy
    inside the block or the decorated function, or an invalid value, which finite
    inputs give only after one.  np.errstate holds in the calling thread only, so
    each route sets it where it computes."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericFailureError(f"{what} overflows ({exc})") from None


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
        """det(Id + B) = det(Id + L(Id+K)^{-1}) = prod(1 - sigma^2); refused if it overflows."""
        with refuse_overflow("det(Id + B) = prod(1 - sigma^2)"):
            return complex(np.prod(1.0 - self.sigma ** 2))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """N^{-1} rhs = i (Id + B)^{-1} rhs for a real or complex 2n-vector rhs."""
        return lift(self._id_plus_core, rhs)

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


def lift(real_solve, rhs: np.ndarray) -> np.ndarray:
    """N^{-1} rhs = i R^{-1} rhs for a real or complex rhs, given real_solve = R^{-1};
    the parts are solved apart, so a real rhs gives an exactly imaginary x."""
    sol = real_solve(rhs.real)
    if np.iscomplexobj(rhs) and np.count_nonzero(rhs.imag):
        sol = sol + 1j * real_solve(rhs.imag)
    return 1j * sol


def resolvent(m: MagneticModel, g: Grid) -> Resolvent:
    """Structured N^{-1}; refuses the band and the condition limit."""
    check_away_from_caustic(m)
    res = Resolvent.of(m, g)
    refuse_ill_conditioned(res.cond_estimate)
    return res


def solve_N(m: MagneticModel, g: Grid, rhs: GridFunctionPair) -> GridFunctionPair:
    """x = N^{-1} rhs = i (Id + B)^{-1} rhs on the grid."""
    check_same_grid(g, rhs)
    return pair_from_vector(g, resolvent(m, g).solve(rhs.as_vector()))


def closed_solve(m: MagneticModel, g: Grid, rhs: np.ndarray) -> np.ndarray:
    """N^{-1} rhs = i (Id + B)^{-1} rhs from the continuum Green's function, in O(n).

    With z = x1 + i x2 and rho = r1 + i r2, (Id + B) x = r reads
    z - i S z = rho, where S z(tau) = k (W - 2 Z(tau)), Z(tau) = int_0^tau z
    and W = Z(t).  So Z' + 2ik Z = rho + ik W with Z(0) = 0, whence

        Z = P + W (1 - e^{-2ik tau}) / 2,   W = 2 P(t) / (1 + e^{-2ikt}),
        z = rho + ik (W - 2 Z),

    with P(tau) = int_0^tau e^{-2ik(tau - s)} rho(s) ds.  With rho constant on
    each cell, e^{2iks} is integrated exactly: a cell [s_l - h/2, s_l + h/2)
    weighs e^{2ik s_l} by h sinc(kh/pi), the half cell [s_j - h/2, s_j] by
    (h/2) e^{-ikh/2} sinc(kh/2pi).  So x is that rho's continuum N^{-1} at the
    nodes to rounding, with no FFT and no matrix; at rho = eta_1 it is the
    paper's i (cos 2ks + tan(kt) sin 2ks, tan(kt) cos 2ks - sin 2ks).
    W's denominator vanishes at the half-integer caustics (the band).
    """
    check_away_from_caustic(m)
    return lift(partial(_closed_id_plus_core, m, g), rhs)


@refuse_overflow("the closed solve")
def _closed_id_plus_core(m: MagneticModel, g: Grid, rhs: np.ndarray) -> np.ndarray:
    """(Id + B)^{-1} rhs for a real 2n-vector rhs: the z = x1 + i x2 of closed_solve."""
    rho = rhs[:g.n] + 1j * rhs[g.n:]
    kh = m.k * g.h
    cell = g.h * np.sinc(kh / np.pi)                # int of e^{2iku} over |u| < h/2
    half = 0.5 * g.h * np.exp(-0.5j * kh) * np.sinc(kh / (2 * np.pi))     # over -h/2 < u < 0
    phase = np.exp(2j * m.k * g.nodes)              # e^{2ik s_j}
    decay = np.conj(phase)                          # e^{-2ik s_j}
    weighted = phase * rho
    p = decay * (cell * (np.cumsum(weighted) - weighted) + half * weighted)
    end = np.exp(-2j * m.k * m.t)
    w = 2.0 * end * cell * np.sum(weighted) / (1.0 + end)
    z = rho + 1j * m.k * (w - 2.0 * (p + 0.5 * w * (1.0 - decay)))
    return np.concatenate([z.real, z.imag])


def rotation_gram(g: Grid, x: np.ndarray) -> np.ndarray:
    """The Gram matrix M_ab = (eta_a, N^{-1} eta_b) of the indicators from
    x = N^{-1} eta_1 alone: N commutes with the rotation R(x1, x2) = (-x2, x1),
    so N^{-1} eta_2 = R x and M = [[m11, -m21], [m21, m11]]."""
    m11 = g.h * np.sum(x[:g.n])
    m21 = g.h * np.sum(x[g.n:])
    return np.array([[m11, -m21], [m21, m11]])


@dataclass(frozen=True)
class PreimageResidualReport:
    sup_f: float
    sup_g: float
    quad_f: float
    quad_g: float
    solve_vs_closed_sup: float        # max |structured - closed| over both components
    gram: np.ndarray = field(repr=False)    # rotation_gram of the structured N^{-1} eta_1


def verify_preimage(m: MagneticModel, g: Grid) -> PreimageResidualReport:
    """The paper's preimage check at the indicators, each preimage solved once.

    The residuals are those of N applied to the closed preimages against the
    indicators: N^{-1} eta_1 is :func:`closed_solve`'s, N^{-1} eta_2 its
    rotation (-x2, x1), with which N commutes.  N is applied in O(n) by
    :func:`operators.apply_N`, which uses neither the structured solve nor
    the closed form it checks.  One structured solve of eta_1 by
    :func:`resolvent` gives the solve-vs-closed gap and the Gram matrix
    (:func:`rotation_gram`).  Refuses the band and the condition limit.
    """
    eta1 = indicator_pair(g, 1)
    eta2 = indicator_pair(g, 2)

    rhs = eta1.as_vector()
    closed = closed_solve(m, g, rhs)
    solved = resolvent(m, g).solve(rhs)
    pre_f = pair_from_vector(g, closed)
    pre_g = GridFunctionPair(grid=g, comp1=-pre_f.comp2, comp2=pre_f.comp1)
    res_f = apply_N(m, g, pre_f)
    res_g = apply_N(m, g, pre_g)
    diff_f = GridFunctionPair(grid=g, comp1=res_f.comp1 - eta1.comp1,
                              comp2=res_f.comp2 - eta1.comp2)
    diff_g = GridFunctionPair(grid=g, comp1=res_g.comp1 - eta2.comp1,
                              comp2=res_g.comp2 - eta2.comp2)
    return PreimageResidualReport(
        sup_f=diff_f.sup_norm(), sup_g=diff_g.sup_norm(),
        quad_f=float(np.sqrt(conj_norm_sq(diff_f))),
        quad_g=float(np.sqrt(conj_norm_sq(diff_g))),
        solve_vs_closed_sup=float(np.abs(solved - closed).max()),
        gram=rotation_gram(g, solved))


def gram_matrix(m: MagneticModel, g: Grid, etas) -> np.ndarray:
    """The matrix of bilinear pairings M_ab = (eta_a, N^{-1} eta_b), from one
    resolvent: (h E) @ solutions."""
    etas = tuple(etas)
    if not etas:
        raise InvalidParameterError("need at least one generating function")
    check_same_grid(g, *etas)
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
