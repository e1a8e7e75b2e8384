"""Resolvent solves N x = eta, closed-form preimages, and the Gram matrix.

On the grid N = -i (Id + B), so x = i (Id + B)^{-1} rhs.  Id + B is
inverted through the skew-circulant structure of B (see
:func:`operators.solve_id_plus_core`); its eigenvalues 1 +- sigma give the
exact 2-norm condition number, which doubles as the caustic diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (CausticError, GridMismatchError, InvalidParameterError,
                     NearSingularError)
from .grid import Grid, GridFunctionPair, pair, pair_from_vector
from .operators import MagneticModel, build_N, skew_spectrum, solve_id_plus_core

# Refuse closed forms and solves this close to a caustic; the closed
# preimage has cos(2kt) + 1 = 2 cos^2(kt) in a denominator.
CAUSTIC_GUARD = 1e-8
COND_LIMIT = 1e12


def check_away_from_caustic(m: MagneticModel) -> None:
    """Refuse |cos(2kt) + 1| < CAUSTIC_GUARD, i.e. |kt - (j + 1/2) pi| < 7.07e-5."""
    kt = m.k * m.t
    if abs(np.cos(2 * kt) + 1.0) < CAUSTIC_GUARD:
        raise CausticError(f"kt = {kt:.6g} sits on a half-integer caustic: "
                           f"closed preimage denominator vanishes",
                           classification="half_integer_caustic", kt=kt)


@dataclass(frozen=True)
class Resolvent:
    """(Id + B)^{-1} through the spectrum sigma of B's skew-circulant block."""

    sigma: np.ndarray = field(repr=False)
    cond_estimate: float

    def solve(self, rhs_vec: np.ndarray) -> np.ndarray:
        """(Id+B)^{-1} rhs for a real 2n-vector rhs."""
        return solve_id_plus_core(self.sigma, rhs_vec)


def _spectrum_and_cond(m: MagneticModel, g: Grid) -> tuple:
    """sigma = skew_spectrum and the exact 2-norm condition max|1+-sigma|/min|1+-sigma|."""
    sigma = skew_spectrum(m, g)
    moduli = np.abs(np.concatenate([1.0 + sigma, 1.0 - sigma]))
    smallest = moduli.min()
    cond = np.inf if smallest == 0 else float(moduli.max() / smallest)
    return sigma, cond


def resolvent(m: MagneticModel, g: Grid) -> Resolvent:
    """Structured inverse of Id + B; refuses a 2-norm condition above COND_LIMIT."""
    check_away_from_caustic(m)
    sigma, cond = _spectrum_and_cond(m, g)
    if cond > COND_LIMIT:
        raise NearSingularError(
            f"Id + B is numerically singular (cond = {cond:.3g}); "
            f"kt = {m.k * m.t:.6g} is too close to a caustic", cond_estimate=cond)
    return Resolvent(sigma=sigma, cond_estimate=cond)


def solve_N(m: MagneticModel, g: Grid, rhs: GridFunctionPair) -> GridFunctionPair:
    """x = N^{-1} rhs = i (Id + B)^{-1} rhs on the grid."""
    if rhs.grid != g:
        raise GridMismatchError("rhs lives on a different grid")
    fact = resolvent(m, g)
    vec = rhs.as_vector()
    # The structured solve is real; solving real and imaginary parts
    # separately keeps a real rhs producing an exactly imaginary x.
    sol = fact.solve(vec.real.astype(float))
    if np.any(vec.imag):
        sol = sol + 1j * fact.solve(vec.imag.astype(float))
    return pair_from_vector(g, 1j * sol)


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
    """Residuals of N applied to the closed-form preimages against the indicators."""
    n_op = build_N(m, g)
    from .grid import conj_norm_sq, sample

    eta1 = sample(1.0, 0.0, g)
    eta2 = sample(0.0, 1.0, g)

    res_f = n_op.apply(closed_preimage_f(m, g))
    res_g = n_op.apply(closed_preimage_g(m, g))
    diff_f = GridFunctionPair(grid=g, comp1=res_f.comp1 - eta1.comp1,
                              comp2=res_f.comp2 - eta1.comp2)
    diff_g = GridFunctionPair(grid=g, comp1=res_g.comp1 - eta2.comp1,
                              comp2=res_g.comp2 - eta2.comp2)
    return PreimageResidualReport(
        model=m, grid=g,
        sup_f=diff_f.sup_norm(), sup_g=diff_g.sup_norm(),
        quad_f=float(np.sqrt(conj_norm_sq(diff_f))),
        quad_g=float(np.sqrt(conj_norm_sq(diff_g))))


@dataclass(frozen=True)
class GramMatrix:
    """Matrix of bilinear pairings (eta_i, N^{-1} eta_j)."""

    entries: np.ndarray
    etas: tuple

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def gram_matrix(m: MagneticModel, g: Grid, etas) -> GramMatrix:
    etas = tuple(etas)
    if not etas:
        raise InvalidParameterError("need at least one generating function")
    solved = [solve_N(m, g, eta) for eta in etas]
    j = len(etas)
    entries = np.empty((j, j), dtype=complex)
    for a in range(j):
        for b in range(j):
            entries[a, b] = pair(etas[a], solved[b])
    return GramMatrix(entries=entries, etas=etas)


def analytic_gram_diagonal(m: MagneticModel) -> complex:
    """(i/k) tan(kt), the k -> 0 limit being i t.

    Implementer-derived by integrating the closed preimages over [0, t);
    confirmed numerically before use (see the test suite).
    """
    if m.k == 0:
        return 1j * m.t
    return 1j * np.tan(m.k * m.t) / m.k
