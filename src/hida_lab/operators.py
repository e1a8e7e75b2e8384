"""Discretized Volterra operator, its adjoint, and the block operators K, L, N.

On the uniform midpoint grid, step h, the cumulative-integration operator
A f(tau) = int_0^tau f(s) ds becomes h below the diagonal and h/2 on it.
Its adjoint w.r.t. the *bilinear* pairing h sum_j u_j v_j is the plain
transpose A^T.  This makes the product L (Id + K)^{-1} exactly real
symmetric at every resolution, which is what keeps its discrete spectrum
clean.  The off-diagonal block S = k(A^T - A) = k h sign(l - j) of B is
skew-circulant; :class:`fredholm.Resolvent` diagonalizes and inverts
Id + B through it, and the dense builders here are its test oracles.
:func:`apply_N` applies N in O(n) through running sums, with no matrix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .grid import Grid, GridFunctionPair, check_same_grid, finite, pair_from_vector


@dataclass(frozen=True)
class MagneticModel:
    """Coupling k = q*H3/c and terminal time t, stored as floats (hbar = m = 1)."""

    k: float
    t: float

    def __post_init__(self):
        if not finite(self.k, self.t):
            raise InvalidParameterError(f"k = {self.k} and t = {self.t} must be finite floats")
        # Checked on the stored float: an exact t > 0 may round to 0.0.
        object.__setattr__(self, "t", float(self.t))
        if not self.t > 0:
            raise InvalidParameterError(f"terminal time must be positive, got {self.t}")
        kt = self.k * self.t
        # From 2**52 up k*t holds no fractional digit: rounding moves the phase kt by up to 1/2.
        if not abs(kt) < 2.0 ** 52 or (self.k != 0 and abs(kt) < sys.float_info.min):
            raise InvalidParameterError(f"k*t = {kt} must be 0 or a normal float below "
                                        f"2**52 in size, got k={self.k}, t={self.t}")
        object.__setattr__(self, "k", float(self.k))


@dataclass(frozen=True)
class BlockOperator:
    """Dense 2n x 2n complex matrix in 2x2 block layout on a grid."""

    grid: Grid
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        n2 = 2 * self.grid.n
        if self.entries.shape != (n2, n2):
            raise InvalidParameterError(
                f"entries shape {self.entries.shape} does not match grid (expect {(n2, n2)})")

    def apply(self, f: GridFunctionPair) -> GridFunctionPair:
        check_same_grid(self.grid, f)
        return pair_from_vector(self.grid, self.entries @ f.as_vector())


def volterra(g: Grid) -> np.ndarray:
    """Matrix of A f(tau) = int_0^tau f: h below the diagonal, h/2 on it.

    Its transpose A^T is the exact pairing-adjoint of A; it approximates
    A* f(tau) = int_tau^t f(s) ds to the same order as A.
    """
    a = np.tril(np.full((g.n, g.n), g.h), k=-1)
    np.fill_diagonal(a, g.h / 2.0)
    return a


def apply_volterra(g: Grid, v: np.ndarray) -> np.ndarray:
    """A v = volterra(g) @ v in O(n): the running sum of h v less half its last term."""
    hv = g.h * v
    return np.cumsum(hv) - 0.5 * hv


def free_K(m: MagneticModel, g: Grid) -> BlockOperator:
    """Kinetic-plus-compensation kernel: -(1+i) times the identity on the grid.

    The projection onto [0, t) acts as the identity because the grid never
    leaves the interval.
    """
    entries = np.zeros((2 * g.n, 2 * g.n), dtype=complex)
    np.fill_diagonal(entries, -(1.0 + 1.0j))
    return BlockOperator(grid=g, entries=entries)


def magnetic_L(m: MagneticModel, g: Grid) -> BlockOperator:
    """Velocity-coupling block operator: off-diagonal blocks +-ik(A - A*).

    Its entries are purely imaginary; k(A - A*) is written straight into the
    imaginary parts of the two blocks.
    """
    n = g.n
    a = volterra(g)
    s = a - a.T
    entries = np.zeros((2 * n, 2 * n), dtype=complex)
    top_right = entries[:n, n:].imag
    np.multiply(m.k, s, out=top_right)
    np.negative(top_right, out=entries[n:, :n].imag)
    return BlockOperator(grid=g, entries=entries)


def build_N(m: MagneticModel, g: Grid) -> BlockOperator:
    """N = Id + K + L in one buffer: L's entries with -i added on the diagonal.

    This is exact: Id + K = -i Id and L's diagonal blocks are zero.  On the
    grid N = -i(Id + B) with B real symmetric.
    """
    entries = magnetic_L(m, g).entries
    entries[np.diag_indices(2 * g.n)] -= 1j
    return BlockOperator(grid=g, entries=entries)


def apply_N(m: MagneticModel, g: Grid, f: GridFunctionPair) -> GridFunctionPair:
    """N f = build_N(m, g).apply(f) in O(n) time and memory, with no matrix.

    On the grid Id + K = -i Id and L f = (ik (A - A*) f2, -ik (A - A*) f1).
    A v is a running sum (:func:`apply_volterra`), and (A + A*)_jl = h,
    the discrete int_0^tau + int_tau^t = int_0^t, so A* v = h sum(v) - A v.
    Neither the FFT solve nor a closed form enters, so this apply stays
    independent of both routes it is used to check.
    """
    check_same_grid(g, f)

    def coupling(v):
        av = apply_volterra(g, v)
        astar_v = g.h * np.sum(v) - av
        return 1j * m.k * (av - astar_v)

    return GridFunctionPair(grid=g, comp1=-1j * f.comp1 + coupling(f.comp2),
                            comp2=-1j * f.comp2 - coupling(f.comp1))


def symmetric_core(m: MagneticModel, g: Grid) -> np.ndarray:
    """Real symmetric matrix B = L (Id + K)^{-1} restricted to the grid.

    (Id + K)^{-1} = i Id there, so B = iL = [[0, k(A* - A)], [k(A - A*), 0]],
    which is symmetric because A* = A^T is the exact pairing-adjoint of A.
    """
    a = volterra(g)
    s = m.k * (a.T - a)
    zero = np.zeros_like(s)
    return np.block([[zero, s], [s.T, zero]])

