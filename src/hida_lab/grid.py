"""Uniform midpoint grid on [0, t), step h, and the bilinear pairing.

Everything downstream works on two-component functions sampled at the
midpoints s_j = (j + 1/2) h with h = t / n.  Midpoints keep every sample
strictly inside [0, t), so the indicator of the interval is sampled exactly
and no boundary convention is ever needed.  Every quadrature weight is the
one step h, so a grid is fixed by (t, n) alone.  A grid whose h is not a
normal float is refused: a subnormal h has lost digits, and below it h is 0.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid with n nodes on [0, t), step h = t / n.

    t is stored as a float, n (any integer, numpy's too) as an int; h must be a normal float.
    """

    t: float
    n: int

    def __post_init__(self):
        if not self.t > 0:
            raise InvalidParameterError(f"duration t must be positive, got {self.t}")
        if not finite(self.t):
            raise InvalidParameterError(f"duration t must be a finite float, got {self.t}")
        try:
            n = operator.index(self.n)
        except TypeError:
            raise InvalidParameterError(f"the node count must be an integer, "
                                        f"got {self.n!r}") from None
        object.__setattr__(self, "n", n)
        if self.n < 2:
            raise InvalidParameterError(f"need at least 2 nodes, got {self.n}")
        if not finite(self.n):
            raise InvalidParameterError("the node count is beyond the float range")
        if self.t / self.n < sys.float_info.min:
            raise InvalidParameterError(
                f"step h = t/n = {self.t}/{self.n} is below the smallest normal float "
                f"{sys.float_info.min:.6g}")
        object.__setattr__(self, "t", float(self.t))

    @property
    def h(self) -> float:
        return self.t / self.n

    @property
    def nodes(self) -> np.ndarray:
        """Midpoints s_j = (j + 1/2) h."""
        return (np.arange(self.n) + 0.5) * self.h


@dataclass(frozen=True)
class GridFunctionPair:
    """Samples of a two-component complex function (f1, f2) on a grid."""

    grid: Grid
    comp1: np.ndarray = field(repr=False)
    comp2: np.ndarray = field(repr=False)

    def as_vector(self) -> np.ndarray:
        """Stacked length-2n vector (component 1 first)."""
        return np.concatenate([self.comp1, self.comp2])

    def sup_norm(self) -> float:
        return max(np.abs(self.comp1).max(), np.abs(self.comp2).max())


def finite(*values) -> bool:
    """math.isfinite of every value; False for an int or Fraction beyond the float range."""
    try:
        return all(math.isfinite(v) for v in values)
    except OverflowError:
        return False


def make_grid(t: float, n: int) -> Grid:
    """Build the midpoint grid with n nodes on [0, t)."""
    return Grid(t, n)


def pair_from_vector(g: Grid, vec: np.ndarray) -> GridFunctionPair:
    """Inverse of :meth:`GridFunctionPair.as_vector`."""
    if vec.shape != (2 * g.n,):
        raise InvalidParameterError(
            f"vector length {vec.shape} does not match grid with n={g.n}")
    return GridFunctionPair(grid=g, comp1=vec[: g.n].copy(), comp2=vec[g.n:].copy())


def sample(f1, f2, g: Grid) -> GridFunctionPair:
    """Sample two scalar functions (callables or constants) at the nodes."""
    def _eval(f):
        if callable(f):
            vals = np.asarray([f(s) for s in g.nodes], dtype=complex)
        else:
            vals = np.full(g.n, f, dtype=complex)
        return vals

    return GridFunctionPair(grid=g, comp1=_eval(f1), comp2=_eval(f2))


def check_same_grid(g: Grid, *objects) -> None:
    """Refuse any object (a grid function or an operator) whose grid is not g."""
    for obj in objects:
        if obj.grid != g:
            raise InvalidParameterError(
                f"{type(obj).__name__} lives on a different grid: (t={obj.grid.t}, "
                f"n={obj.grid.n}), expected (t={g.t}, n={g.n})")


def check_same_span(g: Grid, t: float) -> None:
    """The span rule of Resolvent.of and closed_solve: g.t must be the model's float t."""
    if g.t != t:
        raise InvalidParameterError(f"the grid spans [0, {g.t}), the model [0, {t})")


def pair(u: GridFunctionPair, v: GridFunctionPair) -> complex:
    """Bilinear dual pairing h sum_j (u1_j v1_j + u2_j v2_j).

    No complex conjugation: this is the bilinear extension of the real
    pairing, the convention used by every formula in this package.
    """
    check_same_grid(u.grid, v)
    return complex(np.sum(u.grid.h * (u.comp1 * v.comp1 + u.comp2 * v.comp2)))


def conj_norm_sq(u: GridFunctionPair) -> float:
    """Hermitian squared norm h sum_j (|u1_j|^2 + |u2_j|^2).

    Only used for solver diagnostics; the formulas use :func:`pair`.
    """
    return float(np.sum(u.grid.h * (np.abs(u.comp1) ** 2 + np.abs(u.comp2) ** 2)))
