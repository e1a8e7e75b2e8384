"""The lattice closed form of the discrete magnetic problem: a test oracle only.

On the uniform midpoint grid of n cells, h = t/n, the symmetric core B acts
on z = x1 + i x2 as I - iS with S = k h sign(l - j), a skew-circulant
matrix.  Its eigenvalues are i sigma_m with

    sigma_m = k h cot(phi_m),   phi_m = (2m - 1) pi / (2n),   m = 1 ... n,

(Davis, *Circulant Matrices*, 1979), and B's are +-sigma_m.  Write
theta = arctan(k h).  Then

    1 + sigma_m = sin(phi_m + theta) / (cos(theta) sin(phi_m)),

and prod_m sin(x + phi_m) = 2^(1-n) cos(n x), which is
prod_{m=0}^{n-1} sin(y + m pi/n) = 2^(1-n) sin(n y) at y = x - pi/(2n),
shifted by one factor.  At x = theta and x = 0 it gives
prod (1 + sigma_m) = cos(n theta) / cos^n(theta), the same for
theta -> -theta, and

    det(Id + B) = prod (1 - sigma_m^2) = cos^2(n theta) / cos^(2n)(theta).

The Gram matrix: N^{-1} eta_1 = i w with w1 + i w2 = (I - iS)^{-1} 1.  The
constant vector has weight 1 / (n sin^2 phi_m) on the m-th skew-circulant
eigenvector, so

    1^T (I - iS)^{-1} 1 = (1/n) sum_m cos(theta) / (sin(phi_m) sin(phi_m + theta))
                        = (cot(theta)/n) sum_m [cot(phi_m) - cot(phi_m + theta)]
                        = cot(theta) tan(n theta),

the last sum being -d/dtheta log prod sin(phi_m + theta) = n tan(n theta)
and sum cot(phi_m) = 0.  It is real, so M_21 = 0 and, as h cot(theta) = 1/k,

    M = (i/k) tan(n theta) Id      (i t Id at k = 0).

Composed as every route composes (det^{-1/2} ((2 pi)^2 det M)^{-1/2}
exp(+1/2 u^T M^{-1} u) with u = i y), the value at start point 0 is

    cos^n(theta) k / (2 pi i sin(n theta)) exp((ik/2) cot(n theta) |y|^2).

The numeric routes take principal roots, so this is their value while
|n theta| < pi; past pi they lack a sign (ROADMAP item 1) and only the
modulus is theirs.  The first-order error of the numeric routes against the
continuum is the factor cos^n(theta) ~ 1 - k^2 t h / 2, and the discrete
caustics sit at n theta = j pi / 2 (Gelfand & Yaglom, J. Math. Phys. 1,
1960).  These formulas are never substituted for a route's value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Lattice:
    """The closed form of the grid problem at (k, t, n)."""

    k: float
    t: float
    n: int

    @property
    def theta(self) -> float:
        return float(np.arctan(self.k * self.t / self.n))

    @property
    def determinant(self) -> float:
        """det(Id + B) = cos^2(n theta) / cos^(2n)(theta)."""
        return float((np.cos(self.n * self.theta) / np.cos(self.theta) ** self.n) ** 2)

    @property
    def gram_diagonal(self) -> complex:
        """mu with M = mu Id: (i/k) tan(n theta), i t at k = 0."""
        if self.k == 0:
            return 1j * self.t
        return 1j * np.tan(self.n * self.theta) / self.k

    @property
    def sigma(self) -> np.ndarray:
        """The n values sigma_m = k h cot((2m - 1) pi / (2n))."""
        phi = (2 * np.arange(1, self.n + 1) - 1) * np.pi / (2 * self.n)
        return self.k * self.t / self.n / np.tan(phi)

    @property
    def condition(self) -> float:
        """The 2-norm condition number max|1 +- sigma| / min|1 +- sigma| of Id + B."""
        moduli = np.abs(np.concatenate([1.0 + self.sigma, 1.0 - self.sigma]))
        return float(moduli.max() / moduli.min())

    @property
    def caustic_distance(self) -> float:
        """Distance of n theta from the nearest discrete caustic j pi / 2."""
        half = np.pi / 2
        x = self.n * self.theta
        return float(abs(x - round(x / half) * half))

    def exponent(self, y) -> complex:
        """(ik/2) cot(n theta) |y|^2, the delta exponent at start point 0."""
        r2 = float(np.dot(y, y))
        if self.k == 0:
            return 0.5j * r2 / self.t
        return 0.5j * self.k / np.tan(self.n * self.theta) * r2

    def value(self, y) -> complex:
        """cos^n(theta) k / (2 pi i sin(n theta)) exp((ik/2) cot(n theta) |y|^2)."""
        if self.k == 0:
            prefactor = 1.0 / (2j * np.pi * self.t)
        else:
            prefactor = (np.cos(self.theta) ** self.n * self.k
                         / (2j * np.pi * np.sin(self.n * self.theta)))
        return complex(prefactor * np.exp(self.exponent(y)))
