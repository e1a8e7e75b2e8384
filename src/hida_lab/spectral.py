"""Spectrum of L(Id+K)^{-1} and the three-way Fredholm determinant.

The closed-form eigenvalues are lambda_n = 2kt / ((2n-1) pi), n in Z, each
with multiplicity 2 and the symmetry lambda_n = -lambda_{-n+1}.  The
determinant of Id + L(Id+K)^{-1} is cos^2(kt), reachable three ways:

  closed     cos^2(kt)
  product    prod_n (1 - 4 k^2 t^2 / ((2n-1)^2 pi^2))^2, truncated
  discrete   prod (1 - sigma^2) over the eigenvalues +-sigma of the discretized
             core, as fredholm.Resolvent reads it off its skew-circulant
             structure
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericFailureError
from .fredholm import Resolvent, refuse_overflow
from .grid import Grid, GridFunctionPair
from .operators import MagneticModel


@dataclass(frozen=True)
class SpectralReport:
    """Analytic vs. discrete spectrum of the symmetric core B."""

    analytic: np.ndarray          # positive-branch closed-form values, multiplicity 2 each
    discrete: np.ndarray          # all eigenvalues of B, sorted by descending |value|
    match_errors: np.ndarray      # per matched pair: relative error vs analytic value
    pair_gaps: np.ndarray         # per matched pair: relative in-pair spread
    matched_analytic: np.ndarray  # signed analytic value per pair
    matched_means: np.ndarray     # discrete pair means


@dataclass(frozen=True)
class DeterminantReport:
    closed: float
    product: float
    product_terms: int
    discrete: float
    discrepancies: dict


def analytic_eigenvalues(m: MagneticModel, count: int) -> np.ndarray:
    """Positive-branch eigenvalues 2kt/((2n-1)pi), n = 1..count."""
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    n = np.arange(1, count + 1)
    return 2.0 * m.k * m.t / ((2 * n - 1) * np.pi)


def analytic_eigenfunction(m: MagneticModel, n: int, c1: complex, c2: complex,
                           g: Grid) -> GridFunctionPair:
    """Closed-form eigenfunction c1 (cos, sin) + c2 (sin, -cos) at frequency 2k/lambda_n."""
    if n == 0:
        raise InvalidParameterError("eigenvalue index n must be nonzero")
    if c1 == 0 and c2 == 0:
        raise InvalidParameterError("coefficient pair must not be (0, 0)")
    # The frequency 2k/lambda_n = (2n-1) pi / t is k-independent and well
    # defined for either sign branch (n -> -n+1 flips lambda's sign only).
    freq = (2 * n - 1) * np.pi / m.t
    s = g.nodes
    comp1 = c1 * np.cos(freq * s) + c2 * np.sin(freq * s)
    comp2 = c1 * np.sin(freq * s) - c2 * np.cos(freq * s)
    return GridFunctionPair(grid=g, comp1=comp1.astype(complex), comp2=comp2.astype(complex))


def discrete_spectrum(m: MagneticModel, g: Grid, count: int = 10) -> SpectralReport:
    """Eigenvalues +-sigma of B with greedy multiplicity-2 matching.

    The discrete eigenvalues of k's sign are paired in descending
    magnitude, and pair j is matched against lambda_j.  B's spectrum is
    exactly +-sigma, so the opposite branch is the exact negation of this
    one: its pair j matches -lambda_j with the negated mean and the same
    errors, and the report interleaves the two.  ``count`` analytic values
    are matched on each branch, and a count below 1 is refused at every k.
    """
    analytic = analytic_eigenvalues(m, count)
    sigma = Resolvent.of(m, g).sigma
    eigs = np.concatenate([sigma, -sigma])
    discrete = eigs[np.argsort(-np.abs(eigs))]

    if m.k == 0:
        zeros = np.zeros(count * 2)     # analytic too: +0.0, also at k = -0.0
        return SpectralReport(analytic=zeros[:count], discrete=discrete,
                              match_errors=zeros, pair_gaps=zeros,
                              matched_analytic=zeros, matched_means=zeros)

    magnitudes = np.sort(np.abs(sigma[np.abs(sigma) > 0]))[::-1]
    if 2 * count > len(magnitudes):
        raise NumericFailureError(
            f"not enough discrete eigenvalues to match {count} analytic pairs")
    pairs = magnitudes[:2 * count].reshape(count, 2) * np.sign(m.k)
    means = pairs.mean(axis=1)
    errors = np.abs(means - analytic) / np.abs(analytic)
    gaps = np.abs(pairs[:, 0] - pairs[:, 1]) / np.abs(analytic)
    return SpectralReport(analytic=analytic, discrete=discrete,
                          match_errors=np.repeat(errors, 2), pair_gaps=np.repeat(gaps, 2),
                          matched_analytic=np.column_stack([analytic, -analytic]).ravel(),
                          matched_means=np.column_stack([means, -means]).ravel())


def determinant_closed(m: MagneticModel) -> float:
    return float(np.cos(m.k * m.t) ** 2)


def determinant_product(m: MagneticModel, n_max: int = 100_000) -> float:
    """Partial product of (1 - 4k^2t^2/((2n-1)^2 pi^2))^2 up to n_max; refused if it overflows."""
    if n_max < 1:
        raise InvalidParameterError(f"n_max must be >= 1, got {n_max}")
    factors = np.arange(1.0, 2.0 * n_max, 2.0)        # 2n - 1, in one buffer
    np.multiply(factors, np.pi, out=factors)
    np.divide(2.0 * m.k * m.t, factors, out=factors)
    np.subtract(1.0, np.square(factors, out=factors), out=factors)
    with refuse_overflow(f"the product to n_max = {n_max}"):
        return float(np.prod(factors) ** 2)


def determinant_report(m: MagneticModel, g: Grid, n_max: int = 100_000) -> DeterminantReport:
    closed = determinant_closed(m)
    product = determinant_product(m, n_max)
    discrete = Resolvent.of(m, g).determinant.real

    def _rel(a, b):
        scale = max(abs(a), abs(b), 1e-300)
        return abs(a - b) / scale

    discrepancies = {
        "closed_vs_product": _rel(closed, product),
        "closed_vs_discrete": _rel(closed, discrete),
        "product_vs_discrete": _rel(product, discrete),
    }
    return DeterminantReport(closed=closed, product=product,
                             product_terms=n_max, discrete=discrete,
                             discrepancies=discrepancies)
