"""Spectrum of L(Id+K)^{-1} and the three-way Fredholm determinant.

The closed-form eigenvalues are lambda_n = 2kt / ((2n-1) pi), n in Z, each
with multiplicity 2 and the symmetry lambda_n = -lambda_{-n+1}.  The
determinant of Id + L(Id+K)^{-1} is cos^2(kt), reachable three ways:

  closed     cos^2(kt)
  product    prod_n (1 - 4 k^2 t^2 / ((2n-1)^2 pi^2))^2, truncated
  discrete   prod (1 - sigma^2) over the eigenvalues +-sigma of the discretized
             core, as fredholm.Resolvent reads it off its skew-circulant
             structure

Both reports are dicts that the CLI prints as they are, with the keys analytic,
discrete, match_errors, pair_gaps and matched_means (:func:`discrete_spectrum`)
and closed, product, discrete and discrepancies (:func:`determinant_report`).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NumericFailureError
from .fredholm import Resolvent, refuse_overflow
from .grid import Grid
from .operators import MagneticModel


def analytic_eigenvalues(m: MagneticModel, count: int) -> np.ndarray:
    """Positive-branch eigenvalues 2kt/((2n-1)pi), n = 1..count."""
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    n = np.arange(1, count + 1)
    return 2.0 * m.k * m.t / ((2 * n - 1) * np.pi)


def discrete_spectrum(m: MagneticModel, g: Grid, count: int = 10) -> dict:
    """Eigenvalues +-sigma of B with greedy multiplicity-2 matching: the discrete
    eigenvalues of k's sign are paired in descending magnitude, and pair j is
    matched against lambda_j.  The report holds

      analytic        positive-branch closed-form values, multiplicity 2 each
      discrete        all eigenvalues of B, sorted by descending |value|
      match_errors    per analytic value: relative error of its pair's mean
      pair_gaps       per analytic value: relative in-pair spread
      matched_means   per analytic value: its discrete pair's mean

    so the last three are index-aligned with ``analytic``.  B's spectrum is
    exactly +-sigma, so the opposite branch is the exact negation of this one,
    with the same errors and gaps, and is not reported apart.  A count below 1
    is refused at every k.
    """
    sigma = Resolvent.of(m, g).sigma
    analytic = analytic_eigenvalues(m, count)
    eigs = np.concatenate([sigma, -sigma])
    discrete = eigs[np.argsort(-np.abs(eigs))]

    if m.k == 0:
        zeros = np.zeros(count)         # analytic too: +0.0, also at k = -0.0
        return {"analytic": zeros, "discrete": discrete, "match_errors": zeros,
                "pair_gaps": zeros, "matched_means": zeros}

    magnitudes = np.sort(np.abs(sigma[np.abs(sigma) > 0]))[::-1]
    if 2 * count > len(magnitudes):
        raise NumericFailureError(
            f"not enough discrete eigenvalues to match {count} analytic pairs")
    pairs = magnitudes[:2 * count].reshape(count, 2) * np.sign(m.k)
    means = pairs.mean(axis=1)
    errors = np.abs(means - analytic) / np.abs(analytic)
    gaps = np.abs(pairs[:, 0] - pairs[:, 1]) / np.abs(analytic)
    return {"analytic": analytic, "discrete": discrete, "match_errors": errors,
            "pair_gaps": gaps, "matched_means": means}


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


def determinant_report(m: MagneticModel, g: Grid, n_max: int = 100_000) -> dict:
    """The determinant three ways, ``closed``, ``product`` (to n_max) and
    ``discrete``, with their pairwise relative ``discrepancies``
    (``closed_vs_product``, ``closed_vs_discrete``, ``product_vs_discrete``)."""
    res = Resolvent.of(m, g)
    closed, product = determinant_closed(m), determinant_product(m, n_max)
    discrete = res.determinant.real

    def _rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    return {"closed": closed, "product": product, "discrete": discrete,
            "discrepancies": {"closed_vs_product": _rel(closed, product),
                              "closed_vs_discrete": _rel(closed, discrete),
                              "product_vs_discrete": _rel(product, discrete)}}
