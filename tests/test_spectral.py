"""Closed-form spectrum, eigenfunctions, and the three determinant routes."""

import numpy as np
import pytest

from hida_lab import (InvalidParameterError, MagneticModel, NumericFailureError,
                      analytic_eigenvalues, build_N, determinant_closed, determinant_product,
                      determinant_report, discrete_spectrum)
from hida_lab.fredholm import Resolvent
from hida_lab.grid import GridFunctionPair, make_grid
from hida_lab.operators import symmetric_core

M11 = MagneticModel(k=1.0, t=1.0)


def test_analytic_eigenvalues_leading_terms():
    vals = analytic_eigenvalues(M11, 3)
    np.testing.assert_allclose(vals, [2 / np.pi, 2 / (3 * np.pi), 2 / (5 * np.pi)])


def test_analytic_eigenvalues_scale_with_kt():
    np.testing.assert_allclose(analytic_eigenvalues(MagneticModel(k=0.5, t=2.0), 4),
                               analytic_eigenvalues(M11, 4))


def test_analytic_eigenvalues_rejects_bad_count():
    with pytest.raises(InvalidParameterError):
        analytic_eigenvalues(M11, 0)


def analytic_eigenfunction(m, n, c1, c2, g):
    """Closed-form eigenfunction c1 (cos, sin) + c2 (sin, -cos) at frequency 2k/lambda_n.

    The frequency 2k/lambda_n = (2n-1) pi / t is k-independent and well
    defined for either sign branch (n -> -n+1 flips lambda's sign only).
    """
    freq = (2 * n - 1) * np.pi / m.t
    s = g.nodes
    comp1 = c1 * np.cos(freq * s) + c2 * np.sin(freq * s)
    comp2 = c1 * np.sin(freq * s) - c2 * np.cos(freq * s)
    return GridFunctionPair(grid=g, comp1=comp1.astype(complex), comp2=comp2.astype(complex))


@pytest.mark.parametrize("n,c1,c2", [(1, 1.0, 0.0), (1, 0.0, 1.0), (2, 1.0, 2.0)])
def test_eigenfunction_satisfies_eigen_equation(n, c1, c2):
    """B phi = lambda phi up to quadrature error; both basis directions."""
    g = make_grid(1.0, 1200)
    phi = analytic_eigenfunction(M11, n, c1, c2, g)
    lam = 2.0 / ((2 * n - 1) * np.pi)
    out = symmetric_core(M11, g) @ phi.as_vector()
    np.testing.assert_allclose(out, lam * phi.as_vector(), atol=5e-4)


def test_discrete_spectrum_matches_and_pairs():
    rep = discrete_spectrum(M11, make_grid(1.0, 600), count=5)
    assert rep["match_errors"].max() < 1e-3
    assert rep["pair_gaps"].max() < 1e-9      # multiplicity 2 is structural
    # The discrete eigenvalues come in exact +- pairs.
    np.testing.assert_array_equal(np.sort(rep["discrete"]), np.sort(-rep["discrete"]))


def test_discrete_spectrum_zero_coupling():
    rep = discrete_spectrum(MagneticModel(k=0.0, t=1.0), make_grid(1.0, 50), count=3)
    assert np.abs(rep["discrete"]).max() == 0.0
    assert np.all(rep["match_errors"] == 0)


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_discrete_spectrum_rejects_bad_count_at_every_coupling(k):
    with pytest.raises(InvalidParameterError, match="count must be >= 1"):
        discrete_spectrum(MagneticModel(k=k, t=1.0), make_grid(1.0, 50), count=0)


@pytest.mark.parametrize("k", [1.0, -1.0])
def test_discrete_spectrum_matches_at_most_n_over_2_pairs(k):
    """n = 10 nodes give 2n = 20 eigenvalues, 10 per sign branch: five
    pairs of k's branch are matched and a sixth is refused."""
    m, g = MagneticModel(k=k, t=1.0), make_grid(1.0, 10)
    assert len(discrete_spectrum(m, g, count=5)["match_errors"]) == 5
    with pytest.raises(NumericFailureError, match="not enough discrete eigenvalues"):
        discrete_spectrum(m, g, count=6)


def _two_branch_matcher(m, sigma, analytic):
    """The matcher discrete_spectrum had before it read one branch: both
    sign branches of +-sigma sorted and matched apart, pair by pair."""
    eigs = np.concatenate([sigma, -sigma])
    discrete = eigs[np.argsort(-np.abs(eigs))]
    sign = 1.0 if m.k > 0 else -1.0
    pos = np.sort(discrete[discrete * sign > 0] * sign)[::-1] * sign
    neg = np.sort(-discrete[discrete * sign < 0] * sign)[::-1] * (-sign)
    matched_analytic, matched_means, errors, gaps = [], [], [], []
    for j, lam in enumerate(analytic):
        for branch, target in ((pos, lam), (neg, -lam)):
            if 2 * j + 2 > len(branch):
                raise NumericFailureError(
                    f"not enough discrete eigenvalues to match {len(analytic)} analytic pairs")
            pair_vals = branch[2 * j: 2 * j + 2]
            mean = pair_vals.mean()
            matched_analytic.append(target)
            matched_means.append(mean)
            errors.append(abs(mean - target) / abs(target))
            gaps.append(abs(pair_vals[0] - pair_vals[1]) / abs(target))
    return discrete, [np.array(v) for v in (errors, gaps, matched_analytic, matched_means)]


@pytest.mark.parametrize("k,t", [(1.0, 1.0), (-0.7, 2.5), (2.3, 0.3), (-3.0, 1.0), (0.01, 2.5)])
@pytest.mark.parametrize("n", [7, 8, 40, 41])
def test_one_branch_matcher_is_the_two_branch_matcher_bit_for_bit(k, t, n):
    """B's eigenvalues are exactly +-sigma, so the branch of k's sign is the
    two-branch matcher's even entries, its odd entries are exact copies
    (errors, gaps) or negations (analytic values, means) of them, and the
    refusal comes one pair past n/2 on both."""
    m, g = MagneticModel(k=k, t=t), make_grid(t, n)
    sigma = Resolvent.of(m, g).sigma
    for count in range(1, n // 2 + 1):
        rep = discrete_spectrum(m, g, count=count)
        discrete, arrays = _two_branch_matcher(m, sigma, analytic_eigenvalues(m, count))
        np.testing.assert_array_equal(rep["discrete"], discrete, strict=True)
        for got, want, sign in zip((rep["match_errors"], rep["pair_gaps"], rep["analytic"],
                                    rep["matched_means"]), arrays, (1, 1, -1, -1)):
            for branch, expected in ((want[0::2], got), (want[1::2], sign * got)):
                np.testing.assert_array_equal(branch, expected, strict=True)
                assert np.array_equal(np.signbit(branch), np.signbit(expected))
    count = n // 2 + 1
    with pytest.raises(NumericFailureError, match="not enough discrete eigenvalues"):
        _two_branch_matcher(m, sigma, analytic_eigenvalues(m, count))
    with pytest.raises(NumericFailureError, match="not enough discrete eigenvalues"):
        discrete_spectrum(m, g, count=count)


def test_determinant_closed_value():
    assert determinant_closed(M11) == pytest.approx(np.cos(1.0) ** 2)
    assert determinant_closed(M11) == pytest.approx(0.2919265817264289)


def test_determinant_product_first_factor():
    one_term = determinant_product(M11, n_max=1)
    assert one_term == pytest.approx((1.0 - 4.0 / np.pi ** 2) ** 2)
    with pytest.raises(InvalidParameterError):
        determinant_product(M11, n_max=0)


def test_determinant_product_converges_to_closed():
    closed = determinant_closed(M11)
    errs = [abs(determinant_product(M11, n) - closed) for n in (100, 1000, 10000)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-4


def test_determinant_discrete_equals_det_of_N_up_to_phase():
    """The report's discrete prod(1 - sigma_j^2) = det(Id + B) = det(iN) on the grid."""
    g = make_grid(1.0, 80)
    disc = determinant_report(M11, g, n_max=1)["discrete"]
    det_in = np.linalg.det(1j * build_N(M11, g).entries)
    assert disc == pytest.approx(det_in.real, rel=1e-10)
    assert abs(det_in.imag) < 1e-10 * abs(det_in.real)


def test_determinant_report_three_way_consistency():
    rep = determinant_report(M11, make_grid(1.0, 800), n_max=50_000)
    assert rep["discrepancies"]["closed_vs_product"] < 1e-4
    assert rep["discrepancies"]["closed_vs_discrete"] < 2e-3
    assert rep["closed"] == pytest.approx(np.cos(1.0) ** 2)
