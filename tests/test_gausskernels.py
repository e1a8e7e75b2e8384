"""Donsker's delta T-transform and the Monte Carlo determinant identity."""

import numpy as np
import pytest
from scipy.integrate import quad

from hida_lab import (FiniteRankKernel, InvalidParameterError, donsker_T,
                      montecarlo_gauss_expectation)


def test_kernel_validates_eigenvalue_range():
    FiniteRankKernel(eigenvalues=np.array([-0.25, -0.4, 0.0]))
    with pytest.raises(InvalidParameterError):
        FiniteRankKernel(eigenvalues=np.array([-0.5]))
    with pytest.raises(InvalidParameterError):
        FiniteRankKernel(eigenvalues=np.array([0.1]))


def test_donsker_T_peak_value():
    assert donsker_T(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))


def test_donsker_T_is_gaussian_in_x():
    # With f = 0 the transform is the standard normal density in x.
    for x in (0.0, 0.5, -1.3):
        expected = np.exp(-x ** 2 / 2.0) / np.sqrt(2 * np.pi)
        assert donsker_T(1.0, 0.0, 0.0, x) == pytest.approx(expected)


def test_donsker_T_integrates_to_one():
    integral, _ = quad(lambda x: donsker_T(1.0, 0.0, 0.0, x).real, -np.inf, np.inf)
    assert integral == pytest.approx(1.0, abs=1e-9)


def test_donsker_T_rejects_nonpositive_variance():
    with pytest.raises(InvalidParameterError):
        donsker_T(0.0, 0.0, 0.0, 0.0)


def test_montecarlo_matches_determinant_identity():
    kernel = FiniteRankKernel(eigenvalues=np.array([-0.25]))
    est = montecarlo_gauss_expectation(kernel, samples=100_000, seed=42)
    assert est["exact"] == pytest.approx(np.sqrt(2.0))
    assert abs(est["mean"] - est["exact"]) < 3.0 * est["std_error"]


def test_montecarlo_is_bit_reproducible():
    kernel = FiniteRankKernel(eigenvalues=np.array([-0.1, -0.3]))
    a = montecarlo_gauss_expectation(kernel, samples=5000, seed=9)
    b = montecarlo_gauss_expectation(kernel, samples=5000, seed=9)
    assert a["mean"] == b["mean"] and a["std_error"] == b["std_error"]
    c = montecarlo_gauss_expectation(kernel, samples=5000, seed=10)
    assert c["mean"] != a["mean"]


def test_montecarlo_rejects_tiny_sample_counts():
    kernel = FiniteRankKernel(eigenvalues=np.array([-0.25]))
    with pytest.raises(InvalidParameterError):
        montecarlo_gauss_expectation(kernel, samples=10, seed=1)
