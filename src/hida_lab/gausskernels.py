"""Finite-rank Gauss-kernel machinery and its Monte Carlo cross-check.

The infinite-dimensional Gaussian measure only ever enters through
finite-rank functionals: coordinates along an eigenbasis are i.i.d.
standard normals, which is exactly the finite truncation of the limit
procedure defining quadratic forms on distributions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class FiniteRankKernel:
    """Finite-rank symmetric kernel given by its eigenvalues, each in (-1/2, 0]."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        if np.any(vals <= -0.5) or np.any(vals > 0):
            raise InvalidParameterError(
                f"kernel eigenvalues must lie in (-1/2, 0], got {vals}")

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)


def donsker_T(eta_norm_sq: float, eta_dot_f: complex, f_norm_sq: complex,
              x: float) -> complex:
    """T-transform of Donsker's delta pinned at x.

    1/sqrt(2 pi <eta,eta>) * exp(-(i<eta,f> - x)^2 / (2<eta,eta>) - <f,f>/2)
    """
    if not eta_norm_sq > 0:
        raise InvalidParameterError(f"<eta,eta> must be positive, got {eta_norm_sq}")
    quad = -((1j * eta_dot_f - x) ** 2) / (2.0 * eta_norm_sq) - 0.5 * f_norm_sq
    return np.exp(quad) / np.sqrt(2.0 * np.pi * eta_norm_sq)


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    exact: float


def montecarlo_gauss_expectation(kernel: FiniteRankKernel, samples: int,
                                 seed: int) -> MonteCarloEstimate:
    """Seeded Monte Carlo check of E[exp(-<w, K w>)] = det(Id + 2K)^{-1/2}.

    Box-Muller normals from 53-bit uniforms, the bytes of random.Random(seed)
    read as little-endian uint64; numpy.random is never loaded.
    """
    if samples < 100:
        raise InvalidParameterError(f"need at least 100 samples, got {samples}")
    raw = random.Random(seed).randbytes(16 * samples * kernel.rank)
    u = (np.frombuffer(raw, dtype="<u8") >> 11).reshape(2, samples, kernel.rank) * 2.0 ** -53
    z = np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1])   # log(1 - u), u < 1
    vals = np.exp(-(z ** 2) @ kernel.eigenvalues)
    mean = float(vals.mean())
    std_error = float(vals.std(ddof=1) / np.sqrt(samples)) if kernel.rank else 0.0
    exact = float(np.prod(1.0 + 2.0 * kernel.eigenvalues) ** (-0.5))
    return MonteCarloEstimate(mean=mean, std_error=std_error, exact=exact)
