"""End-to-end verification harness: ten named checks over the whole package.

Each check compares an independently computed quantity against a closed
form or a convergence-order gate and returns one row, a dict with the keys
``name``, ``passed`` (a bool), ``measured`` (a float), ``threshold`` and
``detail``; :func:`run_checks` adds each row's wall time as ``seconds``.
The harness is shared by ``hida-lab verify``, which prints the rows as
they are, and the acceptance tests; both take the checks and their sizes
from :func:`plan`.
"""

from __future__ import annotations

import time

import numpy as np

from .feynman import (composed_closed_value, free_limit_reference, magnetic_T,
                      printed_propagator_value, propagator, residual_convergence)
from .fredholm import caustic_check, gram_matrix, verify_preimage
from .gausskernels import FiniteRankKernel, donsker_T, montecarlo_gauss_expectation
from .grid import make_grid
from .operators import MagneticModel
from .spectral import determinant_report, discrete_spectrum
from .testfunctions import indicator_pair, random_suite

_SPECTRUM_PAIRS = 10            # leading analytic pairs of k's sign matched
_PRODUCT_TERMS = 100_000        # factors of the truncated determinant product


def _row(name: str, passed, measured, threshold: float, detail: str) -> dict:
    """One verify row, with passed as a bool and measured as a float whatever numpy gave."""
    return {"name": name, "passed": bool(passed), "measured": float(measured),
            "threshold": threshold, "detail": detail}


def convergence_orders(residuals) -> list:
    """Observed orders log2(r_i / r_(i+1)) between successive step halvings."""
    return [float(np.log2(residuals[i] / residuals[i + 1]))
            for i in range(len(residuals) - 1)]


def check_spectrum(n_grid: int) -> dict:
    """Discrete eigenvalue pairs of B vs 2kt/((2n-1)pi), multiplicity 2."""
    m = MagneticModel(k=1.0, t=1.0)
    rep = discrete_spectrum(m, make_grid(m.t, n_grid), count=_SPECTRUM_PAIRS)
    worst_match = float(rep["match_errors"].max())
    worst_gap = float(rep["pair_gaps"].max())
    passed = worst_match <= 1e-3 and worst_gap <= 1e-6
    return _row(
        name="spectrum_match", passed=passed, measured=worst_match, threshold=1e-3,
        detail=(f"{_SPECTRUM_PAIRS} leading pairs of k's sign at n_grid={n_grid}: "
                f"max relative error {worst_match:.3e} (<= 1e-3), "
                f"max in-pair gap {worst_gap:.3e} (<= 1e-6)"))


def check_determinant(n_grid: int) -> dict:
    """Closed cos^2(kt) vs truncated product vs discrete eigen-product."""
    worst_disc, worst_prod = 0.0, 0.0
    for k, t in ((1.0, 1.0), (0.5, 2.0), (0.3, 0.7)):
        rep = determinant_report(MagneticModel(k=k, t=t), make_grid(t, n_grid), _PRODUCT_TERMS)
        worst_disc = max(worst_disc, abs(rep["discrete"] - rep["closed"]))
        worst_prod = max(worst_prod, abs(rep["product"] - rep["closed"]))
    passed = worst_disc <= 1e-2 and worst_prod <= 1e-4
    return _row(
        name="determinant_three_way", passed=passed, measured=worst_disc,
        threshold=1e-2,
        detail=(f"three (k,t) points at n_grid={n_grid}: "
                f"max |discrete - cos^2| {worst_disc:.3e} (<= 1e-2), "
                f"max |product({_PRODUCT_TERMS}) - cos^2| {worst_prod:.3e} (<= 1e-4)"))


def check_preimage(sizes) -> dict:
    """Closed preimage residual, solve agreement, and residual order."""
    m = MagneticModel(k=1.0, t=1.0)
    reports = [verify_preimage(m, make_grid(m.t, n)) for n in sizes]
    residuals = [rep["residual_sup_f"] for rep in reports]
    orders = convergence_orders(residuals)
    gap = reports[-1]["solve_vs_closed_sup"]

    passed = residuals[-1] <= 1e-3 and gap <= 1e-3 and min(orders) >= 1.9
    return _row(
        name="preimage_residual", passed=passed, measured=residuals[-1],
        threshold=1e-3,
        detail=(f"sup residual at n_grid={sizes[-1]}: {residuals[-1]:.3e} (<= 1e-3), "
                f"solve-vs-closed gap {gap:.3e} (<= 1e-3), "
                f"orders over {sizes}: {[round(o, 3) for o in orders]} (each >= 1.9)"))


def check_gram(n_grid: int) -> dict:
    """Gram matrix of the pinning directions vs (i/k) tan(kt) Id."""
    m = MagneticModel(k=1.0, t=1.0)
    g = make_grid(m.t, n_grid)
    entries = gram_matrix(m, g, [indicator_pair(g, 1), indicator_pair(g, 2)])
    re_max = float(np.abs(entries.real).max())
    off = float(abs(entries[0, 1]))
    diag_err = float(abs(entries[0, 0] - 1j * np.tan(1.0)))
    passed = re_max <= 1e-8 and off <= 1e-4 and diag_err <= 1e-4
    return _row(
        name="gram_matrix", passed=passed, measured=diag_err, threshold=1e-4,
        detail=(f"n_grid={n_grid}: max|Re M| {re_max:.3e} (<= 1e-8), "
                f"|M12| {off:.3e} (<= 1e-4), "
                f"|M11 - i tan(1)| {diag_err:.3e} (<= 1e-4)"))


def check_two_path(n_grid: int, seed: int = 777) -> dict:
    """Closed-form vs structured numeric T-transform on seeded test functions.

    The two routes share no solve: the structured route (:func:`propagator`
    with f) takes N^{-1} f from the skew-circulant FFT solve of the discrete
    N, the closed route (:func:`magnetic_T`) from the continuum Green's
    function, and its determinant and Gram matrix in closed form.
    The dense oracle is held to the structured route in the tests.
    """
    m = MagneticModel(k=1.0, t=1.0)
    g = make_grid(m.t, n_grid)
    y = (0.3, -0.4)
    worst = 0.0
    for f in random_suite(seed, 5, g):
        numeric = propagator(m, y, n_grid=n_grid, f=f).value
        closed = magnetic_T(m, y, f=f).value
        worst = max(worst, abs(closed - numeric) / abs(numeric))
    passed = worst <= 1e-3
    return _row(
        name="two_path_consistency", passed=passed, measured=worst, threshold=1e-3,
        detail=(f"5 seeded Gaussian test functions at n_grid={n_grid}, y={y}: "
                f"structured (FFT N^-1) vs closed (continuum Green's function) "
                f"max relative gap {worst:.3e} (<= 1e-3)"))


def check_free_limit(n_grid: int) -> dict:
    """Composed propagator converges to the free propagator as k -> 0."""
    y = (1.0, 0.0)
    free = free_limit_reference(1.0, y)
    gaps = []
    for k in (1e-2, 1e-3, 1e-4):
        value = propagator(MagneticModel(k=k, t=1.0), y, n_grid=n_grid).value
        gaps.append(abs(value - free) / abs(free))
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    passed = gaps[-1] <= 1e-3 and monotone
    return _row(
        name="free_limit", passed=passed, measured=gaps[-1], threshold=1e-3,
        detail=(f"relative gaps at k=1e-2/1e-3/1e-4: "
                f"{[f'{g:.3e}' for g in gaps]}; final <= 1e-3, "
                f"monotone decrease: {monotone}"))


def check_gauss_identity(samples: int, seed: int = 2024) -> dict:
    """Monte Carlo E[exp(-<w,Kw>)] = det(Id+2K)^{-1/2} for rank-1 K = -1/8, where the
    integrand has finite variance: E[exp(-2K z^2)] = (1 + 4K)^{-1/2} needs 1 + 4K > 0."""
    kernel = FiniteRankKernel(eigenvalues=np.array([-0.125]))
    est1 = montecarlo_gauss_expectation(kernel, samples, seed)
    est2 = montecarlo_gauss_expectation(kernel, samples, seed)
    sigmas = abs(est1["mean"] - est1["exact"]) / est1["std_error"]
    reproducible = est1 == est2
    passed = sigmas <= 3.0 and reproducible and abs(est1["exact"] - 2.0 / np.sqrt(3.0)) < 1e-12
    return _row(
        name="gauss_determinant_identity", passed=passed, measured=sigmas,
        threshold=3.0,
        detail=(f"{samples} samples, seed {seed}: mean {est1['mean']:.6f} vs 2/sqrt(3), "
                f"{sigmas:.2f} standard errors (<= 3), "
                f"bit-reproducible: {reproducible}"))


def check_delta_normalization() -> dict:
    """x-integral of the pinned-delta T-transform at f = 0 equals 1.

    The integrand is the unit Gaussian exp(-x^2/2)/sqrt(2 pi), summed by the
    trapezoidal rule with step h over [-40, 40].  By Poisson summation the
    rule on the whole line errs by the Fourier transform exp(-w^2/2) sampled
    at w = 2 pi j / h, j != 0, i.e. by about 2 exp(-2 pi^2 / h^2), which is
    exp(-1974) at h = 0.1 (Trefethen & Weideman, SIAM Rev. 56, 2014); the
    mass beyond |x| = 40 is below exp(-800).  Both vanish in double
    precision, so the measured error is rounding alone, while a wrong
    normalization or variance shifts the integral by its own relative size.
    """
    x, h = np.linspace(-40.0, 40.0, 801, retstep=True)
    values = donsker_T(1.0, 0.0, 0.0, x).real
    integral = h * (values.sum() - 0.5 * (values[0] + values[-1]))
    err = float(abs(integral - 1.0))
    return _row(
        name="delta_normalization", passed=err <= 1e-6, measured=err,
        threshold=1e-6,
        detail=(f"trapezoidal sum, h = {h:g} on [-40, 40]: "
                f"|integral - 1| = {err:.3e} (<= 1e-6)"))


def check_caustics(n_grid: int, points: int) -> dict:
    """Exact caustic flags plus propagator growth approaching kt = pi.

    The magnitude of the composed value at y = 0 is k / (2 pi |sin(kt)|), so
    over kt in [2.8, 3.1] it grows by sin(2.8) / sin(3.1) ~ 8.056.  The
    measured growth must match that closed-form growth to a relative
    tolerance of 2h, with h = t_max / n_grid the largest grid step in the
    window: the numeric route's relative error at each kt is first order,
    between -2h and 0, so the ratio of two such values is off by at most 2h.
    The magnitudes must also rise monotonically.
    """
    flag_pi = caustic_check(MagneticModel(k=1.0, t=np.pi))["classification"]
    flag_half = caustic_check(MagneticModel(k=1.0, t=np.pi / 2.0))["classification"]
    flags_ok = flag_pi == "integer_caustic" and flag_half == "half_integer_caustic"

    kts = np.linspace(2.8, 3.1, points)
    mags = [abs(propagator(MagneticModel(k=1.0, t=float(kt)), (0.0, 0.0),
                           n_grid=n_grid).value) for kt in kts]
    monotone = all(mags[i + 1] > mags[i] for i in range(len(mags) - 1))
    growth = mags[-1] / mags[0]
    closed_growth = abs(np.sin(kts[0])) / abs(np.sin(kts[-1]))
    gap = abs(growth / closed_growth - 1.0)
    tol = 2.0 * kts[-1] / n_grid
    passed = flags_ok and monotone and gap <= tol
    return _row(
        name="caustic_behavior", passed=passed, measured=gap,
        threshold=float(tol),
        detail=(f"flags: kt=pi -> {flag_pi}, kt=pi/2 -> {flag_half}; "
                f"|propagator| over kt in [2.8, 3.1] at n_grid={n_grid}: "
                f"monotone {monotone}, growth {growth:.3f}x vs closed-form "
                f"{closed_growth:.3f}x, relative gap {gap:.3e} (<= 2h = {tol:.3e})"))


def check_schrodinger() -> dict:
    """Finite-difference residual convergence adjudicates the conventions.

    The free (k = 0) composed value must satisfy the free equation at order
    >= 1.9; at k = 0.5 exactly one phase-sign convention may converge, and
    the report records which, together with the composed and as-quoted
    values and their disagreement.
    """
    free_order = convergence_orders(residual_convergence(MagneticModel(k=0.0, t=1.0)))[-1]

    m = MagneticModel(k=0.5, t=1.0)
    verdicts = {}
    for convention in ("composed", "printed"):
        verdicts[convention] = convergence_orders(
            residual_convergence(m, convention=convention))[-1]
    converging = [c for c, order in verdicts.items() if order >= 1.9]

    y = (0.3, -0.4)
    composed = composed_closed_value(m, y)
    printed = printed_propagator_value(m, y)
    gap = abs(composed - printed)

    passed = free_order >= 1.9 and converging == ["composed"]
    return _row(
        name="schrodinger_residual", passed=passed, measured=free_order,
        threshold=1.9,
        detail=(f"free-case finest order {free_order:.3f} (>= 1.9); "
                f"k=0.5 orders: composed {verdicts['composed']:.3f}, "
                f"printed {verdicts['printed']:.3f}; converging convention: "
                f"{converging}; composed value {composed:.6g}, "
                f"as-quoted value {printed:.6g}, disagreement {gap:.3e}"))


def plan(quick: bool = False, seed: int = 777) -> list:
    """The ten checks in ``verify``'s order, each with its arguments: the one place
    that sizes them.  ``quick`` shrinks grids; the full sizes are the acceptance gate's."""
    n_grid = 1000 if quick else 2000
    sizes = (250, 500, 1000) if quick else (500, 1000, 2000)
    samples = 20_000 if quick else 100_000
    return [
        (check_spectrum, {"n_grid": n_grid}),
        (check_determinant, {"n_grid": n_grid}),
        (check_preimage, {"sizes": sizes}),
        (check_gram, {"n_grid": n_grid}),
        (check_two_path, {"n_grid": n_grid, "seed": seed}),
        (check_free_limit, {"n_grid": 300 if quick else 600}),
        (check_gauss_identity, {"samples": samples}),
        (check_delta_normalization, {}),
        (check_caustics, {"n_grid": 200 if quick else 400, "points": 5 if quick else 7}),
        (check_schrodinger, {}),
    ]


def run_checks(quick: bool = False, seed: int = 777) -> list:
    """The rows of :func:`plan`'s checks, in order, each with its wall time as ``seconds``."""
    rows = []
    for check, kwargs in plan(quick, seed):
        start = time.perf_counter()
        rows.append(check(**kwargs))
        rows[-1]["seconds"] = time.perf_counter() - start
    return rows
