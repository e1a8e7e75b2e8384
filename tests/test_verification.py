"""The gates of ``check_caustics`` and ``check_delta_normalization``, pinned with
stubs, and the checks ``verify`` runs, by name and in order.

Each gate test replaces the function a check measures by a stub whose value
is exact or off by a known amount, so the gate is tested on its own and no
dense operator is built.  The Monte Carlo gate of ``check_gauss_identity``
is held to its calibration over many seeds instead.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from hida_lab import verification as v
from hida_lab.gausskernels import donsker_T


def _stub(magnitude):
    def propagator(m, y, n_grid):
        return SimpleNamespace(value=magnitude(m.k, m.k * m.t))
    return propagator


def _closed(k, kt):
    return k / (2.0 * np.pi * 1j * np.sin(kt))


@pytest.mark.parametrize("n_grid, points", [(200, 5), (400, 7)])
def test_closed_form_growth_passes(monkeypatch, n_grid, points):
    monkeypatch.setattr(v, "propagator", _stub(_closed))
    r = v.check_caustics(n_grid=n_grid, points=points)
    assert r.passed, r.detail
    assert r.measured < 1e-12
    assert r.threshold == pytest.approx(2.0 * 3.1 / n_grid)
    assert "8.056x" in r.detail


@pytest.mark.parametrize("n_grid, points", [(200, 5), (400, 7)])
def test_inverse_sine_squared_growth_fails(monkeypatch, n_grid, points):
    monkeypatch.setattr(v, "propagator",
                        _stub(lambda k, kt: k / np.sin(kt) ** 2))
    r = v.check_caustics(n_grid=n_grid, points=points)
    assert not r.passed
    assert "monotone True" in r.detail
    assert r.measured > r.threshold


def test_inverse_distance_to_pi_growth_fails_at_400(monkeypatch):
    # growth (pi - 2.8)/(pi - 3.1) ~ 8.213, 1.9 % above the closed form
    monkeypatch.setattr(v, "propagator",
                        _stub(lambda k, kt: 1.0 / (np.pi - kt)))
    r = v.check_caustics(n_grid=400, points=7)
    assert not r.passed
    assert "monotone True" in r.detail
    assert r.measured == pytest.approx(0.0194, abs=1e-4)
    assert r.measured > r.threshold


def test_printed_cos_prefactor_fails_as_not_monotone(monkeypatch):
    monkeypatch.setattr(v, "propagator",
                        _stub(lambda k, kt: k / (2.0 * np.pi * 1j * np.cos(kt))))
    r = v.check_caustics(n_grid=400, points=7)
    assert not r.passed
    assert "monotone False" in r.detail


def test_dip_with_exact_endpoint_growth_fails(monkeypatch):
    # right growth end to end, but the magnitude falls inside the window
    def dipped(k, kt):
        return _closed(k, kt) * (1.0 - 0.9 * np.sin(np.pi * (kt - 2.8) / 0.3) ** 2)

    monkeypatch.setattr(v, "propagator", _stub(dipped))
    r = v.check_caustics(n_grid=400, points=7)
    assert not r.passed
    assert "monotone False" in r.detail
    assert r.measured <= r.threshold


def test_swapped_caustic_flag_fails(monkeypatch):
    def swapped(m):
        kt = m.k * m.t
        label = ("half_integer_caustic" if abs(kt - np.pi) < 1e-12
                 else "integer_caustic")
        return {"classification": label, "kt": kt, "distance": 0.0}

    monkeypatch.setattr(v, "propagator", _stub(_closed))
    monkeypatch.setattr(v, "caustic_check", swapped)
    r = v.check_caustics(n_grid=400, points=7)
    assert not r.passed
    assert "kt=pi -> half_integer_caustic" in r.detail
    assert r.measured <= r.threshold


def test_delta_normalization_passes_at_rounding_level():
    r = v.check_delta_normalization()
    assert r.passed, r.detail
    assert r.measured <= 1e-12
    assert r.threshold == 1e-6


def _scaled_density(eta, c, f, x):
    return (1.0 + 1e-5) * donsker_T(eta, c, f, x)


def _widened_density(eta, c, f, x):
    # variance times 1 + 1e-5 under the old normalization: integral sqrt(1 + 1e-5)
    return np.sqrt(1.0 + 1e-5) * donsker_T((1.0 + 1e-5) * eta, c, f, x)


@pytest.mark.parametrize("stub, expected", [(_scaled_density, 1e-5),
                                            (_widened_density, np.sqrt(1.0 + 1e-5) - 1.0)])
def test_delta_normalization_fails_a_density_off_by_1e5(monkeypatch, stub, expected):
    monkeypatch.setattr(v, "donsker_T", stub)
    r = v.check_delta_normalization()
    assert not r.passed
    assert r.measured == pytest.approx(expected, rel=1e-6)


def test_gauss_identity_gate_holds_for_every_seed_0_to_299():
    """The integrand exp(z^2/8) of K = -1/8 has finite variance, so the
    3-standard-error gate does not hang on the seed: the largest of these
    300 seeds reads 2.56 standard errors at 20 000 samples.  At K = -1/4
    (infinite variance) two of them read above 3 (worst 3.76, seed 78)."""
    worst = max(v.check_gauss_identity(samples=20_000, seed=seed).measured
                for seed in range(300))
    assert worst <= 3.0


def test_quick_and_full_plans_run_the_same_checks_in_the_same_order():
    assert [check for check, _ in v.plan(quick=True)] == \
        [check for check, _ in v.plan(quick=False)]


def test_verify_rows_are_the_ten_checks_in_order():
    assert [row.name for row in v.run_checks(quick=True)] == [
        "spectrum_match", "determinant_three_way", "preimage_residual", "gram_matrix",
        "two_path_consistency", "free_limit", "gauss_determinant_identity",
        "delta_normalization", "caustic_behavior", "schrodinger_residual"]
