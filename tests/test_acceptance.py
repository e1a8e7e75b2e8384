"""Acceptance gate: the ten end-to-end checks at full problem sizes.

Each test runs one named check from :mod:`hida_lab.verification` with the
arguments that ``plan(quick=False)`` gives it, the sizes of a full
``hida-lab verify``, prints a single pass/fail line with the measured value,
and asserts the verdict.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines live.
"""

import sys

from hida_lab import verification as v

FULL_SIZE = dict(v.plan(quick=False))


def _report(check):
    result = check(**FULL_SIZE[check])
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[{status}] {result['name']}: {result['detail']}", file=sys.stderr)
    assert result["passed"], result["detail"]


def test_criterion_spectrum_match():
    _report(v.check_spectrum)


def test_criterion_determinant_three_way():
    _report(v.check_determinant)


def test_criterion_preimage_residual():
    _report(v.check_preimage)


def test_criterion_gram_matrix():
    _report(v.check_gram)


def test_criterion_two_path_consistency():
    _report(v.check_two_path)


def test_criterion_free_limit():
    _report(v.check_free_limit)


def test_criterion_gauss_determinant_identity():
    _report(v.check_gauss_identity)


def test_criterion_delta_normalization():
    _report(v.check_delta_normalization)


def test_criterion_caustic_behavior():
    # The closed-form magnitude scales as 1/|sin(kt)|, so the growth over
    # kt in [2.8, 3.1] must match sin(2.8)/sin(3.1) ~ 8.056 to within 2h;
    # the caustic flags and the monotone rise are checked as well.
    _report(v.check_caustics)


def test_criterion_schrodinger_residual():
    _report(v.check_schrodinger)
