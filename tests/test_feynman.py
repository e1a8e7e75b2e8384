"""T-transform composition, propagator values, caustics, residual checks."""

import gc
import tracemalloc

import numpy as np
import pytest

from hida_lab import (CausticClassification, CausticError, InvalidParameterError,
                      MagneticModel, TTransformReport, caustic_check, composed_closed_value,
                      free_limit_reference, magnetic_T, printed_propagator_value,
                      propagator, residual_convergence, schrodinger_residual)
from hida_lab.errors import (ConditionViolationError, NearSingularError,
                             NumericFailureError)
from hida_lab import feynman, fredholm
from hida_lab.feynman import LemmaEvaluator, _closed_form_coefficients
from hida_lab.gausskernels import donsker_T
from hida_lab.grid import GridFunctionPair, make_grid, pair, sample
from hida_lab.operators import BlockOperator, free_K, magnetic_L, symmetric_core
from hida_lab.testfunctions import indicator_pair, random_suite

M11 = MagneticModel(k=1.0, t=1.0)


def _zero_op(g):
    return BlockOperator(grid=g, entries=np.zeros((2 * g.n, 2 * g.n), dtype=complex))


def _bump(g, center, width):
    """(exp(-((s - center) / width)^2), 0) on the grid."""
    return sample(lambda s: np.exp(-((s - center) / width) ** 2), 0.0, g)


# ---------------------------------------------------------------- caustics

def test_caustic_classification_exact_points():
    assert caustic_check(MagneticModel(k=1.0, t=np.pi)).classification == "integer_caustic"
    assert caustic_check(MagneticModel(k=1.0, t=np.pi / 2)).classification == \
        "half_integer_caustic"
    assert caustic_check(MagneticModel(k=2.0, t=np.pi)).classification == "integer_caustic"
    assert caustic_check(M11).classification == "regular"
    assert caustic_check(MagneticModel(k=0.0, t=5.0)).classification == "regular"


def test_kt_near_zero_is_the_short_time_limit_not_a_caustic():
    m = MagneticModel(k=1.0, t=1e-12)
    assert caustic_check(m).classification == "regular"
    y = (0.0, 0.0)
    closed = composed_closed_value(m, y)
    assert propagator(m, y, n_grid=50).value == pytest.approx(closed, rel=1e-12)
    assert magnetic_T(m, y).value == pytest.approx(closed, rel=1e-12)


def test_caustic_distance_is_reported():
    cls = caustic_check(M11)
    assert cls.distance == pytest.approx(np.pi / 2 - 1.0)
    # kt = 0 is pi/2 from the nearest caustic, a finite distance.
    assert caustic_check(MagneticModel(k=0.0, t=5.0)) == \
        CausticClassification("regular", 0.0, np.pi / 2)


def test_propagator_refuses_caustic_times():
    with pytest.raises(CausticError) as exc:
        propagator(MagneticModel(k=1.0, t=np.pi), (0.0, 0.0))
    assert exc.value.classification == "integer_caustic"
    assert str(exc.value) == "kt = 3.14159 is at a caustic of class integer_caustic"
    with pytest.raises(CausticError):
        magnetic_T(MagneticModel(k=1.0, t=np.pi / 2), (0.0, 0.0))


# ------------------------------------------------- master-formula reductions

def test_lemma_reduces_to_pinned_delta():
    """K = L = 0 and one unit-norm pinning direction reproduce the
    pinned-delta transform exactly, test function included."""
    g = make_grid(1.0, 150)
    eta = indicator_pair(g, 1)
    f = _bump(g, 0.5, 0.08)
    for x in (0.0, 0.7, -1.1):
        rep = LemmaEvaluator(_zero_op(g), _zero_op(g), (eta,)).evaluate(f=f, ys=[x])
        expected = donsker_T(1.0, pair(eta, f), pair(f, f), x)
        assert rep.value == pytest.approx(expected, rel=1e-12)


def test_lemma_reduces_to_normalized_exponential():
    """No pinning directions: det^{-1/2} exp(-(f, N^{-1} f)/2)."""
    g = make_grid(1.0, 200)
    f = _bump(g, 0.5, 0.1)
    rep = LemmaEvaluator(free_K(M11, g), magnetic_L(M11, g), ()).evaluate(f=f, ys=[])
    from hida_lab.fredholm import solve_N
    quad = pair(f, solve_N(M11, g, f))
    det = rep.determinant
    assert det == pytest.approx(np.cos(1.0) ** 2, abs=5e-3)
    assert rep.value == pytest.approx(det ** -0.5 * np.exp(-0.5 * quad), rel=1e-12)


def test_lemma_gram_branch_positive_real():
    g = make_grid(1.0, 60)
    evaluator = LemmaEvaluator(_zero_op(g), _zero_op(g), etas=(indicator_pair(g, 1),))
    assert evaluator.gram_branch == "positive_real"


def test_lemma_gram_branch_imaginary():
    g = make_grid(1.0, 60)
    evaluator = LemmaEvaluator(free_K(M11, g), magnetic_L(M11, g),
                               etas=(indicator_pair(g, 1), indicator_pair(g, 2)))
    assert evaluator.gram_branch == "imaginary"
    np.testing.assert_allclose(evaluator.gram.real, 0.0, atol=1e-12)


def test_lemma_rejects_inadmissible_gram():
    g = make_grid(1.0, 40)
    bad_eta = GridFunctionPair(grid=g, comp1=1j * np.ones(g.n),
                               comp2=np.zeros(g.n, dtype=complex))
    with pytest.raises(ConditionViolationError):
        LemmaEvaluator(_zero_op(g), _zero_op(g), etas=(bad_eta,))


def test_lemma_input_validation():
    g = make_grid(1.0, 20)
    with pytest.raises(InvalidParameterError):
        LemmaEvaluator(_zero_op(g), _zero_op(make_grid(1.0, 21)))
    evaluator = LemmaEvaluator(_zero_op(g), _zero_op(g), etas=(indicator_pair(g, 1),))
    with pytest.raises(InvalidParameterError):
        evaluator.evaluate(ys=[1.0, 2.0])


def test_lemma_solves_N_not_its_transpose():
    """A non-symmetric N: the Gram matrix and the couplings against np.linalg.solve."""
    g = make_grid(1.0, 60)
    n2 = 2 * g.n
    K = BlockOperator(grid=g, entries=0.2 * np.random.default_rng(5).standard_normal(
        (n2, n2)) / np.sqrt(n2) + 0j)
    etas = (indicator_pair(g, 1), indicator_pair(g, 2))
    f = random_suite(777, 1, g)[0]
    rep = LemmaEvaluator(K, _zero_op(g), etas=etas).evaluate(f=f, ys=(0.3, -0.4))
    etas_mat = np.array([eta.as_vector() for eta in etas])
    weighted = g.h * etas_mat
    n_matrix = np.eye(n2) + K.entries
    gram = weighted @ np.linalg.solve(n_matrix, etas_mat.T)
    u = 1j * np.array([0.3, -0.4]) + weighted @ np.linalg.solve(n_matrix, f.as_vector())
    np.testing.assert_allclose(rep.gram, gram, rtol=0, atol=1e-13)
    np.testing.assert_allclose(rep.u, u, rtol=0, atol=1e-13)


def test_lemma_refuses_a_singular_id_plus_K():
    g = make_grid(1.0, 20)
    n2 = 2 * g.n
    L = magnetic_L(M11, g)
    k_diag = np.full(n2, -1.0 - 1.0j)
    k_diag[5] = -1.0
    with pytest.raises(NearSingularError, match=r"Id \+ K is singular"):
        LemmaEvaluator(BlockOperator(grid=g, entries=np.diag(k_diag)), L)
    # A dense Id + K with a zero column.
    id_plus_k = np.random.default_rng(3).standard_normal((n2, n2)) + 0j
    id_plus_k[:, 7] = 0.0
    with pytest.raises(NearSingularError, match=r"Id \+ K is singular"):
        LemmaEvaluator(BlockOperator(grid=g, entries=id_plus_k - np.eye(n2)), L)


def test_lemma_factors_N_once_and_reads_det_id_plus_K_off_the_diagonal(monkeypatch):
    import scipy.linalg as sla
    lu_factor, lu_solve = sla.lu_factor, sla.lu_solve
    factored, solved, buffers = [], [], []

    def counting_lu_factor(a, *args, **kwargs):
        factored.append((a.shape, a.dtype))
        buffers.append(a.copy())
        return lu_factor(a, *args, **kwargs)

    def recording_lu_solve(factors, b, *args, **kwargs):
        solved.append(np.asarray(b).dtype)
        return lu_solve(factors, b, *args, **kwargs)

    def no_slogdet(*args, **kwargs):
        raise AssertionError("a diagonal K needs no slogdet")

    monkeypatch.setattr(sla, "lu_factor", counting_lu_factor)
    monkeypatch.setattr(sla, "lu_solve", recording_lu_solve)
    monkeypatch.setattr(np.linalg, "slogdet", no_slogdet)
    g = make_grid(1.0, 50)
    etas = (indicator_pair(g, 1), indicator_pair(g, 2))
    f = random_suite(777, 1, g)[0]
    # The magnetic N = -i(Id + B): one real factorization of R = Id + B itself,
    # fed only real columns.
    LemmaEvaluator(free_K(M11, g), magnetic_L(M11, g), etas).evaluate(f=f, ys=(0.3, -0.4))
    assert factored == [((100, 100), np.float64)]
    assert np.array_equal(buffers[0], np.eye(100) + symmetric_core(M11, g))
    assert solved and set(solved) == {np.dtype(np.float64)}
    # A complex diagonal K leaves N genuinely complex: one complex factorization.
    factored.clear()
    re, im = np.random.default_rng(11).uniform(-0.5, 0.5, (2, 100))
    k_diag = re + 1j * im
    LemmaEvaluator(BlockOperator(grid=g, entries=np.diag(k_diag)), magnetic_L(M11, g), etas)
    assert factored == [((100, 100), np.complex128)]


def test_lemma_holds_one_dense_buffer_beyond_its_inputs():
    """The tracemalloc peak of LemmaEvaluator.__init__ is N plus temporaries."""
    g = make_grid(1.0, 400)
    K, L = free_K(M11, g), magnetic_L(M11, g)
    etas = (indicator_pair(g, 1), indicator_pair(g, 2))
    small = make_grid(1.0, 4)
    LemmaEvaluator(free_K(M11, small), magnetic_L(M11, small))   # loads scipy first
    tracemalloc.start()
    try:
        LemmaEvaluator(K, L, etas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * K.entries.nbytes


def test_lemma_holds_the_magnetic_N_as_one_real_buffer():
    """N = -i(Id + B) is factored as a real matrix, half the bytes of a complex N.

    The peak is that buffer (0.5 of K), which holds Re N for the test and then R.
    """
    g = make_grid(1.0, 400)
    K, L = free_K(M11, g), magnetic_L(M11, g)
    etas = (indicator_pair(g, 1), indicator_pair(g, 2))
    small = make_grid(1.0, 4)
    LemmaEvaluator(free_K(M11, small), magnetic_L(M11, small))   # loads scipy first
    tracemalloc.start()
    try:
        LemmaEvaluator(K, L, etas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * K.entries.nbytes


def test_one_norm_sums_every_block_of_rows():
    """The condition estimate of a 600 x 600 N whose largest column sums come from its last row.

    Every column sum of N is about 6 but for the 50 of the last row.  A norm
    that missed the last rows would put the estimate about 9x below kappa_1,
    and a row-sum (inf) norm about 500x above it; LAPACK's estimate of
    ||N^{-1}||_1 lies within [1/3, 1] of the true one.  Both the real
    factorization (N = i R) and the complex one are checked.
    """
    g = make_grid(1.0, 300)
    rng = np.random.default_rng(9)
    r = np.eye(600) + 0.01 * rng.standard_normal((600, 600))
    r[-1] = 50.0
    for n_matrix in (1j * r, r + 0.01j * rng.standard_normal((600, 600))):
        K = BlockOperator(grid=g, entries=n_matrix - np.eye(600))
        estimate = LemmaEvaluator(K, _zero_op(g)).cond_estimate
        kappa = np.linalg.cond(n_matrix, 1)
        assert kappa / 3.0 <= estimate <= kappa * (1.0 + 1e-12)


def _force(g, amplitude):
    """f = amplitude (1+i) (cos 7s, sin 5s); at k = t = 1, n = 50 and amplitude 40
    the real part of the exponent is 1472, past the overflow of exp at 709."""
    c = amplitude * (1.0 + 1.0j)
    return sample(lambda s: c * np.cos(7 * s), lambda s: c * np.sin(5 * s), g)


def test_dense_route_refuses_an_overflowing_T_transform():
    g = make_grid(1.0, 50)
    evaluator = LemmaEvaluator(free_K(M11, g), magnetic_L(M11, g),
                               etas=(indicator_pair(g, 1), indicator_pair(g, 2)))
    assert np.isfinite(evaluator.evaluate(f=_force(g, 0.4), ys=(0.3, -0.4)).value)
    with pytest.raises(NumericFailureError, match="not finite"):
        evaluator.evaluate(f=_force(g, 40.0), ys=(0.3, -0.4))


def test_closed_route_refuses_an_overflowing_T_transform():
    g = make_grid(1.0, 50)
    assert np.isfinite(magnetic_T(M11, (0.3, -0.4), f=_force(g, 0.4)).value)
    with pytest.raises(NumericFailureError, match="not finite"):
        magnetic_T(M11, (0.3, -0.4), f=_force(g, 40.0))


# ----------------------------------------------------- two evaluation paths

def test_each_route_names_itself():
    g = make_grid(1.0, 100)
    y = (0.3, -0.4)
    dense = LemmaEvaluator(free_K(M11, g), magnetic_L(M11, g),
                           etas=(indicator_pair(g, 1), indicator_pair(g, 2)))
    assert dense.evaluate(ys=y).route == "dense"
    assert magnetic_T(M11, y).route == "closed"
    assert propagator(M11, y, n_grid=100).route == "structured"


def test_two_paths_agree_on_test_functions():
    g = make_grid(1.0, 400)
    y = (0.3, -0.4)
    f = _bump(g, 0.45, 0.06)
    for m in (M11, MagneticModel(k=0.0, t=1.0)):
        evaluator = LemmaEvaluator(free_K(m, g), magnetic_L(m, g),
                                   etas=(indicator_pair(g, 1), indicator_pair(g, 2)))
        numeric = evaluator.evaluate(f=f, ys=y).value
        closed = magnetic_T(m, y, f=f).value
        assert closed == pytest.approx(numeric, rel=3e-3)


def _dense_route(y):
    g = make_grid(1.0, 50)
    evaluator = LemmaEvaluator(free_K(M11, g), magnetic_L(M11, g),
                               etas=(indicator_pair(g, 1), indicator_pair(g, 2)))
    return evaluator.evaluate(ys=y)


@pytest.mark.parametrize("route", [
    lambda y: magnetic_T(M11, y),
    lambda y: propagator(M11, y, n_grid=50),
    _dense_route,
], ids=["closed", "structured", "dense"])
@pytest.mark.parametrize("y", [(1.0, 2.0, 3.0), (0.5,), ((0.1, 0.2), (0.3, 0.4))],
                         ids=["three", "one", "two_by_two"])
def test_every_route_refuses_an_endpoint_that_is_not_a_pair(route, y):
    with pytest.raises(InvalidParameterError, match="need 2 pinning values"):
        route(y)


@pytest.mark.parametrize("route", [
    lambda y: magnetic_T(M11, y),
    lambda y: propagator(M11, y, n_grid=50),
    _dense_route,
], ids=["closed", "structured", "dense"])
@pytest.mark.parametrize("y", [(np.nan, 0.0), (0.3, np.inf), (-np.inf, np.nan)])
def test_every_route_refuses_a_non_finite_endpoint(route, y):
    with pytest.raises(InvalidParameterError, match="pinning values must be finite"):
        route(y)


def test_closed_route_refuses_a_test_function_on_another_time_span():
    f = _bump(make_grid(2.0, 400), 0.45, 0.06)
    with pytest.raises(InvalidParameterError, match="different grid"):
        magnetic_T(M11, (0.3, -0.4), f=f)


def test_closed_route_is_the_closed_value_past_the_first_caustic():
    """kt in (0, 3 pi), 1e-3 away from every j pi / 2: the branch signs of the
    composition take the closed route through cos(kt) < 0 and tan(kt) < 0."""
    rng = np.random.default_rng(16)
    kts = np.linspace(1e-3, 3 * np.pi - 1e-3, 301)
    kts = kts[np.abs(kts - np.pi / 2 * np.round(kts / (np.pi / 2))) > 1e-3]
    for k in (1.3, -0.7):
        for kt in kts:
            m = MagneticModel(k=k, t=kt / abs(k))
            y = rng.uniform(-1.0, 1.0, 2)
            rep = magnetic_T(m, y)
            closed = composed_closed_value(m, y)
            assert abs(rep.value - closed) <= 1e-13 * (1 + abs(rep.exponent_delta)) * abs(closed)
    for t in (1e-3, 0.7, 5.0):
        m = MagneticModel(k=0.0, t=t)
        y = rng.uniform(-1.0, 1.0, 2)
        rep = magnetic_T(m, y)
        closed = composed_closed_value(m, y)
        assert abs(rep.value - closed) <= 1e-13 * (1 + abs(rep.exponent_delta)) * abs(closed)


@pytest.mark.parametrize("k", [1.0, -0.7, 2.3])
def test_closed_route_without_f_is_regular_next_to_a_half_integer_caustic(k):
    """|kt| = (j + 1/2) pi + d, 1e-8 <= |d| <= 5e-5, where the closed value is
    regular: with no test function nothing divides by cos(2kt) + 1, so
    magnetic_T is that value.  Inside caustic_check's window it is refused,
    and at a test function closed_solve still refuses the band."""
    y = (0.3, -0.4)
    for j in (0, 1, 2):
        for d in (1e-8, 1e-7, -1e-6, 1e-5, 5e-5):
            m = MagneticModel(k=k, t=((j + 0.5) * np.pi + d) / abs(k))
            rep = magnetic_T(m, y)
            closed = composed_closed_value(m, y)
            assert abs(rep.value - closed) <= 1e-12 * (1 + abs(rep.exponent_delta)) * abs(closed)
        inside = MagneticModel(k=k, t=((j + 0.5) * np.pi + 1e-10) / abs(k))
        with pytest.raises(CausticError) as err:
            magnetic_T(inside, y)
        assert err.value.classification == "half_integer_caustic"
        banded = MagneticModel(k=k, t=((j + 0.5) * np.pi + 1e-5) / abs(k))
        with pytest.raises(CausticError) as err:
            magnetic_T(banded, y, f=_bump(make_grid(banded.t, 200), 0.4 * banded.t, 0.1))
        assert err.value.classification == "half_integer_caustic"


def test_propagator_matches_closed_form():
    y = (0.3, -0.4)
    value = propagator(M11, y, n_grid=500).value
    assert value == pytest.approx(composed_closed_value(M11, y), rel=2e-3)


def test_magnetic_T_without_test_function_is_the_closed_value():
    y = (0.2, 0.1)
    rep = magnetic_T(M11, y)
    assert rep.value == pytest.approx(composed_closed_value(M11, y), rel=1e-12)


@pytest.mark.parametrize("evaluate", [
    lambda c: schrodinger_residual(M11, convention=c),
], ids=["schrodinger_residual"])
def test_an_unknown_convention_is_refused(evaluate):
    with pytest.raises(InvalidParameterError, match="unknown convention 'typo'"):
        evaluate("typo")


def test_propagator_returns_the_structured_report():
    rep = propagator(M11, (0.3, -0.4), n_grid=200)
    assert isinstance(rep, TTransformReport)
    assert rep.route == "structured"
    assert 1.0 <= rep.cond_estimate < np.inf
    assert rep.branch_note and "delta exponent" in rep.branch_note[-1]


def test_propagator_keeps_nothing_per_call():
    """No cache grows with the calls: after a warm-up, 1000 calls at distinct
    (k, t) on one grid size grow the traced heap by under 16 KB.  The
    benchmark's peak RSS already grows with its throughput, so a per-call
    cache would hide there; a cache kept per n passes."""
    points = [(0.5 + j / 4000, 1.0 + j / 2000) for j in range(1001)]    # kt < pi/2
    propagator(MagneticModel(k=points[0][0], t=points[0][1]), (0.3, -0.4), n_grid=200)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for k, t in points[1:]:
            propagator(MagneticModel(k=k, t=t), (0.3, -0.4), n_grid=200)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024


# ------------------------------------------------------------- closed forms

def test_free_limit_reference_value():
    value = free_limit_reference(1.0, (1.0, 0.0))
    expected = 1.0 / (2 * np.pi * 1j) * np.exp(0.5j)
    assert value == pytest.approx(expected)
    with pytest.raises(InvalidParameterError):
        free_limit_reference(0.0, (1.0, 0.0))


def test_propagator_free_limit():
    y = (1.0, 0.0)
    free = free_limit_reference(1.0, y)
    value = propagator(MagneticModel(k=1e-3, t=1.0), y, n_grid=400).value
    assert abs(value - free) / abs(free) < 1e-3


def test_composed_and_printed_values_disagree_and_are_both_reported():
    y = (0.3, -0.4)
    value = propagator(M11, y, n_grid=300).value
    assert abs(value - printed_propagator_value(M11, y)) > 0.05   # never silently reconciled
    assert printed_propagator_value(MagneticModel(k=0.0, t=1.0), y) == \
        pytest.approx(free_limit_reference(1.0, y))


def test_branch_notes_record_the_square_root_choices():
    rep = propagator(M11, (0.0, 0.0), n_grid=200)
    notes = " ".join(rep.branch_note)
    assert "negative-real determinant" in notes
    assert "+1/2 u^T M^-1 u" in notes


# ------------------------------------------------------ equation residuals

def test_free_propagator_solves_free_equation():
    assert schrodinger_residual(MagneticModel(k=0.0, t=1.0), n=21) < 0.05


def test_residual_convergence_composed_second_order():
    res = residual_convergence(MagneticModel(k=0.5, t=1.0), levels=3)
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert orders[-1] > 1.9


def test_residual_printed_convention_does_not_converge():
    res = residual_convergence(MagneticModel(k=0.5, t=1.0),
                               convention="printed", levels=3)
    assert np.log2(res[-2] / res[-1]) < 1.0


def test_residual_rejects_caustic_inside_time_span():
    with pytest.raises(CausticError):
        schrodinger_residual(MagneticModel(k=1.0, t=np.pi))
    with pytest.raises(InvalidParameterError):
        schrodinger_residual(M11, n=3)


def test_residual_runs_over_the_models_own_time_span():
    """The span is [t/2, t]: t = 2 gives other residuals than t = 1, and
    the composed value still converges at second order there."""
    at_2 = residual_convergence(MagneticModel(k=0.5, t=2.0), levels=3)
    at_1 = residual_convergence(MagneticModel(k=0.5, t=1.0), levels=3)
    assert all(abs(a - b) > 1e-3 * b for a, b in zip(at_2, at_1))
    assert np.log2(at_2[-2] / at_2[-1]) >= 1.9


@pytest.mark.parametrize("k", [4.0, -4.0])
def test_residual_refuses_an_integer_caustic_between_time_nodes(k):
    """kt = +-pi lies inside [2, 4] (up to sign) but at no node of the span."""
    m = MagneticModel(k=k, t=1.0)
    nodes = k * np.linspace(0.5, 1.0, 11)
    assert np.abs(np.abs(nodes) - np.pi).min() > 0.05
    with pytest.raises(CausticError) as err:
        schrodinger_residual(m, n=11)
    assert err.value.classification == "integer_caustic"
    assert err.value.kt == pytest.approx(np.sign(k) * np.pi)


@pytest.mark.parametrize("k", [0.5, -0.5])
def test_residual_accepts_a_half_integer_caustic_at_a_time_node(k):
    """kt = +-pi/2 at the last node, where G is regular (cot(kt) = 0,
    |sin(kt)| = 1): no refusal, and second-order convergence."""
    res = residual_convergence(MagneticModel(k=k, t=np.pi), levels=3)
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert orders[0] >= 1.8 and orders[-1] >= 1.9


@pytest.mark.parametrize("k, t", [(1.0, np.pi), (-1.0, np.pi), (2.0, np.pi / 2),
                                  (1.5, np.pi)])
def test_residual_refuses_an_integer_caustic_at_a_node_or_between(k, t):
    """kt = +-pi at the last node, or (k = 1.5) between nodes of a span that
    ends on the half-integer caustic 3 pi / 2."""
    with pytest.raises(CausticError) as err:
        schrodinger_residual(MagneticModel(k=k, t=t), n=11)
    assert err.value.classification == "integer_caustic"
    assert err.value.kt == pytest.approx(np.sign(k) * np.pi)


@pytest.mark.parametrize("k", [1.0, -1.0])
@pytest.mark.parametrize("t", [np.pi * (1 - 5e-10), 2 * np.pi * (1 + 5e-10)],
                         ids=["last_node", "first_node"])
def test_residual_refuses_an_integer_caustic_within_the_window_of_either_end(k, t):
    """|kt| = pi (1 - 5e-10) at the last node, or |kt|/2 = pi (1 + 5e-10) at
    the first, lies within caustic_check's window 1e-9 max(1, |kt|) of pi.
    A last node 1e-8 relative below pi is outside it, and accepted."""
    with pytest.raises(CausticError) as err:
        schrodinger_residual(MagneticModel(k=k, t=t), n=11)
    assert err.value.classification == "integer_caustic"
    j = round(err.value.kt / np.pi)
    assert j != 0 and err.value.kt == pytest.approx(j * np.pi, rel=1e-15)
    assert np.isfinite(schrodinger_residual(MagneticModel(k=k, t=np.pi * (1 - 1e-8)), n=11))


def test_residual_accepts_a_span_between_caustics():
    """kt in [1, 2] holds the half-integer caustic pi/2, where the closed
    form is regular, at no node: no refusal."""
    res = residual_convergence(MagneticModel(k=2.0, t=1.0), levels=2)
    assert all(np.isfinite(res))


def _residual_on_the_whole_cube(m, n, convention):
    """The residual stencil over the whole (t, y1, y2) cube of G at once, as
    schrodinger_residual computed it before it ran one time slice at a time:
    the reference the streamed stencil is held to."""
    sign = 1.0 if convention == "composed" else -1.0
    t_axis = np.linspace(0.5 * m.t, m.t, n)
    y_axis = np.linspace(-1.0, 1.0, n)
    hy = y_axis[1] - y_axis[0]
    ht = t_axis[1] - t_axis[0]
    y1 = y_axis[:, None]
    y2 = y_axis[None, :]
    r2 = y1 ** 2 + y2 ** 2
    coefficients = [_closed_form_coefficients(m.k, t, sign) for t in t_axis]
    g_vals = np.stack([a * np.exp(c * r2) for a, c in coefficients])   # (t, y1, y2)

    dt = (g_vals[2:] - g_vals[:-2]) / (2.0 * ht)
    inner = g_vals[1:-1]
    d1 = (inner[:, 2:, 1:-1] - inner[:, :-2, 1:-1]) / (2.0 * hy)
    d2 = (inner[:, 1:-1, 2:] - inner[:, 1:-1, :-2]) / (2.0 * hy)
    lap = ((inner[:, 2:, 1:-1] - 2 * inner[:, 1:-1, 1:-1] + inner[:, :-2, 1:-1])
           + (inner[:, 1:-1, 2:] - 2 * inner[:, 1:-1, 1:-1] + inner[:, 1:-1, :-2])) / hy ** 2

    yy1 = y1[1:-1, :]
    yy2 = y2[:, 1:-1]
    core = inner[:, 1:-1, 1:-1]
    h_g = 0.5 * (-lap
                 - 2j * m.k * yy2[None, :, :] * d1
                 + 2j * m.k * yy1[None, :, :] * d2
                 + (m.k ** 2) * (yy1 ** 2 + yy2 ** 2)[None, :, :] * core)

    res = 1j * dt[:, 1:-1, 1:-1] - h_g
    return float(np.linalg.norm(res) / np.linalg.norm(core))


@pytest.mark.parametrize("convention", ["composed", "printed"])
@pytest.mark.parametrize("k", [0.0, 0.5, -1.3, 2.0])
@pytest.mark.parametrize("n", [11, 21, 41])
def test_streamed_residual_matches_the_whole_cube_stencil(n, k, convention):
    """kt in [k/2, k] stays clear of the integer caustics for every k here."""
    m = MagneticModel(k=k, t=1.0)
    expected = _residual_on_the_whole_cube(m, n, convention)
    assert schrodinger_residual(m, n=n, convention=convention) == \
        pytest.approx(expected, rel=1e-12, abs=0)


def test_residual_holds_three_time_slices_not_the_cube():
    """At n = 81 the (t, y1, y2) cube of G alone is 81^3 complex values,
    8.5 MB; the stencil keeps no more than about three 81 x 81 slices: the
    (t, y) lattice of u, its differences and one slice's residual."""
    m = MagneticModel(k=0.5, t=1.0)
    schrodinger_residual(m, n=11)
    tracemalloc.start()
    try:
        schrodinger_residual(m, n=81)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("convention", ["composed", "printed"])
@pytest.mark.parametrize("k", [0.01, -0.01])
@pytest.mark.parametrize("t", [0.3, 2.2])
def test_separable_residual_matches_the_whole_cube_stencil_at_81(t, k, convention):
    """The fine grid, where rounding counts most.  A rounding of a few ulps in
    G (eps ~ 2.2e-16) is amplified by 4/h_y^2 = 6400 in the second difference
    (h_y = 1/40), about 1.4e-12 |G| per node, against a residual of ~1.2e-4 |G|
    (composed, t = 2.2): up to 1.2e-8 of it at one node.  Independent
    roundings average over the 79^3 interior nodes in the norm, by
    sqrt(79^3) ~ 700, to about 2e-11, so the two stencils must agree to 1e-10.
    A wrong term moves the residual by O(1) of itself."""
    m = MagneticModel(k=k, t=t)
    expected = _residual_on_the_whole_cube(m, 81, convention)
    assert schrodinger_residual(m, n=81, convention=convention) == \
        pytest.approx(expected, rel=1e-10, abs=0)


def test_residual_peak_memory_at_81_stays_below_one_megabyte():
    """The separable stencil keeps the (t, y) lattice of u and its differences
    (81 x 81 complex values each, 0.1 MB) and one slice's 79 x 79 product."""
    m = MagneticModel(k=0.5, t=1.0)
    schrodinger_residual(m, n=11)
    tracemalloc.start()
    try:
        schrodinger_residual(m, n=81)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6


def test_residual_takes_the_closed_form_coefficients_once_and_no_slice_of_G(monkeypatch):
    """One call for (a, c) on the whole time axis; the closed form itself,
    an n x n slice of G, is never evaluated."""
    calls = []
    coefficients = feynman._closed_form_coefficients

    def counted(k, t, sign=1.0):
        calls.append(np.shape(t))
        return coefficients(k, t, sign)

    def forbidden(*args, **kwargs):
        raise AssertionError("schrodinger_residual evaluated a slice of G")

    monkeypatch.setattr(feynman, "_closed_form_coefficients", counted)
    monkeypatch.setattr(feynman, "_closed_form", forbidden)
    assert np.isfinite(schrodinger_residual(MagneticModel(k=0.5, t=1.0), n=21))
    assert calls == [(21,)]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_closed_form_coefficients_at_k_0_are_the_limit_k_to_0(sign):
    """The k = 0 branch is the free propagator, the k -> 0 limit of
    k/(2 pi i sin(kt)) and sign (ik/2) cot(kt), at a time and on an array."""
    t = np.array([0.3, 1.0, 2.2])
    a0, c0 = feynman._closed_form_coefficients(0.0, t, sign)
    a, c = feynman._closed_form_coefficients(1e-7, t, sign)
    np.testing.assert_allclose(a, a0, rtol=1e-12)
    np.testing.assert_allclose(c, c0, rtol=1e-12)
    a1, c1 = feynman._closed_form_coefficients(0.0, 2.2, sign)
    assert (a1, c1) == (a0[-1], c0[-1])


# ------------------------------------------------- the T-transform at f, two routes

def test_closed_route_at_f_takes_no_fft_and_no_structured_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed route called a structured solve")
    monkeypatch.setattr(fredholm, "solve_N", forbidden)
    monkeypatch.setattr(fredholm.Resolvent, "solve", forbidden)
    monkeypatch.setattr(np.fft, "fft", forbidden)
    g = make_grid(1.0, 400)
    rep = magnetic_T(M11, (0.3, -0.4), f=_bump(g, 0.45, 0.06))
    assert rep.route == "closed" and rep.exponent_quadratic != 0
    with pytest.raises(AssertionError, match="structured solve"):
        propagator(M11, (0.3, -0.4), n_grid=400, f=_bump(g, 0.45, 0.06))


def test_closed_route_at_f_makes_one_closed_solve_and_no_closed_preimage(monkeypatch):
    """One N^{-1} f gives both the quadratic term and the couplings."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fredholm.closed_solve(*args)
    monkeypatch.setattr(feynman, "closed_solve", counted)
    g = make_grid(1.0, 400)
    rep = magnetic_T(M11, (0.3, -0.4), f=_bump(g, 0.45, 0.06))
    assert len(calls) == 1 and np.all(rep.u != 0.3j * np.array([1, -4 / 3]))
    magnetic_T(M11, (0.3, -0.4))
    assert len(calls) == 1


def _smooth_force(g):
    return sample(lambda s: 0.4 * np.cos(2 * s) + 0.2, lambda s: 0.3 * np.sin(3 * s), g)


@pytest.mark.parametrize("k, t", [(1.0, 2.0), (1.3, 3.0)], ids=["kt=2", "kt=3.9"])
def test_closed_route_at_f_is_second_order(k, t):
    """Against n = 32 000 the relative error falls by 4 per halving of h,
    past the first caustic too (kt = 3.9 > pi)."""
    m = MagneticModel(k=k, t=t)
    y = (0.3, -0.4)
    ref = magnetic_T(m, y, f=_smooth_force(make_grid(t, 32_000))).value
    errs = np.array([abs(magnetic_T(m, y, f=_smooth_force(make_grid(t, n))).value - ref)
                     for n in (250, 500, 1000)]) / abs(ref)
    assert np.all(np.log2(errs[:-1] / errs[1:]) >= 1.9)


@pytest.mark.parametrize("k, t, measured", [(1.0, 2.0, 2.35e-6), (-0.7, 5.57, 3.46e-5),
                                            (1.3, 3.0, 3.38e-5), (1.0, 3.9, 5.28e-5)])
def test_closed_route_at_f_is_accurate_at_250_nodes(k, t, measured):
    """Relative error at n = 250 against n = 32 000, held to 1.5 times the
    value measured with closed_solve integrating each cell exactly.  The
    midpoint running sum it replaced read 6.8e-6, 1.9e-5, 1.3e-4 and 2.5e-4
    here: (-0.7, 5.57) is the input that got worse (1.9e-5 -> 3.5e-5)."""
    m = MagneticModel(k=k, t=t)
    y = (0.3, -0.4)
    ref = magnetic_T(m, y, f=_smooth_force(make_grid(t, 32_000))).value
    err = abs(magnetic_T(m, y, f=_smooth_force(make_grid(t, 250))).value - ref) / abs(ref)
    assert err <= 1.5 * measured


def test_structured_route_at_f_refuses_a_test_function_on_another_grid():
    f = _bump(make_grid(1.0, 300), 0.45, 0.06)
    with pytest.raises(InvalidParameterError, match="different grid"):
        propagator(M11, (0.3, -0.4), n_grid=400, f=f)


def test_structured_route_at_a_zero_test_function_is_the_propagator():
    g = make_grid(1.0, 400)
    zero = GridFunctionPair(grid=g, comp1=np.zeros(g.n), comp2=np.zeros(g.n))
    at_zero = propagator(M11, (0.3, -0.4), n_grid=400, f=zero)
    bare = propagator(M11, (0.3, -0.4), n_grid=400)
    assert at_zero.value == bare.value and at_zero.exponent_quadratic == 0
    np.testing.assert_array_equal(at_zero.u, bare.u)


def test_structured_and_closed_routes_at_f_converge_together():
    """Both are second order in the quadratic term and first order overall
    (the cos^n(theta) factor of the numeric determinant): the gap halves with h."""
    y = (0.3, -0.4)
    gaps = []
    for n in (400, 800, 1600):
        f = _bump(make_grid(1.0, n), 0.45, 0.06)
        closed = magnetic_T(M11, y, f=f).value
        gaps.append(abs(propagator(M11, y, n_grid=n, f=f).value - closed) / abs(closed))
    assert np.all(np.log2(np.array(gaps[:-1]) / np.array(gaps[1:])) >= 0.95)
