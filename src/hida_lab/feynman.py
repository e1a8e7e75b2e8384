"""Composition of the master T-transform, the magnetic propagator and the
Schrödinger-residual verification, which runs over the model's own time
span [t/2, t].

Three evaluation routes exist on purpose:

* :func:`magnetic_T`, the closed route, evaluates the closed-form
  specialization (analytic determinant and Gram matrix); at a test
  function f it takes N^{-1} f from the continuum Green's function
  (:func:`fredholm.closed_solve`), an O(n) running sum.
* :func:`propagator`, the structured route, takes the numeric
  ingredients for the magnetic K, L from the structured N^{-1}
  (:class:`fredholm.Resolvent`) in O(n log n), with no dense matrix, at
  f = 0 or at a test function f.
* :class:`LemmaEvaluator` composes the T-transform from fully numeric
  dense ingredients for any K, L: one dense LU of N gives the determinant,
  the resolvent solves and the numeric Gram matrix.  It is the dense
  oracle.  When N = -iR with R real (:mod:`fredholm`), that LU is R's.

The closed and structured routes share no solve, and ``verify``'s
``two_path_consistency`` compares them at seeded test functions.  All three
routes share one composition, ``_compose``: each supplies the determinant,
the Gram matrix M, the pinning values, its N^{-1} (``closed_solve``,
``Resolvent.solve`` or the dense LU) and the signs that make the principal
square roots of det and of (2pi)^J det M the continuous ones.
So one function reads the test function f, with one solve N^{-1} f for the
quadratic term -1/2 (f, N^{-1} f) and the couplings (eta_a, N^{-1} f), and
applies the branch rule, the delta exponent and the endpoint check, all under
:func:`fredholm.refuse_overflow` ("the T-transform leaves the float range"), as
are the closed forms.  The caustic refusals are tabulated in :mod:`fredholm`.

The sign of the delta exponent and the square-root branches are fixed by
actually performing the Gaussian integrals that define the pinned product:
the exponent is +1/2 u^T M^{-1} u and the branches are chosen so the value
is continuous in t and matches the free propagator as t -> 0+.  The closed
route passes sign(cos kt) and sign(tan(kt)/k), which give sqrt(cos^2(kt)) =
cos(kt) and sqrt(det M) = i tan(kt)/k.  The numeric routes pass +1, +1, the
principal roots, so past kt = pi they lack the sign (-1)^floor(kt/pi) that
the closed route carries.  With these choices the composed generalized
expectation at k > 0 is

    k / (2 pi i sin(kt)) * exp(+(ik/2) cot(kt) (y1^2 + y2^2)),

which reduces to the free two-dimensional propagator as k -> 0 and solves
the magnetic Schrödinger equation (both verified in the test suite).

The printed sign, -1/2 u^T M^{-1} u with the sin prefactor, lives only in
the check that judges it: :func:`schrodinger_residual` (``hida-lab
residual``) evaluates it too and finds that it does not converge.
:func:`printed_propagator_value` is the often-quoted cos-prefactor formula
k / (2 pi i cos(kt)) * exp(+(ik/2) cot(kt) |y|^2): ``hida-lab propagator``
reports it for comparison, never substituted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (ConditionViolationError, InvalidParameterError, NearSingularError,
                     NumericFailureError)
from .fredholm import (Resolvent, analytic_gram_diagonal, closed_solve, lift,
                       refuse_caustic, refuse_caustic_in_span, refuse_ill_conditioned,
                       refuse_overflow, refuse_singular_determinant, rotation_gram)
from .grid import Grid, GridFunctionPair, check_same_grid, make_grid
from .operators import BlockOperator, MagneticModel
from .testfunctions import indicator_pair

_NEAR_REAL = 1e-8
# A Gram matrix whose real part is below this share of its scale is imaginary.
_GRAM_TOL = 1e-8


def _branch_sqrt(z: complex, notes: list, label: str) -> complex:
    """Principal square root, stabilized on the negative real axis.

    Determinants that are analytically negative real (e.g. det M of the
    magnetic Gram matrix) acquire a tiny imaginary rounding part; snapping
    them back to the axis keeps the branch deterministic: sqrt(-x) = i sqrt(x).
    """
    z = complex(z)
    if z.real < 0 and abs(z.imag) <= _NEAR_REAL * abs(z):
        root = 1j * np.sqrt(-z.real)
        notes.append(f"{label}: negative-real determinant, branch sqrt(-x)=i*sqrt(x)")
        return root
    notes.append(f"{label}: principal branch")
    return complex(np.sqrt(z))


@dataclass(frozen=True)
class TTransformReport:
    value: complex
    exponent_quadratic: complex
    exponent_delta: complex
    u: np.ndarray
    branch_note: tuple
    gram: np.ndarray = field(repr=False)
    determinant: complex
    route: str                        # closed | structured | dense
    # cond of N: exact 2-norm (structured), 1-norm estimate (dense), None (closed)
    cond_estimate: float | None


class LemmaEvaluator:
    """Numeric ingredients of the master T-transform, computed once per (K, L, etas).

    N = Id+K+L is assembled in one dense buffer and LU-factorized there,
    once.  Those factors give det N and the solves, so the determinant
    det(Id + L(Id+K)^{-1}) = det N / det(Id+K) needs only det(Id+K): the
    product of its diagonal when K has no off-diagonal nonzero (the magnetic
    free_K), a dense slogdet otherwise.  The Gram matrix of the pinning
    directions is built from resolvent solves.  ``evaluate`` is then cheap
    per test function.

    When Re N = 0 exactly, N = -iR with R real (the magnetic R = Id + B), the
    buffer holds R and the LU is real, about a quarter of the flops of a
    complex one, with det N = (-1)^n det R, cond(N) = cond(R) and the solves
    lifted by :func:`fredholm.lift`.  Any other N is factored as a complex matrix.
    """

    def __init__(self, K: BlockOperator, L: BlockOperator, etas=()):
        self.grid = K.grid
        self.etas = tuple(etas)
        check_same_grid(self.grid, L, *self.etas)
        # Deferred: only this dense oracle needs scipy, which is slow to import.
        import scipy.linalg as sla

        n2 = 2 * self.grid.n
        sign_k, logdet_k = _slogdet_id_plus(K.entries)
        if sign_k == 0:
            raise NearSingularError("Id + K is singular")
        # The one dense buffer a: N itself, or the real R when N = -iR.
        a = _assemble_N(K.entries, L.entries)
        real = not np.iscomplexobj(a)
        lange = sla.get_lapack_funcs("lange", (a,))
        anorm = lange("1", a)          # taken before the LU overwrites a
        lu, piv = sla.lu_factor(a, overwrite_a=True)
        solve = partial(sla.lu_solve, (lu, piv))
        self._solve = partial(lift, solve) if real else solve
        # det a = (-1)^swaps prod diag(U), a zero pivot giving det N = 0; for
        # N = -iR, det N = (-i)^2n det R = (-1)^n det R.
        sign_u, log_abs_n = _slogdet_diagonal(np.diagonal(lu))
        swaps = np.count_nonzero(piv != np.arange(n2)) + (self.grid.n if real else 0)
        phase_n = (-1) ** swaps * sign_u
        self.determinant = complex(phase_n / sign_k * np.exp(log_abs_n - logdet_k))
        refuse_singular_determinant(self.determinant)

        gecon = sla.get_lapack_funcs("gecon", (lu,))
        rcond, _ = gecon(lu, anorm)
        self.cond_estimate = np.inf if rcond == 0 else 1.0 / rcond
        refuse_ill_conditioned(self.cond_estimate)

        etas_mat = np.array([eta.as_vector() for eta in self.etas],
                            dtype=complex).reshape(len(self.etas), n2)
        self._weighted_etas = self.grid.h * etas_mat
        self.gram = self._weighted_etas @ self._solve(etas_mat.T)
        if self.etas:
            self.gram_branch = _gram_branch(self.gram)

    def evaluate(self, f: GridFunctionPair | None = None, ys=()) -> TTransformReport:
        return _compose(self.determinant, self.gram, ys, self.grid, f, self._solve,
                        route="dense", cond_estimate=self.cond_estimate,
                        weighted_etas=self._weighted_etas)


def _assemble_N(k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """N = Id + k + l as one Fortran-order buffer, which LAPACK factors in place,
    or the real R = -Im N when Re N = 0, tested exactly on Re N in the real
    buffer that then takes R; so the real case makes no complex 2n x 2n matrix.
    Any other N comes back whole and complex, made after the real one is dropped.
    """
    r = np.add(k.real, l.real, order="F")
    r[np.diag_indices_from(r)] += 1.0
    if r.any():
        del r
        n_matrix = np.add(k, l, order="F")
        n_matrix[np.diag_indices_from(n_matrix)] += 1.0
        return n_matrix
    np.add(k.imag, l.imag, out=r)
    return np.negative(r, out=r)


def _slogdet_id_plus(k: np.ndarray):
    """(sign, log|det|) of Id + k, as np.linalg.slogdet; (0, -inf) when singular.

    A k with no off-diagonal nonzero (the magnetic free_K) is read off its
    diagonal with no factorization; any other k takes a dense slogdet.
    """
    diag = np.diagonal(k)
    if np.count_nonzero(k) != np.count_nonzero(diag):
        id_plus_k = k.copy()
        id_plus_k[np.diag_indices_from(k)] += 1.0
        return np.linalg.slogdet(id_plus_k)
    return _slogdet_diagonal(1.0 + diag)


def _slogdet_diagonal(d: np.ndarray):
    """(sign, log|det|) of diag(d): unit phases and sum log|d_j|; (0, -inf) on a zero."""
    moduli = np.abs(d)
    if not np.all(moduli):
        return 0.0, -np.inf
    return np.prod(d / moduli), np.sum(np.log(moduli))


def _gram_branch(gram: np.ndarray) -> str:
    """'imaginary' or 'positive_real'; any other Gram matrix is refused."""
    scale = np.abs(gram).max()
    re, im = gram.real, gram.imag
    if np.abs(re).max() <= _GRAM_TOL * max(scale, 1e-300):
        if np.abs(im).max() == 0:
            raise ConditionViolationError("Gram matrix vanishes identically")
        return "imaginary"
    try:
        np.linalg.cholesky((re + re.T) / 2.0)
    except np.linalg.LinAlgError:
        raise ConditionViolationError(
            "Gram matrix is neither positive-real nor purely imaginary; "
            "the pinned product is not defined for these directions") from None
    return "positive_real"


@refuse_overflow("the T-transform")
def _compose(determinant: complex, gram: np.ndarray, ys, g: Grid | None, f, solve,
             route: str, cond_estimate: float | None, branch=(1.0, 1.0),
             weighted_etas=None) -> TTransformReport:
    """det^{-1/2} ((2pi)^J det M)^{-1/2} exp(-1/2 (f, N^{-1} f) + 1/2 u^T M^{-1} u).

    The only code that reads the test function f, which must live on g (None
    when f is): one solve x = N^{-1} f by the route's ``solve`` gives the
    quadratic term and the couplings (eta_a, x), with ``weighted_etas`` the
    dense oracle's h E, or the indicator directions when it is None.
    u = i ys + those couplings, where ys holds the J = len(gram) pinning
    values.  ``branch`` is a pair of signs that turn the principal roots of
    det and of (2pi)^J det M into the continuous ones.
    """
    phi = _combine(g, f)
    coupling = None
    exponent_quadratic = 0.0 + 0.0j
    if phi is not None:
        x = solve(phi)
        exponent_quadratic = -0.5 * complex((g.h * phi) @ x)
        coupling = (g.h * x.reshape(2, g.n).sum(axis=1) if weighted_etas is None
                    else weighted_etas @ x)
    ys = np.asarray(ys, dtype=float)
    j = len(gram)
    if ys.shape != (j,):
        raise InvalidParameterError(f"need {j} pinning values, got shape {ys.shape}")
    if not np.isfinite(ys).all():
        raise InvalidParameterError(f"pinning values must be finite, got {ys}")
    u = 1j * ys if coupling is None else 1j * ys + coupling
    det_sign, gram_sign = branch
    notes: list = []
    det_factor = 1.0 / (det_sign * _branch_sqrt(determinant, notes, "det(Id+L(Id+K)^-1)"))
    if det_sign < 0:
        notes.append("det(Id+L(Id+K)^-1): sign -1, the root continuous in t")
    # At J = 0 the 0 x 0 det M is 1 and the solve is empty: gram_factor 1, exponent 0.
    scaled_det_m = complex((2.0 * np.pi) ** j * np.linalg.det(gram))
    if scaled_det_m == 0:
        raise NumericFailureError("(2pi)^J det(M) underflows to 0")
    gram_factor = 1.0 / (gram_sign * _branch_sqrt(scaled_det_m, notes, "(2pi)^J det(M)"))
    if gram_sign < 0:
        notes.append("(2pi)^J det(M): sign -1, the root continuous in t")
    # The composed sign is fixed by performing the Gaussian integrals over
    # the pinning parameters: completing the square yields +1/2 u^T M^{-1} u.
    exponent_delta = 0.5 * complex(u @ np.linalg.solve(gram, u))
    notes.append("delta exponent: +1/2 u^T M^-1 u (Gaussian-integral composition)")

    value = det_factor * gram_factor * np.exp(exponent_quadratic + exponent_delta)
    # np.linalg.solve sets its own errstate, so an overflow inside it comes out
    # as a silent inf or nan in exponent_delta; refused here.
    if not np.isfinite(value):
        raise NumericFailureError(f"the T-transform {complex(value)} is not finite")
    return TTransformReport(value=complex(value),
                            exponent_quadratic=complex(exponent_quadratic),
                            exponent_delta=complex(exponent_delta),
                            u=u, branch_note=tuple(notes),
                            gram=gram.copy(), determinant=determinant, route=route,
                            cond_estimate=cond_estimate)


def _combine(g: Grid, f):
    """f as one 2n-vector, or None when f is absent or identically zero."""
    if f is None:
        return None
    check_same_grid(g, f)
    phi = f.as_vector()
    return phi if np.any(phi) else None


def _convention_sign(convention: str) -> float:
    """+1 for the composed convention, -1 for the printed one; any other is refused."""
    if convention not in ("composed", "printed"):
        raise InvalidParameterError(f"unknown convention {convention!r}")
    return 1.0 if convention == "composed" else -1.0


def magnetic_T(m: MagneticModel, y, f: GridFunctionPair | None = None,
               n_grid: int = 1000) -> TTransformReport:
    """Closed-form specialization of the T-transform for the magnetic model.

    Uses the analytic determinant cos^2(kt) and the analytic Gram matrix
    (i/k) tan(kt) Id.  A nonzero test function, which must live on a grid of
    the model's span [0, t), takes N^{-1} f from the continuum Green's
    function (:func:`fredholm.closed_solve`, an O(n) running sum), which
    gives both the quadratic term -1/2 (f, N^{-1} f) and the couplings
    (eta_a, N^{-1} f); so this route shares no solve with the structured
    one.  ``n_grid`` is unread; it stays because the perfbench probes pass it.
    """
    refuse_caustic(m)
    kt = m.k * m.t
    gram_diag = analytic_gram_diagonal(m)
    # The continuous branches: sqrt(cos^2(kt)) = cos(kt), from the t -> 0+
    # limit, and sqrt((2pi)^2 det M) = 2 pi i tan(kt)/k (t at k = 0), the
    # root that gives the free propagator's normalization.
    branch = (np.sign(np.cos(kt)), np.sign(gram_diag.imag))
    g = None if f is None else make_grid(m.t, f.grid.n)
    return _compose(complex(np.cos(kt) ** 2), gram_diag * np.eye(2, dtype=complex), y,
                    g, f, partial(closed_solve, m, g), route="closed", cond_estimate=None,
                    branch=branch)


@refuse_overflow("the printed formula")
def printed_propagator_value(m: MagneticModel, y) -> complex:
    """The as-quoted closed formula k/(2 pi i cos(kt)) exp(+(ik/2) cot(kt) |y|^2).

    Kept verbatim for comparison; it is not the value this package vouches
    for.  Its own k -> 0 limit is 0, because the prefactor k/(2 pi i cos(kt))
    vanishes, so it does not recover the free propagator; at k = 0 exactly
    this function returns :func:`free_limit_reference` instead.
    """
    y = np.asarray(y, dtype=float)
    kt = m.k * m.t
    if m.k == 0:
        return free_limit_reference(m.t, y)
    return (m.k / (2.0 * np.pi * 1j * np.cos(kt))
            * np.exp(np.multiply(0.5j * m.k / np.tan(kt), y @ y)))


@refuse_overflow("the closed form")
def composed_closed_value(m: MagneticModel, y) -> complex:
    """Closed form of the composed generalized expectation,
    k/(2 pi i sin(kt)) exp(+(ik/2) cot(kt) |y|^2)."""
    y = np.asarray(y, dtype=float)
    a, c = _closed_form_coefficients(m.k, m.t)
    return a * np.exp(np.multiply(c, y @ y))      # a numpy product flags its overflow


def _closed_form_coefficients(k: float, t, sign: float = 1.0):
    """(a, c) = (k/(2 pi i sin(kt)), sign (ik/2) cot(kt)) at a time or an array of
    times; at k = 0 the free propagator's (1/(2 pi i t), sign i/(2t))."""
    if k == 0:
        return 1.0 / (2.0 * np.pi * 1j * t), sign * 0.5j / t
    return k / (2.0 * np.pi * 1j * np.sin(k * t)), sign * 0.5j * k / np.tan(k * t)


def propagator(m: MagneticModel, y, n_grid: int = 600,
               f: GridFunctionPair | None = None) -> TTransformReport:
    """Generalized expectation, or the T-transform at f, by structured numeric composition.

    Returns the :class:`TTransformReport` of route "structured": numeric
    determinant, Gram matrix and resolvent, as :class:`LemmaEvaluator` with
    the magnetic K, L and the indicator directions, but with no dense
    matrix: O(n log n) time and O(n) memory.  The determinant, the condition
    number and N^{-1} all come from :class:`fredholm.Resolvent`.  The Gram
    matrix needs one solve: with N^{-1} eta_1 = (x1, x2), N^{-1} eta_2 =
    (-x2, x1) (:func:`fredholm.rotation_gram`).  A test function f, which
    must live on the n_grid grid, takes one more solve N^{-1} f, made by
    ``_compose`` as for every route.
    Composition and refusals are those of the dense oracle.
    """
    refuse_caustic(m)
    g = make_grid(m.t, n_grid)
    res = Resolvent.of(m, g)
    determinant = res.determinant
    refuse_singular_determinant(determinant)
    refuse_ill_conditioned(res.cond_estimate)
    gram = rotation_gram(g, res.solve(indicator_pair(g, 1).as_vector().real))
    _gram_branch(gram)  # LemmaEvaluator's admissibility verdict
    return _compose(determinant, gram, y, g, f, res.solve, route="structured",
                    cond_estimate=res.cond_estimate)


def free_limit_reference(t: float, y) -> complex:
    """Free 2D quantum propagator 1/(2 pi i t) exp(i |y|^2 / (2t)), hbar = m = 1: the
    composed closed value at k = 0, so a t not positive or not finite is refused."""
    return composed_closed_value(MagneticModel(k=0.0, t=t), y)


@refuse_overflow("the residual stencil")
def schrodinger_residual(m: MagneticModel, n: int = 21,
                         convention: str = "composed") -> float:
    """Finite-difference residual ||i dG/dt - H G|| / ||G|| of the composed
    propagator in the symmetric-gauge magnetic Schrödinger equation.

    G is sampled for t in [m.t / 2, m.t] and y in [-1, 1]^2, with n nodes
    per axis; the norms run over the interior nodes.  The Hamiltonian is
    the Legendre transform of the Lagrangian
    (1/2)(xdot1^2 + xdot2^2) + k (x1 xdot2 - xdot1 x2): canonical momenta
    p1 = xdot1 - k x2, p2 = xdot2 + k x1 give

        H = 1/2 [ (p1 + k y2)^2 + (p2 - k y1)^2 ],   p = -i d/dy.

    Expanded with central differences:
        H G = 1/2 [ -lap G - 2ik y2 dG/dy1 + 2ik y1 dG/dy2 + k^2 |y|^2 G ].

    G is a Gaussian in y and separates: G = a(t) u(t, y1) u(t, y2) with
    u = exp(c(t) y^2), (a, c) the closed form's prefactor and exponent
    coefficient.  With du, d2u the central first and second differences of
    u along y and w = 1/2 (d2u - k^2 y^2 u), the residual i dG/dt - H G on
    an interior time slice is a sum of six rank-one terms p(y1) q(y2):

        a (w (x) u + u (x) w) + ik a (du (x) yu - yu (x) du)
            + (i/2ht) (a u (x) u)(t + ht) - (i/2ht) (a u (x) u)(t - ht),

    the first pair from 1/2 lap G - 1/2 k^2 |y|^2 G, the second from the
    drift ik (y2 dG/dy1 - y1 dG/dy2), the last from the time difference.
    So u is sampled once on the (t, y) lattice, one stencil along y serves
    both axes, and each slice's residual is one (n-2) x 6 by 6 x (n-2)
    product; its |G|^2 is |a|^2 (sum |u|^2)^2.  Memory is O(n^2), the
    lattice of u and one slice's product, never the (t, y1, y2) cube.

    An integer caustic in the span (G singular) is refused, a half-integer one not.
    """
    sign = _convention_sign(convention)
    if n < 5:
        raise InvalidParameterError("need at least 5 nodes per axis")
    refuse_caustic_in_span(m, 0.5 * m.t)
    t_axis, y_axis = np.linspace(0.5 * m.t, m.t, n), np.linspace(-1.0, 1.0, n)
    hy, ht = y_axis[1] - y_axis[0], t_axis[1] - t_axis[0]
    a, c = _closed_form_coefficients(m.k, t_axis, sign)
    u = np.exp(c[:, None] * y_axis ** 2)                      # (t, y)
    yi, ui = y_axis[1:-1], u[:, 1:-1]
    ik_du = (1j * m.k / (2.0 * hy)) * (u[:, 2:] - u[:, :-2])
    w = ((u[:, 2:] - 2.0 * ui + u[:, :-2]) / (2.0 * hy ** 2)
         - (0.5 * np.square(m.k)) * yi ** 2 * ui)
    i_dt = 0.5j / ht * a
    core_sq = float(np.abs(a[1:-1]) ** 2 @ np.sum(np.abs(ui[1:-1]) ** 2, axis=1) ** 2)
    res_sq = 0.0
    for i in range(1, n - 1):
        # The six terms coef[r] p[r] (x) q[r]; q swaps w with u and ik du with yu.
        p = np.stack([w[i], ui[i], ik_du[i], yi * ui[i], ui[i + 1], ui[i - 1]])
        coef = np.array([a[i], a[i], a[i], -a[i], i_dt[i + 1], -i_dt[i - 1]])
        res = (coef[:, None] * p).T @ p[[1, 0, 3, 2, 4, 5]]
        res_sq += float(np.sum(res.real ** 2 + res.imag ** 2))
    # Squares below the smallest normal float have lost their digits (at k = 0 from t = 1e77).
    if not np.finfo(float).tiny <= min(res_sq, core_sq) <= max(res_sq, core_sq) < np.inf:
        raise NumericFailureError(f"the residual's squared norms {res_sq:.3g} and "
                                  f"{core_sq:.3g} are not both normal floats")
    return float(np.sqrt(res_sq / core_sq))


def residual_convergence(m: MagneticModel, convention: str = "composed") -> list:
    """Residuals at n = 11, 21 and 41 nodes per axis: each level halves both steps."""
    return [schrodinger_residual(m, n=10 * 2 ** level + 1, convention=convention)
            for level in range(3)]
