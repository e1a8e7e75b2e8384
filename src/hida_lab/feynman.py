"""Composition of the master T-transform, the magnetic propagator, caustic
classification and the Schrödinger-residual verification, which runs over
the model's own time span [t/2, t].

Three evaluation routes exist on purpose:

* :func:`magnetic_T`, the closed route, evaluates the closed-form
  specialization (analytic determinant, closed-form preimages, analytic
  Gram matrix); at a test function f it takes N^{-1} f from the continuum
  Green's function (:func:`fredholm.closed_solve`), an O(n) running sum.
* :func:`propagator`, the structured route, takes the numeric
  ingredients for the magnetic K, L from the structured N^{-1}
  (:class:`fredholm.Resolvent`) in O(n log n), with no dense matrix, at
  f = 0 or at a test function f.
* :class:`LemmaEvaluator` composes the T-transform from fully numeric
  dense ingredients for any K, L: one dense LU of N gives the determinant,
  the resolvent solves and the numeric Gram matrix.  It is the dense
  oracle.  When N is i times a real matrix, as the magnetic
  N = -i(Id + B) is, that LU is a real one.

The closed and structured routes share no solve, and ``verify``'s
``two_path_consistency`` compares them at seeded test functions.  The
structured route shares the composition and the refusals with
:class:`LemmaEvaluator`, and the tests hold it to that dense oracle.

The sign of the delta exponent and the square-root branches are fixed by
actually performing the Gaussian integrals that define the pinned product:
the exponent is +1/2 u^T M^{-1} u and the branches are chosen so the value
is continuous in t and matches the free propagator as t -> 0+.  With these
choices the composed generalized expectation at k > 0 is

    k / (2 pi i sin(kt)) * exp(+(ik/2) cot(kt) (y1^2 + y2^2)),

which reduces to the free two-dimensional propagator as k -> 0 and solves
the magnetic Schrödinger equation (both verified in the test suite).

"Printed" names two things.  ``convention="printed"`` (:func:`magnetic_T`,
:func:`composed_closed_value`, :func:`schrodinger_residual`, ``--convention``)
keeps the sin prefactor and flips the delta exponent to -1/2 u^T M^{-1} u;
the residual check judges the composed convention against this one; any
other convention is refused.  :func:`printed_propagator_value` is the
often-quoted cos-prefactor formula k / (2 pi i cos(kt)) * exp(+(ik/2) cot(kt)
|y|^2): ``hida-lab propagator`` reports it for comparison, never substituted
and selected by no convention.  A composed value that is not finite is
refused with :class:`NumericFailureError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (CausticError, ConditionViolationError, InvalidParameterError,
                     NearSingularError, NumericFailureError)
from .fredholm import (Resolvent, analytic_gram_diagonal, check_away_from_caustic,
                       closed_preimage_f, closed_preimage_g, closed_solve,
                       refuse_ill_conditioned)
from .grid import Grid, GridFunctionPair, make_grid, pair
from .operators import BlockOperator, MagneticModel
from .testfunctions import indicator_pair

_NEAR_REAL = 1e-8
# Refuse a Fredholm determinant below this modulus as a caustic.
_DET_FLOOR = 1e-12
# A Gram matrix whose real part is below this share of its scale is imaginary.
_GRAM_TOL = 1e-8
# Rows per block in the block-wise passes over a dense 2n x 2n matrix.
_ROWS = 256


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
    det_factor: complex
    gram_factor: complex
    exponent_quadratic: complex
    exponent_delta: complex
    u: np.ndarray
    branch_note: tuple
    convention: str
    gram: np.ndarray = field(default=None, repr=False)
    determinant: complex = None
    route: str = None                 # closed | structured | dense
    cond_estimate: float = None       # cond of N: exact 2-norm (structured), 1-norm estimate (dense)


@dataclass(frozen=True)
class CausticClassification:
    classification: str               # regular | integer_caustic | half_integer_caustic
    kt: float
    distance: float                   # |kt - nearest caustic value of kt|


class LemmaEvaluator:
    """Numeric ingredients of the master T-transform, computed once per (K, L, etas).

    N = Id+K+L is assembled in one dense buffer and LU-factorized there,
    once.  Those factors give det N and the solves, so the determinant
    det(Id + L(Id+K)^{-1}) = det N / det(Id+K) needs only det(Id+K): the
    product of its diagonal when K has no off-diagonal nonzero (the magnetic
    free_K), a dense slogdet otherwise.  The Gram matrix of the pinning
    directions is built from resolvent solves.  ``evaluate`` is then cheap
    per test function.

    When Re N = 0 exactly, so N = i R with R real, the buffer holds R and the
    LU is real, about a quarter of the flops of a complex one.  The magnetic
    N = -i(Id + B) is such a case.  Nothing is approximated: the phase i
    factors out exactly, as det N = (-1)^n det R for 2n x 2n N,
    N^{-1} b = -i R^{-1} b and cond(N) = cond(R).  A complex b goes through
    R^{-1} as two real columns, its real and imaginary parts.  Any other N is
    factored as a complex matrix.
    """

    def __init__(self, K: BlockOperator, L: BlockOperator, etas=()):
        if K.grid != L.grid:
            raise InvalidParameterError("K and L must live on the same grid")
        self.grid = K.grid
        self.etas = tuple(etas)
        for eta in self.etas:
            if eta.grid != self.grid:
                raise InvalidParameterError("every eta must live on the operator grid")
        # Deferred: only this dense oracle needs scipy, which is slow to import.
        import scipy.linalg as sla

        n2 = 2 * self.grid.n
        sign_k, logdet_k = _slogdet_id_plus(K.entries)
        if sign_k == 0:
            raise NearSingularError("Id + K is singular", cond_estimate=np.inf)
        # The one dense buffer a: N itself, or the real Im N when N = i a.
        a = _assemble_N(K.entries, L.entries)
        real = not np.iscomplexobj(a)
        # a.T is a^T in Fortran order, which LAPACK reads and factors in place.
        # So solves take trans=1, and the 1-norm of a (that of N) is the
        # inf-norm of a^T, taken before the LU overwrites a.
        lange = sla.get_lapack_funcs("lange", (a,))
        anorm = lange("I", a.T)
        lu, piv = sla.lu_factor(a.T, overwrite_a=True)
        solve = partial(sla.lu_solve, (lu, piv), trans=1)
        self._solve = partial(_solve_real, solve) if real else solve
        # det a = (-1)^swaps prod diag(U), a zero pivot giving det N = 0; for
        # N = i a, det N = i^2n det a = (-1)^n det a.
        sign_u, log_abs_n = _slogdet_diagonal(np.diagonal(lu))
        swaps = np.count_nonzero(piv != np.arange(n2)) + (self.grid.n if real else 0)
        phase_n = (-1) ** swaps * sign_u
        self.determinant = complex(phase_n / sign_k * np.exp(log_abs_n - logdet_k))
        _refuse_singular_determinant(self.determinant)

        gecon = sla.get_lapack_funcs("gecon", (lu,))
        rcond, _ = gecon(lu, anorm, norm="I")
        self.cond_estimate = np.inf if rcond == 0 else 1.0 / rcond
        refuse_ill_conditioned(self.cond_estimate)

        etas_mat = np.array([eta.as_vector() for eta in self.etas],
                            dtype=complex).reshape(len(self.etas), n2)
        self._weighted_etas = self.grid.h * etas_mat
        self.gram = self._weighted_etas @ self._solve(etas_mat.T)
        if self.etas:
            self.gram_branch = _gram_branch(self.gram, _GRAM_TOL)

    def evaluate(self, f: GridFunctionPair | None = None, ys=()) -> TTransformReport:
        ys = np.asarray(ys, dtype=float)
        j = len(self.etas)
        if ys.shape != (j,):
            raise InvalidParameterError(f"need {j} pinning values, got shape {ys.shape}")

        phi = _combine(self.grid, f)
        u = 1j * ys
        if phi is None:
            exponent_quadratic = 0.0 + 0.0j
        else:
            n_inv_phi = self._solve(phi)
            exponent_quadratic = -0.5 * complex((self.grid.h * phi) @ n_inv_phi)
            u = u + self._weighted_etas @ n_inv_phi
        return _compose(self.determinant, self.gram, u, exponent_quadratic,
                        route="dense", cond_estimate=self.cond_estimate)


def _refuse_singular_determinant(determinant: complex) -> None:
    if abs(determinant) < _DET_FLOOR:
        raise CausticError(
            f"det(Id + L(Id+K)^{{-1}}) = {determinant:.3g} is singular",
            classification="half_integer_caustic")


def _assemble_N(k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """N = Id + k + l as one dense buffer, or the real Im N when Re N = 0.

    The test is exact: Re N = 0 everywhere (the magnetic N = -i(Id + B)) gives
    the real buffer Im N, with N = i Im N.  Re N is formed a block of rows at
    a time, so that case makes no complex 2n x 2n matrix.  Any other N comes
    back whole and complex; the real buffer is dropped before that one is made.
    """
    n2 = len(k)
    im_n = np.empty((n2, n2))
    re_block = np.empty((min(_ROWS, n2), n2))
    for start in range(0, n2, _ROWS):
        stop = min(start + _ROWS, n2)
        re = re_block[:stop - start]
        np.add(k.real[start:stop], l.real[start:stop], out=re)
        re[np.arange(stop - start), np.arange(start, stop)] += 1.0
        if re.any():
            del im_n
            n_matrix = k + l
            n_matrix[np.diag_indices(n2)] += 1.0
            return n_matrix
        np.add(k.imag[start:stop], l.imag[start:stop], out=im_n[start:stop])
    return im_n


def _solve_real(solve, rhs: np.ndarray) -> np.ndarray:
    """N^{-1} rhs for N = i a with a real, given solve = a^{-1} on real arrays.

    The real and imaginary parts of rhs go in as separate real columns: a
    complex rhs would make scipy cast the real LU to complex.
    """
    rhs = np.asarray(rhs)
    columns = rhs.reshape(len(rhs), -1)
    j = columns.shape[1]
    x = solve(np.concatenate([columns.real, columns.imag], axis=1))
    # N^{-1} rhs = -i a^{-1} rhs.
    return (x[:, j:] - 1j * x[:, :j]).reshape(rhs.shape)


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


def _gram_branch(gram: np.ndarray, tol: float) -> str:
    """'imaginary' or 'positive_real'; any other Gram matrix is refused."""
    scale = np.abs(gram).max()
    re, im = gram.real, gram.imag
    if np.abs(re).max() <= tol * max(scale, 1e-300):
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


def _compose(determinant: complex, gram: np.ndarray, u: np.ndarray,
             exponent_quadratic: complex, route: str,
             cond_estimate: float) -> TTransformReport:
    """det^{-1/2} ((2pi)^J det M)^{-1/2} exp(exponent_quadratic + 1/2 u^T M^{-1} u)."""
    notes: list = []
    det_factor = 1.0 / _branch_sqrt(determinant, notes, "det(Id+L(Id+K)^-1)")
    j = len(u)
    if j == 0:
        gram_factor = 1.0 + 0.0j
        exponent_delta = 0.0 + 0.0j
    else:
        scaled_det_m = (2.0 * np.pi) ** j * complex(np.linalg.det(gram))
        if scaled_det_m == 0:
            raise NumericFailureError("(2pi)^J det(M) underflows to 0")
        gram_factor = 1.0 / _branch_sqrt(scaled_det_m, notes, "(2pi)^J det(M)")
        # Sign fixed by performing the Gaussian integrals over the pinning
        # parameters: completing the square yields +1/2 u^T M^{-1} u.
        exponent_delta = 0.5 * complex(u @ np.linalg.solve(gram, u))
        notes.append("delta exponent: +1/2 u^T M^-1 u (Gaussian-integral composition)")

    value = _finite_value(det_factor * gram_factor, exponent_quadratic + exponent_delta)
    return TTransformReport(value=complex(value), det_factor=complex(det_factor),
                            gram_factor=complex(gram_factor),
                            exponent_quadratic=complex(exponent_quadratic),
                            exponent_delta=complex(exponent_delta),
                            u=u, branch_note=tuple(notes), convention="composed",
                            gram=gram.copy(), determinant=determinant, route=route,
                            cond_estimate=cond_estimate)


def _finite_value(prefactor: complex, exponent: complex) -> complex:
    """prefactor * exp(exponent), refused when it is not a finite number."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = prefactor * np.exp(exponent)
    if not np.isfinite(value):
        raise NumericFailureError(
            f"T-transform {complex(value)} is not finite (exponent {exponent:.6g})")
    return value


def _combine(g: Grid, f):
    """f as one 2n-vector, or None when f is absent or identically zero."""
    if f is None:
        return None
    if f.grid != g:
        raise InvalidParameterError("test function lives on a different grid")
    phi = f.as_vector()
    return phi if np.any(phi) else None


def _convention_sign(convention: str) -> float:
    """+1 for the composed convention, -1 for the printed one; any other is refused."""
    if convention not in ("composed", "printed"):
        raise InvalidParameterError(f"unknown convention {convention!r}")
    return 1.0 if convention == "composed" else -1.0


def caustic_check(m: MagneticModel) -> CausticClassification:
    """Classify kt against the exclusion set {n pi} u {(n + 1/2) pi}."""
    kt = m.k * m.t
    if m.k == 0:
        return CausticClassification(classification="regular", kt=0.0,
                                     distance=float("inf"))
    half = np.pi / 2.0
    # kt = 0 is the t -> 0 limit, not a caustic: the nearest one is +-pi/2.
    nearest_idx = round(kt / half) or (1 if kt >= 0 else -1)
    distance = abs(kt - nearest_idx * half)
    if distance <= 1e-9 * max(1.0, abs(kt)):
        kind = "integer_caustic" if nearest_idx % 2 == 0 else "half_integer_caustic"
        return CausticClassification(classification=kind, kt=kt, distance=distance)
    return CausticClassification(classification="regular", kt=kt, distance=distance)


def _require_regular(m: MagneticModel) -> None:
    cls = caustic_check(m)
    if cls.classification != "regular":
        raise CausticError(
            f"kt = {cls.kt:.6g} is at a caustic of class {cls.classification}",
            classification=cls.classification, kt=cls.kt)


def magnetic_T(m: MagneticModel, y, f: GridFunctionPair | None = None,
               n_grid: int = 1000, convention: str = "composed") -> TTransformReport:
    """Closed-form specialization of the T-transform for the magnetic model.

    Uses the closed-form preimages, the analytic determinant cos^2(kt) and
    the analytic Gram matrix (i/k) tan(kt) Id.  The quadratic term
    -1/2 (f, N^{-1} f) in a nonzero test function takes N^{-1} f on f's grid
    from the continuum Green's function (:func:`fredholm.closed_solve`, an
    O(n) running sum), so this route shares no solve with the structured
    one.  ``n_grid`` is unread; it stays because the perfbench probes pass it.
    """
    sign = 0.5 * _convention_sign(convention)
    _require_regular(m)
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise InvalidParameterError(f"endpoint must be a real pair, got shape {y.shape}")

    notes = [f"analytic determinant cos^2(kt) = {np.cos(m.k * m.t) ** 2:.6g}"]

    check_away_from_caustic(m)
    gram_diag = analytic_gram_diagonal(m)
    # Branch: sqrt(cos^2) = cos, continuous from the t -> 0+ limit on the
    # first caustic-free interval and consistent with the sin-form prefactor.
    det_factor = 1.0 / complex(np.cos(m.k * m.t))
    notes.append("det branch: sqrt(cos^2(kt)) = cos(kt) (continuity in t)")

    gram = gram_diag * np.eye(2, dtype=complex)
    # sqrt((2pi)^2 det M) = 2 pi i mu for det M = (i mu)^2, mu = tan(kt)/k
    # (t at k = 0): the branch that reproduces the free propagator normalization.
    mu = gram_diag.imag
    gram_factor = 1.0 / (2.0 * np.pi * 1j * mu)
    notes.append("gram branch: sqrt(det M) = i tan(kt)/k (free-limit continuity)")

    if f is None or not (np.any(f.comp1) or np.any(f.comp2)):
        exponent_quadratic = 0.0 + 0.0j
        coupling = np.zeros(2, dtype=complex)
    else:
        phi = f.as_vector()
        exponent_quadratic = -0.5 * complex((f.grid.h * phi) @ closed_solve(m, f.grid, phi))
        coupling = np.array([pair(closed_preimage_f(m, f.grid), f),
                             pair(closed_preimage_g(m, f.grid), f)])

    u = 1j * y + coupling
    minv = 1.0 / gram_diag
    exponent_delta = sign * minv * complex(u @ u)
    notes.append(f"delta exponent sign: {'+' if sign > 0 else '-'}1/2 u^T M^-1 u "
                 f"({convention})")

    value = _finite_value(det_factor * gram_factor, exponent_quadratic + exponent_delta)
    return TTransformReport(value=complex(value), det_factor=complex(det_factor),
                            gram_factor=complex(gram_factor),
                            exponent_quadratic=complex(exponent_quadratic),
                            exponent_delta=complex(exponent_delta), u=u,
                            branch_note=tuple(notes), convention=convention,
                            gram=gram, determinant=complex(np.cos(m.k * m.t) ** 2),
                            route="closed")


def printed_propagator_value(m: MagneticModel, y) -> complex:
    """The as-quoted closed formula k/(2 pi i cos(kt)) exp(+(ik/2) cot(kt) |y|^2).

    Kept verbatim for comparison; it does not recover the free propagator as
    k -> 0 and is not the value this package vouches for.
    """
    y = np.asarray(y, dtype=float)
    kt = m.k * m.t
    if m.k == 0:
        return free_limit_reference(m.t, y)
    return (m.k / (2.0 * np.pi * 1j * np.cos(kt))
            * np.exp(0.5j * m.k / np.tan(kt) * float(y @ y)))


def composed_closed_value(m: MagneticModel, y, convention: str = "composed") -> complex:
    """Closed form of the composed generalized expectation.

    k/(2 pi i sin(kt)) exp(+-(ik/2) cot(kt) |y|^2); the '+' sign is the
    composed convention, '-' the alternative under adjudication.
    """
    sign = _convention_sign(convention)
    y = np.asarray(y, dtype=float)
    return _closed_form(m.k, m.t, float(y @ y), sign)


def _closed_form(k: float, t: float, r2, sign: float = 1.0):
    """k/(2 pi i sin(kt)) exp(sign (ik/2) cot(kt) r2) at |y|^2 = r2, scalar or array.

    At k = 0 this is the free propagator 1/(2 pi i t) exp(sign i r2 / (2t)).
    """
    if k == 0:
        return 1.0 / (2.0 * np.pi * 1j * t) * np.exp(sign * 0.5j * r2 / t)
    kt = k * t
    return (k / (2.0 * np.pi * 1j * np.sin(kt))
            * np.exp(sign * 0.5j * k / np.tan(kt) * r2))


def propagator(m: MagneticModel, y, n_grid: int = 600,
               f: GridFunctionPair | None = None) -> TTransformReport:
    """Generalized expectation, or the T-transform at f, by structured numeric composition.

    Returns the :class:`TTransformReport` of route "structured": numeric
    determinant, Gram matrix and resolvent, as :class:`LemmaEvaluator` with
    the magnetic K, L and the indicator directions, but with no dense
    matrix: O(n log n) time and O(n) memory.  The determinant, the condition
    number and N^{-1} all come from :class:`fredholm.Resolvent`.  The Gram
    matrix needs one solve: with N^{-1} eta_1 = (x1, x2), N^{-1} eta_2 =
    (-x2, x1).  A test function f, which must live on the n_grid grid,
    takes one more solve N^{-1} f for the quadratic term -1/2 (f, N^{-1} f)
    and the couplings (eta_a, N^{-1} f), as in ``LemmaEvaluator.evaluate``.
    Composition and refusals are those of the dense oracle.
    """
    _require_regular(m)
    y = np.asarray(y, dtype=float)
    g = make_grid(m.t, n_grid)
    phi = _combine(g, f)
    res = Resolvent.of(m, g)
    determinant = res.determinant
    _refuse_singular_determinant(determinant)
    refuse_ill_conditioned(res.cond_estimate)
    x = res.solve(indicator_pair(g, 1).as_vector().real)
    # M_ab = (eta_a, N^{-1} eta_b): the eta_1 and eta_2 components of x.
    m11 = g.h * np.sum(x[:g.n])
    m21 = g.h * np.sum(x[g.n:])
    gram = np.array([[m11, -m21], [m21, m11]])
    _gram_branch(gram, _GRAM_TOL)     # LemmaEvaluator's admissibility verdict
    u = 1j * y
    exponent_quadratic = 0.0 + 0.0j
    if phi is not None:
        n_inv_phi = res.solve(phi)
        exponent_quadratic = -0.5 * complex((g.h * phi) @ n_inv_phi)
        u = u + g.h * n_inv_phi.reshape(2, g.n).sum(axis=1)
    return _compose(determinant, gram, u, exponent_quadratic,
                    route="structured", cond_estimate=res.cond_estimate)


def external_force_green(m: MagneticModel, y, force: GridFunctionPair,
                         convention: str = "composed") -> complex:
    """Green's function under an external force: the T-transform at the force."""
    return magnetic_T(m, y, f=force, convention=convention).value


def free_limit_reference(t: float, y) -> complex:
    """Free 2D quantum propagator 1/(2 pi i t) exp(i |y|^2 / (2t)), hbar = m = 1."""
    if not t > 0:
        raise InvalidParameterError(f"time must be positive, got {t}")
    y = np.asarray(y, dtype=float)
    return _closed_form(0.0, t, float(y @ y))


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

    The stencil runs one time slice at a time: it holds the n x n slices of
    G at t - ht, t and t + ht, forms the residual on the interior nodes of
    the middle one, adds |res|^2 and |G|^2 to two float sums and moves the
    slices on.  Memory is O(n^2), not the O(n^3) of the whole (t, y1, y2)
    cube, and the sums are plain numpy reductions, not a threaded BLAS dot.

    An integer caustic kt = j pi (j != 0), where G is singular, is refused
    anywhere in the span, at a time node or between two.  A half-integer
    caustic is not: G is regular there (cot(kt) = 0, |sin(kt)| = 1).
    """
    sign = _convention_sign(convention)
    if n < 5:
        raise InvalidParameterError("need at least 5 nodes per axis")
    t_axis = np.linspace(0.5 * m.t, m.t, n)
    for t_edge in t_axis:
        cls = caustic_check(MagneticModel(k=m.k, t=float(t_edge)))
        if cls.classification == "integer_caustic":
            raise CausticError(f"caustic at t = {t_edge:.6g} inside the time span",
                               classification=cls.classification, kt=cls.kt)
    lo, hi = sorted((0.5 * m.k * m.t, m.k * m.t))
    j = np.floor(hi / np.pi)
    if m.k != 0 and j * np.pi >= lo:
        raise CausticError(f"integer caustic kt = {j:.0f} pi inside the time span "
                           f"[{0.5 * m.t:.6g}, {m.t:.6g}], between its nodes",
                           classification="integer_caustic", kt=float(j * np.pi))

    y_axis = np.linspace(-1.0, 1.0, n)
    hy = y_axis[1] - y_axis[0]
    ht = t_axis[1] - t_axis[0]
    r2 = y_axis[:, None] ** 2 + y_axis[None, :] ** 2
    yy1 = y_axis[1:-1, None]
    yy2 = y_axis[None, 1:-1]
    drift1 = 2j * m.k * yy2
    drift2 = 2j * m.k * yy1
    potential = (m.k ** 2) * (yy1 ** 2 + yy2 ** 2)
    # Three time slices of G at a time, (y1, y2) each: t - ht, t, t + ht.
    before, g = (_closed_form(m.k, t, r2, sign) for t in t_axis[:2])
    res_sq = core_sq = 0.0
    for t_after in t_axis[2:]:
        after = _closed_form(m.k, t_after, r2, sign)
        dt = (after[1:-1, 1:-1] - before[1:-1, 1:-1]) / (2.0 * ht)
        d1 = (g[2:, 1:-1] - g[:-2, 1:-1]) / (2.0 * hy)
        d2 = (g[1:-1, 2:] - g[1:-1, :-2]) / (2.0 * hy)
        core = g[1:-1, 1:-1]
        two_core = 2 * core
        lap = ((g[2:, 1:-1] - two_core + g[:-2, 1:-1])
               + (g[1:-1, 2:] - two_core + g[1:-1, :-2])) / hy ** 2
        h_g = 0.5 * (-lap - drift1 * d1 + drift2 * d2 + potential * core)
        res = 1j * dt - h_g
        res_sq += float(np.sum(res.real ** 2 + res.imag ** 2))
        core_sq += float(np.sum(core.real ** 2 + core.imag ** 2))
        before, g = g, after
    return float(np.sqrt(res_sq / core_sq))


def residual_convergence(m: MagneticModel, convention: str = "composed",
                         levels: int = 3) -> list:
    """Residuals at n = 11, 21, 41, ... nodes per axis: each level halves both steps."""
    return [schrodinger_residual(m, n=10 * 2 ** level + 1, convention=convention)
            for level in range(levels)]
