"""The verdict table: each route that refuses, just inside and just outside each guard.

Every row is one input placed next to one of the four guards; every column
one route.  A cell pins the outcome there: the refusal (error class,
``classification`` and the ``kt`` it carries) or the value.  A change to
the refusal policy edits the cells it flips, so this table is its flip list.

The guards and where the rows sit:

* the window |kt - j pi/2| <= 1e-9 max(1, |kt|): kt = j pi/2 (1 +- 5e-10)
  inside, (1 +- 2e-9) outside, at j = 1, 2 and at k < 0;
* the band |kt - (j + 1/2) pi| < 7.07e-5: 7.0e-5 inside, 7.2e-5 outside;
* the floor |det(Id + B)| < 1e-12: n theta placed by the lattice
  determinant cos^2(n theta) / cos^(2n)(theta), theta = arctan(kh), at
  0.99e-12 and 1.01e-12, on both sides of n theta = pi/2;
* the condition limit cond(N) > 1e12: n theta placed by the lattice
  spectrum next to n theta = 9 pi/2 on a coarse grid (kh = 6.3), where the
  determinant is far above the floor, at an exact 2-norm condition of 1.1e12
  and 0.9e12.  The dense route's LAPACK 1-norm estimate reads 1.79 times
  the exact one there, so its own rows sit at exact 0.62e12 and 0.5e12.

A value is held to the recorded one at a relative 1e-7 + 1e-15 cond, the
rounding of the solve amplified by the lattice condition number.
"""

import numpy as np
import pytest

from hida_lab import (CausticError, MagneticModel, NearSingularError, gram_matrix, magnetic_T,
                      propagator, schrodinger_residual, solve_N, verify_preimage)
from hida_lab.feynman import LemmaEvaluator
from hida_lab.fredholm import closed_solve
from hida_lab.grid import make_grid
from hida_lab.operators import free_K, magnetic_L
from hida_lab.testfunctions import indicator_pair, random_suite
from lattice import Lattice

PI = np.pi


def _t_at_determinant(k: float, n: int, det: float, side: int) -> float:
    """t with lattice det(Id + B) = det, at n theta = pi/2 + side delta."""
    delta = 0.0
    for _ in range(20):     # delta = arcsin(sqrt(det) cos^n(theta)) is a contraction
        delta = np.arcsin(np.sqrt(det) * np.cos((PI / 2 + side * delta) / n) ** n)
    return n * np.tan((PI / 2 + side * delta) / n) / k


def _t_at_condition(k: float, n: int, j: int, cond: float, side: int) -> float:
    """t with lattice cond(Id + B) = cond, at n theta = (j + 1/2) pi + side delta."""
    def t_of(delta):
        return n * np.tan(((j + 0.5) * PI + side * delta) / n) / k

    lo, hi = 1e-16, 1e-6            # cond falls as delta grows
    for _ in range(100):
        mid = np.sqrt(lo * hi)
        lo, hi = (mid, hi) if Lattice(k, t_of(mid), n).condition > cond else (lo, mid)
    return t_of(np.sqrt(lo * hi))


# name: (k, t, n)
POINTS = {}
for _j, _name in ((1, "half"), (2, "int")):
    for _d, _tag in ((-5e-10, "in-"), (5e-10, "in+"), (-2e-9, "out-"), (2e-9, "out+")):
        POINTS[f"window_{_name}_{_tag}"] = (1.0, _j * PI / 2 * (1 + _d), 200)
POINTS["window_int_kneg_in"] = (-1.3, PI * (1 - 5e-10) / 1.3, 200)
POINTS["window_int_kneg_out"] = (-1.3, PI * (1 + 2e-9) / 1.3, 200)
for _d, _tag in ((-7.0e-5, "in-"), (7.0e-5, "in+"), (-7.2e-5, "out-"), (7.2e-5, "out+")):
    POINTS[f"band_{_tag}"] = (1.0, PI / 2 + _d, 200)
POINTS["band_kneg_in"] = (-0.7, (1.5 * PI + 7.0e-5) / 0.7, 200)
POINTS["band_kneg_out"] = (-0.7, (1.5 * PI + 7.2e-5) / 0.7, 200)
for _side, _s in ((-1, "-"), (1, "+")):
    for _det, _tag in ((0.99e-12, "in"), (1.01e-12, "out")):
        POINTS[f"floor_{_tag}{_s}"] = (1.0, _t_at_determinant(1.0, 200, _det, _side), 200)
    for _cond, _tag in ((1.1e12, "in"), (0.9e12, "out"), (0.62e12, "dense_in"),
                        (0.5e12, "dense_out")):
        POINTS[f"cond_{_tag}{_s}"] = (100.0, _t_at_condition(100.0, 10, 4, _cond, _side), 10)

ROUTES = ("propagator", "closed_f0", "closed_f", "dense", "solve_N", "gram_matrix",
          "closed_solve", "residual", "verify_preimage")


def _route(name: str, k: float, t: float, n: int):
    """The route's outcome at y = 0, with the seeded test function f on the n-grid.

    gram_matrix and verify_preimage give M_11; solve_N and closed_solve give h (f, N^{-1} f);
    the residual is schrodinger_residual's, at its own 21 nodes.
    """
    m = MagneticModel(k=k, t=t)
    g = make_grid(t, n)
    f = random_suite(7, 1, g)[0]
    etas = (indicator_pair(g, 1), indicator_pair(g, 2))
    y = (0.0, 0.0)
    if name == "propagator":
        return propagator(m, y, n_grid=n).value
    if name == "closed_f0":
        return magnetic_T(m, y).value
    if name == "closed_f":
        return magnetic_T(m, y, f=f).value
    if name == "dense":
        return LemmaEvaluator(free_K(m, g), magnetic_L(m, g), etas).evaluate(ys=y).value
    if name == "solve_N":
        return complex(g.h * f.as_vector() @ solve_N(m, g, f).as_vector())
    if name == "gram_matrix":
        return complex(gram_matrix(m, g, etas)[0, 0])
    if name == "closed_solve":
        return complex(g.h * f.as_vector() @ closed_solve(m, g, f.as_vector()))
    if name == "verify_preimage":
        return complex(verify_preimage(m, g)["gram"][0, 0])
    return schrodinger_residual(m)


# In ROUTES order.  "int" / "half": CausticError [integer_caustic /
# half_integer_caustic] carrying the model's kt; "int@2pi": the residual's,
# carrying the caustic j pi (here j = 2) in its span; "half@det": the floor's,
# carrying no kt; "cond": NearSingularError; a number: the value.
VERDICTS = {
    "window_half_in-": ("half", "half", "half", -0.1581762473j, "half", "half", "half",
        0.001622295653, "half"),
    "window_half_in+": ("half", "half", "half", -0.1581762473j, "half", "half", "half",
        0.001622295649, "half"),
    "window_half_out-": (-0.1581762473j, -0.1591549431j, "half", -0.1581762473j, "half",
        "half", "half", 0.001622295658, "half"),
    "window_half_out+": (-0.1581762473j, -0.1591549431j, "half", -0.1581762473j, "half",
        "half", "half", 0.001622295643, "half"),
    "window_int_in-": ("int", "int", "int", -601.0338716j, 0.1324672083j, -0.0002583489694j,
        0.1324899145j, "int@1pi", -0.0002583489694j),
    "window_int_in+": ("int", "int", "int", -601.0411786j, 0.1324672085j, -0.0002583458286j,
        0.1324899147j, "int@1pi", -0.0002583458286j),
    "window_int_out-": (-601.0229115j, -25330294.53j, 16259622.55-19422885.86j, -601.0229115j,
        0.132467208j, -0.0002583536807j, 0.1324899141j, 62123994.23, -0.0002583536807j),
    "window_int_out+": (-601.0521395j, 25330297.31j, 9487374.201+23486457.64j, -601.0521395j,
        0.1324672088j, -0.0002583411174j, 0.132489915j, "int@1pi", -0.0002583411174j),
    "window_int_kneg_in": ("int", "int", "int", -781.3440331j, 0.1875551414j,
        -0.0001987299765j, 0.1876011525j, "int@-1pi", -0.0001987299765j),
    "window_int_kneg_out": (-781.3677813j, 32929386.5j, 31649273.94+9092191.95j,
        -781.3677813j, 0.1875551426j, -0.0001987239365j, 0.1876011537j, "int@-1pi",
        -0.0001987239365j),
    "band_in-": (-0.158176335j, -0.1591549435j, "half", -0.158176335j, "half", "half", "half",
        0.001622462935, "half"),
    "band_in+": (-0.1581761604j, -0.1591549435j, "half", -0.1581761604j, "half", "half",
        "half", 0.001622128402, "half"),
    "band_out-": (-0.1581763375j, -0.1591549435j, -0.006675646002-0.1590148792j,
        -0.1581763375j, 164.9825751j, 9588.410842j, 238.9506482j, 0.001622467715,
        9588.410842j),
    "band_out+": (-0.1581761579j, -0.1591549435j, -0.00706683265-0.1589979746j,
        -0.1581761579j, -433.1822097j, -25189.8374j, -238.8151987j, 0.001622123624,
        -25189.8374j),
    "band_kneg_in": (-0.105393485j, 0.1114084604j, "half", -0.105393485j, "half", "half",
        "half", "int@-1pi", "half"),
    "band_kneg_out": (-0.1053934798j, 0.1114084605j, 0.05330591791+0.09782803369j,
        -0.1053934798j, 502.5299027j, 1786.157949j, -5579.086716j, "int@-1pi", 1786.157949j),
    "floor_in-": ("half@det", -0.1591549432j, "half", "half@det", "half", "half", "half",
        0.001622220838, "half"),
    "floor_out-": (-0.1581762083j, -0.1591549432j, "half", -0.1581762083j, "half", "half",
        "half", 0.001622220862, "half"),
    "cond_in-": ("cond", -52.88864045j, 28.08388108-44.81633533j, "cond", "cond", "cond",
        0.03927513372j, "int@20pi", "cond"),
    "cond_out-": (-1.396812696e-07j, -52.88864054j, 28.08388116-44.81633538j, "cond",
        42920873.2j, 142545109.5j, 0.03927513371j, "int@20pi", 142545109.5j),
    "cond_dense_in-": (-1.396847307e-07j, -52.88864075j, 28.08388138-44.8163355j, "cond",
        29567185.68j, 98195991.95j, 0.03927513371j, "int@20pi", 98195991.95j),
    "cond_dense_out-": (-1.396848369e-07j, -52.88864092j, 28.08388154-44.81633559j,
        -1.39683319e-07j, 23843996.7j, 79188629.36j, 0.03927513371j, "int@20pi", 79188629.36j),
    "floor_in+": ("half@det", -0.1591549432j, "half", "half@det", "half", "half", "half",
        0.001622216113, "half"),
    "floor_out+": (-0.1581762059j, -0.1591549432j, "half", -0.1581762059j, "half", "half",
        "half", 0.001622216089, "half"),
    "cond_in+": ("cond", -52.88863966j, 28.0838803-44.81633489j, "cond", "cond", "cond",
        0.03927513372j, "int@20pi", "cond"),
    "cond_out+": (-1.39685368e-07j, -52.88863958j, 28.08388021-44.81633484j, "cond",
        -42917934.79j, -142535350.7j, 0.03927513372j, "int@20pi", -142535350.7j),
    "cond_dense_in+": (-1.396828482e-07j, -52.88863936j, 28.08388-44.81633472j, "cond",
        -29567185.68j, -98195991.96j, 0.03927513372j, "int@20pi", -98195991.96j),
    "cond_dense_out+": (-1.396844572e-07j, -52.88863919j, 28.08387983-44.81633462j,
        -1.396833187e-07j, -23844385.38j, -79189920.23j, 0.03927513372j, "int@20pi",
        -79189920.23j),
}


@pytest.mark.parametrize("point", list(POINTS))
@pytest.mark.parametrize("route", ROUTES)
def test_verdict(point, route):
    k, t, n = POINTS[point]
    expected = VERDICTS[point][ROUTES.index(route)]
    if not isinstance(expected, str):
        tol = 1e-7 + 1e-15 * Lattice(k, t, n).condition
        assert _route(route, k, t, n) == pytest.approx(expected, rel=tol)
        return
    error = NearSingularError if expected == "cond" else CausticError
    with pytest.raises(error) as exc:
        _route(route, k, t, n)
    if error is CausticError:
        kind, _, carried = expected.partition("@")
        assert exc.value.classification == {"int": "integer_caustic",
                                            "half": "half_integer_caustic"}[kind]
        kt = {"": k * t, "det": None}.get(carried)
        assert exc.value.kt == (kt if carried in ("", "det") else int(carried[:-2]) * PI)
