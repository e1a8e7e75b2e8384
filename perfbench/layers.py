"""Layer probe of the traced run: timed calls into each module's public functions.

Sizes follow the ladder n in {250, 500, 1000, 2000}; each call is wrapped in
a span by the benchmark, and per-layer metrics are medians of span self
times.  Calls repeat until ``MIN_REPS`` are done or ``REP_BUDGET_S`` is
spent, so small sizes are not single noisy samples.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time

import numpy as np

from hida_lab import (cli, feynman, fredholm, gausskernels, grid, operators,
                      spectral, testfunctions, verification)

LADDER = (250, 500, 1000, 2000)
MIN_REPS = 3
REP_BUDGET_S = 0.4
# Functions timed at every ladder size, with the quantity their span measures.
LADDERED = {
    "operators.free_K": "busy_ms",
    "operators.magnetic_L": "busy_ms",
    "operators.symmetric_core": "busy_ms",
    "operators.build_N": "busy_ms",
    "feynman.LemmaEvaluator": "busy_ms",
    "spectral.discrete_spectrum": "busy_ms",
    "fredholm.resolvent": "cold_ms",
    "fredholm.solve_N": "warm_ms",
    "feynman.magnetic_T": "busy_ms",
    "fredholm.verify_preimage": "busy_ms",
}
# Timed once per run at a fixed size: (span name, n or None, metric name).
SINGLE = (
    ("feynman.LemmaEvaluator.evaluate", 1000, "feynman.LemmaEvaluator.evaluate.busy_ms"),
    ("spectral.determinant_product", None, "spectral.determinant_product.busy_ms"),
    ("fredholm.gram_matrix", 1000, "fredholm.gram_matrix.busy_ms.n1000"),
    ("gausskernels.montecarlo_gauss_expectation", None,
     "gausskernels.montecarlo_gauss_expectation.busy_ms"),
    ("feynman.schrodinger_residual", None, "feynman.schrodinger_residual.busy_ms"),
    ("grid.make_grid", 1000, "grid.make_grid.busy_ms.n1000"),
    ("grid.pair", 1000, "grid.pair.busy_ms.n1000"),
    ("testfunctions.random_suite", 1000, "testfunctions.random_suite.busy_ms.n1000"),
)
# verification.check_* in run_checks order, with the arguments verify --quick uses.
CHECKS = (
    ("check_spectrum", {"n_grid": 1000}),
    ("check_determinant", {"n_grid": 1000}),
    ("check_preimage", {"sizes": (250, 500, 1000)}),
    ("check_gram", {"n_grid": 1000}),
    ("check_two_path", {"n_grid": 1000}),
    ("check_free_limit", {"n_grid": 300}),
    ("check_gauss_identity", {"samples": 20_000}),
    ("check_delta_normalization", {}),
    ("check_caustics", {"n_grid": 200, "points": 5}),
    ("check_schrodinger", {}),
)
SWEEP_POINTS = 8
SWEEP_N = 400


def _repeat(fn):
    """Call fn until MIN_REPS calls are done or REP_BUDGET_S has passed."""
    start = time.perf_counter()
    for _ in range(MIN_REPS):
        result = fn()
        if time.perf_counter() - start > REP_BUDGET_S:
            break
    return result


def _ladder_step(tr, rng, n: int, scale: int):
    """One ladder size; returns the bytes of the dense operators it built."""
    size = n // scale
    m = operators.MagneticModel(k=1.0, t=1.0)
    g = grid.make_grid(m.t, size)

    def timed(name, fn, *args, **kwargs):
        def once():
            with tr.span(name, n):
                return fn(*args, **kwargs)
        return _repeat(once)

    K = timed("operators.free_K", operators.free_K, m, g)
    L = timed("operators.magnetic_L", operators.magnetic_L, m, g)
    nbytes = K.entries.nbytes + L.entries.nbytes
    nbytes += timed("operators.symmetric_core", operators.symmetric_core, m, g).nbytes
    nbytes += timed("operators.build_N", operators.build_N, m, g).entries.nbytes
    etas = (testfunctions.indicator_pair(g, 1), testfunctions.indicator_pair(g, 2))
    ev = timed("feynman.LemmaEvaluator", feynman.LemmaEvaluator, K, L, etas)
    del K, L
    if n == 1000:
        f = testfunctions.random_suite(11, 1, g)[0]
        for _ in range(20):
            with tr.span("feynman.LemmaEvaluator.evaluate", n):
                ev.evaluate(f=f, ys=(0.3, -0.4))
        with tr.span("fredholm.gram_matrix", n):
            fredholm.gram_matrix(m, g, etas)
    del ev
    timed("spectral.discrete_spectrum", spectral.discrete_spectrum, m, g, count=10)

    # A fresh t per repetition keeps every factorization cold; the warm solve
    # and T-transform then reuse the last one.
    def cold():
        mc = operators.MagneticModel(k=1.0, t=float(rng.uniform(0.5, 1.5)))
        gc = grid.make_grid(mc.t, size)
        with tr.span("fredholm.resolvent", n):
            fredholm.resolvent(mc, gc)
        return mc, gc
    mc, gc = _repeat(cold)
    f = testfunctions.random_suite(int(rng.integers(1, 2 ** 31)), 1, gc)[0]
    for _ in range(5):
        with tr.span("fredholm.solve_N", n):
            fredholm.solve_N(mc, gc, f)
        with tr.span("feynman.magnetic_T", n):
            feynman.magnetic_T(mc, (0.3, -0.4), f=f, n_grid=size)
    timed("fredholm.verify_preimage", fredholm.verify_preimage, m, g)
    return nbytes


def _small_calls(tr, rng, scale: int):
    for _ in range(3):
        with tr.span("spectral.determinant_product"):
            spectral.determinant_product(operators.MagneticModel(k=1.0, t=1.0),
                                         100_000 // scale)
        with tr.span("gausskernels.montecarlo_gauss_expectation"):
            gausskernels.montecarlo_gauss_expectation(
                gausskernels.FiniteRankKernel(eigenvalues=np.array([-0.25])),
                20_000 // scale, int(rng.integers(1, 2 ** 31)))
        with tr.span("feynman.schrodinger_residual"):
            feynman.schrodinger_residual(operators.MagneticModel(k=0.5, t=1.0))
    size = 1000 // scale
    for _ in range(50):
        with tr.span("grid.make_grid", 1000):
            g = grid.make_grid(1.0, size)
        with tr.span("testfunctions.random_suite", 1000):
            u, v = testfunctions.random_suite(int(rng.integers(1, 2 ** 31)), 2, g)
        with tr.span("grid.pair", 1000):
            grid.pair(u, v)


def _checks(tr, scale: int) -> None:
    """Each verification check once, in run_checks order."""
    for name, kwargs in CHECKS:
        if scale > 1:
            kwargs = {key: (tuple(v // scale for v in val) if key == "sizes"
                            else val // scale if key in ("n_grid", "samples") else val)
                      for key, val in kwargs.items()}
        with tr.span(f"verification.{name}"):
            getattr(verification, name)(**kwargs)


def _sweep_probe(tr, rng, scale: int) -> dict:
    """Serial per-point cost against one pooled `hida-lab sweep` of the same points."""
    n = SWEEP_N // scale
    start, stop = 0.3 + rng.uniform(0.0, 0.2), 3 * math.pi - 0.3 - rng.uniform(0.0, 0.2)
    y = (0.3, -0.4)
    serial = []
    for t in np.linspace(start, stop, SWEEP_POINTS):
        t0 = time.perf_counter()
        with tr.span("feynman.propagator", n):
            feynman.propagator(operators.MagneticModel(k=1.0, t=float(t)), y, n_grid=n)
        serial.append(time.perf_counter() - t0)
    argv = ["sweep", "--sweep-param", "t", "--k", "1", "--sweep-start", repr(start),
            "--sweep-stop", repr(stop), "--sweep-steps", str(SWEEP_POINTS),
            "--grid-points", str(n), "--y1", repr(y[0]), "--y2", repr(y[1])]
    cpu0, wall0 = os.times(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), tr.span("cli.main", n):
        rc = cli.main(argv)
    wall = time.perf_counter() - wall0
    cpu1 = os.times()
    if rc != 0:
        raise RuntimeError(f"sweep probe exited {rc}")
    workers = cli.worker_count()
    return {
        "cli.sweep.serial_point_ms": statistics.median(serial) * 1e3,
        "cli.sweep.pool_efficiency": sum(serial) / (wall * workers),
        "cli.sweep.cpu_per_wall": (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall,
    }


def _exponent(points: dict) -> float:
    """Least-squares slope of log(value) against log(n)."""
    ns = sorted(points)
    return float(np.polyfit(np.log(ns), np.log([points[n] for n in ns]), 1)[0])


def probe(tr, rng, tiny: bool) -> dict:
    """Run every layer call under spans; return the per-layer metrics."""
    scale = 10 if tiny else 1
    dense_bytes = {n: _ladder_step(tr, rng, n, scale) for n in LADDER}
    _small_calls(tr, rng, scale)
    _checks(tr, scale)
    metrics = _sweep_probe(tr, rng, scale)

    med = tr.median_self_ms()
    for name, quantity in LADDERED.items():
        points = {n: med[name, n] for n in LADDER}
        for n, ms in points.items():
            metrics[f"{name}.{quantity}.n{n}"] = ms
        metrics[f"{name}.{quantity}.exponent"] = _exponent(points)
    for n, nbytes in dense_bytes.items():
        metrics[f"operators.dense_bytes_computed.n{n}"] = float(nbytes)
    for span_name, n, metric in SINGLE:
        metrics[metric] = med[span_name, n]
    checks = [med[f"verification.{name}", None] for name, _ in CHECKS]
    for (name, _), ms in zip(CHECKS, checks):
        metrics[f"verification.{name}.busy_ms"] = ms
    metrics["verification.checks_sum_ms"] = sum(checks)
    return metrics


def units() -> dict:
    """Unit of every metric ``probe`` returns, keyed by metric name."""
    out = {}
    for name, quantity in LADDERED.items():
        for n in LADDER:
            out[f"{name}.{quantity}.n{n}"] = "ms"
        out[f"{name}.{quantity}.exponent"] = "1"
    for n in LADDER:
        out[f"operators.dense_bytes_computed.n{n}"] = "B"
    for _span, _n, metric in SINGLE:
        out[metric] = "ms"
    for name, _ in CHECKS:
        out[f"verification.{name}.busy_ms"] = "ms"
    out["verification.checks_sum_ms"] = "ms"
    out["cli.sweep.serial_point_ms"] = "ms"
    out["cli.sweep.pool_efficiency"] = "1"
    out["cli.sweep.cpu_per_wall"] = "1"
    return out
