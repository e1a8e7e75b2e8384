"""The four benchmark workloads: seeded inputs, one op, and the reference check.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns.  ``op`` returns a record and never raises; ``check``
turns the records into one ``Outcome`` per checked result after the timed
loop, so references never run inside the measurement.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hida_lab
from hida_lab import cli, feynman, grid, operators, testfunctions
from hida_lab.errors import HidaLabError

# A value is wrong when its relative distance to the reference exceeds this.
# First-order discretization error stays below 0.16 on every grid used here
# (n = 400, kt within 0.05 of a caustic); the known defects sit at ~1 and ~2.
WRONG_REL = 0.5
# Share of propagator draws placed 1e-7 ... 1e-3 from an integer caustic j*pi.
NEAR_CAUSTIC_SHARE = 0.1
# A draw this many grid steps (in kt) from j*pi is next to the discrete caustic.
NEAR_CAUSTIC_STEPS = 10
# Verification checks that fail by design at the seed (see ROADMAP).
EXPECTED_FAILING_CHECKS = frozenset({"caustic_behavior"})
CHECK_NAMES = ("spectrum_match", "determinant_three_way", "preimage_residual",
               "gram_matrix", "two_path_consistency", "free_limit",
               "gauss_determinant_identity", "delta_normalization",
               "caustic_behavior", "schrodinger_residual")
# Reference multiplier used by the self-test to prove wrong values are counted.
PERTURB = 3.0
INPUT_CAPACITY = 4096


@dataclass(frozen=True)
class Outcome:
    status: str                 # ok | wrong | refused | failed
    rel_err: float | None = None
    known: str | None = None    # seed defect that explains a wrong value


def caustic_distance(kt: float) -> float:
    """Distance of kt from the nearest integer caustic j*pi, j >= 1."""
    return abs(kt - max(1, round(kt / math.pi)) * math.pi)


def near_caustic(kt: float, n: int) -> bool:
    return caustic_distance(kt) <= NEAR_CAUSTIC_STEPS * kt / n


def classify(value, ref: complex, kt: float, n: int, error: str | None,
             refused: bool) -> Outcome:
    """Compare one numeric value with its reference and name a known defect."""
    near = near_caustic(kt, n)
    if error is not None:
        if refused and near:
            return Outcome("refused")
        return Outcome("failed")
    rel = abs(value - ref) / abs(ref)
    if rel <= WRONG_REL:
        return Outcome("ok", rel)
    if near:
        return Outcome("wrong", rel, "near_caustic")
    if int(kt // math.pi) % 2 == 1 and abs(value + ref) / abs(ref) <= WRONG_REL:
        return Outcome("wrong", rel, "sign")
    return Outcome("wrong", rel)


def _call(fn, *args, **kwargs):
    """(value, error text, refused) for one program call."""
    try:
        return fn(*args, **kwargs), None, False
    except HidaLabError as exc:
        return None, f"{type(exc).__name__}: {exc}", True
    except Exception as exc:  # noqa: BLE001 - any crash is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}", False


class Workload:
    """Base: seeded rng, tracer, size scale and an optional perturbed reference."""

    ops_per_record = 1

    def __init__(self, seed: int, tracer, tiny: bool, perturb: bool):
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.tiny = tiny
        self.ref_scale = PERTURB if perturb else 1.0

    def key(self, rec):
        """(k, t, n) whose factorization an op could reuse, or None."""
        return None

    def peak_rss_mb(self):
        """(peak resident set in MB, number of processes it was taken over)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1


class Propagator(Workload):
    name = "propagator_n1000"

    def setup(self):
        self.n = 100 if self.tiny else 1000
        self.inputs = [self._draw(i) for i in range(INPUT_CAPACITY)]
        self.op(-1)

    def _draw(self, i):
        rng = self.rng
        k = rng.uniform(0.25, 2.0)
        if i % round(1 / NEAR_CAUSTIC_SHARE) == 5:
            j = int(rng.integers(1, 4))
            side = -1.0 if j == 3 else rng.choice((-1.0, 1.0))
            kt = j * math.pi + side * 10.0 ** rng.uniform(-7, -3)
        else:
            kt = rng.uniform(0.0, 3 * math.pi)
        return k, kt / k, tuple(rng.uniform(-1.0, 1.0, 2).tolist())

    def op(self, i):
        k, t, y = self.inputs[i % INPUT_CAPACITY]
        m = operators.MagneticModel(k=k, t=t)
        with self.tracer.span("feynman.propagator", self.n):
            pv, err, refused = _call(feynman.propagator, m, y, n_grid=self.n)
        return (k, t, y, None if pv is None else pv.value, err, refused)

    def key(self, rec):
        return (rec[0], rec[1], self.n)

    def check(self, records):
        out = []
        for k, t, y, value, err, refused in records:
            ref = self.ref_scale * feynman.composed_closed_value(
                operators.MagneticModel(k=k, t=t), y)
            out.append(classify(value, ref, k * t, self.n, err, refused))
        return out


class TTransform(Workload):
    name = "ttransform_reuse"
    POOL = 4

    def setup(self):
        self.n = 100 if self.tiny else 1000
        rng = self.rng
        self.models, self.suites, self.ys = [], [], []
        for j in range(self.POOL):
            k = rng.uniform(0.25, 2.0)
            kt = rng.uniform(j, j + 1) * 3 * math.pi / self.POOL
            m = operators.MagneticModel(k=k, t=kt / k)
            g = grid.make_grid(m.t, self.n)
            self.models.append(m)
            self.suites.append(testfunctions.random_suite(
                int(rng.integers(1, 2 ** 31)), 8, g))
            self.ys.append([tuple(rng.uniform(-1.0, 1.0, 2).tolist()) for _ in range(4)])
        self.inputs = [(i % self.POOL, int(rng.integers(8)), int(rng.integers(4)))
                       for i in range(INPUT_CAPACITY)]
        # Warm code paths and BLAS on a model outside the pool, so the pool's
        # first factorizations stay inside the timed loop.
        m = operators.MagneticModel(k=1.0, t=0.5)
        f = testfunctions.random_suite(1, 1, grid.make_grid(m.t, self.n))[0]
        feynman.magnetic_T(m, (0.1, 0.2), f=f, n_grid=self.n)

    def op(self, i):
        j, fi, yi = self.inputs[i % INPUT_CAPACITY]
        with self.tracer.span("feynman.magnetic_T", self.n):
            rep, err, refused = _call(feynman.magnetic_T, self.models[j], self.ys[j][yi],
                                      f=self.suites[j][fi], n_grid=self.n)
        return (j, fi, yi, None if rep is None else rep.value, err, refused)

    def key(self, rec):
        m = self.models[rec[0]]
        return (m.k, m.t, self.n)

    def check(self, records):
        refs = {}
        for j in sorted({rec[0] for rec in records}):
            m = self.models[j]
            g = self.suites[j][0].grid
            ev = feynman.LemmaEvaluator(
                operators.free_K(m, g), operators.magnetic_L(m, g),
                etas=(testfunctions.indicator_pair(g, 1), testfunctions.indicator_pair(g, 2)))
            for fi, yi in {(rec[1], rec[2]) for rec in records if rec[0] == j}:
                refs[j, fi, yi] = ev.evaluate(f=self.suites[j][fi], ys=self.ys[j][yi]).value
        out = []
        for j, fi, yi, value, err, refused in records:
            m = self.models[j]
            out.append(classify(value, self.ref_scale * refs[j, fi, yi],
                                m.k * m.t, self.n, err, refused))
        return out


class SweepCLI(Workload):
    name = "sweep_cli"

    def setup(self):
        self.n = 60 if self.tiny else 400
        self.points = 4 if self.tiny else 12
        self.ops_per_record = self.points
        rng = self.rng
        self.inputs = [(0.3 + rng.uniform(0.0, 0.2),
                        3 * math.pi - 0.3 - rng.uniform(0.0, 0.2),
                        tuple(rng.uniform(-1.0, 1.0, 2).tolist())) for _ in range(INPUT_CAPACITY)]
        self._sweep(0.5, 2.5, 4, (0.1, 0.2))

    def _sweep(self, start, stop, steps, y):
        argv = ["sweep", "--sweep-param", "t", "--k", "1",
                "--sweep-start", repr(start), "--sweep-stop", repr(stop),
                "--sweep-steps", str(steps), "--grid-points", str(self.n),
                "--y1", repr(y[0]), "--y2", repr(y[1])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with self.tracer.span("cli.main", self.n):
                rc, err, _ = _call(cli.main, argv)
        if err is not None or rc != 0:
            return None
        return json.loads(buf.getvalue())["results"]["rows"]

    def op(self, i):
        start, stop, y = self.inputs[i % INPUT_CAPACITY]
        return (start, stop, y, self._sweep(start, stop, self.points, y))

    def check(self, records):
        out = []
        for start, stop, y, rows in records:
            if rows is None or len(rows) != self.points:
                out.extend([Outcome("failed")] * self.points)
                continue
            for t, row in zip(np.linspace(start, stop, self.points), rows):
                m = operators.MagneticModel(k=1.0, t=float(t))
                ref = self.ref_scale * feynman.composed_closed_value(m, y)
                value = row.get("value")
                if value is not None:
                    value = complex(value["re"], value["im"])
                err = row.get("error") if value is None else None
                if row["t"] != float(t) or (value is None and err is None):
                    out.append(Outcome("failed"))
                    continue
                out.append(classify(value, ref, float(t), self.n, err, refused=True))
        return out


class VerifyQuick(Workload):
    name = "verify_quick"

    def __init__(self, seed, tracer, tiny, perturb):
        super().__init__(seed, tracer, tiny, perturb)
        self.perturb = perturb
        # Children import the same package this process imported.
        src = Path(hida_lab.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        self.child_rss_mb = []

    def setup(self):
        self.inputs = [int(s) for s in self.rng.integers(1, 2 ** 31, INPUT_CAPACITY)]

    def op(self, i):
        argv = [sys.executable, "-m", "hida_lab.cli", "verify", "--quick",
                "--seed", str(self.inputs[i % INPUT_CAPACITY])]
        with self.tracer.span("cli.verify"):
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, env=self.env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb.append(usage.ru_maxrss / 1024.0)
        return (proc.returncode, out)

    def peak_rss_mb(self):
        return max(self.child_rss_mb), len(self.child_rss_mb)

    def check(self, records):
        out = []
        for rc, text in records:
            try:
                rows = json.loads(text)["results"]["rows"]
            except (ValueError, KeyError, TypeError):
                rows = None
            names = None if rows is None else tuple(r["name"] for r in rows)
            if names != CHECK_NAMES or rc != (0 if all(r["passed"] for r in rows) else 1):
                out.extend([Outcome("failed")] * len(CHECK_NAMES))
                continue
            for row in rows:
                expected = not self.perturb
                if row["passed"] == expected:
                    out.append(Outcome("ok"))
                elif row["name"] in EXPECTED_FAILING_CHECKS and not self.perturb:
                    out.append(Outcome("wrong", known="by_design"))
                else:
                    out.append(Outcome("wrong"))
        return out


WORKLOADS = {cls.name: cls for cls in (Propagator, TTransform, SweepCLI, VerifyQuick)}
