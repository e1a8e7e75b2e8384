"""Command-line front end: verification runs, sweeps, machine-readable reports.

Every subcommand emits one JSON object {config, results, diagnostics,
versions}; complex numbers are serialized as {"re": ..., "im": ...} and the
timestamp lives in a separate header field so identical configs produce
byte-identical result sections.

Exit codes: 0 success, 1 verification failure, 2 config error,
3 numeric failure, 4 caustic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (CausticError, HidaLabError, InvalidParameterError,
                     NearSingularError, NumericFailureError)
from .feynman import (caustic_check, composed_closed_value, free_limit_reference,
                      magnetic_T, propagator, residual_convergence)
from .fredholm import (analytic_gram_diagonal, closed_preimage_f, gram_matrix,
                       solve_N, verify_preimage)
from .grid import make_grid
from .operators import MagneticModel
from .spectral import determinant_report, discrete_spectrum
from .testfunctions import indicator_pair, random_suite
from .verification import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CAUSTIC = 4


@dataclass
class RunConfig:
    k: float = 1.0
    t: float = 1.0
    grid_points: int = 2000
    count: int = 10
    n_max: int = 100_000
    y1: float = 0.0
    y2: float = 0.0
    seed: int = 12345
    output: str = "json"
    out_file: str | None = None
    convention: str = "composed"
    quick: bool = False
    sweep_param: str | None = None
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    sweep_steps: int = 0

    def model(self) -> MagneticModel:
        return MagneticModel(k=self.k, t=self.t)


def _cfloat(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _jsonable(obj):
    if isinstance(obj, complex):
        return _cfloat(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def load_config_file(path: str) -> dict:
    """Flat key = value text; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _coerce(cfg: RunConfig, overrides: dict) -> RunConfig:
    for key, val in overrides.items():
        if not hasattr(cfg, key):
            raise InvalidParameterError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        try:
            if isinstance(current, bool):
                val = str(val).lower() in ("1", "true", "yes", "on")
            elif isinstance(current, int):
                val = int(val)
            elif isinstance(current, float):
                val = float(val)
        except ValueError:
            raise InvalidParameterError(
                f"{key} = {val!r}: expected {type(current).__name__}") from None
        setattr(cfg, key, val)
    return cfg


def emit(config: RunConfig, results: dict, diagnostics: dict | None = None) -> None:
    payload = {
        "header": {"timestamp": datetime.now(timezone.utc).isoformat()},
        "config": _jsonable(asdict(config)),
        "results": _jsonable(results),
        "diagnostics": _jsonable(diagnostics or {}),
        "versions": {"hida_lab": __version__, "numpy": np.__version__},
    }
    if config.output == "csv" and "rows" in results:
        buf = io.StringIO()
        rows = results["rows"]
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _scalarize(v) for k, v in row.items()})
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if config.out_file:
        with open(config.out_file, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _scalarize(v):
    if isinstance(v, complex):
        return f"{v.real}{v.imag:+}j"
    return v


def worker_count() -> int:
    cap = os.environ.get("HIDA_LAB_THREADS")
    if cap:
        try:
            return max(1, int(cap))
        except ValueError:
            raise InvalidParameterError(f"HIDA_LAB_THREADS={cap!r} is not an integer")
    return min(8, os.cpu_count() or 1)


def cmd_spectrum(cfg: RunConfig) -> int:
    m = cfg.model()
    g = make_grid(cfg.t, cfg.grid_points)
    rep = discrete_spectrum(m, g, count=cfg.count)
    results = {
        "analytic": rep.analytic,
        "matched_analytic": rep.matched_analytic,
        "matched_means": rep.matched_means,
        "match_errors": rep.match_errors,
        "pair_gaps": rep.pair_gaps,
        "discrete_leading": rep.discrete[: 4 * cfg.count],
    }
    emit(cfg, results, {"grid_points": cfg.grid_points})
    return EXIT_OK


def cmd_determinant(cfg: RunConfig) -> int:
    m = cfg.model()
    g = make_grid(cfg.t, cfg.grid_points)
    rep = determinant_report(m, g, n_max=cfg.n_max)
    caustic = caustic_check(m)
    results = {
        "closed": rep.closed,
        "product": rep.product,
        "product_terms": rep.product_terms,
        "discrete": rep.discrete,
        "discrepancies": rep.discrepancies,
    }
    emit(cfg, results, {"caustic": asdict(caustic)})
    return EXIT_OK


def cmd_preimage(cfg: RunConfig) -> int:
    m = cfg.model()
    g = make_grid(cfg.t, cfg.grid_points)
    rep = verify_preimage(m, g)
    solved = solve_N(m, g, indicator_pair(g, 1))
    closed = closed_preimage_f(m, g)
    gap = max(np.abs(solved.comp1 - closed.comp1).max(),
              np.abs(solved.comp2 - closed.comp2).max())
    gm = gram_matrix(m, g, [indicator_pair(g, 1), indicator_pair(g, 2)])
    results = {
        "residual_sup_f": rep.sup_f, "residual_sup_g": rep.sup_g,
        "residual_quad_f": rep.quad_f, "residual_quad_g": rep.quad_g,
        "solve_vs_closed_sup": float(gap),
        "gram": gm.entries,
        "gram_analytic_diagonal": analytic_gram_diagonal(m),
    }
    emit(cfg, results)
    return EXIT_OK


def cmd_ttransform(cfg: RunConfig) -> int:
    m = cfg.model()
    g = make_grid(cfg.t, cfg.grid_points)
    suite = random_suite(cfg.seed, max(1, min(cfg.count, 16)), g)
    rows = []
    for idx, f in enumerate(suite):
        rep = magnetic_T(m, (cfg.y1, cfg.y2), f=f, convention=cfg.convention)
        rows.append({"index": idx, "value": rep.value,
                     "exponent_quadratic": rep.exponent_quadratic,
                     "exponent_delta": rep.exponent_delta})
    emit(cfg, {"rows": rows}, {"convention": cfg.convention})
    return EXIT_OK


def cmd_propagator(cfg: RunConfig) -> int:
    m = cfg.model()
    pv = propagator(m, (cfg.y1, cfg.y2), n_grid=cfg.grid_points)
    results = {
        "composed": pv.value,
        "composed_closed_form": composed_closed_value(m, (cfg.y1, cfg.y2)),
        "printed_formula": pv.printed_value,
        "composed_vs_printed_gap": abs(pv.value - pv.printed_value),
        "free_reference": free_limit_reference(cfg.t, (cfg.y1, cfg.y2)),
        "branch_note": list(pv.report.branch_note),
    }
    emit(cfg, results, {"convention_note":
                        "composed value is authoritative; printed formula shown for comparison",
                        "route": pv.report.route,
                        "cond_estimate": pv.report.cond_estimate})
    return EXIT_OK


def cmd_residual(cfg: RunConfig) -> int:
    m = cfg.model()
    levels = 2 if cfg.quick else 3
    reports = residual_convergence(m, convention=cfg.convention, levels=levels)
    residuals = [r.residual for r in reports]
    orders = [float(np.log2(residuals[i] / residuals[i + 1]))
              for i in range(len(residuals) - 1)]
    emit(cfg, {"residuals": residuals, "orders": orders,
               "convention": cfg.convention})
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    checks = run_checks(quick=cfg.quick, seed=cfg.seed)
    rows = [{"name": c.name, "passed": c.passed, "measured": c.measured,
             "threshold": c.threshold, "detail": c.detail} for c in checks]
    failures = sum(1 for c in checks if not c.passed)
    emit(cfg, {"rows": rows, "failures": failures},
         {"check_seconds": {c.name: c.seconds for c in checks}})
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.detail}", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep_param not in ("k", "t"):
        raise InvalidParameterError("sweep requires --sweep-param k or t")
    if cfg.sweep_steps < 2:
        raise InvalidParameterError("sweep requires --sweep-steps >= 2")
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)

    def one(value: float) -> dict:
        params = {"k": cfg.k, "t": cfg.t}
        params[cfg.sweep_param] = float(value)
        m = MagneticModel(**params)
        row = {cfg.sweep_param: float(value),
               "caustic": caustic_check(m).classification}
        try:
            pv = propagator(m, (cfg.y1, cfg.y2),
                            n_grid=min(cfg.grid_points, 400 if cfg.quick else cfg.grid_points))
            row["value"] = pv.value
            row["abs_value"] = abs(pv.value)
        except HidaLabError as exc:
            row["value"] = None
            row["abs_value"] = None
            row["error"] = str(exc)
        return row

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        rows = list(pool.map(one, values))
    rows.sort(key=lambda r: r[cfg.sweep_param])
    emit(cfg, {"rows": rows})
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "determinant": cmd_determinant,
    "preimage": cmd_preimage,
    "ttransform": cmd_ttransform,
    "propagator": cmd_propagator,
    "residual": cmd_residual,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hida-lab",
        description="Numeric laboratory for the magnetic-field Feynman integrand")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--k", type=float)
        p.add_argument("--t", type=float)
        p.add_argument("--grid-points", type=int, dest="grid_points")
        p.add_argument("--count", type=int)
        p.add_argument("--n-max", type=int, dest="n_max")
        p.add_argument("--y1", type=float)
        p.add_argument("--y2", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--output", choices=("json", "csv"))
        p.add_argument("--out-file", dest="out_file")
        p.add_argument("--convention", choices=("composed", "printed"))
        p.add_argument("--quick", action="store_true", default=None)
        p.add_argument("--sweep-param", dest="sweep_param", choices=("k", "t"))
        p.add_argument("--sweep-start", type=float, dest="sweep_start")
        p.add_argument("--sweep-stop", type=float, dest="sweep_stop")
        p.add_argument("--sweep-steps", type=int, dest="sweep_steps")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    cfg = RunConfig()
    try:
        if args.config:
            _coerce(cfg, load_config_file(args.config))
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config") and v is not None}
        _coerce(cfg, overrides)
        return COMMANDS[args.command](cfg)
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CausticError as exc:
        print(f"caustic: {exc} [{exc.classification}]", file=sys.stderr)
        return EXIT_CAUSTIC
    except (NearSingularError, NumericFailureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HidaLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
