"""Command-line front end: verification runs, sweeps, machine-readable reports.

Every subcommand emits one JSON object {config, results, diagnostics,
versions}; complex numbers are serialized as {"re": ..., "im": ...} and the
timestamp lives in a separate header field so identical configs produce
byte-identical result sections.  A report is strict JSON: one that would
carry nan or inf is not written, and the command is a numeric failure.

Every option is defined, typed, checked and defaulted once, in `OPTIONS`
(a float option refuses nan and inf, and a k*t of size 2**52 or more or a
nonzero one below the smallest normal float is refused too), and each command
in `COMMANDS` declares only the options it reads, so a report's `config`
holds exactly the options that made it.  A `--config` file of
`key = value` lines goes through the chosen command's parser, as the flags
do, so a bad value, a key that command does not declare or an unreadable
file is a config error; `quick` takes 1/true/yes/on or 0/false/no/off.
Flags on the command line win over the file.

Exit codes: 0 success, 1 verification failure, 2 config error,
3 numeric failure, 4 caustic.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (CausticError, HidaLabError, InvalidParameterError,
                     NearSingularError, NumericFailureError)
from .feynman import (composed_closed_value, free_limit_reference, magnetic_T,
                      printed_propagator_value, propagator, residual_convergence)
from .fredholm import analytic_gram_diagonal, caustic_check, verify_preimage
from .grid import make_grid
from .operators import MagneticModel
from .spectral import determinant_report, discrete_spectrum
from .testfunctions import random_suite
from .verification import convergence_orders, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CAUSTIC = 4


_SWITCH = {"1": True, "true": True, "yes": True, "on": True,
           "0": False, "false": False, "no": False, "off": False}


def load_config_file(path: str, parser: argparse.ArgumentParser) -> None:
    """Install a flat `key = value` file ('#' starts a comment) as defaults of
    one command's `parser`, which checks every value exactly as it checks the
    same flag; flags given on the command line still win."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config file {path}: {exc}") from None
    known = vars(parser.parse_args([]))
    tokens = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"bad config line: {raw.rstrip()}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise InvalidParameterError(f"unknown config key {key!r}")
        if key == "quick":
            if val.lower() not in _SWITCH:
                raise InvalidParameterError(
                    f"quick = {val!r}: expected one of {', '.join(_SWITCH)}")
            tokens += ["--quick"] if _SWITCH[val.lower()] else []
        else:
            tokens.append(f"--{key.replace('_', '-')}={val}")
    try:
        parser.set_defaults(**vars(parser.parse_args(tokens)))
    except argparse.ArgumentError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None


def _json(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit(args: argparse.Namespace, results: dict, diagnostics: dict | None = None) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    payload = {
        "header": {"timestamp": datetime.now(timezone.utc).isoformat()},
        "config": config,
        "results": results,
        "diagnostics": diagnostics or {},
        "versions": {"hida_lab": __version__, "numpy": np.__version__},
    }
    if "rows" in results and args.output == "csv":
        import csv          # here, so that no other output loads it

        buf = io.StringIO()
        rows = results["rows"]
        writer = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(k for r in rows for k in r)))
        writer.writeheader()
        writer.writerows({k: f"{v.real}{v.imag:+}j" if isinstance(v, complex) else v
                          for k, v in row.items()} for row in rows)
        text = buf.getvalue()
    else:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, default=_json,
                              allow_nan=False) + "\n"
        except ValueError as exc:
            raise NumericFailureError(f"the report holds a non-finite number: {exc}") from None
    if args.out_file:
        try:
            with open(args.out_file, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InvalidParameterError(f"cannot write --out-file: {exc}") from None
    else:
        sys.stdout.write(text)


def worker_count() -> int:
    return min(8, os.cpu_count() or 1)


# A sweep pools worker_count() threads from this grid size up, one thread below.  Timed
# for 24-point t-sweeps on 2 cores, 10 alternating pairs per n, twice: one worker beat
# two in 9/10 and 10/10 pairs at n = 2000, two beat one in 6-10/10 at 3000 to 5000.
_POOL_MIN_GRID = 3000


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    m = MagneticModel(k=cfg.k, t=cfg.t)
    g = make_grid(cfg.t, cfg.grid_points)
    results = discrete_spectrum(m, g, count=cfg.count)
    results["discrete_leading"] = results.pop("discrete")[: 4 * cfg.count]
    emit(cfg, results, {"grid_points": cfg.grid_points})
    return EXIT_OK


def cmd_determinant(cfg: argparse.Namespace) -> int:
    m = MagneticModel(k=cfg.k, t=cfg.t)
    g = make_grid(cfg.t, cfg.grid_points)
    emit(cfg, determinant_report(m, g, n_max=cfg.n_max), {"caustic": caustic_check(m)})
    return EXIT_OK


def cmd_preimage(cfg: argparse.Namespace) -> int:
    m = MagneticModel(k=cfg.k, t=cfg.t)
    g = make_grid(cfg.t, cfg.grid_points)
    emit(cfg, {**verify_preimage(m, g), "gram_analytic_diagonal": analytic_gram_diagonal(m)})
    return EXIT_OK


def cmd_ttransform(cfg: argparse.Namespace) -> int:
    m = MagneticModel(k=cfg.k, t=cfg.t)
    g = make_grid(cfg.t, cfg.grid_points)
    suite = random_suite(cfg.seed, cfg.count, g)
    rows = []
    for idx, f in enumerate(suite):
        rep = magnetic_T(m, (cfg.y1, cfg.y2), f=f)
        rows.append({"index": idx, "value": rep.value,
                     "exponent_quadratic": rep.exponent_quadratic,
                     "exponent_delta": rep.exponent_delta})
    emit(cfg, {"rows": rows}, {"route": rep.route})
    return EXIT_OK


def cmd_propagator(cfg: argparse.Namespace) -> int:
    m = MagneticModel(k=cfg.k, t=cfg.t)
    y = (cfg.y1, cfg.y2)
    rep = propagator(m, y, n_grid=cfg.grid_points)
    printed = printed_propagator_value(m, y)
    results = {
        "composed": rep.value,
        "composed_closed_form": composed_closed_value(m, y),
        "printed_formula": printed,
        "composed_vs_printed_gap": abs(rep.value - printed),
        "free_reference": free_limit_reference(cfg.t, y),
        "branch_note": list(rep.branch_note),
    }
    emit(cfg, results, {"convention_note":
                        "composed value is authoritative; printed formula shown for comparison",
                        "route": rep.route, "cond_estimate": rep.cond_estimate})
    return EXIT_OK


def cmd_residual(cfg: argparse.Namespace) -> int:
    m = MagneticModel(k=cfg.k, t=cfg.t)
    residuals = residual_convergence(m, convention=cfg.convention)
    emit(cfg, {"residuals": residuals, "orders": convergence_orders(residuals)})
    return EXIT_OK


def peak_rss_mb() -> float:
    """This process's own peak resident size in MB: VmHWM, which starts afresh
    at exec.  ru_maxrss, the fallback where /proc/self/status is absent, also
    counts the resident size that the spawning process had at exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024          # kB
    except OSError:
        pass
    import resource     # here, so that no run that reads /proc loads it

    # ru_maxrss is in kilobytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cmd_verify(cfg: argparse.Namespace) -> int:
    rows = run_checks(quick=cfg.quick, seed=cfg.seed)
    seconds = {row["name"]: row.pop("seconds") for row in rows}
    failures = sum(not row["passed"] for row in rows)
    emit(cfg, {"rows": rows, "failures": failures},
         {"check_seconds": seconds, "peak_rss_mb": peak_rss_mb()})
    for row in rows:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"[{status}] {row['name']}: {row['detail']}", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: argparse.Namespace) -> int:
    # Imported here: concurrent.futures pulls in logging and queue, which no
    # other command needs.
    from concurrent.futures import ThreadPoolExecutor

    if cfg.sweep_param is None:
        raise InvalidParameterError("sweep requires --sweep-param k or t")
    if cfg.sweep_steps < 2:
        raise InvalidParameterError("sweep requires --sweep-steps >= 2")
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)

    def one(value: float) -> dict:
        # The model itself may refuse this row's value; the row then carries the refusal.
        row = {cfg.sweep_param: float(value), "caustic": None, "value": None,
               "abs_value": None}
        try:
            m = MagneticModel(**{"k": cfg.k, "t": cfg.t, cfg.sweep_param: value})
            row["caustic"] = caustic_check(m)["classification"]
            value = propagator(m, (cfg.y1, cfg.y2), n_grid=cfg.grid_points).value
            row["value"] = value
            row["abs_value"] = abs(value)
        except HidaLabError as exc:
            row["error"] = str(exc)
        return row

    workers = worker_count() if cfg.grid_points >= _POOL_MIN_GRID else 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(one, values))
    rows.sort(key=lambda r: r[cfg.sweep_param])
    emit(cfg, {"rows": rows})
    return EXIT_OK


def finite_float(text: str) -> float:
    """The type of every float option: a float, but not nan or inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# Each option once: its name and its add_argument keywords (type, choices, default).
OPTIONS = {
    "k": {"type": finite_float, "default": 1.0}, "t": {"type": finite_float, "default": 1.0},
    "grid-points": {"type": int, "default": 2000},
    "count": {"type": int, "default": 10},
    "n-max": {"type": int, "default": 100_000},
    "y1": {"type": finite_float, "default": 0.0}, "y2": {"type": finite_float, "default": 0.0},
    "seed": {"type": int, "default": 12345},
    "output": {"choices": ("json", "csv"), "default": "json"},
    "out-file": {},
    "convention": {"choices": ("composed", "printed"), "default": "composed"},
    "quick": {"action": "store_true"},
    "sweep-param": {"choices": ("k", "t")},
    "sweep-start": {"type": finite_float, "default": 0.0},
    "sweep-stop": {"type": finite_float, "default": 0.0},
    "sweep-steps": {"type": int, "default": 0},
}

# Each command and the options it reads; `emit` reads out-file always and
# output only for results with rows.
COMMANDS = {
    "spectrum": (cmd_spectrum, ("k", "t", "grid-points", "count", "out-file")),
    "determinant": (cmd_determinant, ("k", "t", "grid-points", "n-max", "out-file")),
    "preimage": (cmd_preimage, ("k", "t", "grid-points", "out-file")),
    "ttransform": (cmd_ttransform, ("k", "t", "grid-points", "count", "seed", "y1", "y2",
                                    "output", "out-file")),
    "propagator": (cmd_propagator, ("k", "t", "grid-points", "y1", "y2", "out-file")),
    "residual": (cmd_residual, ("k", "t", "convention", "out-file")),
    "verify": (cmd_verify, ("quick", "seed", "output", "out-file")),
    "sweep": (cmd_sweep, ("k", "t", "grid-points", "y1", "y2", "sweep-param", "sweep-start",
                          "sweep-stop", "sweep-steps", "output", "out-file")),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, per command, the subparser that defines,
    types, checks and defaults that command's options (config files included)."""
    parser = argparse.ArgumentParser(
        prog="hida-lab",
        description="Numeric laboratory for the magnetic-field Feynman integrand",
        exit_on_error=False)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name, exit_on_error=False)
        for option in options:
            p.add_argument(f"--{option}", **OPTIONS[option])
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except argparse.ArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.config:
            load_config_file(args.config, commands[args.command])
            args = parser.parse_args(argv)
        return COMMANDS[args.command][0](args)
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
