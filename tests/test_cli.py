"""Command-line interface: report structure, config handling, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hida_lab.cli as cli
import hida_lab.verification as verification
from hida_lab import (MagneticModel, analytic_gram_diagonal, fredholm, gram_matrix, propagator,
                      verify_preimage)
from hida_lab.errors import ConditionViolationError, NearSingularError
from hida_lab.fredholm import Resolvent
from hida_lab.grid import make_grid
from hida_lab.testfunctions import indicator_pair
from test_refusals import POINTS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_report_structure(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--grid-points", "200", "--count", "2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"header", "config", "results", "diagnostics", "versions"}
    assert "timestamp" in payload["header"]
    assert payload["config"]["grid_points"] == 200
    assert payload["versions"]["numpy"] == np.__version__
    assert max(payload["results"]["match_errors"]) < 1e-2
    assert set(payload["results"]) == {"analytic", "matched_means", "match_errors",
                                       "pair_gaps", "discrete_leading"}
    assert len(payload["results"]["discrete_leading"]) == 8


@pytest.mark.parametrize("k", ["0", "1"])
def test_spectrum_refuses_a_zero_count_at_every_coupling(capsys, k):
    code, out, err = run_cli(capsys, "spectrum", "--k", k, "--count", "0",
                             "--grid-points", "50")
    assert code == 2
    assert "count must be >= 1" in err and out == ""


def test_spectrum_refuses_more_pairs_than_the_grid_holds(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--grid-points", "10", "--count", "5")
    assert code == 0 and len(json.loads(out)["results"]["match_errors"]) == 5
    code, out, err = run_cli(capsys, "spectrum", "--grid-points", "10", "--count", "10")
    assert code == 3
    assert "not enough discrete eigenvalues" in err and out == ""


def test_complex_numbers_serialize_as_re_im(capsys):
    code, out, _ = run_cli(capsys, "propagator", "--grid-points", "150",
                           "--y1", "0.3", "--y2", "-0.4")
    assert code == 0
    composed = json.loads(out)["results"]["composed"]
    assert set(composed) == {"re", "im"}


def test_propagator_diagnostics_name_the_route(capsys):
    code, out, _ = run_cli(capsys, "propagator", "--k", "1", "--t", "1",
                           "--grid-points", "150")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["results"]) == {
        "composed", "composed_closed_form", "printed_formula",
        "composed_vs_printed_gap", "free_reference", "branch_note"}
    diagnostics = payload["diagnostics"]
    assert diagnostics["route"] == "structured"
    assert 1.0 <= diagnostics["cond_estimate"] < 10.0


def test_report_body_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(capsys, "determinant", "--grid-points", "150",
                             "--n-max", "500", "--out-file", str(p))
        assert code == 0
    a, b = (json.loads(p.read_text()) for p in paths)
    a["config"].pop("out_file")
    b["config"].pop("out_file")
    assert set(a["results"]) == {"closed", "product", "discrete", "discrepancies"}
    for section in ("config", "results", "diagnostics", "versions"):
        assert a[section] == b[section]


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 2.0\ngrid-points = 150\n# a comment\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "determinant",
                           "--k", "0.5", "--n-max", "100")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["k"] == 0.5          # flag beats file
    assert config["grid_points"] == 150  # file beats default


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "determinant")
    assert code == 2
    assert "config error" in err


def test_malformed_config_line_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    code, _, _ = run_cli(capsys, "--config", str(cfg), "determinant")
    assert code == 2


# Each line goes to a command that declares its key, so that the value is
# what gets refused; "nonsense" is a key no command declares.
BAD_CONFIG_LINES = {
    "grid_points = 1.5": "determinant", "k = abc": "determinant",
    "output = xml": "verify", "convention = bogus": "residual",
    "quick = maybe": "verify", "sweep-param = x": "sweep",
    "grid-points = 1.5": "determinant", "nonsense = 1": "determinant",
    "no equals sign here": "determinant"}


@pytest.mark.parametrize("line", list(BAD_CONFIG_LINES))
def test_bad_config_value_is_a_config_error(tmp_path, capsys, line):
    """A config-file value is checked exactly as the same flag is."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), BAD_CONFIG_LINES[line])
    assert code == 2
    assert "config error" in err
    assert ("unknown config key" in err) == line.startswith("nonsense")
    assert out == ""


def test_config_key_of_another_command_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for line, command in (("seed = 5", "determinant"), ("convention = printed", "ttransform")):
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), command)
        assert code == 2 and out == ""
        assert "unknown config key" in err


def test_flags_of_other_commands_are_refused(capsys):
    code, out, _ = run_cli(capsys, "determinant", "--convention", "printed",
                           "--seed", "5", "--sweep-param", "k")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "ttransform", "--convention", "printed")
    assert code == 2 and out == ""


# Small sizes, so that every command runs in a fraction of a second.
SMALL = {"grid_points": 60, "count": 2, "n_max": 50, "quick": True,
         "sweep_param": "t", "sweep_start": 0.5, "sweep_stop": 1.0, "sweep_steps": 2}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_each_command_declares_exactly_the_options_it_reads(capsys, monkeypatch, name):
    """The options a command's parser declares are the attributes that the
    command and `emit` read, so a report's config holds what made it."""
    monkeypatch.setattr(cli, "run_checks", lambda quick, seed: _fake_checks(True))
    _, commands = cli.build_parser()
    every = {}
    for parser in commands.values():
        every.update(vars(parser.parse_args([])))
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            if not attr.startswith("_"):
                reads.add(attr)
            return super().__getattribute__(attr)

    run, _ = cli.COMMANDS[name]
    assert run(Recording(**{**every, **SMALL})) == 0
    capsys.readouterr()
    assert set(vars(commands[name].parse_args([]))) == reads


def test_readme_option_table_lists_what_each_command_declares():
    """README's `| command | options |` table has one row per command of
    `cli.COMMANDS`, listing exactly the options that command declares."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| command | options |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, options = (cell.strip(" `") for cell in line.strip("|").split("|"))
        assert command not in rows, f"two README rows for {command}"
        rows[command] = [option.strip(" `") for option in options.split(",")]
    assert rows == {name: [f"--{option}" for option in options]
                    for name, (_, options) in cli.COMMANDS.items()}


@pytest.mark.parametrize("word, quick", [("yes", True), ("off", False), ("ON", True)])
def test_config_file_quick_words(tmp_path, capsys, monkeypatch, word, quick):
    monkeypatch.setattr(cli, "run_checks", lambda quick, seed: _fake_checks(True))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"quick = {word}\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "verify")
    assert code == 0
    assert json.loads(out)["config"]["quick"] is quick


def test_config_file_and_flags_give_the_same_report(tmp_path, capsys):
    flags = ["--k", "0.7", "--t", "1.3", "--grid-points", "120", "--count", "3",
             "--seed", "777", "--y1", "0.3", "--y2", "-0.4"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 0.7\nt = 1.3\ngrid-points = 120\ncount = 3\nseed = 777\n"
                   "y1 = 0.3\ny2 = -0.4\n")
    code, out, _ = run_cli(capsys, "ttransform", *flags)
    assert code == 0
    by_flags = json.loads(out)
    code, out, _ = run_cli(capsys, "--config", str(cfg), "ttransform")
    assert code == 0
    by_file = json.loads(out)
    assert by_file["config"] == by_flags["config"]
    assert by_file["results"] == by_flags["results"]
    assert len(by_flags["results"]["rows"]) == 3


@pytest.mark.parametrize("argv", [
    ["propagator", "--grid-points", "150"],
    ["verify", "--quick"],
    ["sweep", "--sweep-param", "t", "--sweep-start", "0.5", "--sweep-stop", "1",
     "--sweep-steps", "2", "--grid-points", "60", "--output", "csv"],
], ids=["propagator", "verify_quick", "sweep_csv"])
def test_an_unwritable_out_file_is_a_config_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out-file", str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert err.startswith("config error: cannot write --out-file: ")
    assert len(err.splitlines()) == 1 and out == ""


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfek = 1\n")
    code, out, err = run_cli(capsys, "--config", str(path), "verify")
    assert code == 2
    assert "config error" in err
    assert out == ""


def test_ttransform_emits_the_requested_count(capsys):
    code, out, _ = run_cli(capsys, "ttransform", "--count", "40", "--grid-points", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["count"] == 40
    assert [r["index"] for r in payload["results"]["rows"]] == list(range(40))
    assert payload["diagnostics"] == {"route": "closed"}

    code, out, err = run_cli(capsys, "ttransform", "--count", "0", "--grid-points", "60")
    assert code == 2
    assert "config error" in err and out == ""


def test_caustic_exit_code(capsys):
    code, _, err = run_cli(capsys, "propagator", "--k", "1.0",
                           "--t", str(np.pi), "--grid-points", "100")
    assert code == 4
    assert "caustic" in err


def test_bad_flag_value_exit_code(capsys):
    assert cli.main(["spectrum", "--k", "abc"]) == 2
    assert cli.main(["sweep"]) == 2        # missing sweep parameters
    code, out, err = run_cli(capsys, "sweep", "--sweep-param", "t", "--sweep-steps", "1")
    assert code == 2 and out == ""
    assert "config error: sweep requires --sweep-steps >= 2" in err


SWEEP = ["sweep", "--sweep-param", "t", "--sweep-start", "0.5", "--sweep-stop", "1.0",
         "--sweep-steps", "2", "--grid-points", "60"]


@pytest.mark.parametrize("argv, option", [
    (["propagator", "--k", "nan", "--t", "1"], "--k"),
    (["propagator", "--k", "1", "--t", "inf"], "--t"),
    (["residual", "--k", "inf", "--t", "1"], "--k"),
    (["propagator", "--y1", "nan"], "--y1"),
    (SWEEP + ["--y1", "nan"], "--y1"),
    (SWEEP + ["--y2", "inf"], "--y2"),
    (SWEEP + ["--k", "nan"], "--k"),
    (SWEEP + ["--t", "inf"], "--t"),
    (["sweep", "--sweep-param", "k", "--sweep-stop", "inf", "--sweep-steps", "2"],
     "--sweep-stop"),
    (["sweep", "--sweep-param", "t", "--sweep-start=-inf", "--sweep-steps", "2"],
     "--sweep-start"),
], ids=["k_nan", "t_inf", "residual_k_inf", "y1_nan", "sweep_y1_nan", "sweep_y2_inf",
        "sweep_k_nan", "sweep_t_inf", "sweep_stop_inf", "sweep_start_minus_inf"])
def test_a_non_finite_parameter_is_a_config_error(capsys, argv, option):
    """Refused with exit 2 by the option's type, before any number is made:
    no traceback (exit 1), no NaN in the JSON (exit 0) and no numeric
    failure (exit 3).  So a sweep neither refuses every row and echoes NaN
    in its config nor takes np.linspace to inf (a warning, an error under
    this suite's filter)."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "config error" in err and f"argument {option}: " in err and "finite" in err


def test_a_non_finite_config_value_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("y1 = nan\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), *SWEEP)
    assert code == 2 and out == ""
    assert "config error" in err and "argument --y1: " in err and "finite" in err


@pytest.mark.parametrize("argv", [
    ["propagator", "--k", "1e308", "--t", "1e308"],
    ["determinant", "--k", "1e200", "--t", "1e200"],
    ["residual", "--k", "1e-320", "--t", "1"],
    ["propagator", "--k", "1e-170", "--t", "1e-150"],
], ids=["propagator_overflow", "determinant_overflow", "residual_subnormal",
        "propagator_subnormal_kt"])
def test_an_unrepresentable_kt_is_a_config_error(capsys, argv):
    """Refused by MagneticModel with exit 2, where an overflowing k t died in
    caustic_check (exit 1) and a subnormal one gave NaN or wrong numbers."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "config error" in err and "k*t = " in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    (["determinant", "--k", "1e77", "--t", "1e77"], 2),
    (["preimage", "--k", "1e77", "--t", "1e77"], 2),
    (["determinant", "--k", "1e150", "--t", "1e150"], 2),
    (["preimage", "--k", "1e150", "--t", "1e150"], 2),
    (["spectrum", "--k", "1e150", "--t", "1e150"], 2),
    (["determinant", "--k", "1e4", "--t", "1"], 3),
    (["determinant", "--k", "1200", "--t", "1", "--grid-points", "1000"], 3),
    (["propagator", "--k", "1200", "--t", "1", "--grid-points", "1000"], 3),
], ids=["determinant_1e77", "preimage_1e77", "determinant_1e150", "preimage_1e150",
        "spectrum_1e150", "determinant_product", "determinant_coarse_grid",
        "propagator_coarse_grid"])
def test_an_overflow_is_refused_with_no_warning(capsys, argv, code):
    """A k t of 2**52 or more exits 2; a determinant product that overflows,
    the partial product or det(Id + B) on a grid too coarse for k, exits 3.
    Each of these overflowed in numpy with a RuntimeWarning."""
    got, out, err = run_cli(capsys, *argv)
    assert got == code and out == ""
    assert (("k*t = " in err) if code == 2
            else ("numeric failure" in err and "leaves the float range" in err))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    (["residual", "--k", "0", "--t", "1e154"], 3),
    (["residual", "--k", "0", "--t", "1e77"], 3),
    (["residual", "--k", "0", "--t", "1e76"], 0),
    (["residual", "--k", "0", "--t", "1e-100"], 3),
    (["preimage", "--k", "0", "--t", "1e308", "--grid-points", "200"], 3),
    (["propagator", "--k", "0", "--t", "1e308", "--grid-points", "200"], 3),
    (["ttransform", "--k", "0", "--t", "1e308", "--grid-points", "200", "--count", "2"], 3),
    (["propagator", "--k", "1e-300", "--t", "1e200", "--grid-points", "200"], 3),
    (["propagator", "--k", "0", "--t", "1e-300", "--grid-points", "200"], 3),
    (["residual", "--k", "1e300", "--t", "1e-300"], 3),
], ids=["residual_1e154", "residual_1e77", "residual_1e76", "residual_1e-100",
        "preimage_1e308", "propagator_1e308", "ttransform_1e308", "propagator_k1e-300",
        "propagator_1e-300", "residual_k1e300"])
def test_an_extreme_t_is_refused_where_it_leaves_the_float_range(capsys, argv, code):
    """Exit 3 where a route's numbers leave the float range: the residual's
    squared norms (below the smallest normal float from t = 1e77 at k = 0,
    where its digits go, and 0 at 1e154, where convergence_orders divided by
    it), its stencil (k^2 at k = 1e300), the closed solve and det M.  Each of
    these raised."""
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert (out == "" and "numeric failure" in err
            if code else json.loads(out, parse_constant=_refuse_constant)["results"])


def test_a_sweep_reports_an_extreme_t_refusal_in_its_rows(capsys):
    """A sweep does not abort: each row that leaves the float range carries the refusal."""
    code, out, _ = run_cli(capsys, "sweep", "--k", "0", "--sweep-param", "t",
                           "--sweep-start", "1e300", "--sweep-stop", "1e308",
                           "--sweep-steps", "2", "--grid-points", "50")
    rows = json.loads(out, parse_constant=_refuse_constant)["results"]["rows"]
    assert code == 0 and len(rows) == 2
    assert all(row["value"] is None and "the T-transform leaves the float range "
               "(overflow encountered in det)" in row["error"] for row in rows)


def test_a_sweep_reports_a_refused_model_in_its_row(capsys):
    """A row whose model is refused (k t from 2**52 up) carries the refusal, and
    the valid k = 0 row keeps its value, where the whole sweep exited 2."""
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "k", "--t", "1e10",
                           "--sweep-start", "0", "--sweep-stop", "1e6", "--sweep-steps", "3",
                           "--grid-points", "20")
    rows = json.loads(out, parse_constant=_refuse_constant)["results"]["rows"]
    assert code == 0 and [row["k"] for row in rows] == [0.0, 5e5, 1e6]
    assert rows[0]["caustic"] == "regular" and rows[0]["value"] and "error" not in rows[0]
    for row in rows[1:]:
        assert row["caustic"] is row["value"] is row["abs_value"] is None
        assert "below 2**52" in row["error"]


EXTREME_EXPONENTS = sorted(set(range(-320, 309, 16)) | {153, 154, 155, 307, 308})
EXTREME_OPTIONS = {
    "preimage": ["--grid-points", "8"],
    "propagator": ["--grid-points", "8"],
    "ttransform": ["--grid-points", "8", "--count", "2"],
    "residual": [],
    "spectrum": ["--grid-points", "8", "--count", "1"],
    "determinant": ["--grid-points", "8", "--n-max", "10"],
    "sweep": ["--grid-points", "8", "--sweep-param", "t", "--sweep-steps", "2"],
}


@pytest.mark.parametrize("command", list(EXTREME_OPTIONS))
def test_every_command_at_an_extreme_t_exits_with_a_code(capsys, command):
    """At k in {0, 1, 1e-200} and t = 10^e from 1e-320 to 1e308, and at the
    smallest positive float 5e-324, with every warning an error, each command
    returns 0, 2, 3 or 4 and prints nothing on a refusal; none raises.  The
    sweep runs from 10^(e-1) to 10^e, and from 5e-324 to 1e-323."""
    spans = [(f"1e{e - 1}", f"1e{e}") for e in EXTREME_EXPONENTS] + [("5e-324", "1e-323")]
    wrong = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in ("0", "1", "1e-200"):
            for start, t in spans:
                span = ["--sweep-start", start, "--sweep-stop", t]
                argv = [command, "--k", k, "--t", t, *EXTREME_OPTIONS[command],
                        *(span if command == "sweep" else [])]
                code, out, _ = run_cli(capsys, *argv)
                if code not in (0, 2, 3, 4) or (code and out):
                    wrong.append((k, t, code))
    assert wrong == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["preimage", "propagator", "ttransform", "spectrum",
                                     "determinant"])
def test_the_grid_refuses_a_step_below_the_smallest_normal_float(capsys, command):
    """At n = 8, the smallest t whose step h = t/n is a normal float: each
    command that builds a grid gets past it, to a report (exit 0) or to det M
    underflowing (exit 3).  The next float below t is refused with exit 2."""
    t = 8 * sys.float_info.min
    while math.nextafter(t, 0.0) / 8 >= sys.float_info.min:    # t/8 rounds to nearest
        t = math.nextafter(t, 0.0)
    code, _, err = run_cli(capsys, command, "--k", "0", "--t", repr(t), *EXTREME_OPTIONS[command])
    assert code in (0, 3) and "smallest normal float" not in err
    code, out, err = run_cli(capsys, command, "--k", "0", "--t", repr(math.nextafter(t, 0.0)),
                             *EXTREME_OPTIONS[command])
    assert code == 2 and out == "" and "below the smallest normal float" in err


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("name", [name for name, (_, options) in cli.COMMANDS.items()
                                  if "k" in options])
def test_every_command_at_k_zero_prints_strict_json(capsys, name):
    """k = 0 is the free particle: no command reports an infinite caustic distance."""
    argv = [name, "--k", "0"]
    for key, value in SMALL.items():
        option = key.replace("_", "-")
        if option in cli.COMMANDS[name][1] and option != "quick":
            argv += [f"--{option}", str(value)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    json.loads(out, parse_constant=_refuse_constant)


def test_a_non_finite_number_in_a_report_is_a_numeric_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "composed_closed_value", lambda m, y: complex(np.nan, 0.0))
    code, out, err = run_cli(capsys, "propagator", "--grid-points", "60")
    assert code == 3 and out == ""
    assert "numeric failure" in err and "non-finite" in err


def _complex(value):
    """A complex number, or a nested list of them, from the report's {re, im}."""
    if isinstance(value, list):
        return np.array([_complex(v) for v in value])
    return complex(value["re"], value["im"])


@pytest.mark.parametrize("k, t, n", [(1.0, 1.0, 2000), (0.7, 1.3, 1000), (-1.3, 4.0, 777),
                                     (2.0, 5.0, 2000)])
def test_preimage_reports_verify_preimage(capsys, monkeypatch, k, t, n):
    """preimage prints verify_preimage's report, made from one Resolvent.of
    and one closed_solve; its Gram matrix, from one solve, is gram_matrix's
    two-solve one to the O(n eps) rounding of their sums."""
    calls = []
    of, closed_solve = Resolvent.of, fredholm.closed_solve

    def counted_of(cls, m, g):
        calls.append("Resolvent.of")
        return of(m, g)

    def counted_closed_solve(m, g, rhs):
        calls.append("closed_solve")
        return closed_solve(m, g, rhs)
    monkeypatch.setattr(Resolvent, "of", classmethod(counted_of))
    monkeypatch.setattr(fredholm, "closed_solve", counted_closed_solve)
    code, out, _ = run_cli(capsys, "preimage", f"--k={k!r}", f"--t={t!r}",
                           "--grid-points", str(n))
    assert code == 0
    assert sorted(calls) == ["Resolvent.of", "closed_solve"]
    monkeypatch.undo()

    results = json.loads(out)["results"]
    m, g = MagneticModel(k=k, t=t), make_grid(t, n)
    rep = verify_preimage(m, g)
    scalars = {name: rep[name] for name in
               ("residual_sup_f", "residual_quad_f", "solve_vs_closed_sup")}
    assert set(results) == {*scalars, "gram", "gram_analytic_diagonal"}
    assert {name: results[name] for name in scalars} == scalars
    gram = _complex(results["gram"])
    np.testing.assert_array_equal(gram, rep["gram"])
    two = gram_matrix(m, g, (indicator_pair(g, 1), indicator_pair(g, 2)))
    assert np.abs(gram - two).max() <= 4 * n * np.finfo(float).eps * np.abs(two).max()
    assert _complex(results["gram_analytic_diagonal"]) == analytic_gram_diagonal(m)


@pytest.mark.parametrize("point, code", [("band_in-", 4), ("band_in+", 4), ("band_kneg_in", 4),
                                         ("cond_in-", 3), ("cond_in+", 3)])
def test_preimage_exit_codes_at_the_guards(capsys, point, code):
    """The band is a caustic (exit 4), the condition limit a numeric failure
    (exit 3), at the inputs of the verdict table."""
    k, t, n = POINTS[point]
    got, out, err = run_cli(capsys, "preimage", f"--k={float(k)!r}", f"--t={float(t)!r}",
                            "--grid-points", str(n))
    assert got == code and out == ""
    assert ("half_integer_caustic" in err) == (code == 4)


def test_there_is_no_samples_flag(tmp_path, capsys):
    """verify takes its sample count from --quick; --samples is not an option."""
    assert cli.main(["verify", "--samples", "5"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 5\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "verify")
    assert code == 2 and "unknown config key" in err


def test_sweep_csv_is_sorted(capsys):
    """A descending sweep comes back ascending through the pooled path."""
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "t",
                           "--sweep-start", "1.0", "--sweep-stop", "0.5",
                           "--sweep-steps", "3", "--grid-points", str(cli._POOL_MIN_GRID),
                           "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,")
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == sorted(ts)


def test_sweep_reports_the_grid_it_used(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "t", "--sweep-start", "0.5",
                           "--sweep-stop", "1.0", "--sweep-steps", "2", "--grid-points", "600",
                           "--y1", "0.3", "--y2", "-0.4")
    assert code == 0
    payload = json.loads(out)
    config, first = payload["config"], payload["results"]["rows"][0]
    value = propagator(MagneticModel(k=config["k"], t=first["t"]),
                       (config["y1"], config["y2"]), n_grid=config["grid_points"]).value
    assert first["value"] == {"re": value.real, "im": value.imag}


def test_sweep_has_no_quick_flag(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "t", "--sweep-start", "0.5",
                           "--sweep-stop", "1.0", "--sweep-steps", "2", "--quick")
    assert code == 2 and out == ""


def test_sweep_csv_keeps_the_error_of_a_refused_row(capsys):
    """The CSV header is every key of every row, so a refused row after a
    regular one keeps its error text."""
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "t",
                           "--sweep-start", str(np.pi - 0.2),
                           "--sweep-stop", str(np.pi + 0.2),
                           "--sweep-steps", "3", "--grid-points", "80", "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [bool(r["error"]) for r in rows] == [False, True, False]
    assert rows[1]["value"] == "" and rows[0]["value"] != ""


def test_sweep_survives_a_refused_row(capsys, monkeypatch):
    def propagator(m, y, n_grid):
        if m.t == 2.0:
            raise NearSingularError("stub refusal")
        return SimpleNamespace(value=1j * m.t)

    monkeypatch.setattr(cli, "propagator", propagator)
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "t",
                           "--sweep-start", "1.0", "--sweep-stop", "3.0",
                           "--sweep-steps", "3", "--grid-points", "80")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [r["t"] for r in rows] == [1.0, 2.0, 3.0]
    assert rows[1]["value"] is None and rows[1]["error"] == "stub refusal"
    assert [r["value"] for r in (rows[0], rows[2])] == [{"re": 0.0, "im": 1.0},
                                                        {"re": 0.0, "im": 3.0}]
    assert "error" not in rows[0] and "error" not in rows[2]


def test_any_other_refusal_exits_3_with_an_error_line(capsys, monkeypatch):
    """A HidaLabError of no other exit class, here the Lemma's condition on
    its Gram matrix, exits 3 with one "error:" line and no report."""
    def propagator(m, y, n_grid):
        raise ConditionViolationError("stub condition")

    monkeypatch.setattr(cli, "propagator", propagator)
    code, out, err = run_cli(capsys, "propagator", "--grid-points", "60")
    assert code == 3 and out == ""
    assert err == "error: stub condition\n"


def test_sweep_marks_caustic_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep-param", "t",
                           "--sweep-start", str(np.pi - 0.2),
                           "--sweep-stop", str(np.pi + 0.2),
                           "--sweep-steps", "3", "--grid-points", "80")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    middle = [r for r in rows if r["caustic"] != "regular"]
    assert len(middle) == 1 and middle[0]["value"] is None


def test_residual_subcommand(capsys):
    code, out, _ = run_cli(capsys, "residual", "--k", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["convention"] == "composed"
    assert "convention" not in payload["results"]
    assert len(payload["results"]["residuals"]) == 3


def test_residual_reads_its_time_span_from_t(capsys):
    runs = {}
    for t in ("1", "2"):
        code, out, _ = run_cli(capsys, "residual", "--k", "0.5", "--t", t)
        assert code == 0
        runs[t] = json.loads(out)
    assert runs["2"]["config"]["t"] == 2.0
    assert runs["2"]["results"]["residuals"] != runs["1"]["results"]["residuals"]


@pytest.mark.parametrize("k", ["4", "-4"])
def test_residual_refuses_an_integer_caustic_inside_its_span(capsys, k):
    code, out, err = run_cli(capsys, "residual", "--k", k)
    assert code == 4
    assert "integer caustic" in err and out == ""


def test_residual_runs_up_to_a_half_integer_caustic(capsys):
    code, out, _ = run_cli(capsys, "residual", "--k", "0.5", "--t", "3.141592653589793")
    assert code == 0
    assert json.loads(out)["results"]["orders"][0] >= 1.8


@pytest.mark.parametrize("argv", [["--k", "1", "--t", "3.141592653589793"], ["--k", "4"]])
def test_residual_refuses_an_integer_caustic_at_a_node_or_between(capsys, argv):
    code, out, err = run_cli(capsys, "residual", *argv)
    assert code == 4
    assert "[integer_caustic]" in err and out == ""


def _sweep_argv(n):
    return ["sweep", "--sweep-param", "t", "--sweep-start", "2.0", "--sweep-stop", "0.4",
            "--sweep-steps", "5", "--grid-points", str(n), "--y1", "0.3", "--y2", "-0.4"]


@pytest.mark.parametrize("n", [cli._POOL_MIN_GRID - 1, cli._POOL_MIN_GRID])
def test_sweep_sizes_its_pool_from_the_grid(capsys, monkeypatch, n):
    """One worker below _POOL_MIN_GRID, worker_count() from it up."""
    import concurrent.futures

    sizes = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    code, _, _ = run_cli(capsys, *_sweep_argv(n))
    assert code == 0
    assert sizes == [1 if n < cli._POOL_MIN_GRID else cli.worker_count()]


@pytest.mark.parametrize("n", [cli._POOL_MIN_GRID - 1, cli._POOL_MIN_GRID])
def test_sweep_results_do_not_depend_on_the_worker_count(capsys, monkeypatch, n):
    """The same rows, in the same order, at 1 worker and at worker_count() workers."""
    full, results = cli.worker_count(), {}
    monkeypatch.setattr(cli, "_POOL_MIN_GRID", 0)
    for workers in (1, full):
        monkeypatch.setattr(cli, "worker_count", lambda workers=workers: workers)
        code, out, _ = run_cli(capsys, *_sweep_argv(n))
        assert code == 0
        results[workers] = json.loads(out)["results"]
    assert results[1] == results[full]


def _fake_checks(passed):
    return [{"name": "fake", "passed": passed, "measured": 0.0,
             "threshold": 1.0, "detail": "stub", "seconds": 0.0}]


def test_verify_exit_codes(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_checks", lambda quick, seed: _fake_checks(True))
    code, _, err = run_cli(capsys, "verify", "--quick")
    assert code == 0 and "[PASS] fake" in err

    monkeypatch.setattr(cli, "run_checks", lambda quick, seed: _fake_checks(False))
    code, _, err = run_cli(capsys, "verify", "--quick")
    assert code == 1 and "[FAIL] fake" in err


def test_verify_reports_seconds_per_check_outside_results(capsys, monkeypatch):
    names = []
    for attr in [a for a in dir(verification) if a.startswith("check_")]:
        def stub(*args, _name=attr, **kwargs):
            if _name == "check_gram":
                time.sleep(0.02)
            return {"name": _name, "passed": True, "measured": 0.0,
                    "threshold": 1.0, "detail": "stub"}
        monkeypatch.setattr(verification, attr, stub)
        names.append(attr)
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        outputs.append(json.loads(out))
    seconds = outputs[0]["diagnostics"]["check_seconds"]
    assert sorted(seconds) == sorted(names) and len(names) == 10
    assert all(s >= 0.0 for s in seconds.values())
    assert seconds["check_gram"] >= 0.02
    assert outputs[0]["results"] == outputs[1]["results"]
    assert all(set(row) == {"name", "passed", "measured", "threshold", "detail"}
               for row in outputs[0]["results"]["rows"])


def test_verify_csv_is_the_ten_rows_in_plan_order(capsys):
    """The CSV holds the five row keys of each check, in plan() order, and no
    `seconds` column: run_checks' wall times go to diagnostics only."""
    code, out, _ = run_cli(capsys, "verify", "--quick", "--output", "csv")
    assert code == 0
    assert out.splitlines()[0] == "name,passed,measured,threshold,detail"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["name"] for row in rows] == [
        "spectrum_match", "determinant_three_way", "preimage_residual", "gram_matrix",
        "two_path_consistency", "free_limit", "gauss_determinant_identity",
        "delta_normalization", "caustic_behavior", "schrodinger_residual"]
    assert all(row["passed"] == "True" for row in rows)


def test_verify_reports_its_peak_rss_outside_results(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        outputs.append(json.loads(out))
    assert all(o["diagnostics"]["peak_rss_mb"] > 0 for o in outputs)
    assert "peak_rss_mb" not in json.dumps(outputs[0]["results"])
    assert outputs[0]["results"] == outputs[1]["results"]


def test_peak_rss_falls_back_to_ru_maxrss_without_proc(monkeypatch):
    """Where /proc/self/status cannot be read, peak_rss_mb imports resource and
    reads ru_maxrss, this process's peak in kilobytes on Linux."""
    def no_proc(*args, **kwargs):
        raise OSError("no /proc here")
    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    import resource
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert ru_maxrss <= cli.peak_rss_mb() <= ru_maxrss + 64


def test_verify_peak_rss_is_its_own_not_its_parents():
    """A cold verify --quick spawned by a process holding 200 MB reports its
    own peak (about 33 MB), not the parent's resident size at exec, which
    ru_maxrss carries into the child (243 MB, measured on Linux)."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    ballast = np.ones(200 * 2 ** 20 // 8)           # 200 MB, written so it is resident
    try:
        done = subprocess.run([sys.executable, "-m", "hida_lab.cli", "verify", "--quick"],
                              capture_output=True, text=True, env=env, timeout=120)
    finally:
        del ballast
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["diagnostics"]["peak_rss_mb"] < 100
