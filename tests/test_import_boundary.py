"""What a run loads: scipy is for the dense oracle only, the thread pool
for `sweep` only, csv and resource for the one CLI branch each that reads
them, numpy.random for nothing (seeded draws come from the standard
library's random.Random), and the test extras mpmath and hypothesis for
nothing.

Each test runs in a fresh interpreter, because the test session itself has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hida_lab

SRC = Path(hida_lab.__file__).resolve().parent.parent


def _loaded_after(code: str) -> set:
    """Names in sys.modules after running ``code`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _heavy(loaded: set) -> list:
    """The loaded modules of scipy and of the test extras mpmath and hypothesis."""
    return sorted(m for m in loaded if m.split(".")[0] in ("scipy", "mpmath", "hypothesis"))


def test_cli_and_structured_routes_load_no_scipy():
    for code, module in (("import hida_lab", "hida_lab"),
                         ("import hida_lab.cli\n"
                          "from hida_lab import MagneticModel, propagator\n"
                          "propagator(MagneticModel(k=1.0, t=1.0), (0.3, -0.4), n_grid=100)",
                          "hida_lab.cli")):
        loaded = _loaded_after(code)
        assert module in loaded
        assert _heavy(loaded) == []


def test_quick_verify_loads_no_scipy_integrate():
    """No check of a cold quick verify takes the dense oracle, so none loads scipy."""
    loaded = _loaded_after(
        "from hida_lab.verification import run_checks\n"
        "assert all(r.passed for r in run_checks(quick=True))")
    assert _heavy(loaded) == []


def test_quick_verify_and_ttransform_load_no_numpy_random():
    """Seeded test functions and Monte Carlo normals take numpy.random's
    import and state nowhere, in a cold check run or a cold CLI run."""
    for code in ("from hida_lab.verification import run_checks\n"
                 "assert all(r.passed for r in run_checks(quick=True))",
                 "from hida_lab.cli import main\n"
                 f"assert main(['ttransform', '--out-file', {os.devnull!r}]) == 0"):
        loaded = _loaded_after(code)
        assert sorted(m for m in loaded if m.startswith("numpy.random")) == []


def test_cli_import_loads_no_thread_pool():
    """Only `sweep` runs a thread pool, so only it imports concurrent.futures."""
    loaded = _loaded_after("import hida_lab.cli")
    assert "hida_lab.cli" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] == "concurrent") == []


def test_cli_import_loads_no_csv_or_resource():
    """csv is for `--output csv` only and resource for peak_rss_mb's fallback
    only, so a cold `import hida_lab.cli` loads neither."""
    loaded = _loaded_after("import hida_lab.cli")
    assert "hida_lab.cli" in loaded
    assert sorted(loaded & {"csv", "_csv", "resource"}) == []
