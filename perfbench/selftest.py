"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload emits each end-to-end metric of BENCHMARK.json
with its unit and sample count, that a traced run emits every per-layer
metric, that a perturbed reference is counted in wrong_frac and clears
`correct`, that verify --quick reports its by-design failure as 0.1, and
that a directory without the package makes the benchmark fail.  It is not
collected by the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
ALL_WORKLOADS = ("propagator_n1000", "ttransform_reuse", "sweep_cli", "verify_quick")


def run(workload, *extra, cwd=ROOT, script=HERE / "run.py", tiny=True):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", *extra] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    reported = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _eq, value, unit, _s, samples = line.split()
            reported[name] = (float(value), unit, int(samples.rstrip(")")))
    return json.loads(lines[-1]), reported


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def check_end_to_end(workload, tiny=True):
    last, reported = parse(run(workload, "--trace", "0", tiny=tiny))
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: keys {set(last)}")
    expect(last["attempted"] >= 1 and last["correct"] is True, f"{workload}: {last}")
    expect({k: v["unit"] for k, v in last["metrics"].items()} == E2E_UNITS,
           f"{workload}: last-line metrics {last['metrics']}")
    for name in [*E2E_UNITS, "wrong_frac"]:
        expect(name in reported and reported[name][2] >= 1, f"{workload}: no {name} line")
    return reported


def check_perturbed(workload, tiny=True):
    last, reported = parse(run(workload, "--trace", "0", "--perturb-reference", tiny=tiny))
    expect(last["correct"] is False, f"{workload}: perturbed reference still correct")
    return reported["wrong_frac"][0]


def main() -> int:
    for workload in ALL_WORKLOADS[:3]:
        plain = check_end_to_end(workload)["wrong_frac"][0]
        perturbed = check_perturbed(workload)
        expect(perturbed > plain, f"{workload}: perturbed wrong_frac {perturbed} <= {plain}")
        print(f"ok  {workload}: wrong_frac {plain:.3f}, perturbed {perturbed:.3f}")

    verify = check_end_to_end("verify_quick", tiny=False)
    expect(verify["wrong_frac"][0] == 0.1, f"verify_quick wrong_frac {verify['wrong_frac']}")
    expect(check_perturbed("verify_quick", tiny=False) == 0.9, "verify_quick perturbed")
    print("ok  verify_quick: wrong_frac 0.1 (caustic_behavior, by design)")

    last, _ = parse(run("propagator_n1000", "--trace", "1"))
    expect({k: v["unit"] for k, v in last["metrics"].items()} == LAYER_UNITS,
           f"traced metrics differ from BENCHMARK.json: "
           f"{set(last['metrics']) ^ set(LAYER_UNITS)}")
    print(f"ok  traced run: {len(LAYER_UNITS)} per-layer metrics with units")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("propagator_n1000", "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           f"benchmark without the package exited {done.returncode}")
    print("ok  without src/ the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
