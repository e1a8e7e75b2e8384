"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seconds 15 --seeds 1 2 3 4 5 --workload sweep_cli [--out FILE]

Runs perfbench/run.py once per seed and workload, one run at a time, and
prints for every metric its median, quartiles and the interquartile
distance as a share of the median (statistics.quantiles, n=4), next to
the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    wrong = next(float(line.split()[3]) for line in lines if line.startswith("metric wrong_frac "))
    return {"result": result, "wall_s": wall, "wrong_frac": wrong}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        rows = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(values),
                          "bound": bounds[name], "values": values}
        summary[workload] = {
            "metrics": rows,
            "correct": [r["result"]["correct"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "wrong_frac": [r["wrong_frac"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
        }
        print(f"{workload}: walls {summary[workload]['wall_s']} correct "
              f"{summary[workload]['correct']} wrong_frac {summary[workload]['wrong_frac']}")
        for name, row in rows.items():
            print(f"  {name:16s} median {row['median']:.5g}  q1 {row['q1']:.5g}  "
                  f"q3 {row['q3']:.5g}  spread {row['spread']:.4f}  (bound {row['bound']})")
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": args.seconds, "seeds": args.seeds,
                                              "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
