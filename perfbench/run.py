"""hida-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop for S seconds against the package in
``src/`` of this checkout, checks every result against its reference, and
prints report lines followed by one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the loop runs half
untraced and half traced, then the layer probe runs, and the metrics are
the per-layer ones.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()   # set-up is timed from here, before any heavy import

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
P90_MIN_OPS = 100
# The end-to-end metrics of BENCHMARK.json, printed on the last line.
DECLARED_E2E = ("setup_s", "latency_p50_ms", "ops_per_s", "peak_rss_mb")
# Per-layer metrics computed from the workload's own ops in a traced run.
WORKLOAD_LAYER_UNITS = {"feynman.wrong": "count", "feynman.refused": "count",
                        "fredholm.reuse_share": "1", "trace.overhead_frac": "1"}


def import_package():
    """Import hida_lab from this checkout's src/, never from anywhere else."""
    if not (SRC / "hida_lab" / "__init__.py").is_file():
        sys.exit(f"benchmark: no hida_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hida_lab
    if Path(hida_lab.__file__).resolve().parent != (SRC / "hida_lab").resolve():
        sys.exit(f"benchmark: imported hida_lab from {hida_lab.__file__}, not {SRC}")
    return hida_lab


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(hida_lab) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "HIDA_LAB_THREADS")},
        "git_commit": git_commit(),
        "hida_lab_file": hida_lab.__file__,
    }


def run_loop(wl, tracer, seconds: float, first_op: int):
    """Closed loop: op after op until `seconds` have passed."""
    records, latencies = [], []
    start = time.perf_counter()
    i = first_op
    while time.perf_counter() - start < seconds:
        tracer.op_id = i
        t0 = time.perf_counter()
        with tracer.span("op"):
            records.append(wl.op(i))
        latencies.append(time.perf_counter() - t0)
        i += 1
    return records, latencies, time.perf_counter() - start


def setup_probe_seconds(args) -> float:
    """Set-up time of a fresh process running this workload's set-up only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def reuse_share(wl, records) -> float:
    seen, reused = set(), 0
    for rec in records:
        key = wl.key(rec)
        reused += key is not None and key in seen
        seen.add(key)
    return reused / len(records)


def summarize(outcomes) -> dict:
    wrong = [o for o in outcomes if o.status in ("wrong", "failed")]
    rel = [o.rel_err for o in outcomes if o.status == "ok" and o.rel_err is not None]
    return {
        "attempted": len(outcomes),
        "failed": sum(o.status == "failed" for o in outcomes),
        "wrong": len(wrong),
        "refused": sum(o.status == "refused" for o in outcomes),
        "known_defects": {label: sum(o.known == label for o in wrong)
                          for label in sorted({o.known for o in wrong if o.known})},
        "unexplained": sum(o.known is None for o in wrong),
        "rel_err_p50": statistics.median(rel) if rel else None,
        "rel_err_samples": len(rel),
    }


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(wl, setup_samples, latencies, elapsed, records, check, rss_mb, rss_samples):
    ops = len(records) * wl.ops_per_record
    out = {
        "setup_s": metric(statistics.median(setup_samples), "s", len(setup_samples)),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "ops_per_s": metric(ops / elapsed, "1/s", ops),
        "wrong_frac": metric(check["wrong"] / check["attempted"], "1", check["attempted"]),
        "peak_rss_mb": metric(rss_mb, "MB", rss_samples),
    }
    if len(latencies) >= P90_MIN_OPS:
        out["latency_p90_ms"] = metric(
            statistics.quantiles(latencies, n=10)[8] * 1e3, "ms", len(latencies))
    if check["rel_err_p50"] is not None:
        out["rel_err_p50"] = metric(check["rel_err_p50"], "1", check["rel_err_samples"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="divide every problem size by 10 (self-test only)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="scale every reference so values read as wrong (self-test only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up in this fresh process, print it and exit")
    args = parser.parse_args()

    hida_lab = import_package()
    import numpy as np
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = Tracer(enabled=False)
    wl = WORKLOADS[args.workload](args.seed, tracer, args.tiny, args.perturb_reference)
    wl.setup()
    setup_main = time.perf_counter() - T_START
    if args.setup_probe:
        print(setup_main)
        return 0

    env = environment(hida_lab)
    print("env: " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}

    if args.trace == 0:
        records, latencies, elapsed = run_loop(wl, tracer, args.seconds, 0)
        rss_mb, rss_samples = wl.peak_rss_mb()
        check = summarize(wl.check(records))
        setup = [setup_main] + [setup_probe_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        report = end_to_end(wl, setup, latencies, elapsed, records, check, rss_mb, rss_samples)
        last = {name: report[name] for name in DECLARED_E2E}
        record["latencies_s"] = latencies
        record["setup_samples_s"] = setup
    else:
        half = args.seconds / 2.0
        rec_plain, lat_plain, _ = run_loop(wl, tracer, half, 0)
        tracer.enabled = True
        rec_traced, lat_traced, _ = run_loop(wl, tracer, half, len(rec_plain))
        tracer.op_id = None
        layer_values = layers.probe(tracer, np.random.default_rng([args.seed, 1]), args.tiny)
        records = rec_plain + rec_traced
        check = summarize(wl.check(records))
        units = layers.units()
        report = {name: metric(value, units[name], 1) for name, value in layer_values.items()}
        workload_values = {
            "feynman.wrong": check["wrong"],
            "feynman.refused": check["refused"],
            "fredholm.reuse_share": reuse_share(wl, records),
            "trace.overhead_frac": (statistics.median(lat_traced)
                                    / statistics.median(lat_plain) - 1.0),
        }
        for name, value in workload_values.items():
            report[name] = metric(value, WORKLOAD_LAYER_UNITS[name], len(records))
        last = report
        record["latencies_s"] = lat_plain + lat_traced
        record["spans"] = tracer.spans

    record.update(report=report, check=check)
    print("check: " + json.dumps(check, sort_keys=True))
    for name in sorted(report):
        m = report[name]
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (samples {m['samples']})")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": check["unexplained"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in last.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
