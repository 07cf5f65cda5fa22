#!/usr/bin/env python3
"""Run the benchmark over seeds 1-10 and write its baseline.

For every workload in BENCHMARK.json this runs the untraced benchmark once
per seed and one traced run, then records per end-to-end metric the median,
the quartiles and the spread (interquartile distance over the median, the
statistic the bounds in BENCHMARK.json are judged against), plus the traced
per-layer values, the host's CPU count, the git revision and the date. It
exits with failure when any spread but that of setup_s is above a third of
its bound: a metric that noisy is marked not steady.

    python3 twinbench/baseline.py --out twinbench/BASELINE.json

Run it from the repository root. The binary is built once with cargo into
$CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

SEEDS = list(range(1, 11))
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        check=True, cwd=ROOT)
    return os.path.join(target, "release", "twinbench")


def run(binary, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        check=True, cwd=ROOT, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread,
        "bound": bound, "steady": bound is None or spread <= bound / 3,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the baseline here (JSON)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    binary = build()

    result = {
        "host": {"nproc": os.cpu_count()},
        "git_rev": git_rev(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    steady = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in SEEDS:
            line = run(binary, workload, seed, seconds, False)
            if not line["correct"]:
                sys.exit(f"{workload} seed {seed}: {line['failed']} of {line['attempted']} failed")
            runs.append(line)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs], bounds.get(name))
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            if name != "setup_s":
                steady &= metrics[name]["steady"]
        traced = run(binary, workload, SEEDS[0], seconds, True)
        result["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"  {workload:<18} {name:<18} median {m['median']:12.4f} {m['unit']:<5} "
                  f"spread {100 * m['spread']:6.2f} % (bound {m['bound']})"
                  f"{'' if m['steady'] else '  NOT STEADY'}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=2)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
