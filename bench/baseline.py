"""Run the benchmark on several seeds and record the spread of each metric.

usage: python3 bench/baseline.py [--seeds N] [--first S] [--workloads a,b]
                                 [--write]

Runs `bench/run.py --trace 0` once per workload and seed, one run at a
time, for the run_seconds of BENCHMARK.json.  Prints, for every end-to-end
metric, the median, the quartiles and the spread (q3 - q1) / median beside
the metric's bound, the same for the unscaled timings (see run.py's
host_speed), and each run's wall time.  With --write it also runs each workload once with
--trace 1 on the first seed and stores everything, with the Python
version and nproc, in bench/baseline.json: the reference later changes
quote.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """One run; returns its result line and its --details record."""
    details = os.path.join(ROOT, ".bench_out", "baseline-details.json")
    os.makedirs(os.path.dirname(details), exist_ok=True)
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--details",
        details,
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    with open(details) as fh:
        record = json.load(fh)
    os.remove(details)
    record["wall_s"] = time.perf_counter() - start
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--write", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first, args.first + args.seeds))
    table = {}
    for name in names:
        runs = [run(name, seed, bench["run_seconds"], 0) for seed in seeds]
        results = [r for r, _ in runs]
        entry = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "wall_s": [d["wall_s"] for _, d in runs],
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": results[0]["metrics"][metric]["unit"]}
            print(
                "%-10s %-12s median %-11.5g q1 %-11.5g q3 %-11.5g spread %.3f bound %.2f %s  [%s]"
                % (
                    name,
                    metric,
                    med,
                    q1,
                    q3,
                    spread,
                    bound,
                    "ok" if spread < bound / 3 else "WIDE",
                    " ".join("%.4g" % v for v in values),
                )
            )
        for metric in runs[0][1]["unscaled"]:
            values = [d["unscaled"][metric] for _, d in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["unscaled_" + metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            print("%-10s %-12s unscaled: median %-11.5g spread %.3f" % (name, metric, med, (q3 - q1) / med))
        entry["host_speed"] = [d["host_speed"] for _, d in runs]
        entry["job_tail_of"] = runs[0][1]["tail_of"]
        entry["job_tail_percentile"] = runs[0][1]["tail_percentile"]
        print("%-10s jobs per run %s, failed %s" % (name, entry["attempted"], entry["failed"]))
        print("%-10s wall seconds per run %s" % (name, " ".join("%.1f" % w for w in entry["wall_s"])))
        if args.write:
            traced, _ = run(name, seeds[0], bench["run_seconds"], 1)
            entry["traced_seed"] = seeds[0]
            entry["trace"] = {k: v["value"] for k, v in traced["metrics"].items()}
        table[name] = entry
        sys.stdout.flush()
    if args.write:
        out = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": bench["run_seconds"],
            "workloads": table,
        }
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
