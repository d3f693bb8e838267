"""Smoke test of the benchmark itself: one pass over one round per run.

usage: python3 bench/smoke.py [workload ...]

For each workload (those of BENCHMARK.json by default) it checks that
  - a run prints every end-to-end metric of BENCHMARK.json with its unit,
    and a traced run every per-layer metric;
  - a second seed builds different inputs that still pass every check;
  - each output check, the pinned digest included, fires on its own: with
    --corrupt CHECK that check fails on every job it runs on, at least one,
    no other check fails, and failed_ratio is not 0;
and, for cli, that running the same commands twice gives byte-identical
stdout.  Exits 1 on the first broken property.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def run(workload, seed, trace=0, extra=()):
    """One pass over the first round; returns the result line, the other
    stdout lines and the --details record."""
    details = os.path.join(ROOT, ".bench_out", "smoke-details.json")
    os.makedirs(os.path.dirname(details), exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--trace", str(trace), "--rounds", "1", "--details", details, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    with open(details) as fh:
        record = json.load(fh)
    os.remove(details)
    return json.loads(lines[-1]), lines[:-1], record


def fail(message):
    print("smoke: FAIL: " + message)
    sys.exit(1)


def check_metrics(result, lines, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail("%s metrics differ from BENCHMARK.json: %s" % (what, sorted(set(got) ^ set(want))))
    for name, unit in want.items():
        if not any(line.split()[:1] == [name] and line.endswith(" " + unit) for line in lines):
            fail("%s: %s is not printed with its unit %s" % (what, name, unit))


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = argv or [w["name"] for w in bench["workloads"]]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    for name in names:
        lists = []
        for seed in SEEDS:
            result, lines, _ = run(name, seed)
            check_metrics(result, lines, bench["end_to_end"], "%s seed %d" % (name, seed))
            if result["failed"] or not result["correct"]:
                fail("%s seed %d: %d of %d jobs failed" % (name, seed, result["failed"], result["attempted"]))
            # one directory for both seeds, so only the seeded content differs
            workload = workloads.WORKLOADS[name](ROOT, os.path.join(ROOT, ".bench_out", "smoke-" + name))
            lists.append(repr(workload.job_list(seed, 1)))
            workload.finish()
        if lists[0] == lists[1]:
            fail("%s: seeds %s build the same inputs" % (name, SEEDS))
        for check in workloads.WORKLOADS[name].checks + ("digest",):
            result, _, record = run(name, SEEDS[0], extra=["--corrupt", check])
            counts = record["checks"]
            ran = counts.get(check, {}).get("ran", 0)
            others = {k: v["failed"] for k, v in counts.items() if k != check and v["failed"]}
            if not ran or counts[check]["failed"] != ran or others or result["failed"] != ran or result["correct"]:
                fail("%s --corrupt %s: %d of %d jobs failed; per check %s" % (name, check, result["failed"], result["attempted"], counts))
            print("smoke: %s check %s fails on all %d jobs it runs on, alone" % (name, check, ran))
        result, lines, _ = run(name, SEEDS[0], trace=1)
        check_metrics(result, lines, bench["per_layer"], "%s traced" % name)
        if result["failed"]:
            fail("%s traced: %d jobs failed" % (name, result["failed"]))
        print("smoke: %s ok" % name)

    if "cli" in names:
        workdir = os.path.join(ROOT, ".bench_out", "smoke-cli-twice")
        cli = workloads.WORKLOADS["cli"](ROOT, workdir)
        try:
            jobs = cli.job_list(SEEDS[0])
            cli.prepare(jobs)
            for job in jobs:
                first, second = cli.run(job, None), cli.run(job, None)
                if first != second or first[0] != 0:
                    fail("cli: two runs of `cohft %s` differ" % " ".join(job["argv"]))
        finally:
            cli.finish()
        print("smoke: cli stdout byte-identical across two runs")
    print("smoke: all ok")


if __name__ == "__main__":
    main(sys.argv[1:])
