#!/usr/bin/env python3
"""Builds and runs the idlewave end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload campaign_small --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 25 --trace 0

The first call configures and builds e2ebench/ (the idlewave library from
src/ plus the benchmark program) into .bench_build/, or under
$CARGO_TARGET_DIR when that is set; later calls only re-check the build.
The program prints a table of every metric and ends with one JSON line,
which this script checks and repeats as the last line of its own output.
Exit code 0 means the build ran, the outputs were correct, and the result
line is valid.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["campaign_small", "point_heavy", "daemon_overlap", "scale_mixed"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build(bdir):
    """Configures (once) and builds the program; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", bdir, "--target", "e2ebench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("e2ebench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(bdir, "e2ebench")


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(line, expected):
    """The program's result line, or None when it is not a valid one."""
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != expected:
        sys.stderr.write("e2ebench: metrics differ from BENCHMARK.json: %s\n"
                         % sorted(set(got.items()) ^ set(expected.items())))
        return None
    return res


def run_one(exe, bdir, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the result dict or None."""
    scratch = os.path.join(bdir, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [exe, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--golden-dir=" + os.path.join("tests", "golden"),
           "--scratch-dir=" + os.path.relpath(scratch, ROOT)]
    if trace:
        cmd.append("--trace-out=" + os.path.join(bdir, "spans-%s.json" % workload))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: %s did not finish within %d s\n" % (workload, RUN_TIMEOUT_S))
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    res = parse_result(lines[-1], expected_metrics(trace)) if lines else None
    for line in lines[:-1] if res else lines:
        print(line)
    if res is None:
        sys.stderr.write("e2ebench: %s exited %d without a result line\n" % (workload, proc.returncode))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_one(exe, bdir, name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results[name] = res
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
