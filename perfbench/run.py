#!/usr/bin/env python3
"""Audit benchmark: build the driver, run workloads, check and report.

One workload, one run (the form a harness calls):

    python3 perfbench/run.py --workload audit-cbgpp --seed 1 --seconds 35 --trace 0

prints the driver's report and, as the last line, one JSON object with
"correct", "attempted", "failed" and "metrics". --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of one traced run.

Every workload (the ledger form):

    python3 perfbench/run.py --workload all --seed 1 --repeats 5

runs each workload --repeats times end to end plus once traced, checks that
the verdict digests agree across the repeats, and prints each metric's
median, quartiles and sample count.

Run from the repository root (or anywhere: paths resolve from this file).
The first call configures and builds perfbench/ into .bench_build/.
"""
import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")

WORKLOADS = ["audit-cbgpp", "audit-cbgpp-fine", "audit-spotter", "serve-stream"]
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def declared_metrics():
    """Metric declarations from BENCHMARK.json: {trace: {name: decl}}."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {0: {m["name"]: m for m in spec["end_to_end"]},
            1: {m["name"]: m for m in spec["per_layer"]}}


def driver_env():
    # Shipped defaults: no AGEO_* overrides (telemetry, journal, SIMD
    # dispatch, thread affinity) leak in from the caller's environment.
    return {k: v for k, v in os.environ.items() if not k.startswith("AGEO_")}


def run_driver(workload, seed, seconds, trace):
    """Run one workload; returns (report lines, result dict, exit code)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=driver_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload} printed no result (exit code {proc.returncode})", 3)
    result = json.loads(lines[-1])
    return lines[:-1], result, proc.returncode


def check_result(result, trace, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys differ from the contract")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number")
    if declared is not None:
        want = declared[trace]
        got = result["metrics"]
        if set(want) != set(got):
            problems.append("metrics differ from BENCHMARK.json: missing "
                            f"{sorted(set(want) - set(got))}, extra "
                            f"{sorted(set(got) - set(want))}")
        for name in set(want) & set(got):
            if want[name]["unit"] != got[name]["unit"]:
                problems.append(f"metric {name} unit differs from BENCHMARK.json")
    return problems


def digests(lines):
    """Verdict digests a run printed, in order."""
    return [m.group(1) for line in lines
            for m in [re.search(r", digest ([0-9a-f]{16})$", line)] if m]


def one(args):
    build()
    seed = args.seed % 2**64
    lines, result, code = run_driver(args.workload, seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    problems = check_result(result, args.trace, declared_metrics())
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(code if code else (1 if problems else 0))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def all_workloads(args):
    build()
    declared = declared_metrics()
    seed = args.seed % 2**64
    ok = True
    for workload in WORKLOADS:
        samples, runs_digests, tallies = {}, [], []
        for _ in range(args.repeats):
            lines, result, code = run_driver(workload, seed, args.seconds, 0)
            problems = check_result(result, 0, declared)
            if code or problems or not result["correct"]:
                ok = False
                print(f"{workload}: run failed: {problems or 'correctness gate'}")
            runs_digests.append(digests(lines))
            tallies = [line for line in lines if ", digest " in line]
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        if any(d != runs_digests[0] for d in runs_digests):
            ok = False
            print(f"{workload}: verdict digests differ across repeats")
        print(f"== {workload} (seed {seed}, {args.repeats} runs x {args.seconds} s)")
        for line in tallies:
            print(f"   {line}")
        for name, values in samples.items():
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            d = (declared or {0: {}})[0].get(name, {})
            print(f"   {name:24s} {med:12.4f} {d.get('unit', ''):5s} "
                  f"{d.get('better', '?'):6s} is better  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {(q3 - q1) / med:.3f}  n={len(values)}")
        lines, result, code = run_driver(workload, seed, args.seconds, 1)
        if code or check_result(result, 1, declared) or not result["correct"]:
            ok = False
            print(f"{workload}: traced run failed")
        print(f"-- {workload} traced run")
        for line in lines[1:]:
            print(f"   {line}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeats", type=int, default=5,
                    help="end-to-end runs per workload with --workload all")
    args = ap.parse_args()
    if args.seconds <= 0 or args.repeats < 1:
        fail("--seconds and --repeats must be positive")
    if args.workload == "all":
        all_workloads(args)
    else:
        one(args)


if __name__ == "__main__":
    main()
