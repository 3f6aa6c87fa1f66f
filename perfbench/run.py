#!/usr/bin/env python3
"""Repo benchmark: wall-clock cost of the xGFabric layers, end to end and
layer by layer.

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, runs
the statistics unit tests, then runs one workload for one seed:

    python3 perfbench/run.py --workload day-fast --seed 1 --seconds 20 --trace 0

It prints the host fingerprint and every metric of the workload (one
"# name = value unit" line each), and as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics. The exit code is non-zero when a correctness check
fails or the program cannot be built.

`--workload all` runs every workload, untraced and traced, and prints the
metric lines only (a full report in one command).
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "core" / "fabric.hpp").is_file():
        die(f"library sources not found under {ROOT / 'src'}; "
            "run from a full checkout of the repository")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    tests = subprocess.run([str(BUILD / "test_stats")], stdout=sys.stderr,
                           stderr=sys.stderr)
    if tests.returncode:
        die("statistics unit tests failed")


def run_workload(workload, seed, seconds, trace):
    cmd = [str(BUILD / "xgbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace_{workload}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{workload} printed no result (exit {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{workload} printed an unreadable result: {lines[-1][:200]}")


def print_report(res):
    print("# host " + json.dumps(res["host"], sort_keys=True))
    tag = f"{res['workload']} trace={res['trace']}"
    for section in ("e2e", "report", "layers"):
        for name, m in res.get(section, {}).items():
            print(f"# {tag} {section} {name} = {m['value']:.6g} {m['unit']}")
    for err in res["errors"]:
        print(f"# {tag} ERROR {err}")


def contract_result(res, spec, trace):
    """The result line: exactly the metrics BENCHMARK.json names, with its
    units. A per-layer metric the workload declares bypassed reads 0; any
    other metric the workload did not report is an error."""
    errors = list(res["errors"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = res.get("layers" if trace else "e2e", {})
    bypassed = tuple(res["bypassed"]) if trace else ()
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None and m["name"].startswith(bypassed):
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None or got["value"] is None:
            errors.append(f"metric {m['name']} missing")
            continue
        value = float(got["value"])
        if got["unit"] != m["unit"] or not math.isfinite(value):
            errors.append(f"metric {m['name']} has unit {got['unit']} "
                          f"or value {value}")
        if not trace and value <= 0.0:
            errors.append(f"end-to-end metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for err in errors[len(res["errors"]):]:
        print(f"# ERROR {err}")
    return {"correct": not errors, "attempted": max(1, int(res["attempted"])),
            "failed": int(res["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        die(f"unknown workload {args.workload}; one of {names} or all")
    build()

    if args.workload == "all":
        ok = True
        for name in names:
            for trace in (0, 1):
                res = run_workload(name, args.seed, args.seconds, trace)
                print_report(res)
                ok = ok and contract_result(res, spec, trace)["correct"]
        sys.exit(0 if ok else 1)

    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(res)
    result = contract_result(res, spec, args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
