#!/usr/bin/env python3
"""Build the dmm benchmark program from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (Release) into
.bench_build/perfbench; later calls reuse that build.  The program's own
output (a `meta` line and one `metric` line per metric) is passed through,
and the last line printed is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics BENCHMARK.json
declares (--trace 0) or its per-layer metrics (--trace 1).  A per-layer
metric of a layer the workload never calls reads 0.  With --trace 1 the
spans of the run are written to .bench_build/traces/<workload>.json (Chrome
trace-event format; each run replaces the last, so disk use stays bounded).  Exit status: 0 when every check passed, 1 when one
failed, 2 when the checkout or the arguments are unusable.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the program; build logs go to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
                      str(len(os.sched_getaffinity(0)))])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("building the benchmark failed: " + " ".join(step))


def commit_id():
    """The git commit, or outside a git checkout a digest of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    paths = sorted(os.path.relpath(os.path.join(base, name), ROOT)
                   for top in ("src", "perfbench")
                   for base, _, files in os.walk(os.path.join(ROOT, top)) for name in files)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.encode())
        with open(os.path.join(ROOT, path), "rb") as f:
            digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the dmm sources (src/) are not in this checkout")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id()]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(TRACE_DIR, f"{args.workload}.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"perfbench printed nothing (exit status {run.returncode})", 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"perfbench's last line is not JSON (exit status {run.returncode})", 1)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = result["metrics"]
    metrics = {}
    for m in declared:
        got = produced.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"perfbench did not report end-to-end metric {m['name']}", 1)
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    undeclared = set(produced) - {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    undeclared -= set(PRINTED_ONLY)
    if undeclared:
        fail("perfbench reports metrics BENCHMARK.json does not declare: "
             + ", ".join(sorted(undeclared)), 1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return run.returncode


# End-to-end metrics perfbench prints by name but that are not gated: each
# is defined on one or two workloads only (BENCHMARK.json's end-to-end set
# is reported by every workload), or is 0 on a passing run.
PRINTED_ONLY = ("op_ms_p90", "op_ms_p99", "bulk_ms_p50", "slo_met_ratio", "failed_ratio")

if __name__ == "__main__":
    sys.exit(main())
