#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv_update_1c --seed 1 \
        --seconds 10 --trace 0 [--out result.json] [--spans spans.csv]

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench, runs one workload, and prints the benchmark's
report.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
A per-layer metric that the workload does not exercise reads 0.

--out writes the full stamped record (git sha, kernel, host CPUs,
seed, workload parameters, every metric with its sample count) to the
given path; nothing is written anywhere else.  --spans writes the
traced run's span log as CSV.  Exits nonzero when the build fails, the
run fails, or any output was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "viyojit_perfbench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def contract_metrics(record, spec, trace):
    """Pick BENCHMARK.json's metrics out of the full record."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = record["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {name} missing")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            raise ValueError(f"{name}: unit {got['unit']} != {unit}")
        if got["value"] is None:
            raise ValueError(f"{name}: not a finite number")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record here")
    parser.add_argument("--spans", help="write the span log here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("perfbench: unknown workload", args.workload, "- one of", names)
        return 2
    if not build():
        return 1

    data_dir = os.path.join(BUILD, f"data-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--git-sha", git_sha()]
    if args.spans:
        cmd += ["--spans", os.path.abspath(args.spans)]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log(f"perfbench: benchmark exited with {done.returncode}")
        return 1

    record = json.loads(lines[-1])
    record["stamp"]["wall_s"] = time.monotonic() - started
    print("\n".join(lines[:-1]), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    try:
        metrics = contract_metrics(record, spec, args.trace == 1)
    except ValueError as err:
        log("perfbench:", err)
        return 1
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
