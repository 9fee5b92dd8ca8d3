#!/usr/bin/env python3
"""Byte-identical stdout check for the deterministic simulator benches.

Virtual time is deterministic, so a change that should not alter
simulator behaviour must leave the stdout of every virtual-time bench
unchanged.  This exports a base git ref with `git archive`, builds it
and the working tree in Release, runs every bench/ binary except the
wall-clock ones at both commits, and compares the outputs byte for
byte:

    python3 tools/simdiff.py --base <ref> [--work DIR]

abl_io_batching and abl_compression run with --smoke; every bench
runs in its own empty working directory, since some write
BENCH_*.json or trace files.  One line per bench says `same` or
`DIFF`.  The exit status is 1 on any difference, on a bench that
exits nonzero at either commit, or on a bench missing from the base.

Without --work everything lives in a temporary directory that is
removed afterwards; with it the exported tree, both build trees and
the captured stdout/stderr stay in DIR, so a rerun rebuilds
incrementally and a DIFF can be inspected with `diff`.
"""

import argparse
import concurrent.futures
import filecmp
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Benches whose output depends on the host's wall clock.
WALL_CLOCK = {"abl_concurrency", "abl_epoch_scan", "micro_primitives"}

# Benches whose default run is long; --smoke keeps the sweep short.
SMOKE = {"abl_io_batching", "abl_compression"}

# Parallel build jobs and concurrent bench runs.
JOBS = os.cpu_count() or 1

BENCH_RE = re.compile(
    r"^\s*(?:viyojit_bench|add_executable)\(\s*(\w+)", re.MULTILINE)


def bench_names(tree):
    """Deterministic bench targets declared in `tree`/bench."""
    with open(os.path.join(tree, "bench", "CMakeLists.txt")) as f:
        names = BENCH_RE.findall(f.read())
    return [n for n in names if n not in WALL_CLOCK]


def export_ref(ref, dest):
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"simdiff: git archive {ref} failed")


def build(src, build_dir, targets):
    log = os.path.join(os.path.dirname(build_dir),
                       os.path.basename(build_dir) + ".log")
    with open(log, "w") as out:
        for cmd in (["cmake", "-B", build_dir, "-S", src,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", str(JOBS),
                     "--target", *targets]):
            if subprocess.run(cmd, stdout=out,
                              stderr=subprocess.STDOUT).returncode:
                sys.exit(f"simdiff: build of {src} failed; see {log}")


def run_bench(build_dir, run_root, name):
    """Run one bench in a fresh directory; return (rc, stdout path)."""
    cwd = os.path.join(run_root, name)
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    cmd = [os.path.join(build_dir, "bench", name)]
    if name in SMOKE:
        cmd.append("--smoke")
    stdout = os.path.join(run_root, name + ".out")
    with open(stdout, "w") as out, \
            open(os.path.join(run_root, name + ".err"), "w") as err:
        rc = subprocess.run(cmd, cwd=cwd, stdout=out,
                            stderr=err).returncode
    return rc, stdout


def simdiff(base, work):
    base_src = os.path.join(work, "base-src")
    shutil.rmtree(base_src, ignore_errors=True)
    export_ref(base, base_src)

    names = bench_names(REPO)
    base_names = set(bench_names(base_src))
    sides = {"base": (base_src, [n for n in names if n in base_names]),
             "head": (REPO, names)}
    for side, (src, targets) in sides.items():
        print(f"simdiff: building {side} ({len(targets)} benches)",
              flush=True)
        build(src, os.path.join(work, side + "-build"), targets)

    runs = {}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for side, (_, targets) in sides.items():
            run_root = os.path.join(work, side + "-run")
            os.makedirs(run_root, exist_ok=True)
            for name in targets:
                runs[side, name] = pool.submit(
                    run_bench, os.path.join(work, side + "-build"),
                    run_root, name)

    failed = 0
    for name in names:
        if name not in base_names:
            print(f"{name:28s} MISSING at {base}")
            failed += 1
            continue
        base_rc, base_out = runs["base", name].result()
        head_rc, head_out = runs["head", name].result()
        if base_rc or head_rc:
            verdict = f"FAIL (exit base={base_rc} head={head_rc})"
        elif filecmp.cmp(base_out, head_out, shallow=False):
            verdict = "same"
        else:
            verdict = "DIFF"
        failed += verdict != "same"
        print(f"{name:28s} {verdict}")
    print(f"simdiff: {len(names) - failed} of {len(names)} benches "
          f"identical to {base}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git ref to compare the working tree against")
    parser.add_argument("--work",
                        help="keep exports, builds and outputs here")
    args = parser.parse_args()
    if args.work:
        os.makedirs(args.work, exist_ok=True)
        return simdiff(args.base, os.path.abspath(args.work))
    with tempfile.TemporaryDirectory(prefix="simdiff-") as work:
        return simdiff(args.base, work)


if __name__ == "__main__":
    sys.exit(main())
