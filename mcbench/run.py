#!/usr/bin/env python3
"""Build and run mcbench, the repository benchmark.

Usage (from the root of a checkout):

    python3 mcbench/run.py --workload mc-read --seed 1 --seconds 30 --trace 0

Builds the machlock library from ../src together with the benchmark program
(mcbench/CMakeLists.txt) into .bench_build/mcbench, then runs one workload.
The build is incremental, so only the first run in a checkout compiles.
The last line of standard output is the program's JSON result; the exit
code is non-zero on a build failure, a correctness violation, or when a
MACHLOCK_* variable is set. See mcbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "mcbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mcbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("mc-read", "mc-write", "kcache-hot")
BUILD_TYPE = "RelWithDebInfo"  # the main build's default
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"mcbench: {msg}", file=sys.stderr)
    return 1


def build():
    """Configure (once) and build; returns the program's path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "mcbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "mcbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_hash():
    """sha256 over the sources the program is built from (src/ and mcbench/)."""
    h = hashlib.sha256()
    for top in ("src", "mcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The MACHLOCK_* knobs (refcount policy, shard count, trace planes)
    # change the program being measured.
    knobs = sorted(k for k in os.environ if k.startswith("MACHLOCK_"))
    if knobs:
        return fail(f"refusing to run: {knobs[0]} is set (it changes the program measured)")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"machlock sources not found under {os.path.join(ROOT, 'src')}")

    exe = build()
    if exe is None:
        return fail("build failed")
    os.makedirs(SPANS_DIR, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", SPANS_DIR, "--git-sha", git_sha(), "--src-hash", source_hash()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode if r.returncode > 0 else (1 if r.returncode < 0 else 0)


if __name__ == "__main__":
    sys.exit(main())
