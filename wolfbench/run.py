#!/usr/bin/env python3
"""Builds and runs the wolfbench benchmark from the root of a checkout.

    python3 wolfbench/run.py --workload ingest-dedup --seed 1 --seconds 10 --trace 0

Configures wolfbench/CMakeLists.txt as a Release build in .bench_build
(the library is compiled from src/ as part of it), runs the helper unit
tests, then runs one workload. The last line of standard output is the
workload's JSON result; the exit code is nonzero on a wrong answer, a failed
build or test, or a refused (debug or sanitizer) build.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ingest-dedup", "churn-live", "classify-suite", "serve-pair")
RUN_TIMEOUT_S = 170


def fail(message):
    print("wolfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over every file of src/ and wolfbench/ (path and content)."""
    h = hashlib.sha256()
    for top in ("src", "wolfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_quiet(cmd, what, timeout):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(what + " timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail(what + " failed")


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to wolfbench/")
    run_quiet(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"], "configure", 600)
    build_type = cache_value("CMAKE_BUILD_TYPE")
    flags = cache_value("CMAKE_CXX_FLAGS")
    if build_type not in ("Release", "RelWithDebInfo") or "-fsanitize" in flags:
        fail("refusing to report from build type '%s', flags '%s'"
             % (build_type, flags))
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "wolfbench",
               "wolfbench_tests"], "build", 900)
    run_quiet([os.path.join(BUILD, "wolfbench_tests")], "helper unit tests",
              120)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build()
    print("commit: " + commit())
    sys.stdout.flush()
    # One file per workload, overwritten by its next traced run.
    spans = os.path.join(BUILD, "spans-%s.jsonl" % args.workload)
    cmd = [os.path.join(BUILD, "wolfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--source", "sha256:" + source_digest(),
           # Relative: a unix socket path must stay under 108 bytes.
           "--work-dir", os.path.relpath(BUILD, ROOT), "--spans-out", spans]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
