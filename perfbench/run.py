#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds libcoaxial and the perfbench program from source into
.bench_build/perfbench (Release, LTO as in the top-level build), then runs one
workload. Its last stdout line is the result JSON. Traced runs also
write their spans to .bench_build/perfbench/traces/. --self-test builds and
runs the benchmark's own unit tests.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def check(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        log(f"build step failed ({res.returncode}): {' '.join(cmd)}")
        sys.exit(3)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources (src/CMakeLists.txt) next to perfbench/")
        sys.exit(3)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    return os.path.join(BUILD, target)


def source_rev():
    """Git commit when available, else a digest of the simulator sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    exe = build("perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-rev", source_rev()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
