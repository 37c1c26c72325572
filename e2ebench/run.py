#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see e2ebench/README.md).

Run from the root of a tgminer checkout:

  python3 e2ebench/run.py --workload discover|hunt|watch --seed N \
      --seconds S --trace 0|1
  python3 e2ebench/run.py --selftest        # smoke size of every workload
  python3 e2ebench/run.py --regen-queries   # re-mine e2ebench/queries/

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/), in
Release. Build output goes to standard error; the last line of standard
output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
QUERIES_DIR = os.path.join(BENCH_DIR, "queries")
# A run measures for --seconds (at most 60) plus generation, set-up and
# checks; anything near this limit is a hang.
RUN_TIMEOUT_S = 170


def run(cmd, timeout=None):
    """Runs `cmd` with its output on stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(build_dir):
    """Configures and builds the benchmark in Release (both incremental);
    returns the binary's path, or None if the build failed."""
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return None
    if run(["cmake", "--build", build_dir, "--target", "tgm_e2ebench",
            "-j", jobs]) != 0:
        return None
    return os.path.join(build_dir, "tgm_e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["discover", "hunt", "watch"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own test (smoke sizes)")
    parser.add_argument("--regen-queries", action="store_true",
                        help="re-mine the committed query artifacts")
    args = parser.parse_args()
    run_mode = not (args.selftest or args.regen_queries)
    if run_mode and None in (args.workload, args.seed, args.seconds,
                             args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if run_mode and not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "e2ebench")
    binary = build(build_dir)
    if binary is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    if args.selftest:
        return run(["ctest", "--test-dir", build_dir, "--output-on-failure"])
    if args.regen_queries:
        return run([binary, "--regen-queries", QUERIES_DIR])

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--queries", QUERIES_DIR]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, args.workload + ".trace.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
