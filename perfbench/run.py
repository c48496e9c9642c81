#!/usr/bin/env python3
"""Build and run the MemFSS benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kv-inproc --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the MemFSS libraries
it compiles from src/) into .bench_build/ -- or $CARGO_TARGET_DIR when
set -- and later runs reuse that build. Build output goes to stderr;
stdout carries the benchmark's report, whose last line is the JSON
result. With --trace 1 the spans are also written as Chrome trace_event
JSON under <build dir>/traces/. The exit code is non-zero when the build
fails, a correctness check fails, or the run does not finish in time.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kv-inproc", "kv-tcp", "ec-degraded", "sim-ddbag")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run_checked(cmd, timeout, **kw):
    """Run `cmd` to completion (killing it on timeout); return its code."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {cmd[0]} timed out after {timeout}s",
                  file=sys.stderr)
            return 124


def build(src_dir, build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = [cmake, "-S", src_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if run_checked(cfg, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_checked([cmake, "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src_dir = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    if not build(src_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return run_checked(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
