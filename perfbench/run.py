#!/usr/bin/env python3
"""Build and run the collective benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which pulls in the library from src/ via
the top-level CMakeLists.txt) into .bench_build/perfbench in Release mode,
then runs the collbench binary with the same arguments.  The binary's last
stdout line is the result JSON; with --trace 1 the traced run's spans are
written to .bench_build/spans/<workload>.csv (the latest run's).

Exits non-zero without printing a result when the library sources or the
toolchain are missing, or when the build or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
SPANS_DIR = os.path.join(".bench_build", "spans")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "coll", "api.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    configure = ["cmake", "-S", here, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "collbench",
                "-j", jobs]
    for cmd in ([] if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
                else [configure]) + [compile_]:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "collbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, f"{args.workload}.csv")]
    # Own process group: the shm workloads fork rank processes, and a run
    # that overstays its time is stopped together with all of them.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        returncode = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # The rank processes are reaped by init; wait until none is left.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(returncode)


if __name__ == "__main__":
    main()
