#!/usr/bin/env python3
"""Builds and runs the mapcq serving benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: analytic_cold, surrogate_sessions, warm_replay, session_churn.
The benchmark is built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build), its arithmetic self-tests are run, and the perfbench
binary is started. Its stdout is passed through; its last line is the
JSON result. The exit code is non-zero when the build, a self-test or an
output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytic_cold", "surrogate_sessions", "warm_replay", "session_churn")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the log path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"the program's sources are missing under {ROOT}")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    return log_path


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)

    tests = os.path.join(build_dir, "perfbench_tests")
    if os.path.isfile(tests):
        res = subprocess.run([tests, "--gtest_brief=1"], capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("benchmark self-tests failed")

    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", build_dir,
        "--commit", git_commit(),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("perfbench printed no result line")
    if proc.returncode != 0 or result["correct"] is not True:
        fail(f"output checks failed (exit code {proc.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
