#!/usr/bin/env python3
"""Builds and runs the GeminiSystem benchmark.

    python3 perfbench/run.py --workload <ctrl_scale|datapath_dense|recovery_storm>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (CMake + Ninja, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild only
what changed. Each call then runs the self-test of the benchmark's own
arithmetic and the benchmark proper. The benchmark's standard output is passed
through; its last line is the result JSON. The exit code is non-zero when the
build, the self-test or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion, killing it on timeout; returns (exit code, stdout)."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, _ = run([os.path.join(build_dir, "perfbench_selftest")], RUN_TIMEOUT_S,
                  stdout=sys.stderr)
    if code != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--trace-out", os.path.join(build_dir, f"trace_{args.workload}.json")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines), file=sys.stderr)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
