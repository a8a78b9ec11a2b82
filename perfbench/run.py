#!/usr/bin/env python3
"""Builds the srl benchmark from source and runs one workload.

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and is incremental, so only the first run compiles.
Build output goes to stderr; stdout carries the benchmark's own output, whose last
line is the result object. The exit code is the benchmark's: 0 on a clean run, 1 when
a correctness check failed, 2 when the benchmark could not be built or started.

Extra flags for the smoke test and for digging: --tiny 1 (tiny sizes),
--inject-fault corrupt-record (kv-zipf only), --trace-dir DIR (span files of the
traced run; default <build>/traces).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to perfbench/ (CMakeLists.txt and src/ missing)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["kv-zipf", "vm-churn", "metis-wrmem"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--tiny", choices=["0", "1"], default="0")
    p.add_argument("--inject-fault", choices=["corrupt-record"])
    p.add_argument("--trace-dir")
    args = p.parse_args()

    build_dir = build()
    cmd = [os.path.join(build_dir, "srl_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tiny", args.tiny, "--git-sha", git_sha()]
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    if args.trace == "1":
        trace_dir = args.trace_dir or os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot start the benchmark: {e}")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
