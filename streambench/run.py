#!/usr/bin/env python3
"""Builds the StreamRel benchmark from this checkout and runs one workload.

    python3 streambench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of the checkout. The optimized build goes to
$CARGO_TARGET_DIR (default .bench_build); traced runs write their spans to
.bench_out/. Build output goes to stderr; the benchmark's result object is
the last line of stdout.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "streambench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"streambench: build failed: {err}", file=sys.stderr)
        return 2
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    cmd = [binary] + sys.argv[1:] + ["--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("streambench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
