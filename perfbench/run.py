#!/usr/bin/env python3
"""Builds and runs the end-to-end monitoring benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload point_rules --seed 1 --seconds 10 --trace 0

The engine and monitor libraries are compiled from ../src together with the
benchmark program (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Build output goes to stderr; the program's
stdout is passed through, so its last line is the JSON result. A traced run
(--trace 1) also writes its spans to <build dir>/spans/<workload>.csv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["point_rules", "mixed_topk", "hot_updates"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no engine sources next to perfbench/ "
                 "(run from a full source checkout)")
    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                               os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace == 1:
        spans_dir = os.path.join(out_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, args.workload + ".csv")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
