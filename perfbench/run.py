#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-wa-4t --seed 1 --seconds 20 --trace 0

The library is compiled from the checkout's own sources into the build
directory ($CARGO_TARGET_DIR, default .bench_build); an up-to-date build is a
no-op. Build output goes to stderr. The benchmark's output, ending in one
JSON result line, goes to stdout, and its exit code is returned.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-wa-4t", "cold-mix-1t", "service-warm-delta")
# The benchmark itself must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    # Configure every time: a no-op when nothing changed, and an error when
    # the build directory was configured from another checkout's sources.
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_bench")


def build_id(binary):
    """A digest of the built binary: exact counts recorded by one build are
    compared only with later runs of the same build."""
    digest = hashlib.sha256()
    with open(binary, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    try:
        binary = build(build_dir)
        binary_id = build_id(binary)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    state_dir = os.path.join(build_dir, "state")
    os.makedirs(state_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-dir", state_dir, "--build-id", binary_id]
    with subprocess.Popen(command, cwd=ROOT) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            sys.exit("perfbench: %s timed out after %d s" %
                     (args.workload, RUN_TIMEOUT_S))


if __name__ == "__main__":
    sys.exit(main())
