#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles ../src) in Release mode
under $CARGO_TARGET_DIR (default .bench_build), then runs one workload.
The program's report goes to stdout; its last line is the JSON result.
Build output goes to stderr. Exits non-zero, without a result, when the
sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("build_uniform", "build_clustered", "serve_mobility", "serve_churn")
RUN_TIMEOUT_S = 170


def source_digest(root):
    """sha256 over the relative paths and bytes of the compiled sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j4"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(root, out_root)
    build_dir = os.path.join(out_root, "perfbench")
    if not build(root, build_dir):
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(out_root, "traces"),
           "--git-sha", git_sha(root), "--source-digest", source_digest(root)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
