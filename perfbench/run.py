#!/usr/bin/env python3
"""Build and run the end-to-end packet->result benchmark (see README.md).

    python3 perfbench/run.py --workload http_topk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
library modules and the `netbench` program into .bench_build/ (Release);
later runs rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's result object.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "netbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the determinism self-test instead")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    build()
    if args.selftest:
        cmd = ["ctest", "--test-dir", BUILD, "--output-on-failure"]
    else:
        cmd = [os.path.join(BUILD, "netbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_id()]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
