#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload paper-static --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout. The engine's libraries are
compiled from ./src with perfbench/CMakeLists.txt into $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and the `perfbench` binary is
then run with the same arguments. Build output goes to stderr, so the last
line of stdout is the binary's JSON result. When the build fails (for example when
./src is missing) this exits non-zero without printing a result.

Extra flags, used by perfbench/selftest.py: --paper-sf and --tamper-hash
are passed through to the binary.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(directory):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", directory, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(directory, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paper-sf", type=int)
    parser.add_argument("--tamper-hash")
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Every run starts from an empty spill directory (directories on ext4
    # never shrink after holding thousands of spill files).
    spill = os.path.join(directory, "spill")
    shutil.rmtree(spill, ignore_errors=True)
    os.makedirs(spill)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill]
    if args.paper_sf is not None:
        cmd += ["--paper-sf", str(args.paper_sf)]
    if args.tamper_hash is not None:
        cmd += ["--tamper-hash", args.tamper_hash]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
