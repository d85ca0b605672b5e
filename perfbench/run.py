#!/usr/bin/env python3
"""Build and run the PDDL host-cost benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1> [--write-refs]

Workloads: array_grid, volume64_cached, autotune, layout_search (or
`all`). The first run configures and builds perfbench/ (which compiles
the repository's src/ with its default flags) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only re-check the build. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
The exit status is the benchmark's: 0 when every simulated output was
correct, non-zero otherwise or when the sources are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the benchmark; return the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--write-refs", action="store_true",
                        help="rewrite perfbench/refs (reference seed only)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no PDDL sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--refs", os.path.join(HERE, "refs")]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    if args.write_refs:
        command.append("--write-refs")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
