#!/usr/bin/env python3
"""Build and run the tsbo benchmark.

    python3 perfbench/run.py --workload paper-strong --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The first call configures and
builds tsbo_perf (perfbench/tsbo_perf.cpp plus libtsbo from ../src) into
the build directory: $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the checkout root.  Later calls only re-run the incremental
build.  Every argument is passed to tsbo_perf, whose last stdout line is
the JSON result; with --trace 1 the recorded spans are also written to
<build dir>/spans-<workload>-<seed>.json.

tsbo_perf runs with glibc's mmap threshold fixed at 128 KiB
(GLIBC_TUNABLES), so every figure is taken under that allocator
setting; perfbench/README.md says why and what the default gives.
Run .bench_build/tsbo_perf directly for the default allocator.

Exits non-zero without printing a result when the build or the run fails,
for example in a directory that holds the benchmark but not the sources.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Large buffers are mmapped and returned on free, so peak RSS follows
# the program's live memory instead of glibc's per-thread arena build-up.
MALLOC_TUNABLE = "glibc.malloc.mmap_threshold=131072"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no tsbo sources next to " + BENCH_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tsbo_perf",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tsbo_perf")


def arg_value(args, key, default):
    for i, a in enumerate(args):
        if a == key and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(key + "="):
            return a.split("=", 1)[1]
    return default


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if arg_value(args, "--trace", "0") == "1" and arg_value(args, "--trace-out", None) is None:
        name = "spans-%s-%s.json" % (arg_value(args, "--workload", "x"),
                                     arg_value(args, "--seed", "1"))
        args += ["--trace-out", os.path.join(build_dir, name)]
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), MALLOC_TUNABLE) if t)
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True, env=env)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode:
        fail("tsbo_perf exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("tsbo_perf printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")


if __name__ == "__main__":
    main()
