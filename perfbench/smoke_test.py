#!/usr/bin/env python3
"""Smoke test of the tsbo benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--size tiny and checks that
  * each run passes its correctness gate (correct, failed == 0),
  * --trace 0 prints exactly the end_to_end metrics and --trace 1 exactly
    the per_layer metrics, with the units BENCHMARK.json gives them,
  * the exact counts (krylov.iters, ortho.allreduces, sparse.halo_rounds,
    precond.applies) repeat exactly between two traced runs of one seed,
  * the gate fails a run whose solution is perturbed (--corrupt 1).
Exits non-zero on the first failure.  Takes about a minute.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ["krylov.iters", "ortho.allreduces", "sparse.halo_rounds", "precond.applies"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit("FAIL %s: exit code %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload, result, expected):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        sys.exit("FAIL %s: metrics differ from BENCHMARK.json: %s"
                 % (workload, sorted(set(got.items()) ^ set(want.items()))))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit("FAIL %s: correctness gate: %s" % (workload, result))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(name, run(name, 0), bench["end_to_end"])
        first = run(name, 1)
        check_metrics(name, first, bench["per_layer"])
        second = run(name, 1)
        for key in EXACT:
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            if a != b:
                sys.exit("FAIL %s: %s differs between runs of one seed: %r vs %r"
                         % (name, key, a, b))
        bad = run(name, 0, "--corrupt", "1")
        if bad["correct"] or bad["failed"] < 1:
            sys.exit("FAIL %s: gate passed a perturbed solution: %s" % (name, bad))
        print("ok %s" % name)


if __name__ == "__main__":
    main()
