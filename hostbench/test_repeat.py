#!/usr/bin/env python3
"""Checks that the benchmark's exact counts repeat.

Usage, from the root of a checkout:

    python3 hostbench/test_repeat.py [workload ...]

For each workload (all three by default) it runs the benchmark twice with
seed 1 and once with seed 2, in both modes, at the shortest sequence
(--seconds 1). It asserts that

  * every count-valued metric (unit "count" or "B": cost counters, the
    attribution cells, live pages, allocations, wire bytes and events),
    model_ms_per_query and space_amp are identical across the two seed-1
    runs, together with the printed cost, allocation and attribution lines;
  * the seed-2 run changes model_ms_per_query and at least one count;
  * every run is correct with 0 failed operations.

Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sp_deferred_cached", "join_immediate_uncached",
             "wire_sessions_mixed"]
EXACT_UNITS = {"count", "B"}
EXACT_E2E = {"model_ms_per_query", "space_amp"}
EXACT_LINES = ("cost:", "allocs:", "attributed ")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), done.stderr))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    exact = {}
    for name, metric in result["metrics"].items():
        if metric["unit"] in EXACT_UNITS or name in EXACT_E2E:
            exact[name] = metric["value"]
    for line in lines:
        if line.startswith(EXACT_LINES):
            exact[line.split(":")[0]] = line
    return result, exact


def check(workload):
    problems = []
    for trace in (0, 1):
        first, a = run(workload, 1, trace)
        again, b = run(workload, 1, trace)
        other, c = run(workload, 2, trace)
        for res, label in ((first, "seed 1"), (again, "seed 1 again"),
                           (other, "seed 2")):
            if not res["correct"] or res["failed"] != 0:
                problems.append("trace %d %s: correct=%s failed=%d" % (
                    trace, label, res["correct"], res["failed"]))
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                problems.append("trace %d: %s differs between two seed-1 runs:"
                                " %r vs %r" % (trace, name, a.get(name),
                                               b.get(name)))
        if trace == 0 and a["model_ms_per_query"] == c["model_ms_per_query"]:
            problems.append("seed 2 did not change model_ms_per_query")
        if a == c:
            problems.append("trace %d: seed 2 changed no count" % trace)
        print("%s trace %d: %d exact values compared" % (workload, trace,
                                                         len(a)), flush=True)
    return problems


def main():
    workloads = sys.argv[1:] or WORKLOADS
    problems = []
    for workload in workloads:
        problems += ["%s: %s" % (workload, p) for p in check(workload)]
    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else "%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
