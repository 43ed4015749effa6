#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark at a tiny genome size.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload, with tracing off and on, it runs perfbench/run.py on a
genome a tenth of the benchmark's size and checks that the result line is
well formed and correct, that every metric BENCHMARK.json declares for that
mode is emitted with its unit, and that each traced assembly recorded one
span per operation call, in Assembler::FinishAssembly's order. Exits 0 when
all pass.
"""

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
# One error-correction round (the default): round 1, then bubbles and tips,
# then round 2; "collect" is CollectContigs after each round.
OPERATIONS = ["dbg.build", "labeling", "merging", "collect",
              "bubbles", "tips", "labeling", "merging", "collect"]


def expected_operations(workload):
    return OPERATIONS + (["net.collect"] if workload == "fleet-sv" else [])


def check_run(workload, trace, spec):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--scale", "0.1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("run not correct:\n" + proc.stdout)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in declared):
        errors.append(f"metric names differ: {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append(f"{m['name']}: {got}")
    if trace:
        errors += check_spans(workload, metrics)
    return errors


def check_spans(workload, metrics):
    path = ROOT / ".bench_build" / "perfbench-traces" / f"{workload}-seed{SEED}.json"
    events = json.loads(path.read_text())["traceEvents"]
    children = defaultdict(list)
    roots = []
    for e in events:
        if e["name"] == "assembly":
            roots.append(e["args"]["id"])
        children[e["args"]["parent"]].append(e)
    if not roots:
        return ["no traced assembly in " + str(path)]
    want = expected_operations(workload)
    errors = []
    for root in roots:
        got = [e["name"] for e in sorted(children[root], key=lambda e: e["ts"])]
        if got != want:
            errors.append(f"assembly span {root}: operations {got}")
    if metrics.get("trace.spans", {}).get("value") != len(want):
        errors.append(f"trace.spans {metrics.get('trace.spans')}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_run(workload, trace, spec)
            status = "ok" if not errors else "FAIL"
            print(f"{workload:12s} trace={trace}: {status}")
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
