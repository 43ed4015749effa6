#!/usr/bin/env python3
"""Pipeline benchmark: one full assembly per workload, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload hc2-mem --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into .bench_build/,
simulates the workload's reads from --seed, runs exactly one assembly in a
fresh process for peak memory, then repeats assemblies for --seconds in a
second process. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 reports its per-layer metrics, from a traced run that calls the
operations one by one. Output checks run either way. The last stdout line is
the result: {"correct", "attempted", "failed", "metrics"}.

--scale shrinks the genome (perfbench/smoke_test.py uses it); benchmark runs
leave it at 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = Path(".bench_build")  # relative to ROOT, the cwd of every step
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "ppa_perfbench"
# Worker sockets live under TMPDIR; a short relative path keeps them under
# the unix socket path limit wherever the checkout is.
TMPDIR = BUILD_ROOT / "t"
TRACES = BUILD_ROOT / "perfbench-traces"
WORKLOADS = ("hc2-mem", "deep-stream", "fleet-sv")
RUN_TIMEOUT_S = 165  # whole measurement, build excluded


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_step(cmd, timeout, env=None):
    """Runs cmd in its own process group from ROOT; on timeout the whole
    group (including spawned shard workers) is killed and reaped."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[0]} {cmd[1]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"{' '.join(map(str, cmd[:2]))} exited with {proc.returncode}")
    return err


def build():
    if not (ROOT / "src" / "core" / "assembler.h").is_file():
        raise BenchError("no library sources (src/) next to perfbench/")
    configure = ["cmake", "-S", "perfbench", "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (ROOT / BUILD / "CMakeCache.txt").is_file():
        run_step(configure, 600)
    run_step(["cmake", "--build", str(BUILD), "-j", "4"], 900)


def git_sha():
    """HEAD of the checkout, or "" when it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def read_result(path):
    with open(ROOT / path) as f:
        return json.load(f)


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def measure(args, work):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ, TMPDIR=str(TMPDIR))
    sha = git_sha()
    if sha:
        env.setdefault("PPA_GIT_SHA", sha)  # provenance (bench_common.h)
    common = ["--workload", args.workload, "--dir", str(work)]

    def remaining():
        return deadline - time.monotonic()

    run_step([str(BINARY), "gen", *common, "--seed", str(args.seed),
              "--scale", str(args.scale)], remaining(), env)
    # Peak memory comes from a process that ran exactly one assembly:
    # repeats in one process grow through glibc arena retention.
    oneshot = work / "oneshot.json"
    run_step([str(BINARY), "oneshot", *common, "--out", str(oneshot),
              "--trace", str(args.trace)], remaining(), env)
    main = work / "run.json"
    spans = TRACES / f"{args.workload}-seed{args.seed}.json"
    run_step([str(BINARY), "run", *common, "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--out", str(main),
              "--spans-out", str(spans)], remaining(), env)
    return read_result(oneshot), read_result(main), spans


def report(args, first, main, spans):
    res, one = main["result"], first["result"]
    metrics = dict(res["metrics"])
    metrics.update(one["metrics"])
    failures = res["check_failures"] + one["check_failures"]
    if one["digest"] != res["digest"]:
        failures.append({"check": "oneshot_matches_run",
                         "detail": f"{one['digest']} != {res['digest']}"})
    declared = declared_metrics(args.trace)
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append({"check": "metric_emitted",
                             "detail": f"{m['name']} missing or wrong unit"})

    provenance = dict(main["provenance"], seed=args.seed, trace=args.trace,
                      seconds=args.seconds)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]['value']:>16.9g} {metrics[name]['unit']}")
    samples = res["assembly_s_samples"]
    if samples:
        print(f"  assembly_s samples ({len(samples)}): " +
              " ".join(f"{v:.4f}" for v in samples))
    if args.trace:
        print(f"  spans written to {spans}")
    for f in failures:
        print(f"CHECK FAILED {f['check']}: {f['detail']}")
    attempted = res["attempted"] + one["attempted"]
    failed = res["failed"] + one["failed"]
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in declared
                    if m["name"] in metrics},
    }
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    work = BUILD_ROOT / "perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        build()
        for d in (work, TMPDIR, TRACES):
            (ROOT / d).mkdir(parents=True, exist_ok=True)
        first, main_result, spans = measure(args, work)
        report(args, first, main_result, spans)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
