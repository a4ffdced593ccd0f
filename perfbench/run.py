#!/usr/bin/env python3
"""End-to-end campaign benchmark: build it, run one workload, report.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root (any working directory works; paths resolve
from this file).  perfbench and libgpudiff are built in Release under
perfbench/build on first use.  Each invocation runs one workload in fresh
processes, so no floating-point environment or vector-register state leaks
between workloads.  The last stdout line is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; setup_s is the
median set-up time of eight fresh `perfbench --setup-only` processes, four
run before the measured process and four after it, each timed from its
spawn to the point where the first program could run.  --trace 1 reports
the per-layer metrics and writes perfbench/work/<workload>/trace.json.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper", "diverse", "pipeline")
SETUP_RUNS = 8
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (first use) and build perfbench; raise on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no gpudiff source tree beside {HERE}")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def perfbench_args(args, work_dir, tiny):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", work_dir]
    if tiny:
        cmd.append("--tiny")
    return cmd


def setup_times(args, tiny, runs):
    """Set-up times reported by fresh processes that only set up."""
    cmd = perfbench_args(args, os.path.join(HERE, "work", args.workload + ".setup"),
                         tiny) + ["--setup-only", "--spawn-time"]
    times = []
    for _ in range(runs):
        # time.monotonic() reads CLOCK_MONOTONIC, as the program's clock does.
        done = subprocess.run(cmd + [repr(time.monotonic())],
                              cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run(args, tiny=False):
    """Run one workload; returns (exit code, result dict or None)."""
    work_dir = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    # Half the set-up samples before the measured run and half after it, so
    # the median does not hang on the host's load at one instant.
    setup = [] if args.trace else setup_times(args, tiny, SETUP_RUNS // 2)
    done = subprocess.run(perfbench_args(args, work_dir, tiny) +
                          ["--trace", str(args.trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if not args.trace:
        setup += setup_times(args, tiny, SETUP_RUNS - SETUP_RUNS // 2)
    setup_s = statistics.median(setup) if setup else None
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except json.JSONDecodeError:
            pass
    for line in lines:
        print(line)
    if result is None:
        log(f"perfbench exited {done.returncode} without a result")
        return done.returncode or 1, None
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"# {'setup_s':<40} {setup_s:.6g} s")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {'error_rate':<40} {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} operations)")
    return done.returncode, result


def self_test():
    """Tiny-size checks of the benchmark itself; returns an exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    counts = ("gen.programs", "vgpu.runs", "vgpu.ops", "diff.discrepancies",
              "reduce.checks")
    self_time = ("gen.generate_s", "gen.inputs_s", "opt.compile_s",
                 "vgpu.execute_s", "diff.classify_s", "diff.record_s",
                 "campaign.merge_s", "campaign.serialize_s", "campaign.fleet_s",
                 "store.ingest_s", "store.load_s", "store.query_s",
                 "reduce.record_s", "trace.untracked_s")
    for workload in WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=0.5,
                                      trace=trace)
            code, result = run(args, tiny=True)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{where}: run failed (exit {code})")
                continue
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or not in {m['unit']}")
            if trace:
                traced.append(result["metrics"])
        if len(traced) == 2:
            a, b = traced
            for name in counts:
                if a[name]["value"] != b[name]["value"]:
                    problems.append(f"{workload}: {name} differs between same-seed runs")
            total = sum(a[name]["value"] for name in self_time)
            wall = a["trace.wall_s"]["value"]
            if abs(total - wall) > 1e-6 * max(1.0, wall):
                problems.append(f"{workload}: self times sum to {total}, wall {wall}")
    for p in problems:
        log("self-test: " + p)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself at tiny sizes")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.self_test:
            return self_test()
        code, result = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 2
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
