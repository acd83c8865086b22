#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload fleet_steady|fleet_crash|paper_host \
        [--seed N] [--seconds S] [--trace 0|1] [-- EXTRA...]

Run from the repository root. The first run configures and builds the
measuring program (perfbench/, CMake Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. Each workload runs in its own process with at
most min(4, nproc) engine workers or runner threads.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics BENCHMARK.json names with
--trace 0, its per_layer metrics with --trace 1. The program's own table
(every metric and self-check) goes to stderr. With --trace 1 the spans are
written to trace-<workload>.json in the build directory. EXTRA flags go to
the measuring program unchanged (the tests use them for small topologies).

Exit status 0 with a result line; 1 without one (build failure, simulator
error, a metric BENCHMARK.json names but the program did not print).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fleet_steady", "fleet_crash", "paper_host")
# Generous, but inside the 180 s a run may take once built.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def jobs():
    return str(min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs()])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-20:]
                raise BenchError("build failed: %s\n%s"
                                 % (" ".join(cmd), "".join(tail)))
    return BINARY


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(workload, seed, seconds, trace, extra=()):
    """Runs the program once; returns its full result object."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--trace-out", trace_path(workload)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        raise BenchError("%s: exit code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def trace_path(workload):
    return os.path.join(BUILD, "trace-%s.json" % workload)


def select(result, spec, trace):
    """The result line: the metric set BENCHMARK.json names for the mode."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise BenchError("metrics not printed: %s" % ", ".join(missing))
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names},
    }


def main(argv):
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[: argv.index("--")]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        build()
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         extra)
        line = select(result, spec, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
