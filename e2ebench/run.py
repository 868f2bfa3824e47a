#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the DCMT trainer and serving tier.

Usage, from the root of a source checkout:

    python3 e2ebench/run.py --workload train_eval --seed 1 --seconds 15 --trace 0

Builds e2ebench/ (a CMake package compiling ../src) in Release mode into
.bench_build/e2ebench (or $CARGO_TARGET_DIR/e2ebench), runs one workload and
forwards its output. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Before printing it, the metric
names are checked against BENCHMARK.json; any mismatch exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures (once) and builds the harness; returns the binary or None."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "e2ebench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(bdir, "e2ebench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def metrics_mismatch(result, expected):
    """Describes how a result's metrics differ from `expected`; '' if none."""
    got = [(name, m.get("unit")) for name, m in result.get("metrics", {}).items()]
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        return "missing %s, unexpected %s" % (missing, extra)
    return ""


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir(), "work", tag)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1] if lines else []))
        print("e2ebench: exited with code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 3
    result = json.loads(lines[-1])
    mismatch = metrics_mismatch(result, expected_metrics(args.trace))
    for line in lines[:-1]:
        print(line)
    if mismatch:
        print("e2ebench: metrics disagree with BENCHMARK.json: " + mismatch,
              file=sys.stderr)
        return 4
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
