#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 25 --trace 0

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root, the run's database files to
<build dir>/data, removed when the run ends. The last line of standard output
is the JSON result line; build output goes to standard error. The exit code
is the benchmark's: 0 only when every answer matched its oracle.

BENCHMARK.json at the root is the one list of metric names and units: the
binary is told which metrics the run's mode reports, refuses any other, and
the result line is checked against the list before it is passed on.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold_scan", "serve_mixed", "ingest_mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds perfbench and the library; returns the binary."""
    source = os.path.join(ROOT, "perfbench")
    subprocess.run(["cmake", "-S", source, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def metric_specs(trace):
    """The (name, unit) pairs BENCHMARK.json lists for the run's mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(stdout, specs):
    """Returns why the result line disagrees with `specs`, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no result line"
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable result line: {e}"
    got = {name: m.get("unit") for name, m in metrics.items()}
    want = dict(specs)
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        return f"metrics differ from BENCHMARK.json: {diff}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        specs = metric_specs(args.trace)
        binary = build(build_dir)
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", os.path.join(build_dir, "data"),
               "--metrics", ",".join(f"{n}:{u}" for n, u in specs)]
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    mismatch = check_result(run.stdout, specs)
    if mismatch is not None:
        # Everything but the result line, so no result is printed.
        sys.stdout.write("".join(run.stdout.splitlines(True)[:-1]))
        print(f"perfbench: {mismatch}", file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
