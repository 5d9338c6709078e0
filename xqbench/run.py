#!/usr/bin/env python3
"""Builds and runs the XQB end-to-end benchmark (see xqbench/README.md).

Run from the repository root:

    python3 xqbench/run.py --workload xmark_scale --seed 1 --seconds 30 --trace 0

The first run configures and builds the engine and the xqbench binary from
source into .bench_build/ (or $CARGO_TARGET_DIR); later runs only check the
build.
The binary's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics;
this script checks that before passing the result on.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xmark_scale", "service_mixed", "xmark_update")
RUN_TIMEOUT_S = 170
# Environment knobs that would change how the engine runs; the workloads
# pin their options, so drop these rather than let them leak in.
PINNED_ENV = ("XQB_THREADS", "XQB_FAILPOINTS", "XQB_FAILPOINT_CRASH")


def fail(message):
    print("xqbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "xqbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "xqbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(build_dir, "xqbench"))
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("xqbench exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("xqbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("xqbench printed no result")
    result = json.loads(lines[-1])
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)
    want = expected_metrics(args.trace == 1)
    if want is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                 "unit mismatch %s" % (missing, extra, units))
    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n")
                     else proc.stdout + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
