#!/usr/bin/env python3
"""End-to-end benchmark of the insched plan, serve and replay paths.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload plan_staircase|serve_mix|replay_sweep \
        --seed N --seconds S --trace 0|1

Builds the library and the harness in Release under .bench_build/perfbench
(configure once, then an incremental build on every call), runs the named
workload in one harness process, and relays the harness's output with its
metrics put in BENCHMARK.json's order. The last line of stdout is one JSON
object: correct, attempted, failed and metrics.
Build output and check failures go to stderr. Traced runs (--trace 1) also
write their spans under .bench_out/.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("plan_staircase", "serve_mix", "replay_sweep")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")


def build():
    """Configures (first call only) and builds the harness; True on success."""
    env = dict(os.environ)
    # Keep compiler temporaries inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_harness", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return os.path.exists(HARNESS)


def declared_metrics(result, traced):
    """Puts the harness's metrics in BENCHMARK.json's order and units.

    BENCHMARK.json is the one list of metrics. A traced run reports 0 for a
    layer its workload does not reach; an end-to-end metric the harness did
    not print, or a unit that differs from the declared one, is an error
    (None). A metric the list does not declare turns "correct" false.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in declared:
        value = got.pop(m["name"], {"value": 0.0, "unit": m["unit"]} if traced else None)
        if value is None or value["unit"] != m["unit"]:
            print("perfbench: metric %s missing or not in %s" % (m["name"], m["unit"]),
                  file=sys.stderr)
            return None
        metrics[m["name"]] = value
    for name in got:
        print("perfbench: harness reported undeclared metric %s" % name, file=sys.stderr)
        result["correct"] = False
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    cmd = [
        HARNESS,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
        "--spawn-epoch", repr(time.time()),
    ]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            output, _ = child.communicate()
        except BaseException:
            child.kill()
            child.wait()
            raise
    if child.returncode != 0:
        print("perfbench: harness exited with %d" % child.returncode, file=sys.stderr)
        return 1
    lines = output.rstrip("\n").split("\n")
    result = declared_metrics(json.loads(lines[-1]), args.trace == 1)
    if result is None:
        return 1
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
