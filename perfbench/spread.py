#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--first-seed 1]
                                [--workloads plan_staircase,serve_mix,replay_sweep]
                                [--label NAME]
    python3 perfbench/spread.py --compare NAME_A NAME_B

The first form runs perfbench/run.py once per seed (seeds first-seed ..
first-seed+runs-1) on each workload, one run at a time, and prints for every
end-to-end metric the median, the first and third quartiles
(statistics.quantiles, n=4), the quartile spread as a share of the median,
and that metric's bound from BENCHMARK.json; a spread above a third of its
bound is marked. It also prints each workload's share of failed operations
and the host reference factor the run scaled its times by (its range shows
how far the host's speed moved). Every run is appended to
.bench_out/spread.jsonl under the label (default "default").

The second form compares two labelled sets: for every workload and metric,
the second set's median against the first's, as a share, beside the bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(ROOT, ".bench_out", "spread.jsonl")
FACTOR = re.compile(r"host reference: .* times scaled by ([0-9.eE+-]+)")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), done.returncode))
    factor = FACTOR.search(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1]), float(factor.group(1))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def medians(label):
    """{workload: {metric: median}} of the runs logged under `label`."""
    values = {}
    with open(LOG) as f:
        for line in f:
            entry = json.loads(line)
            if entry.get("label") != label:
                continue
            per = values.setdefault(entry["workload"], {})
            for name, m in entry["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return {w: {n: statistics.median(v) for n, v in per.items()} for w, per in values.items()}


def compare(first, second, bounds):
    a, b = medians(first), medians(second)
    worst = 0.0
    for workload in a:
        if workload not in b:
            continue
        print(workload)
        for name, bound in bounds.items():
            change = b[workload][name] / a[workload][name] - 1.0
            worst = max(worst, abs(change) / bound)
            print("  %-12s %12.6g -> %12.6g  change %+7.3f  bound %.2f%s" % (
                name, a[workload][name], b[workload][name], change, bound,
                "  (OUTSIDE BOUND)" if abs(change) > bound else ""))
    print("largest change as a share of its bound: %.2f" % worst)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--label", default="default")
    parser.add_argument("--compare", nargs=2, metavar=("NAME_A", "NAME_B"))
    args = parser.parse_args()

    bench = load_bench()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        return compare(args.compare[0], args.compare[1], bounds)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    os.makedirs(os.path.dirname(LOG), exist_ok=True)

    with open(LOG, "a") as log:
        for workload in workloads:
            results, factors = [], []
            for k in range(args.runs):
                seed = args.first_seed + k
                r, factor = run_once(workload, seed, seconds)
                log.write(json.dumps({"label": args.label, "workload": workload, "seed": seed,
                                      "factor": factor, "result": r}) + "\n")
                log.flush()
                if not r["correct"]:
                    print("%s seed %d: outputs failed their checks" % (workload, seed))
                results.append(r)
                factors.append(factor)
            shares = sorted({r["failed"] / r["attempted"] for r in results})
            print("%s: %d runs, failed share %s, reference factor %.3f..%.3f" % (
                workload, len(results), shares, min(factors), max(factors)))
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("inf")
                print("  %-12s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %.2f%s" % (
                    name, median, q1, q3, spread, bound,
                    "" if spread <= bound / 3 else "  (above bound/3)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
