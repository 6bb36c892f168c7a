#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs each workload once per seed, untraced, and prints for every
end-to-end metric its median and the distance between the first and
third quartile as a share of the median, against the metric's bound from
BENCHMARK.json (a steady metric keeps its spread under a third of its
bound). With --sets 2 it runs a second set on the next seeds and also
prints how far the second median moved from the first, in the direction
that counts as worse.

    python3 rpxbench/spread.py [--seeds 10] [--sets 1] [--seconds N] [workload ...]

Run from the repository root. Exits non-zero when a run fails its output
checks, a spread exceeds its bound, or a median moved by more than it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, workload, seeds, seconds, trace):
    values, ok = {}, True
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return values, ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        medians = []
        for k in range(args.sets):
            first = args.first_seed + k * args.seeds
            values, set_ok = run_set(
                bench, w, range(first, first + args.seeds), args.seconds, args.trace)
            ok = ok and set_ok
            print(f"== {w}: seeds {first}-{first + args.seeds - 1}")
            med_of_set = {}
            for name, vs in values.items():
                if len(vs) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vs, n=4)
                med_of_set[name] = statistics.median(vs)
                spread = (q3 - q1) / med if med else float("inf")
                bound = metrics.get(name, {}).get("bound")
                flag = ""
                if bound is not None:
                    flag = "ok" if spread < bound / 3 else (
                        "within bound" if spread <= bound else "TOO WIDE")
                    ok = ok and spread <= bound
                print(f"  {name:<22} median {med:>14.6g}  spread {spread:7.3f}  bound {bound}  {flag}")
            medians.append(med_of_set)
        for k in range(1, len(medians)):
            print(f"== {w}: set {k + 1} median against set 1 (positive = worse)")
            for name, m in metrics.items():
                a, b = medians[0].get(name), medians[k].get(name)
                if not a or b is None:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                ok = ok and worse <= m["bound"]
                print(f"  {name:<22} {a:>14.6g} -> {b:<14.6g} {worse:+7.3f}  bound {m['bound']}  {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
