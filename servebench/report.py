#!/usr/bin/env python3
"""Runs the serve-path benchmark over several seeds and reports each
metric's median and quartiles per workload.

From the repository root:

    python3 servebench/report.py --seeds 1-10                # every workload, end-to-end metrics
    python3 servebench/report.py --seeds 1 --repeat 10       # ten runs of one seed: run-to-run noise alone
    python3 servebench/report.py --workloads fleet-candump --seeds 1-5 --trace 1
    python3 servebench/report.py --load a.jsonl --load b.jsonl   # report saved sets, compare medians

Each run's result line is appended to --save (JSON lines) as it lands.
The spread is (q3 - q1) / median with quartiles from
statistics.quantiles(values, n=4); it is printed beside the metric's
bound from BENCHMARK.json and flagged when above a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(bench, workloads, seeds, repeat, trace, save):
    rows = []
    for w in workloads:
        for seed in [s for s in seeds for _ in range(repeat)]:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}\n")
                sys.exit(1)
            row = {"workload": w, "seed": seed, "trace": trace, "result": json.loads(lines[-1])}
            rows.append(row)
            if save:
                with open(save, "a") as f:
                    f.write(json.dumps(row) + "\n")
            print(f"  {w} seed {seed}: done", file=sys.stderr)
    return rows


def summarize(rows):
    """{workload: {metric: [values]}} over correct runs."""
    out = {}
    for row in rows:
        res = row["result"]
        if not res["correct"]:
            print(f"{row['workload']} seed {row['seed']}: INCORRECT", file=sys.stderr)
            continue
        for name, m in res["metrics"].items():
            out.setdefault(row["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="append each result line to this JSON-lines file")
    ap.add_argument("--load", action="append", help="report a saved set instead of running (repeatable)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.load:
        sets = []
        for path in args.load:
            with open(path) as f:
                sets.append([json.loads(line) for line in f if line.strip()])
    else:
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
        sets = [run_set(bench, workloads, parse_seeds(args.seeds), args.repeat, args.trace, args.save)]

    medians = []
    for i, rows in enumerate(sets):
        summary = summarize(rows)
        medians.append({})
        print(f"set {i + 1}:")
        for w, metrics in summary.items():
            print(f"  {w}:")
            print(f"    {'metric':40s} {'n':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
            for name in sorted(metrics):
                vals = metrics[name]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("nan")
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" and not spread <= bound / 3:
                    flag = "  <-- above bound/3"
                b = f"{bound:6.2f}" if bound is not None else "     -"
                print(f"    {name:40s} {len(vals):3d} {q2:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {b}{flag}")
                medians[-1][(w, name)] = q2
    if len(medians) > 1:
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        print("median shift, last set against the first (positive = worse):")
        for key, first in sorted(medians[0].items()):
            if key[1] not in bounds or key not in medians[-1] or not first:
                continue
            shift = (medians[-1][key] - first) / first
            if better[key[1]] == "higher":
                shift = -shift
            flag = "  <-- beyond bound" if shift > bounds[key[1]] else ""
            print(f"  {key[0]:14s} {key[1]:18s} {shift:+8.4f}{flag}")


if __name__ == "__main__":
    main()
