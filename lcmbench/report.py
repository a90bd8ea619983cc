#!/usr/bin/env python3
"""Spread report and comparison for lcmbench result sets.

Run it from the repository root.

    python3 lcmbench/report.py run --workload batch-cold --seeds 1-10 --out a.jsonl [--trace 0|1]
        runs run.py once per seed, for BENCHMARK.json's run_seconds unless
        --seconds says otherwise, and appends {"workload", "seed", "trace",
        "seconds", "result"} lines to the result file
    python3 lcmbench/report.py spread a.jsonl [...]
        per workload and metric: run count, median, quartiles, and the
        quartile spread as a share of the median, against the metric's bound
    python3 lcmbench/report.py compare parent.jsonl change.jsonl
        pairs the i-th run of each workload on both sides and labels every
        end-to-end metric improved, unchanged, worse or unresolved

Quartiles are Python's statistics.quantiles(values, n=4). The comparison
rule: a metric is improved when the change wins at least nine tenths of the
pairs (ties count for neither) and the medians differ by more than the
parent's quartile spread; unresolved when the parent's spread is wider than
the metric's bound and not every change run beats every parent run; worse
when the change's median is worse than the parent's by more than the bound;
unchanged otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(paths):
    """Result lines grouped as {(workload, trace): [line, ...]} in file order."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def run_seconds(lines):
    """The run lengths behind a set of result lines, as printable text."""
    return ", ".join(sorted({f"{r['seconds']:g} s" if "seconds" in r else "unrecorded"
                             for r in lines}))


def benchmark():
    with open(BENCH) as f:
        return json.load(f)


def declared():
    bench = benchmark()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_run(args):
    lo, _, hi = args.seeds.partition("-")
    with open(args.out, "a") as out:
        for seed in range(int(lo), int(hi or lo) + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit(f"report.py: seed {seed} failed (exit {done.returncode})")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": int(args.trace), "seconds": args.seconds,
                                  "result": result}) + "\n")
            out.flush()
            print(f"{args.workload} seed {seed}: done", file=sys.stderr)


def cmd_spread(args):
    meta = declared()
    for (workload, trace), lines in sorted(load(args.files).items()):
        results = [r["result"] for r in lines]
        print(f"{workload} (trace {trace}, {len(results)} runs of {run_seconds(lines)})")
        print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = meta.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:<32} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag} {unit}")


def label(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * pairs and abs(cm - pm) > (p3 - p1):
        return "improved", wins, pairs
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is not None and pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", wins, pairs
    if bound is not None and pm and -gain / abs(pm) > bound:
        return "worse", wins, pairs
    return "unchanged", wins, pairs


def cmd_compare(args):
    meta = declared()
    parent, change = load([args.parent]), load([args.change])
    for key in sorted(parent):
        if key not in change:
            continue
        workload, trace = key
        print(f"{workload} (trace {trace}; parent runs of {run_seconds(parent[key])}, "
              f"change runs of {run_seconds(change[key])})")
        print(f"  {'metric':<32} {'parent':>14} {'change':>14} {'wins':>8}  label")
        for name in parent[key][0]["result"]["metrics"]:
            p = [r["result"]["metrics"][name]["value"] for r in parent[key]]
            c = [r["result"]["metrics"][name]["value"] for r in change[key]]
            m = meta.get(name, {})
            verdict, wins, pairs = label(p, c, m.get("better", "lower"), m.get("bound"))
            print(f"  {name:<32} {statistics.median(p):>14.6g} {statistics.median(c):>14.6g} "
                  f"{wins:>4}/{pairs:<3}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description="Spread report and comparison for lcmbench.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", required=True, help="N or N-M")
    run.add_argument("--seconds", type=float, default=benchmark()["run_seconds"],
                     help="measured seconds per run (default: BENCHMARK.json's run_seconds)")
    run.add_argument("--trace", choices=["0", "1"], default="0")
    run.add_argument("--out", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("files", nargs="+")
    compare = sub.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = ap.parse_args()
    {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
