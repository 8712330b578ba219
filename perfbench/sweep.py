#!/usr/bin/env python3
"""Runs the benchmark over several seeds, and compares two sets of runs.

Usage (from the repository root):

    python3 perfbench/sweep.py run --workloads cold_solve serve_mix amr_transient \
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 --out perfbench/base.jsonl
    # ... check out the change, then the same with --out perfbench/new.jsonl ...
    python3 perfbench/sweep.py compare perfbench/base.jsonl perfbench/new.jsonl

`run` runs each workload once per seed for BENCHMARK.json's `run_seconds`
and appends every run's full record to --out. For each workload and metric
it prints the median of the runs and the distance between their first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound.

`compare` prints, per workload and metric, the median and spread of each
set and the change of the median. It refuses records whose machine and
configuration stamps differ in anything but the commit, or whose run
lengths differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "carve-perfbench-v1"
# The commit is what a comparison is about; every other stamp field must
# agree.
FREE_STAMP_FIELDS = {"commit"}


def spread(xs):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(statistics.median(xs))


def load(path):
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    for r in records:
        if r.get("schema") != SCHEMA:
            raise ValueError(f"{path}: a record is not {SCHEMA}")
    return records


def check_comparable(records):
    """Raises ValueError unless every record has the same stamp (the commit
    aside) and the same run length."""
    def key(r):
        stamp = {k: v for k, v in r["stamp"].items() if k not in FREE_STAMP_FIELDS}
        return stamp, r["seconds"]
    first = key(records[0])
    for r in records[1:]:
        if key(r) != first:
            raise ValueError(
                f"refusing to compare: stamps or run lengths differ\n"
                f"  {first}\n  {key(r)}")


def values(records):
    """(workload, trace, metric) -> (unit, [value per record])."""
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], r["trace"], name), (m["unit"], []))[1].append(m["value"])
    return out


def compare(base, new):
    """Returns the comparison table as lines."""
    check_comparable(base + new)
    a, b = values(base), values(new)
    fmt = "{:<15} {:<34} {:>8} {:>13} {:>7} {:>13} {:>7} {:>8}"
    lines = [fmt.format("workload", "metric", "unit", "base median", "spread",
                        "new median", "spread", "change")]
    show = lambda xs: f"{spread(xs):.3f}" if len(xs) >= 2 else "-"
    for key in sorted(a.keys() & b.keys()):
        unit, xs = a[key]
        ys = b[key][1]
        ma, mb = statistics.median(xs), statistics.median(ys)
        change = f"{mb / ma - 1:+.3f}" if ma else "-"
        lines.append(fmt.format(key[0], key[2], unit, f"{ma:.6g}", show(xs),
                                f"{mb:.6g}", show(ys), change))
    return lines


def run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_path = os.path.abspath(args.out)
    for w in args.workloads:
        xs = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
                "--out", out_path,
            ]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            lines = p.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            steal = json.loads(lines[-2])["detail"]["host_steal_s"]["value"]
            if not last["correct"] or last["failed"]:
                sys.exit(f"{w} seed {seed}: {last['failed']} failed operations")
            for name, m in last["metrics"].items():
                xs.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items())
                + f", host_steal_s={steal:.2f}", flush=True)
        for name, v in xs.items():
            s = spread(v) if len(v) >= 2 else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or s < bound / 3 else "  <-- above bound/3"
            print(f"  {w:14} {name:28} median {statistics.median(v):12.6g}"
                  f"  spread {s:6.3f}  bound {bound}{flag}", flush=True)


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", nargs="+", required=True)
    r.add_argument("--seeds", nargs="+", type=int, required=True)
    r.add_argument("--trace", choices=["0", "1"], default="0")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "run":
        run(args)
        return
    try:
        print("\n".join(compare(load(args.base), load(args.new))))
    except ValueError as e:
        sys.exit(str(e))


if __name__ == "__main__":
    main()
