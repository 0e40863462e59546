#!/usr/bin/env python3
"""Collects benchmark result sets and compares two of them.

Collect one result set per commit (run from that commit's repository root):

    python3 perfbench/compare.py collect --out /tmp/parent --seeds 1-10 [--workloads ...]
        [--trace 0]

Every run measures for BENCHMARK.json's run_seconds. Each run's JSON result is stored as
<out>/<workload>_seed<n>.json. Then compare:

    python3 perfbench/compare.py diff /tmp/parent /tmp/change

prints one row per workload x metric with each side's median and quartiles, the share of
seed-paired runs the change won (ties count for neither), and a verdict:

  improved    the change won at least 9 of 10 pairs and its median is better than the
              parent's by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more than the metric's
              bound from BENCHMARK.json;
  unresolved  the parent's quartile spread is wider than the bound and not every change run
              beats every parent run;
  unchanged   otherwise ("identical" when every pair reads exactly the same).

Per-layer metrics have no bound: they are reported improved, worse (the mirror of the
improved rule) or unchanged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["bon_toy", "chat_toy", "beam_qwen1.5b"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    os.makedirs(args.out, exist_ok=True)
    seconds = benchmark()["run_seconds"]
    failed = 0
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})",
                      file=sys.stderr)
                failed += 1
                continue
            with open(os.path.join(args.out, f"{workload}_seed{seed}.json"), "w") as f:
                f.write(lines[-1] + "\n")
            print(f"{workload} seed {seed}: ok", file=sys.stderr)
    return 1 if failed else 0


def load(directory):
    """{(workload, seed): result} for every result file in `directory`."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "_seed" not in name:
            continue
        workload, _, seed = name[:-len(".json")].rpartition("_seed")
        with open(os.path.join(directory, name)) as f:
            out[(workload, int(seed))] = json.loads(f.read().strip().splitlines()[-1])
    return out


def metric_specs():
    bench = benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: m for m in bench["per_layer"]})
    return specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def verdict(parent, change, lower_is_better, bound):
    pairs = list(zip(parent, change))
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs)
    p25, pmed, p75 = quartiles(parent)
    cmed = statistics.median(change)
    spread = p75 - p25
    gain = sign * (cmed - pmed)
    if all(p == c for p, c in pairs):
        return share, "identical"
    if share >= 0.9 and gain > spread:
        return share, "improved"
    if bound is None:
        return share, "worse" if losses / len(pairs) >= 0.9 and -gain > spread else "unchanged"
    if -gain > bound * abs(pmed):
        return share, "worse"
    all_better = max(change) < min(parent) if lower_is_better else min(change) > max(parent)
    if pmed != 0 and spread / abs(pmed) > bound and not all_better:
        return share, "unresolved"
    return share, "unchanged"


def diff(args):
    parent, change = load(args.parent), load(args.change)
    specs = metric_specs()
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 1
    header = (f"{'workload':<14} {'metric':<42} {'parent p25/p50/p75':>32} "
              f"{'change p25/p50/p75':>32} {'won':>5}  verdict")
    print(header)
    for workload in WORKLOADS + sorted({w for w, _ in keys} - set(WORKLOADS)):
        seeds = [s for w, s in keys if w == workload]
        if not seeds:
            continue
        names = set.intersection(*(set(parent[(workload, s)]["metrics"]) &
                                   set(change[(workload, s)]["metrics"]) for s in seeds))
        for name in sorted(names, key=lambda n: (n not in specs or "bound" not in specs[n], n)):
            pv = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            spec = specs.get(name, {})
            share, v = verdict(pv, cv, spec.get("better", "lower") == "lower", spec.get("bound"))
            fmt = lambda vals: "/".join(f"{x:.4g}" for x in quartiles(vals))
            print(f"{workload:<14} {name:<42} {fmt(pv):>32} {fmt(cv):>32} {share:>5.2f}  {v}")
        bad = [s for s in seeds if not change[(workload, s)].get("correct", False)]
        if bad:
            print(f"{workload:<14} {'correct':<42} change runs incorrect on seeds {bad}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark and store one result set")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    d = sub.add_parser("diff", help="compare two result sets")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    return collect(args) if args.cmd == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
