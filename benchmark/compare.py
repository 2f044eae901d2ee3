#!/usr/bin/env python3
"""Compare two sets of spaden-e2e result files.

    python3 benchmark/compare.py BASE_DIR CHANGE_DIR

Each directory holds the *.json result files that benchmark/run.py writes
to .bench_out/ (one per run). For every workload and end-to-end metric of
BENCHMARK.json it prints both sides' median and quartiles and a verdict:

  better     the change wins >= 9/10 of the pairs (ties count for neither)
             and the medians differ by more than the base's own quartile
             spread;
  worse      the change's median is worse than the base's by more than the
             metric's bound, and the change loses >= 9/10 of the pairs or the
             base spread is within the bound;
  unresolved the base's quartile spread is wider than the bound and neither
             of the above holds, or the move exceeds the bound without a
             consistent loser;
  unchanged  otherwise.

Runs pair by seed where both sides ran it, otherwise in file order. From
traced runs (--trace 1) it lists, per workload, the eight per-layer metrics
whose medians moved most.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{(workload, trace): [result, ...]} sorted by seed, then file name."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".chrome.json"):
            continue
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "spaden-e2e-v1":
            continue
        cfg = doc["config"]
        runs.setdefault((cfg["workload"], bool(cfg["trace"])), []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["config"]["seed"])
    return runs


def values(docs, name):
    return [d["metrics"][name]["value"] for d in docs if name in d["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]


def pairs(base, change, name):
    """Value pairs: runs of one seed pair in file order; no common seed, all in file order."""
    def by_seed(docs):
        groups = {}
        for d in docs:
            groups.setdefault(d["config"]["seed"], []).append(d)
        return groups
    a, b = by_seed(base), by_seed(change)
    matched = [p for seed in sorted(set(a) & set(b)) for p in zip(a[seed], b[seed])]
    if not matched:
        matched = list(zip(base, change))
    return [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in matched
            if name in a["metrics"] and name in b["metrics"]]


def verdict(metric, base_vals, change_vals, value_pairs):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    q1, med_a, q3 = quartiles(base_vals)
    _, med_b, _ = quartiles(change_vals)
    if med_a == 0:
        return "unresolved"
    gain = sign * (med_b - med_a) / abs(med_a)  # > 0: the change is better
    spread = (q3 - q1) / abs(med_a)
    n = len(value_pairs)
    wins = sum(1 for a, b in value_pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in value_pairs if sign * (b - a) < 0)
    if n and wins >= 0.9 * n and abs(med_b - med_a) > (q3 - q1):
        return "better"
    if gain < -metric["bound"]:
        return "worse" if (n and losses >= 0.9 * n) or spread <= metric["bound"] else "unresolved"
    if spread > metric["bound"]:
        all_better = all(sign * (b - a) > 0 for a in base_vals for b in change_vals)
        return "better" if all_better else "unresolved"
    return "unchanged"


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, change = load(args.base), load(args.change)
    if not base or not change:
        sys.exit("compare.py: no spaden-e2e result files in %s" %
                 (args.base if not base else args.change))

    print("%-13s %-15s %-37s %-37s %s" % ("workload", "metric", "base q1/median/q3",
                                         "change q1/median/q3", "verdict"))
    for w in bench["workloads"]:
        key = (w["name"], False)
        if key not in base or key not in change:
            print("%-13s (no untraced runs on both sides)" % w["name"])
            continue
        for m in bench["end_to_end"]:
            a, b = values(base[key], m["name"]), values(change[key], m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            print("%-13s %-15s %-37s %-37s %s" % (
                w["name"], m["name"], "/".join(fmt(v) for v in qa), "/".join(fmt(v) for v in qb),
                verdict(m, a, b, pairs(base[key], change[key], m["name"]))))

    for w in bench["workloads"]:
        key = (w["name"], True)
        if key not in base or key not in change:
            continue
        moved = []
        for m in bench["per_layer"]:
            a, b = values(base[key], m["name"]), values(change[key], m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            rel = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
            moved.append((abs(rel), m["name"], ma, mb, rel))
        moved.sort(reverse=True)
        print("\n%s: layer metrics that moved most (median base -> change)" % w["name"])
        for _, name, ma, mb, rel in moved[:8]:
            print("  %-36s %-12s -> %-12s %+.2f%%" % (name, fmt(ma), fmt(mb), 100 * rel))


if __name__ == "__main__":
    main()
