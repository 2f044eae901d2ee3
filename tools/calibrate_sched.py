#!/usr/bin/env python3
"""Calibrate the interleaved-scheduling timing constants against serial.

The serial roofline (`--sched serial`) is the repo's bit-for-bit
regression anchor; the interleaved default (rr) replays the same kernels through the latency model, whose per-interval
issue rates are set by `lsu_wavefronts_per_cycle_ilv` /
`cuda_issue_efficiency_ilv` in each DeviceSpec. This script measures how
far the two modes' modeled GFLOPS drift apart per kernel, which is the
number those constants are tuned to keep small:

    tools/calibrate_sched.py [--bench-dir build/bench] [--scale 0.0625]
                             [--threads 1] [--max-drift 0.05]

It runs fig6_performance twice — once pinned to serial, once under the
engine defaults — then prints a per-(method, device) geomean
drift table in the markdown layout docs/performance_model.md embeds.
Exit 1 when any kernel drifts beyond --max-drift (default the 5%
acceptance bound).

Recalibration procedure after a cache/scheduler change:
 1. run this script; note which kernels drift and in which direction
    (positive = interleaved faster than serial);
 2. nudge `mem_parallelism_ilv` (higher covers more latency and shrinks
    t_stall), the `_ilv` issue constants (lower issue efficiency slows rr
    runs) or the `*_latency_cycles` (higher latencies surface more exposed
    stalls on low-occupancy launches) in src/gpusim/device_spec.cpp;
 3. rebuild, rerun, repeat until the table is inside the bound;
 4. paste the table into docs/performance_model.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile


def run_fig6(bench_dir, out_dir, scale, threads, env_extra):
    env = dict(os.environ)
    env["SPADEN_BENCH_DIR"] = out_dir
    env["SPADEN_SCALE"] = str(scale)
    env["SPADEN_SIM_THREADS"] = str(threads)
    env.update(env_extra)
    binary = os.path.join(bench_dir, "fig6_performance")
    subprocess.run([binary], check=True, env=env, stdout=subprocess.DEVNULL)
    with open(os.path.join(out_dir, "BENCH_fig6.json")) as f:
        return json.load(f)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", default="build/bench")
    parser.add_argument("--scale", type=float, default=0.0625)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--max-drift", type=float, default=0.05)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = os.path.join(tmp, "serial")
        rr_dir = os.path.join(tmp, "rr")
        os.makedirs(serial_dir)
        os.makedirs(rr_dir)
        print(f"running fig6 (serial) at scale {args.scale}, "
              f"T={args.threads} ...", flush=True)
        serial = run_fig6(args.bench_dir, serial_dir, args.scale, args.threads,
                          {"SPADEN_SIM_SCHED": "serial"})
        print("running fig6 (engine defaults: rr) ...", flush=True)
        rr = run_fig6(args.bench_dir, rr_dir, args.scale, args.threads,
                      {"SPADEN_SIM_SCHED": ""})

    serial_runs = {(r["method"], r["device"], r["matrix"]): r["gflops"]
                   for r in serial["runs"]}
    ratios = {}  # (method, device) -> [rr/serial per matrix]
    for r in rr["runs"]:
        key = (r["method"], r["device"], r["matrix"])
        base = serial_runs.get(key)
        if base and base > 0 and r["gflops"] > 0:
            ratios.setdefault(key[:2], []).append(r["gflops"] / base)

    print()
    print("| method | device | geomean drift | max |matrix drift| |")
    print("|---|---|---|---|")
    worst = 0.0
    for (method, device), rs in sorted(ratios.items()):
        drift = geomean(rs) - 1.0
        max_abs = max(abs(r - 1.0) for r in rs)
        worst = max(worst, abs(drift))
        flag = "  <-- over bound" if abs(drift) > args.max_drift else ""
        print(f"| {method} | {device} | {drift:+.1%} | {max_abs:.1%} |{flag}")
    print()
    print(f"worst per-kernel geomean drift: {worst:.1%} "
          f"(bound {args.max_drift:.0%})")
    sys.exit(0 if worst <= args.max_drift else 1)


if __name__ == "__main__":
    main()
