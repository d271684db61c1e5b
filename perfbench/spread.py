#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread (IQR / median) against its bound.

Run from the repository root:

    python3 perfbench/spread.py --workloads fusion_cold,ingest_steady --seeds 1-10

The command, run length and bounds come from BENCHMARK.json.  A spread
below a third of the bound is marked `steady`; above the bound, `WIDE`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    seconds = args.seconds or bench["run_seconds"]
    runs = {}
    failed = False
    for w in workloads:
        runs[w] = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}{p.stderr}")
                failed = True
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                failed = True
            runs[w].append(result)
            vals = " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            )
            print(f"{w} seed {seed} ({time.time() - t0:.1f}s): {vals}", flush=True)

    print()
    for w in workloads:
        if len(runs[w]) < 2:
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "steady" if spread < m["bound"] / 3 else (
                "ok" if spread <= m["bound"] else "WIDE")
            print(
                f"{w:16} {m['name']:16} median {med:12.6g} {m['unit']:5} "
                f"spread {spread:7.4f} bound {m['bound']:.2f} {mark}"
            )
    if args.json:
        json.dump(runs, open(args.json, "w"), indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
