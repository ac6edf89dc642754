#!/usr/bin/env python3
"""Steadiness check: repeats one workload with successive seeds and
prints, for each end-to-end metric, the median, the quartiles and the
spread (interquartile range over median) against the metric's bound in
BENCHMARK.json. Before and after every run it prints a host probe, a
pointer chase over 256 KiB and 2 MiB in ns per access, so a run taken
while the host was busy can be told from a slow program.

    python3 e2ebench/steady.py --workload walk_tcp [--runs 10] [--seed 1]

Every run measures BENCHMARK.json's run_seconds, the length the bounds
are set for. Run from the repository root. Exits non-zero if a run is
incorrect or has a failed operation, or if any spread, set-up time
included, exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def last_json(cmd):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def probe():
    p = last_json([sys.executable, RUN, "--probe"])
    return "probe 256KiB {:.2f} ns, 2MiB {:.2f} ns".format(p["chase_256k_ns"], p["chase_2m_ns"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    shares = []
    ok = True
    for i in range(args.runs):
        seed = args.seed + i
        before = probe()
        r = last_json([sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"])
        after = probe()
        shares.append((r["failed"], r["attempted"]))
        if r["failed"] > 0 or not r["correct"]:
            ok = False
        for name in bounds:
            values[name].append(r["metrics"][name]["value"])
        row = " ".join("{}={:.4g}".format(n, r["metrics"][n]["value"]) for n in bounds)
        print("seed {:3d}: correct={} failed={}/{} {}".format(
            seed, r["correct"], r["failed"], r["attempted"], row))
        print("          before: {}; after: {}".format(before, after), flush=True)

    print()
    print("{:18s} {:>11s} {:>11s} {:>11s} {:>8s} {:>6s}".format(
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        verdict = ""
        if spread > bounds[name]:
            verdict, ok = "OVER BOUND", False
        elif spread > bounds[name] / 3:
            verdict = "above a third of bound"
        print("{:18s} {:11.5g} {:11.5g} {:11.5g} {:8.3f} {:6.2f} {}".format(
            name, med, q1, q3, spread, bounds[name], verdict))
    print("failed shares: {}".format(sorted({f / a for f, a in shares})))
    if not ok:
        print("NOT STEADY: a run failed or a spread is over its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
