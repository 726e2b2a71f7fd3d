#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload in two interleaved sets of runs (set A and set B, with
distinct seeds, alternating which set goes first), then prints for each
end-to-end metric each set's median and quartiles and whether the two sets
agree within the metric's bound:

* the quartile spread (q3 - q1) / median of each set stays within the
  bound;
* the two sets' medians differ by no more than the bound, in either
  direction, as a share of set A's median;
* every run reports the same share of failed operations.

It also prints the spread of all 2N runs pooled. With --once it instead
runs each workload once and prints every end-to-end metric by name and
unit with the run's attempted and failed counts.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs N]
    python3 perfbench/steady.py --once

Every run lasts BENCHMARK.json's run_seconds. Set A uses seeds 1..N and
set B seeds 1001..1000+N; --once uses seed 1.

Exits 0 when every workload agrees (or, with --once, passes its checks),
1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    p.add_argument("--once", action="store_true", help="one run per workload, no comparison")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # Build once up front; an unknown workload exits non-zero after building.
    subprocess.run(bench["command"] + ["--workload", "-", "--seed", "0", "--seconds", "1",
                                       "--trace", "0"], cwd=ROOT, capture_output=True)

    if args.once:
        ok = True
        for n in names:
            r = run_once(bench, n, 1)
            ok &= r["correct"]
            print(f"{n}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
            for k, v in r["metrics"].items():
                print(f"  {k:<14} {v['value']:>14.6g} {v['unit']}")
        return 0 if ok else 1

    results = {n: {"A": [], "B": []} for n in names}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for s in order:
            seed = 1 + i + (0 if s == "A" else 1000)
            for n in names:
                r = run_once(bench, n, seed)
                if not r["correct"]:
                    raise SystemExit(f"{n} seed {seed}: correctness checks failed")
                results[n][s].append(r)
                print(f"run {i + 1}/{args.runs} set {s} {n} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)

    ok = True
    for n in names:
        print(f"\n{n}")
        shares = {Fraction(r["failed"], r["attempted"]) for s in "AB" for r in results[n][s]}
        share_ok = len(shares) == 1
        ok &= share_ok
        print(f"  failed share: {', '.join(str(x) for x in sorted(shares))} "
              f"({'same in every run' if share_ok else 'DIFFERS'})")
        print(f"  {'metric':<14} {'set':<3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7}  "
              f"{'bound':>5}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s in "AB":
                stats[s] = summary([r["metrics"][name]["value"] for r in results[n][s]])
            a, b = stats["A"][1], stats["B"][1]
            apart = abs(b - a) / a
            spread_ok = all(stats[s][3] <= bound for s in "AB")
            agree = spread_ok and apart <= bound
            ok &= agree
            for s in "AB":
                q1, q2, q3, spread = stats[s]
                verdict = ""
                if s == "B":
                    verdict = f"B vs A {(b - a) / a:+.1%}: {'agree' if agree else 'DISAGREE'}"
                print(f"  {name:<14} {s:<3} {q1:12.6g} {q2:12.6g} {q3:12.6g} {spread:7.1%}  "
                      f"{bound:5.2f}  {verdict}")
            q1, q2, q3, spread = summary([r["metrics"][name]["value"]
                                          for s in "AB" for r in results[n][s]])
            print(f"  {name:<14} {'all':<3} {q1:12.6g} {q2:12.6g} {q3:12.6g} {spread:7.1%}  "
                  f"{bound:5.2f}  {'within a third of the bound' if spread <= bound / 3 else ''}")
    print("\nall workloads agree" if ok else "\nsets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
