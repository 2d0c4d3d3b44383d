#!/usr/bin/env python3
"""Paired benchmark runs: the committed harness on two checkouts, alternating.

Usage:
    python3 scripts/pairs.py --parent DIR --change DIR --workload W --pairs N \\
        --seconds S --seed-base K

Pair i runs `python3 perfbench/run.py --workload W --seed K+i --seconds S
--trace 0` once in each checkout, one run at a time; the parent goes first
in even pairs and the change in odd ones.  Each run's last output line is
the harness's JSON result.  For every end-to-end metric the script prints
each side's median and quartiles, the change's wins out of N (ties count
for neither side; the direction comes from the parent's BENCHMARK.json),
and whether the gap between the medians exceeds the parent's interquartile
range.  It also prints every run's correct, attempted and failed.

Exit status: 0 when every run produced a result, 1 when one did not, 2 on a
usage error.  Standard library only; nothing in either checkout is edited
(the harness itself writes under perfbench/out/).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict | None:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def directions(checkout: str) -> dict[str, str]:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def summary(name: str, better: str, parent: list[float], change: list[float]) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (cm - pm)
    verdict = "better" if gap > p3 - p1 else "worse" if -gap > p3 - p1 else "within"
    return (f"{name:12s} ({better} is better)  parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  ratio {cm / pm if pm else float('nan'):.3f}  "
            f"wins {wins}/{len(parent)}  median gap {verdict} parent IQR {p3 - p1:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    parser.add_argument("--change", required=True, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    for src in (args.parent, args.change):
        if not os.path.isfile(os.path.join(src, "perfbench", "run.py")):
            parser.error(f"{src} holds no perfbench/run.py")
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run_once(sides[side], args.workload, seed, args.seconds)
            if result is None:
                print(f"pair {i + 1} seed {seed} {side}: no result")
                return 1
            results[side].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pair(s) of {args.seconds:g} s, seeds {args.seed_base}-"
          f"{args.seed_base + args.pairs - 1}")
    for side, runs in results.items():
        print(f"{side}: correct {sum(bool(r['correct']) for r in runs)}/{len(runs)}, "
              f"attempted {sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)}")
    for name, better in directions(args.parent).items():
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        print(summary(name, better, parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
