#!/usr/bin/env python3
"""Paired benchmark runs: the committed harness on two checkouts, alternating.

Usage:
    python3 scripts/pairs.py --parent DIR --change DIR --workload W --pairs N \\
        --seconds S --seed-base K
    python3 scripts/pairs.py --interleave --parent DIR --change DIR \\
        --workload {eigen-sweep,spectrum-sweep} --pairs N --seed-base K

Pair i runs `python3 perfbench/run.py --workload W --seed K+i --seconds S
--trace 0` once in each checkout, one run at a time; the parent goes first
in even pairs and the change in odd ones.  Each run's last output line is
the harness's JSON result.  For every end-to-end metric the script prints
each side's median and quartiles, the change's wins out of N (ties count
for neither side; the direction comes from the parent's BENCHMARK.json),
and whether the gap between the medians exceeds the parent's interquartile
range.  It also prints every run's correct, attempted and failed.

Host drift: the host's speed can move by tens of percent between runs,
enough to cross a benchmark bound with no change in the code.  Before and
after each run the script times a fixed pure-Python loop in its own
process (the best of CALIBRATION_REPEATS), prints both timings on the
run's line, and finally counts the pairs whose median of their four
timings lies more than DRIFT_LIMIT from the median of all the batch's
timings: the host changed mode around them, so their comparison may
reflect the host, not the code.  The loop's own jitter between two
timings of one pair moves no pair's median that far.

Refusals: a run that reports correct: false, or a change whose failed
share (failed / attempted over all its runs) exceeds the parent's,
disqualifies the change whatever its timings.  The script prints each
side's failed share and a REFUSED line for each such finding.

Interleaved rounds (--interleave, in-process workloads only): one
long-lived worker per checkout imports that checkout's perfbench/run.py
(with -B, so no bytecode is written), builds the round of seed K and warms
it up once; then each of the N pairs runs one round, Rounds.timed(0.0), in
each worker, the parent first in even pairs and the change in odd ones.
Paired rounds a few milliseconds apart see the same host speed, so the
script prints, for the round time and for the round's median operation
time, each side's median and quartiles, the median and quartiles of the
per-pair change / parent ratios, and the change's wins; then the same for
each operation class both rounds hold, from its time in the round, so a
gain can be traced to the classes whose code changed.  The workers then
check their results as the harness does (verify_in_process) and the same
refusals apply.

Exit status: 0 when every run produced a result and nothing was refused, 1
when a run gave no result or a REFUSED line was printed, 2 on a usage
error.  Standard library only; nothing in either checkout is edited (the
harness itself writes under perfbench/out/).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

CALIBRATION_LOOP = 200_000
CALIBRATION_REPEATS = 3
DRIFT_LIMIT = 0.10  # largest accepted |pair median / batch median - 1| of the calibration timings
IN_PROCESS = ("eigen-sweep", "spectrum-sweep")

# One interleave worker: argv is checkout, workload, seed.  It answers each
# "round" line on stdin with one JSON line, and "verify" with the checks.
WORKER = """
import json, os, statistics, sys
checkout, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, os.path.join(checkout, "perfbench"))
import run
sys.path.insert(0, run.SRC)
ops = (run.eigen_round if workload == "eigen-sweep" else run.spectrum_round)(seed)
rounds = run.Rounds(ops, [run.build_call(op.spec) for op in ops])
rounds.warm_up()
print("ready", flush=True)
for line in sys.stdin:
    if line.strip() == "round":
        latencies, round_seconds = rounds.timed(0.0)
        out = {"round_s": round_seconds[0], "op_ms_p50": statistics.median(latencies) * 1e3,
               "op_ms": {op.name: seconds * 1e3 for op, seconds in zip(ops, latencies)}}
    else:
        failed, correct = run.verify_in_process(ops, rounds)
        out = {"correct": correct, "attempted": rounds.rounds * len(ops), "failed": failed}
    print(json.dumps(out), flush=True)
"""


def calibrate() -> float:
    """Milliseconds for a fixed standard-library loop, the best of CALIBRATION_REPEATS."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def drifted_pairs(calibrations: list[list[float]]) -> int:
    """The pairs whose median calibration lies more than DRIFT_LIMIT from the whole batch's median."""
    batch = statistics.median(t for timings in calibrations for t in timings)
    return sum(abs(statistics.median(timings) / batch - 1.0) > DRIFT_LIMIT for timings in calibrations)


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


class Worker:
    """A checkout's round of one seed, built once in its own process and run on command."""

    def __init__(self, checkout: str, workload: str, seed: int):
        self.checkout = checkout
        self.proc = subprocess.Popen([sys.executable, "-B", "-c", WORKER, os.path.abspath(checkout), workload,
                                      str(seed)], cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"{checkout}: the worker did not start (exit {self.proc.wait()})")

    def ask(self, command: str) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:  # the worker has ended; readline returns ""
            pass
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.checkout}: the worker ended (exit {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        self.proc.wait()


def paired(name: str, parent: list[float], change: list[float], width: int = 9) -> str:
    """Lower is better: each side's median and quartiles, the per-pair ratios' and the change's wins."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    r1, rm, r3 = quartiles([c / p for p, c in zip(parent, change)])
    wins = sum(c < p for p, c in zip(parent, change))
    return (f"{name:{width}s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"paired ratio {rm:.3f} [{r1:.3f}, {r3:.3f}]  wins {wins}/{len(parent)}")


def refusals_of(results: dict) -> list[str]:
    """Print each side's correct, attempted and failed; return the refusals they give."""
    refusals, shares = [], {}
    for side, runs in results.items():
        attempted, failed = sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)
        shares[side] = Fraction(failed, attempted) if attempted else Fraction(0)
        correct = sum(bool(r["correct"]) for r in runs)
        print(f"{side}: correct {correct}/{len(runs)}, attempted {attempted}, failed {failed}, "
              f"failed share {float(shares[side]):.4g}")
        if correct < len(runs):
            refusals.append(f"{len(runs) - correct} {side} run(s) report correct: false")
    if shares["change"] > shares["parent"]:
        refusals.append(f"the change's failed share {float(shares['change']):.4g} exceeds "
                        f"the parent's {float(shares['parent']):.4g}")
    return refusals


def interleave(sides: dict, workload: str, pairs: int, seed: int) -> int:
    workers = {}
    try:
        for side, checkout in sides.items():
            workers[side] = Worker(checkout, workload, seed)
        rounds = {side: [] for side in sides}
        for i in range(pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                rounds[side].append(workers[side].ask("round"))
        checks = {side: [worker.ask("verify")] for side, worker in workers.items()}
    except RuntimeError as exc:
        print(f"no result: {exc}")
        return 1
    finally:
        for worker in workers.values():
            worker.close()
    print(f"{workload}: {pairs} interleaved pair(s) of rounds, seed {seed}")
    refusals = refusals_of(checks)
    for name in ("round_s", "op_ms_p50"):
        print(paired(name, [r[name] for r in rounds["parent"]], [r[name] for r in rounds["change"]]))
    classes = [name for name in rounds["parent"][0]["op_ms"] if name in rounds["change"][0]["op_ms"]]
    print("per operation class, ms per round:")
    width = max(map(len, classes), default=0)
    for name in classes:
        print("  " + paired(name, [r["op_ms"][name] for r in rounds["parent"]],
                            [r["op_ms"][name] for r in rounds["change"]], width))
    for refusal in refusals:
        print(f"REFUSED: {refusal}")
    return 1 if refusals else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    parser.add_argument("--change", required=True, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="length of each run (not with --interleave)")
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--interleave", action="store_true",
                        help="paired single rounds in one long-lived worker per checkout")
    args = parser.parse_args(argv)
    for src in (args.parent, args.change):
        if not os.path.isfile(os.path.join(src, "perfbench", "run.py")):
            parser.error(f"{src} holds no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sides = {"parent": args.parent, "change": args.change}
    if args.interleave:
        if args.workload not in IN_PROCESS:
            parser.error(f"--interleave runs {' and '.join(IN_PROCESS)} only, not {args.workload}")
        if args.seconds is not None:
            parser.error("--interleave runs single rounds and takes no --seconds")
        return interleave(sides, args.workload, args.pairs, args.seed_base)
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be given and > 0")
    results = {"parent": [], "change": []}
    calibrations = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        timings = []
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            before = calibrate()
            result = run_once(sides[side], args.workload, seed, args.seconds)
            after = calibrate()
            timings += [before, after]
            if result is None:
                print(f"pair {i + 1} seed {seed} {side}: no result")
                return 1
            results[side].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values} calibration_ms={before:.3g}->{after:.3g}", flush=True)
        calibrations.append(timings)

    print(f"\n{args.workload}: {args.pairs} pair(s) of {args.seconds:g} s, seeds {args.seed_base}-"
          f"{args.seed_base + args.pairs - 1}")
    refusals = refusals_of(results)
    print(f"host drift: the median calibration of {drifted_pairs(calibrations)} of {args.pairs} pair(s) lies "
          f"more than {DRIFT_LIMIT:.0%} from the batch's")
    for name, better in directions(args.parent).items():
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        print(summary(name, better, parent, change))
    for refusal in refusals:
        print(f"REFUSED: {refusal}")
    return 1 if refusals else 0


if __name__ == "__main__":
    sys.exit(main())
