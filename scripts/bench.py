#!/usr/bin/env python3
"""One BENCH_<n>.json: the committed harness's results for a checkout, in one file.

Usage:
    python3 scripts/bench.py --out BENCH_33.json [--parent DIR]

Runs from the root of the checkout under test and writes --out there.  Every
run uses seed SEED = 1, so BENCH files of different checkouts compare:

- `end_to_end`: for each of the three workloads, one run of
  `python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0`,
  used as a black box: its metrics, correct, attempted, failed and the
  failed share as a fraction;
- `peak_rss_fixed_rounds_mb`: for each in-process workload, the peak
  resident memory of a `scripts/pairs.py` interleave worker that has run
  exactly ROUNDS = 40 rounds; a timed run's peak also depends on how many
  rounds fit in its seconds;
- `src_lines`: `wc -l src/rydant/*.py`, per file and in total;
- `tier1`: the tier-1 suite's passed, failed and error counts and its wall
  time;
- `cores`: os.cpu_count();
- `interleave` (with --parent): for each in-process workload, the round
  ratio change / parent of PAIRS = 400 interleaved pairs of rounds
  (`scripts/pairs.py --interleave`), with its quartiles and the change's
  wins.

Exit status: 0 when every step produced its numbers, 1 otherwise (the file
is then not written), 2 on a usage error.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pairs import IN_PROCESS, Worker, interleaved_rounds, paired_ratio, refusals_of, run_once  # noqa: E402

WORKLOADS = ("eigen-sweep", "spectrum-sweep", "cli")
SECONDS = 20.0  # per harness run
SEED = 1
PAIRS = 400  # interleaved pairs of rounds
ROUNDS = 40  # rounds before the fixed-round peak RSS is read
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class BenchError(RuntimeError):
    """A step that produced no numbers."""


def end_to_end(checkout: str, workload: str) -> dict:
    result = run_once(checkout, workload, SEED, SECONDS)
    if result is None:
        raise BenchError(f"{workload}: the harness gave no result")
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "failed_share": f"{result['failed']}/{result['attempted']}"}


def fixed_round_rss(checkout: str, workload: str) -> float:
    worker = None
    try:
        worker = Worker(checkout, workload, SEED)
        for _ in range(ROUNDS):
            worker.ask("round")
        return worker.ask("rss")["peak_rss_mb"]
    except RuntimeError as exc:
        raise BenchError(f"{workload}: the fixed-round worker failed: {exc}") from exc
    finally:
        if worker is not None:
            worker.close()


def src_lines(checkout: str) -> dict:
    """wc -l src/rydant/*.py: newline count per file, and the total."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "rydant", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.relpath(path, checkout)] = fh.read().count(b"\n")
    return {"files": counts, "total": sum(counts.values())}


def pytest_counts(text: str) -> dict:
    """passed, failed and errors from pytest's summary line."""
    summary = text.strip().splitlines()[-1] if text.strip() else ""
    counts = {("errors" if key.startswith("error") else key): int(n)
              for n, key in re.findall(r"(\d+) (passed|failed|errors?)\b", summary)}
    if not counts:
        raise BenchError(f"tier-1: no pytest summary line in {summary!r}")
    return {key: counts.get(key, 0) for key in ("passed", "failed", "errors")}


def tier1(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: some tests failed; anything else: pytest did not finish
        raise BenchError(f"tier-1: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {**pytest_counts(proc.stdout), "wall_s": round(time.perf_counter() - start, 1)}


def interleave(parent: str, checkout: str, workload: str) -> dict:
    try:
        rounds, checks = interleaved_rounds({"parent": parent, "change": checkout}, workload, PAIRS, SEED)
    except RuntimeError as exc:
        raise BenchError(f"interleave {workload}: {exc}") from exc
    refusals = refusals_of(checks)
    if refusals:
        raise BenchError(f"interleave {workload}: " + "; ".join(refusals))
    ratio = paired_ratio([r["round_s"] for r in rounds["parent"]], [r["round_s"] for r in rounds["change"]])
    return {**ratio, "seed": SEED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--parent", help="checkout to interleave against")
    args = parser.parse_args(argv)
    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
        parser.error("run from the root of a checkout that holds perfbench/run.py")
    if args.parent is not None and not os.path.isfile(os.path.join(args.parent, "perfbench", "run.py")):
        parser.error(f"{args.parent} holds no perfbench/run.py")

    try:
        report = {
            "seed": SEED,
            "seconds": SECONDS,
            "cores": os.cpu_count(),
            "end_to_end": {w: end_to_end(checkout, w) for w in WORKLOADS},
            "peak_rss_fixed_rounds_mb": {w: {"rounds": ROUNDS, "value": fixed_round_rss(checkout, w)}
                                         for w in IN_PROCESS},
            "src_lines": src_lines(checkout),
            "tier1": tier1(checkout),
        }
        if args.parent is not None:
            report["interleave"] = {w: interleave(args.parent, checkout, w) for w in IN_PROCESS}
    except BenchError as exc:
        print(f"no result: {exc}")
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True))
    return 0

if __name__ == "__main__":
    sys.exit(main())
