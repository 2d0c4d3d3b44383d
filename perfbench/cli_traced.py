"""Traced CLI process: `rydant` with the tracer's wrappers installed.

Usage: python3 -X importtime perfbench/cli_traced.py <stats.json> <rydant args...>

Runs rydant.cli.main in-process, then writes the tracer's snapshot and the
time spent in main to <stats.json>, also when main raises.
"""

import json
import sys
from time import perf_counter

import rydant.cli
from tracer import Tracer


def run(stats_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    start = perf_counter()
    try:
        return rydant.cli.main(argv)
    finally:
        main_s = perf_counter() - start
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.snapshot(), main_s=main_s), fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
