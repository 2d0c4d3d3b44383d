#!/usr/bin/env python3
"""Benchmark of rydant: dressed-level sweeps, spectrum readout, CLI processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eigen-sweep --seed 1 --seconds 15 --trace 0

Workloads: eigen-sweep, spectrum-sweep, cli (see perfbench/README.md).  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it reports
the per-layer metrics of a traced phase.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Any error of the benchmark itself exits 2 without that line.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, here and in every child: threaded OpenBLAS spread the
# 360-angle cell sweep over 100-189 ms against 96-115 ms with one thread.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("RYDANT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    CELLS,
    LADDER_MHZ,
    MU_MHZ_PER_V_PER_M,
    WALL_INDEX,
    WORKLOADS,
    cli_round,
    eigen_round,
    spectrum_round,
)

MHZ = 2.0 * math.pi * 1e6
SETUP_SAMPLES = 4
TRACED_SETUP_SAMPLES = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "angular.clebsch_gordan.calls": "1/op",
    "angular.decompose_polarization.calls": "1/op",
    "hamiltonian.build_interaction_general.calls": "1/op",
    "hamiltonian.build_interaction_general.ms": "ms/op",
    "hamiltonian.matrices": "1/op",
    "metrology.splitting_from_eigen.ms": "ms/op",
    "metrology.normalized_gain.ms": "ms/op",
    "metrology.field_from_splitting.ms": "ms/op",
    "spectra.scan_spectrum.calls": "1/op",
    "spectra.scan_spectrum.ms": "ms/op",
    "spectra.solves": "1/op",
    "spectra.extract_splitting.ms": "ms/op",
    "spectra.peaks_per_trace": "count",
    "cellfield.transfer_matrix_field.calls": "1/op",
    "cellfield.transfer_matrix_field.ms": "ms/op",
    "cellfield.path_average.ms": "ms/op",
    "patterns.run_sweep.self_ms": "ms/op",
    "patterns.resolved_ratio": "ratio",
    "patterns.repeat_scan_ratio": "ratio",
    "config.load_config.ms": "ms/op",
    "cli.process_ms": "ms",
    "cli.main_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_signal_ms": "ms",
    "cli.bytes_written": "B/op",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a fault of an operation)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_importtime(text: str) -> dict:
    """Cumulative import time in ms per module from `python -X importtime`."""
    cumulative = {}
    for line in text.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line.split("|")
            try:
                cumulative[name.strip()] = int(cum) / 1e3
            except ValueError:
                continue
    return cumulative


def ops_per_s(ops_per_round: int, round_seconds: list[float]) -> float:
    """Operations per second of the median round: robust to bursts of host noise."""
    return ops_per_round / statistics.median(round_seconds)


def tail_ms(latencies: list[float]) -> float:
    """Latency at the highest rank with TAIL_BEYOND samples above it, never below the median."""
    ordered = sorted(latencies)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank <= (len(ordered) - 1) / 2:
        return statistics.median(ordered) * 1e3
    return ordered[rank] * 1e3


def setup_samples(workload: str, count: int, workdir: str, importtime: bool) -> tuple[list[float], list[dict]]:
    """Time fresh interpreters from start to the probe's "ready" line."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), os.path.join(HERE, "probe.py"), workload]
    err_path = os.path.join(workdir, "probe.stderr")
    samples, imports = [], []
    for _ in range(count):
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            try:
                proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            err_text = fh.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err_text.strip()[-400:]}")
        samples.append(elapsed)
        if importtime:
            imports.append(parse_importtime(err_text))
    return samples, imports


# --- in-process workloads ----------------------------------------------------


def build_call(spec: dict):
    """A zero-argument call into the program for one operation."""
    import numpy as np

    from rydant import metrology, patterns, spectra
    from rydant.angular import AngularMomentum
    from rydant.cellfield import CellGeometry
    from rydant.hamiltonian import RfDrive, TransitionSystem

    ladder = spectra.LadderConfig(
        omega_p=LADDER_MHZ["probe_rabi_mhz"] * MHZ,
        omega_c=LADDER_MHZ["coupling_rabi_mhz"] * MHZ,
        omega_rf=spec["rabi_mhz"] * MHZ,
        delta_rf=spec["detuning_mhz"] * MHZ,
        gamma_e=LADDER_MHZ["gamma_e_mhz"] * MHZ,
        gamma_r=LADDER_MHZ["gamma_r_mhz"] * MHZ,
        doppler_sigma=spec.get("doppler_sigma_mhz", 0.0) * MHZ,
    )
    if spec["kind"] == "sweep":
        cell = CELLS[spec["cell"]] if spec["cell"] else None
        plan = patterns.SweepPlan(
            plane=spec["plane"],
            angles=np.radians(spec["angles_deg"]),
            drive=RfDrive(spec["rabi_mhz"] * MHZ, spec["detuning_mhz"] * MHZ),
            system=TransitionSystem(
                AngularMomentum(spec["two_jg"]), AngularMomentum(spec["two_je"]), MU_MHZ_PER_V_PER_M * MHZ
            ),
            readout=spec["readout"],
            cell=CellGeometry(cell["wall_thickness_mm"] * 1e-3, cell["inner_length_mm"] * 1e-3, WALL_INDEX)
            if cell else None,
            cell_frequency=cell["rf_frequency_ghz"] * 1e9 if cell else None,
            noise_sigma_db=spec["noise_sigma_db"],
            seed=spec["seed"],
            ladder=ladder if spec["readout"] == "spectrum" else None,
            scan_points=spec.get("scan_points", 801),
        )
        return lambda: patterns.run_sweep(plan)

    from checks import window_mhz

    low, high = window_mhz(spec["rabi_mhz"], spec["detuning_mhz"])
    window = (low * MHZ, high * MHZ)
    points = spec["points"]
    mu = MU_MHZ_PER_V_PER_M * MHZ

    def measure():
        trace = spectra.scan_spectrum(ladder, window, points)
        try:
            delta_at = spectra.extract_splitting(trace).delta_at
        except spectra.UnresolvedSplittingError:
            return trace, None, None
        return trace, delta_at, metrology.field_from_splitting(delta_at, ladder.delta_rf, mu).amplitude

    return measure


def summarize(spec: dict, out) -> dict:
    import numpy as np

    if spec["kind"] == "sweep":
        return {
            "raw": np.array([s.raw_ratio for s in out.samples]),
            "gain": np.array([s.gain_db for s in out.samples]),
            "gaps": list(out.gap_angles),
            "deviation": out.deviation_db,
        }
    trace, delta_at, field = out
    return {
        "transmission": np.array(trace.transmission),
        "peaks": np.array(trace.peaks),
        "delta_at_mhz": None if delta_at is None else delta_at / MHZ,
        "field": field,
    }


def same(a: dict | None, b: dict | None) -> bool:
    import numpy as np

    if a is None or b is None:
        return a is b
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k] for k in a
    )


class Rounds:
    """Closed loop over whole rounds; one client, one operation at a time."""

    def __init__(self, ops, calls):
        self.ops, self.calls = ops, calls
        self.first: list[dict | None] = [None] * len(ops)
        self.errors: list[str | None] = [None] * len(ops)
        self.bad = [0] * len(ops)  # rounds whose result raised or differed from the warm-up
        self.rounds = 0

    def _one(self, i):
        start = perf_counter()
        try:
            out = self.calls[i]()
        except Exception as exc:  # an operation that raises is counted as failed
            return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, summarize(self.ops[i].spec, out), None

    def warm_up(self):
        for i in range(len(self.ops)):
            _, self.first[i], self.errors[i] = self._one(i)

    def timed(self, seconds: float, on_op=None) -> tuple[list[float], list[float]]:
        """Run whole rounds for `seconds`; returns (operation latencies, round durations)."""
        latencies, round_seconds = [], []
        start = perf_counter()
        while True:
            round_start = perf_counter()
            for i in range(len(self.ops)):
                op_start = perf_counter()
                elapsed, summary, error = self._one(i)
                latencies.append(elapsed)
                if error is not None or not same(summary, self.first[i]):
                    self.bad[i] += 1
                if on_op is not None:
                    on_op(self.ops[i].name, op_start, op_start + elapsed)
            self.rounds += 1
            round_seconds.append(perf_counter() - round_start)
            if perf_counter() - start >= seconds:
                return latencies, round_seconds


def verify_in_process(ops, rounds: Rounds) -> tuple[int, bool]:
    """Check warm-up results against the references; returns (failed, correct)."""
    from checks import check, field_reference, positive_and_perturbed

    failed, correct = 0, True
    for i, op in enumerate(ops):
        spec, summary = op.spec, rounds.first[i]
        expected_trace = field_reference(spec) if spec["kind"] == "field" else None
        problems = [rounds.errors[i]] if summary is None else check(spec, summary, expected_trace)
        if problems:
            failed += rounds.rounds
        else:
            failed += rounds.bad[i]
        if (problems or rounds.bad[i]) and op.known_fault is None:
            correct = False
            log(f"{op.name}: {'; '.join(problems) or 'result changed between rounds'}")
            continue
        if problems:
            log(f"{op.name} fails as known ({op.known_fault}): {problems[0]}")
        if summary is None:
            continue
        good, perturbed = positive_and_perturbed(spec, summary, expected_trace)
        if check(spec, good, expected_trace):
            correct = False
            log(f"{op.name}: the checker refuses the reference result")
        for label, bad in perturbed:
            if not check(spec, bad, expected_trace):
                correct = False
                log(f"{op.name}: the checker accepts a result with {label}")
    return failed, correct


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    sys.path.insert(0, SRC)
    ops = eigen_round(seed) if workload == "eigen-sweep" else spectrum_round(seed)
    calls = [build_call(op.spec) for op in ops]
    rounds = Rounds(ops, calls)
    rounds.warm_up()
    if not trace:
        latencies, round_seconds = rounds.timed(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, correct = verify_in_process(ops, rounds)
        return {
            "correct": correct,
            "attempted": len(latencies),
            "failed": failed,
            "ops_per_s": ops_per_s(len(ops), round_seconds),
            "op_ms_p50": statistics.median(latencies) * 1e3,
            "op_ms_tail": tail_ms(latencies),
            "peak_rss_mb": peak_rss_mb,
        }

    from tracer import Tracer, layer_metrics

    plain, plain_rounds = rounds.timed(seconds / 2.0)
    tracer = Tracer()
    spans = []
    tracer.install()
    try:
        traced, traced_rounds = rounds.timed(seconds / 2.0, lambda name, t0, t1: spans.append((name, t0, t1)))
    finally:
        tracer.uninstall()
    failed, correct = verify_in_process(ops, rounds)
    snapshot = tracer.snapshot()
    with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"spans": [{"op": n, "start_s": a, "end_s": b} for n, a, b in spans], "layers": snapshot}, fh)
    layers = layer_metrics(snapshot, len(traced))
    layers["trace.overhead_ratio"] = 1.0 - ops_per_s(len(ops), traced_rounds) / ops_per_s(len(ops), plain_rounds)
    return {"correct": correct, "attempted": len(plain) + len(traced), "failed": failed, "layers": layers}


# --- CLI workload ------------------------------------------------------------


def run_process(cmd: list[str], out_path: str, err_path: str) -> tuple[int, float, int]:
    """Run one child to its end; returns (exit code, seconds, peak RSS in KB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def run_cli(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from checks import CLI_CHECKS, cli_controls

    ops = cli_round(seed, os.path.join(workdir, "inputs"))
    first: dict[str, tuple] = {}
    first_bytes: dict[str, tuple] = {}
    bad = {op.name: 0 for op in ops}
    latencies, rss_kb, stats = [], 0, []
    round_seconds = {False: [], True: []}  # summed process wall time per round, by traced
    written = []

    def one_round(k: int, traced: bool) -> None:
        nonlocal rss_kb
        rdir = os.path.join(workdir, f"round-{k}")
        os.makedirs(rdir)
        round_seconds[traced].append(0.0)
        for op in ops:
            argv = [a.replace("{round}", rdir) for a in op.spec["argv"]]
            if traced:
                stats_path = os.path.join(rdir, f"{op.name}.stats.json")
                cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_traced.py"), stats_path, *argv]
            else:
                cmd = [sys.executable, "-m", "rydant.cli", *argv]
            out_path = os.path.join(rdir, f"{op.name}.stdout")
            err_path = os.path.join(rdir, f"{op.name}.stderr")
            code, elapsed, peak = run_process(cmd, out_path, err_path)
            round_seconds[traced][-1] += elapsed
            blobs = {}
            for name in op.files:
                path = os.path.join(rdir, name)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        blobs[name] = fh.read()
            if traced:
                stats.append(dict(json.loads(_read(stats_path)), imports=parse_importtime(_read(err_path))))
            else:
                latencies.append(elapsed)
                rss_kb = max(rss_kb, peak)
                written.append(sum(len(b) for b in blobs.values()))
            if op.name not in first:
                first[op.name] = (code, _read(out_path), _read(err_path),
                                  {n: b.decode("utf-8", "replace") for n, b in blobs.items()})
                first_bytes[op.name] = (code, blobs)
            elif first_bytes[op.name] != (code, blobs):
                bad[op.name] += 1

    start = perf_counter()
    k = 0
    while True:
        one_round(k, False)
        k += 1
        if perf_counter() - start >= (seconds / 2.0 if trace else seconds):
            break

    if trace:
        traced_start = perf_counter()
        while True:
            one_round(k, True)
            k += 1
            if perf_counter() - traced_start >= seconds / 2.0:
                break

    def problems_of(spec, result):
        try:
            return CLI_CHECKS[spec["kind"]](spec, *result)
        except (KeyError, IndexError, ValueError) as exc:  # missing or malformed artifacts
            return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]

    failed, correct = 0, True
    for op in ops:
        problems = problems_of(op.spec, first[op.name])
        failed += k if problems else bad[op.name]
        if (problems or bad[op.name]) and op.known_fault is None:
            correct = False
            log(f"{op.name}: {'; '.join(problems) or 'artifacts changed between rounds'}")
            continue
        if problems:
            log(f"{op.name} fails as known ({op.known_fault}): {problems[0]}")
        good, perturbed = cli_controls(op.spec, first[op.name])
        if problems_of(op.spec, good):
            correct = False
            log(f"{op.name}: the checker refuses a right result")
        for label, result in perturbed:
            if not problems_of(op.spec, result):
                correct = False
                log(f"{op.name}: the checker accepts a result {label}")

    result = {"correct": correct, "attempted": k * len(ops), "failed": failed}
    if not trace:
        result.update(
            ops_per_s=ops_per_s(len(ops), round_seconds[False]),
            op_ms_p50=statistics.median(latencies) * 1e3,
            op_ms_tail=tail_ms(latencies),
            peak_rss_mb=rss_kb / 1024.0,
        )
        return result

    from tracer import layer_metrics, merge

    layers = layer_metrics(merge(stats), len(stats))
    layers.update({
        "cli.process_ms": statistics.median(latencies) * 1e3,
        "cli.main_ms": statistics.median(s["main_s"] for s in stats) * 1e3,
        "cli.import_ms": statistics.median(s["imports"].get("rydant.cli", 0.0) for s in stats),
        "cli.import_scipy_signal_ms": statistics.median(s["imports"].get("scipy.signal", 0.0) for s in stats),
        "cli.bytes_written": statistics.fmean(written),
        "trace.overhead_ratio": 1.0 - ops_per_s(len(ops), round_seconds[True]) / ops_per_s(len(ops), round_seconds[False]),
    })
    result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        if not os.path.isfile(os.path.join(SRC, "rydant", "__init__.py")):
            raise BenchError(f"program sources not found under {SRC}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be > 0")
        workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)

        samples, imports = setup_samples(
            args.workload, TRACED_SETUP_SAMPLES if trace else SETUP_SAMPLES, workdir, importtime=trace
        )
        if args.workload == "cli":
            result = run_cli(args.seed, args.seconds, trace, workdir)
        else:
            result = run_in_process(args.workload, args.seed, args.seconds, trace, workdir)
    except BenchError as exc:
        log(f"benchmark error: {exc}")
        return 2

    if trace:
        layers = result.pop("layers")
        if args.workload != "cli":
            layers.update({
                "cli.process_ms": 0.0,
                "cli.main_ms": 0.0,
                "cli.import_ms": statistics.median(i.get("rydant", 0.0) for i in imports),
                "cli.import_scipy_signal_ms": statistics.median(i.get("scipy.signal", 0.0) for i in imports),
                "cli.bytes_written": 0.0,
            })
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        result["setup_s"] = statistics.median(samples)
        metrics = {name: {"value": result.pop(name), "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
