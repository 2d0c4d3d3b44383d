"""Traced mode: wrappers around the program's public functions.

A wrapper replaces a function in every rydant module that holds a reference
to it, because callers look functions up in their own module namespace
(``rydant.patterns.scan_spectrum`` is bound when patterns is imported).
Wrappers keep counts and times in memory; nothing is written until the run
ends.  A layer's self time is its busy time minus the busy time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

# Functions whose calls are only counted: cheap, called per matrix element.
COUNTED = ("clebsch_gordan", "decompose_polarization")
TIMED = (
    "build_interaction_general",
    "eigen_hermitian",
    "splitting_from_eigen",
    "normalized_gain",
    "field_from_splitting",
    "scan_spectrum",
    "extract_splitting",
    "transfer_matrix_field",
    "path_average",
    "run_sweep",
    "load_config",
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()  # seconds
        self.self_time = Counter()  # seconds
        self.counts = Counter()  # derived work counts, see _observe
        self._stack: list[list] = []  # [label, seconds spent in wrapped children, per-sweep scan keys]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for module in [m for name, m in sorted(sys.modules.items()) if name == "rydant" or name.startswith("rydant.")]:
            for attr in COUNTED + TIMED:
                fn = getattr(module, attr, None)
                if not callable(fn) or not getattr(fn, "__module__", "").startswith("rydant"):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, attr in COUNTED)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, count_only: bool):
        label = f"{fn.__module__.removeprefix('rydant.')}.{fn.__name__}"
        calls = self.calls
        if count_only:
            def counted(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)

            return counted

        try:
            defaults = {k: p.default for k, p in inspect.signature(fn).parameters.items()}
        except (TypeError, ValueError):
            defaults = {}

        def timed(*args, **kwargs):
            frame = [label, 0.0, set()]
            self._stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                calls[label] += 1
                self.busy[label] += elapsed
                self.self_time[label] += elapsed - frame[1]
                self._observe(fn.__name__, args, kwargs, defaults, result)

        return timed

    def _observe(self, name, args, kwargs, defaults, result) -> None:
        """Work counts computed from arguments and results."""
        counts = self.counts
        if name == "run_sweep":
            plan = args[0] if args else kwargs["plan"]
            counts["sweep_angles"] += len(plan.angles)
            if result is not None:
                counts["sweep_resolved"] += len(result.samples)
            if plan.readout == "eigen":
                counts["matrices"] += len(plan.angles)
        elif name == "eigen_hermitian":
            counts["matrices"] += 1
        elif name == "scan_spectrum":
            bound = dict(zip(("cfg", "scan", "points", "doppler_nodes"), args), **kwargs)
            cfg, points = bound["cfg"], int(bound["points"])
            nodes = bound.get("doppler_nodes", defaults.get("doppler_nodes", 1))
            nodes = nodes if cfg.doppler_sigma > 0 and isinstance(nodes, int) else 1
            counts["solves"] += points * nodes
            counts["scans"] += 1
            if result is not None:
                counts["peaks"] += len(result.peaks)
            sweep = next((f for f in reversed(self._stack) if f[0] == "patterns.run_sweep"), None)
            if sweep is not None:
                key = (cfg, tuple(float(v) for v in bound["scan"]), points, nodes)
                if key in sweep[2]:
                    counts["repeat_scans"] += 1
                sweep[2].add(key)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }


def merge(snapshots) -> dict:
    total = {"calls": Counter(), "busy_s": Counter(), "self_s": Counter(), "counts": Counter()}
    for snap in snapshots:
        for key in total:
            total[key].update(snap.get(key, {}))
    return total


def layer_metrics(snap: dict, ops: int) -> dict:
    """Per-layer metrics from a (merged) snapshot over `ops` operations."""
    calls, busy, self_s, counts = (Counter(snap[k]) for k in ("calls", "busy_s", "self_s", "counts"))
    per_op = lambda v: v / ops  # noqa: E731
    ms = lambda label: per_op(busy[label] * 1e3)  # noqa: E731
    return {
        "angular.clebsch_gordan.calls": per_op(calls["angular.clebsch_gordan"]),
        "angular.decompose_polarization.calls": per_op(calls["angular.decompose_polarization"]),
        "hamiltonian.build_interaction_general.calls": per_op(calls["hamiltonian.build_interaction_general"]),
        "hamiltonian.build_interaction_general.ms": ms("hamiltonian.build_interaction_general"),
        "hamiltonian.matrices": per_op(counts["matrices"]),
        "metrology.splitting_from_eigen.ms": ms("metrology.splitting_from_eigen"),
        "metrology.normalized_gain.ms": ms("metrology.normalized_gain"),
        "metrology.field_from_splitting.ms": ms("metrology.field_from_splitting"),
        "spectra.scan_spectrum.calls": per_op(calls["spectra.scan_spectrum"]),
        "spectra.scan_spectrum.ms": ms("spectra.scan_spectrum"),
        "spectra.solves": per_op(counts["solves"]),
        "spectra.extract_splitting.ms": ms("spectra.extract_splitting"),
        "spectra.peaks_per_trace": counts["peaks"] / counts["scans"] if counts["scans"] else 0.0,
        "cellfield.transfer_matrix_field.calls": per_op(calls["cellfield.transfer_matrix_field"]),
        "cellfield.transfer_matrix_field.ms": ms("cellfield.transfer_matrix_field"),
        "cellfield.path_average.ms": ms("cellfield.path_average"),
        "patterns.run_sweep.self_ms": per_op(self_s["patterns.run_sweep"] * 1e3),
        "patterns.resolved_ratio": (
            counts["sweep_resolved"] / counts["sweep_angles"] if counts["sweep_angles"] else 0.0
        ),
        "patterns.repeat_scan_ratio": counts["repeat_scans"] / counts["scans"] if counts["scans"] else 0.0,
        "config.load_config.ms": ms("config.load_config"),
    }
