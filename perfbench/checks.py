"""Checks of the program's outputs against the references in reference.py.

Every checker returns a list of problems (empty when the output is right).
``positive_and_perturbed`` pairs each checker with a result it must accept
and perturbed results it must refuse, so every run shows that the checks
can fail.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

import reference as ref
from workloads import CELLS, LADDER_MHZ, WALL_INDEX

# Dressed-level splittings from LAPACK agree with the closed form to ~1e-15.
TOL_EIGEN_REL = 1e-9
# Cell factors: the program's trapezoid rule (>= 32 samples per wavelength,
# >= 513 samples) is within 3e-5 of the converged average on both presets.
TOL_CELL_REL = 2e-4
# Normalized transmission traces: stationary solves agree to ~1e-10.
TOL_TRACE = 1e-6
# Gains are 20 log10 of ratios the same document reports.
TOL_GAIN_DB = 1e-9
# Values the CLI prints with 9 significant digits.
TOL_PRINTED_REL = 2e-8
# False-alarm probability of the noise-spread test for one sweep.
NOISE_FALSE_ALARM = 1e-9


def incidence_deg(plane: str, angle_deg: float) -> float:
    """Stack incidence of a sweep angle: XY folds into [0, 90], XZ/YZ are side-on."""
    if plane != "XY":
        return 0.0
    folded = angle_deg % 180.0
    return folded if folded <= 90.0 else 180.0 - folded


@lru_cache(maxsize=None)
def _cell_factors(cell: str, polarization: str, incidences: tuple[float, ...]) -> tuple[float, ...]:
    c = CELLS[cell]
    values = ref.cell_factors(
        c["wall_thickness_mm"] * 1e-3, c["inner_length_mm"] * 1e-3, WALL_INDEX,
        c["rf_frequency_ghz"] * 1e9, np.radians(incidences), polarization,
    )
    return tuple(float(v) for v in values)


def cell_factors(cell, polarization, incidences) -> np.ndarray:
    return np.array(_cell_factors(cell, polarization, tuple(float(i) for i in incidences)))


def ladder(rabi_mhz, detuning_mhz, sigma_mhz=0.0) -> dict:
    """Reference ladder parameters in MHz (the model is homogeneous in frequency)."""
    return {
        "omega_p": LADDER_MHZ["probe_rabi_mhz"],
        "omega_c": LADDER_MHZ["coupling_rabi_mhz"],
        "omega_rf": rabi_mhz,
        "delta_p": 0.0,
        "delta_rf": detuning_mhz,
        "gamma_e": LADDER_MHZ["gamma_e_mhz"],
        "gamma_r": LADDER_MHZ["gamma_r_mhz"],
        "doppler_sigma": sigma_mhz,
    }


def window_mhz(rabi_mhz, detuning_mhz) -> tuple[float, float]:
    return ref.scan_window(rabi_mhz, detuning_mhz, LADDER_MHZ["gamma_e_mhz"])


def sample_indices(spec: dict, count: int = 8) -> list[int]:
    n = len(spec["angles_deg"])
    rng = np.random.default_rng(spec["seed"])
    return sorted(int(i) for i in rng.choice(n, size=min(count, n), replace=False))


def _gain_problems(raw, gains, deviation) -> list[str]:
    raw = np.asarray(raw, dtype=float)
    expected = 20.0 * np.log10(raw / raw.max())
    problems = []
    if np.abs(np.asarray(gains) - expected).max() > TOL_GAIN_DB:
        problems.append("gains are not 20 log10(ratio / max ratio)")
    if abs(deviation - (max(gains) - min(gains))) > TOL_GAIN_DB:
        problems.append("deviation is not max - min gain")
    return problems


def _renormalized(summary: dict, raw) -> dict:
    raw = np.asarray(raw, dtype=float)
    gains = 20.0 * np.log10(raw / raw.max())
    return dict(summary, raw=raw, gain=gains, deviation=float(gains.max() - gains.min()))


# --- in-process sweeps -------------------------------------------------------


def _effective_rabi(spec: dict, indices) -> np.ndarray:
    if spec["cell"] is None:
        return np.full(len(indices), spec["rabi_mhz"])
    inc = [incidence_deg(spec["plane"], spec["angles_deg"][i]) for i in indices]
    return spec["rabi_mhz"] * cell_factors(spec["cell"], "TE", inc)


def _splittings_mhz(spec: dict, summary: dict) -> np.ndarray:
    # ratio = splitting / field and field = rabi / mu = rabi_mhz V/m.
    return np.asarray(summary["raw"], dtype=float) * spec["rabi_mhz"] / ref.MHZ


def check_sweep(spec: dict, summary: dict) -> list[str]:
    n = len(spec["angles_deg"])
    if summary["gaps"]:
        return [f"{len(summary['gaps'])} of {n} angles unresolved"]
    if len(summary["raw"]) != n:
        return [f"{len(summary['raw'])} samples for {n} angles"]
    problems = _gain_problems(summary["raw"], summary["gain"], summary["deviation"])
    splits = _splittings_mhz(spec, summary)
    jg, je, detuning = spec["two_jg"], spec["two_je"], spec["detuning_mhz"]

    if spec["readout"] == "spectrum":
        rabi = _effective_rabi(spec, range(n))
        for i in range(n):
            expected = math.hypot(detuning, rabi[i])
            low, high = window_mhz(rabi[i], detuning)
            step = (high - low) / (spec["scan_points"] - 1)
            if abs(splits[i] - expected) > 0.5 * step:
                problems.append(
                    f"angle {spec['angles_deg'][i]:.3f}: splitting off by "
                    f"{abs(splits[i] - expected) / step:.2f} scan steps"
                )
        return problems

    if spec["noise_sigma_db"] > 0.0:
        from scipy.stats import chi2, norm

        jitter = 20.0 * np.log10(splits / ref.dressed_splitting(jg, je, spec["rabi_mhz"], detuning))
        sigma = spec["noise_sigma_db"]
        ratio = jitter.var(ddof=1) / sigma**2
        low = chi2.ppf(0.5 * NOISE_FALSE_ALARM, n - 1) / (n - 1)
        high = chi2.isf(0.5 * NOISE_FALSE_ALARM, n - 1) / (n - 1)
        if not low <= ratio <= high:
            problems.append(f"jitter variance / sigma^2 = {ratio:.3f} outside [{low:.3f}, {high:.3f}]")
        if abs(jitter.mean()) > norm.isf(0.5 * NOISE_FALSE_ALARM) * sigma / math.sqrt(n):
            problems.append(f"jitter mean {jitter.mean():.4f} dB is not centred")
        return problems

    indices = sample_indices(spec) if spec["cell"] else list(range(n))
    rabi = _effective_rabi(spec, indices)
    tol = TOL_CELL_REL if spec["cell"] else TOL_EIGEN_REL
    for k, i in enumerate(indices):
        expected = ref.dressed_splitting(jg, je, rabi[k], detuning)
        if abs(splits[i] / expected - 1.0) > tol:
            problems.append(f"angle {spec['angles_deg'][i]:.3f}: splitting off by {splits[i] / expected - 1.0:.2e}")
    if spec["cell"] is None and summary["deviation"] > TOL_EIGEN_REL:
        problems.append(f"isotropic deviation {summary['deviation']:.3e} dB")
    return problems


def _sweep_controls(spec: dict, summary: dict):
    raw = np.array(summary["raw"], dtype=float)
    if spec["readout"] == "spectrum":
        i = 0
        rabi = _effective_rabi(spec, [i])[0]
        low, high = window_mhz(rabi, spec["detuning_mhz"])
        step = (high - low) / (spec["scan_points"] - 1)
        raw[i] += step * ref.MHZ / spec["rabi_mhz"]
        return [("splitting one scan step long", _renormalized(summary, raw))]
    if spec["noise_sigma_db"] > 0.0:
        base = ref.dressed_splitting(spec["two_jg"], spec["two_je"], spec["rabi_mhz"], spec["detuning_mhz"])
        jitter_db = 20.0 * np.log10(_splittings_mhz(spec, summary) / base)
        doubled = base * 10.0 ** (2.0 * jitter_db / 20.0) * ref.MHZ / spec["rabi_mhz"]
        return [("jitter doubled", _renormalized(summary, doubled))]
    i = sample_indices(spec)[0] if spec["cell"] else 0
    raw[i] *= 1.0 + 1e-3
    return [("splitting scaled by 1 + 1e-3", _renormalized(summary, raw))]


# --- field measurements: scan -> splitting -> field --------------------------


def field_reference(spec: dict) -> np.ndarray:
    low, high = window_mhz(spec["rabi_mhz"], spec["detuning_mhz"])
    cfg = ladder(spec["rabi_mhz"], spec["detuning_mhz"], spec["doppler_sigma_mhz"])
    return ref.scan_transmission(cfg, low, high, spec["points"])


def _splitting_problems(delta_mhz, field, rabi_mhz, detuning_mhz, step_mhz, mu_mhz=1.0) -> list[str]:
    if delta_mhz is None:
        return ["splitting unresolved"]
    expected = math.hypot(detuning_mhz, rabi_mhz)
    problems = []
    if abs(delta_mhz - expected) > 0.5 * step_mhz:
        problems.append(f"splitting off by {abs(delta_mhz - expected) / step_mhz:.2f} scan steps")
    low = math.sqrt(max((expected - 0.5 * step_mhz) ** 2 - detuning_mhz**2, 0.0)) / mu_mhz
    high = math.sqrt((expected + 0.5 * step_mhz) ** 2 - detuning_mhz**2) / mu_mhz
    if not low * (1 - TOL_PRINTED_REL) <= field <= high * (1 + TOL_PRINTED_REL):
        problems.append(f"field {field:.6g} V/m outside [{low:.6g}, {high:.6g}] for a half-step splitting")
    return problems


def check_field(spec: dict, summary: dict, expected_trace=None) -> list[str]:
    if expected_trace is None:
        expected_trace = field_reference(spec)
    trace = np.asarray(summary["transmission"], dtype=float)
    if trace.shape != expected_trace.shape:
        return [f"trace has {trace.size} points, expected {expected_trace.size}"]
    gap = float(np.abs(trace - expected_trace).max())
    problems = []
    if gap > TOL_TRACE:
        problems.append(f"normalized trace off by up to {gap:.3g}")
    if spec["doppler_sigma_mhz"] == 0.0:
        low, high = window_mhz(spec["rabi_mhz"], spec["detuning_mhz"])
        step = (high - low) / (spec["points"] - 1)
        problems += _splitting_problems(
            summary["delta_at_mhz"], summary["field"], spec["rabi_mhz"], spec["detuning_mhz"], step
        )
    return problems


def _field_controls(spec: dict, summary: dict, expected_trace):
    if spec["doppler_sigma_mhz"] > 0.0:
        stationary = ref.scan_transmission(
            ladder(spec["rabi_mhz"], spec["detuning_mhz"]), *window_mhz(spec["rabi_mhz"], spec["detuning_mhz"]), spec["points"]
        )
        good = dict(summary, transmission=expected_trace)
        return good, [("stationary trace in place of the Doppler average", dict(summary, transmission=stationary))]
    low, high = window_mhz(spec["rabi_mhz"], spec["detuning_mhz"])
    step = (high - low) / (spec["points"] - 1)
    controls = [("trace shifted by one sample", dict(summary, transmission=np.roll(summary["transmission"], 1)))]
    if summary["delta_at_mhz"] is not None:
        longer = summary["delta_at_mhz"] + step
        field = math.sqrt(longer**2 - spec["detuning_mhz"] ** 2)
        controls.append(("splitting and field one scan step long", dict(summary, delta_at_mhz=longer, field=field)))
    return summary, controls


def positive_and_perturbed(spec: dict, summary: dict, expected_trace=None):
    """(result the checker must accept, [(label, result it must refuse)])."""
    if spec["kind"] == "sweep":
        return summary, _sweep_controls(spec, summary)
    return _field_controls(spec, summary, expected_trace)


def check(spec: dict, summary: dict, expected_trace=None) -> list[str]:
    if spec["kind"] == "sweep":
        return check_sweep(spec, summary)
    return check_field(spec, summary, expected_trace)


# --- CLI artifacts -----------------------------------------------------------


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a, b, rel=TOL_PRINTED_REL, scale=1.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def cli_eigen(spec, code, stdout, stderr, files) -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-200:]}"]
    header, rows = _csv(files["eigen.csv"])
    if header != ["index", "closed_form_mhz", "numeric_mhz"]:
        return [f"unexpected CSV header {header}"]
    expected = ref.dressed_levels(1, 3, spec["rabi_mhz"], spec["detuning_mhz"], spec["chi"], spec["theta"], spec["phi"])
    scale = float(np.abs(expected).max())
    problems = []
    if len(rows) != expected.size:
        return [f"{len(rows)} eigenvalues, expected {expected.size}"]
    for col, label in ((1, "closed-form"), (2, "numeric")):
        got = np.array([float(r[col]) for r in rows])
        if not all(_close(g, e, scale=scale) for g, e in zip(got, expected)):
            problems.append(f"{label} eigenvalues differ from the reference")
    if spec["phi"] == 0.0:
        line = [ln for ln in stdout.splitlines() if ln.startswith("delta_at_mhz = ")]
        want = ref.dressed_splitting(1, 3, spec["rabi_mhz"], spec["detuning_mhz"])
        if not line or not _close(float(line[0].split("=")[1]), want, scale=scale):
            problems.append("delta_at_mhz line missing or off")
    return problems


def cli_sweep(spec, code, stdout, stderr, files) -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-200:]}"]
    doc = json.loads(files["iso_pattern.json"])
    samples = doc["samples"]
    if len(samples) != len(spec["angles_deg"]) or doc["gap_angles_deg"]:
        return [f"{len(samples)} samples and {len(doc['gap_angles_deg'])} gaps for {len(spec['angles_deg'])} angles"]
    raw = [s["raw_ratio"] for s in samples]
    gains = [s["gain_db"] for s in samples]
    problems = _gain_problems(raw, gains, doc["deviation_db"])
    _, rows = _csv(files["iso_pattern.csv"])
    if any(not _close(float(r[2]), g, scale=1e-6) for r, g in zip(rows, gains)) or len(rows) != len(gains):
        problems.append("pattern CSV disagrees with the JSON gains")
    _, rows = _csv(files["iso_polar.csv"])
    if any(not _close(float(r[1]), 10.0 ** (g / 20.0)) for r, g in zip(rows, gains)) or len(rows) != len(gains):
        problems.append("polar CSV radius is not 10^(gain / 20)")
    indices = spec["sample"]
    inc = [incidence_deg("XY", spec["angles_deg"][i]) for i in indices]
    rabi = spec["rabi_mhz"] * cell_factors(spec["cell"], "TE", inc)
    for k, i in enumerate(indices):
        expected = ref.dressed_splitting(1, 3, rabi[k], spec["detuning_mhz"])
        got = raw[i] * spec["rabi_mhz"] / ref.MHZ
        if abs(got / expected - 1.0) > TOL_CELL_REL:
            problems.append(f"angle {spec['angles_deg'][i]:.3f}: splitting off by {got / expected - 1.0:.2e}")
    return problems


def cli_spectrum(spec, code, stdout, stderr, files) -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-200:]}"]
    doc = json.loads(files["scan_spectrum.json"])
    step = (doc["scan_max_mhz"] - doc["scan_min_mhz"]) / (doc["scan_points"] - 1)
    problems = _splitting_problems(
        doc.get("delta_at_mhz"), doc.get("field_v_per_m"), spec["rabi_mhz"], spec["detuning_mhz"], step,
        doc["mu_mhz_per_v_per_m"],
    )
    _, rows = _csv(files["scan_trace.csv"])
    trace = np.array([float(r[1]) for r in rows])
    cfg = ladder(spec["rabi_mhz"], spec["detuning_mhz"])
    expected = ref.scan_transmission(cfg, doc["scan_min_mhz"], doc["scan_max_mhz"], doc["scan_points"])
    if trace.shape != expected.shape or np.abs(trace - expected).max() > TOL_TRACE:
        problems.append("trace CSV differs from the reference trace")
    return problems


def cli_cellfield(spec, code, stdout, stderr, files) -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-200:]}"]
    doc = json.loads(files["cell_cellfield.json"])
    _, rows = _csv(files["cell_cellsweep.csv"])
    if len(rows) != len(spec["angles_deg"]):
        return [f"{len(rows)} rows for {len(spec['angles_deg'])} angles"]
    averages = np.array([float(r[1]) for r in rows])
    gains = [float(r[2]) for r in rows]
    expected = cell_factors(spec["cell"], spec["polarization"], spec["angles_deg"])
    problems = []
    if np.abs(averages / expected - 1.0).max() > TOL_CELL_REL:
        problems.append(f"path averages off by up to {np.abs(averages / expected - 1.0).max():.2e}")
    want = 20.0 * np.log10(averages / averages.max())
    if np.abs(np.array(gains) - want).max() > 1e-7:
        problems.append("sweep CSV gains are not 20 log10(avg / max avg)")
    if abs(doc["deviation_db"] - (max(gains) - min(gains))) > 1e-7:
        problems.append("deviation_db is not max - min gain")
    return problems


def cli_compare(spec, code, stdout, stderr, files) -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-200:]}"]
    doc = json.loads(files["compare.json"])
    want = spec["deviation_b"] - spec["deviation_a"]
    if abs(doc["improvement_db"] - want) > TOL_GAIN_DB:
        return [f"improvement_db {doc['improvement_db']} != {want}"]
    return []


def cli_refused(spec, code, stdout, stderr, files) -> list[str]:
    problems = []
    if code != 2:
        problems.append(f"exit {code}, expected 2")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if spec["key"] not in stderr:
        problems.append(f"message does not name {spec['key']!r}")
    return problems


CLI_CHECKS = {
    "eigen": cli_eigen,
    "sweep": cli_sweep,
    "spectrum": cli_spectrum,
    "cellfield": cli_cellfield,
    "compare": cli_compare,
    "refused": cli_refused,
}


def cli_controls(spec: dict, result: tuple):
    """(accepted result, [(label, refused result)]) for one CLI check."""
    code, stdout, stderr, files = result
    kind = spec["kind"]
    if kind == "refused":
        good = (2, "", f"config error: sweep.{spec['key']}: stop must be finite\n", {})
        bad = (1, "", "Traceback (most recent call last):\nOverflowError: cannot convert float infinity to integer\n", {})
        return good, [("traceback instead of exit 2", bad)]
    files = dict(files)
    if kind == "eigen":
        header, *rows = files["eigen.csv"].strip("\n").split("\n")
        cells = rows[-1].split(",")
        cells[2] = repr(float(cells[2]) * (1.0 + 1e-3))
        rows[-1] = ",".join(cells)
        bad = dict(files, **{"eigen.csv": "\n".join([header, *rows]) + "\n"})
    elif kind == "sweep":
        doc = json.loads(files["iso_pattern.json"])
        raw = [s["raw_ratio"] for s in doc["samples"]]
        raw[spec["sample"][0]] *= 1.0 + 1e-3
        top = max(raw)
        for s, r in zip(doc["samples"], raw):
            s["raw_ratio"], s["gain_db"] = r, 20.0 * math.log10(r / top)
        gains = [s["gain_db"] for s in doc["samples"]]
        doc["deviation_db"] = max(gains) - min(gains)
        pattern_csv = "plane,angle_deg,gain_db\n" + "".join(
            f"XY,{s['angle_deg']!r},{s['gain_db']!r}\n" for s in doc["samples"]
        )
        polar_csv = "angle_deg,radius\n" + "".join(
            f"{s['angle_deg']!r},{10.0 ** (s['gain_db'] / 20.0)!r}\n" for s in doc["samples"]
        )
        bad = dict(files, **{"iso_pattern.json": json.dumps(doc), "iso_pattern.csv": pattern_csv, "iso_polar.csv": polar_csv})
    elif kind == "spectrum":
        doc = json.loads(files["scan_spectrum.json"])
        step = (doc["scan_max_mhz"] - doc["scan_min_mhz"]) / (doc["scan_points"] - 1)
        doc["delta_at_mhz"] += step
        doc["field_v_per_m"] = math.sqrt(doc["delta_at_mhz"] ** 2 - doc["rf_detuning_mhz"] ** 2) / doc["mu_mhz_per_v_per_m"]
        bad = dict(files, **{"scan_spectrum.json": json.dumps(doc)})
    elif kind == "cellfield":
        header, *rows = files["cell_cellsweep.csv"].strip("\n").split("\n")
        averages = [float(r.split(",")[1]) * (1.0 + (1e-3 if k == 0 else 0.0)) for k, r in enumerate(rows)]
        gains = [20.0 * math.log10(a / max(averages)) for a in averages]
        rows = [f"{r.split(',')[0]},{a!r},{g!r}" for r, a, g in zip(rows, averages, gains)]
        doc = json.loads(files["cell_cellfield.json"])
        doc["deviation_db"] = max(gains) - min(gains)
        bad = dict(files, **{"cell_cellsweep.csv": "\n".join([header, *rows]) + "\n", "cell_cellfield.json": json.dumps(doc)})
    else:  # compare
        doc = json.loads(files["compare.json"])
        doc["improvement_db"] += 1e-3
        bad = dict(files, **{"compare.json": json.dumps(doc)})
    return result, [("perturbed by 1e-3", (code, stdout, stderr, bad))]
