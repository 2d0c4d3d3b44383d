"""Workload definitions: one round of operations per workload, made from a seed.

Every run repeats whole rounds of the same operations, so the share of
failed operations is the same in every run.  The seed chooses the physics
(drive, detuning, plane, grid offset, noise) and never the amount of work:
each operation class has a fixed angle count and scan length.  Operation
classes whose inputs do not depend on the seed carry the name of the known
fault that makes them fail (``known_fault``).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("eigen-sweep", "spectrum-sweep", "cli")

# Program inputs mirror the level-scheme presets the program documents.
CELLS = {
    "thz-33s": {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6},
    "mw-93s": {"wall_thickness_mm": 2.0, "inner_length_mm": 80.0, "rf_frequency_ghz": 4.8},
}
WALL_INDEX = complex(2.1, 0.02)

# Weak-probe ladder (MHz) used by every spectrum operation.
LADDER_MHZ = {"probe_rabi_mhz": 0.1, "coupling_rabi_mhz": 1.0, "gamma_e_mhz": 5.2, "gamma_r_mhz": 0.1}

# Coupling strength: 1 MHz per V/m, so the field in V/m reads as the drive in MHz.
MU_MHZ_PER_V_PER_M = 1.0

FAULT_DOPPLER = "doppler-quadrature"
FAULT_ANGLE_RANGE = "unbounded-angle-range"


@dataclass
class Op:
    name: str
    spec: dict
    known_fault: str | None = None
    files: list[str] = field(default_factory=list)  # CLI artifacts, relative to the round directory


def _grid(rng: random.Random, count: int) -> list[float]:
    """count angles over a full turn, offset off the grid so XY never grazes."""
    step = 360.0 / count
    offset = (0.1 + 0.8 * rng.random()) * step
    return [offset + step * k for k in range(count)]


def _drive(rng: random.Random, low: float, high: float) -> tuple[float, float]:
    rabi = rng.uniform(low, high)
    return rabi, rng.choice((0.0, 0.5, -0.5)) * rabi


def _sweep(rng, plane, count, two_j, cell=None, noise=0.0, rabi=(2.0, 50.0)):
    r, d = _drive(rng, *rabi)
    return {
        "kind": "sweep",
        "readout": "eigen",
        "plane": plane,
        "angles_deg": _grid(rng, count),
        "two_jg": two_j[0],
        "two_je": two_j[1],
        "rabi_mhz": r,
        "detuning_mhz": d,
        "cell": cell,
        "noise_sigma_db": noise,
        "seed": rng.randrange(2**31),
    }


def eigen_round(seed: int) -> list[Op]:
    rng = random.Random(f"eigen-sweep/{seed}")
    vertical = lambda: rng.choice(("XZ", "YZ"))  # noqa: E731
    half, three = (1, 3), (3, 5)
    # Sizes put five of the nine classes at 50-60 ms, so the median falls
    # inside a dense cluster instead of in a gap between two classes.
    return [
        Op("xy-j12-72", _sweep(rng, "XY", 72, half)),
        Op("vert-j12-72", _sweep(rng, vertical(), 72, half)),
        Op("vert-j32-180", _sweep(rng, vertical(), 180, three)),
        Op("xy-j32-360", _sweep(rng, "XY", 360, three)),
        Op("xy-thz-j12-360", _sweep(rng, "XY", 360, half, cell="thz-33s")),
        Op("vert-mw-j12-216", _sweep(rng, vertical(), 216, half, cell="mw-93s")),
        Op("xy-mw-j32-180", _sweep(rng, "XY", 180, three, cell="mw-93s")),
        Op("xy-noise-j12-360", _sweep(rng, "XY", 360, half, noise=rng.uniform(0.2, 1.0))),
        Op("vert-noise-j32-300", _sweep(rng, vertical(), 300, three, noise=rng.uniform(0.2, 1.0))),
    ]


def _field(rabi, detuning, points, sigma=0.0):
    return {
        "kind": "field",
        "rabi_mhz": rabi,
        "detuning_mhz": detuning,
        "points": points,
        "doppler_sigma_mhz": sigma,
    }


def _spectrum_sweep(rng, plane, angles_deg, points, cell=None, rabi=(5.0, 40.0)):
    r, d = _drive(rng, *rabi)
    return {
        "kind": "sweep",
        "readout": "spectrum",
        "plane": plane,
        "angles_deg": angles_deg,
        "two_jg": 1,
        "two_je": 3,
        "rabi_mhz": r,
        "detuning_mhz": d,
        "cell": cell,
        "noise_sigma_db": 0.0,
        "seed": rng.randrange(2**31),
        "scan_points": points,
    }


def _xy_cell_angles(rng, count):
    # Incidence up to 55 deg keeps the thz-33s cell factor above 0.41, so the
    # effective drive stays in the regime where the splitting is resolved.
    angles = []
    for _ in range(count):
        incidence = rng.uniform(2.0, 55.0)
        angles.append(rng.choice((incidence, 180.0 - incidence, 180.0 + incidence, 360.0 - incidence)))
    return angles


def spectrum_round(seed: int) -> list[Op]:
    # Drive ranges keep the scan step small enough that the splitting lands
    # within half a step of sqrt(detuning^2 + rabi^2): coarser scans of the
    # same drives miss by more (up to 0.54 step at 101 points).
    rng = random.Random(f"spectrum-sweep/{seed}")
    plane = lambda: rng.choice(("XY", "XZ", "YZ"))  # noqa: E731
    vertical = lambda: rng.choice(("XZ", "YZ"))  # noqa: E731
    return [
        Op("field-301", _field(*_drive(rng, 2.0, 8.0), 301)),
        Op("field-2001", _field(*_drive(rng, 2.0, 50.0), 2001)),
        Op("sweep-shared-10x401", _spectrum_sweep(rng, plane(), _grid(rng, 10), 401, rabi=(2.0, 20.0))),
        Op("sweep-shared-mw-6x801", _spectrum_sweep(rng, vertical(), _grid(rng, 6), 801, cell="mw-93s")),
        Op("sweep-xy-thz-6x801", _spectrum_sweep(rng, "XY", _xy_cell_angles(rng, 6), 801, cell="thz-33s", rabi=(12.0, 40.0))),
        # Fixed inputs: the 11-node Gauss-Hermite average fails these on every seed.
        Op("field-doppler-1mhz-401", _field(20.0, 0.0, 401, sigma=1.0), FAULT_DOPPLER),
        Op("field-doppler-5mhz-401", _field(20.0, 0.0, 401, sigma=5.0), FAULT_DOPPLER),
    ]


def _config(system=(1, 3), drive=(10.0, 0.0), sweep=None, cell=None, directory="out", basename="run"):
    payload = {
        "schema_version": 1,
        "seed": 0,
        "system": {"two_jg": system[0], "two_je": system[1], "mu_mhz_per_v_per_m": MU_MHZ_PER_V_PER_M},
        "drive": {"rabi_mhz": drive[0], "detuning_mhz": drive[1]},
        "output": {"directory": directory, "basename": basename},
    }
    if cell is not None:
        payload["cell"] = dict(CELLS[cell], wall_index_re=WALL_INDEX.real, wall_index_im=WALL_INDEX.imag)
    if sweep is not None:
        payload["sweep"] = sweep
    return payload


def _pattern_document(rng, count) -> dict:
    """A gain_pattern document the benchmark writes itself for `compare`."""
    step = 360.0 / count
    ratios = [0.2 + rng.random() for _ in range(count)]
    top = max(ratios)
    gains = [min(20.0 * math.log10(r / top), 0.0) for r in ratios]
    return {
        "schema_version": 1,
        "kind": "gain_pattern",
        "plane": "XY",
        "readout": "eigen",
        "seed": 0,
        "cell_enabled": False,
        "noise_sigma_db": 0.0,
        "deviation_db": max(gains) - min(gains),
        "gap_angles_deg": [],
        "samples": [
            {"angle_deg": step * k, "raw_ratio": r, "gain_db": g}
            for k, (r, g) in enumerate(zip(ratios, gains))
        ],
    }


def cli_round(seed: int, inputs_dir: str) -> list[Op]:
    """The six CLI invocations of a round; writes their input files.

    argv entries "{round}" are replaced with the round's output directory.
    """
    rng = random.Random(f"cli/{seed}")
    os.makedirs(inputs_dir, exist_ok=True)

    def write(name, payload):
        path = os.path.join(inputs_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        return path

    rabi, detuning = _drive(rng, 2.0, 50.0)
    chi, theta = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
    phi = rng.choice((0.0, rng.uniform(0.1, 2.0 * math.pi - 0.1)))
    eigen = Op(
        "eigen",
        {"kind": "eigen", "rabi_mhz": rabi, "detuning_mhz": detuning, "chi": chi, "theta": theta, "phi": phi,
         "argv": ["eigen", "--rabi-mhz", repr(rabi), "--detuning-mhz", repr(detuning), "--chi", repr(chi),
                  "--theta", repr(theta), "--phi", repr(phi), "--csv", "{round}/eigen.csv"]},
        files=["eigen.csv"],
    )

    cell = rng.choice(tuple(CELLS))
    step = 1.0
    offset = (0.1 + 0.8 * rng.random()) * step
    rabi, detuning = _drive(rng, 2.0, 50.0)
    sweep_cfg = write("sweep.json", _config(
        drive=(rabi, detuning), cell=cell,
        sweep={"plane": "XY", "angles_deg": f"{offset!r}:{step!r}:360", "readout": "eigen", "use_cell": True},
    ))
    sweep = Op(
        "sweep-cell",
        {"kind": "sweep", "rabi_mhz": rabi, "detuning_mhz": detuning, "cell": cell,
         "angles_deg": [offset + step * k for k in range(math.ceil((360.0 - offset) / step - 1e-12))],
         "sample": sorted(rng.sample(range(359), 8)),
         "argv": ["sweep", "--config", sweep_cfg, "--out-dir", "{round}", "--basename", "iso"]},
        files=["iso_pattern.csv", "iso_pattern.json", "iso_polar.csv"],
    )

    preset = rng.choice(tuple(CELLS))
    rabi, detuning = _drive(rng, 5.0, 50.0)
    spectrum = Op(
        "spectrum-preset",
        {"kind": "spectrum", "rabi_mhz": rabi, "detuning_mhz": detuning,
         "argv": ["spectrum", "--preset", preset, "--rabi-mhz", repr(rabi), "--detuning-mhz", repr(detuning),
                  "--out-dir", "{round}", "--basename", "scan"]},
        files=["scan_trace.csv", "scan_spectrum.json"],
    )

    preset = rng.choice(tuple(CELLS))
    start, step = rng.uniform(0.0, 5.0), rng.uniform(6.0, 12.0)
    polarization = rng.choice(("TE", "TM"))
    cellfield = Op(
        "cellfield-angles",
        {"kind": "cellfield", "cell": preset, "polarization": polarization,
         "angles_deg": [start + step * k for k in range(math.ceil((85.0 - start) / step - 1e-12))],
         "argv": ["cellfield", "--preset", preset, "--angles", f"{start!r}:{step!r}:85",
                  "--polarization", polarization, "--out-dir", "{round}", "--basename", "cell"]},
        files=["cell_cellsweep.csv", "cell_cellfield.json"],
    )

    pattern_a = _pattern_document(rng, 72)
    pattern_b = _pattern_document(rng, 36)
    compare = Op(
        "compare",
        {"kind": "compare", "deviation_a": pattern_a["deviation_db"], "deviation_b": pattern_b["deviation_db"],
         "argv": ["compare", write("pattern_a.json", pattern_a), write("pattern_b.json", pattern_b),
                  "--json", "{round}/compare.json"]},
        files=["compare.json"],
    )

    # Fixed input: an unbounded range must be refused at the config boundary.
    bad_cfg = write("unbounded.json", _config(
        sweep={"plane": "XZ", "angles_deg": "0:1:inf", "readout": "eigen"},
    ))
    unbounded = Op(
        "sweep-unbounded-range",
        {"kind": "refused", "key": "angles_deg",
         "argv": ["sweep", "--config", bad_cfg, "--out-dir", "{round}", "--basename", "bad"]},
        FAULT_ANGLE_RANGE,
    )
    return [eigen, sweep, spectrum, cellfield, compare, unbounded]
