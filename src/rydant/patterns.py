"""Angle-resolved gain patterns: plane sweeps, dipole reference, comparison.

Plane conventions (phi = 0 throughout; the sweep angle is "angle"):

    XY: chi = pi/2, theta = angle   (polarization rotating in the XY plane)
    XZ: chi = angle, theta = 0      (rotating in the XZ plane)
    YZ: chi = angle, theta = pi/2   (rotating in the YZ plane)

Cell modulation applies only to XY sweeps, where moving the source around
the cell changes the incidence angle on the 1-D stack; the angle is folded
into [0, pi/2].  For XZ/YZ the polarization rotates while the propagation
direction stays fixed, so the stack sees normal incidence throughout.

Sweeps are deterministic: the noise stream is seeded per angle index.
The cell factors are computed once per distinct incidence angle.  The eigen
readout builds one stacked Hamiltonian per sweep (hamiltonian_stack), takes
its eigenvalues in one batched call and reads every splitting in one pass
(splittings_from_eigen).  The spectrum readout scans once per distinct cell
factor, since the ladder does not depend on the orientation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .angular import Orientation
from .cellfield import CellGeometry, path_averages
from .hamiltonian import RfDrive, TransitionSystem, hamiltonian_stack
from .metrology import GainSample, isotropic_deviation, normalized_gain, splittings_from_eigen
from .spectra import (
    MAX_SCAN_POINTS,
    LadderConfig,
    UnresolvedSplittingError,
    default_ladder,
    extract_splitting,
    scan_spectrum,
    scan_window,
)

PLANES = ("XY", "XZ", "YZ")
READOUTS = ("eigen", "spectrum")

# Relative pattern floor for the analytic dipole (-60 dB).
DIPOLE_FLOOR_RATIO = 1e-3

# Largest readout-noise sigma.  A jitter of J dB scales a ratio by
# 10 ** (J / 20), which leaves the float range past about 6000 dB, 60 sigma
# at this cap: no normal draw gets there.
MAX_NOISE_SIGMA_DB = 100.0

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SweepPlan:
    """One pattern measurement: plane, angle grid, readout and its knobs.

    system must be a J -> J + 1 transition (two_je = two_jg + 2): for any
    other pair the eigen readout cannot identify its degenerate pair and the
    orientation-blind spectrum readout would report a flat pattern.
    The injected field amplitude is drive.rabi / system.mu and is held
    fixed over the sweep; the cell (when present, with cell_frequency in
    Hz) rescales the field each angle.  noise_sigma_db adds multiplicative
    Gaussian jitter to each extracted splitting; seed makes it reproducible.
    """

    plane: str
    angles: np.ndarray
    drive: RfDrive
    system: TransitionSystem
    readout: str = "eigen"
    cell: CellGeometry | None = None
    cell_frequency: float | None = None
    noise_sigma_db: float = 0.0
    seed: int = 0
    ladder: LadderConfig | None = None
    scan_points: int = 801

    def __post_init__(self):
        if self.plane not in PLANES:
            raise ValueError(f"plane must be one of {PLANES}, got {self.plane!r}")
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}, got {self.readout!r}")
        arr = np.array(self.angles, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("angles must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("angles must be finite")
        arr = arr % TWO_PI
        arr.flags.writeable = False
        object.__setattr__(self, "angles", arr)
        if self.drive.rabi <= 0:
            raise ValueError(f"sweep drive needs rabi > 0, got {self.drive.rabi}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        two_jg, two_je = self.system.jg.two_j, self.system.je.two_j
        if two_je != two_jg + 2:
            raise ValueError(
                "system must be a J -> J + 1 transition (two_je = two_jg + 2), "
                f"got two_jg = {two_jg}, two_je = {two_je}"
            )
        if self.cell is not None:
            if self.cell_frequency is None or self.cell_frequency <= 0:
                raise ValueError("cell modulation requires cell_frequency > 0 (Hz)")
        if not 0.0 <= self.noise_sigma_db <= MAX_NOISE_SIGMA_DB:
            raise ValueError(
                f"noise_sigma_db must be in [0, {MAX_NOISE_SIGMA_DB}], got {self.noise_sigma_db}"
            )
        if not 3 <= self.scan_points <= MAX_SCAN_POINTS:
            raise ValueError(f"scan_points must be in [3, {MAX_SCAN_POINTS}], got {self.scan_points}")


@dataclass(frozen=True)
class GainPattern:
    """A normalized pattern plus the metadata needed to reproduce it."""

    plane: str
    samples: tuple[GainSample, ...]
    deviation_db: float
    readout: str
    seed: int | None = None
    cell_enabled: bool = False
    noise_sigma_db: float = 0.0
    gap_angles: tuple[float, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "gain_pattern",
            "plane": self.plane,
            "readout": self.readout,
            "seed": self.seed,
            "cell_enabled": self.cell_enabled,
            "noise_sigma_db": self.noise_sigma_db,
            "deviation_db": self.deviation_db,
            "gap_angles_deg": [math.degrees(a) for a in self.gap_angles],
            "samples": [
                {
                    "angle_deg": math.degrees(s.angle),
                    "raw_ratio": s.raw_ratio,
                    "gain_db": s.gain_db,
                }
                for s in self.samples
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GainPattern":
        if payload.get("kind") != "gain_pattern":
            raise ValueError("not a gain_pattern document")
        if payload.get("schema_version") != 1:
            raise ValueError(f"unsupported schema_version {payload.get('schema_version')!r}")
        samples = tuple(
            GainSample(math.radians(s["angle_deg"]), s["raw_ratio"], s["gain_db"])
            for s in payload["samples"]
        )
        return cls(
            plane=payload["plane"],
            samples=samples,
            deviation_db=payload["deviation_db"],
            readout=payload["readout"],
            seed=payload.get("seed"),
            cell_enabled=payload.get("cell_enabled", False),
            noise_sigma_db=payload.get("noise_sigma_db", 0.0),
            gap_angles=tuple(math.radians(a) for a in payload.get("gap_angles_deg", [])),
        )


def plane_to_orientation(plane: str, angle: float) -> Orientation:
    """Map a sweep angle in a principal plane onto (chi, theta, phi = 0)."""
    if plane == "XY":
        return Orientation(chi=math.pi / 2, theta=angle, phi=0.0)
    if plane == "XZ":
        return Orientation(chi=angle, theta=0.0, phi=0.0)
    if plane == "YZ":
        return Orientation(chi=angle, theta=math.pi / 2, phi=0.0)
    raise ValueError(f"plane must be one of {PLANES}, got {plane!r}")


def incidence_angle(plane: str, angle: float) -> float:
    """Stack incidence for a sweep angle: folded for XY, normal otherwise."""
    if plane != "XY":
        return 0.0
    folded = angle % math.pi
    return folded if folded <= math.pi / 2 else math.pi - folded


def _cell_factors(plan: SweepPlan) -> list[float]:
    if plan.cell is None:
        return [1.0] * len(plan.angles)
    incidences = [incidence_angle(plan.plane, angle) for angle in plan.angles]
    return path_averages(plan.cell, plan.cell_frequency, incidences)


def _eigen_delta_ats(plan: SweepPlan, factors: Sequence[float]) -> list[float]:
    orientations = [plane_to_orientation(plan.plane, float(angle)) for angle in plan.angles]
    rabis = plan.drive.rabi * np.asarray(factors, dtype=float)
    stack = hamiltonian_stack(plan.system, rabis, orientations, plan.drive.detuning)
    return splittings_from_eigen(np.linalg.eigvalsh(stack), plan.drive.detuning).tolist()


def _spectrum_delta_at(plan: SweepPlan, omega_eff: float) -> float | None:
    base = plan.ladder if plan.ladder is not None else default_ladder(omega_eff, plan.drive.detuning)
    cfg = replace(base, omega_rf=omega_eff, delta_rf=plan.drive.detuning)
    trace = scan_spectrum(cfg, scan_window(cfg), plan.scan_points)
    try:
        return extract_splitting(trace).delta_at
    except UnresolvedSplittingError:
        return None


def run_sweep(plan: SweepPlan) -> GainPattern:
    """Execute a plane sweep and return the normalized pattern.

    Spectrum-readout angles whose peaks stay unresolved become gap samples:
    they are excluded from the max/min normalization but reported in
    gap_angles.  An all-gap sweep is an error.
    """
    factors = _cell_factors(plan)
    if plan.readout == "eigen":
        delta_ats = _eigen_delta_ats(plan, factors)
    else:
        # The ladder never sees the orientation: one scan per distinct drive.
        by_factor = {f: _spectrum_delta_at(plan, plan.drive.rabi * f) for f in dict.fromkeys(factors)}
        delta_ats = [by_factor[f] for f in factors]

    field_amplitude = plan.drive.rabi / plan.system.mu
    pairs: list[tuple[float, float]] = []
    gaps: list[float] = []
    for i, (angle, delta_at) in enumerate(zip(plan.angles, delta_ats)):
        if delta_at is None:
            gaps.append(float(angle))
            continue
        ratio = delta_at / field_amplitude
        if plan.noise_sigma_db > 0.0:
            jitter_db = np.random.default_rng((plan.seed, i)).normal(0.0, plan.noise_sigma_db)
            ratio *= 10.0 ** (jitter_db / 20.0)
        pairs.append((float(angle), ratio))

    if not pairs:
        raise ValueError("sweep produced no resolvable angles (all gaps)")
    samples = normalized_gain(pairs)
    return GainPattern(
        plane=plan.plane,
        samples=tuple(samples),
        deviation_db=isotropic_deviation(samples),
        readout=plan.readout,
        seed=plan.seed,
        cell_enabled=plan.cell is not None,
        noise_sigma_db=plan.noise_sigma_db,
        gap_angles=tuple(gaps),
    )


def dipole_reference(angles, plane: str = "axial") -> GainPattern:
    """Classical short-dipole pattern on a principal plane.

    "axial" sweeps a plane containing the dipole axis: the amplitude is
    |sin(angle)| with a -60 dB floor at the nulls.  "equatorial" is the
    plane normal to the axis: constant response.
    """
    if plane not in ("axial", "equatorial"):
        raise ValueError(f"plane must be 'axial' or 'equatorial', got {plane!r}")
    angle_list = [float(a) % TWO_PI for a in angles]
    if not angle_list:
        raise ValueError("angles must be non-empty")
    if plane == "axial":
        pairs = [(a, max(abs(math.sin(a)), DIPOLE_FLOOR_RATIO)) for a in angle_list]
    else:
        pairs = [(a, 1.0) for a in angle_list]
    samples = normalized_gain(pairs)
    return GainPattern(
        plane=f"dipole-{plane}",
        samples=tuple(samples),
        deviation_db=isotropic_deviation(samples),
        readout="analytic",
    )


@dataclass(frozen=True)
class PatternComparison:
    label_a: str
    label_b: str
    deviation_a_db: float
    deviation_b_db: float
    improvement_db: float

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "pattern_comparison",
            "pattern_a": {"label": self.label_a, "deviation_db": self.deviation_a_db},
            "pattern_b": {"label": self.label_b, "deviation_db": self.deviation_b_db},
            "improvement_db": self.improvement_db,
        }

    def format_text(self) -> str:
        width = max(len(self.label_a), len(self.label_b), len("pattern"))
        lines = [
            f"{'pattern':<{width}}  deviation_db",
            f"{self.label_a:<{width}}  {self.deviation_a_db:.6g}",
            f"{self.label_b:<{width}}  {self.deviation_b_db:.6g}",
            f"improvement_db (b - a): {self.improvement_db:.6g}",
        ]
        return "\n".join(lines)


def compare_patterns(a: GainPattern, b: GainPattern) -> PatternComparison:
    """Tabulate two pattern deviations; improvement_db = dev(b) - dev(a)."""
    return PatternComparison(
        label_a=f"{a.plane}/{a.readout}",
        label_b=f"{b.plane}/{b.readout}",
        deviation_a_db=a.deviation_db,
        deviation_b_db=b.deviation_db,
        improvement_db=b.deviation_db - a.deviation_db,
    )


def json_text(payload: dict) -> str:
    """A JSON artifact: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def pattern_csv(pattern: GainPattern) -> str:
    """Pattern rows: plane, angle_deg, gain_db."""
    lines = ["plane,angle_deg,gain_db"]
    for s in pattern.samples:
        lines.append(f"{pattern.plane},{math.degrees(s.angle):.9g},{s.gain_db:.9g}")
    return "\n".join(lines) + "\n"


def polar_csv(pattern: GainPattern) -> str:
    """Polar-plot data: angle in degrees, radius = linear amplitude ratio."""
    lines = ["angle_deg,radius"]
    for s in pattern.samples:
        radius = 10.0 ** (s.gain_db / 20.0)
        lines.append(f"{math.degrees(s.angle):.9g},{radius:.9g}")
    return "\n".join(lines) + "\n"
