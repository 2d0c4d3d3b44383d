"""Angle-resolved gain patterns: plane sweeps, dipole reference, comparison.

Plane conventions (phi = 0 throughout; the sweep angle is "angle"):

    XY: chi = pi/2, theta = angle   (polarization rotating in the XY plane)
    XZ: chi = angle, theta = 0      (rotating in the XZ plane)
    YZ: chi = angle, theta = pi/2   (rotating in the YZ plane)

Cell modulation applies only to XY sweeps, where moving the source around
the cell changes the incidence angle on the 1-D stack; the angle is folded
into [0, pi/2] by incidence_angles, which gives mirror angles one equal
incidence.  For XZ/YZ the polarization rotates while the propagation
direction stays fixed, so the stack sees normal incidence throughout.

Sweeps are array-native and deterministic.  plane_angles maps the grid onto
(chi, theta, phi) arrays and angular.decompose_polarizations resolves them in
one pass.  The cell factors come from cellfield.path_averages: one profile
per distinct incidence angle, so one per mirror set of XY angles, all from
one batched transfer-matrix walk.
The eigen readout builds one coupling stack V per sweep (coupling_stack)
and never the dressed Hamiltonian H = [[0, V^dag], [V, -detuning]]: an
eigenvalue of H off -detuning solves lambda (lambda + detuning) = s for an
eigenvalue s of the ground-space Gram matrix V^dag V, and the two dark
states of J -> J + 1 sit at -detuning.  The splitting, max - min of the
dressed spectrum less that pair, is therefore sqrt(detuning^2 + 4 s_max),
from one batched eigvalsh of (n, ground, ground) Gram matrices (the top
mode of metrology.gram_splittings, which `rydant eigen` reads in full).
Every angle is still diagonalized on its own.  The spectrum readout
scans once per distinct cell factor, since the ladder does not depend on
the orientation.  The cell stage gives the bits of its one-angle form,
transfer_matrix_field.
The readout noise is one normal stream per sweep, a Box-Muller transform
of random.Random(seed).random() pairs, so it depends on no numpy version
and rydant loads no numpy.random.  From the cell factors to the gain
record the sweep stays in arrays: one ratio array, masked to the resolved
angles, goes to metrology.normalized_gain, whose only per-angle step is
math.log10 (numpy's vector log may differ in the last bit between CPUs).
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .angular import decompose_polarizations
from .cellfield import CellGeometry, check_frequency, check_incidences, path_averages
from .hamiltonian import RfDrive, TransitionSystem, coupling_stack
from .metrology import GainSample, gram_splittings, isotropic_deviation, normalized_gain
from .spectra import (
    InputError,
    LadderConfig,
    UnresolvedSplittingError,
    check_scan_points,
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

# Largest lower momentum, as 2 J_g, of a sweep: J_g = 9/2 -> 11/2 is the
# largest transition whose Clebsch-Gordan coefficients the tests verify.
MAX_TWO_JG = 9

TWO_PI = 2.0 * math.pi

# Largest gap between a pattern file's deviation_db and the spread of its
# gain_db values that GainPattern.from_dict accepts.
DEVIATION_MATCH_DB = 1e-9

# Widest gap between XY incidences that incidence_angles merges: 64 ulp of
# pi/2, about 1.4e-14 rad.  theta, theta + pi, pi - theta and 2 pi - theta
# fold onto incidences up to about 1.1e-15 rad (5 ulp) apart.
MIRROR_MERGE_RAD = 64 * math.ulp(math.pi / 2)


@dataclass(frozen=True)
class SweepPlan:
    """One pattern measurement: plane, angle grid, readout and its knobs.

    A plan that cannot run raises InputError naming the field.
    The injected field amplitude is drive.rabi / system.mu and is held
    fixed over the sweep; the cell (when present, with cell_frequency in
    Hz) rescales the field each angle.  The angles follow sweep_angles, and
    on a cell check_frequency and check_incidences.  noise_sigma_db adds
    multiplicative Gaussian jitter to each extracted splitting: angle i
    takes draw i of one normal stream, Box-Muller on
    random.Random(seed).random() with uniform pair k giving draws 2k and
    2k + 1, so a gap angle shifts no other angle's draw and the stream
    rests on CPython's fixed random() sequence for an int seed, not on a
    numpy release.  seed is an integer >= 0.  The spectrum readout takes
    scan_points samples over scan_window of each cell factor's ladder; a
    config's scan.min_mhz and scan.max_mhz never reach a sweep.
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
        check_plane(self.plane)
        if self.readout not in READOUTS:
            raise InputError("readout", f" must be 'eigen' or 'spectrum', got {self.readout!r}")
        object.__setattr__(self, "angles", sweep_angles(self.angles))
        if self.drive.rabi <= 0:
            raise InputError("drive.rabi", f" must be > 0 for a sweep, got {self.drive.rabi}")
        try:
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise InputError("seed", f" must be an integer, got {self.seed!r}") from None
        if self.seed < 0:
            raise InputError("seed", f" must be >= 0, got {self.seed}")
        check_transition(self.system.jg.two_j, self.system.je.two_j)
        if self.cell is not None:
            check_frequency(self.cell_frequency)
            check_incidences(incidence_angles(self.plane, self.angles))
        if not 0.0 <= self.noise_sigma_db <= MAX_NOISE_SIGMA_DB:
            raise InputError(
                "noise_sigma_db",
                f" must be in [0, MAX_NOISE_SIGMA_DB = {MAX_NOISE_SIGMA_DB}], got {self.noise_sigma_db}",
            )
        check_scan_points(self.scan_points)


def sweep_angles(angles) -> np.ndarray:
    """The one angle-grid rule: non-empty, 1-D and finite, else InputError("angles"); read-only, in [0, 2 pi)."""
    arr = np.array(angles, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InputError("angles", " must be a non-empty 1-D array of finite values")
    arr %= TWO_PI
    arr.flags.writeable = False
    return arr


def check_plane(plane: str) -> None:
    """The one plane rule: plane is one of PLANES, else InputError("plane")."""
    if plane not in PLANES:
        raise InputError("plane", f" must be XY, XZ or YZ, got {plane!r}")


def check_transition(two_jg: int, two_je: int) -> None:
    """The one rule for a sweep's system: J -> J + 1 with two_jg <= MAX_TWO_JG, else InputError.

    The eigen readout's splitting rule rests on the two dark states only
    J -> J + 1 has, and the orientation-blind spectrum readout would report
    a flat pattern for any other pair.
    """
    if two_je != two_jg + 2:
        raise InputError(
            "two_je",
            f" must equal two_jg + 2 (a J -> J + 1 transition), got two_jg = {two_jg}, two_je = {two_je}",
        )
    if two_jg > MAX_TWO_JG:
        raise InputError("two_jg", f": {two_jg} exceeds MAX_TWO_JG = {MAX_TWO_JG} (J_g = {MAX_TWO_JG}/2)")


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
        """Read a to_dict document back, refusing what to_dict cannot write.

        Refused with ValueError: a document that is not an object, a plane
        or readout that is not a non-empty string, an empty samples list,
        any number that is not finite, a raw_ratio <= 0 or gain_db > 0, and a
        deviation_db more than DEVIATION_MATCH_DB from the spread of its own
        gain_db.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"a gain_pattern document is a JSON object, got {type(payload).__name__}")
        if payload.get("kind") != "gain_pattern":
            raise ValueError("not a gain_pattern document")
        if payload.get("schema_version") != 1:
            raise ValueError(f"unsupported schema_version {payload.get('schema_version')!r}")
        for key in ("plane", "readout"):
            if not isinstance(payload[key], str) or not payload[key]:
                raise ValueError(f"{key} must be a non-empty string, got {payload[key]!r}")
        if not payload["samples"]:
            raise ValueError("samples is empty")
        samples = tuple(_read_sample(s) for s in payload["samples"])
        deviation = finite_number(payload["deviation_db"], "deviation_db")
        spread = isotropic_deviation(samples)
        if abs(deviation - spread) > DEVIATION_MATCH_DB:
            raise ValueError(f"deviation_db {deviation!r} is not the spread {spread!r} of the gain_db values")
        return cls(
            plane=payload["plane"],
            samples=samples,
            deviation_db=deviation,
            readout=payload["readout"],
            seed=payload.get("seed"),
            cell_enabled=payload.get("cell_enabled", False),
            noise_sigma_db=finite_number(payload.get("noise_sigma_db", 0.0), "noise_sigma_db"),
            gap_angles=tuple(
                math.radians(finite_number(a, "gap_angles_deg")) for a in payload.get("gap_angles_deg", [])
            ),
        )


def _read_sample(entry: dict) -> GainSample:
    """A document's sample, refused unless normalized_gain could have written it."""
    angle, ratio, gain = (finite_number(entry[key], key) for key in ("angle_deg", "raw_ratio", "gain_db"))
    if ratio <= 0:
        raise ValueError(f"raw_ratio must be > 0, got {ratio}")
    if gain > 1e-12:
        raise ValueError(f"gain_db must be <= 0, got {gain}")
    return GainSample(math.radians(angle), ratio, gain)


def finite_number(value, where: str) -> float:
    """A finite JSON number (an int or float, not a bool) as a float.

    Anything else raises ValueError naming where; the config's numbers go
    through it too.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{where} must be finite, got {number!r}")
    return number


def plane_angles(plane: str, angles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map sweep angles in a principal plane onto (chi, theta, phi = 0) arrays."""
    check_plane(plane)
    angles = np.asarray(angles, dtype=float)
    zeros = np.zeros_like(angles)
    if plane == "XY":
        return np.full_like(angles, math.pi / 2), angles, zeros
    if plane == "XZ":
        return angles, zeros, zeros
    return angles, np.full_like(angles, math.pi / 2), zeros


def incidence_angles(plane: str, angles) -> np.ndarray:
    """Stack incidences for sweep angles: folded into [0, pi/2] for XY, normal otherwise.

    theta, theta + pi, pi - theta and 2 pi - theta fold onto floats a few
    ulp apart.  Sorted incidences whose neighbours lie within MIRROR_MERGE_RAD
    of each other form a run and all take the smallest value of their run,
    so mirror angles share one cell profile; an incidence with no such
    neighbour keeps its exact fold.
    """
    angles = np.asarray(angles, dtype=float)
    if plane != "XY":
        return np.zeros_like(angles)
    folded = angles % math.pi
    folded = np.where(folded <= math.pi / 2, folded, math.pi - folded)
    order = np.argsort(folded, kind="stable")
    ranked = folded[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=-math.inf) > MIRROR_MERGE_RAD)
    folded[order] = np.repeat(ranked[starts], np.diff(starts, append=ranked.size))
    return folded


def _cell_factors(plan: SweepPlan) -> list[float]:
    if plan.cell is None:
        return [1.0] * len(plan.angles)
    # TE, although an XY sweep's field lies in the plane of incidence: ROADMAP item 7's open TE/TM finding.
    return path_averages(plan.cell, plan.cell_frequency, incidence_angles(plan.plane, plan.angles), "TE")


def _eigen_delta_ats(plan: SweepPlan, factors: Sequence[float]) -> np.ndarray:
    polarizations = decompose_polarizations(*plane_angles(plan.plane, plan.angles))
    blocks = coupling_stack(plan.system, plan.drive.rabi * np.asarray(factors, dtype=float), polarizations)
    return gram_splittings(blocks, plan.drive.detuning)[:, -1]


def _spectrum_delta_at(plan: SweepPlan, omega_eff: float) -> float | None:
    base = plan.ladder if plan.ladder is not None else default_ladder(omega_eff, plan.drive.detuning)
    cfg = replace(base, omega_rf=omega_eff, delta_rf=plan.drive.detuning)
    trace = scan_spectrum(cfg, scan_window(cfg), plan.scan_points)
    try:
        return extract_splitting(trace).delta_at
    except UnresolvedSplittingError:
        return None


def _normal_draws(seed: int, sigma: float, count: int) -> np.ndarray:
    """count normal draws of standard deviation sigma from random.Random(seed).

    A Box-Muller transform: uniform pair k, (u[2k], u[2k + 1]), gives draws
    2k and 2k + 1 as sigma sqrt(-2 ln(1 - u[2k])) (cos, sin)(2 pi u[2k + 1]).
    random() lies in [0, 1), so the logarithm stays finite, and CPython
    keeps its sequence for an int seed across releases.  A shorter stream
    is a prefix of a longer one.
    """
    # random() never returns the sentinel None, so fromiter stops at its count.
    uniforms = np.fromiter(iter(random.Random(seed).random, None), float, 2 * ((count + 1) // 2))
    pairs = uniforms.reshape(-1, 2)
    radius = sigma * np.sqrt(-2.0 * np.log1p(-pairs[:, 0]))
    phase = TWO_PI * pairs[:, 1]
    return (radius[:, None] * np.stack((np.cos(phase), np.sin(phase)), axis=1)).ravel()[:count]


def run_sweep(plan: SweepPlan) -> GainPattern:
    """Execute a plane sweep and return the normalized pattern.

    Spectrum-readout angles whose peaks stay unresolved become gap samples:
    they are excluded from the max/min normalization but reported in
    gap_angles.  An all-gap sweep is an error.
    """
    factors = _cell_factors(plan)
    if plan.readout == "eigen":
        delta_ats = np.asarray(_eigen_delta_ats(plan, factors), dtype=float)
        resolved = np.ones(delta_ats.size, dtype=bool)
    else:
        # The ladder never sees the orientation: one scan per distinct drive.
        by_factor = {f: _spectrum_delta_at(plan, plan.drive.rabi * f) for f in dict.fromkeys(factors)}
        found = [by_factor[f] for f in factors]
        resolved = np.array([d is not None for d in found], dtype=bool)
        delta_ats = np.array(found, dtype=float)  # a gap's None reads as nan and is masked out
    if not resolved.any():
        raise ValueError("sweep produced no resolvable angles (all gaps)")

    ratios = delta_ats / (plan.drive.rabi / plan.system.mu)
    if plan.noise_sigma_db > 0.0:
        # One stream per sweep; angle i takes draw i, gap or not.
        ratios *= 10.0 ** (_normal_draws(plan.seed, plan.noise_sigma_db, len(plan.angles)) / 20.0)
    samples = normalized_gain(plan.angles[resolved], ratios[resolved])
    return GainPattern(
        plane=plan.plane,
        samples=tuple(samples),
        deviation_db=isotropic_deviation(samples),
        readout=plan.readout,
        seed=plan.seed,
        cell_enabled=plan.cell is not None,
        noise_sigma_db=plan.noise_sigma_db,
        gap_angles=tuple(plan.angles[~resolved].tolist()),
    )


def dipole_reference(angles, plane: str = "axial") -> GainPattern:
    """Classical short-dipole pattern on a principal plane.

    "axial" sweeps a plane containing the dipole axis: the amplitude is
    |sin(angle)| with a -60 dB floor at the nulls.  "equatorial" is the
    plane normal to the axis: constant response.  The angles follow
    sweep_angles.
    """
    if plane not in ("axial", "equatorial"):
        raise ValueError(f"plane must be 'axial' or 'equatorial', got {plane!r}")
    angle_array = sweep_angles(angles)
    if plane == "axial":
        ratios = [max(abs(math.sin(a)), DIPOLE_FLOOR_RATIO) for a in angle_array.tolist()]
    else:
        ratios = [1.0] * angle_array.size
    samples = normalized_gain(angle_array, ratios)
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
