"""Strict JSON run configuration.

Every numeric key carries its unit in its name (rabi_mhz, wall_thickness_mm,
rf_frequency_ghz...).  Unknown keys are rejected, as are missing required
keys and type mismatches; all such problems raise ConfigError, which the
CLI maps to exit code 2.  Frequencies given in MHz/GHz convert to angular
frequencies (rad/s) on load.

Refused at this boundary, so that they never reach the physics: NaN and
+-inf in any number (Python's json reads the NaN and Infinity literals),
angle grids longer than MAX_ANGLES, drives and couplings outside
MAGNITUDE_RANGE, scans longer than spectra.MAX_SCAN_POINTS, cells whose
standing-wave profile would need more than cellfield.MAX_SWEEP_SAMPLES
samples or that cellfield.check_stack refuses, XY angles that fold onto
grazing incidence on a cell, readout noise above
patterns.MAX_NOISE_SIGMA_DB, and transitions other than J -> J + 1.
That family is the only one whose degenerate pair the eigen readout can
identify; the spectrum readout, blind to orientation, would report a flat
pattern for any other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .angular import AngularMomentum
from .cellfield import MAX_SWEEP_SAMPLES, CellGeometry, check_stack, sweep_samples
from .hamiltonian import RfDrive, TransitionSystem
from .patterns import MAX_NOISE_SIGMA_DB, TWO_PI, incidence_angle
from .spectra import GAMMA_E_DEFAULT, GAMMA_R_DEFAULT, MAX_SCAN_POINTS, LadderConfig

SCHEMA_VERSION = 1

MHZ = 2.0 * math.pi * 1e6  # MHz -> rad/s

# Longest accepted angle grid: a 0.01-degree step over a full turn.
MAX_ANGLES = 36_000

# Accepted magnitudes of system.mu_mhz_per_v_per_m, and of drive.rabi_mhz
# and drive.detuning_mhz unless 0: nine decades either side of 1.  Inside
# them a sweep's raw ratios delta_at * mu / rabi stay within about 1e-64 to
# 1e77, even through a cell at cellfield.MAX_STACK_NEPERS, so no sweep
# quantity leaves the float range.
MAGNITUDE_RANGE = (1e-9, 1e9)


class ConfigError(Exception):
    """Malformed configuration (schema, key, or type problem)."""


@dataclass(frozen=True)
class ScanSection:
    low: float  # rad/s
    high: float
    points: int


@dataclass(frozen=True)
class SweepSection:
    plane: str
    angles: np.ndarray  # radians
    readout: str
    use_cell: bool
    noise_sigma_db: float


@dataclass(frozen=True)
class OutputSection:
    directory: str
    basename: str


@dataclass(frozen=True)
class RunConfig:
    seed: int
    system: TransitionSystem | None
    drive: RfDrive | None
    ladder: LadderConfig | None
    scan: ScanSection | None
    cell: CellGeometry | None
    cell_frequency: float | None  # Hz
    sweep: SweepSection | None
    output: OutputSection

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"configuration section {name!r} is required for this command")
        return value


def _check_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing required key(s) in {where}: {', '.join(sorted(missing))}")


def _number(section: dict, key: str, where: str, default=None) -> float:
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return _finite(value, f"{where}.{key}")


def _finite(value, where: str) -> float:
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {number!r}")
    return number


def _magnitude(value: float, key: str, where: str, zero_ok: bool) -> float:
    low, high = MAGNITUDE_RANGE
    if (zero_ok and value == 0) or low <= abs(value) <= high:
        return value
    allowed = f"0 or a magnitude in [{low:g}, {high:g}]" if zero_ok else f"within [{low:g}, {high:g}]"
    raise ConfigError(f"{where}.{key} must be {allowed} (MAGNITUDE_RANGE), got {value!r}")


def _integer(section: dict, key: str, where: str, default=None) -> int:
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def parse_angles_deg(spec, where: str) -> np.ndarray:
    """Angle grid in degrees: either an explicit list or "start:step:stop".

    The string form follows range semantics: stop is exclusive, so
    "0:10:90" yields 0, 10, ..., 80.  Every number must be finite and the
    grid may hold at most MAX_ANGLES angles; the length of a range is
    checked before it is built.
    """
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: expected 'start:step:stop', got {spec!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"{where}: non-numeric angle range {spec!r}") from exc
        if not all(map(math.isfinite, (start, step, stop))):
            raise ConfigError(f"{where}: start, step and stop must be finite, got {spec!r}")
        if step <= 0 or stop <= start:
            raise ConfigError(f"{where}: need step > 0 and stop > start, got {spec!r}")
        span = (stop - start) / step - 1e-12  # inf when stop - start overflows
        if span > MAX_ANGLES:
            raise ConfigError(f"{where}: {spec!r} holds more than MAX_ANGLES = {MAX_ANGLES} angles")
        values = start + step * np.arange(max(1, math.ceil(span)))  # start itself, at least
    elif isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{where}: angle list is empty")
        if len(spec) > MAX_ANGLES:
            raise ConfigError(f"{where}: {len(spec)} angles exceed MAX_ANGLES = {MAX_ANGLES}")
        for v in spec:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{where}: angles must be numbers, got {v!r}")
        values = np.array([_finite(v, f"{where}: angle") for v in spec])
    else:
        raise ConfigError(f"{where} must be a list of degrees or a 'start:step:stop' string")
    return np.radians(values)


def _parse_system(section: dict) -> TransitionSystem:
    where = "system"
    _check_keys(
        section,
        {"two_jg", "two_je", "mu_mhz_per_v_per_m"},
        {"two_jg", "two_je", "mu_mhz_per_v_per_m"},
        where,
    )
    two_jg = _integer(section, "two_jg", where)
    two_je = _integer(section, "two_je", where)
    if two_je != two_jg + 2:
        raise ConfigError(
            f"{where}.two_je must equal two_jg + 2 (a J -> J + 1 transition), "
            f"got two_jg = {two_jg}, two_je = {two_je}"
        )
    mu = _magnitude(_number(section, "mu_mhz_per_v_per_m", where), "mu_mhz_per_v_per_m", where, zero_ok=False)
    try:
        return TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_je), mu * MHZ)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_drive(section: dict) -> RfDrive:
    where = "drive"
    _check_keys(section, {"rabi_mhz", "detuning_mhz"}, {"rabi_mhz"}, where)
    rabi = _magnitude(_number(section, "rabi_mhz", where), "rabi_mhz", where, zero_ok=True)
    detuning = _magnitude(_number(section, "detuning_mhz", where, 0.0), "detuning_mhz", where, zero_ok=True)
    try:
        return RfDrive(rabi * MHZ, detuning * MHZ)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_ladder(section: dict, drive: RfDrive | None) -> LadderConfig:
    where = "ladder"
    allowed = {
        "probe_rabi_mhz",
        "coupling_rabi_mhz",
        "probe_detuning_mhz",
        "gamma_e_mhz",
        "gamma_r_mhz",
        "doppler_sigma_mhz",
    }
    _check_keys(section, allowed, {"probe_rabi_mhz", "coupling_rabi_mhz"}, where)
    if drive is None:
        raise ConfigError("ladder section requires a drive section (RF Rabi/detuning)")
    try:
        return LadderConfig(
            omega_p=_number(section, "probe_rabi_mhz", where) * MHZ,
            omega_c=_number(section, "coupling_rabi_mhz", where) * MHZ,
            omega_rf=drive.rabi,
            delta_p=_number(section, "probe_detuning_mhz", where, 0.0) * MHZ,
            delta_rf=drive.detuning,
            gamma_e=_number(section, "gamma_e_mhz", where, GAMMA_E_DEFAULT / MHZ) * MHZ,
            gamma_r=_number(section, "gamma_r_mhz", where, GAMMA_R_DEFAULT / MHZ) * MHZ,
            doppler_sigma=_number(section, "doppler_sigma_mhz", where, 0.0) * MHZ,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_scan(section: dict) -> ScanSection:
    where = "scan"
    _check_keys(section, {"min_mhz", "max_mhz", "points"}, {"min_mhz", "max_mhz", "points"}, where)
    low = _number(section, "min_mhz", where) * MHZ
    high = _number(section, "max_mhz", where) * MHZ
    points = _integer(section, "points", where)
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ConfigError(f"{where}: min_mhz and max_mhz must stay finite in rad/s")
    if high <= low:
        raise ConfigError(f"{where}: max_mhz must exceed min_mhz")
    if points < 3:
        raise ConfigError(f"{where}: points must be >= 3, got {points}")
    if points > MAX_SCAN_POINTS:
        raise ConfigError(f"{where}.points: {points} exceeds MAX_SCAN_POINTS = {MAX_SCAN_POINTS}")
    return ScanSection(low, high, points)


def _parse_cell(section: dict) -> tuple[CellGeometry, float]:
    where = "cell"
    allowed = {
        "wall_thickness_mm",
        "inner_length_mm",
        "wall_index_re",
        "wall_index_im",
        "inner_index_re",
        "inner_index_im",
        "rf_frequency_ghz",
    }
    _check_keys(section, allowed, {"wall_thickness_mm", "inner_length_mm", "rf_frequency_ghz"}, where)
    try:
        geometry = CellGeometry(
            wall_thickness=_number(section, "wall_thickness_mm", where) * 1e-3,
            inner_length=_number(section, "inner_length_mm", where) * 1e-3,
            wall_index=complex(
                _number(section, "wall_index_re", where, 2.1),
                _number(section, "wall_index_im", where, 0.02),
            ),
            inner_index=complex(
                _number(section, "inner_index_re", where, 1.0),
                _number(section, "inner_index_im", where, 0.0),
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    frequency = _number(section, "rf_frequency_ghz", where) * 1e9
    if frequency <= 0:
        raise ConfigError(f"{where}: rf_frequency_ghz must be > 0")
    if not math.isfinite(frequency):
        raise ConfigError(f"{where}: rf_frequency_ghz must stay finite in Hz")
    try:
        sweep_samples(geometry, frequency)
    except ValueError as exc:
        raise ConfigError(
            f"{where}.rf_frequency_ghz x {where}.inner_length_mm is too large "
            f"(MAX_SWEEP_SAMPLES = {MAX_SWEEP_SAMPLES}): {exc}"
        ) from exc
    try:
        check_stack(geometry, frequency)
    except ValueError as exc:
        raise ConfigError(
            f"{where}: walls (wall_thickness_mm, wall_index_*) and vapor (inner_length_mm, "
            f"inner_index_*) at rf_frequency_ghz: {exc}"
        ) from exc
    return geometry, frequency


def _parse_sweep(section: dict) -> SweepSection:
    where = "sweep"
    allowed = {"plane", "angles_deg", "readout", "use_cell", "noise_sigma_db"}
    _check_keys(section, allowed, {"plane", "angles_deg"}, where)
    plane = section["plane"]
    if plane not in ("XY", "XZ", "YZ"):
        raise ConfigError(f"{where}.plane must be XY, XZ or YZ, got {plane!r}")
    readout = section.get("readout", "eigen")
    if readout not in ("eigen", "spectrum"):
        raise ConfigError(f"{where}.readout must be 'eigen' or 'spectrum', got {readout!r}")
    use_cell = section.get("use_cell", False)
    if not isinstance(use_cell, bool):
        raise ConfigError(f"{where}.use_cell must be a boolean")
    noise = _number(section, "noise_sigma_db", where, 0.0)
    if noise < 0:
        raise ConfigError(f"{where}.noise_sigma_db must be >= 0")
    if noise > MAX_NOISE_SIGMA_DB:
        raise ConfigError(f"{where}.noise_sigma_db: {noise} exceeds MAX_NOISE_SIGMA_DB = {MAX_NOISE_SIGMA_DB}")
    angles = parse_angles_deg(section["angles_deg"], f"{where}.angles_deg")
    # The sweep reduces its angles modulo 2 pi, then folds them onto the cell.
    # No incident wave propagates once the sine of the incidence rounds to 1,
    # within about 1.5e-8 rad of grazing.
    if use_cell and any(math.sin(incidence_angle(plane, a)) >= 1.0 for a in (angles % TWO_PI).tolist()):
        raise ConfigError(
            f"{where}.angles_deg: 90 deg + k * 180 deg in XY is grazing incidence on the cell, "
            "outside the stack model; offset the grid"
        )
    return SweepSection(
        plane=plane,
        angles=angles,
        readout=readout,
        use_cell=use_cell,
        noise_sigma_db=noise,
    )


def _parse_output(section: dict) -> OutputSection:
    where = "output"
    _check_keys(section, {"directory", "basename"}, set(), where)
    directory = section.get("directory", ".")
    basename = section.get("basename", "rydant")
    for name, value in (("directory", directory), ("basename", basename)):
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{where}.{name} must be a non-empty string")
    return OutputSection(directory, basename)


def parse_config(payload: dict) -> RunConfig:
    allowed = {"schema_version", "seed", "system", "drive", "ladder", "scan", "cell", "sweep", "output"}
    _check_keys(payload, allowed, {"schema_version"}, "configuration")
    version = payload["schema_version"]
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}")
    seed = _integer(payload, "seed", "configuration", 0)

    drive = _parse_drive(payload["drive"]) if "drive" in payload else None
    cell, cell_frequency = (None, None)
    if "cell" in payload:
        cell, cell_frequency = _parse_cell(payload["cell"])
    return RunConfig(
        seed=seed,
        system=_parse_system(payload["system"]) if "system" in payload else None,
        drive=drive,
        ladder=_parse_ladder(payload["ladder"], drive) if "ladder" in payload else None,
        scan=_parse_scan(payload["scan"]) if "scan" in payload else None,
        cell=cell,
        cell_frequency=cell_frequency,
        sweep=_parse_sweep(payload["sweep"]) if "sweep" in payload else None,
        output=_parse_output(payload.get("output", {})),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("top-level configuration must be a JSON object")
    return parse_config(payload)
