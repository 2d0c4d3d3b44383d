"""Strict JSON run configuration.

Every numeric key carries its unit in its name (rabi_mhz, wall_thickness_mm,
rf_frequency_ghz...).  Unknown keys are rejected, as are missing required
keys and type mismatches; all such problems raise ConfigError, which the
CLI maps to exit code 2.  Frequencies given in MHz/GHz convert to angular
frequencies (rad/s) on load.  A key left out takes the library's default:
the config passes only the keys it was given, so each default has one home
(LadderConfig, CellGeometry, SweepPlan, RfDrive, OutputSection); an index
part left out keeps that part of CellGeometry's index.

This module's own rules: NaN and +-inf in any number (Python's json reads
the NaN and Infinity literals), angle grids longer than MAX_ANGLES, and
drives, couplings and decay rates outside MAGNITUDE_RANGE.  The library's
rules run here too, before any physics, each from its one home: the
transition (patterns.check_transition), the drive (hamiltonian.RfDrive),
the scan range and points (spectra.check_scan_range and
check_scan_points), the ladder (spectra.LadderConfig), the cell
(cellfield.CellGeometry, and cellfield.sweep_samples and check_stack,
which hold the frequency rule check_frequency) and the sweep, which
parse_config builds as a patterns.SweepPlan from the system, drive, cell,
ladder and scan sections (its angles by patterns.sweep_angles, their
incidences on a cell by cellfield.check_incidences), and the output
(OutputSection, whose rule the CLI's output flags pass through too).  An
InputError they raise becomes a ConfigError naming the config key: a
section's own field by its map of config key to field (LADDER_FIELDS,
CELL_SIZES, SWEEP_FIELDS), anything several sections raise or two keys
span by KEYS.  No rule is checked again here in the config's units.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .angular import AngularMomentum
from .cellfield import CellGeometry, check_stack, sweep_samples
from .hamiltonian import RfDrive, TransitionSystem
from .patterns import SweepPlan, check_transition, finite_number
from .spectra import InputError, LadderConfig, check_scan_points, check_scan_range

SCHEMA_VERSION = 1

MHZ = 2.0 * math.pi * 1e6  # MHz -> rad/s

# Longest accepted angle grid: a 0.01-degree step over a full turn.
MAX_ANGLES = 36_000

# Accepted magnitudes of system.mu_mhz_per_v_per_m, ladder.gamma_e_mhz and
# ladder.gamma_r_mhz, and of drive.rabi_mhz and drive.detuning_mhz unless 0:
# nine decades either side of 1.  Inside them a sweep's raw ratios
# delta_at * mu / rabi stay within about 1e-64 to 1e77, even through a cell
# at cellfield.MAX_STACK_NEPERS, so no sweep quantity leaves the float range.
MAGNITUDE_RANGE = (1e-9, 1e9)

# The config key of each quantity an InputError names that several sections
# raise or that two keys span; a section's own fields are named by its map below.
KEYS = {
    "two_je": "system.two_je",
    "two_jg": "system.two_jg",
    "points": "scan.points",
    "scan range": "scan.min_mhz and scan.max_mhz",
    "drive.rabi": "drive.rabi_mhz",
    "wall_index": "cell.wall_index_re",
    "inner_index": "cell.inner_index_re",
    "frequency": "cell.rf_frequency_ghz",
    "frequency x inner_length": "cell.rf_frequency_ghz x cell.inner_length_mm",
    "stack": "cell: walls (wall_thickness_mm, wall_index_*) and vapor (inner_length_mm, inner_index_*) at "
    "rf_frequency_ghz",
}

# Config key -> library field, for the keys that each set one field of a
# section's library object: the section's allowed keys (beside those it
# handles itself), its constructor arguments and the keys its refusals name.
# A key left out is not passed, so the field takes the library's default.
LADDER_FIELDS = {
    "probe_rabi_mhz": "omega_p",
    "coupling_rabi_mhz": "omega_c",
    "probe_detuning_mhz": "delta_p",
    "gamma_e_mhz": "gamma_e",
    "gamma_r_mhz": "gamma_r",
    "doppler_sigma_mhz": "doppler_sigma",
}
CELL_SIZES = {"wall_thickness_mm": "wall_thickness", "inner_length_mm": "inner_length"}
SWEEP_FIELDS = {"plane": "plane", "angles_deg": "angles", "readout": "readout", "noise_sigma_db": "noise_sigma_db"}


class ConfigError(Exception):
    """Malformed configuration (schema, key, or type problem)."""


@contextmanager
def keyed(keys: dict[str, str] = KEYS):
    """Re-raise the library's InputError as a ConfigError naming the input's key in keys."""
    try:
        yield
    except InputError as exc:
        raise ConfigError(keys.get(exc.quantity, exc.quantity) + exc.detail) from exc


@dataclass(frozen=True)
class ScanSection:
    low: float  # rad/s
    high: float
    points: int


@dataclass(frozen=True)
class OutputSection:
    """Where a command writes: a directory and a file stem, each a non-empty string, else InputError."""

    directory: str = "."
    basename: str = "rydant"

    def __post_init__(self):
        for name in ("directory", "basename"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise InputError(name, " must be a non-empty string")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    system: TransitionSystem | None
    drive: RfDrive | None
    ladder: LadderConfig | None
    scan: ScanSection | None
    cell: CellGeometry | None
    cell_frequency: float | None  # Hz
    output: OutputSection
    sweep: SweepPlan | None = None

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
    return _finite(section[key], f"{where}.{key}") if key in section else default


def _numbers(section: dict, fields: dict[str, str], where: str, unit: float) -> dict[str, float]:
    """The library arguments of the fields' keys that a section holds, each number times unit."""
    return {field: _number(section, key, where) * unit for key, field in fields.items() if key in section}


def _named(fields: dict[str, str], where: str) -> dict[str, str]:
    """keyed's names for a section: KEYS, and each of its library fields named by its config key."""
    return dict(KEYS, **{field: f"{where}.{key}" for key, field in fields.items()})


def _finite(value, where: str) -> float:
    try:
        return finite_number(value, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _magnitude(value: float, where: str, zero_ok: bool) -> float:
    low, high = MAGNITUDE_RANGE
    if (zero_ok and value == 0) or low <= abs(value) <= high:
        return value
    allowed = f"0 or a magnitude in [{low:g}, {high:g}]" if zero_ok else f"within [{low:g}, {high:g}]"
    raise ConfigError(f"{where} must be {allowed} (MAGNITUDE_RANGE), got {value!r}")


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
    with keyed():
        check_transition(two_jg, two_je)
    mu = _magnitude(_number(section, "mu_mhz_per_v_per_m", where), f"{where}.mu_mhz_per_v_per_m", zero_ok=False)
    try:
        return TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_je), mu * MHZ)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _rf_drive(rabi_mhz, detuning_mhz, rabi_key: str, detuning_key: str) -> RfDrive:
    """The RF drive of a Rabi frequency and a detuning in MHz, each refused naming its key.

    For config keys and CLI flags alike: each number finite, then within
    MAGNITUDE_RANGE or 0 (the config's rules), then RfDrive's drive rule.
    """
    rabi = _magnitude(_finite(rabi_mhz, rabi_key), rabi_key, zero_ok=True)
    detuning = _magnitude(_finite(detuning_mhz, detuning_key), detuning_key, zero_ok=True)
    with keyed({"rabi": rabi_key, "detuning": detuning_key}):
        return RfDrive(rabi * MHZ, detuning * MHZ)


def _parse_drive(section: dict) -> RfDrive:
    _check_keys(section, {"rabi_mhz", "detuning_mhz"}, {"rabi_mhz"}, "drive")
    detuning = section.get("detuning_mhz", RfDrive.detuning / MHZ)
    return _rf_drive(section["rabi_mhz"], detuning, "drive.rabi_mhz", "drive.detuning_mhz")


def _parse_ladder(section: dict, drive: RfDrive | None) -> LadderConfig:
    where = "ladder"
    _check_keys(section, set(LADDER_FIELDS), {"probe_rabi_mhz", "coupling_rabi_mhz"}, where)
    if drive is None:
        raise ConfigError("ladder section requires a drive section (RF Rabi/detuning)")
    for key in ("gamma_e_mhz", "gamma_r_mhz"):  # zero leaves no unique steady state
        if key in section:
            _magnitude(_number(section, key, where), f"{where}.{key}", zero_ok=False)
    fields = _numbers(section, LADDER_FIELDS, where, MHZ)
    with keyed(_named(LADDER_FIELDS, where)):
        return LadderConfig(omega_rf=drive.rabi, delta_rf=drive.detuning, **fields)


def _parse_scan(section: dict) -> ScanSection:
    where = "scan"
    _check_keys(section, {"min_mhz", "max_mhz", "points"}, {"min_mhz", "max_mhz", "points"}, where)
    low = _number(section, "min_mhz", where) * MHZ
    high = _number(section, "max_mhz", where) * MHZ
    points = _integer(section, "points", where)
    with keyed():
        check_scan_range(low, high)
        check_scan_points(points)
    return ScanSection(low, high, points)


def _parse_cell(section: dict) -> tuple[CellGeometry, float]:
    where = "cell"
    indices = ("wall_index", "inner_index")
    index_keys = {f"{name}_{part}" for name in indices for part in ("re", "im")}
    _check_keys(section, {*CELL_SIZES, *index_keys, "rf_frequency_ghz"}, {*CELL_SIZES, "rf_frequency_ghz"}, where)
    arguments = _numbers(section, CELL_SIZES, where, 1e-3)
    for name in indices:  # a part left out keeps that part of the library's index
        default = getattr(CellGeometry, name)
        re = _number(section, f"{name}_re", where, default.real)
        arguments[name] = complex(re, _number(section, f"{name}_im", where, default.imag))
    with keyed(_named(CELL_SIZES, where)):
        geometry = CellGeometry(**arguments)
        frequency = _number(section, "rf_frequency_ghz", where) * 1e9
        sweep_samples(geometry, frequency)
        check_stack(geometry, frequency)
    return geometry, frequency


def _parse_sweep(section: dict, config: RunConfig) -> SweepPlan:
    """The sweep plan of a config's other sections; SweepPlan holds every rule on the plan."""
    where = "sweep"
    _check_keys(section, {*SWEEP_FIELDS, "use_cell"}, {"plane", "angles_deg"}, where)
    for name in ("system", "drive"):
        if getattr(config, name) is None:
            raise ConfigError(f"sweep section requires a {name} section")
    use_cell = section.get("use_cell", False)
    if not isinstance(use_cell, bool):
        raise ConfigError(f"{where}.use_cell must be a boolean")
    if use_cell and config.cell is None:
        raise ConfigError(f"{where}.use_cell requires a cell section")
    arguments = {field: section[key] for key, field in SWEEP_FIELDS.items() if key in section}
    arguments["angles"] = parse_angles_deg(arguments["angles"], f"{where}.angles_deg")
    if "noise_sigma_db" in arguments:
        arguments["noise_sigma_db"] = _number(section, "noise_sigma_db", where)
    if use_cell:
        arguments.update(cell=config.cell, cell_frequency=config.cell_frequency)
    if config.scan:
        arguments["scan_points"] = config.scan.points
    with keyed(_named(SWEEP_FIELDS, where)):
        return SweepPlan(drive=config.drive, system=config.system, seed=config.seed, ladder=config.ladder, **arguments)


def _parse_output(section: dict) -> OutputSection:
    _check_keys(section, {"directory", "basename"}, set(), "output")
    with keyed({"directory": "output.directory", "basename": "output.basename"}):
        return OutputSection(**section)


def parse_config(payload: dict) -> RunConfig:
    allowed = {"schema_version", "seed", "system", "drive", "ladder", "scan", "cell", "sweep", "output"}
    _check_keys(payload, allowed, {"schema_version"}, "configuration")
    version = payload["schema_version"]
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}")
    seed = _integer(payload, "seed", "configuration", SweepPlan.seed)

    drive = _parse_drive(payload["drive"]) if "drive" in payload else None
    cell, cell_frequency = _parse_cell(payload["cell"]) if "cell" in payload else (None, None)
    config = RunConfig(
        seed=seed,
        system=_parse_system(payload["system"]) if "system" in payload else None,
        drive=drive,
        ladder=_parse_ladder(payload["ladder"], drive) if "ladder" in payload else None,
        scan=_parse_scan(payload["scan"]) if "scan" in payload else None,
        cell=cell,
        cell_frequency=cell_frequency,
        output=_parse_output(payload.get("output", {})),
    )
    if "sweep" in payload:
        config = replace(config, sweep=_parse_sweep(payload["sweep"], config))
    return config


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
