"""Command-line interface.

Subcommands: eigen, sweep, spectrum, cellfield, compare.  Exit codes:
0 success, 1 runtime contract violation (domain errors), 2 usage or
configuration schema errors.  All file outputs are written atomically
(temp file then rename) and are byte-reproducible for a given config and
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .angular import Orientation
from .cellfield import (
    CellGeometry,
    path_average,
    path_averages,
    profile_csv,
    sweep_csv,
    sweep_samples,
    transfer_matrix_field,
)
from .config import MHZ, ConfigError, RunConfig, load_config, parse_angles_deg
from .hamiltonian import (
    RfDrive,
    assemble_hamiltonian,
    build_interaction_paper,
    eigen_closed_form,
    eigen_hermitian,
)
from .metrology import (
    branch_splittings,
    field_from_splitting,
    isotropic_deviation,
    normalized_gain,
    splitting_from_eigen,
)
from .patterns import (
    GainPattern,
    SweepPlan,
    compare_patterns,
    json_text,
    pattern_csv,
    polar_csv,
    run_sweep,
)
from .spectra import (
    SteadyStateError,
    UnresolvedSplittingError,
    default_ladder,
    extract_splitting,
    scan_spectrum,
    scan_window,
    trace_csv,
)

PLACEHOLDER_MU_MHZ = 1.0  # MHz per V/m; non-physical stand-in for the coupling strength


@dataclass(frozen=True)
class Preset:
    """A level-scheme preset: carrier frequencies and the matching cell."""

    name: str
    probe_nm: float
    coupling_nm: float
    rf_frequency_hz: float
    levels: str
    cell: CellGeometry

    def metadata(self) -> dict:
        return {
            "preset": self.name,
            "probe_nm": self.probe_nm,
            "coupling_nm": self.coupling_nm,
            "rf_frequency_ghz": self.rf_frequency_hz / 1e9,
            "levels": self.levels,
        }


PRESETS = {
    "thz-33s": Preset(
        "thz-33s", 852.35, 511.69, 0.1296e12, "33S1/2 -> 33P3/2",
        CellGeometry(wall_thickness=2e-3, inner_length=20e-3),
    ),
    "mw-93s": Preset(
        "mw-93s", 852.35, 508.64, 4.8e9, "93S1/2 -> 92P3/2",
        CellGeometry(wall_thickness=2e-3, inner_length=80e-3),
    ),
}


@contextmanager
def atomic_outputs():
    """Stage text files and rename them into place only if everything succeeds.

    This is the only place that writes files: stage(path, text) writes the
    text to a temp file beside path, renamed over path when the block exits.
    """
    staged: list[tuple[str, str]] = []

    def stage(path: str, text: str) -> None:
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(fd)
        staged.append((tmp, path))
        os.chmod(tmp, 0o644)
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    try:
        yield stage
    except BaseException:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise
    else:
        for tmp, path in staged:
            os.replace(tmp, path)


def _outputs(args, config: RunConfig | None) -> tuple[str, str]:
    directory = args.out_dir or (config.output.directory if config else ".")
    basename = args.basename or (config.output.basename if config else "rydant")
    os.makedirs(directory, exist_ok=True)
    return directory, basename


def _seed(args, config: RunConfig | None) -> int:
    if args.seed is not None:
        return args.seed
    return config.seed if config else 0


def _mhz(value_rad_s: float) -> float:
    return value_rad_s / MHZ


def cmd_eigen(args) -> int:
    drive = RfDrive(args.rabi_mhz * MHZ, args.detuning_mhz * MHZ)
    orientation = Orientation(args.chi, args.theta, args.phi)
    closed = eigen_closed_form(drive, orientation)
    numeric = eigen_hermitian(
        assemble_hamiltonian(build_interaction_paper(drive, orientation), drive.detuning)
    )

    print("index  closed_form_mhz  numeric_mhz")
    for i, (cv, nv) in enumerate(zip(closed.values, numeric.values)):
        print(f"{i:<5d}  {_mhz(cv):<15.9g}  {_mhz(nv):<15.9g}")

    plus, minus = branch_splittings(drive, orientation)
    if abs(plus - minus) <= 1e-12 * max(plus, minus, 1.0):
        delta_at = splitting_from_eigen(numeric, drive.detuning).delta_at
        print(f"delta_at_mhz = {_mhz(delta_at):.9g}")
    else:
        print("elliptical drive (phi != 0): two branch splittings")
        print(f"branch_plus_mhz = {_mhz(plus):.9g}")
        print(f"branch_minus_mhz = {_mhz(minus):.9g}")

    if args.csv:
        lines = ["index,closed_form_mhz,numeric_mhz"]
        for i, (cv, nv) in enumerate(zip(closed.values, numeric.values)):
            lines.append(f"{i},{_mhz(cv):.9g},{_mhz(nv):.9g}")
        with atomic_outputs() as stage:
            stage(args.csv, "\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    system = config.require("system")
    drive = config.require("drive")
    sweep = config.require("sweep")
    seed = _seed(args, config)

    cell = None
    cell_frequency = None
    if sweep.use_cell:
        cell = config.require("cell")
        cell_frequency = config.cell_frequency

    try:
        plan = SweepPlan(
            plane=sweep.plane,
            angles=sweep.angles,
            drive=drive,
            system=system,
            readout=sweep.readout,
            cell=cell,
            cell_frequency=cell_frequency,
            noise_sigma_db=sweep.noise_sigma_db,
            seed=seed,
            ladder=config.ladder,
            scan_points=config.scan.points if config.scan else 801,
        )
    except ValueError as exc:
        # Every plan field comes from the config or a flag.
        raise ConfigError(f"sweep: {exc}") from exc
    pattern = run_sweep(plan)

    directory, basename = _outputs(args, config)
    csv_path = os.path.join(directory, f"{basename}_pattern.csv")
    json_path = os.path.join(directory, f"{basename}_pattern.json")
    polar_path = os.path.join(directory, f"{basename}_polar.csv")
    with atomic_outputs() as stage:
        stage(csv_path, pattern_csv(pattern))
        stage(json_path, json_text(pattern.to_dict()))
        stage(polar_path, polar_csv(pattern))

    print(f"plane {pattern.plane} ({pattern.readout} readout), seed {seed}")
    print(f"isotropic_deviation_db = {pattern.deviation_db:.9g}")
    if pattern.gap_angles:
        degrees = ", ".join(f"{math.degrees(a):.4g}" for a in pattern.gap_angles)
        print(f"gap angles (unresolved splitting, excluded): {degrees}")
    for path in (csv_path, json_path, polar_path):
        print(f"wrote {path}")
    return 0


def cmd_spectrum(args) -> int:
    config = load_config(args.config) if args.config else None
    preset = PRESETS[args.preset] if args.preset else None
    if config is None and preset is None:
        raise ConfigError("spectrum needs --config and/or --preset")
    seed = _seed(args, config)

    if config and config.drive:
        drive = config.drive
    else:
        drive = RfDrive(args.rabi_mhz * MHZ, args.detuning_mhz * MHZ)
    ladder = config.ladder if config and config.ladder else default_ladder(drive.rabi, drive.detuning)
    ladder = replace(ladder, omega_rf=drive.rabi, delta_rf=drive.detuning)

    if config and config.scan:
        low, high, points = config.scan.low, config.scan.high, config.scan.points
    else:
        (low, high), points = scan_window(ladder), 1201
    trace = scan_spectrum(ladder, (low, high), points)

    if config and config.system:
        mu = config.system.mu
        mu_is_placeholder = False
    else:
        mu = PLACEHOLDER_MU_MHZ * MHZ
        mu_is_placeholder = True

    summary = {
        "kind": "spectrum_summary",
        "schema_version": 1,
        "seed": seed,
        "scan_min_mhz": _mhz(low),
        "scan_max_mhz": _mhz(high),
        "scan_points": points,
        "rf_rabi_mhz": _mhz(drive.rabi),
        "rf_detuning_mhz": _mhz(drive.detuning),
        "mu_mhz_per_v_per_m": _mhz(mu),
        "mu_is_placeholder": mu_is_placeholder,
        "peaks_mhz": [_mhz(p) for p in trace.peaks],
    }
    if preset:
        summary["metadata"] = preset.metadata()

    try:
        delta_at = extract_splitting(trace).delta_at
    except UnresolvedSplittingError as exc:
        delta_at = None
        print(f"no splitting: {exc}")
    if delta_at is not None:
        estimate = field_from_splitting(delta_at, drive.detuning, mu)
        summary["delta_at_mhz"] = _mhz(delta_at)
        summary["field_v_per_m"] = estimate.amplitude
        print(f"delta_at_mhz = {_mhz(delta_at):.9g}")
        flag = " (placeholder mu = 1.0 MHz/(V/m), non-physical)" if mu_is_placeholder else ""
        print(f"field_v_per_m = {estimate.amplitude:.9g}{flag}")

    directory, basename = _outputs(args, config)
    trace_path = os.path.join(directory, f"{basename}_trace.csv")
    summary_path = os.path.join(directory, f"{basename}_spectrum.json")
    with atomic_outputs() as stage:
        stage(trace_path, trace_csv(trace))
        stage(summary_path, json_text(summary))
    print(f"wrote {trace_path}")
    print(f"wrote {summary_path}")
    return 0


def cmd_cellfield(args) -> int:
    config = load_config(args.config) if args.config else None
    preset = PRESETS[args.preset] if args.preset else None
    if config and config.cell:
        geometry = config.cell
        frequency = config.cell_frequency
    elif preset:
        geometry = preset.cell
        frequency = preset.rf_frequency_hz
    else:
        raise ConfigError("cellfield needs a cell section in --config or a --preset")
    if args.no_walls:
        geometry = replace(geometry, wall_index=1.0 + 0.0j)
    seed = _seed(args, config)

    summary = {
        "kind": "cellfield_summary",
        "schema_version": 1,
        "seed": seed,
        "frequency_ghz": frequency / 1e9,
        "wall_thickness_mm": geometry.wall_thickness * 1e3,
        "inner_length_mm": geometry.inner_length * 1e3,
        "polarization": args.polarization,
        "walls_disabled": bool(args.no_walls),
    }
    if preset:
        summary["metadata"] = preset.metadata()

    directory, basename = _outputs(args, config)
    if args.angles:
        spec = args.angles.strip()
        if spec.startswith("["):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--angles is not a valid JSON list: {exc}") from exc
        angles = parse_angles_deg(spec, "--angles")
        samples = normalized_gain(
            zip(angles, path_averages(geometry, frequency, angles, args.polarization))
        )
        deviation = isotropic_deviation(samples)
        summary["angles_deg"] = [round(math.degrees(a), 12) for a in angles]
        summary["deviation_db"] = deviation
        result = f"angle_sweep_deviation_db = {deviation:.9g}"
        data_path = os.path.join(directory, f"{basename}_cellsweep.csv")
        data_text = sweep_csv(samples)
    else:
        angle = math.radians(args.angle_deg)
        profile = transfer_matrix_field(
            geometry, frequency, angle, args.polarization, sweep_samples(geometry, frequency)
        )
        summary["incidence_angle_deg"] = args.angle_deg
        summary["path_average_rel"] = path_average(profile)
        result = f"path_average_rel = {summary['path_average_rel']:.9g}"
        data_path = os.path.join(directory, f"{basename}_profile.csv")
        data_text = profile_csv(profile)

    summary_path = os.path.join(directory, f"{basename}_cellfield.json")
    with atomic_outputs() as stage:
        stage(data_path, data_text)
        stage(summary_path, json_text(summary))
    print(result)
    print(f"wrote {data_path}")
    print(f"wrote {summary_path}")
    return 0


def _load_pattern(path) -> GainPattern:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read pattern {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"pattern {path} is not valid JSON: {exc}") from exc
    try:
        return GainPattern.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"pattern {path} is malformed: {exc}") from exc


def cmd_compare(args) -> int:
    comparison = compare_patterns(_load_pattern(args.pattern_a), _load_pattern(args.pattern_b))
    print(comparison.format_text())
    if args.json:
        with atomic_outputs() as stage:
            stage(args.json, json_text(comparison.to_dict()))
        print(f"wrote {args.json}")
    return 0


def _add_output_flags(parser) -> None:
    parser.add_argument("--out-dir", default=None, help="output directory (default: config or '.')")
    parser.add_argument("--basename", default=None, help="output file stem (default: config or 'rydant')")
    parser.add_argument("--seed", type=int, default=None, help="seed echoed into output metadata")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydant",
        description="Rydberg-atom RF antenna: dressed-level, spectrum, cell and pattern tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="closed-form vs numeric dressed-level eigenvalues")
    p.add_argument("--rabi-mhz", type=float, required=True, help="RF Rabi frequency (MHz)")
    p.add_argument("--detuning-mhz", type=float, default=0.0, help="RF detuning (MHz)")
    p.add_argument("--chi", type=float, default=0.0, help="polarization inclination (rad)")
    p.add_argument("--theta", type=float, default=0.0, help="transverse azimuth (rad)")
    p.add_argument("--phi", type=float, default=0.0, help="relative phase (rad)")
    p.add_argument("--csv", default=None, help="optional eigenvalue CSV path")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("sweep", help="angle sweep producing a gain pattern")
    p.add_argument("--config", required=True, help="JSON run configuration")
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="scan the ladder readout and extract the splitting")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="level-scheme preset supplying metadata and defaults")
    p.add_argument("--rabi-mhz", type=float, default=10.0,
                   help="RF Rabi frequency (MHz) when no drive section is given")
    p.add_argument("--detuning-mhz", type=float, default=0.0,
                   help="RF detuning (MHz) when no drive section is given")
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cellfield", help="standing-wave profile or incidence-angle sweep")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="level-scheme preset supplying the cell geometry")
    p.add_argument("--angle-deg", type=float, default=0.0, help="single incidence angle (deg)")
    p.add_argument("--angles", default=None,
                   help="incidence sweep, e.g. '0:10:90' (stop-exclusive) or a JSON list")
    p.add_argument("--polarization", choices=("TE", "TM"), default="TE")
    p.add_argument("--no-walls", action="store_true", help="set the wall index to 1 (transparent)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_cellfield)

    p = sub.add_parser("compare", help="tabulate two pattern reports")
    p.add_argument("pattern_a", help="gain-pattern JSON (reference)")
    p.add_argument("pattern_b", help="gain-pattern JSON (comparison)")
    p.add_argument("--json", default=None, help="optional comparison JSON path")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SteadyStateError, UnresolvedSplittingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
