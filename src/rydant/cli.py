"""Command-line interface.

Subcommands: eigen, sweep, spectrum, cellfield, compare.  Exit codes:
0 success, 1 runtime contract violation (domain errors), 2 usage or
configuration schema errors.  Each command prints its results and returns
its artifacts as an ordered {path: text} dict; `main` writes them all with
one `write_outputs` call (temp files, then renames) and prints a `wrote`
line per file.  Artifacts are byte-reproducible for a given config and
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .angular import AngularMomentum, decompose_polarizations
from .cellfield import CellGeometry, path_average, path_averages, transfer_matrix_field
from .config import (
    MHZ,
    ConfigError,
    OutputSection,
    RunConfig,
    _finite,
    _rf_drive,
    keyed,
    load_config,
    parse_angles_deg,
)
from .hamiltonian import RfDrive, TransitionSystem, coupling_stack, hamiltonian_array
from .metrology import field_from_splitting, gram_splittings, isotropic_deviation, normalized_gain
from .patterns import GainPattern, compare_patterns, json_text, run_sweep
from .spectra import (
    SteadyStateError,
    UnresolvedSplittingError,
    default_ladder,
    extract_splitting,
    scan_spectrum,
    scan_window,
)

PLACEHOLDER_MU_MHZ = 1.0  # MHz per V/m; non-physical stand-in for the coupling strength
# The paper's J = 1/2 -> 3/2 transition, the one `rydant eigen` tabulates; mu plays no part.
PAPER_SYSTEM = TransitionSystem(AngularMomentum(1), AngularMomentum(3), PLACEHOLDER_MU_MHZ * MHZ)


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


def write_outputs(files: dict[str, str]) -> None:
    """Write each path's text, all or nothing as far as the file system allows.

    This is the only function that writes files.  A target that is a
    directory is refused before anything is staged.  Each text then goes to
    a temp file beside its path (mode 0644, "\n" line ends), so a missing
    or unwritable directory fails while staging and writes nothing.  Only
    once every file is staged are the temp files renamed over their paths,
    in order.  A rename can still fail part-way, say when a target becomes
    a directory after the check or the rename itself hits an I/O error;
    then the files renamed before it hold the new text and the rest keep
    the old.  No temp file outlives the call.  A staging failure is
    re-raised as the same OSError subclass naming the target path, not
    its temp file, so the message is the same on every run.
    """
    for path in files:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output {path} is a directory")
    staged: list[tuple[str, str]] = []
    renamed = 0
    try:
        for path, text in files.items():
            try:
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
                os.close(fd)
                staged.append((tmp, path))
                os.chmod(tmp, 0o644)
                with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, path) from exc
        for tmp, path in staged:
            os.replace(tmp, path)
            renamed += 1
    finally:
        for tmp, _ in staged[renamed:]:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _output(args, config: RunConfig | None) -> OutputSection:
    """The config's output section, or OutputSection's defaults, with each output flag given put over it."""
    flags = {"directory": args.out_dir, "basename": args.basename}
    given = {name: value for name, value in flags.items() if value is not None}
    with keyed({"directory": "--out-dir", "basename": "--basename"}):
        return replace(config.output if config else OutputSection(), **given)


def _artifacts(output: OutputSection, texts: dict[str, str]) -> dict[str, str]:
    """Each text at <directory>/<basename>_<name>, in order; the directory is made if missing."""
    os.makedirs(output.directory, exist_ok=True)
    return {os.path.join(output.directory, f"{output.basename}_{name}"): text for name, text in texts.items()}


def _csv(header: str, rows) -> str:
    """CSV text: the header line, one line per row (floats as %.9g, strings and integers as written), final newline."""
    lines = (",".join(str(v) if isinstance(v, (str, int)) else f"{v:.9g}" for v in row) for row in rows)
    return "\n".join([header, *lines]) + "\n"


def _mhz(value_rad_s: float) -> float:
    return value_rad_s / MHZ


def _dressed_levels(drive: RfDrive, chi: float, theta: float, phi: float):
    """`rydant eigen`'s numbers at full precision: (closed form, numeric, mode splittings), each ascending.

    The Gram modes s_k of the paper's block give the closed form
    {-detuning, -detuning, -(detuning +/- sqrt(detuning^2 + 4 s_k)) / 2}; the
    numeric column diagonalizes the full dressed matrix.
    """
    block = coupling_stack(PAPER_SYSTEM, [drive.rabi], decompose_polarizations([chi], [theta], [phi]))
    modes = gram_splittings(block, drive.detuning)[0]
    d = drive.detuning
    closed = np.sort(np.concatenate(([-d, -d], -0.5 * (d + modes), -0.5 * (d - modes))))
    return closed, np.linalg.eigvalsh(hamiltonian_array(block[0], d)), modes


def cmd_eigen(args) -> dict[str, str]:
    drive = _rf_drive(args.rabi_mhz, args.detuning_mhz, "--rabi-mhz", "--detuning-mhz")
    angles = (_finite(args.chi, "--chi"), _finite(args.theta, "--theta"), _finite(args.phi, "--phi"))
    closed, numeric, (minus, plus) = _dressed_levels(drive, *angles)

    print("index  closed_form_mhz  numeric_mhz")
    for i, (cv, nv) in enumerate(zip(closed, numeric)):
        print(f"{i:<5d}  {_mhz(cv):<15.9g}  {_mhz(nv):<15.9g}")

    if abs(plus - minus) <= 1e-12 * max(plus, minus, 1.0):
        print(f"delta_at_mhz = {_mhz(plus):.9g}")
    else:
        print("elliptical drive (phi != 0): two branch splittings")
        print(f"branch_plus_mhz = {_mhz(plus):.9g}")
        print(f"branch_minus_mhz = {_mhz(minus):.9g}")

    if not args.csv:
        return {}
    rows = ((i, _mhz(cv), _mhz(nv)) for i, (cv, nv) in enumerate(zip(closed, numeric)))
    return {args.csv: _csv("index,closed_form_mhz,numeric_mhz", rows)}


def cmd_sweep(args) -> dict[str, str]:
    config = load_config(args.config)
    plan = config.require("sweep")
    output = _output(args, config)
    if args.seed is not None:
        with keyed({"seed": "--seed"}):
            plan = replace(plan, seed=args.seed)
    pattern = run_sweep(plan)

    print(f"plane {pattern.plane} ({pattern.readout} readout), seed {plan.seed}")
    print(f"isotropic_deviation_db = {pattern.deviation_db:.9g}")
    if pattern.gap_angles:
        degrees = ", ".join(f"{math.degrees(a):.4g}" for a in pattern.gap_angles)
        print(f"gap angles (unresolved splitting, excluded): {degrees}")
    samples = [(math.degrees(s.angle), s.gain_db) for s in pattern.samples]
    return _artifacts(output, {
        "pattern.csv": _csv("plane,angle_deg,gain_db", ((pattern.plane, a, g) for a, g in samples)),
        "pattern.json": json_text(pattern.to_dict()),
        "polar.csv": _csv("angle_deg,radius", ((a, 10.0 ** (g / 20.0)) for a, g in samples)),
    })


def cmd_spectrum(args) -> dict[str, str]:
    config = load_config(args.config) if args.config else None
    preset = PRESETS[args.preset] if args.preset else None
    if config is None and preset is None:
        raise ConfigError("spectrum needs --config and/or --preset")
    output = _output(args, config)

    drive = _rf_drive(
        10.0 if args.rabi_mhz is None else args.rabi_mhz,
        0.0 if args.detuning_mhz is None else args.detuning_mhz,
        "--rabi-mhz",
        "--detuning-mhz",
    )
    if config and config.drive:
        for flag, value in (("--rabi-mhz", args.rabi_mhz), ("--detuning-mhz", args.detuning_mhz)):
            if value is not None:
                raise ConfigError(f"{flag} cannot be given beside the config's drive section")
        drive = config.drive
    ladder = config.ladder if config and config.ladder else default_ladder(drive.rabi, drive.detuning)

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

    rows = ((d / (2.0 * math.pi), t) for d, t in zip(trace.detunings, trace.transmission))
    return _artifacts(output, {
        "trace.csv": _csv("detuning_hz,transmission", rows),
        "spectrum.json": json_text(summary),
    })


def cmd_cellfield(args) -> dict[str, str]:
    config = load_config(args.config) if args.config else None
    preset = PRESETS[args.preset] if args.preset else None
    if config and config.cell:
        geometry, frequency = config.cell, config.cell_frequency
    elif preset:
        geometry, frequency = preset.cell, preset.rf_frequency_hz
    else:
        raise ConfigError("cellfield needs a cell section in --config or a --preset")
    output = _output(args, config)
    if args.no_walls:
        geometry = replace(geometry, wall_index=1.0 + 0.0j)

    summary = {
        "kind": "cellfield_summary",
        "schema_version": 1,
        "frequency_ghz": frequency / 1e9,
        "wall_thickness_mm": geometry.wall_thickness * 1e3,
        "inner_length_mm": geometry.inner_length * 1e3,
        "polarization": args.polarization,
        "walls_disabled": bool(args.no_walls),
    }
    if preset:
        summary["metadata"] = preset.metadata()

    if args.angles:
        spec = args.angles.strip()
        if spec.startswith("["):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--angles is not a valid JSON list: {exc}") from exc
        angles = parse_angles_deg(spec, "--angles")
        with keyed({"angles": "--angles"}):
            samples = normalized_gain(angles, path_averages(geometry, frequency, angles, args.polarization))
        deviation = isotropic_deviation(samples)
        summary["angles_deg"] = [round(math.degrees(a), 12) for a in angles]
        summary["deviation_db"] = deviation
        print(f"angle_sweep_deviation_db = {deviation:.9g}")
        rows = ((math.degrees(s.angle), s.raw_ratio, s.gain_db) for s in samples)
        data_name, data_text = "cellsweep", _csv("angle_deg,path_avg_rel,gain_db", rows)
    else:
        with keyed({"angles": "--angle-deg"}):
            profile = transfer_matrix_field(geometry, frequency, math.radians(args.angle_deg), args.polarization)
        summary["incidence_angle_deg"] = args.angle_deg
        summary["path_average_rel"] = path_average(profile)
        print(f"path_average_rel = {summary['path_average_rel']:.9g}")
        data_name, data_text = "profile", _csv("position_m,amplitude_rel", zip(profile.positions, profile.amplitude))
    return _artifacts(output, {f"{data_name}.csv": data_text, "cellfield.json": json_text(summary)})


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


def cmd_compare(args) -> dict[str, str]:
    comparison = compare_patterns(_load_pattern(args.pattern_a), _load_pattern(args.pattern_b))
    print(comparison.format_text())
    return {args.json: json_text(comparison.to_dict())} if args.json else {}


def _add_output_flags(parser) -> None:
    default = OutputSection()
    parser.add_argument("--out-dir", default=None, help=f"output directory (default: config or {default.directory!r})")
    parser.add_argument("--basename", default=None, help=f"output file stem (default: config or {default.basename!r})")


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
    p.add_argument("--seed", type=int, default=None, help="seed of the readout noise (default: the config's seed)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="scan the ladder readout and extract the splitting")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="level-scheme preset supplying metadata and defaults")
    p.add_argument("--rabi-mhz", type=float, default=None,
                   help="RF Rabi frequency (MHz, default 10); refused beside a config drive section")
    p.add_argument("--detuning-mhz", type=float, default=None,
                   help="RF detuning (MHz, default 0); refused beside a config drive section")
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cellfield", help="standing-wave profile or incidence-angle sweep")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="level-scheme preset supplying the cell geometry")
    incidence = p.add_mutually_exclusive_group()
    incidence.add_argument("--angle-deg", type=float, default=0.0, help="single incidence angle (deg)")
    incidence.add_argument("--angles", default=None,
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
        files = args.func(args)
        write_outputs(files)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SteadyStateError, UnresolvedSplittingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in files:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
