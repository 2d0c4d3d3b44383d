#!/usr/bin/env python3
"""Golden-set check: run the same rydant commands from two source trees and
compare every byte they leave behind.

Usage:
    python3 scripts/golden.py --parent SRC --change SRC [--work DIR]
    python3 scripts/golden.py --manifest PATH --source SRC [--work DIR]

Each SRC is a checkout: the directory that holds src/rydant.  Every case
runs its commands as `python -m rydant.cli ...` with PYTHONPATH=SRC/src,
in a fresh directory of its own under the work directory (a new temporary
directory unless --work is given), once per tree.  The case's config files
are written there first and all paths are relative, so both trees see the
same arguments.  The check then compares, command by command, the exit
code, standard output and standard error, and, file by file, everything
the case left in its directory.  Every difference is printed; for a CSV or
JSON artifact whose numbers line up on both sides, so are the largest
absolute and the largest relative difference per column or key.  A
relative difference is |parent - change| / max(|parent|, |change|).

Exit status: 0 when both trees agree byte for byte, 1 when anything
differs, 2 on a usage error.

The --manifest mode runs every case once, from the SRC checkout, and
writes what it left behind to PATH as JSON lines (tests/golden_manifest.jsonl
is the one tests/test_golden.py reads).  The first line holds the numpy
version and the BLAS, the two things last-bit identity depends on; then
each case has a line saying whether it scans a ladder spectrum, one line
per command with its exit code, standard output and standard error, and
one line per file with its sha256 and, for a CSV or JSON artifact the case
wrote, its parsed content.  Standard library only, apart from the host
line, which imports numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SYSTEM_J12 = {"two_jg": 1, "two_je": 3, "mu_mhz_per_v_per_m": 1.0}
LADDER = {"probe_rabi_mhz": 0.1, "coupling_rabi_mhz": 1.0}
THZ_CELL = {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6}
MW_CELL = {"wall_thickness_mm": 2.0, "inner_length_mm": 80.0, "rf_frequency_ghz": 4.8}


def config(basename: str, **sections) -> dict:
    payload = {"schema_version": 1, "output": {"directory": "out", "basename": basename}}
    payload.update(sections)
    return payload


def sweep_case(name, sweep, system=SYSTEM_J12, drive=None, args=(), **sections):
    payload = config(name, system=system, drive=drive or {"rabi_mhz": 10.0, "detuning_mhz": 2.0}, sweep=sweep, **sections)
    return name, {"run.json": payload}, [["sweep", "--config", "run.json", *args]]


def cli_case(name, *argv, files=None):
    return name, files or {}, [list(argv)]


XY_CELL = {"plane": "XY", "angles_deg": "2.5:5:360", "use_cell": True}
XY_CELL_NOISE = dict(XY_CELL, noise_sigma_db=0.3)
LOSSY_VAPOR_CELL = dict(THZ_CELL, inner_index_re=1.02, inner_index_im=0.01, wall_index_im=0.05)
YZ_EIGEN = {"plane": "YZ", "angles_deg": "0:7.5:360"}
XZ_SPECTRUM = {"plane": "XZ", "angles_deg": [0, 30, 60, 90, 120], "readout": "spectrum"}
SCAN_401 = {"min_mhz": -30.0, "max_mhz": 30.0, "points": 401}
# A gain_pattern document as `rydant sweep` writes it, for `compare`.
PATTERN = {"schema_version": 1, "kind": "gain_pattern", "plane": "XY", "readout": "eigen", "seed": 0,
           "cell_enabled": False, "noise_sigma_db": 0.0, "deviation_db": 6.020599913279624, "gap_angles_deg": [],
           "samples": [{"angle_deg": 0.0, "raw_ratio": 1.0, "gain_db": 0.0},
                       {"angle_deg": 90.0, "raw_ratio": 0.5, "gain_db": -6.020599913279624}]}

CASES = [
    cli_case("eigen", "eigen", "--rabi-mhz", "10", "--detuning-mhz", "5", "--chi", "0.8", "--theta", "0.3",
             "--csv", "eigen0.csv"),
    cli_case("eigen-elliptical", "eigen", "--rabi-mhz", "10", "--detuning-mhz", "5", "--chi", "0.8",
             "--theta", "0.3", "--phi", "0.4", "--csv", "eigen1.csv"),
    # on resonance the numeric -detuning pair is rounding noise around 0
    cli_case("eigen-resonant", "eigen", "--rabi-mhz", "10", "--detuning-mhz", "0", "--chi", "0.8", "--theta", "0.3",
             "--csv", "eigen2.csv"),
    # sweeps
    sweep_case("sweep-xy-eigen-cell-noise", XY_CELL_NOISE, cell=THZ_CELL),
    sweep_case("sweep-xz-spectrum", XZ_SPECTRUM, ladder=LADDER, scan=SCAN_401),
    sweep_case("sweep-yz-eigen", YZ_EIGEN, args=("--seed", "11", "--out-dir", "o2")),
    sweep_case("sweep-xy-spectrum-cell-noise",
               {"plane": "XY", "angles_deg": "0:20:60", "readout": "spectrum", "use_cell": True,
                "noise_sigma_db": 0.5},
               drive={"rabi_mhz": 20.0}, ladder=LADDER, cell=THZ_CELL, seed=4),
    sweep_case("sweep-j32-cell-noise",
               {"plane": "XY", "angles_deg": "1:4:360", "use_cell": True, "noise_sigma_db": 0.4},
               system={"two_jg": 3, "two_je": 5, "mu_mhz_per_v_per_m": 2.0}, cell=MW_CELL, seed=7),
    sweep_case("sweep-j52-cell-noise",
               {"plane": "XY", "angles_deg": "0.3:6:360", "use_cell": True, "noise_sigma_db": 1.0},
               system={"two_jg": 5, "two_je": 7, "mu_mhz_per_v_per_m": 0.5},
               drive={"rabi_mhz": 30.0, "detuning_mhz": -6.0}, cell=THZ_CELL, seed=9),
    sweep_case("sweep-xy-lossy-vapor-noise",
               {"plane": "XY", "angles_deg": "0.7:1.5:360", "use_cell": True, "noise_sigma_db": 0.6},
               cell=LOSSY_VAPOR_CELL, seed=13),
    # noise-free XY cell sweeps: any difference here comes from the cell factors alone
    sweep_case("sweep-xy-eigen-cell", XY_CELL, cell=THZ_CELL),
    sweep_case("sweep-j32-mw-cell", {"plane": "XY", "angles_deg": "0.1:2:360", "use_cell": True},
               system={"two_jg": 3, "two_je": 5, "mu_mhz_per_v_per_m": 2.0}, cell=MW_CELL),
    sweep_case("sweep-xy-lossy-vapor", {"plane": "XY", "angles_deg": "0.7:1.5:360", "use_cell": True},
               cell=LOSSY_VAPOR_CELL),
    # the largest Gram matrix (5 x 5 for J = 9/2 -> 11/2), noise- and cell-free, off resonance
    sweep_case("sweep-xz-j92-eigen", {"plane": "XZ", "angles_deg": "0:2.5:360"},
               system={"two_jg": 9, "two_je": 11, "mu_mhz_per_v_per_m": 1.0},
               drive={"rabi_mhz": 12.0, "detuning_mhz": -3.5}),
    # six distinct cell factors at 801 points, the shape of the heaviest benchmark sweep
    sweep_case("sweep-xy-spectrum-cell-801",
               {"plane": "XY", "angles_deg": [5, 17, 29, 41, 53, 127, 200], "readout": "spectrum", "use_cell": True},
               drive={"rabi_mhz": 25.0, "detuning_mhz": -6.0}, ladder=LADDER, cell=THZ_CELL,
               scan=dict(SCAN_401, points=801)),
    # a weak drive whose cell factor at 85 deg leaves one peak: a gap angle, excluded from the pattern
    sweep_case("sweep-xy-spectrum-gap",
               {"plane": "XY", "angles_deg": [5, 30, 55, 70, 80, 85], "readout": "spectrum", "use_cell": True},
               drive={"rabi_mhz": 0.5}, ladder=LADDER, cell=THZ_CELL),
    # no output section and no inner_index_im: the artifacts take the library's output and index defaults
    ("config-defaults",
     {"run.json": {"schema_version": 1, "system": SYSTEM_J12, "drive": {"rabi_mhz": 10.0},
                   "cell": dict(THZ_CELL, inner_index_re=1.01), "sweep": XY_CELL}},
     [["sweep", "--config", "run.json"]]),
    # spectra
    cli_case("spectrum-thz", "spectrum", "--preset", "thz-33s", "--rabi-mhz", "10"),
    cli_case("spectrum-mw", "spectrum", "--preset", "mw-93s", "--rabi-mhz", "20", "--detuning-mhz", "4"),
    cli_case("spectrum-config-scan", "spectrum", "--config", "run.json",
             files={"run.json": config("spec", drive={"rabi_mhz": 12.0, "detuning_mhz": 3.0}, ladder=LADDER,
                                       scan={"min_mhz": -25.0, "max_mhz": 25.0, "points": 601})}),
    cli_case("spectrum-config-scan-preset", "spectrum", "--config", "run.json", "--preset", "mw-93s",
             files={"run.json": config("spec", drive={"rabi_mhz": 12.0, "detuning_mhz": 3.0}, ladder=LADDER,
                                       scan={"min_mhz": -25.0, "max_mhz": 25.0, "points": 601})}),
    cli_case("spectrum-max-points", "spectrum", "--config", "run.json",
             files={"run.json": config("spec", drive={"rabi_mhz": 12.0, "detuning_mhz": 3.0}, ladder=LADDER,
                                       scan={"min_mhz": -25.0, "max_mhz": 25.0, "points": 20001})}),
    cli_case("spectrum-config-no-scan", "spectrum", "--config", "run.json",
             files={"run.json": config("spec", drive={"rabi_mhz": 8.0}, ladder=LADDER)}),
    cli_case("spectrum-doppler-1mhz", "spectrum", "--config", "run.json",
             files={"run.json": config("dop", drive={"rabi_mhz": 10.0}, ladder=dict(LADDER, doppler_sigma_mhz=1.0),
                                       scan=SCAN_401)}),
    cli_case("spectrum-doppler-5mhz", "spectrum", "--config", "run.json",
             files={"run.json": config("dop", drive={"rabi_mhz": 20.0, "detuning_mhz": 3.0},
                                       ladder=dict(LADDER, doppler_sigma_mhz=5.0), scan=SCAN_401)}),
    # cell fields
    cli_case("cellfield-te", "cellfield", "--preset", "thz-33s", "--angle-deg", "30"),
    cli_case("cellfield-tm", "cellfield", "--preset", "thz-33s", "--angle-deg", "30", "--polarization", "TM"),
    cli_case("cellfield-angles", "cellfield", "--preset", "thz-33s", "--angles", "0:10:90"),
    cli_case("cellfield-mw-list-tm", "cellfield", "--preset", "mw-93s", "--angles", "[0, 15.5, 45, 60, 89]",
             "--polarization", "TM"),
    cli_case("cellfield-angles-no-walls", "cellfield", "--preset", "thz-33s", "--angles", "0:10:90", "--no-walls"),
    cli_case("cellfield-no-walls-tm", "cellfield", "--preset", "thz-33s", "--angle-deg", "45", "--no-walls",
             "--polarization", "TM"),
    cli_case("cellfield-config-angles", "cellfield", "--config", "run.json", "--angles", "5:20:85",
             files={"run.json": config("cf", cell=dict(THZ_CELL, wall_thickness_mm=1.7))}),
    cli_case("cellfield-config-angle", "cellfield", "--config", "run.json", "--angle-deg", "12.5",
             files={"run.json": config("cf", cell=dict(THZ_CELL, wall_thickness_mm=1.7))}),
    cli_case("cellfield-duplicate-angles", "cellfield", "--preset", "thz-33s", "--angles",
             "[0, 30, 30, 60, 0, 89, 60]"),
    cli_case("cellfield-tm-sweep", "cellfield", "--preset", "thz-33s", "--angles", "0.25:0.5:90",
             "--polarization", "TM"),
    # lossy vapor: the backward wave grows across the cell
    cli_case("cellfield-lossy-vapor-te", "cellfield", "--config", "run.json", "--angle-deg", "40",
             files={"run.json": config("lv", cell=LOSSY_VAPOR_CELL)}),
    cli_case("cellfield-lossy-vapor-tm-sweep", "cellfield", "--config", "run.json", "--angles", "0.5:7:85",
             "--polarization", "TM", files={"run.json": config("lv", cell=LOSSY_VAPOR_CELL)}),
    # comparisons of two sweep patterns
    ("compare-eigen", {"xy.json": config("xy", system=SYSTEM_J12, drive={"rabi_mhz": 10.0}, cell=THZ_CELL,
                                         sweep=XY_CELL_NOISE),
                       "yz.json": config("yz", system=SYSTEM_J12, drive={"rabi_mhz": 10.0}, sweep=YZ_EIGEN)},
     [["sweep", "--config", "xy.json"], ["sweep", "--config", "yz.json"],
      ["compare", "out/xy_pattern.json", "out/yz_pattern.json", "--json", "cmp.json"]]),
    ("compare-spectrum", {"xz.json": config("xz", system=SYSTEM_J12, drive={"rabi_mhz": 10.0}, ladder=LADDER,
                                            scan=SCAN_401, sweep=XZ_SPECTRUM),
                          "yz.json": config("yz", system=SYSTEM_J12, drive={"rabi_mhz": 10.0}, sweep=YZ_EIGEN)},
     [["sweep", "--config", "xz.json"], ["sweep", "--config", "yz.json"],
      ["compare", "out/yz_pattern.json", "out/xz_pattern.json", "--json", "cmp.json"]]),
    # refusals: their messages are recorded, so a moved message shows
    cli_case("refuse-range", "cellfield", "--preset", "thz-33s", "--angles", "0:10"),
    cli_case("refuse-list", "cellfield", "--preset", "thz-33s", "--angles", "[0, 1"),
    cli_case("refuse-bare-spectrum", "spectrum"),
    sweep_case("refuse-two-jg", {"plane": "XZ", "angles_deg": "0:1:360"},
               system={"two_jg": 10001, "two_je": 10003, "mu_mhz_per_v_per_m": 1.0}),
    cli_case("refuse-eigen-huge-rabi", "eigen", "--rabi-mhz", "1e300"),
    cli_case("refuse-eigen-nan-rabi", "eigen", "--rabi-mhz", "nan"),
    cli_case("refuse-eigen-negative-rabi", "eigen", "--rabi-mhz=-1"),
    cli_case("refuse-eigen-inf-detuning", "eigen", "--rabi-mhz", "10", "--detuning-mhz", "inf"),
    cli_case("refuse-eigen-nan-chi", "eigen", "--rabi-mhz", "10", "--chi", "nan"),
    # an output in a directory that does not exist: the message names the target
    cli_case("refuse-eigen-missing-dir", "eigen", "--rabi-mhz", "1", "--csv", "missing/x.csv"),
    cli_case("refuse-spectrum-huge-rabi", "spectrum", "--preset", "thz-33s", "--rabi-mhz", "1e300"),
    cli_case("refuse-spectrum-flag-beside-drive", "spectrum", "--config", "run.json", "--rabi-mhz", "30",
             files={"run.json": config("spec", drive={"rabi_mhz": 12.0})}),
    ("refuse-compare-malformed",
     {"ok.json": PATTERN, "list.json": [PATTERN], "text.json": dict(PATTERN, deviation_db="x"),
      "nan.json": dict(PATTERN, deviation_db=float("nan")), "empty.json": dict(PATTERN, samples=[]),
      "spread.json": dict(PATTERN, samples=PATTERN["samples"][:1], deviation_db=5.0)},
     [["compare", "ok.json", bad, "--json", "cmp.json"]
      for bad in ("list.json", "text.json", "nan.json", "empty.json", "spread.json")]),
    ("refuse-compare-bad-sample",
     {"ok.json": PATTERN,
      "zero.json": dict(PATTERN, samples=[dict(PATTERN["samples"][0]), dict(PATTERN["samples"][1], raw_ratio=0)]),
      "gain.json": dict(PATTERN, samples=[dict(PATTERN["samples"][0], gain_db=0.5), PATTERN["samples"][1]])},
     [["compare", "ok.json", bad, "--json", "cmp.json"] for bad in ("zero.json", "gain.json")]),
    # ladders without a unique steady state: gamma_e = gamma_r = 0, and omega_p = gamma_e = 0
    ("refuse-spectrum-undamped-ladder",
     {"undamped.json": config("spec", drive={"rabi_mhz": 10.0}, ladder=dict(LADDER, gamma_e_mhz=0, gamma_r_mhz=0),
                              scan=SCAN_401),
      "dark.json": config("spec", drive={"rabi_mhz": 10.0}, ladder=dict(LADDER, probe_rabi_mhz=0, gamma_e_mhz=0),
                          scan=SCAN_401)},
     [["spectrum", "--config", "undamped.json"], ["spectrum", "--config", "dark.json"]]),
    # a ladder the config checks accept that the solver still refuses (exit 1)
    ("refuse-spectrum-singular-ladder",
     {"run.json": config("spec", drive={"rabi_mhz": 0.0},
                         ladder={"probe_rabi_mhz": 0.0, "coupling_rabi_mhz": 1e9, "gamma_e_mhz": 1e-9,
                                 "gamma_r_mhz": 1e9})},
     [["spectrum", "--config", "run.json"]]),
    # cell and ladder rules, refused by the library and named by the config key or flag
    cli_case("refuse-cell-wall", "cellfield", "--config", "run.json",
             files={"run.json": config("cf", cell=dict(THZ_CELL, wall_thickness_mm=-2))}),
    cli_case("refuse-cell-frequency", "cellfield", "--config", "run.json",
             files={"run.json": config("cf", cell=dict(THZ_CELL, rf_frequency_ghz=0))}),
    sweep_case("refuse-sweep-grazing", {"plane": "XY", "angles_deg": [0, 90], "use_cell": True}, cell=THZ_CELL),
    cli_case("refuse-cellfield-grazing", "cellfield", "--preset", "thz-33s", "--angles", "[0, 90]"),
    cli_case("refuse-ladder-probe", "spectrum", "--config", "run.json",
             files={"run.json": config("spec", drive={"rabi_mhz": 10.0}, ladder=dict(LADDER, probe_rabi_mhz=-0.1))}),
    cli_case("refuse-drive-negative", "spectrum", "--config", "run.json",
             files={"run.json": config("spec", drive={"rabi_mhz": -2.0}, ladder=LADDER)}),
    # an empty output flag is refused as an empty output key is
    cli_case("refuse-empty-basename", "cellfield", "--preset", "thz-33s", "--basename", ""),
    # a NUL byte in an output name is refused before any physics runs
    cli_case("refuse-output-nul", "cellfield", "--config", "run.json",
             files={"run.json": config("a\0b", cell=THZ_CELL)}),
]


def write_inputs(case_dir: str, files: dict) -> None:
    """Make the case's directory and write its config files there."""
    os.makedirs(case_dir)
    for name, payload in files.items():
        with open(os.path.join(case_dir, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)


def run_case(src: str, case_dir: str, files: dict, commands: list) -> list[tuple[int, bytes, bytes]]:
    write_inputs(case_dir, files)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "rydant.cli", *argv], cwd=case_dir, env=env,
                              capture_output=True, timeout=600)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def artifacts(case_dir: str) -> dict[str, bytes]:
    found = {}
    for root, _, names in os.walk(case_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, case_dir)] = fh.read()
    return found


def first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return f"line {i + 1}: parent {la[:120]!r} / change {lb[:120]!r}"
    return f"{len(lines_a)} lines in parent, {len(lines_b)} in change"


def parsed(path: str, data: bytes):
    """A JSON artifact as its document; a CSV one as its header and columns, numbers as floats; else None."""
    text = data.decode(errors="replace")
    if path.endswith(".json"):
        try:
            return json.loads(text)
        except ValueError:
            return None
    if path.endswith(".csv"):
        def cell(value):
            try:
                return float(value)
            except ValueError:
                return value

        header, *rows = text.splitlines() or [""]
        cells = [row.split(",") for row in rows]
        names = header.split(",")
        if any(len(row) != len(names) for row in cells):
            return None
        return {"header": names, "columns": [[cell(row[i]) for row in cells] for i in range(len(names))]}
    return None


def numbers(path: str, data: bytes) -> list[tuple[str, float]] | None:
    """Every number of a CSV or JSON artifact with its column or key, in order; None for other files."""
    content = parsed(path, data)
    if content is None:
        return None
    if path.endswith(".csv"):
        content = dict(zip(content["header"], content["columns"]))
    found = []

    def walk(node, key):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], k)
        elif isinstance(node, list):
            for item in node:
                walk(item, key)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            found.append((key, float(node)))

    walk(content, "")
    return found


def largest_differences(path: str, a: bytes, b: bytes) -> str:
    """The largest absolute and relative difference per column or key between two CSV or JSON artifacts."""
    old, new = numbers(path, a), numbers(path, b)
    if old is None or new is None:
        return ""
    if [label for label, _ in old] != [label for label, _ in new]:
        return "; numbers not comparable"
    largest = {}
    for (label, x), (_, y) in zip(old, new):
        gap = abs(x - y)
        relative = gap / max(abs(x), abs(y)) if gap else 0.0
        previous = largest.get(label, (0.0, 0.0))
        largest[label] = (max(previous[0], gap), max(previous[1], relative))
    moved = [f"{label or 'value'} {gap:.2g} (relative {rel:.2g})"
             for label, (gap, rel) in sorted(largest.items()) if gap]
    return f"; largest numeric differences: {', '.join(moved) or 'none'}"


def scans_spectrum(files: dict, commands: list) -> bool:
    """Whether a case scans a ladder spectrum: a `spectrum` command, or a sweep config with the spectrum readout."""
    return any(argv[0] == "spectrum" for argv in commands) or any(
        isinstance(payload, dict) and payload.get("sweep", {}).get("readout") == "spectrum"
        for payload in files.values())


def host() -> dict:
    """The numpy version and the BLAS it was built against."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "blas": blas}


def case_records(name: str, files: dict, commands: list, results: list, case_dir: str) -> list[dict]:
    """What one case left behind, as manifest lines: the case, then one line per command and per file."""
    records = [{"case": name, "spectrum": scans_spectrum(files, commands)}]
    for argv, (code, out, err) in zip(commands, results):
        records.append({"case": name, "command": argv, "exit": code, "stdout": out.decode(), "stderr": err.decode()})
    for path, data in sorted(artifacts(case_dir).items()):
        entry = {"case": name, "file": path, "sha256": hashlib.sha256(data).hexdigest()}
        content = None if path in files else parsed(path, data)
        if content is not None:
            entry["parsed"] = content
        records.append(entry)
    return records


def write_manifest(path: str, src: str, work: str) -> None:
    lines = [host()]
    for name, files, commands in CASES:
        case_dir = os.path.join(work, name)
        lines += case_records(name, files, commands, run_case(src, case_dir, files, commands), case_dir)
        print(f"{name}: recorded", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    print(f"\n{len(CASES)} cases written to {path}")


def read_manifest(path: str) -> tuple[dict, dict]:
    """A manifest as (host, {case: {"spectrum", "commands": [...], "files": {path: entry}}})."""
    with open(path, encoding="utf-8") as fh:
        host_line, *lines = (json.loads(line) for line in fh)
    cases = {}
    for line in lines:
        case = cases.setdefault(line.pop("case"), {"commands": [], "files": {}})
        if "command" in line:
            case["commands"].append(line)
        elif "file" in line:
            case["files"][line.pop("file")] = line
        else:
            case.update(line)
    return host_line, cases


def compare(name: str, commands: list, parent_dir: str, change_dir: str, results: tuple) -> list[str]:
    problems = []
    for argv, old, new in zip(commands, *results):
        label = f"{name}: rydant {' '.join(argv)}"
        if old[0] != new[0]:
            problems.append(f"{label}: exit code {old[0]} -> {new[0]}")
        for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
            if a != b:
                problems.append(f"{label}: {stream} differs, {first_difference(a, b)}")
    old_files, new_files = artifacts(parent_dir), artifacts(change_dir)
    for path in sorted(set(old_files) | set(new_files)):
        if path not in new_files:
            problems.append(f"{name}: {path} written by the parent only")
        elif path not in old_files:
            problems.append(f"{name}: {path} written by the change only")
        elif old_files[path] != new_files[path]:
            problems.append(f"{name}: {path} differs, {first_difference(old_files[path], new_files[path])}"
                            f"{largest_differences(path, old_files[path], new_files[path])}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout to compare against")
    parser.add_argument("--change", help="checkout under test")
    parser.add_argument("--manifest", help="write the manifest of the --source checkout to this path")
    parser.add_argument("--source", help="checkout whose runs --manifest records")
    parser.add_argument("--work", default=None, help="empty or new directory for the runs (default: a temporary one)")
    args = parser.parse_args(argv)
    trees = (args.source,) if args.manifest else (args.parent, args.change)
    if args.manifest and (args.parent or args.change):
        parser.error("--manifest takes --source, not --parent or --change")
    for src in trees:
        if src is None:
            parser.error("give --parent and --change, or --manifest and --source")
        if not os.path.isfile(os.path.join(src, "src", "rydant", "cli.py")):
            parser.error(f"{src} holds no src/rydant/cli.py")
    work = args.work or tempfile.mkdtemp(prefix="rydant-golden-")
    if os.path.exists(work) and os.listdir(work):
        parser.error(f"--work {work} is not empty")
    if args.manifest:
        write_manifest(args.manifest, args.source, work)
        return 0

    problems, commands_run, artifact_count = [], 0, 0
    for name, files, commands in CASES:
        dirs = [os.path.join(work, side, name) for side in ("parent", "change")]
        results = tuple(run_case(src, d, files, commands) for src, d in zip((args.parent, args.change), dirs))
        found = compare(name, commands, *dirs, results)
        commands_run += len(commands)
        artifact_count += len(artifacts(dirs[0]))
        print(f"{name}: {'identical' if not found else f'{len(found)} difference(s)'}", flush=True)
        problems += found
    print(f"\n{len(CASES)} cases, {commands_run} commands, {artifact_count} files per tree, work directory {work}")
    for problem in problems:
        print(problem)
    print("byte-identical" if not problems else f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
