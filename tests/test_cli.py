import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import (
    branch_splittings,
    build_interaction_paper,
    closed_form_delta_at,
    eigen_closed_form,
    wrap_orientation,
)
from rydant.cli import _csv, _dressed_levels, cmd_eigen, main, write_outputs
from rydant.config import MHZ
from rydant.hamiltonian import RfDrive, hamiltonian_array
from rydant.patterns import PLANES, dipole_reference, json_text
from test_config import ANGLE_SPECS, CONFIG_VALUES, MUTABLE_KEYS, make_config, mutate


def write_config(tmp_path, name="run.json", **sections):
    payload = {"schema_version": 1}
    payload.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def sweep_config(tmp_path, **overrides):
    sections = dict(
        seed=0,
        system={"two_jg": 1, "two_je": 3, "mu_mhz_per_v_per_m": 1.0},
        drive={"rabi_mhz": 10.0},
        sweep={"plane": "XY", "angles_deg": "0:5:360"},
        output={"directory": str(tmp_path / "out"), "basename": "case"},
    )
    sections.update(overrides)
    return write_config(tmp_path, **sections)


class TestEigenCommand:
    def test_table_and_splitting(self, capsys):
        code = main(
            ["eigen", "--rabi-mhz", "4", "--detuning-mhz", "3", "--chi", str(math.pi / 2)]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index  closed_form_mhz  numeric_mhz"
        assert len([l for l in lines if l and l[0].isdigit()]) == 6
        delta_line = next(l for l in lines if l.startswith("delta_at_mhz"))
        assert float(delta_line.split("=")[1]) == pytest.approx(5.0, rel=1e-9)

    def test_random_drives_match_the_reference_block(self, capsys):
        # Printed at 9 significant digits, so each value is held to acceptance
        # criterion 2's 1e-10 of the spectrum scale plus half a unit in its
        # ninth digit.
        def close(printed, expected, scale):
            return abs(printed - expected) <= 1e-10 * scale + 5e-9 * abs(expected)

        rng = np.random.default_rng(1207)
        for k in range(40):
            rabi = float(rng.uniform(0.5, 50.0))
            detuning = [0.0, rabi / 2, -rabi / 2, float(rng.uniform(-30.0, 30.0))][k % 4]
            chi, theta = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
            phi = 0.0 if k % 8 < 5 else float(rng.uniform(0, 2 * math.pi))
            argv = ["eigen", "--rabi-mhz", repr(rabi), "--detuning-mhz", repr(detuning),
                    "--chi", repr(chi), "--theta", repr(theta), "--phi", repr(phi)]
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            drive = RfDrive(rabi * MHZ, detuning * MHZ)
            block = build_interaction_paper(drive, wrap_orientation(chi, theta, phi))
            expected = np.linalg.eigvalsh(hamiltonian_array(block, drive.detuning)) / MHZ
            numeric = [float(line.split()[2]) for line in lines[1:7]]
            scale = max(1.0, float(np.abs(expected).max()))
            assert all(close(got, want, scale) for got, want in zip(numeric, expected)), (argv, numeric)
            delta_lines = [line for line in lines if line.startswith("delta_at_mhz = ")]
            if phi == 0.0:
                want = closed_form_delta_at(1, rabi, detuning)
                assert close(float(delta_lines[0].split("=")[1]), want, want), argv
            else:
                assert not delta_lines and "elliptical drive (phi != 0): two branch splittings" in lines

    def test_elliptical_drive_reports_both_branches(self, capsys):
        code = main(
            [
                "eigen", "--rabi-mhz", "4",
                "--chi", str(math.pi / 4), "--phi", str(math.pi / 2),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "elliptical drive" in out
        plus = next(l for l in out.splitlines() if l.startswith("branch_plus_mhz"))
        minus = next(l for l in out.splitlines() if l.startswith("branch_minus_mhz"))
        assert float(plus.split("=")[1]) == pytest.approx(math.sqrt(24.0), rel=1e-8)
        assert float(minus.split("=")[1]) == pytest.approx(math.sqrt(8.0), rel=1e-8)

    def test_same_field_same_output(self, capsys):
        # (chi, theta + pi, phi + pi) is the polarization vector of (chi, theta, phi)
        outputs = []
        for theta, phi in ((0.3, 0.4), (0.3 + math.pi, 0.4 + math.pi), (3.4416, 3.5416)):
            argv = ["eigen", "--rabi-mhz", "10", "--detuning-mhz", "5", "--chi", "0.8",
                    "--theta", repr(theta), "--phi", repr(phi)]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
            branch = {k: float(v) for k, v in (l.split(" = ") for l in outputs[-1].splitlines() if " = " in l)}
            assert branch["branch_plus_mhz"] > branch["branch_minus_mhz"], argv
        assert outputs[0] == outputs[1]

    def test_printed_columns_match_the_hand_derived_closed_forms(self):
        """cmd_eigen's columns against the 1/2 -> 3/2 closed forms, over unwrapped angles."""

        def printed_close(printed, want, scale):
            # want at 9 significant digits, give or take 1e-12 of the scale
            top = max(abs(printed), abs(want))
            half_unit = 0.5 * 10.0 ** (math.floor(math.log10(top)) - 8) if top else 0.0
            return abs(printed - want) <= half_unit + 1e-12 * scale

        rng = np.random.default_rng(1619)
        linear = 0
        for k in range(2000):
            rabi = float(10.0 ** rng.uniform(-2.0, 3.0))
            detuning = [0.0, rabi / 2, -rabi / 2, float(rng.uniform(-3.0, 3.0)) * rabi][k % 4]
            chi, theta, phi = (float(v) for v in rng.uniform(-20.0, 20.0, 3))
            if k % 5 == 0:
                phi = [0.0, math.pi, -3 * math.pi][k % 3]
            elif k % 5 == 1:
                chi = [0.0, math.pi / 2, math.pi][k % 3]
            drive = RfDrive(rabi * MHZ, detuning * MHZ)
            orientation = wrap_orientation(chi, theta, phi)
            hand = eigen_closed_form(drive, orientation) / MHZ
            pair = sorted(branch_splittings(drive, orientation))
            scale = float(np.abs(hand).max())
            closed, _, modes = _dressed_levels(drive, chi, theta, phi)
            assert np.abs(closed / MHZ - hand).max() <= 1e-12 * scale, k
            assert np.abs(modes - pair).max() <= 1e-12 * pair[1], k

            out = io.StringIO()
            args = argparse.Namespace(rabi_mhz=rabi, detuning_mhz=detuning, chi=chi, theta=theta, phi=phi, csv=None)
            with contextlib.redirect_stdout(out):
                assert cmd_eigen(args) == {}
            lines = out.getvalue().splitlines()
            printed = [float(line.split()[1]) for line in lines[1:7]]
            assert all(printed_close(p, h, scale) for p, h in zip(printed, hand)), (k, printed, hand)
            values = {key: float(v) for key, v in (line.split(" = ") for line in lines[7:] if " = " in line)}
            if abs(pair[1] - pair[0]) <= 1e-12 * max(pair[1], 1.0):
                linear += 1
                assert list(values) == ["delta_at_mhz"], k
                assert printed_close(values["delta_at_mhz"], pair[1] / MHZ, scale), k
            else:
                assert list(values) == ["branch_plus_mhz", "branch_minus_mhz"] and "elliptical" in lines[7], k
                assert printed_close(values["branch_plus_mhz"], pair[1] / MHZ, scale), k
                assert printed_close(values["branch_minus_mhz"], pair[0] / MHZ, scale), k
        assert 600 < linear < 1000

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "eigen.csv"
        code = main(["eigen", "--rabi-mhz", "2", "--csv", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "index,closed_form_mhz,numeric_mhz"
        assert len(lines) == 7

    def test_invalid_drive_is_refused_naming_the_flag(self, capsys):
        code = main(["eigen", "--rabi-mhz", "-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: --rabi-mhz must be finite and >= 0, got -6283185.307179586 rad/s\n"
        )

    @pytest.mark.parametrize("command", [["eigen"], ["spectrum", "--preset", "thz-33s"]])
    @pytest.mark.parametrize(
        "flag,value,rule",
        [
            ("--rabi-mhz", "1e300", "MAGNITUDE_RANGE"),
            ("--rabi-mhz", "1e-12", "MAGNITUDE_RANGE"),
            ("--rabi-mhz", "nan", "finite"),
            ("--rabi-mhz", "-inf", "finite"),
            ("--detuning-mhz", "-1e300", "MAGNITUDE_RANGE"),
            ("--detuning-mhz", "inf", "finite"),
        ],
    )
    def test_drive_flags_follow_the_config_rules(self, tmp_path, capsys, command, flag, value, rule):
        args = [*command, "--out-dir", str(tmp_path)] if command[0] == "spectrum" else command
        if flag != "--rabi-mhz":
            args = [*args, "--rabi-mhz", "10"]
        assert main([*args, f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag} must") and rule in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value", [("--chi", "nan"), ("--theta", "inf"), ("--phi", "nan"), ("--chi", "-inf")])
    def test_orientation_flags_are_refused_naming_the_flag(self, capsys, flag, value):
        assert main(["eigen", "--rabi-mhz", "10", f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"config error: {flag} must be finite, got {value}\n"

    def test_spectrum_checks_the_flags_a_drive_section_overrides(self, tmp_path, capsys):
        config = write_config(tmp_path, drive={"rabi_mhz": 12.0})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", config, "--out-dir", str(out), "--detuning-mhz", "nan"]) == 2
        assert capsys.readouterr().err.startswith("config error: --detuning-mhz must be finite")
        assert main(["spectrum", "--config", config, "--out-dir", str(out), "--rabi-mhz", "30"]) == 2
        assert capsys.readouterr().err.startswith("config error: --rabi-mhz cannot be given beside")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0"])
    def test_spectrum_refuses_a_detuning_flag_beside_a_drive_section(self, tmp_path, capsys, value):
        config = write_config(tmp_path, drive={"rabi_mhz": 12.0})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", config, "--out-dir", str(out), f"--detuning-mhz={value}"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --detuning-mhz cannot be given beside the config's drive section\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,rabi,detuning",
        [([], 10.0, 0.0), (["--rabi-mhz", "30"], 30.0, 0.0), (["--detuning-mhz", "4", "--rabi-mhz", "6"], 6.0, 4.0)],
    )
    def test_spectrum_takes_the_flags_without_a_drive_section(self, tmp_path, capsys, flags, rabi, detuning):
        config = write_config(tmp_path, scan={"min_mhz": -25.0, "max_mhz": 25.0, "points": 601})
        assert main(["spectrum", "--config", config, "--out-dir", str(tmp_path), *flags]) == 0
        summary = json.loads((tmp_path / "rydant_spectrum.json").read_text())
        assert (summary["rf_rabi_mhz"], summary["rf_detuning_mhz"]) == pytest.approx((rabi, detuning), rel=1e-12)

    @pytest.mark.parametrize(
        "rabi,detuning", [(-1.0, 0.0), (1e300, 0.0), (1e-12, 0.0), (-1e300, 0.0), (10.0, -1e300), (10.0, 1e-320)]
    )
    def test_flags_and_config_keys_share_one_drive_rule(self, tmp_path, capsys, rabi, detuning):
        assert main(["eigen", f"--rabi-mhz={rabi!r}", f"--detuning-mhz={detuning!r}"]) == 2
        flag_err = capsys.readouterr().err
        config = sweep_config(tmp_path, drive={"rabi_mhz": rabi, "detuning_mhz": detuning})
        assert main(["sweep", "--config", config]) == 2
        config_err = capsys.readouterr().err
        renamed = config_err.replace("drive.rabi_mhz", "--rabi-mhz").replace("drive.detuning_mhz", "--detuning-mhz")
        assert renamed == flag_err

    @pytest.mark.parametrize("rabi,detuning", [("0", "0"), ("1e-9", "-1e9"), ("1e9", "1e-9")])
    def test_drive_flags_at_the_config_limits_run(self, capsys, rabi, detuning):
        assert main(["eigen", f"--rabi-mhz={rabi}", f"--detuning-mhz={detuning}"]) == 0
        assert "delta_at_mhz" in capsys.readouterr().out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "none.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["spectrum", "--preset", "thz-33s"], ["cellfield", "--preset", "thz-33s"]])
    def test_seed_is_a_sweep_flag_only(self, tmp_path, capsys, command):
        assert main([*command, "--seed", "3", "--out-dir", str(tmp_path)]) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_cellfield_angle_and_angles_together(self, tmp_path, capsys):
        code = main(["cellfield", "--preset", "thz-33s", "--angles", "0:10:90", "--angle-deg", "30",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--angle-deg" in err and "--angles" in err and "not allowed with" in err
        assert not list(tmp_path.iterdir())


class TestRefusedInput:
    """Input the program cannot handle ends in exit 2 and a message naming the key."""

    @pytest.mark.parametrize(
        "angles,key",
        [("0:1:inf", "angles_deg"), ("nan:1:10", "angles_deg"), ("0:1e-9:360", "MAX_ANGLES")],
    )
    def test_bad_angle_grids(self, tmp_path, capsys, angles, key):
        config = sweep_config(tmp_path, sweep={"plane": "XZ", "angles_deg": angles})
        assert main(["sweep", "--config", config]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_json_nan_literal(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"schema_version": 1, "cell": {"wall_thickness_mm": 2, "inner_length_mm": 20, '
            '"rf_frequency_ghz": NaN}}'
        )
        assert main(["cellfield", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "rf_frequency_ghz" in err and "Traceback" not in err

    @pytest.mark.parametrize("angles", ["0:1:inf", "[0, NaN]", "[Infinity]"])
    def test_cellfield_angles(self, tmp_path, capsys, angles):
        code = main(["cellfield", "--preset", "thz-33s", "--angles", angles, "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--angles" in err and "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--angles", "[10, 89.99999999]"),
            ("--angles", "0:30:120"),
            ("--angles", "[-5]"),
            ("--angle-deg", "89.9999999"),
            ("--angle-deg", "89.999999999999"),
            ("--angle-deg", "-1"),
            ("--angle-deg", "nan"),
        ],
    )
    def test_cellfield_incidence_outside_the_stack_model(self, tmp_path, capsys, flag, value):
        code = main(["cellfield", "--preset", "thz-33s", flag, value, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag}: incidence") and "grazing" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_cellfield_incidence_just_inside_grazing_runs(self, tmp_path, capsys):
        # sin(89.9999 deg) = 1 - 1.5e-12: still a propagating incident wave
        args = ["cellfield", "--preset", "thz-33s", "--out-dir", str(tmp_path)]
        assert main([*args, "--angles", "[10, 89.9999]", "--polarization", "TM"]) == 0
        assert main([*args, "--angle-deg", "89.9999"]) == 0

    def test_oversized_scan(self, tmp_path, capsys):
        config = write_config(
            tmp_path, drive={"rabi_mhz": 10.0}, scan={"min_mhz": -20.0, "max_mhz": 20.0, "points": 10**10}
        )
        assert main(["spectrum", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "scan.points" in err and "MAX_SCAN_POINTS" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["cellfield", "sweep"])
    def test_oversized_cell_profile(self, tmp_path, capsys, command):
        cell = {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 1e9}
        config = sweep_config(tmp_path, cell=cell, sweep={"plane": "XY", "angles_deg": "0:30:90", "use_cell": True})
        assert main([command, "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cell.rf_frequency_ghz" in err and "cell.inner_length_mm" in err and "Traceback" not in err

    @pytest.mark.parametrize("readout", ["eigen", "spectrum"])
    def test_overflowing_noise(self, tmp_path, capsys, readout):
        sweep = {"plane": "XZ", "angles_deg": "0:30:90", "readout": readout, "noise_sigma_db": 1e5}
        config = sweep_config(tmp_path, sweep=sweep)
        assert main(["sweep", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "sweep.noise_sigma_db" in err and "Traceback" not in err

    @pytest.mark.parametrize("two_jg,two_je", [(1, 1), (3, 3), (2, 2), (3, 1), (5, 3), (2, 0)])
    def test_unsupported_transitions(self, tmp_path, capsys, two_jg, two_je):
        system = {"two_jg": two_jg, "two_je": two_je, "mu_mhz_per_v_per_m": 1.0}
        for readout in ("eigen", "spectrum"):
            config = sweep_config(
                tmp_path, system=system, sweep={"plane": "XZ", "angles_deg": "0:30:90", "readout": readout}
            )
            assert main(["sweep", "--config", config]) == 2
            err = capsys.readouterr().err
            assert "system.two_je" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides,args,key",
        [
            ({"drive": {"rabi_mhz": 0.0}}, [], "rabi"),
            ({"seed": -3}, [], "seed must be >= 0"),
            ({}, ["--seed", "-1"], "seed must be >= 0"),
            ({"sweep": {"plane": "XY", "angles_deg": [0, 90], "use_cell": True}}, [], "sweep.angles_deg"),
            ({"cell": {"wall_thickness_mm": 6524.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6}}, [], "MAX_STACK_NEPERS"),
            ({"cell": {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6, "wall_index_re": 1e200}}, [], "MAX_STACK_NEPERS"),
        ],
    )
    def test_sweep_plans_the_physics_cannot_run(self, tmp_path, capsys, overrides, args, key):
        sections = {
            "cell": {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6},
            "sweep": {"plane": "XY", "angles_deg": "2.5:5:360", "use_cell": True, "noise_sigma_db": 0.5},
        }
        sections.update(overrides)
        config = sweep_config(tmp_path, **sections)
        assert main(["sweep", "--config", config, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "Traceback" not in err

    def test_negative_seed_flag_names_the_flag(self, tmp_path, capsys):
        assert main(["sweep", "--config", sweep_config(tmp_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "drive,mu",
        [
            ({"rabi_mhz": 1e-9, "detuning_mhz": -1e9}, 1e9),
            ({"rabi_mhz": 1e9, "detuning_mhz": 1e-9}, 1e-9),
            ({"rabi_mhz": 1e-9}, 1e-9),
        ],
    )
    def test_noisy_cell_sweeps_at_the_magnitude_corners_stay_finite(self, tmp_path, capsys, drive, mu):
        cell = {"wall_thickness_mm": 20.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6, "wall_index_im": -0.4}
        sweep = {"plane": "XY", "angles_deg": "0.5:7:360", "use_cell": True, "noise_sigma_db": 100.0}
        system = {"two_jg": 1, "two_je": 3, "mu_mhz_per_v_per_m": mu}
        config = sweep_config(tmp_path, drive=drive, system=system, cell=cell, sweep=sweep)
        assert main(["sweep", "--config", config]) == 0
        doc = json.loads((tmp_path / "out" / "case_pattern.json").read_text())
        assert all(math.isfinite(s["raw_ratio"]) and s["raw_ratio"] > 0 for s in doc["samples"])
        assert math.isfinite(doc["deviation_db"])

    def test_opaque_cell_under_cellfield(self, tmp_path, capsys):
        cell = {"wall_thickness_mm": 1000.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6}
        config = write_config(tmp_path, cell=cell)
        assert main(["cellfield", "--config", config, "--angles", "0:10:90", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "MAX_STACK_NEPERS" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("two_jg", [11, 10001])
    def test_momenta_past_the_verified_range(self, tmp_path, capsys, two_jg):
        system = {"two_jg": two_jg, "two_je": two_jg + 2, "mu_mhz_per_v_per_m": 1.0}
        config = sweep_config(tmp_path, system=system, sweep={"plane": "XZ", "angles_deg": "0:1:360"})
        assert main(["sweep", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: system.two_jg") and "MAX_TWO_JG" in err

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"sweep": {"plane": "XW", "angles_deg": "0:10:90"}}, "sweep.plane must be XY, XZ or YZ, got 'XW'"),
            (
                {"sweep": {"plane": "XY", "angles_deg": "0:10:90", "readout": "fast"}},
                "sweep.readout must be 'eigen' or 'spectrum', got 'fast'",
            ),
            ({"sweep": {"plane": "XY", "angles_deg": "0:10:90", "use_cell": 1}}, "sweep.use_cell must be a boolean"),
            ({"drive": [10.0]}, "drive must be an object"),
            ({"sweep": "XY"}, "sweep must be an object"),
            ({"output": {"basename": ""}}, "output.basename must be a non-empty string"),
        ],
    )
    def test_malformed_sweep_sections(self, tmp_path, capsys, overrides, message):
        config = sweep_config(tmp_path, **overrides)
        assert main(["sweep", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("two_jg,two_je", [(0, 2), (1, 3), (2, 4), (3, 5), (5, 7), (9, 11)])
    def test_supported_transitions_resolve_an_eigen_sweep(self, tmp_path, capsys, two_jg, two_je):
        system = {"two_jg": two_jg, "two_je": two_je, "mu_mhz_per_v_per_m": 1.0}
        config = sweep_config(tmp_path, system=system, sweep={"plane": "XZ", "angles_deg": "0:15:180"})
        assert main(["sweep", "--config", config]) == 0
        assert "isotropic_deviation_db" in capsys.readouterr().out


class TestImports:
    """No subcommand loads scipy or numpy.random, and no module under src/rydant reaches either."""

    def test_no_subcommand_loads_scipy(self, tmp_path):
        doppler = {"probe_rabi_mhz": 0.1, "coupling_rabi_mhz": 1.0, "doppler_sigma_mhz": 1.0}
        spectrum = write_config(tmp_path, drive={"rabi_mhz": 20.0}, ladder=doppler,
                                output={"directory": "out", "basename": "sp"})
        sweep = sweep_config(tmp_path, name="sweep.json", ladder=doppler,
                             scan={"min_mhz": -30.0, "max_mhz": 30.0, "points": 201},
                             sweep={"plane": "XZ", "angles_deg": [0, 60], "readout": "spectrum"})
        noisy = sweep_config(tmp_path, name="noisy.json", output={"directory": "out", "basename": "noisy"},
                             sweep={"plane": "XY", "angles_deg": "0:30:360", "noise_sigma_db": 0.5})
        runs = [
            ["eigen", "--rabi-mhz", "10", "--detuning-mhz", "2", "--csv", "eigen.csv"],
            ["spectrum", "--preset", "thz-33s", "--rabi-mhz", "10"],
            ["spectrum", "--config", spectrum],
            ["sweep", "--config", sweep],
            ["sweep", "--config", noisy, "--seed", "9"],
            ["cellfield", "--preset", "thz-33s", "--angles", "0:30:90"],
            ["compare", "out/case_pattern.json", "out/case_pattern.json"],
        ]
        code = (
            "import sys; from rydant.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.random')))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.stdout.splitlines()[-1] == f"{[0] * len(runs)} []", done.stderr

    @staticmethod
    def refused(tree) -> list[int]:
        """Lines of tree that import scipy or numpy.random, or read np.random / numpy.random."""
        lines = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{'numpy' if node.value.id == 'np' else node.value.id}.{node.attr}"]
            else:
                continue
            if any(n.split(".")[0] == "scipy" or n.split(".")[:2] == ["numpy", "random"] for n in names):
                lines.append(node.lineno)
        return lines

    def test_no_module_imports_scipy_or_numpy_random(self):
        import rydant

        sources = sorted(Path(rydant.__file__).parent.rglob("*.py"))
        assert len(sources) >= 9
        for source in sources:
            assert self.refused(ast.parse(source.read_text(), str(source))) == [], source.name

    @pytest.mark.parametrize(
        "line",
        ["import numpy.random", "from numpy import random", "from numpy.random import default_rng",
         "x = np.random.default_rng(0)", "numpy.random.normal()", "import scipy.stats", "from scipy import signal"],
    )
    def test_the_walk_sees_each_spelling(self, line):
        assert self.refused(ast.parse(line)) == [1]


class TestPublicApi:
    """rydant.__all__ is sorted, unique and resolvable, and the retired one-row forms stay out."""

    REMOVED = (
        "Orientation",
        "SphericalPolarization",
        "branch_splittings",
        "build_interaction_general",
        "decompose_polarization",
        "eigen_closed_form",
        "plane_to_orientation",
        "steady_state",
        "steady_state_rho",
    )

    def test_exports_are_sorted_unique_and_resolve(self):
        import rydant

        assert rydant.__all__ == sorted(set(rydant.__all__))
        for name in rydant.__all__:
            assert getattr(rydant, name, None) is not None, name
        for name in self.REMOVED:
            assert name not in rydant.__all__ and not hasattr(rydant, name), name


class TestSweepCommand:
    def test_ideal_sweep_outputs(self, tmp_path, capsys):
        config = sweep_config(tmp_path)
        code = main(["sweep", "--config", config])
        out = capsys.readouterr().out
        assert code == 0

        dev_line = next(l for l in out.splitlines() if l.startswith("isotropic_deviation_db"))
        assert float(dev_line.split("=")[1]) < 1e-10

        out_dir = tmp_path / "out"
        for suffix in ("_pattern.csv", "_pattern.json", "_polar.csv"):
            assert (out_dir / f"case{suffix}").exists()

        doc = json.loads((out_dir / "case_pattern.json").read_text())
        assert doc["kind"] == "gain_pattern"
        assert doc["plane"] == "XY"
        assert len(doc["samples"]) == 72

    def test_rerun_is_byte_identical(self, tmp_path):
        config = sweep_config(
            tmp_path, sweep={"plane": "XY", "angles_deg": "0:5:360", "noise_sigma_db": 0.2}
        )
        assert main(["sweep", "--config", config]) == 0
        out_dir = tmp_path / "out"
        first = {
            p.name: p.read_bytes() for p in out_dir.iterdir() if p.name.startswith("case")
        }
        assert main(["sweep", "--config", config]) == 0
        second = {
            p.name: p.read_bytes() for p in out_dir.iterdir() if p.name.startswith("case")
        }
        assert first == second
        assert len(first) == 3

    def test_seed_flag_overrides_config(self, tmp_path):
        config = sweep_config(tmp_path)
        assert main(["sweep", "--config", config, "--seed", "9"]) == 0
        doc = json.loads((tmp_path / "out" / "case_pattern.json").read_text())
        assert doc["seed"] == 9

    def test_missing_drive_section(self, tmp_path, capsys):
        config = sweep_config(tmp_path)
        payload = json.loads(open(config).read())
        del payload["drive"]
        open(config, "w").write(json.dumps(payload))
        code = main(["sweep", "--config", config])
        assert code == 2
        assert "drive" in capsys.readouterr().err

    def test_use_cell_without_cell_section(self, tmp_path, capsys):
        config = sweep_config(
            tmp_path, sweep={"plane": "XY", "angles_deg": "0:10:90", "use_cell": True}
        )
        assert main(["sweep", "--config", config]) == 2

    def test_cell_modulated_sweep(self, tmp_path, capsys):
        config = sweep_config(
            tmp_path,
            cell={"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6},
            sweep={"plane": "XY", "angles_deg": "0:10:90", "use_cell": True},
        )
        code = main(["sweep", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        dev_line = next(l for l in out.splitlines() if l.startswith("isotropic_deviation_db"))
        assert float(dev_line.split("=")[1]) > 0.1


class TestWriteOutputs:
    def test_files_land_with_their_bytes_and_mode(self, tmp_path):
        files = {str(tmp_path / "b.csv"): "x,y\n1,2\n", str(tmp_path / "a.json"): "{}\n"}
        write_outputs(files)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.csv"]
        for path, text in files.items():
            assert open(path, "rb").read() == text.encode()
            assert os.stat(path).st_mode & 0o777 == 0o644

    def test_a_failure_in_staging_writes_nothing(self, tmp_path):
        kept = tmp_path / "kept.txt"
        kept.write_text("old")
        with pytest.raises(FileNotFoundError):
            write_outputs({str(kept): "new", str(tmp_path / "missing" / "second.txt"): "new"})
        assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"] and kept.read_text() == "old"

    def test_a_missing_directory_is_reported_against_the_target(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        errors = []
        for _ in range(2):
            assert main(["eigen", "--rabi-mhz", "1", "--csv", "missing/x.csv"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "error: [Errno 2] No such file or directory: 'missing/x.csv'\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,key", [("--out-dir", "directory"), ("--basename", "basename")])
    @pytest.mark.parametrize("command", ["sweep", "spectrum", "cellfield"])
    def test_empty_output_flags_are_refused_like_empty_keys(self, tmp_path, monkeypatch, capsys, command, flag, key):
        monkeypatch.chdir(tmp_path)
        config = sweep_config(tmp_path)
        argv = ["--config", config] if command == "sweep" else ["--preset", "thz-33s"]
        assert main([command, *argv, flag, ""]) == 2
        assert capsys.readouterr() == ("", f"config error: {flag} must be a non-empty string\n")
        assert main(["sweep", "--config", sweep_config(tmp_path, output={key: ""})]) == 2
        assert capsys.readouterr() == ("", f"config error: output.{key} must be a non-empty string\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_csv_rows(self):
        rows = [("XY", 3, 1.0 / 3.0), ("YZ", 12345678901, np.float64(2.5e-10))]
        text = _csv("plane,index,value", rows)
        assert text == "plane,index,value\nXY,3,0.333333333\nYZ,12345678901,2.5e-10\n"

    def test_a_directory_target_writes_nothing(self, tmp_path, capsys):
        config = sweep_config(tmp_path)
        out = tmp_path / "out"
        (out / "case_polar.csv").mkdir(parents=True)
        assert main(["sweep", "--config", config]) == 1
        assert capsys.readouterr().err == f"error: output {out / 'case_polar.csv'} is a directory\n"
        assert [p.name for p in out.iterdir()] == ["case_polar.csv"] and (out / "case_polar.csv").is_dir()


class TestSpectrumCommand:
    def test_placeholder_mu_is_flagged(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            drive={"rabi_mhz": 10.0},
            output={"directory": str(tmp_path / "out"), "basename": "sp"},
        )
        code = main(["spectrum", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "placeholder mu" in out
        doc = json.loads((tmp_path / "out" / "sp_spectrum.json").read_text())
        assert doc["mu_is_placeholder"] is True
        assert doc["delta_at_mhz"] == pytest.approx(10.0, rel=0.05)
        assert doc["field_v_per_m"] == pytest.approx(10.0, rel=0.05)
        trace_lines = (tmp_path / "out" / "sp_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "detuning_hz,transmission"
        assert len(trace_lines) == 1202

    def test_configured_mu_suppresses_the_flag(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            system={"two_jg": 1, "two_je": 3, "mu_mhz_per_v_per_m": 2.0},
            drive={"rabi_mhz": 10.0},
            output={"directory": str(tmp_path / "out"), "basename": "sp"},
        )
        code = main(["spectrum", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "placeholder" not in out
        doc = json.loads((tmp_path / "out" / "sp_spectrum.json").read_text())
        assert doc["mu_is_placeholder"] is False
        assert doc["field_v_per_m"] == pytest.approx(5.0, rel=0.05)

    def test_preset_metadata_lands_in_the_summary(self, tmp_path, capsys):
        code = main(
            [
                "spectrum", "--preset", "thz-33s", "--rabi-mhz", "12",
                "--out-dir", str(tmp_path), "--basename", "pre",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "pre_spectrum.json").read_text())
        assert doc["metadata"]["preset"] == "thz-33s"
        assert doc["metadata"]["rf_frequency_ghz"] == pytest.approx(129.6)
        assert doc["rf_rabi_mhz"] == 12.0

    def test_unresolved_splitting_is_reported_not_fatal(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            drive={"rabi_mhz": 0.01},
            output={"directory": str(tmp_path / "out"), "basename": "flat"},
        )
        code = main(["spectrum", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "no splitting" in out
        doc = json.loads((tmp_path / "out" / "flat_spectrum.json").read_text())
        assert "delta_at_mhz" not in doc

    @pytest.mark.parametrize(
        "ladder,key",
        [
            ({"gamma_e_mhz": 0.0, "gamma_r_mhz": 0.0}, "ladder.gamma_e_mhz"),
            ({"gamma_r_mhz": 0.0}, "ladder.gamma_r_mhz"),
            ({"probe_rabi_mhz": 0.0, "gamma_e_mhz": 0.0}, "ladder.gamma_e_mhz"),
        ],
    )
    def test_ladders_without_a_unique_steady_state_are_refused(self, tmp_path, capsys, ladder, key):
        config = write_config(
            tmp_path,
            drive={"rabi_mhz": 10.0},
            ladder={"probe_rabi_mhz": 0.1, "coupling_rabi_mhz": 1.0, **ladder},
            output={"directory": str(tmp_path / "out"), "basename": "sp"},
        )
        assert main(["spectrum", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be within") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_needs_config_or_preset(self, capsys):
        assert main(["spectrum"]) == 2

    def test_custom_scan_window(self, tmp_path):
        config = write_config(
            tmp_path,
            drive={"rabi_mhz": 10.0},
            scan={"min_mhz": -15.0, "max_mhz": 15.0, "points": 501},
            output={"directory": str(tmp_path / "out"), "basename": "win"},
        )
        assert main(["spectrum", "--config", config]) == 0
        doc = json.loads((tmp_path / "out" / "win_spectrum.json").read_text())
        assert doc["scan_points"] == 501
        assert doc["scan_min_mhz"] == -15.0


class TestCellfieldCommand:
    def test_single_profile(self, tmp_path, capsys):
        code = main(
            [
                "cellfield", "--preset", "thz-33s", "--angle-deg", "0",
                "--out-dir", str(tmp_path), "--basename", "cf",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        avg_line = next(l for l in out.splitlines() if l.startswith("path_average_rel"))
        assert float(avg_line.split("=")[1]) == pytest.approx(0.632025, abs=1e-4)
        profile = (tmp_path / "cf_profile.csv").read_text().splitlines()
        assert profile[0] == "position_m,amplitude_rel"
        doc = json.loads((tmp_path / "cf_cellfield.json").read_text())
        assert doc["walls_disabled"] is False
        assert doc["inner_length_mm"] == pytest.approx(20.0)

    def test_transparent_walls_give_a_flat_unit_profile(self, tmp_path, capsys):
        code = main(
            [
                "cellfield", "--preset", "thz-33s", "--no-walls",
                "--angles", "0:10:90",
                "--out-dir", str(tmp_path), "--basename", "nw",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        dev_line = next(l for l in out.splitlines() if l.startswith("angle_sweep_deviation_db"))
        assert abs(float(dev_line.split("=")[1])) < 1e-9
        rows = (tmp_path / "nw_cellsweep.csv").read_text().splitlines()
        assert rows[0] == "angle_deg,path_avg_rel,gain_db"
        assert len(rows) == 10

    def test_angle_list_as_json(self, tmp_path):
        code = main(
            [
                "cellfield", "--preset", "thz-33s", "--angles", "[0, 30, 60]",
                "--out-dir", str(tmp_path), "--basename", "lst",
            ]
        )
        assert code == 0
        rows = (tmp_path / "lst_cellsweep.csv").read_text().splitlines()
        assert len(rows) == 4
        doc = json.loads((tmp_path / "lst_cellfield.json").read_text())
        assert doc["angles_deg"] == [0.0, 30.0, 60.0]
        assert doc["deviation_db"] >= 0.0

    def test_config_cell_section(self, tmp_path):
        config = write_config(
            tmp_path,
            cell={"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6},
            output={"directory": str(tmp_path / "out"), "basename": "cfg"},
        )
        assert main(["cellfield", "--config", config]) == 0
        assert (tmp_path / "out" / "cfg_profile.csv").exists()

    def test_needs_geometry(self, capsys):
        assert main(["cellfield"]) == 2

    def test_grazing_angle_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "cellfield", "--preset", "thz-33s", "--angle-deg", "90",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --angle-deg") and "Traceback" not in err

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "cellfield", "--preset", "thz-33s", "--angles", "0:15:90",
            "--out-dir", str(tmp_path), "--basename", "rep",
        ]
        assert main(args) == 0
        first = (tmp_path / "rep_cellsweep.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "rep_cellsweep.csv").read_bytes() == first


class TestCompareCommand:
    def make_patterns(self, tmp_path):
        angles = np.radians(np.arange(0.0, 360.0, 1.0))
        iso_path = tmp_path / "iso.json"
        dip_path = tmp_path / "dip.json"
        iso_path.write_text(json_text(dipole_reference(angles, plane="equatorial").to_dict()))
        dip_path.write_text(json_text(dipole_reference(angles, plane="axial").to_dict()))
        return str(iso_path), str(dip_path)

    def test_table_output(self, tmp_path, capsys):
        iso, dip = self.make_patterns(tmp_path)
        code = main(["compare", iso, dip])
        out = capsys.readouterr().out
        assert code == 0
        assert "dipole-axial/analytic" in out
        improvement = next(l for l in out.splitlines() if l.startswith("improvement_db"))
        assert float(improvement.split(":")[1]) == pytest.approx(60.0, abs=1e-9)

    def test_json_export(self, tmp_path):
        iso, dip = self.make_patterns(tmp_path)
        result = tmp_path / "cmp.json"
        assert main(["compare", iso, dip, "--json", str(result)]) == 0
        doc = json.loads(result.read_text())
        assert doc["kind"] == "pattern_comparison"
        assert doc["improvement_db"] == pytest.approx(60.0, abs=1e-9)

    def test_malformed_pattern_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "something-else"}')
        iso, _ = self.make_patterns(tmp_path)
        assert main(["compare", str(bad), iso]) == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,reason",
        [
            (lambda doc: [doc], "JSON object"),
            (lambda doc: dict(doc, deviation_db="x"), "deviation_db must be a number"),
            (lambda doc: dict(doc, deviation_db=math.nan), "deviation_db must be finite"),
            (lambda doc: dict(doc, samples=[]), "samples is empty"),
            (lambda doc: dict(doc, samples=doc["samples"][:1], deviation_db=5.0), "not the spread"),
            (lambda doc: dict(doc, deviation_db=doc["deviation_db"] + 2e-9), "not the spread"),
            (lambda doc: dict(doc, samples=[dict(doc["samples"][0], raw_ratio=math.inf)]), "raw_ratio"),
            (lambda doc: dict(doc, samples=[dict(doc["samples"][0], angle_deg=True)]), "angle_deg"),
            (lambda doc: dict(doc, samples=[dict(doc["samples"][0], raw_ratio=0)]), "raw_ratio must be > 0, got 0.0"),
            (lambda doc: dict(doc, samples=[dict(doc["samples"][0], raw_ratio=-1)]), "raw_ratio must be > 0, got -1.0"),
            (lambda doc: dict(doc, samples=[dict(doc["samples"][0], gain_db=0.5)]), "gain_db must be <= 0, got 0.5"),
            (lambda doc: dict(doc, gap_angles_deg=[10**400]), "gap_angles_deg must be finite"),
            (lambda doc: dict(doc, plane=["XY"]), "plane must be a non-empty string"),
            (lambda doc: dict(doc, readout=None), "readout must be a non-empty string"),
        ],
    )
    def test_pattern_files_the_program_cannot_have_written(self, tmp_path, capsys, edit, reason):
        _, dip = self.make_patterns(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads((tmp_path / "dip.json").read_text()))))
        result = tmp_path / "cmp.json"
        assert main(["compare", dip, str(bad), "--json", str(result)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: pattern {bad} is malformed") and reason in err
        assert not result.exists()

    def test_unreadable_pattern_files(self, tmp_path, capsys):
        iso, _ = self.make_patterns(tmp_path)
        missing, text = tmp_path / "missing.json", tmp_path / "notes.json"
        text.write_text("not json")
        for bad, reason in ((missing, f"cannot read pattern {missing}: "), (text, f"pattern {text} is not valid JSON: ")):
            assert main(["compare", iso, str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {reason}") and "Traceback" not in err

    def test_sweep_and_benchmark_style_files_are_accepted(self, tmp_path, capsys):
        config = sweep_config(tmp_path, sweep={"plane": "XY", "angles_deg": "0:5:360", "noise_sigma_db": 0.7})
        assert main(["sweep", "--config", config]) == 0
        _, dip = self.make_patterns(tmp_path)
        assert main(["compare", str(tmp_path / "out" / "case_pattern.json"), dip]) == 0


@pytest.mark.filterwarnings("ignore:probe Rabi frequency")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    angles=ANGLE_SPECS,
    section_key=st.sampled_from(MUTABLE_KEYS),
    value=CONFIG_VALUES,
    plane=st.sampled_from(PLANES),
    noise_sigma_db=st.sampled_from([0.0, 0.5]),
)
def test_random_sweep_config_exits_0_or_2(tmp_path, capsys, angles, section_key, value, plane, noise_sigma_db):
    payload = make_config()
    payload["sweep"].update(plane=plane, angles_deg=angles, noise_sigma_db=noise_sigma_db)
    mutate(payload, section_key, value)
    path = tmp_path / "random.json"
    path.write_text(json.dumps(payload))
    code = main(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
