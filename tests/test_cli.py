import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rydant.cli import main
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

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "eigen.csv"
        code = main(["eigen", "--rabi-mhz", "2", "--csv", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "index,closed_form_mhz,numeric_mhz"
        assert len(lines) == 7

    def test_invalid_drive_is_a_runtime_error(self, capsys):
        code = main(["eigen", "--rabi-mhz", "-1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "none.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


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

    @pytest.mark.parametrize("two_jg,two_je", [(0, 2), (1, 3), (2, 4), (3, 5), (5, 7)])
    def test_supported_transitions_resolve_an_eigen_sweep(self, tmp_path, capsys, two_jg, two_je):
        system = {"two_jg": two_jg, "two_je": two_je, "mu_mhz_per_v_per_m": 1.0}
        config = sweep_config(tmp_path, system=system, sweep={"plane": "XZ", "angles_deg": "0:15:180"})
        assert main(["sweep", "--config", config]) == 0
        assert "isotropic_deviation_db" in capsys.readouterr().out


class TestImports:
    """Only the Doppler path imports scipy."""

    def scipy_loaded(self, tmp_path, argv):
        code = (
            "import sys; from rydant.cli import main; "
            f"code = main({argv!r}); print(code, 'scipy' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        status, loaded = done.stdout.split()[-2:]
        assert status == "0", done.stderr
        return loaded == "True"

    def test_eigen_and_plain_spectrum_leave_scipy_unloaded(self, tmp_path):
        assert not self.scipy_loaded(tmp_path, ["eigen", "--rabi-mhz", "10", "--detuning-mhz", "2"])
        assert not self.scipy_loaded(tmp_path, ["spectrum", "--preset", "thz-33s", "--rabi-mhz", "10"])

    def test_doppler_spectrum_loads_scipy(self, tmp_path):
        ladder = {"probe_rabi_mhz": 0.1, "coupling_rabi_mhz": 1.0, "doppler_sigma_mhz": 1.0}
        config = write_config(tmp_path, drive={"rabi_mhz": 20.0}, ladder=ladder)
        assert self.scipy_loaded(tmp_path, ["spectrum", "--config", config])


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
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
