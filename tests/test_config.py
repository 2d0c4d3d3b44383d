import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydant.angular import AngularMomentum
from rydant.cellfield import (
    MAX_SWEEP_SAMPLES,
    SAMPLES_PER_WAVELENGTH,
    SPEED_OF_LIGHT,
    CellGeometry,
    check_frequency,
    check_incidences,
    check_stack,
    sweep_samples,
)
from rydant.cli import main
from rydant.config import (
    MAGNITUDE_RANGE,
    MAX_ANGLES,
    MHZ,
    ConfigError,
    OutputSection,
    RunConfig,
    load_config,
    parse_angles_deg,
    parse_config,
)
from rydant.hamiltonian import TransitionSystem
from rydant.patterns import MAX_NOISE_SIGMA_DB, MAX_TWO_JG, SweepPlan, incidence_angles
from rydant.spectra import MAX_SCAN_POINTS, InputError, LadderConfig, check_scan_range

FULL_CONFIG = {
    "schema_version": 1,
    "seed": 11,
    "system": {"two_jg": 1, "two_je": 3, "mu_mhz_per_v_per_m": 2.5},
    "drive": {"rabi_mhz": 10.0, "detuning_mhz": -1.5},
    "ladder": {
        "probe_rabi_mhz": 0.1,
        "coupling_rabi_mhz": 1.0,
        "gamma_e_mhz": 5.2,
        "gamma_r_mhz": 0.1,
    },
    "scan": {"min_mhz": -20.0, "max_mhz": 20.0, "points": 801},
    "cell": {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6},
    "sweep": {"plane": "XY", "angles_deg": "0:10:90", "readout": "eigen", "use_cell": True},
    "output": {"directory": "out", "basename": "run1"},
}


def make_config(**overrides):
    payload = json.loads(json.dumps(FULL_CONFIG))
    payload.update(overrides)
    return payload


class TestHappyPath:
    def test_full_document_parses(self):
        cfg = parse_config(make_config())
        assert cfg.seed == 11
        assert cfg.system.jg.two_j == 1
        assert cfg.system.je.two_j == 3
        assert cfg.system.mu == pytest.approx(2.5 * MHZ)
        assert cfg.drive.rabi == pytest.approx(10.0 * MHZ)
        assert cfg.drive.detuning == pytest.approx(-1.5 * MHZ)
        assert cfg.scan.points == 801
        assert cfg.scan.low == pytest.approx(-20.0 * MHZ)
        assert cfg.cell_frequency == pytest.approx(129.6e9)
        assert cfg.cell.wall_thickness == pytest.approx(2e-3)
        assert cfg.cell.wall_index == pytest.approx(2.1 + 0.02j)
        assert cfg.sweep.cell is cfg.cell and cfg.sweep.cell_frequency == cfg.cell_frequency
        assert (cfg.sweep.seed, cfg.sweep.scan_points) == (11, 801)
        assert cfg.output.directory == "out"
        assert cfg.output.basename == "run1"

    def test_ladder_inherits_the_rf_drive(self):
        cfg = parse_config(make_config())
        assert cfg.ladder.omega_rf == cfg.drive.rabi
        assert cfg.ladder.delta_rf == cfg.drive.detuning
        assert cfg.ladder.omega_p == pytest.approx(0.1 * MHZ)
        assert cfg.ladder.gamma_e == pytest.approx(5.2 * MHZ)

    def test_minimal_document(self):
        cfg = parse_config({"schema_version": 1})
        assert cfg.seed == 0
        assert cfg.system is None
        assert cfg.drive is None
        assert cfg.output.directory == "."
        assert cfg.output.basename == "rydant"

    def test_require_reports_missing_sections(self):
        cfg = parse_config({"schema_version": 1})
        with pytest.raises(ConfigError, match="system"):
            cfg.require("system")


class TestConfigDefaults:
    """A key left out takes the library's default: a section of only its required keys is the library's object."""

    REQUIRED = {
        "system": FULL_CONFIG["system"],
        "drive": {"rabi_mhz": 10.0},
        "ladder": {"probe_rabi_mhz": 0.1, "coupling_rabi_mhz": 1.0},
        "cell": {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6},
        "sweep": {"plane": "XZ", "angles_deg": "0:10:90"},
    }

    def test_ladder(self):
        cfg = parse_config({"schema_version": 1, **self.REQUIRED})
        assert cfg.ladder == LadderConfig(0.1 * MHZ, 1.0 * MHZ, cfg.drive.rabi, delta_rf=cfg.drive.detuning)

    def test_cell(self):
        cfg = parse_config({"schema_version": 1, **self.REQUIRED})
        assert cfg.cell == CellGeometry(2.0 * 1e-3, 20.0 * 1e-3)

    def test_an_index_part_left_out_keeps_that_part_of_the_default(self):
        cell = dict(self.REQUIRED["cell"], inner_index_re=1.01, wall_index_im=0.05)
        cfg = parse_config({"schema_version": 1, "cell": cell})
        assert cfg.cell.inner_index == complex(1.01, CellGeometry.inner_index.imag)
        assert cfg.cell.wall_index == complex(CellGeometry.wall_index.real, 0.05)

    def test_sweep(self):
        plan = parse_config({"schema_version": 1, **self.REQUIRED}).sweep
        names = ("readout", "noise_sigma_db", "scan_points", "seed")
        defaults = {f.name: f.default for f in fields(SweepPlan)}
        assert [getattr(plan, name) for name in names] == [defaults[name] for name in names]
        assert (plan.cell, plan.cell_frequency) == (None, None)

    def test_output(self):
        assert parse_config({"schema_version": 1}).output == OutputSection()
        assert parse_config({"schema_version": 1, "output": {}}).output == OutputSection()


class TestSchemaGate:
    def test_missing_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({})

    def test_wrong_version(self):
        with pytest.raises(ConfigError, match="unsupported"):
            parse_config(make_config(schema_version=2))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(make_config(mystery=1))


class TestStrictSections:
    @pytest.mark.parametrize(
        "section,bad_key",
        [
            ("system", "mu"),
            ("drive", "rabi"),
            ("ladder", "omega_rf"),
            ("scan", "step_mhz"),
            ("cell", "length_mm"),
            ("sweep", "angles"),
            ("output", "file"),
        ],
    )
    def test_unknown_keys_rejected_everywhere(self, section, bad_key):
        payload = make_config()
        payload[section][bad_key] = 1
        with pytest.raises(ConfigError, match=bad_key):
            parse_config(payload)

    def test_missing_required_key(self):
        payload = make_config()
        del payload["system"]["mu_mhz_per_v_per_m"]
        with pytest.raises(ConfigError, match="mu_mhz_per_v_per_m"):
            parse_config(payload)

    def test_type_mismatches(self):
        payload = make_config()
        payload["drive"]["rabi_mhz"] = "ten"
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(payload)

    def test_booleans_are_not_numbers(self):
        payload = make_config()
        payload["drive"]["rabi_mhz"] = True
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(payload)

    def test_points_must_be_integer(self):
        payload = make_config()
        payload["scan"]["points"] = 100.5
        with pytest.raises(ConfigError, match="integer"):
            parse_config(payload)

    def test_ladder_without_drive(self):
        payload = make_config()
        del payload["drive"]
        with pytest.raises(ConfigError, match="drive"):
            parse_config(payload)

    def test_domain_errors_are_wrapped(self):
        payload = make_config()
        payload["drive"]["rabi_mhz"] = -1
        with pytest.raises(ConfigError) as info:
            parse_config(payload)
        # the key, and RfDrive's rule in its units
        assert str(info.value) == "drive.rabi_mhz must be finite and >= 0, got -6283185.307179586 rad/s"
        assert isinstance(info.value.__cause__, InputError) and info.value.__cause__.quantity == "rabi"
        payload = make_config()
        payload["cell"]["wall_index_re"] = 0.5
        with pytest.raises(ConfigError):
            parse_config(payload)

    def test_scan_ordering(self):
        payload = make_config()
        payload["scan"]["max_mhz"] = -30.0
        with pytest.raises(ConfigError, match="max_mhz"):
            parse_config(payload)

    @pytest.mark.parametrize("low,high", [(5.0, 5.0), (5.0, -5.0), (-1e303, 0.0), (0.0, 1e303)])
    def test_scan_range_is_the_library_rule_named_by_its_keys(self, low, high):
        payload = make_config()
        payload["scan"].update(min_mhz=low, max_mhz=high)
        with pytest.raises(ConfigError) as info:
            parse_config(payload)
        with pytest.raises(InputError) as rule:
            check_scan_range(low * MHZ, high * MHZ)
        assert str(info.value) == "scan.min_mhz and scan.max_mhz" + rule.value.detail


class TestAngleRanges:
    def test_string_range_is_stop_exclusive(self):
        angles = parse_angles_deg("0:10:90", "test")
        np.testing.assert_allclose(np.degrees(angles), np.arange(0.0, 90.0, 10.0))

    def test_exact_multiple_excludes_stop(self):
        assert len(parse_angles_deg("0:90:360", "test")) == 4

    @pytest.mark.parametrize("spec", ["0:10:5", "-1:1e12:0", "0:1:1e-13"])
    def test_step_past_stop_keeps_start(self, spec):
        np.testing.assert_array_equal(parse_angles_deg(spec, "test"), np.radians([float(spec.split(":")[0])]))

    def test_fractional_step(self):
        angles = parse_angles_deg("0:2.5:10", "test")
        np.testing.assert_allclose(np.degrees(angles), [0.0, 2.5, 5.0, 7.5])

    def test_explicit_list(self):
        angles = parse_angles_deg([0, 45.0, 90], "test")
        np.testing.assert_allclose(angles, [0.0, math.pi / 4, math.pi / 2])

    @pytest.mark.parametrize(
        "bad", ["0:10", "a:b:c", "0:-10:90", "90:10:0", [], [True], {"start": 0}]
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_angles_deg(bad, "test")


class TestLoadConfig:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(make_config()))
        cfg = load_config(path)
        assert cfg.seed == 11

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)


NUMERIC_KEYS = [
    ("system", "mu_mhz_per_v_per_m"),
    ("drive", "rabi_mhz"),
    ("drive", "detuning_mhz"),
    ("ladder", "probe_rabi_mhz"),
    ("ladder", "gamma_e_mhz"),
    ("ladder", "doppler_sigma_mhz"),
    ("scan", "min_mhz"),
    ("scan", "max_mhz"),
    ("cell", "wall_thickness_mm"),
    ("cell", "wall_index_im"),
    ("cell", "rf_frequency_ghz"),
    ("sweep", "noise_sigma_db"),
]


class TestNonFiniteInput:
    @pytest.mark.parametrize("section,key", NUMERIC_KEYS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_numbers_must_be_finite(self, section, key, value):
        payload = make_config()
        payload[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
            parse_config(payload)

    def test_json_nan_literal_is_refused(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(make_config()).replace("129.6", "NaN"))
        with pytest.raises(ConfigError, match="rf_frequency_ghz"):
            load_config(path)

    def test_integer_beyond_the_float_range(self):
        payload = make_config()
        payload["drive"]["rabi_mhz"] = 10**400
        with pytest.raises(ConfigError, match="drive.rabi_mhz must be finite"):
            parse_config(payload)

    def test_unit_conversion_must_stay_finite(self):
        payload = make_config()
        payload["cell"]["rf_frequency_ghz"] = 1e300
        with pytest.raises(ConfigError, match="rf_frequency_ghz"):
            parse_config(payload)
        payload = make_config()
        payload["scan"]["max_mhz"] = 1e303
        with pytest.raises(ConfigError, match="max_mhz"):
            parse_config(payload)

    @pytest.mark.parametrize(
        "spec", ["0:1:inf", "nan:1:10", "0:nan:10", "-inf:1:0", "0:inf:10", [0.0, math.nan], [math.inf]]
    )
    def test_angles_must_be_finite(self, spec):
        with pytest.raises(ConfigError, match="sweep.angles_deg: .* must be finite"):
            parse_angles_deg(spec, "sweep.angles_deg")


class TestGridCap:
    @pytest.fixture
    def small_arange(self, monkeypatch):
        # A grid past the cap must be refused before numpy is asked for it.
        arange = np.arange

        def guarded(count, *args, **kwargs):
            assert count <= MAX_ANGLES, f"np.arange asked for {count} values"
            return arange(count, *args, **kwargs)

        monkeypatch.setattr(np, "arange", guarded)

    def test_cap_admits_the_largest_grid(self, small_arange):
        assert len(parse_angles_deg(f"0:1:{MAX_ANGLES}", "test")) == MAX_ANGLES
        assert len(parse_angles_deg("0:0.01:360", "test")) == MAX_ANGLES

    @pytest.mark.parametrize("spec", [f"0:1:{MAX_ANGLES + 1}", "0:1e-9:360", "-1e308:1:1e308", "0:5e-324:1"])
    def test_longer_ranges_are_refused(self, spec, small_arange):
        with pytest.raises(ConfigError, match="MAX_ANGLES"):
            parse_angles_deg(spec, "test")

    def test_longer_lists_are_refused(self):
        with pytest.raises(ConfigError, match="MAX_ANGLES"):
            parse_angles_deg([0.0] * (MAX_ANGLES + 1), "test")


class TestAllocationCaps:
    def test_scan_points_cap(self):
        payload = make_config()
        payload["scan"]["points"] = MAX_SCAN_POINTS
        assert parse_config(payload).scan.points == MAX_SCAN_POINTS
        for points in (MAX_SCAN_POINTS + 1, 10**10):
            payload["scan"]["points"] = points
            with pytest.raises(ConfigError, match=r"scan\.points.*MAX_SCAN_POINTS"):
                parse_config(payload)

    @pytest.mark.parametrize(
        "cell",
        [
            {"rf_frequency_ghz": 1e9},
            {"inner_length_mm": 1e6},
            {"inner_index_re": 1e308, "rf_frequency_ghz": 1e290},
        ],
    )
    def test_cell_sample_cap(self, cell):
        payload = make_config()
        payload["cell"].update(cell)
        with pytest.raises(ConfigError, match="cell.rf_frequency_ghz x cell.inner_length_mm.*MAX_SWEEP_SAMPLES"):
            parse_config(payload)

    def test_largest_cell_profile_is_accepted(self):
        payload = make_config()
        # just under the cap: 32 samples per wavelength across a 20 mm vapor
        ghz = (MAX_SWEEP_SAMPLES - 3) / SAMPLES_PER_WAVELENGTH / 0.02 * SPEED_OF_LIGHT / 1e9
        payload["cell"]["rf_frequency_ghz"] = ghz
        cfg = parse_config(payload)
        assert sweep_samples(cfg.cell, cfg.cell_frequency) <= MAX_SWEEP_SAMPLES

    def test_noise_cap(self):
        payload = make_config()
        payload["sweep"]["noise_sigma_db"] = MAX_NOISE_SIGMA_DB
        assert parse_config(payload).sweep.noise_sigma_db == MAX_NOISE_SIGMA_DB
        payload["sweep"]["noise_sigma_db"] = 1e5
        with pytest.raises(ConfigError, match=r"sweep\.noise_sigma_db.*MAX_NOISE_SIGMA_DB"):
            parse_config(payload)


class TestMagnitudes:
    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("system", "mu_mhz_per_v_per_m", 5e-324),
            ("system", "mu_mhz_per_v_per_m", 2.8e301),
            ("system", "mu_mhz_per_v_per_m", 0.0),
            ("drive", "rabi_mhz", 5e-324),
            ("drive", "rabi_mhz", 1e10),
            ("drive", "detuning_mhz", -1e300),
            ("drive", "detuning_mhz", 1e-320),
            ("ladder", "gamma_e_mhz", 0.0),
            ("ladder", "gamma_r_mhz", 0.0),
            ("ladder", "gamma_r_mhz", 1e-12),
            ("ladder", "gamma_e_mhz", 2e9),
        ],
    )
    def test_out_of_range_magnitudes_are_refused(self, section, key, value):
        payload = make_config()
        payload[section][key] = value
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be .*MAGNITUDE_RANGE"):
            parse_config(payload)

    def test_range_ends_and_zero_drive_are_accepted(self):
        low, high = MAGNITUDE_RANGE
        for mu, rabi, detuning in ((low, high, -high), (high, low, 0.0), (1.0, 0.0, low)):
            payload = make_config()
            del payload["sweep"]
            payload["system"]["mu_mhz_per_v_per_m"] = mu
            payload["drive"].update(rabi_mhz=rabi, detuning_mhz=detuning)
            cfg = parse_config(payload)
            assert cfg.system.mu == mu * MHZ and cfg.drive.rabi == rabi * MHZ


class TestCellDomain:
    @pytest.mark.parametrize(
        "cell",
        [
            {"wall_thickness_mm": 1000.0},
            {"wall_index_im": 1e3},
            {"inner_index_im": 100.0},
            {"wall_index_re": 1e200},
            {"inner_length_mm": 1e-290, "rf_frequency_ghz": 1e280},
            {"rf_frequency_ghz": 1.95e-169},  # k0 squared underflows: no wave at normal incidence
        ],
    )
    def test_opaque_or_overflowing_stack_is_refused(self, cell):
        payload = make_config()
        payload["cell"].update(cell)
        with pytest.raises(ConfigError, match=r"cell: .*wall_thickness_mm.*MAX_STACK_NEPERS"):
            parse_config(payload)

    def test_gaining_walls_under_the_cap_are_accepted(self):
        payload = make_config()
        payload["cell"]["wall_index_im"] = -0.5
        assert parse_config(payload).cell.wall_index == 2.1 - 0.5j

    @pytest.mark.parametrize("angles", [[90], [45, 270], [-90], [450.0], [89.9999999]])
    def test_grazing_xy_angles_on_a_cell_are_refused(self, angles):
        payload = make_config()
        payload["sweep"]["angles_deg"] = angles
        with pytest.raises(ConfigError, match=r"sweep\.angles_deg: .*grazing"):
            parse_config(payload)

    @pytest.mark.parametrize(
        "plane,use_cell,angles", [("XZ", True, [90, 270]), ("XY", False, [90]), ("XY", True, [89.99, 270.01])]
    )
    def test_other_angles_are_accepted(self, plane, use_cell, angles):
        payload = make_config()
        payload["sweep"].update(plane=plane, use_cell=use_cell, angles_deg=angles)
        assert len(parse_config(payload).sweep.angles) == len(angles)


# One bad input per sweep rule: (quantity, config key, SweepPlan fields, config section, its keys).
SWEEP_RULES = [
    ("plane", "sweep.plane", {"plane": "XW"}, "sweep", {"plane": "XW"}),
    ("readout", "sweep.readout", {"readout": "fast"}, "sweep", {"readout": "fast"}),
    (
        "noise_sigma_db",
        "sweep.noise_sigma_db",
        {"noise_sigma_db": MAX_NOISE_SIGMA_DB + 1},
        "sweep",
        {"noise_sigma_db": MAX_NOISE_SIGMA_DB + 1},
    ),
    ("angles", "sweep.angles_deg", {"angles": np.radians([270.0])}, "sweep", {"angles_deg": [270.0]}),
    (
        "two_je",
        "system.two_je",
        {"system": TransitionSystem(AngularMomentum(3), AngularMomentum(3), MHZ)},
        "system",
        {"two_jg": 3, "two_je": 3},
    ),
    (
        "two_jg",
        "system.two_jg",
        {"system": TransitionSystem(AngularMomentum(11), AngularMomentum(13), MHZ)},
        "system",
        {"two_jg": 11, "two_je": 13},
    ),
    ("points", "scan.points", {"scan_points": MAX_SCAN_POINTS + 1}, "scan", {"points": MAX_SCAN_POINTS + 1}),
]


class TestSweepRules:
    """Each rule lives in the library; the config refuses through it, naming the key."""

    @pytest.mark.parametrize("quantity,key,fields,section,keys", SWEEP_RULES, ids=[r[0] for r in SWEEP_RULES])
    def test_each_rule_is_refused_at_both_entry_points(self, quantity, key, fields, section, keys):
        plan = parse_config(make_config()).sweep
        with pytest.raises(InputError) as info:
            replace(plan, **fields)
        assert info.value.quantity == quantity
        payload = make_config()
        payload[section].update(keys)
        with pytest.raises(ConfigError) as info:
            parse_config(payload)
        assert str(info.value).startswith(key)

    @pytest.mark.parametrize(
        "missing,message",
        [
            (["system"], "sweep section requires a system section"),
            (["drive", "ladder"], "sweep section requires a drive section"),
            (["cell"], "sweep.use_cell requires a cell section"),
        ],
    )
    def test_a_sweep_needs_its_sections(self, missing, message):
        payload = make_config()
        for name in missing:
            del payload[name]
        with pytest.raises(ConfigError) as info:
            parse_config(payload)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"drive": {"rabi_mhz": 0.0}}, "drive.rabi_mhz must be > 0 for a sweep, got 0.0"),
            ({"seed": -3}, "seed must be >= 0, got -3"),
        ],
    )
    def test_zero_drive_and_negative_seed_are_refused_beside_a_sweep(self, overrides, message):
        payload = make_config(**overrides)
        with pytest.raises(ConfigError) as info:
            parse_config(payload)
        assert str(info.value) == message
        del payload["sweep"]
        assert parse_config(payload).sweep is None


GEOMETRY_MM = {"wall_thickness_mm": 2.0, "inner_length_mm": 20.0, "rf_frequency_ghz": 129.6}


def cell_of(**mm):
    """The library's (CellGeometry, Hz) for the config's cell section with mm overrides, by the config's arithmetic."""
    cell = dict(GEOMETRY_MM, **mm)
    geometry = CellGeometry(
        cell["wall_thickness_mm"] * 1e-3,
        cell["inner_length_mm"] * 1e-3,
        complex(cell.get("wall_index_re", 2.1), 0.02),
        complex(cell.get("inner_index_re", 1.0), 0.0),
    )
    return geometry, cell["rf_frequency_ghz"] * 1e9


def ladder_of(**fields):
    rates = dict(omega_p=0.1 * MHZ, omega_c=1.0 * MHZ, omega_rf=10.0 * MHZ, delta_rf=-1.5 * MHZ,
                 gamma_e=5.2 * MHZ, gamma_r=0.1 * MHZ)
    return LadderConfig(**dict(rates, **fields))


# quantity, config key, the library call that refuses, section, the config keys that reach it
CELL_RULES = [
    ("wall_thickness", "cell.wall_thickness_mm", lambda: cell_of(wall_thickness_mm=-2.0), "cell",
     {"wall_thickness_mm": -2.0}),
    ("inner_length", "cell.inner_length_mm", lambda: cell_of(inner_length_mm=0.0), "cell", {"inner_length_mm": 0.0}),
    ("wall_index", "cell.wall_index_re", lambda: cell_of(wall_index_re=0.5), "cell", {"wall_index_re": 0.5}),
    ("inner_index", "cell.inner_index_re", lambda: cell_of(inner_index_re=0.99), "cell", {"inner_index_re": 0.99}),
    ("frequency", "cell.rf_frequency_ghz", lambda: check_frequency(cell_of(rf_frequency_ghz=0)[1]), "cell",
     {"rf_frequency_ghz": 0}),
    ("frequency", "cell.rf_frequency_ghz", lambda: check_frequency(cell_of(rf_frequency_ghz=1e300)[1]), "cell",
     {"rf_frequency_ghz": 1e300}),
    ("frequency x inner_length", "cell.rf_frequency_ghz x cell.inner_length_mm",
     lambda: sweep_samples(*cell_of(rf_frequency_ghz=1e9)), "cell", {"rf_frequency_ghz": 1e9}),
    ("stack", "cell: walls (wall_thickness_mm, wall_index_*) and vapor (inner_length_mm, inner_index_*) at "
     "rf_frequency_ghz", lambda: check_stack(*cell_of(wall_thickness_mm=1000.0)), "cell",
     {"wall_thickness_mm": 1000.0}),
    ("omega_p", "ladder.probe_rabi_mhz", lambda: ladder_of(omega_p=-0.1 * MHZ), "ladder", {"probe_rabi_mhz": -0.1}),
    ("omega_c", "ladder.coupling_rabi_mhz", lambda: ladder_of(omega_c=-1.0 * MHZ), "ladder",
     {"coupling_rabi_mhz": -1.0}),
    ("delta_p", "ladder.probe_detuning_mhz", lambda: ladder_of(delta_p=1e308 * MHZ), "ladder",
     {"probe_detuning_mhz": 1e308}),
    ("gamma_e", "ladder.gamma_e_mhz", lambda: ladder_of(gamma_e=-5.2 * MHZ), "ladder", {"gamma_e_mhz": -5.2}),
    ("gamma_r", "ladder.gamma_r_mhz", lambda: ladder_of(gamma_r=-0.1 * MHZ), "ladder", {"gamma_r_mhz": -0.1}),
    ("doppler_sigma", "ladder.doppler_sigma_mhz", lambda: ladder_of(doppler_sigma=-1.0 * MHZ), "ladder",
     {"doppler_sigma_mhz": -1.0}),
    ("angles", "sweep.angles_deg", lambda: check_incidences(incidence_angles("XY", np.radians([0.0, 90.0]))),
     "sweep", {"angles_deg": [0, 90]}),
]


class TestCellRules:
    """Each cell and ladder rule lives in the library; the config and the CLI refuse through it, naming the key."""

    @pytest.mark.parametrize("quantity,key,call,section,keys", CELL_RULES, ids=[r[1] for r in CELL_RULES])
    def test_the_config_refusal_is_the_key_and_the_library_detail(self, quantity, key, call, section, keys):
        with pytest.raises(InputError) as rule:
            call()
        assert rule.value.quantity == quantity
        payload = make_config()
        payload[section].update(keys)
        with pytest.raises(ConfigError) as info:
            parse_config(payload)
        assert str(info.value) == key + rule.value.detail

    @pytest.mark.parametrize(
        "flag,value,angles",
        [
            ("--angles", "[0, 90]", np.radians([0.0, 90.0])),
            ("--angles", "0:30:120", np.radians(0.0 + 30.0 * np.arange(4))),
            ("--angle-deg", "90", math.radians(90.0)),
            ("--angle-deg", "-1", math.radians(-1.0)),
        ],
    )
    def test_the_cli_refusal_is_the_flag_and_the_library_detail(self, tmp_path, capsys, flag, value, angles):
        with pytest.raises(InputError) as rule:
            check_incidences(angles)
        assert main(["cellfield", "--preset", "thz-33s", flag, value, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {flag}{rule.value.detail}\n"

    def test_a_plan_on_a_cell_needs_its_frequency(self):
        plan = parse_config(make_config()).sweep
        for frequency, got in ((None, "None"), (0.0, "0.0 Hz"), (math.nan, "nan Hz")):
            with pytest.raises(InputError) as info:
                replace(plan, cell_frequency=frequency)
            assert (info.value.quantity, info.value.detail) == ("frequency", f" must be finite and > 0, got {got}")
        assert replace(plan, cell=None, cell_frequency=None).cell is None


class TestTransitions:
    @pytest.mark.parametrize("two_jg,two_je", [(0, 2), (1, 3), (2, 4), (3, 5), (5, 7)])
    def test_j_to_j_plus_one_is_accepted(self, two_jg, two_je):
        payload = make_config(system={"two_jg": two_jg, "two_je": two_je, "mu_mhz_per_v_per_m": 1.0})
        cfg = parse_config(payload)
        assert (cfg.system.jg.two_j, cfg.system.je.two_j) == (two_jg, two_je)

    @pytest.mark.parametrize("two_jg,two_je", [(1, 1), (3, 3), (2, 2), (3, 1), (5, 3), (2, 0)])
    def test_other_transitions_are_refused(self, two_jg, two_je):
        payload = make_config(system={"two_jg": two_jg, "two_je": two_je, "mu_mhz_per_v_per_m": 1.0})
        with pytest.raises(ConfigError, match="system.two_je"):
            parse_config(payload)

    def test_largest_verified_momentum_is_accepted(self):
        assert MAX_TWO_JG == 9
        payload = make_config(system={"two_jg": 9, "two_je": 11, "mu_mhz_per_v_per_m": 1.0})
        assert parse_config(payload).system.jg.two_j == 9

    @pytest.mark.parametrize("two_jg", [10, 11, 10001])
    def test_larger_momenta_are_refused(self, two_jg):
        payload = make_config(system={"two_jg": two_jg, "two_je": two_jg + 2, "mu_mhz_per_v_per_m": 1.0})
        with pytest.raises(ConfigError, match=r"^system\.two_jg: .* exceeds MAX_TWO_JG = 9"):
            parse_config(payload)


_range_parts = st.one_of(st.floats(), st.integers(), st.sampled_from(["", "x", "1e999", "-0"]))
ANGLE_SPECS = st.one_of(
    st.text(),
    st.floats(),
    st.lists(st.one_of(st.floats(), st.integers()), max_size=8),
    st.builds(lambda *p: ":".join(str(v) for v in p), _range_parts, _range_parts, _range_parts),
)
CONFIG_VALUES = st.one_of(st.floats(), st.integers(), st.text(max_size=8), st.booleans(), st.none())
MUTABLE_KEYS = NUMERIC_KEYS + [("scan", "points"), ("system", "two_jg"), ("seed", None)]


def mutate(payload, section_key, value):
    """Set one key of a config document; key None replaces the whole section."""
    section, key = section_key
    if key is None:
        payload[section] = value
    else:
        payload[section][key] = value
    return payload


@pytest.mark.filterwarnings("ignore:probe Rabi frequency")
@settings(max_examples=300, deadline=None)
@given(angles=ANGLE_SPECS, section_key=st.sampled_from(MUTABLE_KEYS), value=CONFIG_VALUES)
def test_random_input_ends_in_a_config_or_a_config_error(angles, section_key, value):
    payload = make_config()
    payload["sweep"]["angles_deg"] = angles
    mutate(payload, section_key, value)
    try:
        cfg = parse_config(payload)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert np.all(np.isfinite(cfg.sweep.angles)) and 0 < len(cfg.sweep.angles) <= MAX_ANGLES
