import json
import math

import numpy as np
import pytest

import _oracles
from rydant.angular import AngularMomentum
from rydant.cellfield import CellGeometry, angle_sweep_deviation
from rydant.hamiltonian import RfDrive, TransitionSystem
from rydant.metrology import isotropic_deviation
from rydant import patterns
from rydant.patterns import (
    MAX_NOISE_SIGMA_DB,
    GainPattern,
    SweepPlan,
    compare_patterns,
    dipole_reference,
    incidence_angle,
    json_text,
    pattern_csv,
    plane_to_orientation,
    polar_csv,
    run_sweep,
)
from rydant.spectra import MAX_SCAN_POINTS, scan_spectrum

MHZ = 2.0 * math.pi * 1e6

SYSTEM = TransitionSystem(AngularMomentum(1), AngularMomentum(3), mu=MHZ)
THZ_CELL = CellGeometry(wall_thickness=2e-3, inner_length=20e-3)
THZ_FREQ = 0.1296e12


def make_plan(**kwargs):
    defaults = dict(
        plane="XY",
        angles=np.radians(np.arange(0.0, 360.0, 5.0)),
        drive=RfDrive(rabi=10 * MHZ),
        system=SYSTEM,
    )
    defaults.update(kwargs)
    return SweepPlan(**defaults)


class TestPlaneConventions:
    def test_xy_rotates_theta(self):
        o = plane_to_orientation("XY", 0.7)
        assert o.chi == pytest.approx(math.pi / 2)
        assert o.theta == pytest.approx(0.7)
        assert o.phi == 0.0

    def test_xz_and_yz_rotate_chi(self):
        assert plane_to_orientation("XZ", 0.7).chi == pytest.approx(0.7)
        assert plane_to_orientation("XZ", 0.7).theta == 0.0
        yz = plane_to_orientation("YZ", 0.7)
        assert yz.chi == pytest.approx(0.7)
        assert yz.theta == pytest.approx(math.pi / 2)

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValueError):
            plane_to_orientation("XW", 0.0)

    def test_incidence_folds_only_in_xy(self):
        assert incidence_angle("XY", 0.0) == 0.0
        assert incidence_angle("XY", 0.3) == pytest.approx(0.3)
        assert incidence_angle("XY", 2.0) == pytest.approx(math.pi - 2.0)
        assert incidence_angle("XY", 4.0) == pytest.approx(4.0 % math.pi)
        assert incidence_angle("XZ", 1.2) == 0.0
        assert incidence_angle("YZ", 1.2) == 0.0


class TestIdealSweeps:
    @pytest.mark.parametrize("plane", ["XY", "XZ", "YZ"])
    def test_bare_response_is_isotropic(self, plane):
        pattern = run_sweep(make_plan(plane=plane))
        assert pattern.deviation_db < 1e-10
        assert pattern.gap_angles == ()

    def test_isotropy_survives_detuning(self):
        plan = make_plan(drive=RfDrive(rabi=8 * MHZ, detuning=3 * MHZ))
        assert run_sweep(plan).deviation_db < 1e-10

    def test_deviation_field_matches_recomputation(self):
        pattern = run_sweep(make_plan(noise_sigma_db=0.3, seed=5))
        assert pattern.deviation_db == isotropic_deviation(pattern.samples)

    def test_sample_metadata_round_trip(self):
        pattern = run_sweep(make_plan(seed=3))
        assert pattern.plane == "XY"
        assert pattern.readout == "eigen"
        assert pattern.seed == 3
        assert not pattern.cell_enabled
        assert len(pattern.samples) == 72


class TestNoiseModel:
    def test_same_seed_reproduces_bit_for_bit(self):
        a = run_sweep(make_plan(noise_sigma_db=0.5, seed=42))
        b = run_sweep(make_plan(noise_sigma_db=0.5, seed=42))
        assert [s.raw_ratio for s in a.samples] == [s.raw_ratio for s in b.samples]
        assert a.deviation_db == b.deviation_db

    def test_different_seed_changes_the_draw(self):
        a = run_sweep(make_plan(noise_sigma_db=0.5, seed=1))
        b = run_sweep(make_plan(noise_sigma_db=0.5, seed=2))
        assert a.deviation_db != b.deviation_db

    def test_zero_sigma_ignores_seed(self):
        a = run_sweep(make_plan(seed=1))
        b = run_sweep(make_plan(seed=2))
        assert a.deviation_db == b.deviation_db

    def test_median_deviation_grows_with_sigma(self):
        import time

        t0 = time.time()
        medians = []
        for sigma in (0.05, 0.2):
            devs = [
                run_sweep(make_plan(noise_sigma_db=sigma, seed=seed)).deviation_db
                for seed in range(50)
            ]
            medians.append(float(np.median(devs)))
        assert 0.0 < medians[0] < medians[1]
        assert time.time() - t0 < 60.0


class TestCellModulation:
    ANGLES = np.radians(np.arange(0.0, 90.0, 10.0))

    def test_cell_breaks_isotropy(self):
        plan = make_plan(angles=self.ANGLES, cell=THZ_CELL, cell_frequency=THZ_FREQ)
        pattern = run_sweep(plan)
        assert pattern.cell_enabled
        assert pattern.deviation_db > 0.1

    def test_pattern_deviation_equals_path_average_spread(self):
        # eigen splitting is linear in the injected amplitude, so the sweep
        # must reproduce the bare stack-average spread exactly
        plan = make_plan(angles=self.ANGLES, cell=THZ_CELL, cell_frequency=THZ_FREQ)
        pattern = run_sweep(plan)
        direct = angle_sweep_deviation(THZ_CELL, THZ_FREQ, self.ANGLES)
        assert pattern.deviation_db == pytest.approx(direct, abs=1e-12)

    def test_grazing_incidence_is_out_of_domain(self):
        plan = make_plan(
            angles=np.radians([0.0, 90.0]), cell=THZ_CELL, cell_frequency=THZ_FREQ
        )
        with pytest.raises(ValueError):
            run_sweep(plan)

    def test_off_plane_sweeps_see_normal_incidence(self):
        # XZ rotates the polarization, not the arrival direction: no modulation
        plan = make_plan(
            plane="XZ",
            angles=np.radians(np.arange(0.0, 360.0, 15.0)),
            cell=THZ_CELL,
            cell_frequency=THZ_FREQ,
        )
        assert run_sweep(plan).deviation_db < 1e-10


class TestSpectrumReadout:
    def test_matches_eigen_readout_through_the_cell(self):
        angles = np.radians(np.arange(0.0, 50.0, 10.0))
        drive = RfDrive(rabi=60 * MHZ)
        eig = run_sweep(
            make_plan(angles=angles, drive=drive, cell=THZ_CELL, cell_frequency=THZ_FREQ)
        )
        spec = run_sweep(
            make_plan(
                angles=angles,
                drive=drive,
                readout="spectrum",
                cell=THZ_CELL,
                cell_frequency=THZ_FREQ,
                scan_points=801,
            )
        )
        assert spec.deviation_db == pytest.approx(eig.deviation_db, abs=0.2)

    def test_uniform_drive_gives_exactly_flat_pattern(self):
        plan = make_plan(
            angles=np.radians([0.0, 45.0, 90.0, 135.0]),
            readout="spectrum",
            scan_points=601,
        )
        pattern = run_sweep(plan)
        assert pattern.deviation_db == 0.0
        assert pattern.gap_angles == ()

    @pytest.mark.parametrize("cell", [None, THZ_CELL])
    def test_one_scan_per_distinct_drive(self, monkeypatch, cell):
        # XZ sees normal incidence at every angle, so every angle shares one drive
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return scan_spectrum(*args, **kwargs)

        monkeypatch.setattr(patterns, "scan_spectrum", counted)
        plan = make_plan(
            plane="XZ",
            angles=np.radians(np.arange(0.0, 180.0, 30.0)),
            readout="spectrum",
            scan_points=401,
            cell=cell,
            cell_frequency=THZ_FREQ if cell else None,
        )
        pattern = run_sweep(plan)
        assert len(calls) == 1
        assert len(pattern.samples) == 6 and pattern.deviation_db == 0.0

    def test_unresolvable_drive_raises_after_all_gaps(self):
        plan = make_plan(
            angles=np.radians([0.0, 20.0, 40.0]),
            drive=RfDrive(rabi=0.01 * MHZ),
            readout="spectrum",
            scan_points=301,
        )
        with pytest.raises(ValueError, match="all gaps"):
            run_sweep(plan)


class TestDipoleReference:
    def test_axial_pattern_frozen_values(self):
        pattern = dipole_reference(np.radians([30.0, 90.0]))
        assert pattern.samples[0].gain_db == pytest.approx(20 * math.log10(0.5), abs=1e-12)
        assert pattern.samples[1].gain_db == 0.0

    def test_axial_nulls_hit_the_floor(self):
        pattern = dipole_reference(np.radians(np.arange(0.0, 360.0, 1.0)))
        assert pattern.deviation_db == pytest.approx(60.0, abs=1e-12)
        assert pattern.plane == "dipole-axial"
        assert pattern.readout == "analytic"

    def test_equatorial_pattern_is_flat(self):
        pattern = dipole_reference(np.radians(np.arange(0.0, 360.0, 5.0)), plane="equatorial")
        assert pattern.deviation_db == 0.0
        assert pattern.plane == "dipole-equatorial"

    def test_invalid_plane(self):
        with pytest.raises(ValueError):
            dipole_reference([0.0], plane="diagonal")

    def test_empty_angles(self):
        with pytest.raises(ValueError):
            dipole_reference([])


class TestComparison:
    def test_improvement_sign_convention(self):
        iso = run_sweep(make_plan())
        dip = dipole_reference(np.radians(np.arange(0.0, 360.0, 1.0)))
        cmp = compare_patterns(iso, dip)
        assert cmp.improvement_db == pytest.approx(dip.deviation_db - iso.deviation_db)
        assert cmp.improvement_db > 59.0

    def test_text_table_mentions_both_labels(self):
        iso = run_sweep(make_plan())
        dip = dipole_reference([0.5, 1.0])
        text = compare_patterns(iso, dip).format_text()
        assert "XY/eigen" in text
        assert "dipole-axial/analytic" in text
        assert "improvement_db" in text

    def test_dict_schema(self):
        iso = run_sweep(make_plan())
        payload = compare_patterns(iso, iso).to_dict()
        assert payload["kind"] == "pattern_comparison"
        assert payload["schema_version"] == 1
        assert payload["improvement_db"] == 0.0


class TestSerialization:
    def test_pattern_json_round_trip(self):
        pattern = run_sweep(make_plan(noise_sigma_db=0.2, seed=7))
        clone = GainPattern.from_dict(json.loads(json.dumps(pattern.to_dict())))
        assert clone.plane == pattern.plane
        assert clone.readout == pattern.readout
        assert clone.seed == pattern.seed
        assert clone.deviation_db == pattern.deviation_db
        assert len(clone.samples) == len(pattern.samples)
        for a, b in zip(clone.samples, pattern.samples):
            assert a.angle == pytest.approx(b.angle, abs=1e-12)
            assert a.raw_ratio == b.raw_ratio

    def test_from_dict_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            GainPattern.from_dict({"kind": "other", "schema_version": 1})
        with pytest.raises(ValueError):
            GainPattern.from_dict({"kind": "gain_pattern", "schema_version": 2, "samples": []})

    def test_csv_writers(self):
        pattern = run_sweep(make_plan(angles=np.radians([0.0, 90.0])))
        lines = pattern_csv(pattern).splitlines()
        assert lines[0] == "plane,angle_deg,gain_db"
        assert lines[1].startswith("XY,0,")
        assert len(lines) == 3

        plines = polar_csv(pattern).splitlines()
        assert plines[0] == "angle_deg,radius"
        radius = float(plines[1].split(",")[1])
        assert radius == pytest.approx(10 ** (pattern.samples[0].gain_db / 20.0), rel=1e-6)

        text = json_text(pattern.to_dict())
        assert text.endswith("}\n")
        doc = json.loads(text)
        assert doc["kind"] == "gain_pattern"
        assert len(doc["samples"]) == 2


class TestPlanValidation:
    def test_bad_plane_and_readout(self):
        with pytest.raises(ValueError):
            make_plan(plane="AB")
        with pytest.raises(ValueError):
            make_plan(readout="peaks")

    def test_cell_requires_frequency(self):
        with pytest.raises(ValueError):
            make_plan(cell=THZ_CELL)

    def test_zero_rabi_rejected(self):
        with pytest.raises(ValueError):
            make_plan(drive=RfDrive(rabi=0.0))

    def test_angle_array_shape(self):
        with pytest.raises(ValueError):
            make_plan(angles=np.array([]))
        with pytest.raises(ValueError):
            make_plan(angles=np.array([[0.0, 1.0]]))

    def test_noise_sigma_domain(self):
        with pytest.raises(ValueError):
            make_plan(noise_sigma_db=-0.1)
        with pytest.raises(ValueError):
            make_plan(noise_sigma_db=MAX_NOISE_SIGMA_DB * 1.01)
        assert make_plan(noise_sigma_db=MAX_NOISE_SIGMA_DB).noise_sigma_db == MAX_NOISE_SIGMA_DB

    def test_scan_points_domain(self):
        with pytest.raises(ValueError):
            make_plan(readout="spectrum", scan_points=2)
        with pytest.raises(ValueError):
            make_plan(readout="spectrum", scan_points=MAX_SCAN_POINTS + 1)


class TestBatchedEigenSweep:
    """run_sweep against the per-angle eigen readout and cell sweep, exactly."""

    @pytest.mark.parametrize("plane", ["XY", "XZ", "YZ"])
    @pytest.mark.parametrize("two_jg", [1, 3])
    @pytest.mark.parametrize("cell,noise", [(False, 0.0), (True, 0.0), (True, 0.7), (False, 0.4)])
    def test_patterns_equal_the_per_angle_oracle(self, monkeypatch, plane, two_jg, cell, noise):
        plan = make_plan(
            plane=plane,
            angles=np.radians(np.arange(1.5, 360.0, 4.0)),
            drive=RfDrive(rabi=7.3 * MHZ, detuning=-2.2 * MHZ),
            system=TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=MHZ),
            cell=THZ_CELL if cell else None,
            cell_frequency=THZ_FREQ if cell else None,
            noise_sigma_db=noise,
            seed=19,
        )
        batched = run_sweep(plan).to_dict()
        monkeypatch.setattr(patterns, "_eigen_delta_ats", _oracles.eigen_delta_ats)
        monkeypatch.setattr(patterns, "path_averages", _oracles.path_averages)
        assert batched == run_sweep(plan).to_dict()


class TestPlanRefusals:
    @pytest.mark.parametrize("two_jg,two_je", [(1, 1), (3, 3), (3, 1)])
    @pytest.mark.parametrize("readout", ["eigen", "spectrum"])
    def test_unsupported_transitions(self, two_jg, two_je, readout):
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_je), mu=MHZ)
        with pytest.raises(ValueError, match="system must be a J -> J \\+ 1 transition"):
            make_plan(system=system, readout=readout)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            make_plan(seed=-1)
