import json
import math
from dataclasses import replace

import numpy as np
import pytest

import _oracles
from rydant.angular import AngularMomentum
from rydant.cellfield import CellGeometry, angle_sweep_deviation
from rydant.hamiltonian import RfDrive, TransitionSystem
from rydant.metrology import GainSample, isotropic_deviation
from rydant import cli, patterns
from rydant.patterns import (
    MAX_NOISE_SIGMA_DB,
    MAX_TWO_JG,
    PLANES,
    GainPattern,
    SweepPlan,
    compare_patterns,
    dipole_reference,
    incidence_angles,
    json_text,
    plane_angles,
    run_sweep,
)
from rydant.spectra import MAX_SCAN_POINTS, InputError, scan_spectrum

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
        (chi,), (theta,), (phi,) = plane_angles("XY", [0.7])
        assert chi == pytest.approx(math.pi / 2)
        assert theta == pytest.approx(0.7)
        assert phi == 0.0

    def test_xz_and_yz_rotate_chi(self):
        (chi,), (theta,), _ = plane_angles("XZ", [0.7])
        assert chi == pytest.approx(0.7)
        assert theta == 0.0
        (chi,), (theta,), _ = plane_angles("YZ", [0.7])
        assert chi == pytest.approx(0.7)
        assert theta == pytest.approx(math.pi / 2)

    def test_unknown_plane_rejected(self):
        with pytest.raises(InputError, match="^plane must be XY, XZ or YZ, got 'XW'$"):
            plane_angles("XW", [0.0])

    def test_incidence_folds_only_in_xy(self):
        xy = incidence_angles("XY", [0.0, 0.3, 2.0, 4.0])
        assert xy[0] == 0.0
        assert xy[1:].tolist() == pytest.approx([0.3, math.pi - 2.0, 4.0 % math.pi])
        assert incidence_angles("XZ", [1.2]).tolist() == [0.0]
        assert incidence_angles("YZ", [1.2]).tolist() == [0.0]


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
        direct = angle_sweep_deviation(THZ_CELL, THZ_FREQ, self.ANGLES, "TE")
        assert pattern.deviation_db == pytest.approx(direct, abs=1e-12)

    def test_grazing_incidence_is_out_of_domain(self):
        # refused by the plan, naming angles, before the cell solver sees it
        for degrees in ([0.0, 90.0], np.arange(0.0, 360.0, 10.0), [5.0, 270.0]):
            with pytest.raises(ValueError, match="angles: .* grazing incidence"):
                make_plan(angles=np.radians(degrees), cell=THZ_CELL, cell_frequency=THZ_FREQ)
            assert make_plan(angles=np.radians(degrees)).cell is None

    def test_off_plane_sweeps_see_normal_incidence(self):
        # XZ rotates the polarization, not the arrival direction: no modulation
        plan = make_plan(
            plane="XZ",
            angles=np.radians(np.arange(0.0, 360.0, 15.0)),
            cell=THZ_CELL,
            cell_frequency=THZ_FREQ,
        )
        assert run_sweep(plan).deviation_db < 1e-10


MW_CELL = CellGeometry(wall_thickness=2e-3, inner_length=80e-3)
MW_FREQ = 4.8e9
LOSSY_CELL = CellGeometry(2e-3, 20e-3, wall_index=2.1 + 0.05j, inner_index=1.02 + 0.01j)


def grid(start, step):
    """np.radians of start:step:360 in degrees, as a config grid spells it."""
    return np.radians(np.arange(start, 360.0, step))


def unmerged_incidences(plane, angles):
    return np.array([_oracles.folded_incidence(plane, a) for a in angles])


class TestMirrorFolding:
    """XY incidences: mirror twins merge, every other incidence keeps its exact fold."""

    @pytest.mark.parametrize("cell,freq", [(THZ_CELL, THZ_FREQ), (MW_CELL, MW_FREQ), (LOSSY_CELL, THZ_FREQ)])
    def test_mirror_angles_give_equal_cell_factors(self, cell, freq):
        thetas = np.random.default_rng(71).uniform(0.0, 90.0, 40)
        degrees = np.concatenate([thetas, thetas + 180.0, 180.0 - thetas, 360.0 - thetas])
        plan = make_plan(angles=np.radians(degrees), cell=cell, cell_frequency=freq)
        incidences = incidence_angles("XY", plan.angles).reshape(4, -1)
        factors = np.array(patterns._cell_factors(plan)).reshape(4, -1)
        assert (incidences == incidences[0]).all() and (factors == factors[0]).all()

    @pytest.mark.parametrize("count,cell,freq", [(360, THZ_CELL, THZ_FREQ), (180, MW_CELL, MW_FREQ)])
    @pytest.mark.parametrize("offset", [0.1, 0.37, 0.9])
    def test_one_profile_per_mirror_distinct_incidence(self, monkeypatch, count, cell, freq, offset):
        from rydant import cellfield

        rows = []
        real = cellfield._interior_amplitudes
        monkeypatch.setattr(cellfield, "_interior_amplitudes", lambda *a: rows.extend(a[2]) or real(*a))
        step = 360.0 / count
        run_sweep(make_plan(angles=grid(offset * step, step), cell=cell, cell_frequency=freq))
        assert len(rows) == count // 2 == len(set(rows))

    def test_incidences_without_twins_keep_their_exact_fold(self):
        angles = np.random.default_rng(72).uniform(0.0, 2.0 * math.pi, 500)
        folds = [_oracles.folded_incidence("XY", a) for a in angles.tolist()]
        assert np.diff(np.sort(folds)).min() > patterns.MIRROR_MERGE_RAD
        assert incidence_angles("XY", angles).tolist() == folds

    def test_runs_merge_onto_their_smallest_member(self):
        # each step of the chain is inside the merge gap, its whole span is not
        chain = [0.6 + k * 0.9 * patterns.MIRROR_MERGE_RAD for k in range(4)]
        far = chain[-1] + 2 * patterns.MIRROR_MERGE_RAD
        angles = [chain[2], 0.2, chain[0], far, chain[3], chain[1]]
        expected = [0.6, 0.2, 0.6, far, 0.6, 0.6]
        assert incidence_angles("XY", angles).tolist() == expected
        assert incidence_angles("XY", angles[::-1]).tolist() == expected[::-1]

    @pytest.mark.parametrize(
        "cell,freq,two_jg,degrees",
        [
            (THZ_CELL, THZ_FREQ, 1, (2.5, 5.0)),
            (THZ_CELL, THZ_FREQ, 1, (0.37, 1.0)),
            (MW_CELL, MW_FREQ, 3, (0.1, 2.0)),
            (LOSSY_CELL, THZ_FREQ, 1, (0.7, 1.5)),
        ],
    )
    def test_noise_free_patterns_match_the_unmerged_oracle(self, monkeypatch, cell, freq, two_jg, degrees):
        plan = make_plan(
            angles=grid(*degrees),
            system=TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=MHZ),
            cell=cell,
            cell_frequency=freq,
        )
        merged = run_sweep(plan)
        monkeypatch.setattr(patterns, "path_averages", _oracles.path_averages)
        monkeypatch.setattr(patterns, "incidence_angles", unmerged_incidences)
        unmerged = run_sweep(plan)
        gains = np.array([[s.gain_db for s in p.samples] for p in (merged, unmerged)])
        assert np.abs(gains[0] - gains[1]).max() <= 1e-11
        assert abs(merged.deviation_db - unmerged.deviation_db) <= 1e-11

    def test_acceptance_criterion_8_grid_has_no_twins(self, monkeypatch):
        # its 0-80 deg grid folds onto itself, so its sweep keeps every bit
        angles = np.radians(np.arange(0.0, 90.0, 10.0))
        assert incidence_angles("XY", angles).tolist() == angles.tolist()
        plan = make_plan(angles=angles, cell=THZ_CELL, cell_frequency=THZ_FREQ)
        merged = run_sweep(plan)
        monkeypatch.setattr(patterns, "incidence_angles", unmerged_incidences)
        assert merged == run_sweep(plan)


def jitter_db(noisy, clean):
    """Each angle's readout jitter in dB: 20 log10 of the noisy over the clean raw ratio."""
    return [20.0 * math.log10(n.raw_ratio / c.raw_ratio) for n, c in zip(noisy.samples, clean.samples)]


class TestNoiseStream:
    """One normal stream per sweep: angle i takes draw i."""

    @pytest.mark.parametrize("plane,cell", [("XY", None), ("XY", THZ_CELL), ("YZ", None)])
    def test_jitter_of_angle_i_is_draw_i(self, plane, cell):
        kwargs = dict(plane=plane, angles=grid(0.5, 3.0), cell=cell, cell_frequency=THZ_FREQ if cell else None)
        clean = run_sweep(make_plan(**kwargs))
        noisy = run_sweep(make_plan(noise_sigma_db=0.8, seed=23, **kwargs))
        draws = _oracles.normal_draws(23, 0.8, 120)
        jitter = jitter_db(noisy, clean)
        assert jitter == pytest.approx(draws, rel=0, abs=1e-12)

    def test_gaps_keep_every_other_angle_jitter(self, monkeypatch):
        angles = np.radians([3.0, 20.0, 37.0, 55.0, 125.0, 160.0])
        plan = make_plan(
            angles=angles, drive=RfDrive(rabi=40 * MHZ), readout="spectrum", scan_points=401,
            cell=THZ_CELL, cell_frequency=THZ_FREQ, noise_sigma_db=0.5, seed=8,
        )
        full = run_sweep(plan)
        clean = run_sweep(replace(plan, noise_sigma_db=0.0))
        draws = _oracles.normal_draws(8, 0.5, len(angles))
        jitter = jitter_db(full, clean)
        assert jitter == pytest.approx(draws, rel=0, abs=1e-12)
        real = patterns._spectrum_delta_at
        gap_drive = 40 * MHZ * patterns._cell_factors(plan)[2]
        monkeypatch.setattr(
            patterns, "_spectrum_delta_at", lambda p, omega: None if omega == gap_drive else real(p, omega)
        )
        gapped = run_sweep(plan)
        assert gapped.gap_angles == (angles[2],)
        kept = [s for i, s in enumerate(full.samples) if i != 2]
        assert [s.raw_ratio for s in gapped.samples] == [s.raw_ratio for s in kept]

    @pytest.mark.parametrize("count", [7, 8])
    def test_a_short_grid_takes_the_prefix_of_a_long_one(self, count):
        def jitter(angles):
            clean = run_sweep(make_plan(angles=angles))
            noisy = run_sweep(make_plan(angles=angles, noise_sigma_db=0.6, seed=31))
            return jitter_db(noisy, clean)

        short = jitter(grid(0.0, 3.0)[:count])
        assert len(short) == count
        assert short == pytest.approx(jitter(grid(0.0, 3.0))[:count], rel=0, abs=1e-12)
        assert short == pytest.approx(_oracles.normal_draws(31, 0.6, count), rel=0, abs=1e-12)

    def test_draws_are_normal(self):
        from scipy.stats import kstest, norm

        sigma, count = 0.7, 200_000
        draws = patterns._normal_draws(2024, sigma, count)
        assert draws.shape == (count,) and np.all(np.isfinite(draws))
        assert kstest(draws, norm(scale=sigma).cdf).pvalue > 1e-6
        # standard errors: sigma / sqrt(n) of the mean, sigma^2 sqrt(2 / (n - 1)) of the variance
        assert abs(draws.mean()) < 5.0 * sigma / math.sqrt(count)
        assert abs(draws.var(ddof=1) - sigma**2) < 5.0 * sigma**2 * math.sqrt(2.0 / (count - 1))


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

    @pytest.mark.parametrize("plane", ["axial", "equatorial"])
    @pytest.mark.parametrize("angles", [[math.inf, 1.0], [0.5, math.nan], [-math.inf], [], [[0.1, 0.2]]])
    def test_refuses_the_angles_a_sweep_refuses(self, plane, angles):
        with pytest.raises(InputError) as info:
            dipole_reference(angles, plane)
        assert str(info.value) == "angles must be a non-empty 1-D array of finite values"
        with pytest.raises(InputError) as plan:
            make_plan(angles=angles)
        assert str(plan.value) == str(info.value)

    def test_keeps_the_bits_of_the_scalar_form(self):
        # float(a) % 2 pi and math.sin per angle, as before the angle rule moved into sweep_angles
        angles = np.random.default_rng(3).uniform(-20.0, 20.0, 500).tolist() + [0.0, -0.0, math.pi, -2 * math.pi]
        folded = [a % (2 * math.pi) for a in angles]
        pattern = dipole_reference(angles)
        assert [s.angle for s in pattern.samples] == folded
        assert [s.raw_ratio for s in pattern.samples] == [max(abs(math.sin(a)), 1e-3) for a in folded]


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

    def test_from_dict_refuses_what_to_dict_cannot_write(self):
        doc = run_sweep(make_plan(noise_sigma_db=0.5, seed=3)).to_dict()
        assert GainPattern.from_dict(doc).deviation_db == doc["deviation_db"]
        bad_docs = {
            "JSON object": [doc],
            "samples is empty": dict(doc, samples=[]),
            "deviation_db must be a number": dict(doc, deviation_db="x"),
            "deviation_db must be finite": dict(doc, deviation_db=math.nan),
            "gain_db must be finite": dict(doc, samples=[dict(doc["samples"][0], gain_db=-math.inf)]),
            "noise_sigma_db must be finite": dict(doc, noise_sigma_db=math.inf),
            "raw_ratio must be > 0, got 0.0": dict(doc, samples=[dict(doc["samples"][0], raw_ratio=0)]),
            "raw_ratio must be > 0, got -1.0": dict(doc, samples=[dict(doc["samples"][0], raw_ratio=-1)]),
            "gain_db must be <= 0, got 0.5": dict(doc, samples=[dict(doc["samples"][0], gain_db=0.5)]),
            "not the spread": dict(doc, deviation_db=doc["deviation_db"] + 1.1 * patterns.DEVIATION_MATCH_DB),
        }
        for reason, bad in bad_docs.items():
            with pytest.raises(ValueError, match=reason):
                GainPattern.from_dict(bad)
        near = dict(doc, deviation_db=doc["deviation_db"] + 0.9 * patterns.DEVIATION_MATCH_DB)
        assert GainPattern.from_dict(near).deviation_db == near["deviation_db"]

    def test_csv_writers(self, tmp_path, monkeypatch):
        pattern = run_sweep(make_plan(angles=np.radians([0.0, 90.0])))
        monkeypatch.setattr(cli, "run_sweep", lambda plan: pattern)
        config = {"schema_version": 1, "system": {"two_jg": 1, "two_je": 3, "mu_mhz_per_v_per_m": 1.0},
                  "drive": {"rabi_mhz": 10.0}, "sweep": {"plane": "XY", "angles_deg": [0, 90]}}
        (tmp_path / "run.json").write_text(json.dumps(config))
        assert cli.main(["sweep", "--config", str(tmp_path / "run.json"), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "rydant_pattern.csv").read_text().splitlines()
        assert lines[0] == "plane,angle_deg,gain_db"
        assert lines[1].startswith("XY,0,")
        assert len(lines) == 3

        plines = (tmp_path / "rydant_polar.csv").read_text().splitlines()
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


def assert_close_to_oracle(pattern: dict, oracle: dict):
    """Two pattern documents that agree to rounding: the Gram and full-matrix readouts."""
    rest = {k: v for k, v in pattern.items() if k not in ("samples", "deviation_db")}
    assert rest == {k: v for k, v in oracle.items() if k not in ("samples", "deviation_db")}
    assert abs(pattern["deviation_db"] - oracle["deviation_db"]) <= 1e-13
    assert len(pattern["samples"]) == len(oracle["samples"])
    for ours, theirs in zip(pattern["samples"], oracle["samples"]):
        assert ours["angle_deg"] == theirs["angle_deg"]
        assert abs(ours["raw_ratio"] - theirs["raw_ratio"]) <= 1e-14 * theirs["raw_ratio"]
        assert abs(ours["gain_db"] - theirs["gain_db"]) <= 1e-13


def eigen_plan(plane, two_jg, detuning_mhz, cell, noise):
    return make_plan(
        plane=plane,
        angles=np.radians(np.arange(1.5, 360.0, 4.0)),
        drive=RfDrive(rabi=7.3 * MHZ, detuning=detuning_mhz * MHZ),
        system=TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=MHZ),
        cell=THZ_CELL if cell else None,
        cell_frequency=THZ_FREQ if cell else None,
        noise_sigma_db=noise,
        seed=19,
    )


class TestBatchedEigenSweep:
    """run_sweep's Gram readout against the per-angle full-matrix readout and cell sweep.

    The sweep takes sqrt(detuning^2 + 4 s_max) from the ground-space Gram
    matrix, the oracle max - min of the full dressed spectrum less its
    -detuning pair: a change of solver, so they agree to rounding
    (1e-14 relative in raw_ratio, 1e-13 dB in gain_db and deviation_db).
    """

    @pytest.mark.parametrize("plane", ["XY", "XZ", "YZ"])
    @pytest.mark.parametrize("two_jg", [1, 3])
    @pytest.mark.parametrize("cell,noise", [(False, 0.0), (True, 0.0), (True, 0.7), (False, 0.4)])
    def test_patterns_equal_the_per_angle_oracle(self, monkeypatch, plane, two_jg, cell, noise):
        plan = eigen_plan(plane, two_jg, -2.2, cell, noise)
        batched = run_sweep(plan).to_dict()
        monkeypatch.setattr(patterns, "_eigen_delta_ats", _oracles.eigen_delta_ats)
        monkeypatch.setattr(patterns, "path_averages", _oracles.path_averages)
        assert_close_to_oracle(batched, run_sweep(plan).to_dict())

    @pytest.mark.parametrize("two_jg", [5, 7, 9])
    @pytest.mark.parametrize("detuning_mhz", [-2.2, 0.0, 3.0])
    @pytest.mark.parametrize("cell,noise", [(False, 0.0), (True, 0.7)])
    def test_larger_momenta_and_detunings_match_the_oracle(self, monkeypatch, two_jg, detuning_mhz, cell, noise):
        for plane in PLANES:
            plan = eigen_plan(plane, two_jg, detuning_mhz, cell, noise)
            batched = run_sweep(plan).to_dict()
            with monkeypatch.context() as m:
                m.setattr(patterns, "_eigen_delta_ats", _oracles.eigen_delta_ats)
                assert_close_to_oracle(batched, run_sweep(plan).to_dict())

    @pytest.mark.parametrize("two_jg", [1, 3, 5, 7, 9])
    @pytest.mark.parametrize("detuning_mhz", [-2.2, 0.0, 3.0])
    def test_splittings_equal_the_closed_form(self, two_jg, detuning_mhz):
        for plane in PLANES:
            plan = eigen_plan(plane, two_jg, detuning_mhz, False, 0.0)
            expected = _oracles.closed_form_delta_at(two_jg, plan.drive.rabi, plan.drive.detuning)
            delta_ats = np.array(patterns._eigen_delta_ats(plan, [1.0] * len(plan.angles)))
            assert np.abs(delta_ats - expected).max() <= 1e-14 * expected


class TestArrayTail:
    """run_sweep's ratios, gains, gaps and deviation equal the per-angle loop it replaced, with ==."""

    @pytest.mark.parametrize("readout", ["eigen", "spectrum"])
    def test_equals_the_scalar_loop(self, monkeypatch, readout):
        angles = np.radians([3.0, 20.0, 37.0, 55.0, 143.0, 160.0, 200.0])
        plan = make_plan(
            angles=angles, drive=RfDrive(rabi=40 * MHZ), readout=readout, scan_points=401,
            cell=THZ_CELL, cell_frequency=THZ_FREQ, noise_sigma_db=0.5, seed=8,
        )
        factors = patterns._cell_factors(plan)
        if readout == "eigen":
            delta_ats = patterns._eigen_delta_ats(plan, factors).tolist()
        else:
            # the drive of angle 2 stays unresolved, so it and its mirror angle are gaps
            gap_drive = plan.drive.rabi * factors[2]
            real = patterns._spectrum_delta_at
            monkeypatch.setattr(
                patterns, "_spectrum_delta_at", lambda p, omega: None if omega == gap_drive else real(p, omega)
            )
            delta_ats = [patterns._spectrum_delta_at(plan, plan.drive.rabi * f) for f in factors]
            assert delta_ats.count(None) == 2
        scales = (10.0 ** (patterns._normal_draws(plan.seed, plan.noise_sigma_db, len(angles)) / 20.0)).tolist()
        samples, gaps, deviation = _oracles.scalar_sweep_tail(
            plan.angles.tolist(), delta_ats, plan.drive.rabi / plan.system.mu, scales
        )
        pattern = run_sweep(plan)
        assert all(type(s) is GainSample for s in pattern.samples)
        assert list(pattern.samples) == samples
        assert list(pattern.gap_angles) == gaps
        assert pattern.deviation_db == deviation


class TestPlanRefusals:
    @pytest.mark.parametrize("two_jg,two_je", [(1, 1), (3, 3), (3, 1)])
    @pytest.mark.parametrize("readout", ["eigen", "spectrum"])
    def test_unsupported_transitions(self, two_jg, two_je, readout):
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_je), mu=MHZ)
        with pytest.raises(ValueError, match=r"^two_je must equal two_jg \+ 2 \(a J -> J \+ 1 transition\)"):
            make_plan(system=system, readout=readout)

    def test_momenta_past_the_verified_range(self):
        for two_jg in (MAX_TWO_JG + 1, MAX_TWO_JG + 2, 10001):
            system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=MHZ)
            with pytest.raises(ValueError, match=r"^two_jg: .* exceeds MAX_TWO_JG"):
                make_plan(system=system)
        system = TransitionSystem(AngularMomentum(MAX_TWO_JG), AngularMomentum(MAX_TWO_JG + 2), mu=MHZ)
        assert make_plan(system=system).system is system

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            make_plan(seed=-1)

    def test_seed_is_an_integer(self):
        with pytest.raises(InputError, match=r"^seed must be an integer, got 2\.0$"):
            make_plan(seed=2.0)
        plan = make_plan(seed=np.int64(5), noise_sigma_db=0.4)
        assert type(plan.seed) is int
        assert run_sweep(plan) == run_sweep(make_plan(seed=5, noise_sigma_db=0.4))
