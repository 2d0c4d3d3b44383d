import math

import numpy as np
import pytest

from _oracles import path_averages as per_angle_path_averages
from _oracles import random_cell_case, rk4_field_profile
from rydant.cellfield import (
    MAX_STACK_NEPERS,
    SPEED_OF_LIGHT,
    CellGeometry,
    FieldProfile,
    _kx,
    _stack_amplitudes,
    angle_sweep_deviation,
    path_average,
    path_averages,
    stack_nepers,
    profile_csv,
    sweep_csv,
    sweep_samples,
    transfer_matrix_field,
)
from rydant.metrology import normalized_gain

THZ_FREQ = 0.1296e12
DEFAULT_GEOMETRY = CellGeometry(wall_thickness=2e-3, inner_length=20e-3)


class TestAgainstDirectIntegration:
    def test_random_stacks_match_the_ode_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(5):
            geometry, frequency, angle, pol = random_cell_case(rng)
            profile = transfer_matrix_field(geometry, frequency, angle, pol, samples=201)
            _, oracle = rk4_field_profile(geometry, frequency, angle, pol, 201)
            rel = np.abs(profile.amplitude - oracle).max() / profile.amplitude.max()
            assert rel < 1e-6, (geometry, frequency, angle, pol, rel)

    def test_half_wave_walls_are_invisible(self):
        # walls one half-wave thick transmit perfectly; the interior then
        # carries a pure traveling wave of unit amplitude
        wavelength = SPEED_OF_LIGHT / THZ_FREQ
        geometry = CellGeometry(
            wall_thickness=wavelength / (2 * 2.0),
            inner_length=20e-3,
            wall_index=2.0 + 0j,
        )
        profile = transfer_matrix_field(geometry, THZ_FREQ, 0.0, "TE", samples=2001)
        assert np.ptp(profile.amplitude) < 1e-8
        assert path_average(profile) == pytest.approx(1.0, abs=1e-8)


class TestStandingWaveStructure:
    def test_node_spacing_is_half_a_wavelength(self):
        profile = transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, "TE", samples=4001)
        amp = profile.amplitude
        interior = (amp[1:-1] < amp[:-2]) & (amp[1:-1] < amp[2:])
        minima = profile.positions[1:-1][interior]
        assert len(minima) >= 10
        spacing = np.diff(minima)
        half_wave = SPEED_OF_LIGHT / THZ_FREQ / 2.0
        np.testing.assert_allclose(spacing, half_wave, rtol=0.02)

    def test_contrast_present_with_reflective_walls(self):
        profile = transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, "TE", samples=2001)
        assert np.ptp(profile.amplitude) > 0.1

    def test_te_and_tm_agree_at_normal_incidence(self):
        te = transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, "TE", samples=301)
        tm = transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, "TM", samples=301)
        assert np.abs(te.amplitude - tm.amplitude).max() < 1e-12


class TestStackInvariants:
    K0 = 2.0 * math.pi * THZ_FREQ / SPEED_OF_LIGHT
    LOSSLESS = (
        [1 + 0j, 1.7 + 0j, 1.2 + 0j, 2.6 + 0j, 1 + 0j],
        [0.0, 1.1e-3, 7e-3, 0.8e-3, 0.0],
    )
    LOSSY = (
        [1 + 0j, 1.9 + 0.03j, 1.3 + 0j, 2.4 + 0.01j, 1 + 0j],
        [0.0, 1.3e-3, 9e-3, 0.7e-3, 0.0],
    )

    def test_energy_conservation_without_loss(self):
        ns, ds = self.LOSSLESS
        for pol in ("TE", "TM"):
            for angle in (0.0, 0.4, 1.2):
                beta = self.K0 * math.sin(angle)
                _, r, t = _stack_amplitudes(ns, ds, self.K0, beta, pol)
                assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_absorbing_walls_dissipate(self):
        ns, ds = self.LOSSY
        _, r, t = _stack_amplitudes(ns, ds, self.K0, 0.0, "TE")
        assert abs(r) ** 2 + abs(t) ** 2 < 1.0 - 1e-3

    def test_transmission_reciprocity(self):
        # same t from either side, even with absorption
        ns, ds = self.LOSSY
        beta = self.K0 * math.sin(0.5)
        for pol in ("TE", "TM"):
            _, _, forward = _stack_amplitudes(ns, ds, self.K0, beta, pol)
            _, _, backward = _stack_amplitudes(ns[::-1], ds[::-1], self.K0, beta, pol)
            assert abs(forward - backward) < 1e-12


class TestPathAverage:
    def test_flat_profile_averages_to_itself(self):
        x = np.linspace(0.0, 1.0, 11)
        profile = FieldProfile(x, np.full_like(x, 0.7), 0.0, 1e9)
        assert path_average(profile) == pytest.approx(0.7, abs=1e-15)

    def test_rectified_cosine_averages_to_two_over_pi(self):
        # integer number of half-periods
        k = 2.0 * math.pi
        x = np.linspace(0.0, 3 * (math.pi / k), 30001)
        profile = FieldProfile(x, np.abs(np.cos(k * x)), 0.0, 1e9)
        assert path_average(profile) == pytest.approx(2.0 / math.pi, abs=1e-4)


class TestAngleSweep:
    def test_single_angle_has_zero_spread(self):
        assert angle_sweep_deviation(DEFAULT_GEOMETRY, THZ_FREQ, [0.0]) == 0.0

    def test_spread_is_nonnegative_and_finite(self):
        angles = np.radians(np.arange(0.0, 90.0, 10.0))
        dev = angle_sweep_deviation(DEFAULT_GEOMETRY, THZ_FREQ, angles)
        assert dev > 0.0
        assert math.isfinite(dev)

    def test_sample_density_tracks_the_wavelength(self):
        assert sweep_samples(DEFAULT_GEOMETRY, THZ_FREQ) == 513
        dense = sweep_samples(DEFAULT_GEOMETRY, 1.0e12)
        assert dense > 2000

    def test_rejects_empty_angles(self):
        with pytest.raises(ValueError):
            angle_sweep_deviation(DEFAULT_GEOMETRY, THZ_FREQ, [])


class TestValidation:
    def test_angle_domain(self):
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, math.pi / 2)
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, -0.1)

    def test_frequency_and_samples(self):
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, 0.0, 0.0)
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, samples=1)

    def test_polarization_name(self):
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, polarization="TEM")

    def test_geometry_constraints(self):
        with pytest.raises(ValueError):
            CellGeometry(wall_thickness=0.0, inner_length=1e-2)
        with pytest.raises(ValueError):
            CellGeometry(wall_thickness=1e-3, inner_length=1e-2, wall_index=0.9 + 0j)

    def test_profile_constraints(self):
        with pytest.raises(ValueError):
            FieldProfile(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.0, 1e9)
        with pytest.raises(ValueError):
            FieldProfile(np.array([0.0, 1.0]), np.array([1.0, -1.0]), 0.0, 1e9)


class TestCsvWriters:
    def test_profile_csv(self):
        profile = FieldProfile(np.array([0.0, 0.001]), np.array([1.0, 0.5]), 0.0, 1e9)
        lines = profile_csv(profile).splitlines()
        assert lines[0] == "position_m,amplitude_rel"
        assert lines[1] == "0,1"
        assert lines[2] == "0.001,0.5"

    def test_sweep_csv_references_zero_db_to_the_max(self):
        samples = normalized_gain([(0.0, 0.5), (math.radians(10.0), 1.0)])
        lines = sweep_csv(samples).splitlines()
        assert lines[1].startswith("0,0.5,")
        assert lines[2].startswith("10,1,")
        assert lines[0] == "angle_deg,path_avg_rel,gain_db"
        assert lines[2].endswith(",0")
        first_gain = float(lines[1].split(",")[2])
        assert first_gain == pytest.approx(20 * math.log10(0.5), abs=1e-6)


class TestBatchedPathAverages:
    """path_averages against one validated profile per angle, exactly."""

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    def test_matches_one_profile_per_angle(self, polarization):
        angles = [0.0, 0.3, 0.3, 1.2, 0.0, -0.0, 0.7, 0.3, 1.5]
        cells = [(DEFAULT_GEOMETRY, THZ_FREQ)]
        rng = np.random.default_rng(21)
        cells += [random_cell_case(rng)[:2] for _ in range(6)]
        for geometry, frequency in cells:
            got = path_averages(geometry, frequency, angles, polarization)
            assert got == per_angle_path_averages(geometry, frequency, angles, polarization)
            assert got[0] == got[4] == got[5] and got[1] == got[2] == got[7]

    def test_one_profile_per_distinct_angle(self, monkeypatch):
        from rydant import cellfield

        calls = []
        real = cellfield._interior_amplitude
        monkeypatch.setattr(cellfield, "_interior_amplitude", lambda *a: calls.append(a[2]) or real(*a))
        path_averages(DEFAULT_GEOMETRY, THZ_FREQ, [0.0] * 50 + [0.4, 0.2, 0.4])
        assert calls == [0.0, 0.4, 0.2]

    def test_refusals_match_the_profile_builder(self):
        for bad in ([0.1, math.pi / 2], [-0.1], [math.nan]):
            with pytest.raises(ValueError, match="angle must lie"):
                path_averages(DEFAULT_GEOMETRY, THZ_FREQ, bad)
        with pytest.raises(ValueError, match="polarization"):
            path_averages(DEFAULT_GEOMETRY, THZ_FREQ, [0.1], "XX")
        with pytest.raises(ValueError, match="frequency"):
            path_averages(DEFAULT_GEOMETRY, -1.0, [0.1])
        assert path_averages(DEFAULT_GEOMETRY, THZ_FREQ, []) == []


class TestStackNepers:
    def test_lossless_stack_neither_grows_nor_decays(self):
        geometry = CellGeometry(wall_thickness=2e-3, inner_length=20e-3, wall_index=2.1 + 0j)
        assert stack_nepers(geometry, THZ_FREQ) == 0.0

    def test_bounds_every_incidence(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            geometry, frequency, _, _ = random_cell_case(rng)
            k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
            layers = ((geometry.wall_index, 2 * geometry.wall_thickness), (geometry.inner_index, geometry.inner_length))
            sampled = [
                sum(abs(complex(_kx(n, k0, k0 * math.sin(a))).imag) * d for n, d in layers)
                for a in np.linspace(0.0, math.pi / 2, 200)
            ]
            bound = stack_nepers(geometry, frequency)
            assert max(sampled) <= bound * (1 + 1e-12)
            assert sampled[-1] == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize(
        "geometry",
        [
            CellGeometry(wall_thickness=1.0, inner_length=20e-3),  # 1 m of lossy glass
            CellGeometry(wall_thickness=2e-3, inner_length=20e-3, wall_index=2.1 + 1e3j),
            CellGeometry(wall_thickness=2e-3, inner_length=20e-3, inner_index=1.0 + 100j),
            CellGeometry(wall_thickness=2e-3, inner_length=20e-3, wall_index=1e200),
        ],
    )
    def test_opaque_or_overflowing_stacks_are_refused(self, geometry):
        assert not stack_nepers(geometry, THZ_FREQ) <= MAX_STACK_NEPERS
        with pytest.raises(ValueError, match="MAX_STACK_NEPERS"):
            transfer_matrix_field(geometry, THZ_FREQ, 0.2)
        with pytest.raises(ValueError, match="MAX_STACK_NEPERS"):
            path_averages(geometry, THZ_FREQ, [0.2])

    def test_wavenumbers_out_of_range_are_refused(self):
        for frequency in (1e-160, 1e300):
            assert stack_nepers(DEFAULT_GEOMETRY, frequency) == math.inf
            with pytest.raises(ValueError, match="rad/m"):
                transfer_matrix_field(DEFAULT_GEOMETRY, frequency, 0.0)

    def test_stacks_under_the_cap_stay_finite_up_to_grazing(self):
        # lossy, gaining and high-index walls at 0.99 of the cap, up to 1e-7 rad from grazing
        k0 = 2.0 * math.pi * THZ_FREQ / SPEED_OF_LIGHT
        for index in (2.1 + 0.02j, 2.1 - 0.02j, 30.0 + 0.5j):
            thickness = 0.99 * MAX_STACK_NEPERS / (2.0 * abs(complex(_kx(index, k0, k0)).imag))
            geometry = CellGeometry(wall_thickness=thickness, inner_length=20e-3, wall_index=index)
            for polarization in ("TE", "TM"):
                averages = path_averages(geometry, THZ_FREQ, [0.0, 1.0, 1.5, math.pi / 2 - 1e-7], polarization)
                assert all(math.isfinite(a) and a > 0 for a in averages)
