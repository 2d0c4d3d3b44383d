import math

import numpy as np
import pytest

from _oracles import (
    interior_amplitude,
    kx,
    mpmath_interior_amplitudes,
    random_cell_case,
    rk4_field_profile,
    stack_amplitudes,
    two_exponential_profile,
)
from _oracles import path_averages as per_angle_path_averages
from rydant import cli
from rydant.cellfield import (
    MAX_STACK_NEPERS,
    MAX_SWEEP_SAMPLES,
    SPEED_OF_LIGHT,
    WALK_SAMPLES,
    CellGeometry,
    FieldProfile,
    _walk,
    angle_sweep_deviation,
    check_incidences,
    incidences_in_domain,
    path_average,
    path_averages,
    stack_nepers,
    sweep_samples,
    transfer_matrix_field,
)
from rydant.spectra import InputError

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


class TestProfilePrecision:
    def test_random_cells_match_a_30_digit_evaluation(self):
        # the walk's own (a, b, kx), evaluated on the profile's positions in mpmath;
        # the worst measured over these cells was 5.0e-15 of the maximum
        rng = np.random.default_rng(909)
        for i in range(30):
            geometry, frequency, angle, _ = random_cell_case(rng, lossy_vapor=i % 2 == 1)
            assert angle <= 1.4
            samples = sweep_samples(geometry, frequency)
            positions = np.linspace(0.0, geometry.inner_length, samples)
            for pol, exact in mpmath_interior_amplitudes(geometry, frequency, angle, positions).items():
                profile = transfer_matrix_field(geometry, frequency, angle, pol, samples)
                assert np.abs(profile.amplitude - exact).max() <= 2e-14 * exact.max(), (i, pol)


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

    @staticmethod
    def reflection_and_transmission(ns, ds, k0, betas, pol):
        _, amps = _walk(ns, ds, k0, betas, pol)
        return amps[0][1], amps[-1][0]

    def test_energy_conservation_without_loss(self):
        ns, ds = self.LOSSLESS
        betas = [self.K0 * math.sin(angle) for angle in (0.0, 0.4, 1.2)]
        for pol in ("TE", "TM"):
            r, t = self.reflection_and_transmission(ns, ds, self.K0, betas, pol)
            for r_row, t_row in zip(r, t):
                assert abs(r_row) ** 2 + abs(t_row) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_absorbing_walls_dissipate(self):
        ns, ds = self.LOSSY
        (r,), (t,) = self.reflection_and_transmission(ns, ds, self.K0, [0.0], "TE")
        assert abs(r) ** 2 + abs(t) ** 2 < 1.0 - 1e-3

    def test_transmission_reciprocity(self):
        # same t from either side, even with absorption
        ns, ds = self.LOSSY
        beta = self.K0 * math.sin(0.5)
        for pol in ("TE", "TM"):
            _, (forward,) = self.reflection_and_transmission(ns, ds, self.K0, [beta], pol)
            _, (backward,) = self.reflection_and_transmission(ns[::-1], ds[::-1], self.K0, [beta], pol)
            assert abs(forward - backward) < 1e-12

    def test_walk_matches_the_scalar_walk(self):
        betas = [self.K0 * math.sin(angle) for angle in (0.0, -0.0, 0.4, 1.2, math.pi / 2 - 1e-7)]
        for ns, ds in (self.LOSSLESS, self.LOSSY, (self.LOSSY[0][::-1], self.LOSSY[1][::-1])):
            for pol in ("TE", "TM"):
                _, amps = _walk(ns, ds, self.K0, betas, pol)
                for i, beta in enumerate(betas):
                    expected, r, t = stack_amplitudes(ns, ds, self.K0, beta, pol)
                    got = [(complex(a[i]), complex(b[i])) for a, b in amps]
                    assert np.array(got).tobytes() == np.array(expected, dtype=complex).tobytes()
                    assert (complex(amps[0][1][i]), complex(amps[-1][0][i])) == (r, t)


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
        assert angle_sweep_deviation(DEFAULT_GEOMETRY, THZ_FREQ, [0.0], "TE") == 0.0

    def test_spread_is_nonnegative_and_finite(self):
        angles = np.radians(np.arange(0.0, 90.0, 10.0))
        dev = angle_sweep_deviation(DEFAULT_GEOMETRY, THZ_FREQ, angles, "TE")
        assert dev > 0.0
        assert math.isfinite(dev)

    def test_sample_density_tracks_the_wavelength(self):
        assert sweep_samples(DEFAULT_GEOMETRY, THZ_FREQ) == 513
        dense = sweep_samples(DEFAULT_GEOMETRY, 1.0e12)
        assert dense > 2000

    def test_a_bare_profile_takes_the_sweep_grid(self):
        # 66.7 vapor wavelengths at 1 THz: 32 samples per wavelength, not 513 in all
        for frequency, samples in ((THZ_FREQ, 513), (1.0e12, 2136)):
            assert sweep_samples(DEFAULT_GEOMETRY, frequency) == samples
            bare = transfer_matrix_field(DEFAULT_GEOMETRY, frequency, 0.3, "TE")
            explicit = transfer_matrix_field(DEFAULT_GEOMETRY, frequency, 0.3, "TE", samples)
            assert bare.positions.size == samples
            assert bare.amplitude.tobytes() == explicit.amplitude.tobytes()

    def test_rejects_empty_angles(self):
        with pytest.raises(ValueError):
            angle_sweep_deviation(DEFAULT_GEOMETRY, THZ_FREQ, [], "TE")


class TestValidation:
    def test_angle_domain(self):
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, math.pi / 2, "TE")
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, -0.1, "TE")

    def test_frequency_and_samples(self):
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, 0.0, 0.0, "TE")
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, "TE", samples=1)

    def test_samples_are_capped(self):
        transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, "TE", samples=MAX_SWEEP_SAMPLES)
        for samples in (MAX_SWEEP_SAMPLES + 1, 10**9):
            with pytest.raises(ValueError, match="samples must be <= MAX_SWEEP_SAMPLES"):
                transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, "TE", samples=samples)

    def test_polarization_name(self):
        with pytest.raises(ValueError):
            transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, 0.0, polarization="TEM")

    def test_geometry_constraints(self):
        with pytest.raises(ValueError):
            CellGeometry(wall_thickness=0.0, inner_length=1e-2)
        with pytest.raises(ValueError):
            CellGeometry(wall_thickness=1e-3, inner_length=1e-2, wall_index=0.9 + 0j)

    @pytest.mark.parametrize("name", ["wall_index", "inner_index"])
    @pytest.mark.parametrize(
        "index",
        [complex(math.nan, 0.0), complex(1.5, math.nan), complex(math.inf, 0.0), complex(-math.inf, 0.0),
         complex(1.5, math.inf), complex(1.5, -math.inf)],
    )
    def test_non_finite_indices_are_refused_by_the_geometry_rule(self, name, index):
        with pytest.raises(InputError) as info:
            CellGeometry(wall_thickness=2e-3, inner_length=2e-2, **{name: index})
        assert info.value.quantity == name
        assert info.value.detail == f" must have finite real and imaginary parts, got {index}"

    def test_profile_constraints(self):
        with pytest.raises(ValueError):
            FieldProfile(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.0, 1e9)
        with pytest.raises(ValueError):
            FieldProfile(np.array([0.0, 1.0]), np.array([1.0, -1.0]), 0.0, 1e9)


class TestCsvWriters:
    """`rydant cellfield`'s CSV artifacts, of a profile and of path averages put in its place."""

    def test_profile_csv(self, tmp_path, monkeypatch):
        profile = FieldProfile(np.array([0.0, 0.001]), np.array([1.0, 0.5]), 0.0, 1e9)
        monkeypatch.setattr(cli, "transfer_matrix_field", lambda *args: profile)
        assert cli.main(["cellfield", "--preset", "thz-33s", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "rydant_profile.csv").read_text().splitlines()
        assert lines[0] == "position_m,amplitude_rel"
        assert lines[1] == "0,1"
        assert lines[2] == "0.001,0.5"

    def test_sweep_csv_references_zero_db_to_the_max(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "path_averages", lambda *args: [0.5, 1.0])
        assert cli.main(["cellfield", "--preset", "thz-33s", "--angles", "[0, 10]", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "rydant_cellsweep.csv").read_text().splitlines()
        assert lines[1].startswith("0,0.5,")
        assert lines[2].startswith("10,1,")
        assert lines[0] == "angle_deg,path_avg_rel,gain_db"
        assert lines[2].endswith(",0")
        first_gain = float(lines[1].split(",")[2])
        assert first_gain == pytest.approx(20 * math.log10(0.5), abs=1e-6)


class TestBatchedPathAverages:
    """path_averages against one plain-exponential profile per angle, and against the profile builder.

    The production profile takes exp(+-i kx x) from short phase tables, the
    oracle two plain exponentials per sample: the two agree to rounding.
    The worst differences measured over these draws were 4.8e-16 relative
    in a path average and 5.7e-15 of a profile's maximum; the tolerances
    are under 10x those.  path_averages and the profile builder share one
    computation, and agree bit for bit.
    """

    AVERAGE_TOL = 4e-15
    PROFILE_TOL = 5e-14

    @classmethod
    def assert_averages_close(cls, got, expected):
        assert np.all(np.abs(np.array(got) - expected) <= cls.AVERAGE_TOL * np.abs(expected))

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    def test_matches_one_profile_per_angle(self, polarization):
        angles = [0.0, 0.3, 0.3, 1.2, 0.0, -0.0, 0.7, 0.3, 1.5]
        cells = [(DEFAULT_GEOMETRY, THZ_FREQ)]
        rng = np.random.default_rng(21)
        cells += [random_cell_case(rng)[:2] for _ in range(6)]
        for geometry, frequency in cells:
            got = path_averages(geometry, frequency, angles, polarization)
            self.assert_averages_close(got, per_angle_path_averages(geometry, frequency, angles, polarization))
            assert got[0] == got[4] == got[5] and got[1] == got[2] == got[7]

    def test_one_profile_per_distinct_angle(self, monkeypatch):
        from rydant import cellfield

        rows = []
        real = cellfield._interior_amplitudes
        monkeypatch.setattr(cellfield, "_interior_amplitudes", lambda *a: rows.extend(a[2]) or real(*a))
        path_averages(DEFAULT_GEOMETRY, THZ_FREQ, [0.0] * 50 + [0.4, 0.2, 0.4], "TE")
        assert rows == [0.0, 0.4, 0.2]

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    def test_lossy_walls_and_vapor_match_the_scalar_walk(self, polarization):
        rng = np.random.default_rng(606)
        angles = [0.0, -0.0, math.pi / 2 - 1e-7, 0.05, 1.0, 1.4]
        for _ in range(8):
            geometry, frequency, angle, _ = random_cell_case(rng, lossy_vapor=True)
            assert geometry.inner_index.imag > 0 and geometry.wall_index.imag > 0
            got = path_averages(geometry, frequency, angles + [angle], polarization)
            expected = per_angle_path_averages(geometry, frequency, angles + [angle], polarization)
            self.assert_averages_close(got, expected)
            for a in (0.0, -0.0, math.pi / 2 - 1e-7, angle):
                profile = transfer_matrix_field(geometry, frequency, a, polarization, samples=257)
                expected = interior_amplitude(geometry, frequency, a, polarization, profile.positions)
                assert np.abs(profile.amplitude - expected).max() <= self.PROFILE_TOL * expected.max()

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    def test_equals_the_profile_builder_across_chunks(self, polarization):
        # 70 angles span several chunks of the batched walk
        angles = list(np.linspace(0.0, 1.5, 70))
        cells = [(DEFAULT_GEOMETRY, THZ_FREQ)]
        rng = np.random.default_rng(808)
        cells += [random_cell_case(rng, lossy_vapor=lossy)[:2] for lossy in (False, True, True)]
        for geometry, frequency in cells:
            samples = sweep_samples(geometry, frequency)
            assert max(1, WALK_SAMPLES // samples) < len(angles)
            expected = [
                path_average(transfer_matrix_field(geometry, frequency, a, polarization, samples)) for a in angles
            ]
            assert path_averages(geometry, frequency, angles, polarization) == expected

    def test_chunks_stay_within_walk_samples(self, monkeypatch):
        from rydant import cellfield

        chunks = []
        real = cellfield._interior_amplitudes

        def spy(*args):
            for amplitude in real(*args):
                chunks.append(amplitude.shape)
                yield amplitude

        monkeypatch.setattr(cellfield, "_interior_amplitudes", spy)
        angles = list(np.linspace(0.0, 1.5, 70))
        got = path_averages(DEFAULT_GEOMETRY, THZ_FREQ, angles, "TM")
        samples = sweep_samples(DEFAULT_GEOMETRY, THZ_FREQ)
        assert sum(rows for rows, _ in chunks) == 70 and len(chunks) > 1
        assert all(rows * width <= WALK_SAMPLES and width == samples for rows, width in chunks)
        self.assert_averages_close(got, per_angle_path_averages(DEFAULT_GEOMETRY, THZ_FREQ, angles, "TM"))
        chunks.clear()
        # a profile longer than WALK_SAMPLES goes one angle at a time
        long_cell = CellGeometry(wall_thickness=2e-3, inner_length=0.2)
        path_averages(long_cell, 1.0e12, [0.1, 0.2], "TE")
        assert [rows for rows, _ in chunks] == [1, 1] and chunks[0][1] > WALK_SAMPLES

    def test_grazing_sines_are_refused(self):
        # the sine of these angles rounds to 1: no incident wave propagates
        for angle in (math.pi / 2 - 1e-9, math.nextafter(math.pi / 2, 0.0)):
            assert math.sin(angle) == 1.0
            with pytest.raises(InputError, match=r"^angles: incidence .* at index 1 must lie in \[0, pi/2\)"):
                path_averages(DEFAULT_GEOMETRY, THZ_FREQ, [0.1, angle], "TE")
            with pytest.raises(InputError, match=r"^angles: incidence [^ ]+ rad \([^ ]+ deg\) must lie in \[0, pi/2\)"):
                transfer_matrix_field(DEFAULT_GEOMETRY, THZ_FREQ, angle, "TE")
        assert incidences_in_domain([math.pi / 2 - 1e-7, math.pi / 2 - 1e-9]).tolist() == [True, False]

    def test_refusals_match_the_profile_builder(self):
        for bad in ([0.1, math.pi / 2], [-0.1], [math.nan]):
            with pytest.raises(InputError, match="must lie in"):
                path_averages(DEFAULT_GEOMETRY, THZ_FREQ, bad, "TE")
        with pytest.raises(InputError, match="polarization"):
            path_averages(DEFAULT_GEOMETRY, THZ_FREQ, [0.1], "XX")
        with pytest.raises(InputError, match="frequency"):
            path_averages(DEFAULT_GEOMETRY, -1.0, [0.1], "TE")
        assert path_averages(DEFAULT_GEOMETRY, THZ_FREQ, [], "TE") == []

    def test_names_the_first_bad_incidence_among_many(self):
        angles = np.linspace(0.0, 1.5, 400)
        angles[[57, 120, 399]] = [math.pi / 2, -0.25, math.nan]
        with pytest.raises(InputError) as info:
            path_averages(DEFAULT_GEOMETRY, THZ_FREQ, angles, "TE")
        assert info.value.quantity == "angles"
        assert info.value.detail == (
            f": incidence {math.pi / 2!r} rad (90 deg) at index 57 must lie in [0, pi/2) "
            "with a sine below 1, short of grazing incidence"
        )


def grazing_threshold() -> float:
    """The largest float whose math.sin is below 1, by bisection on the float's bits."""
    low, high = (np.array(a).view(np.int64).item() for a in (math.pi / 2 - 1e-7, math.pi / 2))
    while high - low > 1:
        mid = (low + high) // 2
        if math.sin(np.array(mid).view(np.float64).item()) < 1.0:
            low = mid
        else:
            high = mid
    return np.array(low).view(np.float64).item()


class TestConjugateTables:
    """A lossless vapor takes its exp(-i kx x) tables as conjugates of the exp(i kx x) ones; no bit moves."""

    ANGLES = np.radians(np.linspace(0.0, 89.9, 24)).tolist()

    @staticmethod
    def cells():
        rng = np.random.default_rng(2718)
        cells = [(DEFAULT_GEOMETRY, THZ_FREQ)]
        for inner_index in (1.0, 1.0, 1.2, 1.45, complex(1.3, -0.0), complex(1.1, 0.01)):
            geometry, frequency, _, _ = random_cell_case(rng)
            cells.append((CellGeometry(geometry.wall_thickness, geometry.inner_length, geometry.wall_index,
                                       inner_index), frequency))
        return cells

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    def test_profiles_and_averages_keep_the_two_exponential_bits(self, polarization):
        for geometry, frequency in self.cells():
            samples = sweep_samples(geometry, frequency)
            x = np.linspace(0.0, geometry.inner_length, samples)
            profiles = [two_exponential_profile(geometry, frequency, a, polarization, samples) for a in self.ANGLES]
            expected = [float(np.trapezoid(p, x) / (x[-1] - x[0])) for p in profiles]
            assert path_averages(geometry, frequency, self.ANGLES, polarization) == expected
            for angle, profile in list(zip(self.ANGLES, profiles))[::4]:
                got = transfer_matrix_field(geometry, frequency, angle, polarization).amplitude
                assert got.tobytes() == profile.tobytes()

    @pytest.mark.parametrize("inner_index,tables", [(1.0 + 0j, 1), (complex(1.3, -0.0), 1), (1.0 + 1e-9j, 2)])
    def test_a_lossless_vapor_evaluates_half_the_exponentials(self, monkeypatch, inner_index, tables):
        exponentials, real_exp = [], np.exp
        monkeypatch.setattr(np, "exp", lambda z: exponentials.append(np.size(z)) or real_exp(z))
        geometry = CellGeometry(2e-3, 20e-3, inner_index=inner_index)
        path_averages(geometry, THZ_FREQ, self.ANGLES, "TE")
        samples = sweep_samples(geometry, THZ_FREQ)
        block = math.isqrt(samples - 1) + 1
        per_row = len(range(0, samples, block)) + block  # M coarse and B fine phases
        walk = 3 * len(self.ANGLES)  # one phase per angle across each wall and the vapor
        assert sum(exponentials) == walk + tables * per_row * len(self.ANGLES)

    def test_this_host_conjugates_imaginary_exponentials_exactly(self):
        # The lossless tables rest on exp(-z) == conj(exp(z)), bit for bit, for
        # z = i kx x with real kx; a numpy or libm that breaks it fails here.
        # Phases reach 3e4 rad, past the 2 pi * 3125 of MAX_SWEEP_SAMPLES.
        rng = np.random.default_rng(31)
        ikx = 1j * np.concatenate([[0.0], rng.uniform(0.0, 1e5, 400)]).astype(complex)[:, None]
        z = ikx * np.concatenate([[0.0], rng.uniform(0.0, 0.3, 300)])
        assert np.exp(-z).view(np.int64).tobytes() == np.exp(z).conj().view(np.int64).tobytes()


class TestIncidenceRule:
    @staticmethod
    def scalar_rule(angle: float) -> bool:
        return 0 <= angle < math.pi / 2 and math.sin(angle) < 1

    def boundary_angles(self) -> np.ndarray:
        """Four float neighbours either side of 0, of the grazing threshold and of pi/2, and the non-finite."""
        found = [-0.0, math.nan, math.inf, -math.inf]
        for centre in (0.0, grazing_threshold(), math.pi / 2):
            for direction in (-math.inf, math.inf):
                angle = centre
                for _ in range(4):
                    angle = float(np.nextafter(angle, direction))
                    found.append(angle)
            found.append(centre)
        return np.array(found)

    def test_agrees_with_the_scalar_rule_at_each_boundary(self):
        angles = self.boundary_angles()
        expected = [self.scalar_rule(a) for a in angles.tolist()]
        assert incidences_in_domain(angles).tolist() == expected
        threshold = grazing_threshold()
        assert math.sin(threshold) < 1.0 == math.sin(float(np.nextafter(threshold, 2.0)))
        assert threshold < math.pi / 2 - 1e-8  # the sine, not the pi/2 bound, decides here
        for angle, inside in zip(angles.tolist(), expected):
            if inside:
                check_incidences(angle)
            else:
                with pytest.raises(InputError, match="^angles: incidence"):
                    check_incidences(angle)

    def test_gives_one_bool_per_angle_of_any_shape(self):
        assert incidences_in_domain([]).tolist() == []
        assert incidences_in_domain(0.3).tolist() == [True]
        assert incidences_in_domain([[0.3, 2.0]]).tolist() == [True, False]


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
                sum(abs(complex(kx(n, k0, k0 * math.sin(a))).imag) * d for n, d in layers)
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
            transfer_matrix_field(geometry, THZ_FREQ, 0.2, "TE")
        with pytest.raises(ValueError, match="MAX_STACK_NEPERS"):
            path_averages(geometry, THZ_FREQ, [0.2], "TE")

    def test_wavenumbers_out_of_range_are_refused(self):
        for frequency in (1e-160, 1e300):
            assert stack_nepers(DEFAULT_GEOMETRY, frequency) == math.inf
            with pytest.raises(ValueError, match="rad/m"):
                transfer_matrix_field(DEFAULT_GEOMETRY, frequency, 0.0, "TE")

    def test_stacks_under_the_cap_stay_finite_up_to_grazing(self):
        # lossy, gaining and high-index walls at 0.99 of the cap, up to 1e-7 rad from grazing
        k0 = 2.0 * math.pi * THZ_FREQ / SPEED_OF_LIGHT
        for index in (2.1 + 0.02j, 2.1 - 0.02j, 30.0 + 0.5j):
            thickness = 0.99 * MAX_STACK_NEPERS / (2.0 * abs(complex(kx(index, k0, k0)).imag))
            geometry = CellGeometry(wall_thickness=thickness, inner_length=20e-3, wall_index=index)
            for polarization in ("TE", "TM"):
                averages = path_averages(geometry, THZ_FREQ, [0.0, 1.0, 1.5, math.pi / 2 - 1e-7], polarization)
                assert all(math.isfinite(a) and a > 0 for a in averages)
