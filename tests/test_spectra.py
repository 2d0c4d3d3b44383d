import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.signal import find_peaks
from scipy.special import wofz

from _oracles import (
    array_peak_positions,
    column_stacked_liouvillian,
    doppler_absorption,
    full_pole_states,
    ladder_states,
    mpmath_faddeeva,
    peak_positions,
    run_local_maxima,
    splitting_from_peaks,
    squaring_block_order,
)
from rydant import cli, spectra
from rydant.spectra import (
    MAX_SCAN_POINTS,
    PROMINENCE_DEFAULT,
    InputError,
    LadderConfig,
    SpectrumTrace,
    SteadyStateError,
    UnresolvedSplittingError,
    default_ladder,
    extract_splitting,
    normalize_trace,
    scan_spectrum,
    scan_window,
)
from rydant.spectra import (
    _GE,
    _SCAN_SLOPE,
    _block_order,
    _faddeeva,
    _faddeeva_coefficients,
    _ladder_liouvillian,
    _local_maxima,
    _peak_positions,
    _prominences,
    _steady_states,
)

# A scan that overflows or divides by zero outside np.errstate fails here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MHZ = 2.0 * math.pi * 1e6


def two_level_coherence(omega, delta, gamma):
    """Closed-form Im(rho_ge) for a driven, decaying two-level atom."""
    return (omega * gamma / 4.0) / (delta * delta + gamma * gamma / 4.0 + omega * omega / 2.0)


class TestSteadyState:
    def test_reduces_to_two_level_formula(self):
        # omega_c = 0 decouples the Rydberg pair entirely
        for omega, delta, gamma in ((0.02, 0.0, 1.0), (0.05, 0.3, 2.0), (0.01, -0.7, 0.5)):
            cfg = LadderConfig(
                omega_p=omega, omega_c=0.0, omega_rf=0.0,
                delta_p=delta, gamma_e=gamma, gamma_r=0.3,
            )
            got = _steady_states(cfg, np.array([0.123]))[0, _GE].imag
            assert got == pytest.approx(two_level_coherence(omega, delta, gamma), abs=1e-15)

    def test_two_level_result_ignores_scan_detuning(self):
        cfg = LadderConfig(omega_p=0.03, omega_c=0.0, omega_rf=0.0, gamma_e=1.0, gamma_r=0.2)
        at_zero = _steady_states(cfg, np.array([0.0]))[0, _GE].imag
        assert at_zero == pytest.approx(_steady_states(cfg, np.array([10.0]))[0, _GE].imag, abs=1e-15)

    def test_density_matrix_is_physical(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = LadderConfig(
                omega_p=0.05 * rng.uniform(0.2, 1.0),
                omega_c=rng.uniform(0.1, 2.0),
                omega_rf=rng.uniform(0.0, 2.0),
                delta_p=rng.uniform(-1.0, 1.0),
                delta_rf=rng.uniform(-1.0, 1.0),
                gamma_e=1.0,
                gamma_r=0.1,
            )
            rho = _steady_states(cfg, np.array([rng.uniform(-2.0, 2.0)]))[0].reshape((4, 4), order="F")
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert abs(np.trace(rho).imag) < 1e-12
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_absorption_positive_on_resonance(self):
        cfg = LadderConfig(omega_p=0.02, omega_c=0.0, omega_rf=0.0, gamma_e=1.0, gamma_r=0.1)
        assert _steady_states(cfg, np.array([0.0]))[0, _GE].imag > 0.0

    def test_undamped_system_has_no_steady_state(self):
        cfg = LadderConfig(omega_p=0.1, omega_c=1.0, omega_rf=1.0, gamma_e=0.0, gamma_r=0.0)
        with pytest.raises(SteadyStateError):
            _steady_states(cfg, np.array([0.0]))

    def test_unrelaxed_rydberg_levels_are_rejected(self):
        # without Rydberg relaxation the populations up there never drain
        cfg = LadderConfig(omega_p=0.1, omega_c=1.0, omega_rf=0.0, gamma_e=1.0, gamma_r=0.0)
        with pytest.raises(SteadyStateError):
            _steady_states(cfg, np.array([0.0]))

    def test_strong_probe_warns(self):
        with pytest.warns(UserWarning, match="weak-probe"):
            LadderConfig(omega_p=1.0 * MHZ, omega_c=1.0 * MHZ, omega_rf=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LadderConfig(omega_p=-0.1, omega_c=1.0, omega_rf=0.0)
        with pytest.raises(ValueError):
            LadderConfig(omega_p=0.1, omega_c=1.0, omega_rf=0.0, delta_rf=math.nan)


class TestScanSpectrum:
    def test_transparency_window_sits_at_zero_with_rf_off(self):
        cfg = default_ladder(omega_rf=0.0, delta_rf=0.0)
        trace = scan_spectrum(cfg, (-8 * MHZ, 8 * MHZ), 801)
        assert len(trace.peaks) == 1
        step = trace.detunings[1] - trace.detunings[0]
        assert abs(trace.peaks[0]) < step
        assert trace.transmission.max() == pytest.approx(1.0)
        assert trace.transmission.min() == pytest.approx(0.0)

    def test_dressed_peaks_sit_at_predicted_positions(self):
        # transparency points track the RF-dressed pair: center -delta_rf/2,
        # separation sqrt(omega_rf^2 + delta_rf^2)
        for omega_mhz, delta_mhz in ((10.0, 0.0), (10.0, 5.0), (6.0, -4.0)):
            cfg = default_ladder(omega_rf=omega_mhz * MHZ, delta_rf=delta_mhz * MHZ)
            trace = scan_spectrum(cfg, scan_window(cfg), 1201)
            assert len(trace.peaks) == 2
            split = math.hypot(omega_mhz, delta_mhz) * MHZ
            expected = (-cfg.delta_rf - split) / 2.0, (-cfg.delta_rf + split) / 2.0
            for got, want in zip(trace.peaks, expected):
                assert abs(got - want) < 0.05 * split

    def test_detuned_rf_shifts_the_pattern_off_center(self):
        cfg = default_ladder(omega_rf=10.0 * MHZ, delta_rf=5.0 * MHZ)
        trace = scan_spectrum(cfg, scan_window(cfg), 1201)
        midpoint = float(trace.peaks.mean())
        split = math.hypot(10.0, 5.0) * MHZ
        assert abs(midpoint - (-cfg.delta_rf / 2.0)) < 0.05 * split
        assert abs(midpoint) > 10 * (trace.detunings[1] - trace.detunings[0])

    def test_splitting_matches_quadrature_oracle(self):
        cfg = default_ladder(omega_rf=10.0 * MHZ, delta_rf=5.0 * MHZ)
        trace = scan_spectrum(cfg, scan_window(cfg), 1201)
        result = extract_splitting(trace)
        oracle = math.hypot(10.0, 5.0) * MHZ
        assert abs(result.delta_at - oracle) / oracle < 0.05

    def test_doppler_average_matches_the_velocity_integral(self):
        for rabi_mhz, detuning_mhz, sigma_mhz in ((20.0, 0.0, 1.0), (20.0, 0.0, 5.0), (8.0, 3.0, 5.0)):
            cfg = default_ladder(omega_rf=rabi_mhz * MHZ, delta_rf=detuning_mhz * MHZ)
            cfg = replace(cfg, doppler_sigma=sigma_mhz * MHZ)
            low, high = scan_window(cfg)
            trace = scan_spectrum(cfg, (low, high), 401)
            integral = doppler_absorption(cfg, low, high, 401, cfg.doppler_sigma, 0.02 * MHZ)
            assert np.abs(trace.transmission - normalize_trace(-integral)).max() < 1e-10

    def test_doppler_averaging_broadens_the_window(self):
        cfg = default_ladder(omega_rf=0.0, delta_rf=0.0)
        scan = (-8 * MHZ, 8 * MHZ)
        sharp = scan_spectrum(cfg, scan, 501)
        broad = scan_spectrum(replace(cfg, doppler_sigma=2.0 * MHZ), scan, 501)
        width = lambda t: int(np.sum(t.transmission > 0.5))  # noqa: E731
        assert width(broad) > 2 * width(sharp)
        # the dominant transparency stays at line center
        step = sharp.detunings[1] - sharp.detunings[0]
        assert abs(broad.detunings[np.argmax(broad.transmission)]) < 2 * step
        assert np.abs(broad.transmission - sharp.transmission).max() > 0.1

    def test_scan_argument_validation(self):
        cfg = default_ladder(0.0, 0.0)
        with pytest.raises(ValueError):
            scan_spectrum(cfg, (1.0, -1.0), 101)
        for scan in ((1.0, 1.0), (-math.inf, 1.0), (-1.0, math.nan)):
            with pytest.raises(InputError, match=r"^scan range must be finite in rad/s with low < high") as info:
                scan_spectrum(cfg, scan, 101)
            assert info.value.quantity == "scan range"
        with pytest.raises(ValueError):
            scan_spectrum(cfg, (-1.0, 1.0), 2)
        with pytest.raises(ValueError):
            scan_spectrum(cfg, (-1.0, 1.0), MAX_SCAN_POINTS + 1)


def random_ladder(rng):
    return LadderConfig(
        omega_p=rng.uniform(0.01, 0.5) * MHZ,
        omega_c=rng.uniform(0.0, 5.0) * MHZ,
        omega_rf=rng.uniform(0.0, 50.0) * MHZ,
        delta_p=rng.uniform(-3.0, 3.0) * MHZ,
        delta_rf=rng.uniform(-20.0, 20.0) * MHZ,
        gamma_e=rng.uniform(1.0, 10.0) * MHZ,
        gamma_r=rng.uniform(0.01, 1.0) * MHZ,
    )


DEGENERATE_LADDERS = {
    "coupling off": dict(omega_c=0.0),
    "rf off": dict(omega_rf=0.0),
    "probe off": dict(omega_p=0.0),
    "coupling and rf off": dict(omega_c=0.0, omega_rf=0.0),
    "slow rydberg decay": dict(gamma_r=1e-6),
    "no rydberg decay": dict(gamma_r=0.0),
}


class TestPoleExpansion:
    """The one-eigendecomposition scan against a direct solve at every point,
    and its 8 x 8 block poles against the full 16 x 16 pole expansion."""

    @pytest.fixture
    def eig_inputs(self, monkeypatch):
        """Every matrix handed to np.linalg.eig while the test runs."""
        seen, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: seen.append(m.copy()) or eig(m))
        return seen

    def assert_matches_direct_solve(self, cfg, detunings):
        poles = _steady_states(cfg, detunings).reshape(-1, 4, 4).transpose(0, 2, 1)
        direct = ladder_states(cfg, detunings)
        assert np.abs(poles - direct).max() < 1e-10 * np.abs(direct).max()

    def assert_block_poles_are_the_live_poles(self, cfg, detunings, eig_inputs, all_resolved):
        eig_inputs.clear()
        _steady_states(cfg, detunings)
        (block,) = eig_inputs
        assert block.shape == (8, 8)
        got, right = np.linalg.eig(block)
        want = full_pole_states(cfg, detunings)[1]
        assert want.size == 8
        rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
        got, want, right = got[rows], want[cols], right[:, rows]
        # A pole is resolved when eig's first-order error eps |K| kappa lies within
        # 1e-12 of its size.  The near-zero poles of decay-starved ladders are not:
        # no double-precision eig fixes them, and the Doppler oracle test below
        # checks the states they build instead.
        kappa = np.linalg.norm(np.linalg.inv(right), axis=1) * np.linalg.norm(right, axis=0)
        resolved = 16 * np.finfo(float).eps * np.linalg.norm(block, 2) * kappa <= 1e-12 * np.abs(got)
        assert resolved.all() or not all_resolved
        assert np.all(np.abs(got - want)[resolved] <= 1e-12 * np.abs(want)[resolved])

    @pytest.mark.filterwarnings("ignore:probe Rabi frequency")
    def test_random_ladders(self, eig_inputs):
        rng = np.random.default_rng(1)
        for _ in range(100):
            cfg = random_ladder(rng)
            detunings = np.linspace(*scan_window(cfg), 201)
            self.assert_matches_direct_solve(cfg, detunings)
            self.assert_block_poles_are_the_live_poles(cfg, detunings, eig_inputs, all_resolved=True)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_LADDERS))
    def test_degenerate_ladders(self, name, eig_inputs):
        drive = dict(omega_p=0.1 * MHZ, omega_c=1.0 * MHZ, omega_rf=10.0 * MHZ)
        cfg = LadderConfig(**{**drive, **DEGENERATE_LADDERS[name]})
        detunings = np.linspace(-40 * MHZ, 40 * MHZ, 401)
        self.assert_matches_direct_solve(cfg, detunings)
        self.assert_block_poles_are_the_live_poles(cfg, detunings, eig_inputs, all_resolved=False)

    @pytest.mark.filterwarnings("ignore:probe Rabi frequency")
    def test_doppler_scans_match_the_full_pole_expansion(self):
        rng = np.random.default_rng(7)
        drive = dict(omega_p=0.1 * MHZ, omega_c=1.0 * MHZ, omega_rf=10.0 * MHZ)
        ladders = [replace(random_ladder(rng), doppler_sigma=rng.uniform(0.1, 10.0) * MHZ) for _ in range(50)]
        ladders += [LadderConfig(**{**drive, **kw}, doppler_sigma=2.0 * MHZ) for kw in DEGENERATE_LADDERS.values()]
        for cfg in ladders:
            detunings = np.linspace(*scan_window(cfg), 201)
            got = _steady_states(cfg, detunings)
            want = full_pole_states(cfg, detunings)[0]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("omega_c,gamma_e", [(1.0, 5.2), (10.0, 5.2), (10.0, 1.0), (10.0, 1e3)])
    def test_doppler_scans_with_a_decoupled_pole_at_the_centre(self, omega_c, gamma_e):
        # RF off with the slowest accepted Rydberg decay: the r2 coherences hold poles
        # 1e-9 MHz from the scan centre, 1e17 times the size of the live near-zero ones.
        cfg = LadderConfig(omega_p=0.1 * MHZ, omega_c=omega_c * MHZ, omega_rf=0.0, gamma_e=gamma_e * MHZ,
                           gamma_r=1e-9 * MHZ, doppler_sigma=1.0 * MHZ)
        low, high = -10.0 * MHZ, 10.0 * MHZ
        got = _steady_states(cfg, np.linspace(low, high, 41))[:, _GE].imag
        want = doppler_absorption(cfg, low, high, 41, cfg.doppler_sigma, 0.002 * MHZ)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_doppler_scans_with_a_zero_pole(self, eig_inputs):
        # Probe off, RF off, coupling and decay at the top of their accepted range:
        # two poles of the block are exactly zero, and the state stays |g><g|.
        cfg = LadderConfig(omega_p=0.0, omega_c=1e9 * MHZ, omega_rf=0.0, gamma_e=1e9 * MHZ, gamma_r=1e-9 * MHZ,
                           doppler_sigma=1.0 * MHZ)
        states = _steady_states(cfg, np.linspace(*scan_window(cfg), 101))
        assert np.count_nonzero(np.linalg.eigvals(eig_inputs[0]) == 0.0) == 2
        ground = np.zeros(16)
        ground[0] = 1.0
        assert np.abs(states - ground).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:probe Rabi frequency")
    @pytest.mark.parametrize(
        "gamma_e,gamma_r,omega_rf,match",
        [
            # undamped, or the RF-free Rydberg pair left without relaxation: the solve fails
            (0.0, 0.0, 1.0, "singular"),
            (1.0, 0.0, 0.0, "singular"),
            # near-undamped: the solve succeeds and only the residual check refuses it
            (1e-300, 1e-300, 1.0, "at detuning -5.000000e\\+00: residual"),
        ],
        ids=["undamped", "rf-free-unrelaxed", "near-undamped"],
    )
    def test_scans_without_a_unique_steady_state_are_refused(self, gamma_e, gamma_r, omega_rf, match):
        cfg = LadderConfig(omega_p=0.1, omega_c=1.0, omega_rf=omega_rf, gamma_e=gamma_e, gamma_r=gamma_r)
        with pytest.raises(SteadyStateError, match=match):
            scan_spectrum(cfg, (-5.0, 5.0), 101)

    @pytest.mark.parametrize("sigma", [0.0, 5.0 * MHZ], ids=["stationary", "doppler-5mhz"])
    def test_the_largest_scan_stays_within_its_memory_budget(self, sigma):
        cfg = replace(default_ladder(omega_rf=10.0 * MHZ, delta_rf=5.0 * MHZ), doppler_sigma=sigma)
        scan_spectrum(cfg, scan_window(cfg), 101)  # builds the Faddeeva coefficients outside the measurement
        tracemalloc.start()
        try:
            scan_spectrum(cfg, scan_window(cfg), MAX_SCAN_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # six (16 x points) complex arrays
        assert peak <= 6 * MAX_SCAN_POINTS * 16 * 16

    def test_blocks_without_a_zero_keep_a_shared_read_only_natural_order(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            k = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            order = _block_order(k)
            assert order is _block_order(-k) and not order.flags.writeable
            np.testing.assert_array_equal(order, np.arange(8))
            np.testing.assert_array_equal(order, squaring_block_order(k))

    def test_blocks_with_zeros_take_the_squarings(self):
        rng = np.random.default_rng(31)
        zeros = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
        reordered = 0
        for _ in range(600):
            k = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            if rng.random() < 0.5:  # uncoupled blocks, as a drive left at zero makes them
                labels = rng.integers(0, int(rng.integers(2, 5)), size=8)
                cut = labels[:, None] != labels[None, :]
            else:
                cut = rng.random((8, 8)) < rng.choice([0.02, 0.3, 0.7, 0.95])
            cut[0, 1] |= not cut.any()
            k[cut] = rng.choice(zeros, size=int(cut.sum()))
            assert not k.all()
            order = _block_order(k)
            np.testing.assert_array_equal(order, squaring_block_order(k))
            reordered += not np.array_equal(order, np.arange(8))
        assert reordered > 100

    def test_single_detuning_matches_the_scan(self):
        cfg = default_ladder(omega_rf=10.0 * MHZ, delta_rf=5.0 * MHZ)
        detunings = np.linspace(-20 * MHZ, 30 * MHZ, 101)
        scan = _steady_states(cfg, detunings)
        for i in (0, 37, 50, 100):
            np.testing.assert_allclose(_steady_states(cfg, detunings[i : i + 1])[0], scan[i], rtol=0, atol=1e-12)


def upper_half_plane(magnitudes):
    """z at each magnitude on thirteen rays over [0, pi], the real axis and Im z = 1e-9 |z| included."""
    rays = np.exp(1j * np.linspace(0.0, math.pi, 13))
    z = (magnitudes[:, None] * np.concatenate((rays, [1 + 1e-9j, -1 + 1e-9j]))).ravel()
    return z.real + 1j * np.abs(z.imag)  # exactly on or above the real axis


class TestFaddeeva:
    """Weideman's rational form (N = 40) of w(z) = exp(-z^2) erfc(-iz), for Im z >= 0."""

    def test_matches_80_digit_mpmath(self):
        z = upper_half_plane(np.logspace(-8.0, 6.0, 29))
        want = mpmath_faddeeva(z)
        assert np.max(np.abs(_faddeeva(z) - want) / np.abs(want)) <= 1e-14

    def test_matches_scipy_wofz_up_to_1e18(self):
        z = upper_half_plane(np.logspace(0.0, 18.0, 73))
        want = wofz(z)
        assert np.max(np.abs(_faddeeva(z) - want) / np.abs(want)) <= 5e-14

    def test_mirror_identity(self):
        # w(-conj(z)) = conj(w(z)): the approximation keeps the symmetry of w.
        z = upper_half_plane(np.logspace(-8.0, 18.0, 53))
        got, mirrored = _faddeeva(z), _faddeeva(-z.conj())
        assert np.max(np.abs(mirrored - got.conj()) / np.abs(got)) <= 1e-15

    def test_coefficients_are_built_once_and_read_only(self):
        coeffs = _faddeeva_coefficients()[1]
        assert _faddeeva_coefficients()[1] is coeffs and coeffs.shape == (40,)
        with pytest.raises(ValueError):
            coeffs[0] = 0.0


class TestPeakFinder:
    """The in-repo peak search against scipy.signal.find_peaks."""

    def random_traces(self, rng, count):
        for _ in range(count):
            n = int(rng.integers(3, 60))
            # coarse levels make plateaus and equal neighbours common
            y = rng.integers(0, int(rng.integers(2, 8)), size=n).astype(float)
            if rng.random() < 0.5:
                y = y + rng.normal(scale=1e-3, size=n) * (rng.random(n) < 0.3)
            yield y

    def grids(self, rng, size):
        yield np.arange(size, dtype=float)
        yield np.cumsum(rng.uniform(0.05, 3.0, size=size))

    def test_traces_hold_the_find_peaks_positions(self):
        rng = np.random.default_rng(8)
        for y in self.random_traces(rng, 1000):
            y = normalize_trace(y)
            for x in self.grids(rng, y.size):
                trace = SpectrumTrace(x, y)
                positions, proms = peak_positions(x, y, PROMINENCE_DEFAULT)
                order = np.argsort(positions, kind="stable")
                np.testing.assert_array_equal(trace.peaks, positions[order])
                np.testing.assert_array_equal(trace.prominences, proms[order])
                assert not (trace.peaks.flags.writeable or trace.prominences.flags.writeable)

    def test_splitting_is_the_index_order_rule(self):
        rng = np.random.default_rng(10)
        resolved = 0
        for y in self.random_traces(rng, 1000):
            y = normalize_trace(y)
            for x in self.grids(rng, y.size):
                trace, expected = SpectrumTrace(x, y), splitting_from_peaks(x, y, PROMINENCE_DEFAULT)
                if expected is None:
                    with pytest.raises(UnresolvedSplittingError):
                        extract_splitting(trace)
                else:
                    assert extract_splitting(trace).delta_at == expected
                    resolved += 1
        assert resolved > 500

    def edge_traces(self, rng, count):
        """Short traces full of plateaus, flat tops and runs against either end; 2 and 3 samples included."""
        for y in ([0, 1], [1, 0], [1, 1], [0, 1, 0], [1, 0, 1], [1, 1, 0], [0, 1, 1], [2, 2, 2], [0, 1, 1, 0]):
            yield np.array(y, dtype=float)
        for _ in range(count):
            n = int(rng.integers(2, 30))
            y = rng.integers(0, int(rng.integers(2, 6)), size=n).astype(float)
            if rng.random() < 0.5:
                y = y + rng.normal(scale=1e-3, size=n) * (rng.random(n) < 0.3)
            yield y

    def test_maxima_and_refinement_equal_the_array_forms_bit_for_bit(self):
        rng = np.random.default_rng(29)
        seen = dict.fromkeys(("2 samples", "3 samples", "end run", "next to an end", "flat top", "denom >= 0"), 0)
        for y in self.edge_traces(rng, 400):
            peaks, want = _local_maxima(y), run_local_maxima(y)
            assert peaks.dtype == want.dtype and np.array_equal(peaks, want)
            denom = y[peaks - 1] - 2.0 * y[peaks] + y[peaks + 1]
            seen["2 samples"] += y.size == 2
            seen["3 samples"] += y.size == 3
            seen["end run"] += bool(y[0] == y[1] or y[-1] == y[-2])
            seen["next to an end"] += bool(np.isin(peaks, (1, y.size - 2)).any())
            seen["flat top"] += bool((y[peaks] == y[peaks + 1]).any())
            seen["denom >= 0"] += bool((denom >= 0.0).any())
            for x in self.grids(rng, y.size):
                for prominence in (0.0, PROMINENCE_DEFAULT):
                    got = _peak_positions(x, y, prominence)
                    for g, w in zip(got, array_peak_positions(x, y, prominence)):
                        assert g.dtype == w.dtype and np.array_equal(g, w) and g.tobytes() == w.tobytes()
        assert min(seen.values()) >= 10, seen

    def test_maxima_and_prominences_match(self):
        rng = np.random.default_rng(4)
        for y in self.random_traces(rng, 3000):
            idx, props = find_peaks(y, prominence=0.0)
            peaks = _local_maxima(y)
            np.testing.assert_array_equal(peaks, idx)
            np.testing.assert_array_equal(_prominences(y, peaks), props["prominences"])

    def test_prominence_threshold_matches(self):
        rng = np.random.default_rng(6)
        for y in self.random_traces(rng, 500):
            span = float(y.max() - y.min())
            if span == 0.0:
                continue
            x = np.arange(y.size, dtype=float)
            positions, proms = _peak_positions(x, y, 0.3)
            idx, props = find_peaks(y, prominence=0.3 * span)
            np.testing.assert_array_equal(proms, props["prominences"])
            # parabolic refinement moves a peak by at most half a step
            assert positions.shape == idx.shape and np.all(np.abs(positions - idx) <= 0.5 + 1e-12)

    def test_spectrum_traces_match(self):
        for rabi_mhz in (0.0, 3.0, 10.0, 25.0):
            cfg = default_ladder(omega_rf=rabi_mhz * MHZ, delta_rf=0.0)
            y = scan_spectrum(cfg, scan_window(cfg), 801).transmission
            idx, props = find_peaks(y, prominence=0.0)
            np.testing.assert_array_equal(_local_maxima(y), idx)
            np.testing.assert_array_equal(_prominences(y, idx), props["prominences"])


class TestExtractSplitting:
    def synthetic_trace(self, centers, width=0.8, points=2001):
        x = np.linspace(-10.0, 10.0, points)
        y = sum(1.0 / (1.0 + ((x - c) / width) ** 2) for c in centers)
        return SpectrumTrace(x, normalize_trace(y))

    def test_recovers_known_separation(self):
        trace = self.synthetic_trace([-2.5, 2.5])
        got = extract_splitting(trace).delta_at
        # overlap of the two profiles pulls the maxima slightly inward
        assert got == pytest.approx(5.0, abs=0.02)

    def test_subsample_refinement_beats_the_grid(self):
        trace = self.synthetic_trace([-2.5, 2.5], points=201)
        step = trace.detunings[1] - trace.detunings[0]
        assert abs(extract_splitting(trace).delta_at - 5.0) < step / 2

    def test_single_peak_is_rejected(self):
        with pytest.raises(UnresolvedSplittingError):
            extract_splitting(self.synthetic_trace([0.0]))

    def test_flat_trace_is_rejected(self):
        x = np.linspace(-1.0, 1.0, 101)
        trace = SpectrumTrace(x, np.zeros_like(x))
        with pytest.raises(UnresolvedSplittingError):
            extract_splitting(trace)

    def test_a_scan_and_its_splitting_search_the_peaks_once(self, monkeypatch):
        calls = []
        search = spectra._peak_positions

        def spy(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(spectra, "_peak_positions", spy)
        cfg = default_ladder(omega_rf=10.0 * MHZ, delta_rf=0.0)
        trace = scan_spectrum(cfg, scan_window(cfg), 801)
        assert extract_splitting(trace).delta_at == pytest.approx(10.0 * MHZ, rel=0.01)
        assert len(calls) == 1

    def test_minor_bumps_are_ignored(self):
        x = np.linspace(-10.0, 10.0, 2001)
        y = 1.0 / (1.0 + ((x - 3.0) / 0.8) ** 2)
        y += 1.0 / (1.0 + ((x + 3.0) / 0.8) ** 2)
        y += 0.01 / (1.0 + ((x - 7.0) / 0.3) ** 2)  # below the prominence bar
        trace = SpectrumTrace(x, normalize_trace(y))
        assert extract_splitting(trace).delta_at == pytest.approx(6.0, abs=0.02)


class TestTraceUtilities:
    def test_normalize_spans_unit_interval(self):
        out = normalize_trace(np.array([2.0, 4.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.5], atol=1e-15)

    def test_normalize_is_idempotent(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=100)
        once = normalize_trace(values)
        np.testing.assert_array_equal(normalize_trace(once), once)

    def test_normalize_flat_input(self):
        np.testing.assert_array_equal(normalize_trace(np.full(5, 3.3)), np.zeros(5))

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            SpectrumTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            SpectrumTrace(np.array([0.0, 1.0]), np.array([0.0, 2.0]))

    @staticmethod
    def refusal(detunings, transmission):
        with pytest.raises(ValueError) as info:
            SpectrumTrace(np.array(detunings), np.array(transmission))
        return str(info.value)

    @pytest.mark.parametrize(
        "detunings,transmission,message",
        [
            ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, math.nan, 1.0, 0.2, 0.5],
             "transmission must be finite, got nan at index 1"),
            ([0.0, 1.0, math.nan, 3.0, 4.0], [0.0, 0.3, 1.0, 0.2, 0.5], "detunings must be finite, got nan at index 2"),
            ([0.0, 1.0, 2.0, 3.0, math.inf], [0.0, 0.3, 1.0, 0.2, 0.5], "detunings must be finite, got inf at index 4"),
            ([0.0, 1.0, 2.0, 3.0, 4.0], [-math.inf, 0.3, 1.0, math.nan, 0.5],
             "transmission must be finite, got -inf at index 0"),
            ([0.0, 1.0, 2.0, math.nan, 4.0], [0.0, math.nan, 1.0, 0.2, 0.5],
             "detunings must be finite, got nan at index 3"),
        ],
        ids=["nan-transmission", "nan-detuning", "inf-detuning", "inf-transmission", "nan-in-both"],
    )
    def test_non_finite_samples_are_refused(self, detunings, transmission, message):
        assert self.refusal(detunings, transmission) == message

    @pytest.mark.parametrize(
        "detunings,transmission,message",
        [
            ([0.0, 1.0, 1.0, 3.0, 4.0], [0.0, 0.3, 1.0, 0.2, 0.5], "detunings must be strictly increasing"),
            ([0.0, 1.0, 2.0, 3.0, 2.5], [0.0, 0.3, 1.0, 0.2, 0.5], "detunings must be strictly increasing"),
            ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.3, 1.0 + 2e-9, 0.2, 0.5], "transmission must lie within [0, 1]"),
            ([0.0, 1.0, 2.0, 3.0, 4.0], [-2e-9, 0.3, 1.0, 0.2, 0.5], "transmission must lie within [0, 1]"),
        ],
        ids=["equal-detunings", "falling-detunings", "transmission-above-1", "transmission-below-0"],
    )
    def test_disordered_or_out_of_range_samples_are_refused(self, detunings, transmission, message):
        assert self.refusal(detunings, transmission) == message

    def test_csv_round_trip(self, tmp_path, monkeypatch):
        x = np.array([0.0, 2.0 * math.pi * 1e6, 2.0 * math.pi * 2e6])
        trace = SpectrumTrace(x, np.array([0.0, 1.0, 0.5]))
        monkeypatch.setattr(cli, "scan_spectrum", lambda *args: trace)
        assert cli.main(["spectrum", "--preset", "thz-33s", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "rydant_trace.csv").read_text().splitlines()
        assert lines[0] == "detuning_hz,transmission"
        assert lines[1] == "0,0"
        assert lines[2] == "1000000,1"
        assert lines[3] == "2000000,0.5"

    def test_replace_config_revalidates(self):
        cfg = default_ladder(1.0, 0.0)
        assert replace(cfg, omega_rf=2.0).omega_rf == 2.0
        with pytest.raises(ValueError):
            replace(cfg, omega_c=-1.0)


class TestLiouvillianAssembly:
    @pytest.mark.filterwarnings("ignore:probe Rabi frequency")  # strong probes are allowed here
    def test_parameter_table_matches_the_assembled_liouvillian(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            cfg = replace(random_ladder(rng), omega_p=rng.uniform(0.0, 0.5) * MHZ)
            delta_c = rng.uniform(-30.0, 30.0) * MHZ
            want = column_stacked_liouvillian(cfg, delta_c)
            got = _ladder_liouvillian(cfg, delta_c)
            assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())

    def test_scan_slope_equals_kron_form(self):
        slope = np.diag([0.0, 0.0, -1.0, -1.0]).astype(complex)
        eye = np.eye(4)
        expected = np.diag(-1j * (np.kron(eye, slope) - np.kron(slope.T, eye)))
        assert _SCAN_SLOPE.tobytes() == expected.tobytes()
