import math

import numpy as np
import pytest

from _oracles import splitting
from rydant.angular import AngularMomentum, Orientation
from rydant.hamiltonian import (
    EigenSpectrum,
    RfDrive,
    TransitionSystem,
    assemble_hamiltonian,
    build_interaction_paper,
    eigen_hermitian,
    hamiltonian_stack,
)
from rydant.metrology import (
    SOURCE_EIGEN,
    FieldEstimate,
    GainSample,
    SplittingResult,
    branch_splittings,
    field_from_splitting,
    isotropic_deviation,
    normalized_gain,
    splitting_from_eigen,
    splittings_from_eigen,
)


def spectrum_for(rabi, detuning, chi=math.pi / 2, theta=0.0, phi=0.0):
    drive = RfDrive(rabi=rabi, detuning=detuning)
    block = build_interaction_paper(drive, Orientation(chi, theta, phi))
    return eigen_hermitian(assemble_hamiltonian(block, detuning))


class TestSplittingFromEigen:
    def test_three_four_five(self):
        result = splitting_from_eigen(spectrum_for(4.0, 3.0), detuning=3.0)
        assert result.delta_at == pytest.approx(5.0, rel=1e-12)
        assert result.source == SOURCE_EIGEN

    def test_resonant_drive(self):
        result = splitting_from_eigen(spectrum_for(2.0, 0.0), detuning=0.0)
        assert result.delta_at == pytest.approx(2.0, rel=1e-12)

    def test_zero_field_gives_bare_detuning(self):
        result = splitting_from_eigen(spectrum_for(0.0, 5.0), detuning=5.0)
        assert result.delta_at == pytest.approx(5.0, rel=1e-12)

    def test_requires_identifiable_pair(self):
        # No eigenvalue anywhere near -10, so the pair cannot be found.
        with pytest.raises(ValueError, match="degenerate pair"):
            splitting_from_eigen(spectrum_for(4.0, 3.0), detuning=10.0)

    def test_requires_enough_eigenvalues(self):
        with pytest.raises(ValueError, match="at least 4"):
            splitting_from_eigen(EigenSpectrum(np.array([-1.0, 0.0, 1.0])), detuning=0.0)

    def test_matches_quadrature_formula_on_grid(self):
        for rabi in (0.5, 1.0, 4.0, 9.0):
            for detuning in (-3.0, -0.5, 0.0, 2.0):
                got = splitting_from_eigen(spectrum_for(rabi, detuning), detuning).delta_at
                assert got == pytest.approx(math.hypot(rabi, detuning), rel=1e-12)


class TestBranchSplittings:
    def test_collapse_at_linear_polarization(self):
        drive = RfDrive(rabi=4.0, detuning=3.0)
        plus, minus = branch_splittings(drive, Orientation(0.7, 1.2, 0.0))
        assert plus == pytest.approx(5.0, abs=1e-14)
        assert minus == pytest.approx(5.0, abs=1e-14)

    def test_elliptical_case_matches_numerics(self):
        drive = RfDrive(rabi=4.0, detuning=1.0)
        o = Orientation(math.pi / 4, 0.3, math.pi / 2)
        plus, minus = branch_splittings(drive, o)
        block = build_interaction_paper(drive, o)
        values = eigen_hermitian(assemble_hamiltonian(block, drive.detuning)).values
        # strip the -detuning pair, then the outer gap is the plus branch
        rest = np.delete(values, np.argsort(np.abs(values + drive.detuning))[:2])
        assert rest.max() - rest.min() == pytest.approx(plus, rel=1e-12)
        assert plus == pytest.approx(math.sqrt(1 + 16 * 1.5), rel=1e-15)
        assert minus == pytest.approx(math.sqrt(1 + 16 * 0.5), rel=1e-15)


class TestFieldEstimate:
    def test_three_four_five_round_trip(self):
        est = field_from_splitting(delta_at=5.0, detuning=3.0, mu=2.0)
        assert est.amplitude == pytest.approx(2.0, rel=1e-15)

    def test_resonant_is_linear_in_splitting(self):
        est = field_from_splitting(delta_at=7.0, detuning=0.0, mu=7.0)
        assert est.amplitude == pytest.approx(1.0, rel=1e-15)

    def test_full_chain_recovers_drive_amplitude(self):
        mu = 3.0
        for field in (0.25, 1.0, 4.0):
            for detuning in (0.0, 1.5, -2.0):
                rabi = mu * field
                got = splitting_from_eigen(spectrum_for(rabi, detuning), detuning)
                est = field_from_splitting(got.delta_at, detuning, mu)
                assert est.amplitude == pytest.approx(field, rel=1e-10)

    def test_rejects_splitting_below_detuning(self):
        with pytest.raises(ValueError, match="below"):
            field_from_splitting(delta_at=1.0, detuning=2.0, mu=1.0)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            field_from_splitting(delta_at=1.0, detuning=0.0, mu=0.0)

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            FieldEstimate(amplitude=-1.0, delta_at=1.0, detuning=0.0, mu=1.0)
        with pytest.raises(ValueError):
            FieldEstimate(amplitude=1.0, delta_at=1.0, detuning=2.0, mu=1.0)


class TestNormalizedGain:
    def test_frozen_reference_pattern(self):
        pattern = normalized_gain([(0.0, 2.0), (1.0, 1.0), (2.0, 4.0)])
        gains = [s.gain_db for s in pattern]
        assert gains[0] == pytest.approx(20 * math.log10(0.5), abs=1e-12)
        assert gains[1] == pytest.approx(20 * math.log10(0.25), abs=1e-12)
        assert gains[2] == 0.0

    def test_peak_is_zero_db(self):
        rng = np.random.default_rng(3)
        ratios = rng.uniform(0.1, 10.0, size=200)
        pattern = normalized_gain(enumerate(ratios))
        assert max(s.gain_db for s in pattern) == 0.0
        assert all(s.gain_db <= 0.0 for s in pattern)

    def test_gauge_invariance_under_common_scaling(self):
        ratios = [(0.0, 1.0), (1.0, 3.0), (2.0, 0.5)]
        scaled = [(a, 17.3 * r) for a, r in ratios]
        g1 = [s.gain_db for s in normalized_gain(ratios)]
        g2 = [s.gain_db for s in normalized_gain(scaled)]
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_order_preserved(self):
        pattern = normalized_gain([(5.0, 1.0), (1.0, 2.0), (3.0, 1.5)])
        assert [s.angle for s in pattern] == [5.0, 1.0, 3.0]

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            normalized_gain([(0.0, 1.0), (1.0, 0.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalized_gain([])


class TestIsotropicDeviation:
    def test_uniform_pattern_has_zero_spread(self):
        pattern = normalized_gain([(a, 2.5) for a in range(10)])
        assert isotropic_deviation(pattern) == 0.0

    def test_known_spread(self):
        pattern = normalized_gain([(0.0, 1.0), (1.0, 10.0)])
        assert isotropic_deviation(pattern) == pytest.approx(20.0, abs=1e-12)

    def test_monotone_under_added_attenuation(self):
        base = [(0.0, 1.0), (1.0, 0.9), (2.0, 0.8)]
        worse = base + [(3.0, 0.4)]
        assert isotropic_deviation(normalized_gain(worse)) > isotropic_deviation(
            normalized_gain(base)
        )

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            isotropic_deviation([])


class TestValueObjects:
    def test_splitting_result_validation(self):
        with pytest.raises(ValueError):
            SplittingResult(delta_at=-1.0, source=SOURCE_EIGEN)
        with pytest.raises(ValueError):
            SplittingResult(delta_at=1.0, source="guesswork")

    def test_gain_sample_validation(self):
        with pytest.raises(ValueError):
            GainSample(angle=0.0, raw_ratio=1.0, gain_db=0.5)
        with pytest.raises(ValueError):
            GainSample(angle=0.0, raw_ratio=-1.0, gain_db=-1.0)


class TestBatchedSplittings:
    @pytest.mark.parametrize("two_jg", [0, 1, 3, 6])
    @pytest.mark.parametrize("detuning", [0.0, 2.5, -4.0])
    def test_rows_match_the_one_row_call_and_the_oracle(self, two_jg, detuning):
        rng = np.random.default_rng(7 * two_jg + 1)
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=1.0)
        orientations = [Orientation(*rng.uniform(0.0, 2 * math.pi, 2)) for _ in range(60)]
        values = np.linalg.eigvalsh(hamiltonian_stack(system, rng.uniform(0.0, 10.0, 60), orientations, detuning))
        batched = splittings_from_eigen(values, detuning)
        assert batched.tolist() == [splitting_from_eigen(EigenSpectrum(row), detuning).delta_at for row in values]
        assert batched.tolist() == [splitting(row, detuning) for row in values]

    def test_refusal_reports_the_first_bad_row(self):
        good = spectrum_for(4.0, 3.0).values
        bad_a = spectrum_for(4.0, 3.0).values + 0.5  # pair moved off -detuning
        bad_b = spectrum_for(4.0, 3.0).values + 2.0
        with pytest.raises(ValueError) as one_row:
            splitting_from_eigen(EigenSpectrum(bad_a), 3.0)
        with pytest.raises(ValueError) as oracle:
            splitting(bad_a, 3.0)
        with pytest.raises(ValueError) as batch:
            splittings_from_eigen(np.stack([good, bad_a, good, bad_b]), 3.0)
        assert str(batch.value) == str(one_row.value) == str(oracle.value)
        assert "degenerate pair at -detuning not identifiable" in str(batch.value)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="2-D"):
            splittings_from_eigen(np.zeros(6), 0.0)
        with pytest.raises(ValueError, match="at least 4"):
            splittings_from_eigen(np.zeros((2, 3)), 0.0)
        assert splittings_from_eigen(np.zeros((0, 6)), 0.0).shape == (0,)
