import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    angular_momentum_matrices,
    branch_splittings,
    cartesian_polarizations,
    closed_form_delta_at,
    hamiltonian_stack,
    j_half_readout,
    laser_path_weights,
    polarizations,
    splitting,
    wigner_small_d,
    wrap_orientation,
)
from rydant.angular import AngularMomentum, decompose_polarizations
from rydant.hamiltonian import RfDrive, TransitionSystem, coupling_stack, hamiltonian_array
from rydant.metrology import (
    FieldEstimate,
    GainSample,
    field_from_splitting,
    gram_splittings,
    isotropic_deviation,
    normalized_gain,
)
from rydant.spectra import SplittingResult

SYSTEM = TransitionSystem(AngularMomentum(1), AngularMomentum(3), mu=1.0)


def block_for(rabi, detuning, chi=math.pi / 2, theta=0.0, phi=0.0):
    return coupling_stack(SYSTEM, [rabi], polarizations([wrap_orientation(chi, theta, phi)]))[0]


def gram_modes(rabi, detuning, **orientation):
    return gram_splittings(block_for(rabi, detuning, **orientation)[None], detuning)[0]


def gram_splitting(rabi, detuning, **orientation):
    return float(gram_modes(rabi, detuning, **orientation)[-1])


def spectrum_for(rabi, detuning, **orientation):
    return np.linalg.eigvalsh(hamiltonian_array(block_for(rabi, detuning, **orientation), detuning))


class TestGramSplittings:
    def test_three_four_five(self):
        assert gram_splitting(4.0, 3.0) == pytest.approx(5.0, rel=1e-12)

    def test_resonant_drive(self):
        assert gram_splitting(2.0, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_field_gives_bare_detuning(self):
        assert gram_splitting(0.0, 5.0) == pytest.approx(5.0, rel=1e-12)

    def test_matches_quadrature_formula_on_grid(self):
        for rabi in (0.5, 1.0, 4.0, 9.0):
            for detuning in (-3.0, -0.5, 0.0, 2.0):
                assert gram_splitting(rabi, detuning) == pytest.approx(math.hypot(rabi, detuning), rel=1e-12)

    @pytest.mark.parametrize("two_jg", [0, 1, 3, 6])
    @pytest.mark.parametrize("detuning", [0.0, 2.5, -4.0])
    def test_equals_the_degenerate_pair_rule_and_the_closed_form(self, two_jg, detuning):
        # Linear drives on J -> J + 1: the Gram rule against max - min of the
        # full dressed spectrum less its -detuning pair, and against sympy.
        rng = np.random.default_rng(7 * two_jg + 1)
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=1.0)
        orientations = [wrap_orientation(*rng.uniform(0.0, 2 * math.pi, 2)) for _ in range(60)]
        rabis = rng.uniform(0.0, 10.0, 60)
        modes = gram_splittings(coupling_stack(system, rabis, polarizations(orientations)), detuning)
        assert modes.shape == (60, two_jg + 1) and np.all(np.diff(modes, axis=1) >= 0)
        got = modes[:, -1]
        values = np.linalg.eigvalsh(hamiltonian_stack(system, rabis, polarizations(orientations), detuning))
        full = np.array([splitting(row, detuning) for row in values])
        closed = np.array([closed_form_delta_at(two_jg, rabi, detuning) for rabi in rabis])
        assert np.abs(got - full).max() <= 1e-14 * max(1.0, full.max())
        assert np.abs(got - closed).max() <= 1e-14 * max(1.0, closed.max())

    def test_empty_stack(self):
        assert gram_splittings(np.zeros((0, 4, 2), dtype=complex), 1.0).shape == (0, 2)


class TestGramClosedForm:
    """V^dag V = a_J I + b_J (n.J)^2 for every linear drive on J -> J + 1.

    a_J = (3/8) rabi^2 (J + 1) / (2J + 1) and b_J = -(3/8) rabi^2 / ((2J + 1)(J + 1)),
    with n = (-cos(phi) sin(chi) cos(theta), -cos(phi) sin(chi) sin(theta), cos(chi))
    the field's unit vector.  The basis phases set the sign of (n_x, n_y):
    from J = 1 on, only this one of the four choices fits.  (n.J)^2 has the
    eigenvalues m^2 whatever n is, so the Gram eigenvalues
    s_m = (3/8) rabi^2 ((J + 1)^2 - m^2) / ((2J + 1)(J + 1)) do not depend on
    the orientation: the eigen readout is flat for every J.
    """

    @pytest.mark.parametrize("two_jg", range(10))
    def test_gram_matrix_and_spectrum_are_the_closed_form(self, two_jg):
        rng = np.random.default_rng(1000 + two_jg)
        count = 40
        chi, theta = rng.uniform(0.0, math.pi, count), rng.uniform(0.0, 2 * math.pi, count)
        phi = rng.choice([0.0, math.pi], count)  # linear drives
        rabis = rng.uniform(0.1, 10.0, count)
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=1.0)
        blocks = coupling_stack(system, rabis, decompose_polarizations(chi, theta, phi))
        gram = blocks.conj().transpose(0, 2, 1) @ blocks
        scale = rabis**2
        j = two_jg / 2
        a = 3 / 8 * scale * (j + 1) / (2 * j + 1)
        b = -3 / 8 * scale / ((2 * j + 1) * (j + 1))
        jx, jy, jz = angular_momentum_matrices(two_jg)

        def misfit(sign_x, sign_y):
            transverse = -np.cos(phi) * np.sin(chi)
            n_dot_j = (
                (sign_x * transverse * np.cos(theta))[:, None, None] * jx
                + (sign_y * transverse * np.sin(theta))[:, None, None] * jy
                + np.cos(chi)[:, None, None] * jz
            )
            closed = a[:, None, None] * np.eye(two_jg + 1) + b[:, None, None] * (n_dot_j @ n_dot_j)
            return (np.abs(gram - closed).max(axis=(1, 2)) / scale).max()

        assert misfit(1, 1) <= 1e-14
        if two_jg >= 2:
            assert min(misfit(-1, 1), misfit(1, -1), misfit(-1, -1)) > 1e-3
        m = np.arange(-j, j + 1)
        s_m = np.sort(3 / 8 * np.outer(scale, (j + 1) ** 2 - m**2) / ((2 * j + 1) * (j + 1)), axis=1)
        assert (np.abs(np.linalg.eigvalsh(gram) - s_m).max(axis=1) / scale).max() <= 1e-14


class TestDegeneratePairOracle:
    """The rule gram_splittings replaced, kept in _oracles for acceptance criterion 4."""

    def test_requires_identifiable_pair(self):
        # No eigenvalue anywhere near -10, so the pair cannot be found.
        with pytest.raises(ValueError, match="degenerate pair"):
            splitting(spectrum_for(4.0, 3.0), detuning=10.0)

    def test_three_four_five(self):
        assert splitting(spectrum_for(4.0, 3.0), 3.0) == pytest.approx(5.0, rel=1e-12)


class TestGramModes:
    """Every Gram mode's splitting, against the hand-derived 1/2 -> 3/2 branches."""

    def test_collapse_at_linear_polarization(self):
        drive = RfDrive(rabi=4.0, detuning=3.0)
        plus, minus = branch_splittings(drive, wrap_orientation(0.7, 1.2, 0.0))
        assert plus == pytest.approx(5.0, abs=1e-14)
        assert minus == pytest.approx(5.0, abs=1e-14)
        assert gram_modes(4.0, 3.0, chi=0.7, theta=1.2) == pytest.approx([5.0, 5.0], abs=1e-14)

    def test_elliptical_case_matches_numerics(self):
        drive = RfDrive(rabi=4.0, detuning=1.0)
        plus, minus = branch_splittings(drive, wrap_orientation(math.pi / 4, 0.3, math.pi / 2))
        values = spectrum_for(4.0, 1.0, chi=math.pi / 4, theta=0.3, phi=math.pi / 2)
        # strip the -detuning pair, then the outer gap is the plus branch
        rest = np.delete(values, np.argsort(np.abs(values + drive.detuning))[:2])
        assert rest.max() - rest.min() == pytest.approx(plus, rel=1e-12)
        assert plus == pytest.approx(math.sqrt(1 + 16 * 1.5), rel=1e-15)
        assert minus == pytest.approx(math.sqrt(1 + 16 * 0.5), rel=1e-15)
        modes = gram_modes(4.0, 1.0, chi=math.pi / 4, theta=0.3, phi=math.pi / 2)
        assert modes == pytest.approx([minus, plus], rel=1e-15)

    def test_modes_are_the_branches_as_an_unordered_pair(self):
        rng = np.random.default_rng(83)
        chi, theta, phi = rng.uniform(-20.0, 20.0, (3, 300))
        rabis, detunings = rng.uniform(0.0, 10.0, 300), rng.uniform(-5.0, 5.0, 300)
        blocks = coupling_stack(SYSTEM, rabis, polarizations([wrap_orientation(*a) for a in zip(chi, theta, phi)]))
        for row, (b, rabi, detuning) in enumerate(zip(blocks, rabis, detunings)):
            modes = gram_splittings(b[None], detuning)[0]
            drive = RfDrive(float(rabi), float(detuning))
            pair = sorted(branch_splittings(drive, wrap_orientation(chi[row], theta[row], phi[row])))
            assert modes == pytest.approx(pair, rel=1e-14)


class TestGramLawAtJHalf:
    """The 1/2 -> 3/2 Gram modes of any polarization: s+- = rabi^2 / 4 +- (rabi^2 / 8) |v|, v = i (eps* x eps).

    v is the real normal of the polarization ellipse, 0 for a linear wave,
    so the paper's isotropy claim covers linear waves only (ROADMAP item 13).
    The modes are read as splitting^2 / 4 at zero detuning; the worst miss
    measured over these draws is 2.6e-15 of rabi^2 / 4.
    """

    LAW_TOL = 5e-15

    @staticmethod
    def gram_modes(rabis, eps):
        blocks = coupling_stack(SYSTEM, rabis, cartesian_polarizations(eps))
        return gram_splittings(blocks, 0.0) ** 2 / 4.0

    def test_random_complex_polarizations_follow_the_law(self):
        rng = np.random.default_rng(1313)
        eps = rng.normal(size=(2000, 3)) + 1j * rng.normal(size=(2000, 3))
        eps /= np.linalg.norm(eps, axis=1)[:, None]
        rabis = rng.uniform(0.5, 20.0, 2000)
        normal = np.linalg.norm((1j * np.cross(eps.conj(), eps)).real, axis=1)
        assert np.abs((1j * np.cross(eps.conj(), eps)).imag).max() < 1e-15 and normal.max() > 0.99
        law = rabis[:, None] ** 2 / 8.0 * (2.0 + np.array([-1.0, 1.0]) * normal[:, None])
        miss = np.abs(self.gram_modes(rabis, eps) - law) / (rabis[:, None] ** 2 / 4.0)
        assert miss.max() <= self.LAW_TOL

    def test_linear_polarizations_read_flat(self):
        rng = np.random.default_rng(1314)
        directions = rng.normal(size=(500, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        eps = directions * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 500))[:, None]  # a global phase keeps it linear
        modes = self.gram_modes(np.full(500, 6.0), eps)
        assert np.abs(modes - 9.0).max() <= self.LAW_TOL * 9.0
        top = gram_splittings(coupling_stack(SYSTEM, np.full(500, 6.0), cartesian_polarizations(eps)), 0.0)[:, -1]
        assert top.max() - top.min() <= self.LAW_TOL * 6.0


class TestSublevelWeights:
    """ROADMAP item 4's weights, for a linear field at polar angle beta from the lasers' Z axis.

    Gram mode k of coupling_stack's block (np.linalg.eigh of V^dag V) is seen
    with weight p_k = sum_m w_m |<m|u_k>|^2.  Modes come in ascending order,
    so |m'| = J, J, J - 1, ...; eigh's basis inside each degenerate +-m' pair
    is arbitrary, so p is summed over each pair.  The rotation of the field
    onto Z gives it in closed form: sum_m w_m (|d_{m m'}(beta)|^2 + |d_{m -m'}(beta)|^2).
    """

    BETAS = np.linspace(0.0, math.pi, 13)

    def pair_weights(self, two_jg, w):
        """(weights from eigh, weights from d^J), one row per beta and one column per |m'| descending."""
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=1.0)
        eps = np.stack([np.sin(self.BETAS), np.zeros_like(self.BETAS), np.cos(self.BETAS)], axis=1)
        blocks = coupling_stack(system, np.full(self.BETAS.size, 2.0), cartesian_polarizations(eps))
        vectors = np.linalg.eigh(blocks.conj().transpose(0, 2, 1) @ blocks)[1]
        seen = np.einsum("m,bmk->bk", w, np.abs(vectors) ** 2)
        m = np.arange(-two_jg, two_jg + 1, 2) / 2
        mode_m = np.sort(np.abs(m))[::-1]
        pairs = np.unique(mode_m)[::-1]
        got = np.stack([seen[:, mode_m == mu].sum(axis=1) for mu in pairs], axis=1)
        d_squared = np.array([np.abs(wigner_small_d(two_jg, beta)) ** 2 for beta in self.BETAS])
        want = np.stack([(w @ d_squared[:, :, np.abs(m) == mu]).sum(axis=1) for mu in pairs], axis=1)
        return got, want

    @pytest.mark.parametrize("two_jg", range(10))
    def test_weights_are_the_small_d_closed_form(self, two_jg):
        rng = np.random.default_rng(400 + two_jg)
        n = two_jg + 1
        stretched, innermost = np.eye(n)[-1], np.eye(n)[n // 2] + np.eye(n)[(n - 1) // 2]
        for w in (stretched, innermost / innermost.sum(), rng.dirichlet(np.ones(n))):
            got, want = self.pair_weights(two_jg, w)
            # Relative to the total weight: at beta = 0 or pi most pairs see exactly none of a stretched w.
            assert np.abs(got - want).max() <= 1e-12 * w.sum()

    @pytest.mark.parametrize("two_jg", range(10))
    def test_uniform_preparations_see_every_pair_alike(self, two_jg):
        n = two_jg + 1
        got, want = self.pair_weights(two_jg, np.full(n, 1.0 / n))
        share = np.full(got.shape[1], 2.0 / n)
        share[-1] /= 1 + n % 2  # an integer J's m' = 0 is a mode of its own
        assert np.abs(got - share).max() <= 1e-12 and np.abs(want - share).max() <= 1e-12


class TestLaserPathWeights:
    """ROADMAP item 13: the nS1/2 weights that 6S1/2 -> 6P3/2 -> nS1/2 lasers prepare, (w_-1/2, w_+1/2)."""

    def test_pi_pi_lasers_align_without_orienting(self):
        np.testing.assert_allclose(laser_path_weights(0, 0), [2 / 9, 2 / 9], rtol=1e-14)

    def test_sigma_plus_sigma_minus_lasers_orient(self):
        np.testing.assert_allclose(laser_path_weights(+1, -1), [1 / 18, 1 / 2], rtol=1e-14)
        np.testing.assert_allclose(laser_path_weights(-1, +1), [1 / 2, 1 / 18], rtol=1e-14)


class TestJHalfReadout:
    """ROADMAP item 13: at J = 1/2 an oriented preparation reads the RF source's axial ratio.

    The readout weighs each Gram mode (s_k, u_k) of coupling_stack's block,
    from np.linalg.eigh, by p_k = sum_m w_m |<m|u_k>|^2: it is
    sum_k p_k r_k / sum w with r_k = sqrt(detuning^2 + 4 s_k).  The waves
    are unit Cartesian polarizations; a tilted ellipse is
    (x + i eta y) / sqrt(1 + eta^2), eta = 10^(-AR / 20), rotated about Y.
    """

    # Axial ratio (dB) -> deviation (dB) over the rotation for w = (1, 0) and w = (0.75, 0.25), at detuning 0.
    AXIAL_RATIO_TABLE = {40: (0.0869, 0.0434), 30: (0.2745, 0.1372), 20: (0.8628, 0.4311),
                         10: (2.569, 1.278), 0: (4.771, 2.341)}

    @staticmethod
    def readout(eps, w, rabi=1.0, detuning=0.0):
        rabis = np.broadcast_to(np.asarray(rabi, dtype=float), (len(eps),))
        blocks = coupling_stack(SYSTEM, rabis, cartesian_polarizations(eps))
        modes, vectors = np.linalg.eigh(blocks.conj().transpose(0, 2, 1) @ blocks)
        seen = np.einsum("m,bmk->bk", np.asarray(w, dtype=float), np.abs(vectors) ** 2)
        return (seen * np.sqrt(np.asarray(detuning)[..., None] ** 2 + 4.0 * modes)).sum(axis=1) / sum(w)

    def deviation_db(self, axial_ratio_db, w, detuning=0.0):
        eta = 10.0 ** (-axial_ratio_db / 20.0)
        beta = np.radians(np.arange(0.0, 181.0))
        eps = np.stack([np.cos(beta), np.full(beta.size, 1j * eta), -np.sin(beta)], axis=1) / math.sqrt(1 + eta**2)
        r = self.readout(eps, w, detuning=detuning)
        return 20.0 * math.log10(r.max() / r.min())

    def test_w0_weighs_m_minus_half(self):
        assert AngularMomentum(1).two_m_values()[0] == -1
        # (x + i y) / sqrt(2) raises m; from m = -1/2 its Clebsch-Gordan square is 1/3, from +1/2 it is 1
        sigma_plus = np.array([[1.0, 1j, 0.0]]) / math.sqrt(2.0)
        assert self.readout(sigma_plus, (1.0, 0.0))[0] == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert self.readout(sigma_plus, (0.0, 1.0))[0] == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_closed_form_for_random_waves_and_weights(self):
        rng = np.random.default_rng(1315)
        eps = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
        eps /= np.linalg.norm(eps, axis=1)[:, None]
        rabis, detunings = rng.uniform(0.5, 20.0, 500), rng.uniform(-10.0, 10.0, 500)
        for w in rng.uniform(size=(4, 2)):
            got = self.readout(eps, w, rabis, detunings)
            want = j_half_readout(rabis, detunings, eps, w)
            assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.parametrize("axial_ratio_db", sorted(AXIAL_RATIO_TABLE))
    def test_axial_ratio_table(self, axial_ratio_db):
        oriented, partial = self.AXIAL_RATIO_TABLE[axial_ratio_db]
        assert self.deviation_db(axial_ratio_db, (1.0, 0.0)) == pytest.approx(oriented, abs=1e-3)
        assert self.deviation_db(axial_ratio_db, (0.75, 0.25)) == pytest.approx(partial, abs=1e-3)
        assert self.deviation_db(axial_ratio_db, (0.5, 0.5)) <= 1e-12

    def test_detuning_narrows_the_spread(self):
        assert self.deviation_db(30, (1.0, 0.0), detuning=0.5) == pytest.approx(0.2196, abs=1e-3)
        assert self.deviation_db(30, (1.0, 0.0), detuning=1.0) == pytest.approx(0.1372, abs=1e-3)


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
                est = field_from_splitting(gram_splitting(rabi, detuning), detuning, mu)
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
        pattern = normalized_gain([0.0, 1.0, 2.0], [2.0, 1.0, 4.0])
        gains = [s.gain_db for s in pattern]
        assert gains[0] == pytest.approx(20 * math.log10(0.5), abs=1e-12)
        assert gains[1] == pytest.approx(20 * math.log10(0.25), abs=1e-12)
        assert gains[2] == 0.0

    def test_peak_is_zero_db(self):
        rng = np.random.default_rng(3)
        ratios = rng.uniform(0.1, 10.0, size=200)
        pattern = normalized_gain(np.arange(ratios.size), ratios)
        assert max(s.gain_db for s in pattern) == 0.0
        assert all(s.gain_db <= 0.0 for s in pattern)

    def test_gauge_invariance_under_common_scaling(self):
        angles, ratios = [0.0, 1.0, 2.0], np.array([1.0, 3.0, 0.5])
        g1 = [s.gain_db for s in normalized_gain(angles, ratios)]
        g2 = [s.gain_db for s in normalized_gain(angles, 17.3 * ratios)]
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_samples_are_plain_records(self):
        pattern = normalized_gain([0.0, 1.0], [2.0, 4.0])
        assert [type(s) for s in pattern] == [GainSample, GainSample]
        assert pattern[0] == GainSample(0.0, 2.0, 20.0 * math.log10(0.5))
        assert tuple(pattern[1]) == (1.0, 4.0, 0.0)

    def test_order_preserved(self):
        pattern = normalized_gain([5.0, 1.0, 3.0], [1.0, 2.0, 1.5])
        assert [s.angle for s in pattern] == [5.0, 1.0, 3.0]

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError, match=r"^raw ratio 0\.0 at index 1 must be > 0$"):
            normalized_gain([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match=r"^raw ratio -1\.0 at index 1 must be > 0$"):
            normalized_gain([0.0, 1.0], [2.0, -1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalized_gain([], [])

    @pytest.mark.parametrize(
        "ratios,message",
        [
            ([math.nan, 1.0], "raw ratio nan at index 0 is not finite"),
            ([1.0, math.nan], "raw ratio nan at index 1 is not finite"),
            ([1.0, math.inf], "raw ratio inf at index 1 is not finite"),
            ([1.0, -math.inf], "raw ratio -inf at index 1 is not finite"),
            ([1e-320, 1e300], "raw ratio 1e-320 at index 0 underflows to 0 against the maximum 1e+300"),
        ],
    )
    def test_refuses_ratios_without_a_finite_gain(self, ratios, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            normalized_gain(range(len(ratios)), ratios)

    def test_a_subnormal_relative_ratio_keeps_its_gain(self):
        pattern = normalized_gain([0.0, 1.0], [1e-300, 1e10])
        assert pattern[0].gain_db == 20.0 * math.log10(1e-300 / 1e10) < -6000.0

    @pytest.mark.parametrize("angles,ratios", [([0.0], [1.0, 2.0]), ([[0.0]], [[1.0]])])
    def test_refuses_unequal_or_nested_arrays(self, angles, ratios):
        with pytest.raises(ValueError, match="must be 1-D of equal length"):
            normalized_gain(angles, ratios)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(1e-150, 1e150)), min_size=1, max_size=40))
    def test_equals_the_scalar_rule_bit_for_bit(self, pairs):
        angles, ratios = [a for a, _ in pairs], [r for _, r in pairs]
        top = max(ratios)
        pattern = normalized_gain(np.array(angles), np.array(ratios))
        assert all(type(s) is GainSample for s in pattern)
        assert pattern == [(a, r, min(20.0 * math.log10(r / top), 0.0)) for a, r in pairs]


class TestIsotropicDeviation:
    def test_uniform_pattern_has_zero_spread(self):
        pattern = normalized_gain(range(10), [2.5] * 10)
        assert isotropic_deviation(pattern) == 0.0

    def test_known_spread(self):
        pattern = normalized_gain([0.0, 1.0], [1.0, 10.0])
        assert isotropic_deviation(pattern) == pytest.approx(20.0, abs=1e-12)

    def test_monotone_under_added_attenuation(self):
        base = [1.0, 0.9, 0.8]
        worse = base + [0.4]
        assert isotropic_deviation(normalized_gain(range(4), worse)) > isotropic_deviation(
            normalized_gain(range(3), base)
        )

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            isotropic_deviation([])


class TestValueObjects:
    def test_splitting_result_validation(self):
        with pytest.raises(ValueError):
            SplittingResult(delta_at=-1.0)
        with pytest.raises(ValueError):
            SplittingResult(delta_at=math.nan)
