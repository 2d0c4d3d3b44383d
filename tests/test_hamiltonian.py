import math

import numpy as np
import pytest

from _oracles import interaction_block
from rydant import hamiltonian
from rydant.angular import AngularMomentum, Orientation
from rydant.hamiltonian import (
    EigenSpectrum,
    HermitianMatrix,
    RfDrive,
    TransitionSystem,
    assemble_hamiltonian,
    build_interaction_general,
    build_interaction_paper,
    eigen_closed_form,
    eigen_hermitian,
    hamiltonian_array,
    hamiltonian_stack,
)

HALF = AngularMomentum(1)
THREE_HALF = AngularMomentum(3)

SYSTEM = TransitionSystem(jg=HALF, je=THREE_HALF, mu=1.0)


def random_orientation(rng):
    return Orientation(
        chi=rng.uniform(0, math.pi),
        theta=rng.uniform(0, 2 * math.pi),
        phi=rng.uniform(0, 2 * math.pi),
    )


class TestReferenceBlock:
    def test_axial_drive_couples_only_pi_transitions(self):
        block = build_interaction_paper(RfDrive(rabi=4.0), Orientation(0.0, 0.7, 1.1))
        expected = np.array([[0, 0], [2, 0], [0, 2], [0, 0]], dtype=complex)
        np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_transverse_drive_frozen_entries(self):
        block = build_interaction_paper(RfDrive(rabi=4.0), Orientation(math.pi / 2, 0.0, 0.0))
        root3 = math.sqrt(3.0)
        expected = np.array(
            [[-root3, 0], [0, -1], [1, 0], [0, root3]], dtype=complex
        )
        np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_oblique_drive_frozen_entries(self):
        # chi = pi/4, theta = pi/2 puts the sigma amplitudes on the imaginary axis
        block = build_interaction_paper(RfDrive(rabi=4.0), Orientation(math.pi / 4, math.pi / 2, 0.0))
        s = math.sqrt(0.5)
        assert block[0, 0] == pytest.approx(-1j * math.sqrt(3.0) * s, abs=1e-15)
        assert block[0, 1] == 0.0
        assert block[1, 0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert block[1, 1] == pytest.approx(-1j * s, abs=1e-15)
        assert block[2, 0] == pytest.approx(-1j * s, abs=1e-15)
        assert block[2, 1] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert block[3, 0] == 0.0
        assert block[3, 1] == pytest.approx(-1j * math.sqrt(3.0) * s, abs=1e-15)

    def test_scales_linearly_with_rabi(self):
        o = Orientation(0.9, 1.3, 0.2)
        one = build_interaction_paper(RfDrive(rabi=1.0), o)
        seven = build_interaction_paper(RfDrive(rabi=7.0), o)
        np.testing.assert_allclose(seven, 7.0 * one, rtol=1e-15)


class TestGeneralBlock:
    def test_reproduces_reference_block(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            drive = RfDrive(rabi=rng.uniform(0.1, 10.0))
            o = random_orientation(rng)
            ours = build_interaction_general(SYSTEM, drive, o)
            ref = build_interaction_paper(drive, o)
            assert np.abs(ours - ref).max() <= 1e-14 * max(1.0, drive.rabi)

    def test_half_to_half_diagonal_ratio(self):
        # jg = je = 1/2 pi couplings carry opposite signs of equal magnitude
        sys_hh = TransitionSystem(jg=HALF, je=HALF, mu=1.0)
        block = build_interaction_general(sys_hh, RfDrive(rabi=4.0), Orientation(0.0, 0.0, 0.0))
        assert block[0, 0] == pytest.approx(-math.sqrt(2.0), abs=1e-15)
        assert block[1, 1] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert block[0, 1] == block[1, 0] == 0.0
        assert block[0, 0] / block[1, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_block_shape_follows_sublevel_counts(self):
        sys_big = TransitionSystem(jg=AngularMomentum(5), je=AngularMomentum(7), mu=1.0)
        block = build_interaction_general(sys_big, RfDrive(rabi=1.0), Orientation(0.5, 0.5, 0.5))
        assert block.shape == (8, 6)

    def test_forbidden_transition_rejected(self):
        with pytest.raises(ValueError):
            TransitionSystem(jg=AngularMomentum(0), je=AngularMomentum(4), mu=1.0)

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            TransitionSystem(jg=HALF, je=THREE_HALF, mu=0.0)


class TestAssembly:
    def test_embeds_block_and_detuning(self):
        block = build_interaction_paper(RfDrive(rabi=4.0), Orientation(math.pi / 2, 0.0, 0.0))
        h = assemble_hamiltonian(block, detuning=3.0).data
        assert h.shape == (6, 6)
        np.testing.assert_allclose(h[:2, :2], 0.0)
        np.testing.assert_allclose(h[2:, 2:], -3.0 * np.eye(4))
        np.testing.assert_allclose(h[2:, :2], block)
        np.testing.assert_allclose(h[:2, 2:], block.conj().T)

    def test_result_is_hermitian_for_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            block = build_interaction_general(
                SYSTEM, RfDrive(rabi=rng.uniform(0, 5)), random_orientation(rng)
            )
            h = assemble_hamiltonian(block, detuning=rng.uniform(-5, 5)).data
            assert np.abs(h - h.conj().T).max() == 0.0

    def test_rejects_non_2d_block(self):
        with pytest.raises(ValueError):
            assemble_hamiltonian(np.zeros(4), detuning=0.0)

    def test_hermitian_matrix_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigen_spectrum_requires_sorted_values(self):
        with pytest.raises(ValueError):
            EigenSpectrum(np.array([1.0, 0.0]))


class TestEigensolutions:
    def test_two_by_two_reference(self):
        spec = eigen_hermitian(HermitianMatrix(np.array([[0.0, 2.0], [2.0, -3.0]])))
        np.testing.assert_allclose(spec.values, [-4.0, 1.0], atol=1e-14)

    def test_closed_form_frozen_symmetric_case(self):
        # chi = pi/2, Delta = 3, Omega = 4: both branches collapse to a 3-4-5 triple
        spec = eigen_closed_form(RfDrive(rabi=4.0, detuning=3.0), Orientation(math.pi / 2, 0.0, 0.0))
        np.testing.assert_allclose(spec.values, [-4, -4, -3, -3, 1, 1], atol=1e-14)

    def test_closed_form_frozen_split_branches(self):
        # phi = pi/2, chi = pi/4 gives branch weights 1 +/- 1/2
        spec = eigen_closed_form(RfDrive(rabi=4.0), Orientation(math.pi / 4, 0.0, math.pi / 2))
        expected = [-math.sqrt(6), -math.sqrt(2), 0.0, 0.0, math.sqrt(2), math.sqrt(6)]
        np.testing.assert_allclose(spec.values, expected, atol=1e-14)

    def test_closed_form_matches_numerics(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            drive = RfDrive(rabi=rng.uniform(0, 8), detuning=rng.uniform(-5, 5))
            o = random_orientation(rng)
            block = build_interaction_paper(drive, o)
            numeric = eigen_hermitian(assemble_hamiltonian(block, drive.detuning))
            closed = eigen_closed_form(drive, o)
            scale = max(1.0, np.abs(numeric.values).max())
            assert np.abs(numeric.values - closed.values).max() <= 1e-10 * scale

    def test_spectrum_is_independent_of_theta(self):
        rng = np.random.default_rng(31)
        drive = RfDrive(rabi=3.0, detuning=1.5)
        base = None
        for theta in rng.uniform(0, 2 * math.pi, size=20):
            o = Orientation(chi=0.8, theta=float(theta), phi=2.1)
            block = build_interaction_paper(drive, o)
            spec = eigen_hermitian(assemble_hamiltonian(block, drive.detuning))
            if base is None:
                base = spec.values
            else:
                np.testing.assert_allclose(spec.values, base, atol=1e-12)

    def test_detuning_pair_always_present(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            drive = RfDrive(rabi=rng.uniform(0, 8), detuning=rng.uniform(-5, 5))
            spec = eigen_closed_form(drive, random_orientation(rng))
            hits = np.sum(np.abs(spec.values + drive.detuning) < 1e-12)
            assert hits >= 2

    def test_drive_validation(self):
        with pytest.raises(ValueError):
            RfDrive(rabi=-1.0)
        with pytest.raises(ValueError):
            RfDrive(rabi=math.inf)
        with pytest.raises(ValueError):
            RfDrive(rabi=1.0, detuning=math.nan)


class TestStackedBuilder:
    """hamiltonian_stack against blocks filled entry by entry, byte for byte."""

    @pytest.mark.parametrize("two_jg", range(8))  # J -> J + 1 up to je = 9/2
    @pytest.mark.parametrize("detuning", [0.0, 3.7, -2.9])
    def test_stack_matches_the_per_element_oracle(self, two_jg, detuning):
        rng = np.random.default_rng(100 + two_jg)
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=1.0)
        orientations = [random_orientation(rng) for _ in range(40)]
        orientations += [Orientation(0.0, 0.0), Orientation(math.pi / 2, 1.1), Orientation(math.pi, 0.0, 0.0)]
        assert all(o.phi != 0.0 for o in orientations[:40])
        rabis = rng.uniform(0.0, 20.0, len(orientations))
        rabis[0] = 0.0
        stack = hamiltonian_stack(system, rabis, orientations, detuning)
        expected = np.stack(
            [
                hamiltonian_array(interaction_block(system, RfDrive(r, detuning), o), detuning)
                for r, o in zip(rabis, orientations)
            ]
        )
        assert stack.shape == (len(orientations), system.dim, system.dim)
        assert stack.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("two_jg,two_je", [(1, 1), (2, 2), (3, 1), (4, 2), (9, 7)])
    def test_general_block_matches_the_oracle_off_the_sweep_family(self, two_jg, two_je):
        rng = np.random.default_rng(two_jg * 10 + two_je)
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_je), mu=1.0)
        for _ in range(20):
            drive = RfDrive(rng.uniform(0.0, 10.0), rng.uniform(-5.0, 5.0))
            orientation = random_orientation(rng)
            block = build_interaction_general(system, drive, orientation)
            assert block.tobytes() == interaction_block(system, drive, orientation).tobytes()

    def test_coupling_table_is_built_once_per_transition(self, monkeypatch):
        calls = []
        real = hamiltonian.clebsch_gordan
        monkeypatch.setattr(hamiltonian, "clebsch_gordan", lambda *a: calls.append(a) or real(*a))
        hamiltonian._coupling_table.cache_clear()
        system = TransitionSystem(AngularMomentum(3), AngularMomentum(5), mu=1.0)
        orientations = [Orientation(0.3 * k, 0.2 * k, 0.1) for k in range(30)]
        hamiltonian_stack(system, np.ones(30), orientations, 0.5)
        # every entry with m_e - m_g in {-1, 0, +1}: 4 ground x 3 = 12
        assert len(calls) == 12
        hamiltonian_stack(system, np.ones(30), orientations, -0.5)
        build_interaction_general(system, RfDrive(1.0), orientations[0])
        assert len(calls) == 12
        info = hamiltonian._coupling_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_stack_validation(self):
        orientations = [Orientation(0.1, 0.2)] * 3
        with pytest.raises(ValueError, match="one Rabi frequency per orientation"):
            hamiltonian_stack(SYSTEM, np.ones(2), orientations, 0.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            hamiltonian_stack(SYSTEM, [1.0, -1.0, 1.0], orientations, 0.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            hamiltonian_stack(SYSTEM, [1.0, math.nan, 1.0], orientations, 0.0)
        with pytest.raises(ValueError, match="detuning must be finite"):
            hamiltonian_stack(SYSTEM, np.ones(3), orientations, math.inf)
        assert hamiltonian_stack(SYSTEM, [], [], 0.0).shape == (0, 6, 6)
