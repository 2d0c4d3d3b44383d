import math

import numpy as np
import pytest

from _oracles import (
    branch_splittings,
    build_interaction_paper,
    eigen_closed_form,
    hamiltonian_stack,
    interaction_block,
    polarizations,
    wrap_orientation,
)
from rydant import hamiltonian
from rydant.angular import AngularMomentum
from rydant.hamiltonian import RfDrive, TransitionSystem, coupling_stack, hamiltonian_array
from rydant.spectra import InputError

HALF = AngularMomentum(1)
THREE_HALF = AngularMomentum(3)

SYSTEM = TransitionSystem(jg=HALF, je=THREE_HALF, mu=1.0)


def block(system, drive, orientation):
    """coupling_stack's block for one drive and orientation."""
    return coupling_stack(system, [drive.rabi], polarizations([orientation]))[0]


def dressed_levels(drive, orientation):
    """The numeric column of `rydant eigen`: stacked block, embedded, eigvalsh."""
    return np.linalg.eigvalsh(hamiltonian_array(block(SYSTEM, drive, orientation), drive.detuning))


def random_orientation(rng):
    return wrap_orientation(
        chi=rng.uniform(0, math.pi),
        theta=rng.uniform(0, 2 * math.pi),
        phi=rng.uniform(0, 2 * math.pi),
    )


class TestReferenceBlock:
    def test_axial_drive_couples_only_pi_transitions(self):
        block = build_interaction_paper(RfDrive(rabi=4.0), wrap_orientation(0.0, 0.7, 1.1))
        expected = np.array([[0, 0], [2, 0], [0, 2], [0, 0]], dtype=complex)
        np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_transverse_drive_frozen_entries(self):
        block = build_interaction_paper(RfDrive(rabi=4.0), wrap_orientation(math.pi / 2, 0.0, 0.0))
        root3 = math.sqrt(3.0)
        expected = np.array(
            [[-root3, 0], [0, -1], [1, 0], [0, root3]], dtype=complex
        )
        np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_oblique_drive_frozen_entries(self):
        # chi = pi/4, theta = pi/2 puts the sigma amplitudes on the imaginary axis
        block = build_interaction_paper(RfDrive(rabi=4.0), wrap_orientation(math.pi / 4, math.pi / 2, 0.0))
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
        o = wrap_orientation(0.9, 1.3, 0.2)
        one = build_interaction_paper(RfDrive(rabi=1.0), o)
        seven = build_interaction_paper(RfDrive(rabi=7.0), o)
        np.testing.assert_allclose(seven, 7.0 * one, rtol=1e-15)


class TestGeneralBlock:
    def test_reproduces_reference_block(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            drive = RfDrive(rabi=rng.uniform(0.1, 10.0))
            o = random_orientation(rng)
            ours = block(SYSTEM, drive, o)
            ref = build_interaction_paper(drive, o)
            assert np.abs(ours - ref).max() <= 1e-14 * max(1.0, drive.rabi)

    def test_half_to_half_diagonal_ratio(self):
        # jg = je = 1/2 pi couplings carry opposite signs of equal magnitude
        sys_hh = TransitionSystem(jg=HALF, je=HALF, mu=1.0)
        hh = block(sys_hh, RfDrive(rabi=4.0), wrap_orientation(0.0, 0.0, 0.0))
        assert hh[0, 0] == pytest.approx(-math.sqrt(2.0), abs=1e-15)
        assert hh[1, 1] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert hh[0, 1] == hh[1, 0] == 0.0
        assert hh[0, 0] / hh[1, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_block_shape_follows_sublevel_counts(self):
        sys_big = TransitionSystem(jg=AngularMomentum(5), je=AngularMomentum(7), mu=1.0)
        assert block(sys_big, RfDrive(rabi=1.0), wrap_orientation(0.5, 0.5, 0.5)).shape == (8, 6)

    def test_forbidden_transition_rejected(self):
        with pytest.raises(ValueError):
            TransitionSystem(jg=AngularMomentum(0), je=AngularMomentum(4), mu=1.0)

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            TransitionSystem(jg=HALF, je=THREE_HALF, mu=0.0)


class TestAssembly:
    def test_embeds_block_and_detuning(self):
        paper = build_interaction_paper(RfDrive(rabi=4.0), wrap_orientation(math.pi / 2, 0.0, 0.0))
        h = hamiltonian_array(paper, detuning=3.0)
        assert h.shape == (6, 6)
        np.testing.assert_allclose(h[:2, :2], 0.0)
        np.testing.assert_allclose(h[2:, 2:], -3.0 * np.eye(4))
        np.testing.assert_allclose(h[2:, :2], paper)
        np.testing.assert_allclose(h[:2, 2:], paper.conj().T)

    def test_result_is_hermitian_for_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = block(SYSTEM, RfDrive(rabi=rng.uniform(0, 5)), random_orientation(rng))
            h = hamiltonian_array(b, detuning=rng.uniform(-5, 5))
            assert np.abs(h - h.conj().T).max() == 0.0

    def test_rejects_non_2d_block(self):
        with pytest.raises(ValueError):
            hamiltonian_array(np.zeros(4), detuning=0.0)


class TestEigensolutions:
    def test_closed_form_frozen_symmetric_case(self):
        # chi = pi/2, Delta = 3, Omega = 4: both branches collapse to a 3-4-5 triple
        spec = eigen_closed_form(RfDrive(rabi=4.0, detuning=3.0), wrap_orientation(math.pi / 2, 0.0, 0.0))
        np.testing.assert_allclose(spec, [-4, -4, -3, -3, 1, 1], atol=1e-14)

    def test_closed_form_frozen_split_branches(self):
        # phi = pi/2, chi = pi/4 gives branch weights 1 +/- 1/2
        spec = eigen_closed_form(RfDrive(rabi=4.0), wrap_orientation(math.pi / 4, 0.0, math.pi / 2))
        expected = [-math.sqrt(6), -math.sqrt(2), 0.0, 0.0, math.sqrt(2), math.sqrt(6)]
        np.testing.assert_allclose(spec, expected, atol=1e-14)

    def test_closed_form_is_built_on_the_branch_splittings(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            drive = RfDrive(rabi=rng.uniform(0, 8), detuning=rng.uniform(-5, 5))
            o = random_orientation(rng)
            spec = eigen_closed_form(drive, o)
            assert isinstance(spec, np.ndarray) and spec.dtype == float and np.all(np.diff(spec) >= 0)
            d = drive.detuning
            roots = branch_splittings(drive, o)
            expected = sorted([-d, -d] + [v for r in roots for v in (-0.5 * (d + r), -0.5 * (d - r))])
            assert spec.tolist() == expected

    def test_closed_form_matches_numerics(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            drive = RfDrive(rabi=rng.uniform(0, 8), detuning=rng.uniform(-5, 5))
            o = random_orientation(rng)
            numeric = dressed_levels(drive, o)
            closed = eigen_closed_form(drive, o)
            scale = max(1.0, np.abs(numeric).max())
            assert np.abs(numeric - closed).max() <= 1e-10 * scale

    def test_spectrum_is_independent_of_theta(self):
        rng = np.random.default_rng(31)
        drive = RfDrive(rabi=3.0, detuning=1.5)
        base = None
        for theta in rng.uniform(0, 2 * math.pi, size=20):
            o = wrap_orientation(chi=0.8, theta=float(theta), phi=2.1)
            spec = dressed_levels(drive, o)
            if base is None:
                base = spec
            else:
                np.testing.assert_allclose(spec, base, atol=1e-12)

    def test_detuning_pair_always_present(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            drive = RfDrive(rabi=rng.uniform(0, 8), detuning=rng.uniform(-5, 5))
            spec = eigen_closed_form(drive, random_orientation(rng))
            hits = np.sum(np.abs(spec + drive.detuning) < 1e-12)
            assert hits >= 2

    @pytest.mark.parametrize(
        "rabi,detuning,quantity",
        [(-1.0, 0.0, "rabi"), (math.inf, 0.0, "rabi"), (math.nan, 0.0, "rabi"), (1.0, math.nan, "detuning")],
    )
    def test_drive_validation(self, rabi, detuning, quantity):
        with pytest.raises(InputError) as info:
            RfDrive(rabi=rabi, detuning=detuning)
        assert info.value.quantity == quantity


class TestStackedBuilder:
    """coupling_stack against blocks filled entry by entry, byte for byte."""

    @pytest.mark.parametrize("two_jg", range(8))  # J -> J + 1 up to je = 9/2
    @pytest.mark.parametrize("detuning", [0.0, 3.7, -2.9])
    def test_stack_matches_the_per_element_oracle(self, two_jg, detuning):
        rng = np.random.default_rng(100 + two_jg)
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_jg + 2), mu=1.0)
        orientations = [random_orientation(rng) for _ in range(40)]
        orientations += [wrap_orientation(0.0, 0.0), wrap_orientation(math.pi / 2, 1.1), wrap_orientation(math.pi, 0.0, 0.0)]
        assert all(o.phi != 0.0 for o in orientations[:40])
        rabis = rng.uniform(0.0, 20.0, len(orientations))
        rabis[0] = 0.0
        blocks = [interaction_block(system, RfDrive(r, detuning), o) for r, o in zip(rabis, orientations)]
        stack = coupling_stack(system, rabis, polarizations(orientations))
        assert stack.shape == (len(orientations), system.je.sublevel_count, system.jg.sublevel_count)
        assert stack.tobytes() == np.stack(blocks).tobytes()
        # The full-matrix oracle of the eigen readout embeds the same blocks.
        full = hamiltonian_stack(system, rabis, polarizations(orientations), detuning)
        assert full.tobytes() == np.stack([hamiltonian_array(b, detuning) for b in blocks]).tobytes()

    @pytest.mark.parametrize("two_jg,two_je", [(1, 1), (2, 2), (3, 1), (4, 2), (9, 7)])
    def test_general_block_matches_the_oracle_off_the_sweep_family(self, two_jg, two_je):
        rng = np.random.default_rng(two_jg * 10 + two_je)
        system = TransitionSystem(AngularMomentum(two_jg), AngularMomentum(two_je), mu=1.0)
        for _ in range(20):
            drive = RfDrive(rng.uniform(0.0, 10.0), rng.uniform(-5.0, 5.0))
            orientation = random_orientation(rng)
            assert block(system, drive, orientation).tobytes() == interaction_block(system, drive, orientation).tobytes()

    def test_coupling_table_is_built_once_per_transition(self, monkeypatch):
        calls = []
        real = hamiltonian.clebsch_gordan
        monkeypatch.setattr(hamiltonian, "clebsch_gordan", lambda *a: calls.append(a) or real(*a))
        hamiltonian._coupling_table.cache_clear()
        system = TransitionSystem(AngularMomentum(3), AngularMomentum(5), mu=1.0)
        orientations = [wrap_orientation(0.3 * k, 0.2 * k, 0.1) for k in range(30)]
        coupling_stack(system, np.ones(30), polarizations(orientations))
        # every entry with m_e - m_g in {-1, 0, +1}: 4 ground x 3 = 12
        assert len(calls) == 12
        coupling_stack(system, 2.0 * np.ones(30), polarizations(orientations))
        block(system, RfDrive(1.0), orientations[0])
        assert len(calls) == 12
        info = hamiltonian._coupling_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_stack_validation(self):
        orientations = polarizations([wrap_orientation(0.1, 0.2)] * 3)
        with pytest.raises(ValueError, match="one Rabi frequency per orientation"):
            coupling_stack(SYSTEM, np.ones(2), orientations)
        with pytest.raises(ValueError, match="finite and >= 0"):
            coupling_stack(SYSTEM, [1.0, -1.0, 1.0], orientations)
        with pytest.raises(ValueError, match="finite and >= 0"):
            coupling_stack(SYSTEM, [1.0, math.nan, 1.0], orientations)
        assert coupling_stack(SYSTEM, [], polarizations([])).shape == (0, 4, 2)
