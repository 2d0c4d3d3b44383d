import math

import numpy as np
import pytest
from sympy import Rational
from sympy.physics.quantum.cg import CG as SymCG

from _oracles import plane_orientation, spherical_components, wrap_orientation
from rydant.angular import (
    AngularMomentum,
    _check_unit_norm,
    _wrapped,
    clebsch_gordan,
    decompose_polarizations,
)
from rydant.patterns import plane_angles

HALF = AngularMomentum(1)
ONE = AngularMomentum(2)
THREE_HALF = AngularMomentum(3)

TWO_PI = 2 * math.pi


def sym_cg(tj1, tm1, tj2, tm2, tj3, tm3):
    """Independent oracle: sympy's Condon-Shortley Clebsch-Gordan."""
    return float(
        SymCG(
            Rational(tj1, 2), Rational(tm1, 2),
            Rational(tj2, 2), Rational(tm2, 2),
            Rational(tj3, 2), Rational(tm3, 2),
        ).doit()
    )


class TestAngularMomentum:
    def test_basic_properties(self):
        j = AngularMomentum(3)
        assert j.j == 1.5
        assert j.sublevel_count == 4
        assert j.two_m_values() == [-3, -1, 1, 3]

    def test_from_j(self):
        assert AngularMomentum.from_j(0.5) == HALF
        assert AngularMomentum.from_j(2) == AngularMomentum(4)
        with pytest.raises(ValueError):
            AngularMomentum.from_j(0.3)

    def test_rejects_bad_two_j(self):
        with pytest.raises(ValueError):
            AngularMomentum(-1)
        with pytest.raises(TypeError):
            AngularMomentum(1.0)


class TestClebschGordan:
    def test_frozen_reference_values(self):
        # Oracle-computed constants for the 1/2 (x) 1 -> 3/2 ladder.
        assert clebsch_gordan(HALF, -0.5, ONE, 0, THREE_HALF, -0.5) == pytest.approx(
            math.sqrt(2 / 3), abs=1e-15
        )
        assert clebsch_gordan(HALF, 0.5, ONE, -1, THREE_HALF, -0.5) == pytest.approx(
            math.sqrt(1 / 3), abs=1e-15
        )
        assert clebsch_gordan(HALF, 0.5, ONE, 1, THREE_HALF, 1.5) == pytest.approx(1.0, abs=1e-15)

    def test_condon_shortley_signs_for_self_coupling(self):
        # <1/2 m; 1 0 | 1/2 m> = +/- 1/sqrt(3); the two signs are opposite.
        up = clebsch_gordan(HALF, 0.5, ONE, 0, HALF, 0.5)
        down = clebsch_gordan(HALF, -0.5, ONE, 0, HALF, -0.5)
        assert up == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
        assert down == pytest.approx(-math.sqrt(1 / 3), abs=1e-15)
        assert up / down == pytest.approx(-1.0, abs=1e-15)

    def test_matches_sympy_over_small_momenta(self):
        for tj1 in range(0, 5):
            for tj2 in range(0, 5):
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            tm3 = tm1 + tm2
                            if abs(tm3) > tj3:
                                continue
                            ours = clebsch_gordan(
                                AngularMomentum(tj1), tm1 / 2,
                                AngularMomentum(tj2), tm2 / 2,
                                AngularMomentum(tj3), tm3 / 2,
                            )
                            assert ours == pytest.approx(
                                sym_cg(tj1, tm1, tj2, tm2, tj3, tm3), abs=1e-14
                            ), (tj1, tm1, tj2, tm2, tj3, tm3)

    def test_matches_sympy_at_largest_supported_momentum(self):
        nine_half = AngularMomentum(9)
        for tm1 in (-9, -3, 1, 9):
            for q in (-1, 0, 1):
                tm3 = tm1 + 2 * q
                for tj3 in (7, 9, 11):
                    if abs(tm3) > tj3:
                        continue
                    ours = clebsch_gordan(
                        nine_half, tm1 / 2, ONE, q, AngularMomentum(tj3), tm3 / 2
                    )
                    assert ours == pytest.approx(sym_cg(9, tm1, 2, 2 * q, tj3, tm3), abs=1e-14)

    def test_selection_rules_give_zero(self):
        assert clebsch_gordan(HALF, 0.5, ONE, 1, THREE_HALF, 0.5) == 0.0  # M mismatch
        assert clebsch_gordan(HALF, 0.5, HALF, 0.5, AngularMomentum(4), 1.0) == 0.0  # triangle
        assert clebsch_gordan(HALF, 1.5, ONE, 0, THREE_HALF, 1.5) == 0.0  # |m| > j
        assert clebsch_gordan(HALF, 0.3, ONE, 0, THREE_HALF, 0.3) == 0.0  # malformed m

    def test_orthogonality(self):
        # sum_{m1,m2} <j1 m1 j2 m2|J M><j1 m1 j2 m2|J' M'> = delta_JJ' delta_MM'
        tj1, tj2 = 3, 2
        couplings = [
            (tj3, tm3)
            for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            for tm3 in range(-tj3, tj3 + 1, 2)
        ]
        for tj3, tm3 in couplings:
            for tj3b, tm3b in couplings:
                total = 0.0
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        total += clebsch_gordan(
                            AngularMomentum(tj1), tm1 / 2,
                            AngularMomentum(tj2), tm2 / 2,
                            AngularMomentum(tj3), tm3 / 2,
                        ) * clebsch_gordan(
                            AngularMomentum(tj1), tm1 / 2,
                            AngularMomentum(tj2), tm2 / 2,
                            AngularMomentum(tj3b), tm3b / 2,
                        )
                expected = 1.0 if (tj3, tm3) == (tj3b, tm3b) else 0.0
                assert total == pytest.approx(expected, abs=1e-12)


class TestAngleRule:
    """decompose_polarizations folds chi, wraps theta and phi, and refuses non-finite angles."""

    @staticmethod
    def components(chi, theta, phi):
        return np.stack(decompose_polarizations([chi], [theta], [phi]), axis=1)[0]

    def test_wraps_angles(self):
        (chi,), (theta,), (phi,) = _wrapped([0.4], [TWO_PI + 0.1], [-0.2])
        assert (chi, theta, phi) == pytest.approx((0.4, 0.1, TWO_PI - 0.2))
        assert self.components(0.4, TWO_PI + 0.1, -0.2) == pytest.approx(self.components(0.4, 0.1, -0.2), abs=1e-15)

    def test_chi_folds_preserving_direction(self):
        (chi,), (theta,), _ = _wrapped([3 * math.pi / 2], [0.3], [0.0])
        assert chi == pytest.approx(math.pi / 2)
        assert theta == pytest.approx(0.3 + math.pi)
        # the polarization vector is unchanged by the fold
        assert self.components(-0.7, 1.1, 0.5) == pytest.approx(self.components(0.7, 1.1 + math.pi, 0.5), abs=1e-15)

    def test_boundaries_stay_in_range(self):
        (chi,), _, _ = _wrapped([math.pi], [0.0], [0.0])
        assert chi == pytest.approx(math.pi)
        _, (theta,), (phi,) = _wrapped([0.0], [TWO_PI], [TWO_PI])
        assert theta == 0.0 and phi == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="chi must be finite, got nan"):
            decompose_polarizations([math.nan], [0.0], [0.0])


class TestDecomposePolarization:
    def test_pure_axial_is_pi_polarized(self):
        (eps_minus,), (eps_zero,), (eps_plus,) = decompose_polarizations([0.0], [0.0], [0.0])
        assert eps_minus == pytest.approx(0.0, abs=1e-15)
        assert eps_zero == pytest.approx(1.0, abs=1e-15)
        assert eps_plus == pytest.approx(0.0, abs=1e-15)

    def test_transverse_splits_evenly(self):
        (eps_minus,), (eps_zero,), (eps_plus,) = decompose_polarizations([math.pi / 2], [0.0], [0.0])
        assert eps_minus == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert eps_zero == pytest.approx(0.0, abs=1e-15)
        assert eps_plus == pytest.approx(-1 / math.sqrt(2), abs=1e-15)

    def test_oblique_reference_values(self):
        (eps_minus,), (eps_zero,), (eps_plus,) = decompose_polarizations([math.pi / 4], [0.0], [0.0])
        assert eps_minus == pytest.approx(0.5, abs=1e-15)
        assert eps_zero == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert eps_plus == pytest.approx(-0.5, abs=1e-15)

    def test_unit_norm_and_balanced_sigma_components(self):
        rng = np.random.default_rng(20240817)
        chi, theta, phi = rng.uniform(0, math.pi, 1000), rng.uniform(0, TWO_PI, 1000), rng.uniform(0, TWO_PI, 1000)
        eps_minus, eps_zero, eps_plus = decompose_polarizations(chi, theta, phi)
        norm_sq = np.abs(eps_minus) ** 2 + np.abs(eps_zero) ** 2 + np.abs(eps_plus) ** 2
        assert np.abs(norm_sq - 1.0).max() < 1e-12
        assert np.abs(eps_plus) == pytest.approx(np.abs(eps_minus), abs=1e-15)


def component_bytes(components):
    return np.array(components, dtype=complex).tobytes()


class TestBatchedDecomposition:
    """decompose_polarizations against the scalar cmath decomposition, byte for byte."""

    GRID = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, math.nextafter(TWO_PI, 0.0)]

    @pytest.mark.parametrize("plane", ["XY", "XZ", "YZ"])
    def test_plane_components_match_the_scalar_oracle(self, plane):
        rng = np.random.default_rng(31)
        angles = np.array(self.GRID + list(rng.uniform(0.0, TWO_PI, 200)))
        eps = decompose_polarizations(*plane_angles(plane, angles))
        got = np.stack(eps, axis=1)
        expected = [spherical_components(plane_orientation(plane, float(a))) for a in angles]
        assert got.tobytes() == component_bytes(expected)

    def test_raw_angles_are_wrapped_as_the_scalar_rule_wraps_them(self):
        rng = np.random.default_rng(32)
        chi, theta, phi = rng.uniform(-20.0, 20.0, (3, 500))
        chi[:4] = [0.0, -0.0, math.pi, 3 * math.pi / 2]
        theta[:4] = [-1e-20, TWO_PI, -0.0, 1e-300]
        got = np.stack(decompose_polarizations(chi, theta, phi), axis=1)
        wrapped = [wrap_orientation(*row) for row in zip(chi.tolist(), theta.tolist(), phi.tolist())]
        assert got.tobytes() == component_bytes([spherical_components(w) for w in wrapped])
        assert np.stack(_wrapped(chi, theta, phi), axis=1).tolist() == [list(w) for w in wrapped]
        # wrapped angles pass through unchanged: wrapping twice is wrapping once
        again = np.stack(decompose_polarizations(*np.array(wrapped).T), axis=1)
        assert again.tobytes() == got.tobytes()

    def test_non_finite_angles_name_the_angle(self):
        good = np.zeros(3)
        for position, name in enumerate(("chi", "theta", "phi")):
            angles = [good, good, good]
            angles[position] = np.array([0.1, math.inf, math.nan])
            with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
                decompose_polarizations(*angles)

    def test_empty_and_unit_norm(self):
        assert all(e.shape == (0,) for e in decompose_polarizations([], [], []))
        eps_minus, eps_zero, eps_plus = decompose_polarizations(*np.random.default_rng(33).uniform(0.0, 7.0, (3, 1000)))
        norm_sq = np.abs(eps_minus) ** 2 + np.abs(eps_zero) ** 2 + np.abs(eps_plus) ** 2
        assert np.abs(norm_sq - 1.0).max() < 1e-12
        with pytest.raises(ValueError, match="unit norm, got .*0.5"):
            _check_unit_norm(0.5, 0.5, 0.0)
