"""Angular-momentum bookkeeping and polarization decomposition.

Quantum numbers are stored as doubled integers (``two_j``, ``two_m``) so
half-integer momenta stay exact.  Clebsch-Gordan coefficients follow the
Condon-Shortley phase convention and are evaluated with Racah's algebraic
sum over exact integer factorials, which is ample for the small momenta
(up to j = 9/2) this package targets.

A unit polarization vector with inclination ``chi`` from the quantization
(Z) axis, azimuth ``theta`` of its transverse part, and relative phase
``phi`` between the Z and transverse parts,

    eps = cos(chi) * z + sin(chi) * exp(i*phi) * (cos(theta) * x + sin(theta) * y),

resolves in the spherical basis as::

    eps_zero  = cos(chi)
    eps_plus  = -sin(chi) * exp(+i*(theta + phi)) / sqrt(2)
    eps_minus = +sin(chi) * exp(-i*(theta - phi)) / sqrt(2)

decompose_polarizations refuses non-finite angles, folds chi into [0, pi]
by (chi, theta) -> (2*pi - chi, theta + pi), which leaves the vector
unchanged, wraps theta and phi into [0, 2*pi), and resolves whole arrays of
angles at once; wrapped angles pass through it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# |eps_minus|^2 + |eps_zero|^2 + |eps_plus|^2 must equal 1 to this tolerance.
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class AngularMomentum:
    """Total angular momentum j, stored as the doubled integer two_j >= 0."""

    two_j: int

    def __post_init__(self):
        if isinstance(self.two_j, bool) or not isinstance(self.two_j, int):
            raise TypeError(f"two_j must be an int, got {self.two_j!r}")
        if self.two_j < 0:
            raise ValueError(f"two_j must be >= 0, got {self.two_j}")

    @classmethod
    def from_j(cls, j: float) -> "AngularMomentum":
        two_j = round(2 * j)
        if abs(2 * j - two_j) > 1e-9:
            raise ValueError(f"j must be integer or half-integer, got {j}")
        return cls(two_j)

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def sublevel_count(self) -> int:
        return self.two_j + 1

    def two_m_values(self) -> list[int]:
        """Doubled magnetic quantum numbers, ascending (-two_j .. +two_j)."""
        return list(range(-self.two_j, self.two_j + 1, 2))


def _wrapped(chi, theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angle rule over arrays: refuse non-finite angles, fold chi, wrap."""
    arrays = [np.asarray(v, dtype=float) for v in (chi, theta, phi)]
    for name, v in zip(("chi", "theta", "phi"), arrays):
        finite = np.isfinite(v)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got {v[~finite][0]}")
    chi, theta, phi = arrays
    chi = chi % TWO_PI
    fold = chi > math.pi
    return np.where(fold, TWO_PI - chi, chi), np.where(fold, theta + math.pi, theta) % TWO_PI, phi % TWO_PI


def _check_unit_norm(eps_minus, eps_zero, eps_plus) -> None:
    norm_sq = np.atleast_1d(np.abs(eps_minus) ** 2 + np.abs(eps_zero) ** 2 + np.abs(eps_plus) ** 2)
    bad = np.abs(norm_sq - 1.0) > UNIT_NORM_TOL
    if bad.any():
        raise ValueError(
            f"polarization components must have unit norm, got |eps|^2 = {float(norm_sq[bad][0])!r}"
        )


def decompose_polarizations(chi, theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spherical components (eps_minus, eps_zero, eps_plus) of many orientations.

    chi, theta and phi are equal-length arrays of angles in radians, refused,
    folded and wrapped as the module docstring states.
    """
    chi, theta, phi = _wrapped(chi, theta, phi)
    s = np.sin(chi)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    eps = (
        +s * inv_sqrt2 * np.exp(1j * (phi - theta)),
        np.cos(chi).astype(complex),
        -s * inv_sqrt2 * np.exp(1j * (phi + theta)),
    )
    _check_unit_norm(*eps)
    return eps


def _half(two_x: int) -> int:
    # Guard: every factorial argument in Racah's sum must be integral.
    if two_x % 2:
        raise ValueError(f"internal parity error: {two_x} is not even")
    return two_x // 2


@lru_cache(maxsize=None)
def _cg_doubled(tj1: int, tm1: int, tj2: int, tm2: int, tj3: int, tm3: int) -> float:
    # Selection rules: violating any of them gives a vanishing coefficient.
    if tm1 + tm2 != tm3:
        return 0.0
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj - tm) % 2:
            return 0.0
    if not abs(tj1 - tj2) <= tj3 <= tj1 + tj2 or (tj1 + tj2 + tj3) % 2:
        return 0.0

    f = math.factorial
    # Squared prefactor: (2j3+1) * triangle(j1 j2 j3) * product of m-factorials.
    pref = Fraction(
        (tj3 + 1)
        * f(_half(tj1 + tj2 - tj3))
        * f(_half(tj1 - tj2 + tj3))
        * f(_half(-tj1 + tj2 + tj3)),
        f(_half(tj1 + tj2 + tj3) + 1),
    )
    pref *= (
        f(_half(tj1 + tm1))
        * f(_half(tj1 - tm1))
        * f(_half(tj2 + tm2))
        * f(_half(tj2 - tm2))
        * f(_half(tj3 + tm3))
        * f(_half(tj3 - tm3))
    )

    k_min = max(0, _half(tj2 - tj3 - tm1), _half(tj1 + tm2 - tj3))
    k_max = min(_half(tj1 + tj2 - tj3), _half(tj1 - tm1), _half(tj2 + tm2))
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (
            f(k)
            * f(_half(tj1 + tj2 - tj3) - k)
            * f(_half(tj1 - tm1) - k)
            * f(_half(tj2 + tm2) - k)
            * f(_half(tj3 - tj2 + tm1) + k)
            * f(_half(tj3 - tj1 - tm2) + k)
        )
        total += Fraction(-1 if k % 2 else 1, denom)

    if total == 0:
        return 0.0
    magnitude = math.sqrt(float(pref * total * total))
    return magnitude if total > 0 else -magnitude


def clebsch_gordan(
    j1: AngularMomentum,
    m1: float,
    j2: AngularMomentum,
    m2: float,
    j3: AngularMomentum,
    m3: float,
) -> float:
    """Coefficient <j1 m1; j2 m2 | j3 m3> in the Condon-Shortley convention.

    Magnetic quantum numbers are ordinary (half-)integers.  Combinations that
    violate a selection rule, including malformed m values, return 0.
    """
    two_ms = []
    for m in (m1, m2, m3):
        two_m = round(2 * m)
        if abs(2 * m - two_m) > 1e-9:
            return 0.0
        two_ms.append(two_m)
    return _cg_doubled(j1.two_j, two_ms[0], j2.two_j, two_ms[1], j3.two_j, two_ms[2])
