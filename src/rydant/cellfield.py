"""Standing-wave field structure inside a dielectric vapor cell, in 1-D.

The cell is modeled as a five-layer stack along the propagation axis:
vacuum | wall | vapor | wall | vacuum.  A monochromatic plane wave hits the
stack at an incidence angle in [0, pi/2); the transverse wavevector
beta = k0*sin(angle) is conserved and each layer carries forward/backward
waves with normal wavevector kx = sqrt(k0^2 n^2 - beta^2) (principal
branch).  Interfaces match the scalar field u and eta * du/dx, where
eta = 1 for TE (u is the transverse E field) and eta = 1/n^2 for TM
(u is the transverse H field).

Reported amplitudes are |E| relative to the incident wave: for TE that is
|u| directly; for TM it is sqrt(beta^2 |u|^2 + |u'|^2) / (k0 |n|^2), which
makes TE and TM agree exactly at normal incidence.

The wall index default used elsewhere in the package (2.1 + 0.02i) is a
borosilicate-like stand-in, not a measured value; treat it as a knob.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrology import GainSample, isotropic_deviation, normalized_gain

SPEED_OF_LIGHT = 299_792_458.0

# Trapezoid averaging wants at least this many samples per in-vapor wavelength.
SAMPLES_PER_WAVELENGTH = 32
_MIN_SWEEP_SAMPLES = 513
# Most samples in one profile: 3125 in-vapor wavelengths, which a 20 mm
# cell reaches near 47 THz.  A profile holds a few arrays of this length.
MAX_SWEEP_SAMPLES = 100_000
# Most growth or decay of the field across walls and vapor, in nepers
# (e^100, about 870 dB).  It keeps every amplitude of the transfer-matrix
# walk far inside the float range; a real cell stays below 1.
MAX_STACK_NEPERS = 100.0
# Range of k0, k0 |n| (rad/m) and |n| in any layer: their squares stay
# normal floats, so no wave vanishes or overflows in the walk.
_WAVENUMBER_RANGE = (1e-150, 1e150)

POLARIZATIONS = ("TE", "TM")


@dataclass(frozen=True)
class CellGeometry:
    """Wall/interior thicknesses in meters and complex refractive indices."""

    wall_thickness: float
    inner_length: float
    wall_index: complex = 2.1 + 0.02j
    inner_index: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (math.isfinite(self.wall_thickness) and self.wall_thickness > 0):
            raise ValueError(f"wall_thickness must be > 0, got {self.wall_thickness}")
        if not (math.isfinite(self.inner_length) and self.inner_length > 0):
            raise ValueError(f"inner_length must be > 0, got {self.inner_length}")
        for name in ("wall_index", "inner_index"):
            n = complex(getattr(self, name))
            if n.real < 1.0:
                raise ValueError(f"{name} must have real part >= 1, got {n}")
            object.__setattr__(self, name, n)


@dataclass(frozen=True)
class FieldProfile:
    """|E| (relative to the incident amplitude) across the cell interior."""

    positions: np.ndarray
    amplitude: np.ndarray
    incidence_angle: float
    frequency: float

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        amp = np.array(self.amplitude, dtype=float)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("positions must be a 1-D array with >= 2 samples")
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if amp.shape != pos.shape:
            raise ValueError("amplitude and positions must have equal length")
        if np.any(amp < 0):
            raise ValueError("amplitudes must be >= 0")
        pos.flags.writeable = False
        amp.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "amplitude", amp)


def _eta(n: complex, polarization: str) -> complex:
    return 1.0 if polarization == "TE" else 1.0 / (n * n)


def _kx(n: complex, k0: float, beta: float) -> complex:
    return np.sqrt(complex((k0 * n) ** 2 - beta**2))


def _stack_amplitudes(
    ns: list[complex],
    ds: list[float],
    k0: float,
    beta: float,
    polarization: str,
):
    """Forward/backward amplitudes per layer for a unit incident wave.

    ns and ds are aligned; the first and last entries are semi-infinite and
    their thickness is ignored.  Amplitudes are referenced to each layer's
    left edge.  Returns (amplitudes, r, t).
    """
    count = len(ns)
    kxs = [_kx(n, k0, beta) for n in ns]
    qs = [_eta(n, polarization) * kx for n, kx in zip(ns, kxs)]
    if abs(qs[0]) == 0:
        raise ValueError("grazing incidence: no propagating incident wave")

    # Walk backward from a unit transmitted wave, then rescale so the
    # incident amplitude is exactly 1.
    amps = [None] * count
    amps[count - 1] = (1.0 + 0.0j, 0.0 + 0.0j)
    for j in range(count - 2, -1, -1):
        a_next, b_next = amps[j + 1]
        total = a_next + b_next
        diff = (qs[j + 1] / qs[j]) * (a_next - b_next)
        right_a = 0.5 * (total + diff)
        right_b = 0.5 * (total - diff)
        if j == 0:
            amps[j] = (right_a, right_b)
        else:
            phase = np.exp(1j * kxs[j] * ds[j])
            amps[j] = (right_a / phase, right_b * phase)

    incident = amps[0][0]
    if abs(incident) == 0:
        raise ValueError("degenerate stack: vanishing incident amplitude")
    scaled = [(a / incident, b / incident) for a, b in amps]
    r = scaled[0][1]
    t = scaled[-1][0]
    return scaled, r, t


def stack_nepers(geometry: CellGeometry, frequency: float) -> float:
    """Largest growth or decay of the field across the walls and vapor, in nepers.

    The sum of |Im kx| * thickness over both walls and the vapor.  |Im kx|
    grows with the incidence angle, so its grazing value (beta = k0) bounds
    every incidence.  Infinite when k0, k0 |n| or |n| of a layer leaves
    1e-150 .. 1e150.
    """
    low, high = _WAVENUMBER_RANGE
    k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    total = 0.0
    for n, thickness in (
        (geometry.wall_index, 2.0 * geometry.wall_thickness),
        (geometry.inner_index, geometry.inner_length),
    ):
        if not (low <= k0 and abs(n) <= high and k0 * abs(n) <= high):
            return math.inf
        total += abs(cmath.sqrt(n * n - 1.0).imag) * k0 * thickness
    return total


def check_stack(geometry: CellGeometry, frequency: float) -> None:
    """Raise ValueError unless the stack can be solved at this frequency (Hz).

    Refuses a frequency that is not finite and > 0, and a stack whose
    stack_nepers passes MAX_STACK_NEPERS.
    """
    if not (math.isfinite(frequency) and frequency > 0):
        raise ValueError(f"frequency must be > 0, got {frequency}")
    nepers = stack_nepers(geometry, frequency)
    if not nepers <= MAX_STACK_NEPERS:
        raise ValueError(
            f"the field grows or decays by {nepers:.4g} nepers across the cell, "
            f"more than MAX_STACK_NEPERS = {MAX_STACK_NEPERS} (inf: k0 |n| outside "
            f"{_WAVENUMBER_RANGE[0]:g} .. {_WAVENUMBER_RANGE[1]:g} rad/m)"
        )


def _check_incidence(angle: float, polarization: str) -> None:
    if not (0.0 <= angle < math.pi / 2):
        raise ValueError(f"angle must lie in [0, pi/2), got {angle}")
    if polarization not in POLARIZATIONS:
        raise ValueError(f"polarization must be one of {POLARIZATIONS}, got {polarization!r}")


def _interior_amplitude(
    geometry: CellGeometry, frequency: float, angle: float, polarization: str, x: np.ndarray
) -> np.ndarray:
    """|E| relative to the incident wave at interior positions x (TE or TM rule above)."""
    k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    beta = k0 * math.sin(angle)
    ns = [1.0 + 0j, geometry.wall_index, geometry.inner_index, geometry.wall_index, 1.0 + 0j]
    ds = [0.0, geometry.wall_thickness, geometry.inner_length, geometry.wall_thickness, 0.0]
    amps, _, _ = _stack_amplitudes(ns, ds, k0, beta, polarization)

    a, b = amps[2]
    kx = _kx(geometry.inner_index, k0, beta)
    forward = a * np.exp(1j * kx * x)
    backward = b * np.exp(-1j * kx * x)
    u = forward + backward
    if polarization == "TE":
        return np.abs(u)
    du = 1j * kx * (forward - backward)
    n2 = abs(geometry.inner_index) ** 2
    return np.sqrt(beta**2 * np.abs(u) ** 2 + np.abs(du) ** 2) / (k0 * n2)


def transfer_matrix_field(
    geometry: CellGeometry,
    frequency: float,
    angle: float,
    polarization: str = "TE",
    samples: int = _MIN_SWEEP_SAMPLES,
) -> FieldProfile:
    """Field magnitude across the cell interior for one incidence.

    Parameters
    ----------
    geometry : CellGeometry
    frequency : carrier frequency in Hz, > 0.
    angle : incidence angle in radians, 0 <= angle < pi/2.
    polarization : "TE" or "TM".
    samples : number of interior sample points, >= 2.
    """
    check_stack(geometry, frequency)
    _check_incidence(angle, polarization)
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    x = np.linspace(0.0, geometry.inner_length, samples)
    return FieldProfile(x, _interior_amplitude(geometry, frequency, angle, polarization, x), angle, frequency)


def path_average(profile: FieldProfile) -> float:
    """Trapezoidal mean of the amplitude along the interior path."""
    span = profile.positions[-1] - profile.positions[0]
    return float(np.trapezoid(profile.amplitude, profile.positions) / span)


def sweep_samples(geometry: CellGeometry, frequency: float) -> int:
    """Interior sample count: SAMPLES_PER_WAVELENGTH per in-vapor wavelength, at least 513.

    Raises ValueError when the count would exceed MAX_SWEEP_SAMPLES.
    """
    wavelengths = geometry.inner_length * frequency * geometry.inner_index.real / SPEED_OF_LIGHT
    needed = SAMPLES_PER_WAVELENGTH * wavelengths
    if not needed + 2 <= MAX_SWEEP_SAMPLES:
        raise ValueError(
            f"the vapor spans {wavelengths:.4g} wavelengths, which needs more than "
            f"MAX_SWEEP_SAMPLES = {MAX_SWEEP_SAMPLES} samples"
        )
    return max(_MIN_SWEEP_SAMPLES, int(needed) + 2)


def path_averages(
    geometry: CellGeometry,
    frequency: float,
    angles,
    polarization: str = "TE",
) -> list[float]:
    """Path-averaged field (relative to the incident wave) at each incidence angle.

    Equal to path_average(transfer_matrix_field(..., sweep_samples(...))) per
    angle, bit for bit.  One profile is computed per distinct angle, all on
    one shared sample grid, and no FieldProfile is built.
    """
    samples = sweep_samples(geometry, frequency)
    check_stack(geometry, frequency)
    x = np.linspace(0.0, geometry.inner_length, samples)
    span = x[-1] - x[0]
    angle_list = [float(a) for a in angles]
    by_angle = {}
    for a in dict.fromkeys(angle_list):
        _check_incidence(a, polarization)
        amplitude = _interior_amplitude(geometry, frequency, a, polarization, x)
        by_angle[a] = float(np.trapezoid(amplitude, x) / span)
    return [by_angle[a] for a in angle_list]


def angle_sweep_deviation(
    geometry: CellGeometry,
    frequency: float,
    angles,
    polarization: str = "TE",
) -> float:
    """Spread (max - min, dB) of the path-averaged field over incidence angles.

    The path averages are normalized to 0 dB at the largest one and spread
    exactly as a gain pattern (metrology.normalized_gain, isotropic_deviation).
    """
    angle_list = [float(a) for a in angles]
    if not angle_list:
        raise ValueError("angles must be non-empty")
    averages = path_averages(geometry, frequency, angle_list, polarization)
    return isotropic_deviation(normalized_gain(zip(angle_list, averages)))


def profile_csv(profile: FieldProfile) -> str:
    """Profile rows: position_m, amplitude_rel."""
    lines = ["position_m,amplitude_rel"]
    for x, a in zip(profile.positions, profile.amplitude):
        lines.append(f"{x:.9g},{a:.9g}")
    return "\n".join(lines) + "\n"


def sweep_csv(samples: Sequence[GainSample]) -> str:
    """Angle sweep rows: angle_deg, path_avg_rel, gain_db (0 dB at the max).

    samples are metrology.normalized_gain output over (angle, path average).
    """
    lines = ["angle_deg,path_avg_rel,gain_db"]
    for s in samples:
        lines.append(f"{math.degrees(s.angle):.9g},{s.raw_ratio:.9g},{s.gain_db:.9g}")
    return "\n".join(lines) + "\n"
