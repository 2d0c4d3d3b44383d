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

CellGeometry's wall index default (2.1 + 0.02i), which a config cell and
the CLI presets take when they leave it out, is a borosilicate-like
stand-in, not a measured value; treat it as a knob.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .metrology import isotropic_deviation, normalized_gain
from .spectra import InputError

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
# Samples per chunk of path_averages' batched walk: it turns as many angles
# at a time into profiles as keep its (angles, samples) arrays at this size,
# and at least one.
WALK_SAMPLES = 16_384

POLARIZATIONS = ("TE", "TM")


@dataclass(frozen=True)
class CellGeometry:
    """Wall and vapor thicknesses in meters (finite, > 0), complex indices (finite, real part >= 1), else InputError."""

    wall_thickness: float
    inner_length: float
    wall_index: complex = 2.1 + 0.02j
    inner_index: complex = 1.0 + 0.0j

    def __post_init__(self):
        for name in ("wall_thickness", "inner_length"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InputError(name, f" must be finite and > 0, got {value} m")
        for name in ("wall_index", "inner_index"):
            n = complex(getattr(self, name))
            if not cmath.isfinite(n):
                raise InputError(name, f" must have finite real and imaginary parts, got {n}")
            if n.real < 1.0:
                raise InputError(name, f" must have real part >= 1, got {n}")
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


def _cmul(x, y) -> np.ndarray:
    """x * y from separate real products and sums.

    numpy's array loops may fuse a complex product's multiplies and adds,
    and then differ in the last bit from the same product of two complex
    scalars; written out this way, every entry equals the scalar product.
    A product with a real or purely imaginary factor rounds the same either
    way and stays a plain product.
    """
    out = (x.real * y.real - x.imag * y.imag).astype(complex)
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _walk(ns: list[complex], ds: list[float], k0: float, betas: list[float], polarization: str):
    """Forward/backward amplitudes per layer for a unit incident wave, one row per beta.

    ns and ds are aligned; the first and last entries are semi-infinite and
    their thickness is ignored.  Walks backward from a unit transmitted wave,
    then rescales so the incident amplitude is exactly 1.  Returns
    (kxs, amps): per layer, the normal wavevectors and the (forward,
    backward) amplitudes referenced to the layer's left edge, each an array
    over betas.  The reflection is amps[0][1], the transmission amps[-1][0].
    """
    beta_sq = np.array([beta**2 for beta in betas])
    kxs = [np.sqrt((k0 * n) ** 2 - beta_sq) for n in ns]
    qs = [_cmul(complex(_eta(n, polarization)), kx) for n, kx in zip(ns, kxs)]
    if np.any(np.abs(qs[0]) == 0):
        raise ValueError("grazing incidence: no propagating incident wave")

    count = len(ns)
    amps = [None] * count
    amps[count - 1] = (np.ones(len(betas), dtype=complex), np.zeros(len(betas), dtype=complex))
    for j in range(count - 2, -1, -1):
        a_next, b_next = amps[j + 1]
        total = a_next + b_next
        diff = _cmul(qs[j + 1] / qs[j], a_next - b_next)
        right_a = 0.5 * (total + diff)
        right_b = 0.5 * (total - diff)
        if j == 0:
            amps[j] = (right_a, right_b)
        else:
            phase = np.exp(1j * kxs[j] * ds[j])
            amps[j] = (right_a / phase, _cmul(right_b, phase))

    incident = amps[0][0]
    if np.any(np.abs(incident) == 0):
        raise ValueError("degenerate stack: vanishing incident amplitude")
    return kxs, [(a / incident, b / incident) for a, b in amps]


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


def check_frequency(frequency: float | None) -> None:
    """The one frequency rule: finite and > 0 Hz, else InputError("frequency"); None is refused too."""
    if frequency is None or not (math.isfinite(frequency) and frequency > 0):
        got = "None" if frequency is None else f"{frequency} Hz"
        raise InputError("frequency", f" must be finite and > 0, got {got}")


def check_stack(geometry: CellGeometry, frequency: float) -> None:
    """The one stack bound: check_frequency, then stack_nepers <= MAX_STACK_NEPERS, else InputError("stack")."""
    check_frequency(frequency)
    nepers = stack_nepers(geometry, frequency)
    if not nepers <= MAX_STACK_NEPERS:
        raise InputError(
            "stack",
            f": the field grows or decays by {nepers:.4g} nepers across the cell, "
            f"more than MAX_STACK_NEPERS = {MAX_STACK_NEPERS} (inf: k0 |n| outside "
            f"{_WAVENUMBER_RANGE[0]:g} .. {_WAVENUMBER_RANGE[1]:g} rad/m)"
        )


def incidences_in_domain(angles) -> np.ndarray:
    """One bool per angle (radians, flattened): 0 <= angle < pi/2, short of grazing, where the sine rounds to 1.

    It can round so only within about 1.5e-8 rad of pi/2; above 1.5 rad math.sin decides, not numpy's sine.
    """
    angles = np.asarray(angles, dtype=float).ravel()
    inside = (angles >= 0.0) & (angles < math.pi / 2)
    near = np.flatnonzero(inside & (angles > 1.5))
    inside[near] = np.fromiter(map(math.sin, angles[near].tolist()), float, near.size) < 1.0
    return inside


def check_incidences(angles) -> None:
    """The one incidence rule: incidences_in_domain throughout, else InputError("angles") naming the first miss."""
    angles = np.asarray(angles, dtype=float)
    outside = np.flatnonzero(~incidences_in_domain(angles))
    if outside.size:
        first = float(angles.flat[outside[0]])
        where = f" at index {outside[0]}" if angles.ndim else ""
        raise InputError("angles", f": incidence {first!r} rad ({math.degrees(first):.12g} deg){where} must lie "
                         "in [0, pi/2) with a sine below 1, short of grazing incidence")


def check_polarization(polarization: str) -> None:
    """The one polarization rule: one of POLARIZATIONS, else InputError("polarization")."""
    if polarization not in POLARIZATIONS:
        raise InputError("polarization", f" must be one of {POLARIZATIONS}, got {polarization!r}")


def _interior_amplitudes(
    geometry: CellGeometry, frequency: float, angles: list[float], polarization: str, samples: int, rows: int
):
    """Yield |E| relative to the incident wave on linspace(0, inner_length, samples), rows angles at a time.

    One batched walk serves every angle; each yielded (rows, samples) array
    follows the TE/TM rule of the module header, and each row depends on its
    angle alone.  With x_j = j h, j = i B + q and B about sqrt(samples), a
    row's u = a exp(i kx x) + b exp(-i kx x) is the product of the tables
    [a exp(i kx x_iB), b exp(-i kx x_iB)] and [exp(i kx x_q); exp(-i kx x_q)].
    TM appends i kx [a .., -b ..] for u'.  A lossless vapor (real index) has
    real kx, so i kx x is imaginary and each exp(-i kx x) table is the
    conjugate of its exp(i kx x) table, bit for bit: M + B exponentials per
    row.  A lossy vapor evaluates both, 2 (M + B).
    """
    k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    betas = [k0 * math.sin(angle) for angle in angles]
    ns = [1.0 + 0j, geometry.wall_index, geometry.inner_index, geometry.wall_index, 1.0 + 0j]
    ds = [0.0, geometry.wall_thickness, geometry.inner_length, geometry.wall_thickness, 0.0]
    kxs, amps = _walk(ns, ds, k0, betas, polarization)
    beta_sq = np.array([beta**2 for beta in betas])[:, None]
    n2 = abs(geometry.inner_index) ** 2
    block = math.isqrt(samples - 1) + 1
    step = geometry.inner_length / (samples - 1)
    coarse, fine = np.arange(0, samples, block) * step, np.arange(block) * step
    lossless = geometry.inner_index.imag == 0.0

    def phases(ikx, grid):
        forward = np.exp(ikx * grid)
        return forward, (forward.conj() if lossless else np.exp(-ikx * grid))

    for start in range(0, len(angles), rows):
        chunk = slice(start, start + rows)
        a, b = (amp[chunk, None] for amp in amps[2])
        ikx = 1j * kxs[2][chunk, None]
        forward, backward = phases(ikx, coarse)
        left = np.stack([a * forward, b * backward], axis=-1)
        if polarization == "TM":
            left = np.concatenate([left, ikx[..., None] * left * [1.0, -1.0]], axis=1)
        right = np.stack(phases(ikx, fine), axis=1)
        fields = np.matmul(left, right).reshape(len(a), -1, coarse.size * block)[..., :samples]
        if polarization == "TE":
            yield np.abs(fields[:, 0])
        else:
            u, du = fields[:, 0], fields[:, 1]
            yield np.sqrt(beta_sq[chunk] * np.abs(u) ** 2 + np.abs(du) ** 2) / (k0 * n2)


def transfer_matrix_field(
    geometry: CellGeometry,
    frequency: float,
    angle: float,
    polarization: str,
    samples: int | None = None,
) -> FieldProfile:
    """Field magnitude across the cell interior for one incidence.

    Parameters
    ----------
    geometry : CellGeometry
    frequency : carrier frequency in Hz, > 0.
    angle : incidence angle in radians, 0 <= angle < pi/2.
    polarization : "TE" or "TM".
    samples : number of interior sample points, 2 .. MAX_SWEEP_SAMPLES;
        by default sweep_samples(geometry, frequency).
    """
    check_stack(geometry, frequency)
    check_incidences(angle)
    check_polarization(polarization)
    if samples is None:
        samples = sweep_samples(geometry, frequency)
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if samples > MAX_SWEEP_SAMPLES:
        raise ValueError(f"samples must be <= MAX_SWEEP_SAMPLES = {MAX_SWEEP_SAMPLES}, got {samples}")
    x = np.linspace(0.0, geometry.inner_length, samples)
    amplitude = next(_interior_amplitudes(geometry, frequency, [angle], polarization, samples, 1))[0]
    return FieldProfile(x, amplitude, angle, frequency)


def _trapezoid_means(amplitude: np.ndarray, steps: np.ndarray, span: float) -> np.ndarray:
    """Trapezoidal means along the last axis, bit for bit numpy.trapezoid(amplitude, x, axis=-1) / span.

    steps is np.diff(x) and span x[-1] - x[0].  Forms numpy.trapezoid's
    d * (y[1:] + y[:-1]) / 2.0 in place in one temporary and sums it as
    numpy.trapezoid does.
    """
    terms = amplitude[..., 1:] + amplitude[..., :-1]
    terms *= steps
    terms /= 2.0
    return terms.sum(axis=-1) / span


def path_average(profile: FieldProfile) -> float:
    """Trapezoidal mean of the amplitude along the interior path."""
    x = profile.positions
    return float(_trapezoid_means(profile.amplitude, np.diff(x), x[-1] - x[0]))


def sweep_samples(geometry: CellGeometry, frequency: float) -> int:
    """Interior sample count: SAMPLES_PER_WAVELENGTH per in-vapor wavelength, at least 513.

    The one sample cap: check_frequency, then a count within MAX_SWEEP_SAMPLES,
    else InputError("frequency x inner_length").
    """
    check_frequency(frequency)
    wavelengths = geometry.inner_length * frequency * geometry.inner_index.real / SPEED_OF_LIGHT
    needed = SAMPLES_PER_WAVELENGTH * wavelengths
    if not needed + 2 <= MAX_SWEEP_SAMPLES:
        raise InputError(
            "frequency x inner_length",
            f" is too large: the vapor spans {wavelengths:.4g} wavelengths, which needs more than "
            f"MAX_SWEEP_SAMPLES = {MAX_SWEEP_SAMPLES} samples",
        )
    return max(_MIN_SWEEP_SAMPLES, int(needed) + 2)


def path_averages(
    geometry: CellGeometry,
    frequency: float,
    angles,
    polarization: str,
) -> list[float]:
    """Path-averaged field (relative to the incident wave) at each incidence angle.

    Equal to path_average(transfer_matrix_field(..., sweep_samples(...))) per
    angle, bit for bit: a row of _interior_amplitudes does not depend on its
    chunk.  One profile per distinct angle (dict.fromkeys), all on the
    sweep_samples grid by one batched walk, WALK_SAMPLES samples at a time;
    no FieldProfile is built.  Angles that should share a profile must be
    equal floats, as patterns.incidence_angles makes mirror angles.
    """
    samples = sweep_samples(geometry, frequency)
    check_stack(geometry, frequency)
    angles = np.asarray(angles, dtype=float)
    check_incidences(angles)
    check_polarization(polarization)
    x = np.linspace(0.0, geometry.inner_length, samples)
    steps, span = np.diff(x), x[-1] - x[0]
    angle_list = angles.tolist()
    distinct = list(dict.fromkeys(angle_list))
    averages = []
    for amplitude in _interior_amplitudes(
        geometry, frequency, distinct, polarization, samples, max(1, WALK_SAMPLES // samples)
    ):
        averages += _trapezoid_means(amplitude, steps, span).tolist()
    by_angle = dict(zip(distinct, averages))
    return [by_angle[a] for a in angle_list]


def angle_sweep_deviation(
    geometry: CellGeometry,
    frequency: float,
    angles,
    polarization: str,
) -> float:
    """Spread (max - min, dB) of the path-averaged field over incidence angles.

    The path averages are normalized to 0 dB at the largest one and spread
    exactly as a gain pattern (metrology.normalized_gain, isotropic_deviation).
    """
    return isotropic_deviation(normalized_gain(angles, path_averages(geometry, frequency, angles, polarization)))
