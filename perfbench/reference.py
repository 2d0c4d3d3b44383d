"""References the benchmark checks the program against.

Nothing here imports rydant.  Each reference is built from the physics the
program's documentation states, by a method of its own:

* dressed levels: Clebsch-Gordan coefficients from sympy, per-m 2x2 blocks
  for linear polarization and a dense Wigner-Eckart matrix for any
  polarization;
* vapor-cell factors: fixed-step RK4 integration of the 1-D wave equation
  through the five-layer stack, averaged along the vapor with Simpson's rule;
* ladder spectra: a row-major Liouvillian whose steady state is found by a
  rank-one trace deflation, and Doppler averages as a direct convolution of
  the stationary absorption with the Gaussian velocity distribution.

All frequencies are angular (rad/s) unless a name says otherwise.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MHZ = 2.0 * math.pi * 1e6
SPEED_OF_LIGHT = 299_792_458.0

# The coupling scale is fixed by the paper's result for J = 1/2 -> 3/2: the
# outermost dressed levels of that system are sqrt(detuning^2 + rabi^2) apart.
_PAPER_SYSTEM = (1, 3)

# RK4 steps per radian of optical phase: global error ~3e-9 on a cell factor.
RK4_STEPS_PER_RAD = 100.0

# Velocity grid of the Doppler convolution; 0.02 MHz converges to ~1e-12.
DOPPLER_GRID_MHZ = 0.02
DOPPLER_CUTOFF_SIGMAS = 9.0


@lru_cache(maxsize=None)
def clebsch_gordan(two_j1: int, two_m1: int, two_j2: int, two_m2: int, two_j: int, two_m: int) -> float:
    """<j1 m1; j2 m2 | j m> from sympy, arguments doubled."""
    from sympy import Rational
    from sympy.physics.quantum.cg import CG

    half = lambda v: Rational(v, 2)  # noqa: E731
    value = CG(half(two_j1), half(two_m1), half(two_j2), half(two_m2), half(two_j), half(two_m)).doit()
    return float(value)


def _pi_coefficients(two_jg: int, two_je: int) -> list[float]:
    return [
        clebsch_gordan(two_jg, tm, 2, 0, two_je, tm)
        for tm in range(-min(two_jg, two_je), min(two_jg, two_je) + 1, 2)
    ]


def _coupling_scale(rabi: float) -> float:
    return rabi / (2.0 * max(abs(c) for c in _pi_coefficients(*_PAPER_SYSTEM)))


def dressed_splitting(two_jg: int, two_je: int, rabi: float, detuning: float) -> float:
    """Outermost dressed-level gap for linear polarization.

    Along the field axis the Hamiltonian splits into 2x2 blocks
    [[0, c_m], [c_m, -detuning]], one per m; each has the gap
    sqrt(detuning^2 + 4 c_m^2) around -detuning/2, so the outermost
    levels belong to the largest |c_m|.
    """
    c_max = _coupling_scale(rabi) * max(abs(c) for c in _pi_coefficients(two_jg, two_je))
    return math.sqrt(detuning * detuning + 4.0 * c_max * c_max)


def dressed_levels(two_jg, two_je, rabi, detuning, chi, theta, phi) -> np.ndarray:
    """All dressed levels, ascending, for the field
    eps = cos(chi) z + sin(chi) exp(i phi) (cos(theta) x + sin(theta) y)."""
    eps = np.array(
        [
            math.sin(chi) * math.cos(theta) * complex(math.cos(phi), math.sin(phi)),
            math.sin(chi) * math.sin(theta) * complex(math.cos(phi), math.sin(phi)),
            math.cos(chi),
        ]
    )
    spherical = {
        +1: -(eps[0] + 1j * eps[1]) / math.sqrt(2.0),
        0: eps[2],
        -1: (eps[0] - 1j * eps[1]) / math.sqrt(2.0),
    }
    scale = _coupling_scale(rabi)
    mg = range(-two_jg, two_jg + 1, 2)
    me = range(-two_je, two_je + 1, 2)
    block = np.zeros((len(me), len(mg)), dtype=complex)
    for row, tme in enumerate(me):
        for col, tmg in enumerate(mg):
            q2 = tme - tmg
            if abs(q2) <= 2:
                q = q2 // 2
                block[row, col] = scale * (-1) ** q * spherical[-q] * clebsch_gordan(two_jg, tmg, 2, q2, two_je, tme)
    ng = len(mg)
    h = np.zeros((ng + len(me), ng + len(me)), dtype=complex)
    h[ng:, :ng] = block
    h[:ng, ng:] = block.conj().T
    h[ng:, ng:] = -detuning * np.eye(len(me))
    return np.linalg.eigvalsh(h)


def cell_factors(
    wall_thickness: float,
    inner_length: float,
    wall_index: complex,
    frequency: float,
    angles,
    polarization: str = "TE",
    inner_index: complex = 1.0 + 0.0j,
) -> np.ndarray:
    """Mean |E| along the vapor, relative to the incident wave, per angle.

    Integrates u'' = (beta^2 - k0^2 n^2) u backward from a unit transmitted
    wave, carrying eta * u' across interfaces (eta = 1 for TE, 1/n^2 for TM),
    and rescales so the incident amplitude is 1.  |E| is |u| for TE and
    sqrt(beta^2 |u|^2 + |u'|^2) / (k0 |n|^2) for TM.
    """
    angles = np.asarray(angles, dtype=float)
    k0 = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    beta = k0 * np.sin(angles)
    layers = [(wall_index, wall_thickness), (inner_index, inner_length), (wall_index, wall_thickness)]

    def eta(n):
        return 1.0 if polarization == "TE" else 1.0 / (n * n)

    def kx(n):
        return np.sqrt((k0 * n) ** 2 - beta**2 + 0j)

    u = np.ones_like(beta, dtype=complex)
    v = 1j * kx(1.0)
    eta_prev = eta(1.0)
    vapor_u = vapor_v = None
    vapor_h = 0.0
    for index, (n, d) in reversed(list(enumerate(layers))):
        v = v * eta_prev / eta(n)
        w = beta**2 - (k0 * n) ** 2
        steps = 2 * math.ceil(0.5 * abs(k0 * n) * d * RK4_STEPS_PER_RAD)
        h = -d / steps
        track = index == 1
        if track:
            vapor_u, vapor_v = [u], [v]
        for _ in range(steps):
            k1u, k1v = v, w * u
            k2u, k2v = v + 0.5 * h * k1v, w * (u + 0.5 * h * k1u)
            k3u, k3v = v + 0.5 * h * k2v, w * (u + 0.5 * h * k2u)
            k4u, k4v = v + h * k3v, w * (u + h * k3u)
            u, v = u + h * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0, v + h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
            if track:
                vapor_u.append(u)
                vapor_v.append(v)
        if track:
            vapor_h = -h
        eta_prev = eta(n)
    v = v * eta_prev / eta(1.0)
    incident = 0.5 * (u + v / (1j * kx(1.0)))

    us = np.array(vapor_u) / incident
    vs = np.array(vapor_v) / incident
    if polarization == "TE":
        amp = np.abs(us)
    else:
        amp = np.sqrt(beta**2 * np.abs(us) ** 2 + np.abs(vs) ** 2) / (k0 * abs(inner_index) ** 2)
    weights = np.ones(amp.shape[0])
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (weights @ amp) * vapor_h / 3.0 / inner_length


def _ladder_liouvillians(cfg: dict, deltas: np.ndarray) -> np.ndarray:
    """Row-major Liouvillians, one per scanned coupling detuning."""
    dim = 4
    eye = np.eye(dim)
    count = deltas.size
    h = np.zeros((count, dim, dim), dtype=complex)
    h[:, 1, 1] = -cfg["delta_p"]
    h[:, 2, 2] = -(cfg["delta_p"] + deltas)
    h[:, 3, 3] = -(cfg["delta_p"] + deltas + cfg["delta_rf"])
    for (a, b), rabi in (((0, 1), cfg["omega_p"]), ((1, 2), cfg["omega_c"]), ((2, 3), cfg["omega_rf"])):
        h[:, a, b] = h[:, b, a] = rabi / 2.0
    # vec(A rho B) = kron(A, B^T) vec(rho) for row-major vec.
    lv = -1j * (np.einsum("nij,kl->nikjl", h, eye) - np.einsum("ij,nlk->nikjl", eye, h)).reshape(count, 16, 16)
    for rate, (low, high) in ((cfg["gamma_e"], (0, 1)), (cfg["gamma_r"], (1, 2)), (cfg["gamma_r"], (2, 3))):
        c = np.zeros((dim, dim))
        c[low, high] = math.sqrt(rate)
        cdc = c.T @ c
        lv += np.kron(c, c) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T)
    return lv


def stationary_absorption(cfg: dict, deltas) -> np.ndarray:
    """Im(rho_ge) of the steady state at each scanned coupling detuning.

    The steady state solves (L + w tr^T) x = w with w = vec(I)/4: tr(L x) = 0
    for every x, so this system is regular exactly when the steady state is
    unique, and its solution has unit trace.
    """
    deltas = np.asarray(deltas, dtype=float)
    lv = _ladder_liouvillians(cfg, deltas)
    w = np.eye(4).reshape(16) / 4.0
    tr = np.eye(4).reshape(16)
    m = lv + w[None, :, None] * tr[None, None, :]
    x = np.linalg.solve(m, np.broadcast_to(w, (deltas.size, 16))[..., None])[..., 0]
    return x[:, 1].imag  # row-major index of rho[0, 1]


def doppler_absorption(cfg: dict, low: float, high: float, points: int) -> np.ndarray:
    """Stationary absorption convolved with the Gaussian velocity profile.

    The fine grid divides the scan step, so every shifted detuning lands on
    it; the Riemann sum over a smooth, rapidly decaying integrand converges
    geometrically in the grid step.
    """
    sigma = cfg["doppler_sigma"]
    step = (high - low) / (points - 1)
    per_step = math.ceil(step / (DOPPLER_GRID_MHZ * MHZ))
    h = step / per_step
    reach = math.ceil(DOPPLER_CUTOFF_SIGMAS * sigma / h)
    grid = low + h * np.arange(-reach, (points - 1) * per_step + reach + 1)
    absorption = stationary_absorption(cfg, grid)
    v = h * np.arange(-reach, reach + 1)
    kernel = np.exp(-0.5 * (v / sigma) ** 2) * h / (math.sqrt(2.0 * math.pi) * sigma)
    full = np.convolve(absorption, kernel[::-1], mode="valid")
    return full[:: per_step][:points]


def transmission(absorption) -> np.ndarray:
    """The exported trace: -absorption mapped affinely onto [0, 1]."""
    t = -np.asarray(absorption, dtype=float)
    return (t - t.min()) / (t.max() - t.min())


def scan_transmission(cfg: dict, low: float, high: float, points: int) -> np.ndarray:
    if cfg["doppler_sigma"] > 0.0:
        return transmission(doppler_absorption(cfg, low, high, points))
    return transmission(stationary_absorption(cfg, np.linspace(low, high, points)))


def scan_window(omega_rf: float, delta_rf: float, gamma_e: float) -> tuple[float, float]:
    """Scan window the program centres on the expected peaks: -delta/2 +/- (0.75 S + 3 gamma_e)."""
    expected = math.hypot(delta_rf, omega_rf)
    half = 0.75 * expected + 3.0 * gamma_e
    return -delta_rf / 2.0 - half, -delta_rf / 2.0 + half
