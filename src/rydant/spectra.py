"""Four-level ladder readout: steady-state probe spectra and peak splitting.

Model
-----
Levels, in basis order: g (ground), e (intermediate), r1 (first Rydberg
level), r2 (RF-coupled Rydberg level).  In the rotating-wave approximation
with probe detuning delta_p, scanned coupling detuning delta_c, and RF
detuning delta_rf, the Hamiltonian is (rad/s)

    H = diag(0, -delta_p, -(delta_p + delta_c), -(delta_p + delta_c + delta_rf))
        + omega_p/2 (|g><e| + h.c.)
        + omega_c/2 (|e><r1| + h.c.)
        + omega_rf/2 (|r1><r2| + h.c.)

Dissipation is Lindblad decay e -> g at gamma_e plus Rydberg relaxation at
gamma_r applied as r1 -> e and r2 -> r1.  The r2 decay channel keeps the
steady state unique when the RF drive is off; a pure-dephasing channel
could not do that (it conserves populations).

The probe absorption is Im(rho_ge) (positive at resonance); the exported
transmission proxy is -Im(rho_ge) offset and scaled to span [0, 1].

Defaults gamma_e = 2*pi*5.2e6 rad/s and gamma_r = 2*pi*0.1e6 rad/s are
plausible vapor-cell numbers, not measured values; override per setup.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import find_peaks

GAMMA_E_DEFAULT = 2.0 * math.pi * 5.2e6
GAMMA_R_DEFAULT = 2.0 * math.pi * 0.1e6

# Probe is treated perturbatively; warn beyond this omega_p / gamma_e ratio.
WEAK_PROBE_RATIO = 0.1

# Relative residual above which a steady-state solve is rejected.
RESIDUAL_TOL = 1e-8

# Peak prominence threshold as a fraction of the full transmission scale.
PROMINENCE_DEFAULT = 0.05

_DIM = 4
_TRACE_IDX = np.arange(_DIM) * (_DIM + 1)
_IDENTITY = np.eye(_DIM)


class SteadyStateError(RuntimeError):
    """The Liouvillian has no unique steady state (or the solve failed)."""


class UnresolvedSplittingError(ValueError):
    """Fewer than two sufficiently prominent peaks in a trace."""


@dataclass(frozen=True)
class LadderConfig:
    """Ladder drive and decay parameters, all angular frequencies in rad/s.

    doppler_sigma > 0 enables Gaussian averaging of the scanned detuning
    (quadrature over velocity classes); zero keeps the single stationary
    class and is exactly the one-node quadrature path.
    """

    omega_p: float
    omega_c: float
    omega_rf: float
    delta_p: float = 0.0
    delta_rf: float = 0.0
    gamma_e: float = GAMMA_E_DEFAULT
    gamma_r: float = GAMMA_R_DEFAULT
    doppler_sigma: float = 0.0

    def __post_init__(self):
        for name in ("omega_p", "omega_c", "omega_rf", "gamma_e", "gamma_r", "doppler_sigma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("delta_p", "delta_rf"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma_e > 0 and self.omega_p > WEAK_PROBE_RATIO * self.gamma_e:
            warnings.warn(
                f"probe Rabi frequency {self.omega_p:.3e} exceeds "
                f"{WEAK_PROBE_RATIO} * gamma_e = {WEAK_PROBE_RATIO * self.gamma_e:.3e}; "
                "the weak-probe reading of the spectrum degrades",
                stacklevel=3,
            )


@dataclass(frozen=True)
class SpectrumTrace:
    """A scanned transmission trace with extracted peak positions."""

    detunings: np.ndarray
    transmission: np.ndarray
    peaks: np.ndarray

    def __post_init__(self):
        det = np.array(self.detunings, dtype=float)
        trans = np.array(self.transmission, dtype=float)
        pk = np.array(self.peaks, dtype=float)
        if det.ndim != 1 or det.size < 2:
            raise ValueError("detunings must be a 1-D array with >= 2 points")
        if np.any(np.diff(det) <= 0):
            raise ValueError("detunings must be strictly increasing")
        if trans.shape != det.shape:
            raise ValueError("transmission and detunings must have equal length")
        if trans.size and (trans.min() < -1e-9 or trans.max() > 1.0 + 1e-9):
            raise ValueError("transmission must lie within [0, 1]")
        for arr in (det, trans, pk):
            arr.flags.writeable = False
        object.__setattr__(self, "detunings", det)
        object.__setattr__(self, "transmission", trans)
        object.__setattr__(self, "peaks", pk)


def _hamiltonian(cfg: LadderConfig, delta_c: float) -> np.ndarray:
    h = np.zeros((_DIM, _DIM), dtype=complex)
    h[1, 1] = -cfg.delta_p
    h[2, 2] = -(cfg.delta_p + delta_c)
    h[3, 3] = -(cfg.delta_p + delta_c + cfg.delta_rf)
    h[0, 1] = h[1, 0] = cfg.omega_p / 2.0
    h[1, 2] = h[2, 1] = cfg.omega_c / 2.0
    h[2, 3] = h[3, 2] = cfg.omega_rf / 2.0
    return h


def _collapse_ops(cfg: LadderConfig) -> list[np.ndarray]:
    ops = []
    for rate, (low, high) in (
        (cfg.gamma_e, (0, 1)),
        (cfg.gamma_r, (1, 2)),
        (cfg.gamma_r, (2, 3)),
    ):
        if rate > 0:
            c = np.zeros((_DIM, _DIM), dtype=complex)
            c[low, high] = math.sqrt(rate)
            ops.append(c)
    return ops


def _liouvillian(h: np.ndarray, c_ops: Sequence[np.ndarray]) -> np.ndarray:
    # Column-stacking convention: x = rho.reshape(-1, order="F").
    lv = -1j * (np.kron(_IDENTITY, h) - np.kron(h.T, _IDENTITY))
    for c in c_ops:
        cdc = c.conj().T @ c
        lv += (
            np.kron(c.conj(), c)
            - 0.5 * np.kron(_IDENTITY, cdc)
            - 0.5 * np.kron(cdc.T, _IDENTITY)
        )
    return lv


def _scan_slope() -> np.ndarray:
    # d(Liouvillian)/d(delta_c): the scan enters H only on the r1/r2 diagonal.
    slope = np.zeros((_DIM, _DIM), dtype=complex)
    slope[2, 2] = -1.0
    slope[3, 3] = -1.0
    return -1j * (np.kron(_IDENTITY, slope) - np.kron(slope.T, _IDENTITY))


def _solve(lv: np.ndarray) -> np.ndarray:
    a = lv.copy()
    a[0, :] = 0.0
    a[0, _TRACE_IDX] = 1.0
    b = np.zeros(_DIM * _DIM, dtype=complex)
    b[0] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(f"singular Liouvillian: {exc}") from exc
    scale = float(np.abs(lv).max()) * float(np.abs(x).max())
    residual = float(np.abs(lv @ x).max())
    if not math.isfinite(residual) or residual > RESIDUAL_TOL * max(scale, 1e-300):
        raise SteadyStateError(
            f"no unique steady state: residual {residual:.3e} vs scale {scale:.3e}"
        )
    return x.reshape((_DIM, _DIM), order="F")


def steady_state_rho(cfg: LadderConfig, delta_c: float) -> np.ndarray:
    """Full steady-state density matrix at one scanned detuning."""
    if not math.isfinite(delta_c):
        raise ValueError(f"delta_c must be finite, got {delta_c}")
    return _solve(_liouvillian(_hamiltonian(cfg, delta_c), _collapse_ops(cfg)))


def steady_state(cfg: LadderConfig, delta_c: float) -> float:
    """Imaginary part of the g-e coherence (positive means absorption)."""
    return float(steady_state_rho(cfg, delta_c)[0, 1].imag)


def normalize_trace(values: np.ndarray) -> np.ndarray:
    """Affine map onto [0, 1]; a flat input maps to all zeros.  Idempotent."""
    arr = np.asarray(values, dtype=float)
    span = float(arr.max() - arr.min())
    if span <= 0.0:
        return np.zeros_like(arr)
    return (arr - arr.min()) / span


def _doppler_nodes(cfg: LadderConfig, node_count: int) -> tuple[np.ndarray, np.ndarray]:
    if cfg.doppler_sigma == 0.0:
        return np.array([0.0]), np.array([1.0])
    x, w = np.polynomial.hermite.hermgauss(node_count)
    return math.sqrt(2.0) * cfg.doppler_sigma * x, w / math.sqrt(math.pi)


def scan_spectrum(
    cfg: LadderConfig,
    scan: tuple[float, float],
    points: int,
    doppler_nodes: int = 11,
) -> SpectrumTrace:
    """Scan the coupling detuning and return a normalized transmission trace.

    Parameters
    ----------
    cfg : LadderConfig
    scan : (low, high) bounds of the scanned detuning in rad/s, low < high.
    points : number of samples, >= 3.
    doppler_nodes : Gauss-Hermite node count used when doppler_sigma > 0.
    """
    low, high = float(scan[0]), float(scan[1])
    if not (math.isfinite(low) and math.isfinite(high)) or high <= low:
        raise ValueError(f"scan range must satisfy low < high, got ({low}, {high})")
    if points < 3:
        raise ValueError(f"points must be >= 3, got {points}")
    if doppler_nodes < 1:
        raise ValueError(f"doppler_nodes must be >= 1, got {doppler_nodes}")

    detunings = np.linspace(low, high, points)
    shifts, weights = _doppler_nodes(cfg, doppler_nodes)
    base = _liouvillian(_hamiltonian(cfg, 0.0), _collapse_ops(cfg))
    slope = _scan_slope()

    absorption = np.zeros(points)
    for shift, weight in zip(shifts, weights):
        for i, dc in enumerate(detunings):
            rho = _solve(base + (dc + shift) * slope)
            absorption[i] += weight * rho[0, 1].imag

    transmission = normalize_trace(-absorption)
    positions, _ = _peak_positions(detunings, transmission, PROMINENCE_DEFAULT)
    return SpectrumTrace(detunings, transmission, np.sort(positions))


def _peak_positions(
    x: np.ndarray, y: np.ndarray, prominence: float
) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima above a prominence threshold, sub-sample refined.

    Returns (positions, prominences), unsorted.  Positions are refined with
    a parabola through the maximum and its two neighbours.
    """
    span = float(y.max() - y.min())
    if span <= 0.0:
        return np.array([]), np.array([])
    idx, props = find_peaks(y, prominence=prominence * span)
    positions = []
    for i in idx:
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        if denom < 0.0:
            offset = 0.5 * (y[i - 1] - y[i + 1]) / denom
        else:
            offset = 0.0
        step = x[i + 1] - x[i] if offset >= 0 else x[i] - x[i - 1]
        positions.append(x[i] + offset * step)
    return np.array(positions), props["prominences"]


def extract_splitting(trace: SpectrumTrace, prominence: float = PROMINENCE_DEFAULT):
    """Distance between the two most prominent peaks of a trace.

    Raises UnresolvedSplittingError when fewer than two peaks clear the
    prominence threshold (fraction of the full transmission scale).
    """
    from .metrology import SOURCE_SPECTRUM, SplittingResult

    if not 0.0 < prominence < 1.0:
        raise ValueError(f"prominence must be in (0, 1), got {prominence}")
    positions, proms = _peak_positions(trace.detunings, trace.transmission, prominence)
    if len(positions) < 2:
        raise UnresolvedSplittingError(
            f"found {len(positions)} peak(s) above prominence {prominence}; need 2"
        )
    top_two = positions[np.argsort(proms)[-2:]]
    return SplittingResult(float(abs(top_two[1] - top_two[0])), SOURCE_SPECTRUM)


def trace_csv(trace: SpectrumTrace) -> str:
    """A trace as CSV text with the detuning axis converted to Hz."""
    lines = ["detuning_hz,transmission"]
    for det, trans in zip(trace.detunings, trace.transmission):
        lines.append(f"{det / (2.0 * math.pi):.9g},{trans:.9g}")
    return "\n".join(lines) + "\n"


def default_ladder(omega_rf: float, delta_rf: float) -> LadderConfig:
    """A weak-probe ladder wrapped around a given RF drive."""
    return LadderConfig(
        omega_p=2.0 * math.pi * 0.1e6,
        omega_c=2.0 * math.pi * 1.0e6,
        omega_rf=omega_rf,
        delta_rf=delta_rf,
    )


def scan_window(cfg: LadderConfig) -> tuple[float, float]:
    """Default scan bounds (rad/s) around both Autler-Townes peaks.

    Centred on -delta_rf / 2, half-width 0.75 * hypot(delta_rf, omega_rf)
    plus 3 * gamma_e, so each peak keeps a few linewidths of margin.
    """
    expected = math.hypot(cfg.delta_rf, cfg.omega_rf)
    center = -cfg.delta_rf / 2.0
    half_width = 0.75 * expected + 3.0 * cfg.gamma_e
    return center - half_width, center + half_width
