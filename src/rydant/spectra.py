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

Solver
------
The scanned detuning enters the trace-constrained Liouvillian linearly,
through a diagonal slope.  One eigendecomposition at the scan centre
therefore turns a whole scan into a sum of poles in the detuning, and a
single-detuning steady state is the one-point scan.  The slope is zero on
the populations and on the g-e and r1-r2 coherences, which the scan does
not detune, so eight of the sixteen eigenvalues are exactly zero and only
the eight coherences between {g, e} and {r1, r2} carry live poles.  The
per-point stage runs component-major, on (16, points) arrays, so each
reduction over the components is a fast elementwise pass.  Doppler
averaging shifts only the scanned detuning by a Gaussian velocity term;
the average of each pole over that Gaussian is exact through the Faddeeva
function (scipy.special.wofz, the only scipy import, made inside the
Doppler path).  Peaks are local maxima filtered by topographic prominence.

Defaults gamma_e = 2*pi*5.2e6 rad/s and gamma_r = 2*pi*0.1e6 rad/s are
plausible vapor-cell numbers, not measured values; override per setup.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

GAMMA_E_DEFAULT = 2.0 * math.pi * 5.2e6
GAMMA_R_DEFAULT = 2.0 * math.pi * 0.1e6

# Probe is treated perturbatively; warn beyond this omega_p / gamma_e ratio.
WEAK_PROBE_RATIO = 0.1

# Relative residual above which a steady-state solve is rejected.
RESIDUAL_TOL = 1e-8

# Peak prominence threshold as a fraction of the full transmission scale.
PROMINENCE_DEFAULT = 0.05

# Longest accepted scan: a 0.01 MHz step over a 200 MHz window.  A scan
# holds a few (points x 16) complex arrays, about 5 MB each at this size.
MAX_SCAN_POINTS = 20_001

_DIM = 4
_TRACE_IDX = np.arange(_DIM) * (_DIM + 1)
_GE = _DIM  # rho[0, 1] in the column-stacked state
_IDENTITY = np.eye(_DIM)


class SteadyStateError(RuntimeError):
    """The Liouvillian has no unique steady state (or the solve failed)."""


class UnresolvedSplittingError(ValueError):
    """Fewer than two sufficiently prominent peaks in a trace."""


@dataclass(frozen=True)
class LadderConfig:
    """Ladder drive and decay parameters, all angular frequencies in rad/s.

    doppler_sigma > 0 makes scan_spectrum average each point over a
    Gaussian shift of the scanned detuning with this standard deviation
    (velocity classes); the average is exact, one Faddeeva function per
    pole.  Zero keeps the single stationary class.
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron of two n x n matrices, as one broadcast outer product.
    n = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * n, n * n)


def _liouvillian(h: np.ndarray, c_ops: Sequence[np.ndarray]) -> np.ndarray:
    # Column-stacking convention: x = rho.reshape(-1, order="F").
    lv = -1j * (_kron(_IDENTITY, h) - _kron(h.T, _IDENTITY))
    for c in c_ops:
        cdc = c.conj().T @ c
        lv += (
            _kron(c.conj(), c)
            - 0.5 * _kron(_IDENTITY, cdc)
            - 0.5 * _kron(cdc.T, _IDENTITY)
        )
    return lv


def _scan_slope() -> np.ndarray:
    # Diagonal of d(Liouvillian)/d(delta_c): the scan enters H only on the
    # r1/r2 diagonal.  Its entry for rho_gg (the trace row) is zero.
    slope = np.zeros((_DIM, _DIM), dtype=complex)
    slope[2, 2] = -1.0
    slope[3, 3] = -1.0
    return np.diag(-1j * (_kron(_IDENTITY, slope) - _kron(slope.T, _IDENTITY))).copy()


_SCAN_SLOPE = _scan_slope()


def _steady_states(cfg: LadderConfig, detunings: np.ndarray, doppler_sigma: float = 0.0) -> np.ndarray:
    """Column-stacked steady states, one row per scanned detuning.

    With the trace row in place of row 0, the Liouvillian is
    A(delta) = A0 + (delta - delta0) S, where A0 is taken at the scan centre
    delta0 and S is the diagonal scan slope.  One eigendecomposition
    A0^-1 S = V diag(lam) V^-1, with x0 = A0^-1 b and c = V^-1 x0, gives
    every point as x(delta) = x0 - V [eps lam / (1 + eps lam) * c] with
    eps = delta - delta0; a one-point scan returns x0 itself.  S is zero on
    the populations and the g-e and r1-r2 coherences, so A0^-1 S has 8 zero
    columns and eig returns 8 eigenvalues of exactly 0, whose terms vanish;
    only the 8 live poles are kept.  The per-point stage works on
    (16, points) arrays and returns the transposed view.  Each point's
    residual |L(delta) x(delta)| is checked against RESIDUAL_TOL *
    max|L(delta)| * max|x(delta)|, the slope entering only the sloped rows.

    doppler_sigma > 0 returns instead the average over a Gaussian shift of
    the scanned detuning, taken pole by pole in closed form.
    """
    center = 0.5 * (detunings[0] + detunings[-1])
    lv = _liouvillian(_hamiltonian(cfg, center), _collapse_ops(cfg))
    a = lv.copy()
    a[0, :] = 0.0
    a[0, _TRACE_IDX] = 1.0
    b = np.zeros(_DIM * _DIM, dtype=complex)
    b[0] = 1.0
    try:
        x0 = np.linalg.solve(a, b)
        lam, v = np.linalg.eig(np.linalg.solve(a, np.diag(_SCAN_SLOPE)))
        c = np.linalg.solve(v, x0)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(f"singular Liouvillian: {exc}") from exc

    live = lam != 0.0
    lam, v, c = lam[live, None], v[:, live], c[live, None]
    eps = detunings - center
    sloped = _SCAN_SLOPE != 0.0
    slope, diagonal = _SCAN_SLOPE[sloped, None], np.diag(lv)
    with np.errstate(all="ignore"):
        eps_lam = lam * eps
        states = x0[:, None] - v @ (eps_lam / (1.0 + eps_lam) * c)
        # L(delta) x = L0 x + eps S x; the slope moves only the sloped diagonal entries.
        lx = lv @ states
        lx[sloped] += eps * slope * states[sloped]
        residual = np.abs(lx).max(axis=0)
        unscanned_max = max(np.abs(lv - np.diag(diagonal)).max(), np.abs(diagonal[~sloped]).max())
        lv_max = np.maximum(np.abs(diagonal[sloped, None] + eps * slope).max(axis=0), unscanned_max)
        scale = np.maximum(lv_max * np.abs(states).max(axis=0), 1e-300)
    failed = ~np.isfinite(residual) | (residual > RESIDUAL_TOL * scale)
    if failed.any():
        i = int(np.argmax(failed))
        raise SteadyStateError(
            f"no unique steady state at detuning {detunings[i]:.6e}: "
            f"residual {residual[i]:.3e} vs scale {scale[i]:.3e}"
        )
    if doppler_sigma > 0.0:
        states = x0[:, None] - v @ (_doppler_pole_average(eps, lam, doppler_sigma) * c)
    return states.T


def _doppler_pole_average(eps: np.ndarray, lam: np.ndarray, sigma: float) -> np.ndarray:
    """<e lam / (1 + e lam)> over e = eps + u, u ~ N(0, sigma^2), one row per pole.

    lam is a column of nonzero poles, eps a row of detunings.  Each term is
    1 + (1 / lam) / (z - e) with the pole z = -1 / lam.  For Im(a) > 0,
    <1 / (a - u)> = -i sqrt(pi/2) / sigma * w(a / (sigma sqrt 2)), with w
    the Faddeeva function; below the real axis conj(w(conj(zeta))) =
    w(-zeta) gives the mirrored form.
    """
    from scipy.special import wofz

    a = -1.0 / lam - eps
    side = np.where(a.imag > 0.0, 1.0, -1.0)
    mean_inverse = -1j * side * math.sqrt(math.pi / 2.0) / sigma * wofz(side * a / (sigma * math.sqrt(2.0)))
    return 1.0 + mean_inverse / lam


def normalize_trace(values: np.ndarray) -> np.ndarray:
    """Affine map onto [0, 1]; a flat input maps to all zeros.  Idempotent."""
    arr = np.asarray(values, dtype=float)
    span = float(arr.max() - arr.min())
    if span <= 0.0:
        return np.zeros_like(arr)
    return (arr - arr.min()) / span


def scan_spectrum(cfg: LadderConfig, scan: tuple[float, float], points: int) -> SpectrumTrace:
    """Scan the coupling detuning and return a normalized transmission trace.

    Parameters
    ----------
    cfg : LadderConfig; doppler_sigma > 0 averages each point over a
        Gaussian shift of the scanned detuning.
    scan : (low, high) bounds of the scanned detuning in rad/s, low < high.
    points : number of samples, 3 <= points <= MAX_SCAN_POINTS.
    """
    low, high = float(scan[0]), float(scan[1])
    if not (math.isfinite(low) and math.isfinite(high)) or high <= low:
        raise ValueError(f"scan range must satisfy low < high, got ({low}, {high})")
    if not 3 <= points <= MAX_SCAN_POINTS:
        raise ValueError(f"points must be in [3, {MAX_SCAN_POINTS}], got {points}")

    detunings = np.linspace(low, high, points)
    absorption = _steady_states(cfg, detunings, cfg.doppler_sigma)[:, _GE].imag
    transmission = normalize_trace(-absorption)
    positions, _ = _peak_positions(detunings, transmission, PROMINENCE_DEFAULT)
    return SpectrumTrace(detunings, transmission, np.sort(positions))


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of samples above both neighbours; a flat top reports its middle.

    A run of equal samples is a maximum when both samples bordering it are
    lower; its index is the middle of the run, rounded down.  Runs touching
    either end of the trace are never maxima.
    """
    change = np.flatnonzero(y[1:] != y[:-1])
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [y.size - 1]))
    inner = (starts > 0) & (ends < y.size - 1)
    starts, ends = starts[inner], ends[inner]
    top = (y[starts - 1] < y[starts]) & (y[ends + 1] < y[ends])
    return (starts[top] + ends[top]) // 2


def _prominences(y: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Height of each peak above the higher of its two bases.

    A base is the lowest sample between the peak and the nearest sample
    higher than the peak on that side, or the end of the trace.
    """
    result = np.empty(peaks.size)
    for k, p in enumerate(peaks):
        higher_left = np.flatnonzero(y[:p] > y[p])
        higher_right = np.flatnonzero(y[p + 1:] > y[p])
        start = higher_left[-1] + 1 if higher_left.size else 0
        stop = p + 1 + higher_right[0] if higher_right.size else y.size
        result[k] = y[p] - max(y[start:p + 1].min(), y[p:stop].min())
    return result


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
    peaks = _local_maxima(y)
    proms = _prominences(y, peaks)
    keep = proms >= prominence * span
    i, proms = peaks[keep], proms[keep]
    left, mid, right = y[i - 1], y[i], y[i + 1]
    denom = left - 2.0 * mid + right
    offset = np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=denom < 0.0)
    step = np.where(offset >= 0, x[i + 1] - x[i], x[i] - x[i - 1])
    return x[i] + offset * step, proms


def extract_splitting(trace: SpectrumTrace, prominence: float = PROMINENCE_DEFAULT):
    """Distance between the two most prominent peaks of a trace.

    Raises UnresolvedSplittingError when fewer than two peaks clear the
    prominence threshold (fraction of the full transmission scale).
    """
    from .metrology import SplittingResult

    if not 0.0 < prominence < 1.0:
        raise ValueError(f"prominence must be in (0, 1), got {prominence}")
    positions, proms = _peak_positions(trace.detunings, trace.transmission, prominence)
    if len(positions) < 2:
        raise UnresolvedSplittingError(
            f"found {len(positions)} peak(s) above prominence {prominence}; need 2"
        )
    top_two = positions[np.argsort(proms)[-2:]]
    return SplittingResult(float(abs(top_two[1] - top_two[0])))


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
