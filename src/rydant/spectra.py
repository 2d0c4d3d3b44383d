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
The Liouvillian is linear in the eight ladder parameters: one matmul with
a fixed table builds it.  The scanned detuning enters it through a diagonal
slope that is nonzero only on the eight coherences between {g, e} and
{r1, r2}.  One solve at the scan centre and one eigendecomposition of that
8 x 8 sloped block turn a whole scan into a sum of eight poles in the
detuning; a single-detuning steady state is the one-point scan.  The
per-point stage runs component-major, on (16, points) arrays, so each
reduction over the components is a fast elementwise pass.  Doppler
averaging shifts only the scanned detuning by a Gaussian velocity term; the
average of each pole over that Gaussian is exact through the Faddeeva
function (scipy.special.wofz, the only scipy import, made inside the
Doppler path).  A trace finds its peaks once, when it is built: local
maxima filtered by topographic prominence, which extract_splitting then
reads.

Defaults gamma_e = 2*pi*5.2e6 rad/s and gamma_r = 2*pi*0.1e6 rad/s are
plausible vapor-cell numbers, not measured values; override per setup.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
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
    """A scanned transmission trace and the peaks it holds, all read-only.

    Building a trace finds its peaks (_peak_positions at PROMINENCE_DEFAULT):
    peaks holds their positions in increasing order, prominences their
    topographic prominences in the same order.
    """

    detunings: np.ndarray
    transmission: np.ndarray
    peaks: np.ndarray = field(init=False)
    prominences: np.ndarray = field(init=False)

    def __post_init__(self):
        det = np.array(self.detunings, dtype=float)
        trans = np.array(self.transmission, dtype=float)
        if det.ndim != 1 or det.size < 2:
            raise ValueError("detunings must be a 1-D array with >= 2 points")
        if trans.shape != det.shape:
            raise ValueError("transmission and detunings must have equal length")
        for name, arr in (("detunings", det), ("transmission", trans)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ValueError(f"{name} must be finite, got {arr[bad[0]]} at index {bad[0]}")
        if np.any(np.diff(det) <= 0):
            raise ValueError("detunings must be strictly increasing")
        if trans.min() < -1e-9 or trans.max() > 1.0 + 1e-9:
            raise ValueError("transmission must lie within [0, 1]")
        peaks, proms = _peak_positions(det, trans, PROMINENCE_DEFAULT)
        for name, arr in (("detunings", det), ("transmission", trans), ("peaks", peaks), ("prominences", proms)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


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


# Ladder parameters in the row order of _liouvillian_table().
_PARAMETERS = ("delta_p", "delta_c", "delta_rf", "omega_p", "omega_c", "omega_rf", "gamma_e", "gamma_r")


@lru_cache(maxsize=None)
def _liouvillian_table() -> np.ndarray:
    """Row i: the flattened Liouvillian at a unit value of _PARAMETERS[i], zero for the rest.

    The Liouvillian is linear in each (a decay rate enters through c^dag c).
    Built on first use, so a process that runs no scan never pays for it.
    """
    rows = []
    for name in _PARAMETERS:
        unit = dict.fromkeys(_PARAMETERS, 0.0) | {name: 1.0}
        delta_c = unit.pop("delta_c")
        cfg = LadderConfig(**unit)
        rows.append(_liouvillian(_hamiltonian(cfg, delta_c), _collapse_ops(cfg)).ravel())
    table = np.array(rows)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _ladder_liouvillian(cfg: LadderConfig, delta_c: float) -> np.ndarray:
    """_liouvillian(_hamiltonian(cfg, delta_c), _collapse_ops(cfg)) as one matmul."""
    params = np.array([delta_c if name == "delta_c" else getattr(cfg, name) for name in _PARAMETERS])
    return (params @ _liouvillian_table()).reshape(_DIM * _DIM, _DIM * _DIM)


# Diagonal of d(Liouvillian)/d(delta_c): the scan enters H only on the
# r1/r2 diagonal.  It is nonzero on the eight {g, e}-{r1, r2} coherences
# alone, so its entry for rho_gg (the trace row) is zero.
_SCAN_SLOPE = np.diag(_liouvillian(np.diag([0.0, 0.0, -1.0, -1.0]).astype(complex), [])).copy()
_SLOPED = np.flatnonzero(_SCAN_SLOPE)
# Right-hand side of the one setup solve: the trace condition b, then the
# sloped columns of S = diag(_SCAN_SLOPE).
_SETUP_RHS = np.column_stack((np.eye(_DIM * _DIM)[:, 0], np.diag(_SCAN_SLOPE)[:, _SLOPED]))


def _block_order(k: np.ndarray) -> np.ndarray:
    """Permutation that makes the uncoupled diagonal blocks of k contiguous.

    A drive left at zero decouples blocks of the sloped coherences (the r2
    ones when Omega_rf = 0).  eig keeps contiguous blocks apart, so each
    block's poles round at their own scale; interleaved, a pole near the
    scan centre (|lam| ~ 1 / gamma_r) swamps the small poles of the others.
    Three squarings of the coupling pattern join every linked pair of the
    eight components; each takes the first it reaches as its block label.
    """
    linked = (k != 0.0) | (k.T != 0.0) | np.eye(k.shape[0], dtype=bool)
    for _ in range(3):
        linked = linked @ linked
    return np.argsort(linked.argmax(axis=1), kind="stable")


def _steady_states(cfg: LadderConfig, detunings: np.ndarray) -> np.ndarray:
    """Column-stacked steady states, one row per scanned detuning.

    With the trace row in place of row 0, the Liouvillian is
    A(delta) = A0 + eps S, with A0 at the scan centre delta0,
    eps = delta - delta0 and S the diagonal scan slope, nonzero on the eight
    sloped components s.  One solve of A0 against [b, S[:, s]] gives
    x0 = A0^-1 b and M = (A0^-1 S)[:, s].  As x(eps) = x0 - eps M x(eps)[s],
    the poles lam are the eigenvalues of the 8 x 8 block K = M[s], its
    uncoupled diagonal blocks made contiguous first (see _block_order); with
    K = U diag(lam) U^-1 and c = U^-1 x0[s], every point is
    x(eps) = x0 - W [eps / (1 + lam eps)], W = M U diag(c), and a one-point
    scan returns x0 itself.  The per-point stage works on (16, points)
    arrays and returns the transposed view.  Each point's residual
    |L(delta) x(delta)| is checked against RESIDUAL_TOL * max|L(delta)| *
    max|x(delta)|, the slope entering only the sloped rows.

    cfg.doppler_sigma > 0 returns instead the average over a Gaussian shift
    of the scanned detuning: each term becomes its closed-form average.
    """
    center = 0.5 * (detunings[0] + detunings[-1])
    lv = _ladder_liouvillian(cfg, center)
    a = lv.copy()
    a[0, :] = 0.0
    a[0, _TRACE_IDX] = 1.0
    try:
        solved = np.linalg.solve(a, _SETUP_RHS)
        x0, m = solved[:, 0], solved[:, 1:]
        order = _block_order(m[_SLOPED])
        sloped, m = _SLOPED[order], m[:, order]
        lam, u = np.linalg.eig(m[sloped])
        c = np.linalg.solve(u, x0[sloped])
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(f"singular Liouvillian: {exc}") from exc

    eps = detunings - center
    slope, diagonal = _SCAN_SLOPE[_SLOPED, None], np.diag(lv)
    # states is formed in place: a fresh (16, points) array is a large,
    # page-faulting allocation that can cost more than the subtraction.
    with np.errstate(all="ignore"):
        w = m @ (u * c)
        states = w @ (eps / (1.0 + lam[:, None] * eps))
        np.subtract(x0[:, None], states, out=states)
        # L(delta) x = L0 x + eps S x; the slope moves only the sloped diagonal entries.
        lx = lv @ states
        eps_slope = eps * slope
        lx[_SLOPED] += eps_slope * states[_SLOPED]
        residual = np.abs(lx).max(axis=0)
        unscanned_max = max(np.abs(lv - np.diag(diagonal)).max(), np.abs(diagonal[_SCAN_SLOPE == 0.0]).max())
        lv_max = np.maximum(np.abs(diagonal[_SLOPED, None] + eps_slope).max(axis=0), unscanned_max)
        scale = np.maximum(lv_max * np.abs(states).max(axis=0), 1e-300)
    failed = ~np.isfinite(residual) | (residual > RESIDUAL_TOL * scale)
    if failed.any():
        i = int(np.argmax(failed))
        raise SteadyStateError(
            f"no unique steady state at detuning {detunings[i]:.6e}: "
            f"residual {residual[i]:.3e} vs scale {scale[i]:.3e}"
        )
    if cfg.doppler_sigma > 0.0:
        states = w @ _doppler_pole_average(eps, lam, cfg.doppler_sigma)
        np.subtract(x0[:, None], states, out=states)
    return states.T


def _doppler_pole_average(eps: np.ndarray, lam: np.ndarray, sigma: float) -> np.ndarray:
    """<e / (1 + lam e)> over e = eps + u, u ~ N(0, sigma^2), one row per pole.

    lam holds the poles, eps a row of detunings.  Each term is
    (1 + (1 / lam) / (z - e)) / lam with z = -1 / lam, and for Im(a) > 0,
    <1 / (a - u)> = -i sqrt(pi/2) / sigma * w(a / (sigma sqrt 2)), with w
    the Faddeeva function; below the real axis conj(w(conj(zeta))) =
    w(-zeta) gives the mirrored form.  A pole of exactly zero (a drive
    left at zero can decouple one) is a term linear in e, averaging to eps.
    """
    from scipy.special import wofz

    live = lam[:, None] != 0.0
    lam = np.where(live, lam[:, None], 1.0)
    a = -1.0 / lam - eps
    side = np.where(a.imag > 0.0, 1.0, -1.0)
    mean_inverse = -1j * side * math.sqrt(math.pi / 2.0) / sigma * wofz(side * a / (sigma * math.sqrt(2.0)))
    return np.where(live, (1.0 + mean_inverse / lam) / lam, eps)


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
    absorption = _steady_states(cfg, detunings)[:, _GE].imag
    return SpectrumTrace(detunings, normalize_trace(-absorption))


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

    Returns (positions, prominences), positions refined with a parabola
    through the maximum and its two neighbours.  Maxima lie two or more
    samples apart and refinement moves each by at most half a step, so
    index order is increasing order.
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


def extract_splitting(trace: SpectrumTrace):
    """Distance between the two most prominent of the peaks a trace holds.

    Raises UnresolvedSplittingError when the trace holds fewer than two.
    """
    from .metrology import SplittingResult

    if trace.peaks.size < 2:
        raise UnresolvedSplittingError(
            f"found {trace.peaks.size} peak(s) above prominence {PROMINENCE_DEFAULT}; need 2"
        )
    top_two = trace.peaks[np.argsort(trace.prominences)[-2:]]
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
