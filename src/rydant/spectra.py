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
a fixed table builds it, whose rows are the Liouvillians of the eight unit
generators (three detuning diagonals, three half-Rabi couplings, three
collapses in two rates).  The scanned detuning enters it through a diagonal
slope that is nonzero only on the eight coherences between {g, e} and
{r1, r2}.  One complex solve at the scan centre and one eigendecomposition
of that sloped block turn a whole scan into a sum of poles in the
detuning; a single-detuning steady state is the one-point scan.  The
setup's results then move to rho's real coordinates (4 populations, Re and
Im of 6 coherences), where the block is real 8 x 8 and its poles come in
exact conjugate pairs: one pole per pair is evaluated, at weight 2, and
the per-point stage runs in real arithmetic, component-major on
(16, points) arrays.  Its residual check is the same rule on the real
Liouvillian.  Doppler averaging shifts only the scanned detuning by a
Gaussian velocity term; the average of each pole over that Gaussian is
exact through the Faddeeva function, evaluated by Weideman's rational
approximation with N = 40 terms: relative error below 1.5e-15 against
80-digit mpmath for |z| <= 1e6, the real axis included
(scipy.special.wofz: up to 3.1e-14 on the same points).
A trace finds its peaks once, when it is built: local maxima filtered by
topographic prominence, which extract_splitting then reads.  Each kept
peak is refined on Python floats, with the IEEE operations of an array
parabola in the same order, so with the same bits.  A numpy call on a
small array costs several microseconds whatever its size, so the per-scan
bookkeeping makes as few of them as it can.

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
# holds a few real (points x 16) arrays, about 2.6 MB each at this size.
MAX_SCAN_POINTS = 20_001

_DIM = 4
_TRACE_IDX = np.arange(_DIM) * (_DIM + 1)
_IDENTITY = np.eye(_DIM)


class SteadyStateError(RuntimeError):
    """The Liouvillian has no unique steady state (or the solve failed)."""


class UnresolvedSplittingError(ValueError):
    """Fewer than two sufficiently prominent peaks in a trace."""


class InputError(ValueError):
    """A refused input: str() is quantity + detail, and a caller may put its own key before detail."""

    def __init__(self, quantity: str, detail: str):
        super().__init__(quantity + detail)
        self.quantity, self.detail = quantity, detail


def check_scan_points(points: int) -> None:
    """The one scan-point rule: 3 <= points <= MAX_SCAN_POINTS, else InputError("points")."""
    if not 3 <= points <= MAX_SCAN_POINTS:
        raise InputError("points", f" must be in [3, MAX_SCAN_POINTS = {MAX_SCAN_POINTS}], got {points}")


def check_scan_range(low: float, high: float) -> None:
    """The one scan-range rule: finite bounds in rad/s with low < high, else InputError("scan range")."""
    if not (math.isfinite(low) and math.isfinite(high)) or high <= low:
        raise InputError("scan range", f" must be finite in rad/s with low < high, got ({low!r}, {high!r})")


@dataclass(frozen=True)
class LadderConfig:
    """Ladder drive and decay parameters, all angular frequencies in rad/s.

    doppler_sigma > 0 makes scan_spectrum average each point over a
    Gaussian shift of the scanned detuning with this standard deviation
    (velocity classes); the average is exact, one Faddeeva function per
    pole.  Zero keeps the single stationary class.  Rates are finite and >= 0,
    detunings finite, else InputError naming the field.
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
                raise InputError(name, f" must be finite and >= 0, got {v} rad/s")
        for name in ("delta_p", "delta_rf"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InputError(name, f" must be finite, got {v} rad/s")
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
            if not np.isfinite(arr).all():
                bad = int(np.argmin(np.isfinite(arr)))
                raise ValueError(f"{name} must be finite, got {arr[bad]} at index {bad}")
        if not (det[1:] > det[:-1]).all():
            raise ValueError("detunings must be strictly increasing")
        if trans.min() < -1e-9 or trans.max() > 1.0 + 1e-9:
            raise ValueError("transmission must lie within [0, 1]")
        peaks, proms = _peak_positions(det, trans, PROMINENCE_DEFAULT)
        for name, arr in (("detunings", det), ("transmission", trans), ("peaks", peaks), ("prominences", proms)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _liouvillian(h: np.ndarray, c_ops: Sequence[np.ndarray]) -> np.ndarray:
    # Column-stacking convention: x = rho.reshape(-1, order="F").
    lv = -1j * (np.kron(_IDENTITY, h) - np.kron(h.T, _IDENTITY))
    for c in c_ops:
        cdc = c.conj().T @ c
        lv += np.kron(c.conj(), c) - 0.5 * np.kron(_IDENTITY, cdc) - 0.5 * np.kron(cdc.T, _IDENTITY)
    return lv


# The ladder's steps down |g><e|, |e><r1|, |r1><r2|, and no drive at all.
_DOWN = [np.diag(unit, 1) for unit in np.eye(_DIM - 1, dtype=complex)]
_ZERO = np.zeros((_DIM, _DIM), dtype=complex)

# Each ladder parameter's unit generator (h, c_ops), in the row order of
# _liouvillian_table(): the three detuning diagonals, the three half-Rabi
# couplings, the e -> g collapse and the two Rydberg collapses.
_GENERATORS = {
    "delta_p": (np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex), ()),
    "delta_c": (np.diag([0.0, 0.0, -1.0, -1.0]).astype(complex), ()),
    "delta_rf": (np.diag([0.0, 0.0, 0.0, -1.0]).astype(complex), ()),
    "omega_p": (0.5 * (_DOWN[0] + _DOWN[0].T), ()),
    "omega_c": (0.5 * (_DOWN[1] + _DOWN[1].T), ()),
    "omega_rf": (0.5 * (_DOWN[2] + _DOWN[2].T), ()),
    "gamma_e": (_ZERO, _DOWN[:1]),
    "gamma_r": (_ZERO, _DOWN[1:]),
}
_PARAMETERS = tuple(_GENERATORS)


@lru_cache(maxsize=None)
def _liouvillian_table() -> np.ndarray:
    """Row k: the flattened Liouvillian of the unit generator of _PARAMETERS[k].

    The Liouvillian is linear in each parameter (a decay rate enters through
    c^dag c), so a ladder's is the parameters times this table.  Built on
    first use, so a process that runs no scan never pays for it.
    """
    table = np.array([_liouvillian(h, c_ops).ravel() for h, c_ops in _GENERATORS.values()])
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _ladder_liouvillian(cfg: LadderConfig, delta_c: float, table: np.ndarray | None = None) -> np.ndarray:
    """The Liouvillian at scanned detuning delta_c: its parameters times table (default _liouvillian_table())."""
    params = np.array([delta_c if name == "delta_c" else getattr(cfg, name) for name in _PARAMETERS])
    return (params @ (_liouvillian_table() if table is None else table)).reshape(_DIM * _DIM, _DIM * _DIM)


# Diagonal of d(Liouvillian)/d(delta_c): the scan enters H only on the
# r1/r2 diagonal.  It is nonzero on the eight {g, e}-{r1, r2} coherences
# alone, so its entry for rho_gg (the trace row) is zero.
_SCAN_SLOPE = np.diag(_liouvillian(*_GENERATORS["delta_c"])).copy()
_SLOPED = np.flatnonzero(_SCAN_SLOPE)
# Row 0 of the solved matrix: the trace condition sum_i rho_ii = 1.
_TRACE_ROW = np.zeros(_DIM * _DIM)
_TRACE_ROW[_TRACE_IDX] = 1.0
# Right-hand side of the one setup solve: the trace condition b, then the
# sloped columns of S = diag(_SCAN_SLOPE).
_SETUP_RHS = np.column_stack((np.eye(_DIM * _DIM)[:, 0], np.diag(_SCAN_SLOPE)[:, _SLOPED]))

# The real coordinates y of a Hermitian rho: the populations rho_ii, then
# Re rho_ij and Im rho_ij over i < j, each in column-stacked order, whose
# second to fifth are the sloped coherences.  The slope turns each of them:
# d(Re)/d(delta_c) = Im and d(Im)/d(delta_c) = -Re, so in the real
# Liouvillian it adds eps at (_REAL_SLOPED, _TURN_COLUMNS) times _TURN_SIGNS.
_UPPER = [(i, j) for j in range(_DIM) for i in range(j)]
_IM_GE = _DIM + len(_UPPER)  # Im rho[0, 1], the probe absorption
_SLOPED_RE, _SLOPED_IM = slice(_DIM + 1, _DIM + 5), slice(_IM_GE + 1, _IM_GE + 5)
_REAL_SLOPED, _TURN_COLUMNS = np.r_[_SLOPED_RE, _SLOPED_IM], np.r_[_SLOPED_IM, _SLOPED_RE]
_TURN_SIGNS = np.repeat([1.0, -1.0], 4)
# The sloped coordinates in their own order, for a sloped block with no zero.
_NATURAL_ORDER = np.arange(_REAL_SLOPED.size)
_NATURAL_ORDER.flags.writeable = False


@lru_cache(maxsize=None)
def _real_frame() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(R, Q, Q_s, table): y = R x and x = Q y between the column-stacked x and y, R Q = I exactly.

    Q_s = Q[_SLOPED, _REAL_SLOPED]; table row k is R L_k Q (real) for row k of
    _liouvillian_table().  Built on first use, as that table, and read-only.
    """
    n = _DIM * _DIM
    r, q = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    r[:_DIM, _TRACE_IDX] = q[_TRACE_IDX, :_DIM] = np.eye(_DIM)
    for k, (i, j) in enumerate(_UPPER):
        re, im, ij, ji = _DIM + k, _IM_GE + k, i + _DIM * j, j + _DIM * i
        r[re, [ij, ji]], r[im, [ij, ji]] = 0.5, (-0.5j, 0.5j)
        q[[ij, ji], re], q[[ij, ji], im] = 1.0, (1j, -1j)
    table = np.array([(r @ row.reshape(n, n) @ q).real.ravel() for row in _liouvillian_table()])
    frame = r, q, q[np.ix_(_SLOPED, _REAL_SLOPED)], table
    for a in frame:
        a.flags.writeable = False
    return frame


def _block_order(k: np.ndarray) -> np.ndarray:
    """Permutation that makes the uncoupled diagonal blocks of k contiguous.

    A drive left at zero decouples blocks of the sloped coherences (the r2
    ones when Omega_rf = 0).  eig keeps contiguous blocks apart, so each
    block's poles round at their own scale; interleaved, a pole near the
    scan centre (|lam| ~ 1 / gamma_r) swamps the small poles of the others.
    A block with no exact zero is one block, so its natural order returns
    at once (read-only, shared); otherwise three squarings of the coupling
    pattern join every linked pair of the eight components, and each takes
    the first it reaches as its block label.
    """
    if k.all():
        return _NATURAL_ORDER
    linked = (k != 0.0) | (k.T != 0.0) | np.eye(k.shape[0], dtype=bool)
    for _ in range(3):
        linked = linked @ linked
    return np.argsort(linked.argmax(axis=1), kind="stable")


def _steady_states(cfg: LadderConfig, detunings: np.ndarray) -> np.ndarray:
    """Steady states in the real coordinates y (see _real_frame), one row per scanned detuning.

    With the trace row in place of row 0, the Liouvillian is A0 + eps S,
    A0 at the scan centre delta0, eps = delta - delta0, S the diagonal scan
    slope on the eight sloped components s.  One complex solve of A0 against
    [b, S[:, s]] gives x0 = A0^-1 b and M = (A0^-1 S)[:, s], which become
    the real y0 = R x0 and M = R M Q_s.  As y = y0 - eps M y[s], the poles
    lam are the eigenvalues of the real block K = M[s] (blocks made
    contiguous by _block_order), in exact conjugate pairs; with
    K = U diag(lam) U^-1, c = U^-1 y0[s] and W = M U diag(c), every point is
    y0 - W f, f = eps / (1 + lam eps), which is y0 - Re(W f) over the poles
    with Im lam >= 0, those above the axis at weight 2.  The per-point stage
    runs on real (16, points) arrays.  Each point's residual |L(delta) y|,
    with the real Liouvillian, is checked against RESIDUAL_TOL *
    max|L(delta)| * max|y|.

    cfg.doppler_sigma > 0 returns instead the average over a Gaussian shift
    of the scanned detuning: each term becomes its closed-form average.
    """
    center = 0.5 * (detunings[0] + detunings[-1])
    a = _ladder_liouvillian(cfg, center)
    a[0] = _TRACE_ROW
    r, _, q_s, table = _real_frame()
    try:
        solved = r @ np.linalg.solve(a, _SETUP_RHS)
        y0, m = solved[:, 0].real, (solved[:, 1:] @ q_s).real
        order = _block_order(m[_REAL_SLOPED])
        sloped, m = _REAL_SLOPED[order], m[:, order]
        lam, u = np.linalg.eig(m[sloped])
        c = np.linalg.solve(u, y0[sloped])
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(f"singular Liouvillian: {exc}") from exc
    kept = lam.imag >= 0.0
    lam = lam[kept]
    w = m @ (u[:, kept] * (c[kept] * np.where(lam.imag > 0.0, 2.0, 1.0)))

    eps = detunings - center
    lv = _ladder_liouvillian(cfg, center, table)
    with np.errstate(all="ignore"):
        states = _pole_sum(y0, w, eps / (1.0 + lam[:, None] * eps))
        # L(delta) y = L0 y + eps S y; the slope turns only the sloped coherences.
        lx = lv @ states
        lx[_SLOPED_RE] += eps * states[_SLOPED_IM]
        lx[_SLOPED_IM] -= eps * states[_SLOPED_RE]
        residual = np.abs(lx, out=lx).max(axis=0)
        # Every |L0| entry but the eight turns t = sign L0, which read |t + eps|:
        # the largest t or the smallest gives their maximum, with the same rounding.
        unscanned = np.abs(lv)
        unscanned[_REAL_SLOPED, _TURN_COLUMNS] = 0.0
        turns = lv[_REAL_SLOPED, _TURN_COLUMNS] * _TURN_SIGNS
        lv_max = np.maximum(np.abs(turns.max() + eps), np.abs(turns.min() + eps))
        scale = np.maximum(np.maximum(lv_max, unscanned.max()) * np.abs(states).max(axis=0), 1e-300)
    failed = ~np.isfinite(residual) | (residual > RESIDUAL_TOL * scale)
    if failed.any():
        i = int(np.argmax(failed))
        raise SteadyStateError(
            f"no unique steady state at detuning {detunings[i]:.6e}: "
            f"residual {residual[i]:.3e} vs scale {scale[i]:.3e}"
        )
    if cfg.doppler_sigma > 0.0:
        states = _pole_sum(y0, w, _doppler_pole_average(eps, lam, cfg.doppler_sigma))
    return states.T


def _pole_sum(y0: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """y0 - Re(w f) on (16, points) arrays, as one real matmul: Re(w f) = Re w Re f - Im w Im f."""
    states = np.concatenate((w.imag, -w.real), axis=1) @ np.concatenate((f.imag, f.real))
    states += y0[:, None]
    return states


def _doppler_pole_average(eps: np.ndarray, lam: np.ndarray, sigma: float) -> np.ndarray:
    """<e / (1 + lam e)> over e = eps + u, u ~ N(0, sigma^2), one row per pole.

    lam holds the poles, eps a row of detunings.  Each term is
    (1 + (1 / lam) / (z - e)) / lam with z = -1 / lam, and for Im(a) > 0,
    <1 / (a - u)> = -i sqrt(pi/2) / sigma * w(a / (sigma sqrt 2)), with w
    the Faddeeva function; below the real axis conj(w(conj(zeta))) =
    w(-zeta) gives the mirrored form.  A pole of exactly zero (a drive
    left at zero can decouple one) is a term linear in e, averaging to eps.
    """
    live = lam[:, None] != 0.0
    lam = np.where(live, lam[:, None], 1.0)
    # Formed in place, as the scan's states: each (poles, points) array is large.
    zeta = -1.0 / lam - eps
    side = np.where(zeta.imag > 0.0, 1.0, -1.0)
    zeta *= side
    zeta /= sigma * math.sqrt(2.0)
    mean = _faddeeva(zeta)
    del zeta
    mean *= side
    mean *= -1j * math.sqrt(math.pi / 2.0) / sigma
    mean /= lam
    mean += 1.0
    mean /= lam
    return np.where(live, mean, eps)


# Terms of Weideman's rational approximation of the Faddeeva function.
_FADDEEVA_TERMS = 40


@lru_cache(maxsize=None)
def _faddeeva_coefficients() -> tuple[float, np.ndarray]:
    """Weideman's scale L and doubled coefficients 2 a_n, highest power first.

    J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994), with
    N = _FADDEEVA_TERMS and L = sqrt(N / sqrt 2): the a_n are Fourier
    coefficients of exp(-t^2) (L^2 + t^2) in theta, t = L tan(theta / 2),
    one FFT over 4N points.  Doubling is exact and saves _faddeeva a pass.
    Built on first use, as _liouvillian_table, and read-only.
    """
    n = _FADDEEVA_TERMS
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * math.pi / m / 2.0)
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    coeffs = 2.0 * a[n:0:-1]
    coeffs.flags.writeable = False
    return scale, coeffs


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz), for Im z >= 0.

    Weideman's rational form: with r = 1 / (L - iz) and Z = (L + iz) r =
    2 L r - 1, w(z) = (2 p(Z) r + 1 / sqrt(pi)) r for a polynomial p of
    degree N - 1, here evaluated by Horner's rule in place.  At N = 40 the
    relative error stays below 1.5e-15 against 80-digit mpmath for
    |z| <= 1e6, the real axis included; r keeps |z| up to the float range
    from overflowing.
    """
    scale, coeffs = _faddeeva_coefficients()
    r = z * -1j
    r += scale
    np.reciprocal(r, out=r)
    big_z = r * (2.0 * scale)
    big_z -= 1.0
    p = np.full_like(big_z, coeffs[0])
    for coeff in coeffs[1:]:
        p *= big_z
        p += coeff
    p *= r
    p += 1.0 / math.sqrt(math.pi)
    p *= r
    return p


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
    check_scan_range(low, high)
    check_scan_points(points)

    detunings = np.linspace(low, high, points)
    absorption = _steady_states(cfg, detunings)[:, _IM_GE]
    return SpectrumTrace(detunings, normalize_trace(-absorption))


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of samples above both neighbours; a flat top reports its middle.

    A run of equal samples is a maximum when both samples bordering it are
    lower; its index is the middle of the run, rounded down.  Runs touching
    either end of the trace are never maxima.
    """
    change = np.flatnonzero(y[1:] != y[:-1])
    # The runs between two changes are the inner ones; change[:-1] holds their left neighbours.
    starts, ends = change[:-1] + 1, change[1:]
    top = (y[change[:-1]] < y[starts]) & (y[ends + 1] < y[ends])
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
    positions = []
    # Python floats round as float64 arrays do, so each peak costs no array op.
    for i in peaks[keep].tolist():
        left, mid, right = y.item(i - 1), y.item(i), y.item(i + 1)
        denom = left - 2.0 * mid + right
        offset = 0.5 * (left - right) / denom if denom < 0.0 else 0.0
        step = x.item(i + 1) - x.item(i) if offset >= 0 else x.item(i) - x.item(i - 1)
        positions.append(x.item(i) + offset * step)
    return np.array(positions, dtype=float), proms[keep]


@dataclass(frozen=True)
class SplittingResult:
    """A splitting (rad/s) extracted from a scanned spectrum."""

    delta_at: float

    def __post_init__(self):
        if not math.isfinite(self.delta_at) or self.delta_at < 0:
            raise ValueError(f"delta_at must be finite and >= 0, got {self.delta_at}")


def extract_splitting(trace: SpectrumTrace) -> SplittingResult:
    """Distance between the two most prominent of the peaks a trace holds.

    Raises UnresolvedSplittingError when the trace holds fewer than two.
    """
    if trace.peaks.size < 2:
        raise UnresolvedSplittingError(
            f"found {trace.peaks.size} peak(s) above prominence {PROMINENCE_DEFAULT}; need 2"
        )
    top_two = trace.peaks[np.argsort(trace.prominences)[-2:]]
    return SplittingResult(float(abs(top_two[1] - top_two[0])))


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
